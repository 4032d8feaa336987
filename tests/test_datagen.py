from dataclasses import replace

import numpy as np
import pytest

from hdtest import datagen
from hdtest.datagen import (
    ScenarioConfig,
    ar_correlation,
    generate,
    spd_sqrt,
)


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(example="9", p=10, n=5, m=5)
        with pytest.raises(ValueError):
            ScenarioConfig(example="1", p=10, n=5, m=5, rho=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(example="1", p=10, n=5, m=5, beta=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(example="1", p=10, n=5, m=5, innovation="cauchy")

    def test_unknown_v_diag(self):
        with pytest.raises(ValueError, match="unknown v_diag 'x'"):
            ScenarioConfig(example="1", p=10, n=5, m=5, v_diag="x")

    @pytest.mark.parametrize("field", ["seed", "v_seed"])
    def test_negative_seed_refused(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            ScenarioConfig(example="1", p=10, n=5, m=5, **{field: -1})

    @pytest.mark.parametrize("field", ["rho", "beta"])
    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_real_fields_refuse_bools_and_non_numbers(self, field, value):
        # a JSON true would otherwise run as 1, and a string fail deep inside
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {value!r}$"):
            ScenarioConfig(example="1", p=10, n=5, m=5, **{field: value})

    def test_label(self):
        cfg = ScenarioConfig(example="2ii", p=10, n=5, m=6, beta=0.25, seed=4)
        assert cfg.label == "ex2ii:p=10,n=5,m=6,beta=0.25,rho=0.5,innov=normal,v=ones"
        # the replication seed is not part of the name, a uniform V's seed is
        assert replace(cfg, seed=5, v_seed=3).label == cfg.label
        uniform = replace(cfg, v_diag="uniform", v_seed=3)
        assert uniform.label.endswith(",v=uniform(v_seed=3)")

    @pytest.mark.parametrize("sizes, message", [
        ({"p": 0, "n": 5, "m": 5}, "dimension"),
        ({"p": 10, "n": 1, "m": 5}, "2 observations"),
        ({"p": 10, "n": 5, "m": 1}, "2 observations"),
    ])
    def test_bad_sizes_refused_at_construction(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(example="1", **sizes)


class TestArCorrelation:
    def test_rho_zero_identity(self):
        np.testing.assert_array_equal(ar_correlation(4, 0.0), np.eye(4))

    def test_hand_matrix(self):
        expect = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
        np.testing.assert_allclose(ar_correlation(3, 0.5), expect)

    def test_rho_outside_unit_interval(self):
        with pytest.raises(ValueError, match="rho must be in"):
            ar_correlation(5, 1.0)

    def test_symmetric_unit_diagonal(self):
        r = ar_correlation(12, -0.3)
        np.testing.assert_allclose(r, r.T)
        np.testing.assert_allclose(np.diag(r), 1.0)


class TestSpdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_sqrt(np.eye(5)), np.eye(5), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(40)
        b = rng.standard_normal((20, 20))
        mat = b @ b.T + 0.1 * np.eye(20)
        s = spd_sqrt(mat)
        err = np.linalg.norm(s @ s - mat) / np.linalg.norm(mat)
        assert err < 1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="not PSD"):
            spd_sqrt(np.diag([1.0, -0.5]))

    def test_tiny_negative_clamped(self):
        out = spd_sqrt(np.diag([1.0, -1e-12]))
        assert out[1, 1] == 0.0


class TestExample1:
    def test_shapes_and_determinism(self):
        cfg = ScenarioConfig(example="1", p=30, n=8, m=6, seed=11)
        a = generate(cfg)
        b = generate(cfg)
        assert a.data.shape == (14, 30)
        np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_draw(self):
        base = ScenarioConfig(example="1", p=10, n=5, m=5, seed=1)
        other = ScenarioConfig(example="1", p=10, n=5, m=5, seed=2)
        assert not np.array_equal(generate(base).data, generate(other).data)

    def test_population_covariance(self):
        cfg = ScenarioConfig(example="1", p=8, n=3000, m=3000, rho=0.5, seed=3)
        s = generate(cfg)
        emp = np.cov(s.data, rowvar=False)
        np.testing.assert_allclose(emp, ar_correlation(8, 0.5), atol=0.12)

    def test_centered(self):
        cfg = ScenarioConfig(
            example="1", p=5, n=4000, m=4000, innovation="exponential", seed=4
        )
        s = generate(cfg)
        assert np.all(np.abs(s.data.mean(axis=0)) < 0.1)

    def test_uniform_v_diag_is_scenario_keyed(self):
        cfg1 = ScenarioConfig(example="1", p=10, n=5, m=5, v_diag="uniform", seed=1)
        cfg2 = ScenarioConfig(example="1", p=10, n=5, m=5, v_diag="uniform", seed=2)
        # same v_seed, different replication seeds: same marginal scales
        v1 = generate(cfg1).data.std(axis=0)
        v2 = generate(cfg2).data.std(axis=0)
        assert np.corrcoef(v1, v2)[0, 1] > 0.5


class TestExample2:
    def test_beta_zero_matches_null_design(self):
        for v_diag in ("ones", "uniform"):
            null_cfg = ScenarioConfig(example="1", p=15, n=6, m=7, v_diag=v_diag, seed=9)
            for variant in ("2i", "2ii", "2iii"):
                cfg = replace(null_cfg, example=variant, beta=0.0)
                np.testing.assert_allclose(
                    generate(cfg).data, generate(null_cfg).data, atol=1e-12
                )

    def test_shift_variant_mean(self):
        cfg = ScenarioConfig(example="2i", p=40, n=4000, m=4000, beta=0.5, seed=10)
        s = generate(cfg)
        gap = s.y.mean(axis=0) - s.x.mean(axis=0)
        assert np.all(np.abs(gap[:20] - 0.125) < 0.06)
        assert np.all(np.abs(gap[20:]) < 0.06)

    def test_scale_variant_variance(self):
        cfg = ScenarioConfig(example="2ii", p=20, n=6000, m=6000, beta=0.5, seed=11)
        s = generate(cfg)
        ratio = s.y.var(axis=0) / s.x.var(axis=0)
        # variance multiplier 1.05^2 on the first half (up to AR leakage)
        assert np.mean(ratio[:10]) > np.mean(ratio[10:])
        assert np.all(np.abs(s.y.mean(axis=0)) < 0.1)

    @pytest.mark.parametrize("v_diag", ["ones", "uniform"])
    @pytest.mark.parametrize("variant, scale", [("2ii", 1.05), ("2iii", 1.04)])
    def test_scale_is_relative_to_x(self, variant, scale, v_diag):
        # Y's covariance is X's, V included, with the first half of its
        # standard deviations scaled
        cfg = ScenarioConfig(example=variant, p=20, n=6000, m=6000, beta=0.5,
                             v_diag=v_diag, seed=11)
        s = generate(cfg)
        ratio = s.y.var(axis=0) / s.x.var(axis=0)
        assert abs(np.mean(ratio[:10]) - scale**2) < 0.05
        assert abs(np.mean(ratio[10:]) - 1.0) < 0.05

    def test_combined_variant_has_shift(self):
        cfg = ScenarioConfig(example="2iii", p=20, n=5000, m=5000, beta=1.0, seed=12)
        s = generate(cfg)
        gap = s.y.mean(axis=0) - s.x.mean(axis=0)
        assert np.all(np.abs(gap - 0.1) < 0.06)


class TestExample3:
    def test_matched_moments(self):
        for variant in ("3i", "3ii"):
            cfg = ScenarioConfig(example=variant, p=10, n=5000, m=5000, beta=1.0, seed=13)
            s = generate(cfg)
            assert np.all(np.abs(s.y.mean(axis=0)) < 0.06), variant
            assert np.all(np.abs(s.y.var(axis=0) - 1.0) < 0.08), variant

    def test_rademacher_support(self):
        cfg = ScenarioConfig(example="3i", p=6, n=10, m=50, beta=0.5, seed=14)
        s = generate(cfg)
        assert set(np.unique(s.y[:, :3])) <= {-1.0, 1.0}

    def test_uniform_support(self):
        cfg = ScenarioConfig(example="3ii", p=6, n=10, m=200, beta=0.5, seed=15)
        s = generate(cfg)
        block = s.y[:, :3]
        assert block.min() >= -np.sqrt(3.0) and block.max() <= np.sqrt(3.0)

    def test_beta_zero_null(self):
        cfg = ScenarioConfig(example="3i", p=6, n=20, m=20, beta=0.0, seed=16)
        s = generate(cfg)
        # no coordinate is forced into {-1, 1}
        assert not set(np.unique(s.y[:, 0])) <= {-1.0, 1.0}


class TestExample4:
    def test_duplicated_pairs(self):
        cfg = ScenarioConfig(example="4i", p=10, n=8, m=40, beta=1.0, seed=17)
        s = generate(cfg)
        for b in range(5):
            np.testing.assert_array_equal(s.y[:, 2 * b], s.y[:, 2 * b + 1])

    def test_marginals_are_fair_coins(self):
        cfg = ScenarioConfig(example="4i", p=6, n=10, m=20000, beta=1.0, seed=18)
        s = generate(cfg)
        freq = s.y.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) < 0.02)
        assert set(np.unique(s.data)) <= {0.0, 1.0}

    def test_triple_indicator_structure(self):
        cfg = ScenarioConfig(example="4ii", p=9, n=8, m=30, beta=1.0, seed=19)
        s = generate(cfg)
        for b in range(3):
            d1, d2, ind = s.y[:, 3 * b], s.y[:, 3 * b + 1], s.y[:, 3 * b + 2]
            np.testing.assert_array_equal(ind, (d1 == d2).astype(float))

    def test_triple_pairwise_independence(self):
        cfg = ScenarioConfig(example="4ii", p=3, n=10, m=40000, beta=1.0, seed=20)
        s = generate(cfg)
        c = np.cov(s.y, rowvar=False)
        off = c[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.01)

    def test_beta_zero_null(self):
        cfg = ScenarioConfig(example="4i", p=8, n=2000, m=2000, beta=0.0, seed=21)
        s = generate(cfg)
        # X and Y are the same i.i.d. Bernoulli(0.5) law
        assert np.all(np.abs(s.x.mean(axis=0) - s.y.mean(axis=0)) < 0.06)


class TestDispatch:
    def test_generate_routes_each_example(self):
        for ex in ("1", "2i", "2ii", "2iii", "3i", "3ii", "4i", "4ii"):
            cfg = ScenarioConfig(example=ex, p=6, n=4, m=4, beta=0.5, seed=22)
            s = generate(cfg)
            assert s.data.shape == (8, 6)


class TestSquareRootCache:
    def test_bounded_and_keyed_by_inputs(self):
        datagen._base_sqrt.cache_clear()
        # the null and mean-shift designs share one root per (p, rho, scales)
        for example in ("1", "2i"):
            generate(ScenarioConfig(example=example, p=17, n=2, m=2, beta=0.5))
        assert datagen._base_sqrt.cache_info().misses == 1
        for p in range(3, 15):
            generate(ScenarioConfig(example="2ii", p=p, n=2, m=2, beta=0.5))
        assert datagen._base_sqrt.cache_info().currsize == 8
