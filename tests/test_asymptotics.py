import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hdtest import asymptotics, permutation
from hdtest.asymptotics import (
    GaussianProcessSpec,
    MomentConstants,
    f_w,
    f_w_frac,
    hypergeom_pmf,
    mean_gap,
    mixture_normal_cdf,
    mu_nw,
    power_limit_mc,
    sigma2_hdmss,
    sigma2_nw,
)
from hdtest.kernels import FAMILIES, KernelSpec, phi, phi_prime
from hdtest.permutation import PermutationPlan, plan_masks, sample_masks
from hdtest.statistic import masked_statistics, pair_weights
from tests.reference import (
    distinct_relabellings_rowsort,
    gamma,
    gaussian_pair_matrix,
    limit_statistics_fsum,
    masked_pair_sums,
    mixture_normal_cdf_scipy,
    pair_layout_triu,
    permutation_mean_square,
    power_limit_mc_loop,
    s_w_cardinality,
)


def grouped_sigma2(n, m, w, c, spec):
    """Independent oracle: variance written as pair counts over the three
    weight blocks, before collecting powers of w."""
    vx = c.v_x * phi_prime(spec, c.e_x) ** 2
    vy = c.v_y * phi_prime(spec, c.e_y) ** 2
    vxy = c.v_xy * phi_prime(spec, c.e_xy) ** 2
    t1 = (
        4.0
        / (n * n * (n - 1) ** 2)
        * ((n - w) * (n - w - 1) / 2 * vx + w * (w - 1) / 2 * vy + (n - w) * w * vxy)
    )
    t2 = (
        4.0
        / (m * m * (m - 1) ** 2)
        * (w * (w - 1) / 2 * vx + (m - w) * (m - w - 1) / 2 * vy + w * (m - w) * vxy)
    )
    t3 = (
        4.0
        / (n * n * m * m)
        * ((n - w) * w * vx + w * (m - w) * vy + ((n - w) * (m - w) + w * w) * vxy)
    )
    return t1 + t2 + t3


def precollection_mu(n, m, w, c, spec):
    """Independent oracle: mean as explicit pair-count sums over the three
    weight blocks."""
    px, py, pxy = phi(spec, c.e_x), phi(spec, c.e_y), phi(spec, c.e_xy)
    t1 = 2.0 / (m * n) * (
        (w * w + (n - w) * (m - w)) * pxy + (n - w) * w * px + (m - w) * w * py
    )
    t2 = (
        1.0
        / (n * (n - 1))
        * (2 * w * (n - w) * pxy + (n - w) * (n - w - 1) * px + w * (w - 1) * py)
    )
    t3 = (
        1.0
        / (m * (m - 1))
        * (2 * w * (m - w) * pxy + w * (w - 1) * px + (m - w) * (m - w - 1) * py)
    )
    return t1 - t2 - t3


class TestFW:
    def test_f_zero_is_one(self):
        for n, m in ((2, 2), (5, 7), (30, 11)):
            assert f_w(n, m, 0) == 1.0

    def test_full_swap_equal_sizes(self):
        for n in (2, 5, 12):
            assert f_w_frac(n, n, n) == 1

    def test_pmf_weighted_mean_is_zero(self):
        # exact rationals; the randomization distribution has mean zero
        for n in range(2, 13):
            for m in range(2, 13):
                total = sum(hypergeom_pmf(n, m, w) * f_w_frac(n, m, w)
                            for w in range(min(n, m) + 1))
                assert total == 0, (n, m)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f_w(3, 3, 4)
        with pytest.raises(ValueError):
            f_w(1, 3, 0)


class TestMuNW:
    def test_equal_means_vanish(self):
        c = MomentConstants(2.0, 2.0, 2.0, 1.0, 1.0, 1.0)
        for w in range(6):
            assert mu_nw(6, 5, w, c, KernelSpec("l2")) == pytest.approx(0.0)

    def test_w_zero_is_full_gap(self):
        c = MomentConstants(1.0, 2.0, 2.5, 1.0, 1.0, 1.0)
        spec = KernelSpec("gaussian", 0.8)
        assert mu_nw(9, 4, 0, c, spec) == pytest.approx(mean_gap(c, spec))

    def test_l1_hand_value(self):
        c = MomentConstants(1.0, 1.0, 2.0, 1.0, 1.0, 1.0)
        spec = KernelSpec("l1")
        assert mean_gap(c, spec) == 2.0
        assert mu_nw(5, 5, 2, c, spec) == pytest.approx(2.0 * f_w(5, 5, 2))

    def test_matches_precollection_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n, m = (int(v) for v in rng.integers(2, 20, size=2))
            c = MomentConstants(*rng.uniform(0.5, 3.0, 3), 1.0, 1.0, 1.0)
            spec = KernelSpec("laplacian", 1.5)
            for w in range(min(n, m) + 1):
                a = mu_nw(n, m, w, c, spec)
                b = precollection_mu(n, m, w, c, spec)
                assert a == pytest.approx(b, rel=1e-11, abs=1e-12), (n, m, w)


class TestSigma2NW:
    def test_w_zero_closed_form(self):
        c = MomentConstants(1.5, 2.5, 2.0, 0.7, 1.3, 2.1)
        spec = KernelSpec("l2")
        n, m = 8, 5
        expect = (
            4.0 / (n * m) * c.v_xy * phi_prime(spec, c.e_xy) ** 2
            + 2.0 / (n * (n - 1)) * c.v_x * phi_prime(spec, c.e_x) ** 2
            + 2.0 / (m * (m - 1)) * c.v_y * phi_prime(spec, c.e_y) ** 2
        )
        assert sigma2_nw(n, m, 0, c, spec) == pytest.approx(expect, rel=1e-12)

    def test_zero_variances(self):
        c = MomentConstants(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        for w in range(4):
            assert sigma2_nw(5, 3, w, c, KernelSpec("l1")) == 0.0

    def test_matches_grouped_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n, m = (int(v) for v in rng.integers(2, 31, size=2))
            c = MomentConstants(*rng.uniform(0.5, 3.0, 3), *rng.uniform(0.0, 2.0, 3))
            spec = KernelSpec("gaussian", 1.1)
            for w in range(min(n, m) + 1):
                a = sigma2_nw(n, m, w, c, spec)
                b = grouped_sigma2(n, m, w, c, spec)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-15), (n, m, w)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MomentConstants(1.0, 1.0, 1.0, -0.1, 1.0, 1.0)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MomentConstants(1.0, 1.0, 1.0, math.nan, 1.0, 1.0)

    @pytest.mark.parametrize("which", range(3))
    def test_negative_mean_rejected(self, which):
        means = [1.0, 1.0, 1.0]
        means[which] = -1.0
        with pytest.raises(ValueError, match="means must be finite and nonnegative"):
            MomentConstants(*means, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["e_x", "e_y", "e_xy", "v_x", "v_y", "v_xy"])
    @pytest.mark.parametrize("value", [True, "1.0"])
    def test_constants_must_be_real_numbers(self, field, value):
        constants = dict(e_x=1.0, e_y=1.0, e_xy=1.0, v_x=1.0, v_y=1.0, v_xy=1.0)
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {value!r}$"):
            MomentConstants(**{**constants, field: value})

    @pytest.mark.parametrize("field", ["e_x", "e_y", "e_xy", "v_x", "v_y", "v_xy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_constant_is_named(self, field, value):
        constants = dict(e_x=1.0, e_y=1.0, e_xy=1.0, v_x=1.0, v_y=1.0, v_xy=1.0)
        what = "means" if field.startswith("e") else "variances"
        with pytest.raises(ValueError, match=f"^{what} must be finite and nonnegative, "
                                             f"got {field}={value}$"):
            MomentConstants(**{**constants, field: value})

    @pytest.mark.parametrize("field", ["e_x", "v_xy"])
    def test_constant_beyond_the_float_range_refused(self, field):
        # an integer a JSON config may hold, which no float can represent
        constants = dict(e_x=1.0, e_y=1.0, e_xy=1.0, v_x=1.0, v_y=1.0, v_xy=1.0)
        with pytest.raises(TypeError, match=f"^{field} must be a real number within the "
                                            "float range$"):
            MomentConstants(**{**constants, field: 10**400})

    def test_zero_means_allowed(self):
        # constant data gives e = 0
        c = MomentConstants(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert sigma2_nw(4, 5, 2, c, KernelSpec("l1")) > 0.0


def _block_indicators(n, m):
    """(3, n+m, n+m) zero-diagonal indicators of the X, Y and cross pairs."""
    x = np.arange(n + m) < n
    out = np.stack([np.outer(x, x), np.outer(~x, ~x), np.outer(x, ~x) | np.outer(~x, x)])
    out = out.astype(float)
    out[:, np.arange(n + m), np.arange(n + m)] = 0.0
    return out


def test_limit_formulas_count_the_engines_pairs():
    """For every mask, the statistic over each original block's indicator is
    that block's f(w) share, and its squared weights give sigma^2_{n,w}."""
    spec = KernelSpec("l1")
    for n in range(2, 7):
        for m in range(2, 7):
            masks = plan_masks(PermutationPlan(mode="exact"), n, m)
            w = n - masks[:, :n].sum(axis=1)
            support = range(min(n, m) + 1)
            blocks = _block_indicators(n, m)
            f = np.array([f_w(n, m, k) for k in support])[w]
            stats = masked_statistics(blocks, n, m, masks)
            np.testing.assert_allclose(stats, [-f, -f, 2 * f], rtol=0, atol=1e-12,
                                       err_msg=f"n={n}, m={m}")
            # for n = m the within sums may come back swapped; their squared
            # weights are then equal, so only the combined values are compared
            squares = [float(wt * wt) for wt in pair_weights(n, m)]
            got = sum(s * sums for s, sums in zip(squares, masked_pair_sums(blocks, n, m, masks)))
            for block, v in enumerate(np.eye(3)):  # v_x, v_y, v_xy one at a time
                c = MomentConstants(1.0, 1.0, 1.0, *v)
                expect = np.array([sigma2_nw(n, m, k, c, spec) for k in support])[w]
                np.testing.assert_allclose(got[block], expect, rtol=1e-12, atol=0,
                                           err_msg=f"n={n}, m={m}, block {block}")


class TestHypergeometric:
    def test_tiny_case(self):
        assert hypergeom_pmf(1, 1, 0) == Fraction(1, 2)
        assert hypergeom_pmf(1, 1, 1) == Fraction(1, 2)

    def test_sums_to_one(self):
        for n, m in ((2, 2), (3, 8), (12, 5)):
            assert sum(hypergeom_pmf(n, m, w) for w in range(min(n, m) + 1)) == 1

    def test_matches_cardinality_counts(self):
        assert hypergeom_pmf(2, 2, 1) == Fraction(2, 3)
        for n in range(2, 9):
            for m in range(2, 9):
                fact = math.factorial(n + m)
                for w in range(min(n, m) + 1):
                    assert hypergeom_pmf(n, m, w) * fact == s_w_cardinality(n, m, w)

    def test_off_support(self):
        assert hypergeom_pmf(3, 3, 4) == 0


class TestHdmssVariance:
    def test_balanced_common_constants(self):
        v = 1.7
        c = MomentConstants(2.0, 2.0, 2.0, v, v, v)
        spec = KernelSpec("l1")
        assert sigma2_hdmss(1.0, c, spec) == pytest.approx(8.0 * v)

    def test_reciprocal_symmetry(self):
        spec = KernelSpec("gaussian", 1.2)
        c = MomentConstants(1.1, 2.3, 1.8, 0.9, 1.6, 1.2)
        c_swap = MomentConstants(2.3, 1.1, 1.8, 1.6, 0.9, 1.2)
        assert sigma2_hdmss(0.4, c, spec) == pytest.approx(
            sigma2_hdmss(2.5, c_swap, spec), rel=1e-12
        )

    def test_limit_of_finite_sample_variance(self):
        n = m = 200
        c = MomentConstants(2.0, 2.1, 2.05, 1.3, 0.8, 1.1)
        spec = KernelSpec("l2")
        w_star = round(n * m / (n + m))
        finite = n * m * sigma2_nw(n, m, w_star, c, spec)
        limit = sigma2_hdmss(n / m, c, spec)
        assert abs(finite - limit) / limit < 0.02

    def test_rho_must_be_positive(self):
        c = MomentConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            sigma2_hdmss(0.0, c, KernelSpec("l1"))

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_rho_refused(self, rho):
        c = MomentConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^rho must be finite and positive$"):
            sigma2_hdmss(rho, c, KernelSpec("l2"))


class TestMixtureNormalCdf:
    def _constants(self):
        return MomentConstants(1.0, 1.0, 1.0, 1.0, 1.0, 2.0)

    def test_limits(self):
        c = self._constants()
        spec = KernelSpec("l1")
        assert mixture_normal_cdf(1e6, 3, 3, c, spec) == pytest.approx(1.0)
        assert mixture_normal_cdf(-1e6, 3, 3, c, spec) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_at_zero(self):
        c = self._constants()
        assert mixture_normal_cdf(0.0, 3, 3, c, KernelSpec("l1")) == pytest.approx(0.5)

    def test_against_two_stage_monte_carlo(self):
        n = m = 3
        c = self._constants()
        spec = KernelSpec("l1")
        a = 0.5
        support = range(min(n, m) + 1)
        probs = np.array([float(hypergeom_pmf(n, m, w)) for w in support])
        sigmas = np.array([math.sqrt(sigma2_nw(n, m, w, c, spec)) for w in support])
        rng = np.random.default_rng(22)
        draws = 2_000_000
        ws = rng.choice(len(probs), size=draws, p=probs)
        vals = rng.standard_normal(draws) * sigmas[ws]
        mc = np.mean(vals <= a)
        assert mixture_normal_cdf(a, n, m, c, spec) == pytest.approx(mc, abs=0.005)

    def test_zero_variance_point_mass(self):
        c = MomentConstants(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        spec = KernelSpec("l1")
        assert mixture_normal_cdf(0.0, 4, 4, c, spec) == pytest.approx(1.0)
        assert mixture_normal_cdf(-0.1, 4, 4, c, spec) == pytest.approx(0.0, abs=1e-15)

    @staticmethod
    def _assert_matches_scipy(n, m, c, spec):
        """|error| <= 1e-15, and <= 1e-12 relative wherever scipy's value is at
        least 1e-300, from -40 to +40 of the largest component's sigma, at 0
        and at +-1e6."""
        sigma = math.sqrt(max(sigma2_nw(n, m, w, c, spec) for w in range(min(n, m) + 1)))
        a = np.concatenate([sigma * np.arange(-40, 41), [0.0, -1e6, 1e6]])
        ref = mixture_normal_cdf_scipy(a, n, m, c, spec)
        got = np.array([mixture_normal_cdf(float(x), n, m, c, spec) for x in a])
        err = np.abs(got - ref)
        assert err.max() <= 1e-15
        normal = ref >= 1e-300
        assert (err[normal] <= 1e-12 * ref[normal]).all()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 7), (10, 10), (12, 30), (30, 30)])
    def test_matches_scipy_normal_cdf(self, family, n, m):
        for c in (MomentConstants(1.0, 1.5, 2.0, 0.7, 1.3, 2.9),
                  MomentConstants(0.3, 0.2, 4.0, 5.0, 0.01, 1.0)):
            self._assert_matches_scipy(n, m, c, KernelSpec(family))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_variances_match_scipy(self, family):
        # all three zero makes every class a point mass at 0
        for c in (MomentConstants(1.0, 1.5, 2.0, 0.0, 0.0, 0.0),
                  MomentConstants(1.0, 1.5, 2.0, 0.0, 0.0, 3.0),
                  MomentConstants(1.0, 1.5, 2.0, 2.0, 0.0, 0.0)):
            for n, m in ((2, 2), (4, 9), (30, 30)):
                self._assert_matches_scipy(n, m, c, KernelSpec(family))


class TestPowerLimitMC:
    def test_zero_process_never_rejects(self):
        gp = GaussianProcessSpec(3, 3, 0.0, 0.0, 0.0)
        rate, se = power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 1000)
        assert rate == 0.0 and se == 0.0

    @pytest.mark.parametrize("field", ["n", "m"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True])
    def test_spec_sizes_must_be_integers(self, field, value):
        sizes = {"n": 3, "m": 3, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            GaussianProcessSpec(**sizes, v_xy=1.0, v_x=1.0, v_y=1.0)

    @pytest.mark.parametrize("field", ["v_xy", "v_x", "v_y"])
    @pytest.mark.parametrize("value", [True, "1.0"])
    def test_spec_variances_must_be_real_numbers(self, field, value):
        variances = {"v_xy": 1.0, "v_x": 1.0, "v_y": 1.0, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got {value!r}$"):
            GaussianProcessSpec(3, 3, **variances)

    @pytest.mark.parametrize("field", ["v_xy", "v_x", "v_y"])
    def test_spec_variance_beyond_the_float_range_refused(self, field):
        variances = {"v_xy": 1.0, "v_x": 1.0, "v_y": 1.0, field: 10**400}
        with pytest.raises(TypeError, match=f"^{field} must be a real number within the "
                                            "float range$"):
            GaussianProcessSpec(3, 3, **variances)

    @pytest.mark.parametrize("field", ["v_xy", "v_x", "v_y"])
    def test_first_bad_spec_variance_is_named(self, field):
        variances = {"v_xy": 1.0, "v_x": -1.0, "v_y": math.nan, field: math.inf}
        first = next(name for name in ("v_xy", "v_x", "v_y") if variances[name] != 1.0)
        with pytest.raises(ValueError, match=f"^variances must be finite and nonnegative, "
                                             f"got {first}={variances[first]}$"):
            GaussianProcessSpec(3, 3, **variances)

    @pytest.mark.parametrize("field", ["draws", "seed"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True])
    def test_draws_and_seed_must_be_integers(self, field, value):
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        args = {"draws": 1000, "seed": 0, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), **args)

    @pytest.mark.parametrize("plan", [PermutationPlan(mode="exact"), PermutationPlan(count=50)])
    def test_negative_seed_rejected_before_any_draw(self, monkeypatch, plan):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw ran before the seed was checked")

        monkeypatch.setattr(asymptotics, "plan_masks", no_draw)
        monkeypatch.setattr(asymptotics, "_limit_batches", no_draw)
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            power_limit_mc(gp, 0.05, plan, 1000, seed=-1)

    @pytest.mark.parametrize("plan", [PermutationPlan(mode="exact"), PermutationPlan(count=50)])
    def test_alpha_checked_before_any_draw(self, monkeypatch, plan):
        def no_draw(*args):
            raise AssertionError("a batch was drawn before alpha was checked")

        monkeypatch.setattr(asymptotics, "_limit_batches", no_draw)
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            power_limit_mc(gp, 1.5, plan, 1000)

    def test_minimum_draws_enforced(self):
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 100)

    def test_draws_beyond_an_index_refused(self, monkeypatch):
        # refused before any draw: no batch may be asked for
        monkeypatch.setattr(asymptotics, "_limit_batches", None)
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=rf"^draws must be at most {sys.maxsize}$"):
            power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), sys.maxsize + 1)

    def test_exact_cap_enforced(self):
        # C(20, 10) = 184756 masks exceed the cap, as in permutation_test
        gp = GaussianProcessSpec(10, 10, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="exact enumeration"):
            power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 1000)

    def test_self_consistency_disjoint_seeds(self):
        gp = GaussianProcessSpec(3, 3, 4.0, 1.0, 1.0)
        plan = PermutationPlan(mode="exact")
        r1, se1 = power_limit_mc(gp, 0.05, plan, 5000, seed=100)
        r2, se2 = power_limit_mc(gp, 0.05, plan, 5000, seed=200)
        assert se1 < 0.01 and se2 < 0.01
        assert abs(r1 - r2) <= 4.0 * math.hypot(se1, se2)

    def test_against_independent_reimplementation(self):
        # same limit process evaluated with explicit per-permutation weight
        # matrices over all 720 permutations, disjoint seed
        from itertools import permutations as iter_permutations

        from tests.reference import permutation_weights

        n = m = 3
        gp = GaussianProcessSpec(n, m, 4.0, 1.0, 1.0)
        alpha = 0.05
        weights = np.array(
            [permutation_weights(np.array(p), n, m) for p in iter_permutations(range(6))]
        )
        rng = np.random.default_rng(999)
        draws = 4000
        rejections = 0
        for _ in range(draws):
            g = np.zeros((6, 6))
            b = rng.normal(scale=2.0, size=(3, 3))
            g[:3, 3:] = b
            g[3:, :3] = b.T
            for lo in (0, 3):
                iu = np.triu_indices(3, 1)
                blk = np.zeros((3, 3))
                blk[iu] = rng.normal(size=3)
                g[lo : lo + 3, lo : lo + 3] = blk + blk.T
            vals = np.sort((weights * g).sum(axis=(1, 2)) / 2.0)
            crit = vals[720 - math.floor(alpha * 720) - 1]
            identity = (permutation_weights(np.arange(6), n, m) * g).sum() / 2.0
            rejections += identity > crit
        indep = rejections / draws
        se_i = math.sqrt(indep * (1 - indep) / draws)
        r, se = power_limit_mc(gp, alpha, PermutationPlan(mode="exact"), 5000, seed=42)
        assert abs(r - indep) <= 4.0 * math.hypot(se, se_i)

    def test_reproducible(self):
        gp = GaussianProcessSpec(3, 4, 2.0, 1.0, 0.5)
        plan = PermutationPlan(mode="monte-carlo", count=60, seed=7)
        a = power_limit_mc(gp, 0.05, plan, 1500, seed=3)
        b = power_limit_mc(gp, 0.05, plan, 1500, seed=3)
        assert a == b

    def test_group_of_one_rejected(self):
        with pytest.raises(ValueError, match="n, m >= 2"):
            GaussianProcessSpec(1, 3, 1.0, 1.0, 1.0)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianProcessSpec(3, 3, 1.0, math.nan, 1.0)

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianProcessSpec(3, 3, math.inf, 1.0, 1.0)


def _in_draw_order(batch):
    """A batch's rows, drawn normals first and then their negations, in
    draw order: draw 2j is row j and draw 2j+1 row ceil(r/2) + j of its r."""
    half = (len(batch) + 1) // 2
    order = np.empty(len(batch), dtype=np.intp)
    order[0::2], order[1::2] = np.arange(half), np.arange(half, len(batch))
    return batch[order]


def _engine(gp, plan, draws, seed):
    """The limit Monte Carlo's distinct relabellings of ``plan``, their
    multiplicities and the (draws, relabellings) statistics in draw order,
    each batch's normals drawn and each block's statistics taken as
    ``power_limit_mc`` draws and builds them."""
    masks = plan_masks(plan, gp.n, gp.m)
    rng = np.random.default_rng(seed)
    stats = []
    for (size, pairs), blocks in asymptotics._limit_batches(gp, masks, draws):
        z = rng.standard_normal(((size + 1) // 2, pairs))
        z = np.concatenate([z, -z[:size // 2]])
        stats.append(_in_draw_order(np.hstack([z @ coefficients for coefficients, _ in blocks])))
    distinct, counts = asymptotics._distinct_relabellings(masks)
    return distinct, counts, np.concatenate(stats)


def _decisions(monkeypatch, gp, plan, draws, seed, alpha=0.05):
    """``power_limit_mc``'s (estimate, standard error) and each draw's
    decision in draw order, as its one decision loop returned them batch by
    batch."""
    rejects = []

    def recorded(*args):
        rejects.append(permutation._sequential_rejections(*args))
        return rejects[-1]

    monkeypatch.setattr(asymptotics, "_sequential_rejections", recorded)
    estimate = power_limit_mc(gp, alpha, plan, draws, seed=seed)
    return estimate, np.concatenate([_in_draw_order(batch) for batch in rejects])


class TestBatchedLimitMC:
    """The batched limit Monte Carlo against the per-draw loop and the fsum
    reference of ``tests.reference``: the same decisions and estimates, and
    every statistic within the rounding bound of its dot product."""

    @pytest.mark.parametrize(
        "args, plan, draws, seed",
        [
            # criterion 09
            ((3, 3, 1.0, 1.0, 1.0), PermutationPlan(mode="exact"), 20000, 9),
            # the seeds of TestPowerLimitMC
            ((3, 3, 0.0, 0.0, 0.0), PermutationPlan(mode="exact"), 1000, 0),
            ((3, 3, 4.0, 1.0, 1.0), PermutationPlan(mode="exact"), 5000, 100),
            ((3, 3, 4.0, 1.0, 1.0), PermutationPlan(mode="exact"), 5000, 200),
            ((3, 3, 4.0, 1.0, 1.0), PermutationPlan(mode="exact"), 5000, 42),
            ((3, 4, 2.0, 1.0, 0.5), PermutationPlan(count=60, seed=7), 1500, 3),
            # n != m with a zero-variance X block, and a zero cross block
            ((4, 6, 1.0, 0.0, 2.0), PermutationPlan(mode="exact"), 1000, 11),
            ((5, 3, 0.0, 1.0, 2.0), PermutationPlan(mode="exact"), 1000, 12),
            # several batches and a remainder: the block below holds the
            # 10 x 10 plan's coefficients (190 pairs x 300 relabellings) but
            # not 1000 draws' normals, so its batches hold 218 draws
            ((10, 10, 1.0, 1.0, 1.0), PermutationPlan(count=300, seed=3), 1000, 3),
        ],
    )
    def test_matches_per_draw_loop(self, monkeypatch, args, plan, draws, seed):
        # every other case batches as under the default block
        monkeypatch.setattr(asymptotics, "_BLOCK_ENTRIES", 2**17)
        gp = GaussianProcessSpec(*args)
        rate, se, loop_rejects = power_limit_mc_loop(gp, 0.05, plan, draws, seed=seed)
        estimate, rejects = _decisions(monkeypatch, gp, plan, draws, seed)
        assert np.array_equal(rejects, loop_rejects)
        assert estimate == (rate, se)
        distinct, _, stats = _engine(gp, plan, draws, seed)
        # the GEMM may sum in any order: each statistic is within the bound
        # of a dot product over the P drawn pairs of the correctly rounded
        # sum of the same terms
        ref, scale = limit_statistics_fsum(gp, distinct, draws, seed)
        pairs = asymptotics._pair_layout(gp)[2].size
        assert np.all(np.abs(stats - ref) <= gamma(pairs + 2) * scale)

    @pytest.mark.parametrize("entries, draws, sizes, built", [
        # the default bounds: one batch of the 1000 draws, then batches of
        # 1000 and a remainder, each with the same coefficients
        pytest.param({}, 1000, [1000], True, id="one batch"),
        pytest.param({}, 2500, [1000, 1000, 500], True, id="built-once batches"),
        # coefficients in blocks of 91 relabellings, built for each batch of
        # 44 draws (a block's 45 rounded down to whole antithetic pairs),
        # whatever the bound of built-once batches
        pytest.param({"_BLOCK_ENTRIES": 2**12, "_BATCH_ENTRIES": 2**8}, 1000,
                     [44] * 22 + [32], False, id="rebuilt per batch"),
    ])
    def test_batching_never_moves_a_decision(self, monkeypatch, entries, draws, sizes, built):
        # n != m exact: 210 relabellings of 45 pairs
        for name, value in entries.items():
            monkeypatch.setattr(asymptotics, name, value)
        gp, plan, seed = GaussianProcessSpec(4, 6, 2.0, 1.0, 0.5), PermutationPlan(mode="exact"), 8
        batches = list(asymptotics._limit_batches(gp, plan_masks(plan, gp.n, gp.m), draws))
        assert [shape for shape, _ in batches] == [(size, 45) for size in sizes]
        assert all((chunks is batches[0][1]) is built for _, chunks in batches[1:])
        rate, se, loop_rejects = power_limit_mc_loop(gp, 0.05, plan, draws, seed=seed)
        estimate, rejects = _decisions(monkeypatch, gp, plan, draws, seed)
        assert np.array_equal(rejects, loop_rejects)
        assert estimate == (rate, se)

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    @pytest.mark.parametrize("args, plan", [
        ((4, 4, 1.0, 3.0, 0.5), PermutationPlan(mode="exact")),  # n = m exact
        ((3, 5, 2.0, 1.0, 0.5), PermutationPlan(count=300, seed=4)),  # n != m Monte Carlo
        ((4, 6, 1.0, 0.0, 2.0), PermutationPlan(mode="exact")),  # a zero-variance X block
    ])
    def test_a_pair_never_rejects_twice(self, monkeypatch, alpha, args, plan):
        # a draw's and its negation's counts of values reaching the observed
        # one sum to at least S + 1, more than 2 floor(alpha S) for alpha <= 1/2
        draws = 1001
        (rate, se), rejects = _decisions(monkeypatch, GaussianProcessSpec(*args), plan, draws,
                                         seed=13, alpha=alpha)
        assert rejects.any()
        assert not (rejects[0:-1:2] & rejects[1::2]).any()
        assert rate <= math.ceil(draws / 2) / draws
        assert se == math.sqrt(rate * (1.0 - rate) / draws)

    def test_pairs_that_reject_twice_widen_the_error(self, monkeypatch):
        # for alpha > 1/2 both draws of a pair may reject, and the standard
        # error adds the share of such pairs to the independent-draws variance
        gp, plan = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0), PermutationPlan(mode="exact")
        draws = 1000
        rate, se, loop_rejects = power_limit_mc_loop(gp, 0.9, plan, draws, seed=17)
        estimate, rejects = _decisions(monkeypatch, gp, plan, draws, seed=17, alpha=0.9)
        assert np.array_equal(rejects, loop_rejects)
        assert estimate == (rate, se)
        assert (rejects[0::2] & rejects[1::2]).any()
        assert se > math.sqrt(rate * (1.0 - rate) / draws)

    def test_odd_draws_pair_alike_in_any_batching(self, monkeypatch):
        # 1001 draws: a batch of 1000 and the unpaired last draw, or 22
        # batches of 44 and one of 33 that ends with it
        gp, plan = GaussianProcessSpec(4, 6, 2.0, 1.0, 0.5), PermutationPlan(mode="exact")
        draws = 1001
        masks = plan_masks(plan, gp.n, gp.m)
        results = []
        for entries, sizes in ((asymptotics._BLOCK_ENTRIES, [1000, 1]), (2**12, [44] * 22 + [33])):
            monkeypatch.setattr(asymptotics, "_BLOCK_ENTRIES", entries)
            assert [size for (size, _), _ in asymptotics._limit_batches(gp, masks, draws)] == sizes
            results.append(_decisions(monkeypatch, gp, plan, draws, seed=8, alpha=0.5))
        (default, default_rejects), (rebuilt, rebuilt_rejects) = results
        assert default == rebuilt
        assert np.array_equal(default_rejects, rebuilt_rejects)

    @pytest.mark.parametrize("args", [
        (3, 3, 1.0, 1.0, 1.0),
        (4, 6, 2.0, 1.0, 0.5),  # n < m
        (7, 2, 2.0, 1.0, 0.5),  # n > m, with a one-pair Y block
        (4, 6, 1.0, 0.0, 2.0),  # a zero-variance X block
        (5, 3, 0.0, 1.0, 2.0),  # a zero-variance cross block
        (5, 3, 1.0, 1.0, 0.0),  # a zero-variance Y block
    ])
    def test_pair_layout_matches_triu_indices(self, args):
        gp = GaussianProcessSpec(*args)
        for got, expected in zip(asymptotics._pair_layout(gp), pair_layout_triu(gp)):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "args, plan, block_entries, blocks",
        [
            # n != m exact: 210 relabellings of 45 pairs in blocks of 22
            ((4, 6, 2.0, 1.0, 0.5), PermutationPlan(mode="exact"), 2**10, 10),
            # n = m exact: 35 relabellings, each counted twice, of 28 pairs in
            # blocks of 18
            ((4, 4, 1.0, 3.0, 0.5), PermutationPlan(mode="exact"), 2**9, 2),
            # the 10 x 10 Monte Carlo plan of the benchmark: 300 relabellings of
            # 190 pairs in blocks of 43
            ((10, 10, 1.0, 1.0, 1.0), PermutationPlan(count=300, seed=3), 2**13, 7),
            # n != m exact in blocks of 91, so each batch's chunks grow: 64,
            # then 91 and the last 55
            ((4, 6, 2.0, 1.0, 0.5), PermutationPlan(mode="exact"), 2**12, 3),
        ],
    )
    def test_several_blocks_match_per_draw_loop(self, monkeypatch, args, plan,
                                                block_entries, blocks):
        # coefficients rebuilt for every batch, and draws that leave the loop
        # once decided, before the last block
        monkeypatch.setattr(asymptotics, "_BLOCK_ENTRIES", block_entries)
        gp = GaussianProcessSpec(*args)
        draws, seed = 1000, 21
        batches = list(asymptotics._limit_batches(gp, plan_masks(plan, gp.n, gp.m), draws))
        assert len(batches) > 1 and len(list(batches[0][1])) == blocks
        rate, se, loop_rejects = power_limit_mc_loop(gp, 0.05, plan, draws, seed=seed)
        estimate, rejects = _decisions(monkeypatch, gp, plan, draws, seed)
        assert np.array_equal(rejects, loop_rejects)
        assert estimate == (rate, se)

    @pytest.mark.parametrize("args, plan", [
        ((3, 4, 2.0, 1.0, 0.5), PermutationPlan(mode="exact")),
        ((4, 4, 1.0, 3.0, 0.5), PermutationPlan(mode="exact")),
        ((4, 5, 1.0, 0.0, 2.0), PermutationPlan(mode="exact")),
        ((10, 10, 1.0, 1.0, 1.0), PermutationPlan(count=300, seed=3)),
    ])
    def test_coefficients_are_the_engine_on_unit_pairs(self, args, plan):
        # pair k's row of coefficients is the statistic of the pair matrix
        # holding k's standard deviation at k and 0 elsewhere
        gp = GaussianProcessSpec(*args)
        rows, cols, sd = layout = asymptotics._pair_layout(gp)
        distinct, _ = asymptotics._distinct_relabellings(plan_masks(plan, gp.n, gp.m))
        w_xy, w_x, w_y = (float(w) for w in pair_weights(gp.n, gp.m))
        coefficients = asymptotics._coefficients(distinct, layout, np.array([w_y, w_xy, w_x]))
        units = np.zeros((sd.size, gp.n + gp.m, gp.n + gp.m))
        units[np.arange(sd.size), rows, cols] = units[np.arange(sd.size), cols, rows] = sd
        expected = masked_statistics(units, gp.n, gp.m, distinct)
        assert np.all(np.abs(coefficients - expected) <= gamma(sd.size + 2) * np.abs(coefficients))

    @pytest.mark.parametrize("args", [
        (3, 4, 2.0, 1.0, 0.5),  # n != m
        (4, 4, 1.0, 3.0, 0.5),  # n = m, every relabelling counted twice
        (4, 5, 1.0, 0.0, 2.0),  # a zero-variance block
    ])
    def test_exact_moments_match_closed_form(self, args):
        gp = GaussianProcessSpec(*args)
        plan, draws = PermutationPlan(mode="exact"), 300
        _, counts, stats = _engine(gp, plan, draws, seed=5)
        size = int(counts.sum())
        assert size == math.comb(gp.n + gp.m, gp.n)
        rng = np.random.default_rng(5)
        for d, row in enumerate(stats):
            # draws 2j and 2j+1 share one pair matrix, negated for the second
            pair_matrix = gaussian_pair_matrix(gp, rng) if d % 2 == 0 else -pair_matrix
            mean = math.fsum((counts * row).tolist()) / size
            mean_square = math.fsum((counts * row * row).tolist()) / size
            closed = permutation_mean_square(pair_matrix, gp.n, gp.m)
            assert abs(mean) <= 1e-14 * np.abs(row).max()
            assert abs(mean_square - closed) <= 1e-13 * closed

    def test_batches_bound_memory(self):
        # a large exact plan, whose coefficients take several blocks, a
        # large-N Monte Carlo plan, whose batches hold few draws, and a plan
        # whose coefficients are built once for batches of 1000 draws; the
        # bound, three and a half arrays of a block's entries, was fixed
        # before measuring
        bound = 3.5 * 8 * asymptotics._BLOCK_ENTRIES
        for gp, plan, draws in (
                (GaussianProcessSpec(7, 9, 1.0, 1.0, 1.0), PermutationPlan(mode="exact"), 1000),
                (GaussianProcessSpec(60, 60, 1.0, 1.0, 1.0), PermutationPlan(count=300), 1000),
                (GaussianProcessSpec(20, 20, 1.0, 1.0, 1.0), PermutationPlan(count=1000), 2000)):
            tracemalloc.start()
            try:
                power_limit_mc(gp, 0.05, plan, draws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound

    def test_decided_draws_skip_the_later_relabellings(self, monkeypatch):
        # the benchmark's 10 x 10 Monte Carlo plan, whose relabellings fit in
        # one block: most draws accept after a few dozen of them, so the
        # loop evaluates at most half of the (draw, relabelling) statistics
        gp, plan = GaussianProcessSpec(10, 10, 1.0, 1.0, 1.0), PermutationPlan(count=300, seed=3)
        draws, evaluated = 1000, []

        def counted(rows, chunks, evaluate, alpha, size):
            def counting(z, chunk):
                stats, counts = evaluate(z, chunk)
                evaluated.append(stats.size)
                return stats, counts

            return permutation._sequential_rejections(rows, chunks, counting, alpha, size)

        monkeypatch.setattr(asymptotics, "_sequential_rejections", counted)
        power_limit_mc(gp, 0.05, plan, draws, seed=3)
        distinct, _ = asymptotics._distinct_relabellings(plan_masks(plan, gp.n, gp.m))
        assert 0 < sum(evaluated) <= 0.5 * draws * len(distinct)

    @pytest.mark.parametrize("n, m, plan", [
        (3, 3, PermutationPlan(mode="exact")),
        (4, 4, PermutationPlan(mode="exact")),
        (3, 5, PermutationPlan(mode="exact")),
        (4, 6, PermutationPlan(mode="exact")),
        # Monte Carlo at N = 6, 9, 20, 64 and 65: rows of padded bytes,
        # whole bytes, and one bit past them
        (3, 3, PermutationPlan(count=300, seed=1)),
        (4, 5, PermutationPlan(count=300, seed=2)),
        (10, 10, PermutationPlan(count=300, seed=3)),
        (32, 32, PermutationPlan(count=300, seed=4)),
        (30, 35, PermutationPlan(count=300, seed=5)),
    ])
    def test_distinct_relabellings_match_row_sort(self, n, m, plan):
        masks = plan_masks(plan, n, m)
        distinct, counts = asymptotics._distinct_relabellings(masks)
        expected, expected_counts = distinct_relabellings_rowsort(masks)
        assert np.array_equal(distinct, expected)
        assert np.array_equal(counts, expected_counts)

    def test_mask_and_complement_tie_exactly(self):
        # n = m: a mask and its complement, and every repeat of a mask, are
        # one relabelling, evaluated once and counted with its multiplicity,
        # so the exact 3 x 3 identity counts twice and never rejects
        n = 3
        masks = plan_masks(PermutationPlan(mode="exact"), n, n)
        distinct, counts = asymptotics._distinct_relabellings(masks)
        assert len(distinct) == 10 and np.all(counts == 2)
        assert np.array_equal(distinct[0], masks[0])
        reps = distinct ^ ~distinct[:, :1]
        assert len(np.unique(reps, axis=0)) == len(distinct)
        assert {m.tobytes() for m in reps} == {m.tobytes() for m in masks ^ ~masks[:, :1]}
        repeated = sample_masks(n, n, 300, 8)
        distinct, counts = asymptotics._distinct_relabellings(repeated)
        assert len(distinct) == 10 and counts.sum() == 300
        assert np.array_equal(distinct[0], repeated[0])
        gp = GaussianProcessSpec(n, n, 1.0, 1.0, 1.0)
        assert power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 20000, seed=9) == (0.0, 0.0)
