import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest import diagnostics
from hdtest.datagen import EXAMPLES, ScenarioConfig, ar_correlation, generate
from hdtest.diagnostics import diagnose, discrepancy_report, estimate_moment_constants
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import decide, exact_masks
from hdtest.statistic import LabeledSample, build_kernel_matrix, ed_statistic, psibar_matrix
from tests.reference import (
    analytic_vxy_quadratic,
    cov_gap,
    exact_mean_variance_gaps,
    l2_moment_estimates,
    leave_pair_out_variances,
    marginal_energy_sum,
    mean_variance_gaps,
)
from tests.strategies import awkward_data


def _cov_gap_reference(sample):
    """The covariance gap from the two p x p sample covariances."""
    cx = np.cov(sample.x, rowvar=False, ddof=1)
    cy = np.cov(sample.y, rowvar=False, ddof=1)
    return float(np.sum((cx - cy) ** 2) / sample.p)


def _agreement_samples():
    """The designs at n=m=50, p=500, unequal groups, ties, constant columns."""
    out = {
        ex: generate(ScenarioConfig(ex, p=500, n=50, m=50, beta=0.3, seed=3))
        for ex in EXAMPLES
    }
    rng = np.random.default_rng(38)
    shift = np.r_[np.zeros(30), np.full(45, 0.3)][:, None]
    out["unequal"] = LabeledSample(rng.standard_normal((75, 40)) + shift, 30, 45)
    out["ties"] = LabeledSample(np.round(rng.standard_normal((40, 20))), 15, 25)
    const = np.c_[rng.standard_normal((30, 10)), np.ones((30, 3))]
    out["constant-columns"] = LabeledSample(const, 14, 16)
    return out


AGREEMENT = _agreement_samples()

#: sha256 of the repr of the four report values over ``AGREEMENT`` at
#: report seeds 4 and 11. They depend only on the observed grouping, so a
#: change of relabellings or decision rule must leave them bit for bit; the
#: hint is left out, since it depends on both. Taken on one BLAS thread,
#: which ``conftest.py`` sets.
REPORT_VALUES_SHA256 = "5f45f19f60e59e9547d139e9b0d05c94143defaa0d55a46ec488904d4c9ca7e4"


def _strong_shift_sample():
    rng = np.random.default_rng(37)
    data = np.vstack(
        [rng.standard_normal((20, 30)), 1.0 + rng.standard_normal((20, 30))]
    )
    return LabeledSample(data, 20, 20)


class TestMeanVarianceGaps:
    def test_copied_blocks(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((6, 4))
        s = LabeledSample(np.vstack([x, x]), 6, 6)
        mg, vg = mean_variance_gaps(s)
        assert mg == 0.0 and vg == 0.0

    def test_hand_case(self):
        # means 1 vs 2, variances 2 vs 2
        s = LabeledSample(np.array([[0.0], [2.0], [1.0], [3.0]]), 2, 2)
        mg, vg = mean_variance_gaps(s)
        assert mg == pytest.approx(1.0)
        assert vg == pytest.approx(0.0)

    def test_shift_scenario_population_value(self):
        beta = 0.5
        cfg = ScenarioConfig(example="2i", p=100, n=2000, m=2000, beta=beta, seed=1)
        mg, _ = mean_variance_gaps(generate(cfg))
        assert mg == pytest.approx(0.125**2 * beta, abs=0.003)


class TestMarginalEnergySum:
    def test_identical_constant_blocks(self):
        s = LabeledSample(np.ones((6, 3)), 3, 3)
        assert marginal_energy_sum(s) == 0.0

    def test_hand_case(self):
        s = LabeledSample(np.array([[0.0], [0.0], [1.0], [1.0]]), 2, 2)
        assert marginal_energy_sum(s) == pytest.approx(2.0)

    def test_equals_l1_statistic(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            s = LabeledSample(rng.standard_normal((11, 6)), 5, 6)
            direct = ed_statistic(build_kernel_matrix(s, KernelSpec("l1")))
            assert marginal_energy_sum(s) == pytest.approx(direct, abs=1e-12)


class TestCovGap:
    def test_identical_blocks(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((8, 5))
        s = LabeledSample(np.vstack([x, x]), 8, 8)
        assert cov_gap(s) == 0.0

    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_matches_covariance_reference(self, name):
        s = AGREEMENT[name]
        assert cov_gap(s) == pytest.approx(_cov_gap_reference(s), rel=1e-10)

    def test_ar_population_value(self):
        # population value (1/p) sum_{u != v} rho^{2|u-v|} -> 2 rho^2/(1-rho^2)
        rho, p = 0.5, 2000
        r = ar_correlation(p, rho)
        pop = float(np.sum((r - np.eye(p)) ** 2) / p)
        assert pop == pytest.approx(2 * rho**2 / (1 - rho**2), abs=1e-3)


class TestAnalyticVxy:
    def test_identity_covariances(self):
        assert analytic_vxy_quadratic(np.eye(7), np.eye(7)) == pytest.approx(4.0)

    def test_zero_second_covariance(self):
        assert analytic_vxy_quadratic(np.eye(4), np.zeros((4, 4))) == 0.0

    def test_ar_pair_asymptote(self):
        rho, p = 0.5, 600
        r = ar_correlation(p, rho)
        val = analytic_vxy_quadratic(r, r)
        assert val == pytest.approx(4 * (1 + rho**2) / (1 - rho**2), abs=0.01)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            analytic_vxy_quadratic(np.eye(3), np.eye(4))


class TestMomentConstantEstimates:
    def test_constant_data(self):
        s = LabeledSample(np.full((10, 4), 2.0), 5, 5)
        c = estimate_moment_constants(s, KernelSpec("l1"))
        assert c.e_x == c.e_y == c.e_xy == 0.0
        assert c.v_x == c.v_y == c.v_xy == 0.0

    def test_gaussian_null_recovers_population(self):
        rng = np.random.default_rng(33)
        n, p = 60, 300
        s = LabeledSample(rng.standard_normal((2 * n, p)), n, n)
        c = estimate_moment_constants(s, KernelSpec("l2"))
        # averaged squared distance between independent standard normals is 2
        assert c.e_x == pytest.approx(2.0, abs=0.1)
        assert c.e_y == pytest.approx(2.0, abs=0.1)
        assert c.e_xy == pytest.approx(2.0, abs=0.1)
        # population cross-pair variance for identity covariances is 4
        assert c.v_xy == pytest.approx(4.0, abs=0.5)
        assert c.v_x == pytest.approx(4.0, abs=0.6)
        assert c.v_y == pytest.approx(4.0, abs=0.6)

    @settings(deadline=None, max_examples=100)
    @given(data=awkward_data(min_rows=8, max_rows=20), split=st.data())
    def test_matches_leave_pair_out_loop(self, data, split):
        """Each pair variance, both kinds, within 1e-12 of p times the mean
        squared entry of its uncentred block (zero diagonal included)."""
        n = split.draw(st.integers(4, len(data) - 4))
        s = LabeledSample(data, n, len(data) - n)
        for spec in (KernelSpec("l2"), KernelSpec("l1")):
            pb = psibar_matrix(s.data, spec.uses_squared_differences)
            c = estimate_moment_constants(s, spec)
            want = leave_pair_out_variances(s, spec)
            for got, ref, block in zip((c.v_x, c.v_y, c.v_xy), want,
                                       (pb[:n, :n], pb[n:, n:], pb[:n, n:])):
                assert abs(got - ref) <= 1e-12 * s.p * np.mean(block**2), spec.family

    def test_small_groups_rejected(self):
        s = LabeledSample(np.random.default_rng(0).standard_normal((6, 3)), 3, 3)
        with pytest.raises(ValueError):
            estimate_moment_constants(s, KernelSpec("l2"))


class TestL2MomentEstimates:
    def test_constant_data(self):
        s = LabeledSample(np.zeros((10, 3)), 5, 5)
        assert l2_moment_estimates(s, KernelSpec("l2")) == (0.0, 0.0, 0.0)

    def test_shrinks_with_dimension(self):
        rng = np.random.default_rng(34)
        vals = {}
        for p in (50, 800):
            s = LabeledSample(rng.standard_normal((40, p)), 20, 20)
            vals[p] = l2_moment_estimates(s, KernelSpec("l2"))[2]
        assert vals[800] < vals[50]

    def test_correlated_coordinates_inflate(self):
        rng = np.random.default_rng(35)
        p = 200
        from hdtest.datagen import spd_sqrt

        a = spd_sqrt(ar_correlation(p, 0.8))
        indep = LabeledSample(rng.standard_normal((40, p)), 20, 20)
        corr = LabeledSample(rng.standard_normal((40, p)) @ a, 20, 20)
        assert (
            l2_moment_estimates(corr, KernelSpec("l2"))[2]
            > l2_moment_estimates(indep, KernelSpec("l2"))[2]
        )


class TestDiscrepancyReport:
    def test_no_relabellings_refused(self):
        s = generate(ScenarioConfig("1", p=10, n=5, m=5))
        with pytest.raises(ValueError, match="null_reps"):
            discrepancy_report(s, null_reps=0)

    @pytest.mark.parametrize("null_reps", [5.0, 2.5, True])
    def test_null_reps_must_be_an_integer(self, null_reps):
        s = generate(ScenarioConfig("1", p=10, n=5, m=5))
        with pytest.raises(TypeError, match=f"^null_reps must be an integer, got {null_reps!r}$"):
            discrepancy_report(s, null_reps=null_reps)

    def test_null_data_hint(self):
        rng = np.random.default_rng(36)
        s = LabeledSample(rng.standard_normal((40, 30)), 20, 20)
        rep = discrepancy_report(s, seed=1)
        assert rep.mean_gap >= 0.0 and rep.cov_gap >= 0.0
        assert isinstance(rep.regime_hint, str) and rep.regime_hint

    def test_strong_shift_flags_consistency(self):
        rep = discrepancy_report(_strong_shift_sample(), seed=2)
        assert rep.regime_hint.startswith("consistency-plausible")

    @pytest.mark.parametrize("null_reps", [1, 5, 18, 19, 50])
    def test_few_relabellings_never_flag(self, null_reps):
        # decide over S = null_reps + 1 groupings can only flag when S >= 1/alpha,
        # as the test's p-value cannot fall below 1/S
        rep = discrepancy_report(_strong_shift_sample(), null_reps=null_reps, seed=2)
        expected = "consistency-plausible" if null_reps >= 19 else "low-power-plausible"
        assert rep.regime_hint.startswith(expected)

    def test_report_values_golden(self):
        values = [
            (name, seed, rep.mean_gap, rep.var_gap, rep.marginal_ed_sum, rep.cov_gap)
            for name in sorted(AGREEMENT)
            for seed in (4, 11)
            for rep in [discrepancy_report(AGREEMENT[name], seed=seed)]
        ]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == REPORT_VALUES_SHA256

    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_agrees_with_per_coordinate_references(self, name):
        s = AGREEMENT[name]
        rep = discrepancy_report(s, seed=4)
        mg, vg = mean_variance_gaps(s)
        assert rep.mean_gap == pytest.approx(mg, rel=1e-10)
        assert rep.var_gap == pytest.approx(vg, rel=1e-10)
        assert rep.cov_gap == pytest.approx(_cov_gap_reference(s), rel=1e-10)
        # a one-row product goes through another BLAS kernel than the batch
        assert rep.marginal_ed_sum == pytest.approx(marginal_energy_sum(s), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_gaps_match_exact_rationals(self, name):
        rep = discrepancy_report(AGREEMENT[name], seed=4)
        mg, vg = exact_mean_variance_gaps(AGREEMENT[name])
        assert abs(Fraction(rep.mean_gap) - mg) <= Fraction(1, 10**11) * mg
        assert abs(Fraction(rep.var_gap) - vg) <= Fraction(1, 10**11) * vg

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_complements_tie_exactly(self, monkeypatch, n):
        # for n = m a grouping and its complement are the same split, so all
        # C(2n, n) exact masks come in pairs whose gaps must be bitwise equal
        masks = exact_masks(n, n)
        complement = {row.tobytes(): i for i, row in enumerate(~masks)}
        partner = [complement[row.tobytes()] for row in masks]
        seen = []
        monkeypatch.setattr(diagnostics, "plan_masks", lambda plan, n, m: masks)
        monkeypatch.setattr(diagnostics, "decide",
                            lambda stats, alpha: seen.append(stats) or decide(stats, alpha))
        for seed in range(50):
            data = np.random.default_rng(seed).standard_normal((2 * n, 4))
            discrepancy_report(LabeledSample(data, n, n))
            gaps = seen.pop()[:2]
            assert np.array_equal(gaps, gaps[:, partner]), seed

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_copied_blocks_have_no_mean_gap(self, example):
        x = AGREEMENT[example].x
        s = LabeledSample(np.vstack([x, x]), 50, 50)
        rep = discrepancy_report(s, seed=5)
        # zero up to the rounding of pair sums of distances of order one
        scale = float(np.mean(psibar_matrix(s.data, squared=True)))
        assert 0.0 <= rep.mean_gap <= 1e-13 * scale
        assert rep.cov_gap == 0.0

    def test_grouping_ties_with_its_own_relabellings(self):
        # the observed grouping separates two copies of one cloud; relabellings
        # that reproduce it must give exactly its gaps, so it never exceeds
        # the relabelling quantile it is tied with
        for seed in range(40):
            x = np.random.default_rng(seed).standard_normal((3, 2))
            s = LabeledSample(np.vstack([x, x + 10.0]), 3, 3)
            rep = discrepancy_report(s, null_reps=200, seed=seed)
            assert not rep.regime_hint.startswith("consistency-plausible"), seed

    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_diagnose_equals_the_public_calls(self, name):
        s = AGREEMENT[name]
        for family in FAMILIES:
            spec = KernelSpec(family)
            report, constants = diagnose(s, spec, seed=4)
            assert report == discrepancy_report(s, 50, 4)
            assert constants == estimate_moment_constants(s, spec)

    def test_diagnose_small_group_has_no_constants(self):
        s = LabeledSample(np.random.default_rng(39).standard_normal((8, 5)), 3, 5)
        report, constants = diagnose(s, KernelSpec("l1"), seed=2)
        assert constants is None
        assert report == discrepancy_report(s, seed=2)

    def test_mean_gap_accurate_under_large_offsets(self):
        rng = np.random.default_rng(5)
        n, m, p = 6, 5, 4
        for _ in range(40):
            data = 0.3 * rng.standard_normal((n + m, p)) + 1e8
            exact = Fraction(0)
            for col in data.T:
                diff = sum(map(Fraction, col[:n])) / n - sum(map(Fraction, col[n:])) / m
                exact += diff**2 / p
            rep = discrepancy_report(LabeledSample(data, n, m))
            assert abs(Fraction(rep.mean_gap) - exact) <= Fraction(1, 10**10) * exact
