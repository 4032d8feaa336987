import math
from fractions import Fraction

import numpy as np
import pytest

from hdtest import asymptotics
from hdtest.asymptotics import (
    GaussianProcessSpec,
    HypergeometricLaw,
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
from hdtest.kernels import KernelSpec, phi, phi_prime
from hdtest.permutation import PermutationPlan, exact_masks, plan_masks
from hdtest.statistic import masked_pair_sums, masked_statistics, pair_weights
from tests.reference import power_limit_mc_loop, s_w_cardinality


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
                law = HypergeometricLaw(n, m)
                total = sum(
                    hypergeom_pmf(law, w) * f_w_frac(n, m, w) for w in law.support
                )
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
            masks = exact_masks(n, m)[0]
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
        law = HypergeometricLaw(1, 1)
        assert hypergeom_pmf(law, 0) == Fraction(1, 2)
        assert hypergeom_pmf(law, 1) == Fraction(1, 2)

    def test_sums_to_one(self):
        for n, m in ((2, 2), (3, 8), (12, 5)):
            law = HypergeometricLaw(n, m)
            assert sum(hypergeom_pmf(law, w) for w in law.support) == 1

    def test_matches_cardinality_counts(self):
        law = HypergeometricLaw(2, 2)
        assert hypergeom_pmf(law, 1) == Fraction(2, 3)
        for n in range(2, 9):
            for m in range(2, 9):
                law = HypergeometricLaw(n, m)
                fact = math.factorial(n + m)
                for w in law.support:
                    assert hypergeom_pmf(law, w) * fact == s_w_cardinality(n, m, w)

    def test_off_support(self):
        assert hypergeom_pmf(HypergeometricLaw(3, 3), 4) == 0


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
        law = HypergeometricLaw(n, m)
        probs = np.array([float(hypergeom_pmf(law, w)) for w in law.support])
        sigmas = np.array(
            [math.sqrt(sigma2_nw(n, m, w, c, spec)) for w in law.support]
        )
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


class TestPowerLimitMC:
    def test_zero_process_never_rejects(self):
        gp = GaussianProcessSpec(3, 3, 0.0, 0.0, 0.0)
        rate, se = power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 1000)
        assert rate == 0.0 and se == 0.0

    def test_minimum_draws_enforced(self):
        gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            power_limit_mc(gp, 0.05, PermutationPlan(mode="exact"), 100)

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


def _batched_statistics(gp, plan, draws, seed):
    masks = plan_masks(plan, gp.n, gp.m)[0]
    return list(asymptotics._limit_statistics(gp, masks, draws, seed))


class TestBatchedLimitMC:
    """The batched limit Monte Carlo against the per-draw loop of
    ``tests.reference``: the same statistics and estimates, bit for bit."""

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
            # several batches and a remainder
            ((10, 10, 1.0, 1.0, 1.0), PermutationPlan(count=300, seed=3), 1000, 3),
        ],
    )
    def test_matches_per_draw_loop(self, args, plan, draws, seed):
        gp = GaussianProcessSpec(*args)
        rate, se, loop_stats = power_limit_mc_loop(gp, 0.05, plan, draws, seed=seed)
        assert np.array_equal(np.concatenate(_batched_statistics(gp, plan, draws, seed)),
                              loop_stats)
        assert power_limit_mc(gp, 0.05, plan, draws, seed=seed) == (rate, se)

    def test_batches_bound_memory(self):
        gp = GaussianProcessSpec(10, 10, 1.0, 1.0, 1.0)
        batches = _batched_statistics(gp, PermutationPlan(count=300, seed=3), 1000, 3)
        sizes = [len(b) for b in batches]
        assert len(set(sizes[:-1])) == 1 and 0 < sizes[-1] < sizes[0]
        assert sizes[0] * 300 * 20 <= asymptotics._BATCH_ENTRIES

    def test_mask_and_complement_tie_exactly(self):
        # n = m: a mask and its complement give the same statistic bit for
        # bit in every draw, so the exact 3 x 3 identity never strictly
        # exceeds its critical value
        n = 3
        gp = GaussianProcessSpec(n, n, 1.0, 1.0, 1.0)
        masks = exact_masks(n, n)[0]
        rows = {m.tobytes(): i for i, m in enumerate(masks)}
        complement = [rows[(~m).tobytes()] for m in masks]
        g = asymptotics._gaussian_pair_matrices(gp, np.random.default_rng(9), 500)
        stats = masked_statistics(g, n, n, masks)
        assert np.array_equal(stats, stats[:, complement])
