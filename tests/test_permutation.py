import math
import sys
import tracemalloc
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdtest import permutation, statistic
from hdtest.datagen import ScenarioConfig, generate
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import (
    PermutationPlan,
    _kernel_rejections,
    _plan_chunks,
    critical_value,
    decide,
    permutation_test,
    plan_masks,
    sample_masks,
)
from hdtest.statistic import (
    LabeledSample,
    _bitwise_rows,
    build_kernel_matrix,
    kernel_matrix_stack,
    masked_statistics,
)
from tests.reference import (
    ed_statistic_permuted,
    exact_masks_loop,
    n_of_gamma,
    s_w_cardinality,
    sample_masks_loop,
)
from tests.strategies import awkward_data


def _distribution(values, n, m, plan):
    """Sorted statistics over a plan's masks and the permutations each
    stands for: n!*m! per exact-mode mask, one per drawn mask."""
    mult = math.factorial(n) * math.factorial(m) if plan.mode == "exact" else 1
    return np.sort(masked_statistics(values, n, m, plan_masks(plan, n, m))), mult


class TestNOfGamma:
    def test_identity(self):
        assert n_of_gamma(np.arange(7), 3, 4) == 0

    def test_full_block_swap(self):
        n = 3
        perm = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        assert n_of_gamma(perm, n, n) == n

    def test_hand_case(self):
        # positions 1..5 map to 4,2,1,3,5; only position 1 lands in {3,4,5}
        perm = np.array([3, 1, 0, 2, 4])
        assert n_of_gamma(perm, 2, 3) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            n_of_gamma([0, 1, 1, 3], 2, 2)


class TestCardinality:
    def test_small_counts(self):
        assert [s_w_cardinality(2, 2, w) for w in range(3)] == [4, 16, 4]
        assert sum(s_w_cardinality(2, 2, w) for w in range(3)) == math.factorial(4)

    def test_w_zero_general(self):
        for n, m in ((2, 5), (4, 3), (6, 6)):
            assert s_w_cardinality(n, m, 0) == math.factorial(n) * math.factorial(m)

    def test_n2_m3_w1(self):
        assert s_w_cardinality(2, 3, 1) == 72

    def test_brute_force_histogram(self):
        for n, m in ((2, 2), (2, 3), (3, 3)):
            counts = {w: 0 for w in range(min(n, m) + 1)}
            for perm in iter_permutations(range(n + m)):
                counts[n_of_gamma(np.array(perm), n, m)] += 1
            for w, c in counts.items():
                assert c == s_w_cardinality(n, m, w), (n, m, w)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            s_w_cardinality(2, 3, 3)


class TestPermutationPlan:
    @pytest.mark.parametrize("field", ["count", "seed"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True])
    def test_count_and_seed_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            PermutationPlan(**{field: value})


class TestMasks:
    def test_exact_masks_cover_all_subsets(self):
        masks = plan_masks(PermutationPlan(mode="exact"), 3, 2)
        assert masks.shape == (math.comb(5, 3), 5)
        assert masks.sum(axis=1).tolist() == [3] * masks.shape[0]
        assert len({tuple(r) for r in masks.tolist()}) == masks.shape[0]

    def test_sampled_masks_start_with_identity(self):
        masks = sample_masks(3, 4, 10, seed=5)
        assert masks[0, :3].all() and not masks[0, 3:].any()
        assert masks.shape == (10, 7)
        assert (masks.sum(axis=1) == 3).all()

    def test_plan_masks_put_identity_in_row_zero(self):
        identity = np.arange(7) < 3
        for plan in (PermutationPlan(count=12, seed=4), PermutationPlan(mode="exact")):
            masks = plan_masks(plan, 3, 4)
            np.testing.assert_array_equal(masks[0], identity)

    def test_sampled_masks_deterministic(self):
        a = sample_masks(4, 4, 25, seed=9)
        b = sample_masks(4, 4, 25, seed=9)
        np.testing.assert_array_equal(a, b)

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(2, 40),
        m=st.integers(2, 40),
        count=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_sampled_masks_match_permutation_loop(self, n, m, count, seed):
        np.testing.assert_array_equal(
            sample_masks(n, m, count, seed), sample_masks_loop(n, m, count, seed)
        )

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 13).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 14 - n))))
    def test_exact_masks_match_combinations_loop(self, sizes):
        n, m = sizes
        np.testing.assert_array_equal(plan_masks(PermutationPlan(mode="exact"), n, m),
                                      exact_masks_loop(n, m))


class TestMaskChunks:
    """A plan's chunks of masks, each evaluated on its own, give the masks
    and the statistics of one call over all S masks bit for bit, and the
    decisions of ``decide`` over them. Chunks smaller than a BLAS's
    small-matrix size would round differently; on a BLAS whose size differs
    from OpenBLAS's these cases fail."""

    @staticmethod
    def _check_chunks(n, m, plan, shift):
        rng = np.random.default_rng(n * m)
        data = rng.standard_normal((n + m, 30))
        data[n:] += shift
        kernels = tuple(KernelSpec(f) for f in FAMILIES)
        values = kernel_matrix_stack(LabeledSample(data, n, m), kernels)
        size, chunks = _plan_chunks(plan, n, m)
        chunks = list(chunks)
        assert len(chunks) > 1
        assert min(map(len, chunks)) >= _bitwise_rows(n + m)
        # the chunks joined are the masks of an independent one-row-at-a-time loop
        masks = (exact_masks_loop(n, m) if plan.mode == "exact"
                 else sample_masks_loop(n, m, plan.count, plan.seed))
        assert np.array_equal(np.concatenate(chunks), masks) and size == len(masks)
        stats = masked_statistics(values, n, m, masks)
        start = 0
        for block in chunks:
            stop = start + len(block)
            assert np.array_equal(masked_statistics(values, n, m, block), stats[:, start:stop])
            # the stack left once a kernel is decided
            assert np.array_equal(masked_statistics(values[1::2], n, m, block),
                                  stats[1::2, start:stop])
            start = stop
        for alpha in (0.01, 0.05, 0.1):
            assert np.array_equal(_kernel_rejections(values, n, m, alpha, plan),
                                  decide(stats, alpha)[1])

    @pytest.mark.parametrize("n, m, count", [
        (50, 50, 1000), (45, 55, 1000), (20, 20, 2000), (15, 25, 2000),
    ])
    @pytest.mark.parametrize("shift", [0.0, 0.4])
    def test_chunks_equal_one_call(self, n, m, count, shift):
        self._check_chunks(n, m, PermutationPlan(count=count, seed=11), shift)

    @pytest.mark.parametrize("n, m", [(8, 8), (7, 9)])
    @pytest.mark.parametrize("shift", [0.0, 0.4])
    def test_exact_chunks_equal_one_call(self, n, m, shift):
        # 12 870 and 11 440 masks, in 3 and 2 chunks
        self._check_chunks(n, m, PermutationPlan(mode="exact"), shift)

    def test_count_must_be_positive(self):
        # a plan of no masks is refused when it is made, before any chunk
        with pytest.raises(ValueError, match="count must be positive"):
            PermutationPlan(count=0)

    def test_count_beyond_an_index_is_refused(self):
        # such a plan would draw masks without end; it is refused when it is
        # made, and the largest count allowed is only built, never run
        with pytest.raises(ValueError, match=rf"^count must be at most {sys.maxsize}$"):
            PermutationPlan(count=sys.maxsize + 1)
        assert PermutationPlan(count=sys.maxsize).count == sys.maxsize

    def test_large_plan_bounds_memory(self):
        # all S masks at once would hold four arrays of S x N entries (over
        # 300 MiB here); in chunks the peak is one chunk's temporaries and
        # the S statistics. The bound was fixed before measuring
        sample = LabeledSample(np.random.default_rng(4).standard_normal((200, 5)), 100, 100)
        tracemalloc.start()
        try:
            res = permutation_test(sample, KernelSpec("l2"),
                                   plan=PermutationPlan(count=100_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(res.w_histogram.values()) == 100_000
        assert peak <= 16 * 2**20

    def test_large_exact_plan_bounds_memory(self):
        # C(447, 2) = 99 681 exact masks are built chunk by chunk too, not as
        # one S x N array (over 40 MiB here); the bound is the Monte Carlo one
        n, m = 2, 445
        sample = LabeledSample(np.random.default_rng(5).standard_normal((n + m, 5)), n, m)
        tracemalloc.start()
        try:
            res = permutation_test(sample, KernelSpec("l2"), plan=PermutationPlan(mode="exact"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(res.w_histogram.values()) == math.factorial(n + m)
        assert res.p_value >= 1 / math.comb(n + m, n)
        assert peak <= 16 * 2**20


class TestRandomizationDistribution:
    def test_constant_matrix(self):
        vals = np.full((5, 5), 1.3)
        np.fill_diagonal(vals, 0.0)
        stats, _ = _distribution(vals, 2, 3, PermutationPlan(mode="exact"))
        np.testing.assert_allclose(stats, 0.0, atol=1e-13)
        assert np.all(stats <= 1e-9)

    def test_exact_mean_zero_hand_case(self):
        s = LabeledSample(np.array([[0.0], [1.0], [2.0], [3.0]]), 2, 2)
        km = build_kernel_matrix(s, KernelSpec("l1"))
        stats, mult = _distribution(km.values, 2, 2, PermutationPlan(mode="exact"))
        assert stats.size * mult == math.factorial(4)
        assert stats.mean() == pytest.approx(0.0, abs=1e-13)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(12)
        s = LabeledSample(rng.standard_normal((5, 3)), 2, 3)
        km = build_kernel_matrix(s, KernelSpec("l2"))
        stats, mult = _distribution(km.values, 2, 3, PermutationPlan(mode="exact"))
        brute = sorted(
            ed_statistic_permuted(km, np.array(p))
            for p in iter_permutations(range(5))
        )
        expanded = np.repeat(stats, mult)
        np.testing.assert_allclose(expanded, brute, atol=1e-12)

    def test_monte_carlo_deterministic(self):
        rng = np.random.default_rng(13)
        s = LabeledSample(rng.standard_normal((9, 3)), 4, 5)
        km = build_kernel_matrix(s, KernelSpec("gaussian"))
        d1, mult = _distribution(km.values, 4, 5, PermutationPlan(count=64, seed=3))
        d2, _ = _distribution(km.values, 4, 5, PermutationPlan(count=64, seed=3))
        np.testing.assert_array_equal(d1, d2)
        assert d1.size * mult == 64

    def test_exact_cap_enforced(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a kernel matrix was built before the plan was checked")

        # C(20, 10) = 184756 masks exceed the cap, refused before any distance
        rng = np.random.default_rng(14)
        s = LabeledSample(rng.standard_normal((20, 2)), 10, 10)
        monkeypatch.setattr(permutation, "kernel_matrix_stack", no_build)
        with pytest.raises(ValueError, match="exact enumeration"):
            permutation_test(s, KernelSpec("l1"), plan=PermutationPlan(mode="exact"))


class TestCriticalValue:
    def test_point_mass_at_zero(self):
        assert critical_value(np.array([0.0]), 0.05) == 0.0

    def test_uniform_grid(self):
        values = np.arange(1.0, 101.0)
        assert critical_value(values, 0.05) == 95.0
        assert critical_value(values, 0.049) == 96.0

    def test_alpha_range(self):
        values = np.array([0.0])
        with pytest.raises(ValueError):
            decide(values, 0.0)
        with pytest.raises(ValueError):
            decide(values, 1.0)

    def test_exact_rank_in_mask_units(self):
        # the quantile over the n!*m! copies of every mask's statistic
        rng = np.random.default_rng(18)
        alphas = (0.01, 0.05, 0.1)
        for n in range(2, 9):
            for m in range(2, 11 - n):
                stats = rng.standard_normal(math.comb(n + m, n))
                expanded = np.repeat(stats, math.factorial(n) * math.factorial(m))
                total = expanded.size
                ranks = [total - math.floor(alpha * total) - 1 for alpha in alphas]
                expanded.partition(ranks)
                for alpha, rank in zip(alphas, ranks):
                    assert critical_value(stats, alpha) == expanded[rank], (n, m, alpha)


@st.composite
def tied_statistics(draw):
    """(S,) or (K, S) integer-valued statistics, S from 1 to 300, drawn from
    a few values so that ties are common, zeros of either sign included."""
    size = draw(st.integers(1, 300))
    shape = (size,) if draw(st.booleans()) else (draw(st.integers(1, 6)), size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 4))
    stats = rng.integers(-spread, spread + 1, size=shape).astype(float)
    stats[(stats == 0) & (rng.random(shape) < 0.5)] = -0.0
    return stats


class TestCountRule:
    """``decide``'s count is the quantile rule: the observed statistic
    strictly exceeds ``critical_value`` iff at most floor(alpha S)
    statistics reach it."""

    @settings(max_examples=300, deadline=None)
    @given(tied_statistics(), st.floats(0.001, 0.999))
    def test_count_is_quantile_rule(self, stats, alpha):
        reached, reject = decide(stats, alpha)
        rows = stats.reshape(-1, stats.shape[-1])
        size = stats.shape[-1]
        for row, row_reached, row_reject in zip(rows, np.ravel(reached), np.ravel(reject)):
            assert row_reject == (row[0] > critical_value(row, alpha))
            assert row_reached / size == np.count_nonzero(row >= row[0]) / size


class TestPermutationTest:
    def test_unknown_plan_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            PermutationPlan(mode="bogus")

    @pytest.mark.parametrize("mode", ["monte-carlo", "exact"])
    def test_negative_seed_refused(self, mode):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            PermutationPlan(mode=mode, seed=-3)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05])
    def test_alpha_checked_before_any_work(self, monkeypatch, alpha):
        def no_build(*args):
            raise AssertionError("a distance matrix was built before alpha was checked")

        sample = generate(ScenarioConfig("1", p=10, n=5, m=5))
        monkeypatch.setattr(statistic, "psibar_matrix", no_build)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            permutation_test(sample, KernelSpec("l2"), alpha=alpha)

    @pytest.mark.parametrize("alpha", [True, "0.05", None])
    def test_alpha_must_be_a_real_number(self, alpha):
        sample = generate(ScenarioConfig("1", p=10, n=5, m=5))
        with pytest.raises(TypeError, match=f"^alpha must be a real number, got {alpha!r}$"):
            permutation_test(sample, KernelSpec("l2"), alpha=alpha)

    def test_default_plan(self):
        rng = np.random.default_rng(14)
        s = LabeledSample(rng.standard_normal((10, 4)), 5, 5)
        res = permutation_test(s, KernelSpec("l2"))
        assert res.plan == PermutationPlan()
        assert res == permutation_test(s, KernelSpec("l2"), plan=PermutationPlan())

    def test_constant_data_never_rejects(self):
        s = LabeledSample(np.ones((8, 3)), 4, 4)
        for fam in ("l1", "l2", "gaussian"):
            res = permutation_test(s, KernelSpec(fam), plan=PermutationPlan(count=50))
            assert res.statistic == pytest.approx(0.0, abs=1e-13)
            assert res.critical_value == pytest.approx(0.0, abs=1e-13)
            assert not res.reject

    def test_p_value_at_least_one_over_total(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            s = LabeledSample(rng.standard_normal((10, 4)), 5, 5)
            res = permutation_test(
                s, KernelSpec("l2"), plan=PermutationPlan(count=40, seed=seed)
            )
            assert res.p_value >= 1.0 / 40 - 1e-15
            assert res.p_value <= 1.0

    def test_separated_groups_reject(self):
        rng = np.random.default_rng(16)
        data = np.vstack(
            [rng.standard_normal((10, 5)), 10.0 + rng.standard_normal((10, 5))]
        )
        s = LabeledSample(data, 10, 10)
        res = permutation_test(s, KernelSpec("l2"), plan=PermutationPlan(count=200))
        assert res.reject
        # this seed draws the label-swapped copy of the observed grouping
        # once, which ties the observed statistic exactly
        assert res.p_value == pytest.approx(2.0 / 200)

    def test_exact_mode_level_under_null(self):
        # exchangeable data: rejection probability over data draws <= alpha
        rng = np.random.default_rng(17)
        alpha = 0.05
        draws = 2000
        rejections = 0
        plan = PermutationPlan(mode="exact")
        for _ in range(draws):
            s = LabeledSample(rng.standard_normal((6, 4)), 3, 3)
            res = permutation_test(s, KernelSpec("l2"), alpha=alpha, plan=plan)
            rejections += res.reject
        rate = rejections / draws
        se = math.sqrt(alpha * (1 - alpha) / draws)
        assert rate <= alpha + 3 * se

    def test_w_histogram_exact(self):
        s = LabeledSample(np.arange(8.0).reshape(4, 2), 2, 2)
        res = permutation_test(s, KernelSpec("l1"), plan=PermutationPlan(mode="exact"))
        assert res.w_histogram == {0: 4, 1: 16, 2: 4}

    def test_exact_mode_walks_masks_not_permutations(self):
        # 12! permutations, 924 distinct masks
        rng = np.random.default_rng(19)
        s = LabeledSample(rng.standard_normal((12, 3)), 6, 6)
        res = permutation_test(s, KernelSpec("l2"), plan=PermutationPlan(mode="exact"))
        assert sum(res.w_histogram.values()) == math.factorial(12)
        assert sum(res.w_histogram.values()) // math.factorial(6) ** 2 == 924
        assert res.p_value >= 1.0 / 924

    def test_w_histogram_monte_carlo_counts(self):
        s = LabeledSample(np.arange(12.0).reshape(6, 2), 3, 3)
        res = permutation_test(s, KernelSpec("l1"), plan=PermutationPlan(count=80, seed=2))
        assert sum(res.w_histogram.values()) == 80


class TestObservedIsIdentityEntry:
    def test_statistic_and_p_value_come_from_the_distribution(self):
        # small groups, ties and large offsets, where a separately evaluated
        # observed statistic can miss its own identity entry by an ulp
        rng = np.random.default_rng(2024)
        for case in range(60):
            n, m = (int(v) for v in rng.integers(2, 9, size=2))
            data = rng.standard_normal((n + m, int(rng.integers(1, 6))))
            if case % 3 == 1:
                data = np.round(data)
            elif case % 3 == 2:
                data = data + 1e8
            s = LabeledSample(data, n, m)
            spec = KernelSpec(FAMILIES[case % 4])
            plans = [PermutationPlan(count=int(rng.integers(20, 201)), seed=case)]
            if n + m <= 10:
                plans.append(PermutationPlan(mode="exact"))
            for plan in plans:
                res = permutation_test(s, spec, plan=plan)
                values, _ = _distribution(build_kernel_matrix(s, spec).values, n, m, plan)
                assert res.statistic in values, (case, plan.mode)
                tail = np.count_nonzero(values >= res.statistic)
                assert res.p_value * values.size == pytest.approx(tail), (case, plan.mode)
                assert res.reject == (res.statistic > res.critical_value)


def _weighted_abs_sum(sample, spec) -> float:
    """Sum of the absolute weighted terms of the statistic: the scale its
    rounding error is relative to."""
    km = build_kernel_matrix(sample, spec)
    n, m, k = km.n, km.m, np.abs(km.values)
    return (
        2.0 / (n * m) * k[:n, n:].sum()
        + 1.0 / (n * (n - 1)) * k[:n, :n].sum()
        + 1.0 / (m * (m - 1)) * k[n:, n:].sum()
    )


def _observed(sample, spec) -> float:
    return permutation_test(sample, spec, plan=PermutationPlan(count=1)).statistic


def _split(data):
    return data.flatmap(
        lambda d: st.integers(2, len(d) - 2).map(lambda n: LabeledSample(d, n, len(d) - n))
    )


_SPLIT_SAMPLES = _split(awkward_data())
_SMALL_SPLIT_SAMPLES = _split(awkward_data(max_rows=14))
_BALANCED_SAMPLES = awkward_data().map(
    lambda d: LabeledSample(d[: len(d) // 2 * 2], len(d) // 2, len(d) // 2)
)


class TestPropertiesOnAwkwardData:
    """End to end through the test, on ties, constant columns, 1e8 offsets,
    duplicated rows and p = 1; the bound is 1e-12 of the summed absolute
    weighted terms."""

    @settings(deadline=None, max_examples=100)
    @given(
        sample=_SPLIT_SAMPLES,
        family=st.sampled_from(FAMILIES),
        count=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_p_value_in_unit_range_above_one_over_s(self, sample, family, count, seed):
        plan = PermutationPlan(count=count, seed=seed)
        res = permutation_test(sample, KernelSpec(family), plan=plan)
        assert 1.0 / count <= res.p_value <= 1.0

    @settings(deadline=None, max_examples=100)
    @given(sample=_SPLIT_SAMPLES, family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
    def test_within_group_shuffle_invariance(self, sample, family, seed):
        rng = np.random.default_rng(seed)
        n, m = sample.n, sample.m
        order = np.concatenate([rng.permutation(n), n + rng.permutation(m)])
        shuffled = LabeledSample(sample.data[order], n, m)
        spec = KernelSpec(family)
        gap = abs(_observed(sample, spec) - _observed(shuffled, spec))
        assert gap <= 1e-12 * _weighted_abs_sum(sample, spec)

    @settings(deadline=None, max_examples=100)
    @given(sample=_BALANCED_SAMPLES, family=st.sampled_from(FAMILIES))
    def test_label_swap_symmetry(self, sample, family):
        h = sample.n
        swapped = LabeledSample(np.vstack([sample.data[h:], sample.data[:h]]), h, h)
        spec = KernelSpec(family)
        gap = abs(_observed(sample, spec) - _observed(swapped, spec))
        assert gap <= 1e-12 * _weighted_abs_sum(sample, spec)

    @settings(deadline=None, max_examples=100)
    @given(
        sample=_SMALL_SPLIT_SAMPLES,
        family=st.sampled_from(FAMILIES),
        alpha=st.sampled_from([0.01, 0.05, 0.1, 0.25]) | st.floats(0.001, 0.999),
    )
    def test_exact_size_at_most_alpha(self, sample, family, alpha):
        # whichever exact relabelling is observed, the test rejects only when
        # its statistic strictly exceeds the one critical value: at most
        # floor(alpha S) of the S relabellings do
        spec = KernelSpec(family)
        plan = PermutationPlan(mode="exact")
        res = permutation_test(sample, spec, alpha=alpha, plan=plan)
        masks = plan_masks(plan, sample.n, sample.m)
        stats = masked_statistics(build_kernel_matrix(sample, spec).values,
                                  sample.n, sample.m, masks)
        assert np.count_nonzero(stats > res.critical_value) <= math.floor(alpha * len(masks))
