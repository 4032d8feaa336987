import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from hdtest import statistic
from hdtest.datagen import ScenarioConfig, generate
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import PermutationPlan, plan_masks, sample_masks
from hdtest.statistic import (
    KernelMatrix,
    LabeledSample,
    build_kernel_matrix,
    ed_statistic,
    kernel_matrix_stack,
    masked_statistics,
    psibar_matrix,
)
from tests.reference import (
    ed_statistic_permuted,
    group_mask,
    pair_sum_statistics,
    permutation_weights,
    permute_rows,
    weighted_abs_sums,
)
from tests.strategies import awkward_data


#: every group-X mask, for checks over a whole exact plan
_EXACT = PermutationPlan(mode="exact")
_KERNELS = tuple(KernelSpec(f) for f in FAMILIES)


def _hand_sample():
    # p=1, X = {0, 1}, Y = {2, 3}
    return LabeledSample(np.array([[0.0], [1.0], [2.0], [3.0]]), 2, 2)


class TestLabeledSample:
    def test_group_views(self):
        s = _hand_sample()
        np.testing.assert_array_equal(s.x.ravel(), [0.0, 1.0])
        np.testing.assert_array_equal(s.y.ravel(), [2.0, 3.0])
        assert s.p == 1

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            LabeledSample(np.zeros((3, 2)), 1, 2)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            LabeledSample(np.zeros((5, 2)), 2, 2)

    def test_nonfinite_rejected(self):
        data = np.zeros((4, 2))
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            LabeledSample(data, 2, 2)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError):
            LabeledSample(np.zeros(4), 2, 2)

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            LabeledSample(np.zeros((4, 0)), 2, 2)

    @pytest.mark.parametrize("field", ["n", "m"])
    @pytest.mark.parametrize("value", [5.0, 2.5, True])
    def test_sizes_must_be_integers(self, field, value):
        sizes = {"n": 5, "m": 5, field: value}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            LabeledSample(np.zeros((10, 2)), **sizes)


class TestKernelMatrix:
    def test_l1_hand_values(self):
        km = build_kernel_matrix(_hand_sample(), KernelSpec("l1"))
        z = np.array([0.0, 1.0, 2.0, 3.0])
        expect = np.abs(z[:, None] - z[None, :])
        np.testing.assert_allclose(km.values, expect)

    def test_constant_rows(self):
        data = np.ones((5, 3))
        for fam in FAMILIES:
            spec = KernelSpec(fam)
            km = build_kernel_matrix(LabeledSample(data, 2, 3), spec)
            off = km.values[~np.eye(5, dtype=bool)]
            # off-diagonals all equal phi(0); diagonal is zeroed by contract
            expect = {"gaussian": -1.0, "laplacian": -1.0}.get(fam, 0.0)
            np.testing.assert_allclose(off, expect)
            np.testing.assert_allclose(np.diag(km.values), 0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        s = LabeledSample(rng.standard_normal((7, 4)), 3, 4)
        for fam in FAMILIES:
            km = build_kernel_matrix(s, KernelSpec(fam))
            np.testing.assert_allclose(km.values, km.values.T)

    def test_psibar_scaling(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((5, 3))
        pb = psibar_matrix(data, squared=True)
        d01 = np.mean((data[0] - data[1]) ** 2)
        assert pb[0, 1] == pytest.approx(d01)
        pb1 = psibar_matrix(data, squared=False)
        assert pb1[0, 1] == pytest.approx(np.mean(np.abs(data[0] - data[1])))


def _pdist_psibar(data):
    return squareform(pdist(data, "sqeuclidean")) / data.shape[1]


class TestSquaredDistanceContract:
    """The Gram-GEMM squared distances against ``pdist``: bound fixed at
    1e-12 of the largest entry, bitwise on integer-valued data."""

    @settings(deadline=None, max_examples=100)
    @given(awkward_data())
    def test_close_to_pdist(self, data):
        pb, ref = psibar_matrix(data, squared=True), _pdist_psibar(data)
        assert np.max(np.abs(pb - ref)) <= 1e-12 * np.max(ref)
        # small distances are summed from coordinate differences, so the
        # bound holds per entry too, not only against the largest one
        assert np.all(np.abs(pb - ref) <= 1e-12 * ref)

    @settings(deadline=None, max_examples=100)
    @given(awkward_data(integer=True))
    def test_integer_data_bitwise_pdist(self, data):
        np.testing.assert_array_equal(psibar_matrix(data, squared=True), _pdist_psibar(data))

    @settings(deadline=None, max_examples=100)
    @given(awkward_data())
    def test_symmetric_with_zero_diagonal(self, data):
        pb = psibar_matrix(data, squared=True)
        np.testing.assert_array_equal(pb, pb.T)
        np.testing.assert_array_equal(np.diag(pb), 0.0)

    @settings(deadline=None, max_examples=100)
    @given(awkward_data(min_rows=2))
    def test_duplicates_share_rows_exactly(self, data):
        pb = psibar_matrix(data, squared=True)
        for j in range(len(data)):
            for i in range(j):
                if np.array_equal(data[i], data[j]):
                    assert pb[i, j] == 0.0
                    np.testing.assert_array_equal(pb[j], pb[i])
                    break

    @pytest.mark.parametrize("example", ["4i", "4ii"])
    def test_binary_examples_bitwise_pdist(self, example):
        cfg = ScenarioConfig(example, p=2000, n=50, m=50, beta=0.5, seed=1)
        data = generate(cfg).data
        np.testing.assert_array_equal(psibar_matrix(data, squared=True), _pdist_psibar(data))

    def test_only_cityblock_uses_pdist(self, monkeypatch):
        metrics = []

        def recording_pdist(x, metric):
            metrics.append(metric)
            return pdist(x, metric)

        monkeypatch.setattr(statistic, "pdist", recording_pdist)
        data = np.random.default_rng(12).standard_normal((6, 3))
        psibar_matrix(data, squared=True)
        assert metrics == []
        psibar_matrix(data, squared=False)
        assert metrics == ["cityblock"]


class TestEdStatistic:
    def test_constant_offdiagonal_gives_zero(self):
        vals = np.full((6, 6), 3.7)
        np.fill_diagonal(vals, 0.0)
        km = KernelMatrix(values=vals, n=3, m=3)
        assert ed_statistic(km) == pytest.approx(0.0, abs=1e-14)

    def test_l1_hand_value(self):
        # cross pairs |0-2|,|0-3|,|1-2|,|1-3| = 2,3,1,2; within pairs both 1
        km = build_kernel_matrix(_hand_sample(), KernelSpec("l1"))
        assert ed_statistic(km) == pytest.approx(2.0)

    def test_group_swap_symmetry(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((8, 3))
        swapped = np.vstack([data[4:], data[:4]])
        for fam in FAMILIES:
            a = ed_statistic(build_kernel_matrix(LabeledSample(data, 4, 4), KernelSpec(fam)))
            b = ed_statistic(
                build_kernel_matrix(LabeledSample(swapped, 4, 4), KernelSpec(fam))
            )
            assert a == pytest.approx(b, rel=1e-12)


class TestPermutedStatistic:
    def test_identity_matches_unpermuted(self):
        rng = np.random.default_rng(6)
        s = LabeledSample(rng.standard_normal((9, 4)), 4, 5)
        for fam in FAMILIES:
            km = build_kernel_matrix(s, KernelSpec(fam))
            assert ed_statistic_permuted(km, np.arange(9)) == pytest.approx(
                ed_statistic(km), rel=1e-12, abs=1e-14
            )

    def test_constant_matrix_any_perm(self):
        vals = np.full((6, 6), 2.0)
        np.fill_diagonal(vals, 0.0)
        km = KernelMatrix(values=vals, n=2, m=4)
        rng = np.random.default_rng(7)
        for _ in range(10):
            perm = rng.permutation(6)
            assert ed_statistic_permuted(km, perm) == pytest.approx(0.0, abs=1e-13)

    def test_hand_case_row_swap(self):
        # swapping rows 1 and 2 (0-based) regroups to X'={0,2}, Y'={1,3}:
        # cross |0-1|,|0-3|,|2-1|,|2-3| = 1,3,1,1; within gaps 2 and 2
        km = build_kernel_matrix(_hand_sample(), KernelSpec("l1"))
        perm = np.array([0, 2, 1, 3])
        assert ed_statistic_permuted(km, perm) == pytest.approx(-1.0)

    def test_weights_sum_to_zero(self):
        rng = np.random.default_rng(8)
        for n, m in ((2, 2), (3, 5), (4, 4)):
            perm = rng.permutation(n + m)
            w = permutation_weights(perm, n, m)
            assert w.sum() == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(w, w.T)

    def test_weight_matrix_agrees_with_mask_path(self):
        rng = np.random.default_rng(9)
        s = LabeledSample(rng.standard_normal((7, 3)), 3, 4)
        km = build_kernel_matrix(s, KernelSpec("gaussian"))
        for _ in range(20):
            perm = rng.permutation(7)
            via_weights = (permutation_weights(perm, 3, 4) * km.values).sum() / 2.0
            via_masks = ed_statistic_permuted(km, perm)
            assert via_masks == pytest.approx(via_weights, rel=1e-10, abs=1e-12)

    def test_invalid_perm_rejected(self):
        km = build_kernel_matrix(_hand_sample(), KernelSpec("l1"))
        with pytest.raises(ValueError):
            ed_statistic_permuted(km, [0, 0, 1, 2])
        with pytest.raises(ValueError):
            group_mask([0, 1, 2], 2, 2)


class TestMaskedStatistics:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(10)
        s = LabeledSample(rng.standard_normal((8, 4)), 3, 5)
        km = build_kernel_matrix(s, KernelSpec("l2"))
        perms = [rng.permutation(8) for _ in range(15)]
        masks = np.array([p < 3 for p in perms])
        batch = masked_statistics(km.values, 3, 5, masks)
        for row, perm in zip(batch, perms):
            # batch path trades some accuracy for speed
            assert row == pytest.approx(
                ed_statistic_permuted(km, perm), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("n, m", [(3, 5), (4, 4), (6, 6), (7, 2)])
    def test_stack_matches_one_call_per_matrix(self, n, m):
        # each matrix of a (D, N, N) stack gets bit for bit its own call's statistics
        rng = np.random.default_rng(n * 10 + m)
        stack = np.array([
            build_kernel_matrix(
                LabeledSample(rng.standard_normal((n + m, 3)) * 10.0**k, n, m),
                KernelSpec(FAMILIES[k % 4]),
            ).values
            for k in range(6)
        ])
        for masks in (plan_masks(_EXACT, n, m), sample_masks(n, m, 40, n + m)):
            stats = masked_statistics(stack, n, m, masks)
            assert stats.shape == (len(stack), len(masks))
            assert np.array_equal(stats[2], masked_statistics(stack[2], n, m, masks))


    @pytest.mark.parametrize("n, m", [(3, 5), (4, 4), (6, 6), (7, 2)])
    def test_centring_matches_pair_sums(self, n, m):
        # the U-centred quadratic form against the uncentred pair-sum formula,
        # on every exact mask, at 1e-12 of the summed absolute weighted terms
        rng = np.random.default_rng(n * 10 + m)
        masks = plan_masks(_EXACT, n, m)
        for offset in (0.0, 1e8):
            s = LabeledSample(rng.standard_normal((n + m, 5)) + offset, n, m)
            stack = kernel_matrix_stack(s, _KERNELS)
            gap = np.abs(masked_statistics(stack, n, m, masks)
                         - pair_sum_statistics(stack, n, m, masks))
            assert np.all(gap <= 1e-12 * weighted_abs_sums(stack, n, m, masks))

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 5), (4, 4), (7, 2), (13, 11)])
    def test_constant_data_gives_exactly_zero(self, n, m):
        s = LabeledSample(np.full((n + m, 3), 2.5), n, m)
        stack = kernel_matrix_stack(s, _KERNELS)
        masks = sample_masks(n, m, 200, n + m)
        stats = masked_statistics(stack, n, m, masks)
        assert np.all(stats == 0.0) and not np.signbit(stats).any()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mask_and_complement_tie_exactly(self, n):
        rng = np.random.default_rng(n)
        s = LabeledSample(rng.standard_normal((2 * n, 4)) + 1e3, n, n)
        masks = plan_masks(_EXACT, n, n)
        rows = {mask.tobytes(): i for i, mask in enumerate(masks)}
        complement = [rows[(~mask).tobytes()] for mask in masks]
        stats = masked_statistics(kernel_matrix_stack(s, _KERNELS), n, n, masks)
        assert np.array_equal(stats, stats[:, complement])


@st.composite
def _awkward_splits(draw):
    """Awkward data split n != m, or n = m on its first even number of rows."""
    data = draw(awkward_data())
    if draw(st.booleans()):
        half = len(data) // 2
        return LabeledSample(data[: 2 * half], half, half)
    n = draw(st.integers(2, len(data) - 2))
    return LabeledSample(data, n, len(data) - n)


@settings(deadline=None, max_examples=200)
@given(sample=_awkward_splits())
def test_identity_statistic_matches_fsum(sample):
    """The observed statistic of each kernel of the stack is within 1e-12 of
    the summed absolute weighted terms of the compensated-sum reference."""
    n, m = sample.n, sample.m
    identity = np.arange(n + m)[None, :] < n
    stack = kernel_matrix_stack(sample, _KERNELS)
    got = masked_statistics(stack, n, m, identity)[:, 0]
    scale = weighted_abs_sums(stack, n, m, identity)[:, 0]
    for stat, bound, spec in zip(got, scale, _KERNELS):
        want = ed_statistic(build_kernel_matrix(sample, spec))
        assert abs(stat - want) <= 1e-12 * bound, spec.family


class TestKernelStatistics:
    @pytest.mark.parametrize("n, m", [(7, 4), (6, 6)])
    def test_equals_one_call_per_kernel(self, n, m):
        # the stacked call is bit for bit four 2-d calls, one per family
        s = generate(ScenarioConfig("3i", p=40, n=n, m=m, beta=0.3, seed=n + m))
        kernels = tuple(KernelSpec(f, 0.7) for f in FAMILIES)
        for masks in (plan_masks(_EXACT, n, m), sample_masks(n, m, 50, n * m)):
            stats = masked_statistics(kernel_matrix_stack(s, kernels), n, m, masks)
            assert stats.shape == (len(kernels), len(masks))
            for row, spec in zip(stats, kernels):
                want = masked_statistics(build_kernel_matrix(s, spec).values, n, m, masks)
                assert np.array_equal(row, want)
                assert np.array_equal(
                    masked_statistics(kernel_matrix_stack(s, (spec,))[0], n, m, masks), want)

    def test_builds_each_distance_matrix_once(self, monkeypatch):
        calls = []

        def counting(data, squared):
            calls.append(squared)
            return psibar_matrix(data, squared)

        monkeypatch.setattr(statistic, "psibar_matrix", counting)
        s = generate(ScenarioConfig("1", p=10, n=5, m=5))
        kernels = tuple(KernelSpec(f) for f in FAMILIES)
        kernel_matrix_stack(s, kernels)
        assert sorted(calls) == [False, True]


class TestPermuteRows:
    def test_equivalence_with_weight_view(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(2, 8))
            s = LabeledSample(rng.standard_normal((n + m, 5)), n, m)
            perm = rng.permutation(n + m)
            fam = FAMILIES[int(rng.integers(0, 4))]
            km = build_kernel_matrix(s, KernelSpec(fam))
            a = ed_statistic_permuted(km, perm)
            b = ed_statistic(build_kernel_matrix(permute_rows(s, perm), KernelSpec(fam)))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-13)

    def test_identity_is_noop(self):
        s = _hand_sample()
        out = permute_rows(s, np.arange(4))
        np.testing.assert_array_equal(out.data, s.data)
