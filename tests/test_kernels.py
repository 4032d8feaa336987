import math

import numpy as np
import pytest

from hdtest.kernels import FAMILIES, KernelSpec, phi, phi_prime
from tests.reference import kernel_eval, psi_bar


class TestKernelSpec:
    def test_known_families(self):
        for fam in FAMILIES:
            KernelSpec(fam)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            KernelSpec("cosine")

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelSpec("gaussian", gamma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("laplacian", gamma=-1.0)

    @pytest.mark.parametrize("family", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_bandwidth_rejected(self, family, gamma):
        # an infinite bandwidth makes the kernel constant, so no test could reject
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            KernelSpec(family, gamma=gamma)

    def test_non_numeric_bandwidth_rejected(self):
        # float() would take the string, and phi would then fail on it
        with pytest.raises(TypeError, match="bandwidth must be a number, got '0.5'"):
            KernelSpec("gaussian", gamma="0.5")

    @pytest.mark.parametrize("family", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("gamma", [1e200, 1e154, 1e-155, 1e-160])
    def test_bandwidth_outside_the_normal_range_rejected(self, family, gamma):
        # 2 gamma^2 overflows or is subnormal, so phi overflows or flattens
        with pytest.raises(ValueError, match=r"with 2 gamma\^2 a normal float, got"):
            KernelSpec(family, gamma=gamma)

    @pytest.mark.parametrize("family", ["gaussian", "laplacian"])
    @pytest.mark.parametrize("gamma", [1.1e-154, 9e153])
    def test_bandwidth_at_the_ends_of_the_normal_range_accepted(self, family, gamma):
        assert KernelSpec(family, gamma=gamma).gamma == gamma

    def test_bandwidth_ignored_for_distance_families(self):
        # gamma is unused for l2/l1, so no validation applies
        KernelSpec("l2", gamma=-3.0)

    def test_squared_difference_flag(self):
        assert KernelSpec("l2").uses_squared_differences
        assert KernelSpec("gaussian").uses_squared_differences
        assert KernelSpec("laplacian").uses_squared_differences
        assert not KernelSpec("l1").uses_squared_differences

    def test_label_names_non_default_bandwidth(self):
        assert [KernelSpec(f).label for f in FAMILIES] == list(FAMILIES)
        assert KernelSpec("gaussian", 0.5).label == "gaussian(gamma=0.5)"
        assert KernelSpec("laplacian", 50.0).label == "laplacian(gamma=50)"
        # the distance families ignore gamma, so their label does too
        assert KernelSpec("l2", gamma=3.0).label == "l2"
        assert KernelSpec("l1", gamma=3.0).label == "l1"


class TestPsiBar:
    def test_identical_inputs(self):
        for fam in FAMILIES:
            assert psi_bar([1.0, 2.0], [1.0, 2.0], KernelSpec(fam)) == 0.0

    def test_squared_hand_value(self):
        # (9 + 16) / 2
        assert psi_bar([1, 2], [4, 6], KernelSpec("l2")) == 12.5
        assert psi_bar([1, 2], [4, 6], KernelSpec("gaussian")) == 12.5

    def test_absolute_hand_value(self):
        # (3 + 4) / 2
        assert psi_bar([1, 2], [4, 6], KernelSpec("l1")) == 3.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psi_bar([1, 2], [1, 2, 3], KernelSpec("l2"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            psi_bar([], [], KernelSpec("l2"))


class TestPhi:
    def test_l2(self):
        spec = KernelSpec("l2")
        assert phi(spec, 0.0) == 0.0
        assert phi(spec, 12.5) == pytest.approx(math.sqrt(12.5))

    def test_l1_is_identity(self):
        assert phi(KernelSpec("l1"), 7.0) == 7.0

    def test_gaussian_at_zero(self):
        assert phi(KernelSpec("gaussian", 1.0), 0.0) == -1.0

    def test_laplacian(self):
        assert phi(KernelSpec("laplacian", 2.0), 4.0) == pytest.approx(-math.exp(-1.0))

    def test_elementwise(self):
        out = phi(KernelSpec("l2"), np.array([0.0, 4.0, 9.0]))
        np.testing.assert_allclose(out, [0.0, 2.0, 3.0])

    def test_strictly_increasing(self):
        ts = np.linspace(0.05, 5.0, 40)
        for fam in FAMILIES:
            vals = phi(KernelSpec(fam), ts)
            assert np.all(np.diff(vals) > 0), fam


class TestKernelEval:
    def test_composition(self):
        assert kernel_eval([1, 2], [4, 6], KernelSpec("l2")) == pytest.approx(
            math.sqrt(12.5)
        )
        assert kernel_eval([1, 2], [4, 6], KernelSpec("l1")) == 3.5

    def test_gaussian_self_similarity(self):
        assert kernel_eval([3.0], [3.0], KernelSpec("gaussian")) == -1.0


class TestPhiPrime:
    def test_l1_constant(self):
        assert phi_prime(KernelSpec("l1"), 7.0) == 1.0

    def test_l2_value(self):
        assert phi_prime(KernelSpec("l2"), 4.0) == 0.25

    def test_gaussian_value(self):
        assert phi_prime(KernelSpec("gaussian", 1.0), 2.0) == pytest.approx(
            0.5 * math.exp(-1.0)
        )

    def test_laplacian_value(self):
        # exp(-sqrt(t)/gamma) / (2 gamma sqrt(t))
        assert phi_prime(KernelSpec("laplacian", 1.0), 4.0) == pytest.approx(
            math.exp(-2.0) / 4.0
        )

    def test_singular_domains(self):
        with pytest.raises(ValueError):
            phi_prime(KernelSpec("l2"), 0.0)
        with pytest.raises(ValueError):
            phi_prime(KernelSpec("laplacian"), 0.0)

    def test_matches_finite_difference(self):
        h = 1e-6
        for fam in FAMILIES:
            spec = KernelSpec(fam, 1.3)
            for t in (0.5, 1.0, 2.7):
                fd = (phi(spec, t + h) - phi(spec, t - h)) / (2 * h)
                assert phi_prime(spec, t) == pytest.approx(fd, rel=1e-6), fam
