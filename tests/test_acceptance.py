"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (visible with pytest -s; the test name carries the verdict
otherwise). Tolerances are fixed and must not be loosened.
"""

import math
import time
from fractions import Fraction
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from scipy.stats import kstest

from hdtest.asymptotics import (
    GaussianProcessSpec,
    MomentConstants,
    f_w_frac,
    hypergeom_pmf,
    power_limit_mc,
    sigma2_hdmss,
    sigma2_nw,
)
from hdtest.datagen import ScenarioConfig
from hdtest.harness import StudyConfig, run_power_study
from hdtest.kernels import FAMILIES, KernelSpec
from hdtest.permutation import PermutationPlan, plan_masks
from hdtest.statistic import (
    LabeledSample,
    build_kernel_matrix,
    ed_statistic,
    masked_statistics,
)
from tests.reference import (
    analytic_vxy_quadratic,
    ed_statistic_permuted,
    n_of_gamma,
    permute_rows,
    s_w_cardinality,
)
from tests.test_asymptotics import grouped_sigma2

ALL_KERNELS = tuple(KernelSpec(f) for f in FAMILIES)


def _passed(num, message):
    print(f"CRITERION {num}: PASS - {message}")


def test_criterion_01_null_size():
    start = time.perf_counter()
    cfg = StudyConfig(
        scenarios=(ScenarioConfig(example="1", p=200, n=50, m=50, rho=0.5),),
        kernels=ALL_KERNELS,
        alpha=0.05,
        replications=1000,
        permutations=300,
        seed=20260824,
    )
    table = run_power_study(cfg)
    elapsed = time.perf_counter() - start
    rates = {row["kernel"]: row["rejection_rate"] for row in table.rows}
    for fam, rate in rates.items():
        assert 0.03 <= rate <= 0.08, (fam, rate)
    assert elapsed < 600.0
    _passed(1, f"null sizes {rates} in [0.03, 0.08], {elapsed:.0f}s")


def test_criterion_02_marginal_power_separation():
    cfg = StudyConfig(
        scenarios=(ScenarioConfig(example="3i", p=500, n=70, m=30, beta=1.0),),
        kernels=ALL_KERNELS,
        alpha=0.05,
        replications=300,
        permutations=300,
        seed=7,
    )
    table = run_power_study(cfg)
    rates = {row["kernel"]: row["rejection_rate"] for row in table.rows}
    assert rates["l1"] >= 0.8, rates
    for fam in ("l2", "gaussian", "laplacian"):
        assert rates[fam] <= 0.15, (fam, rates)
    _passed(2, f"l1 power {rates['l1']:.3f} >= 0.8, others <= 0.15 ({rates})")


def test_criterion_03_matched_margins_no_power():
    alpha = 0.05
    reps = 500
    cfg = StudyConfig(
        scenarios=(ScenarioConfig(example="4ii", p=500, n=70, m=30, beta=1.0),),
        kernels=ALL_KERNELS,
        alpha=alpha,
        replications=reps,
        permutations=300,
        seed=11,
    )
    table = run_power_study(cfg)
    bound = alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / reps)
    rates = {row["kernel"]: row["rejection_rate"] for row in table.rows}
    for fam, rate in rates.items():
        assert rate <= bound, (fam, rate, bound)
    _passed(3, f"all rates {rates} <= {bound:.4f}")


def test_criterion_04_variance_formula_crosscheck():
    rng = np.random.default_rng(4)
    spec = KernelSpec("gaussian", 1.2)
    start = time.perf_counter()
    checked = 0
    for n in range(2, 31):
        for m in range(2, 31):
            c = MomentConstants(
                *rng.uniform(0.5, 3.0, 3), *rng.uniform(0.0, 2.0, 3)
            )
            for w in range(min(n, m) + 1):
                a = sigma2_nw(n, m, w, c, spec)
                b = grouped_sigma2(n, m, w, c, spec)
                assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300), (n, m, w)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(4, f"{checked} (n, m, w) cells matched to 1e-10 in {elapsed:.2f}s")


def test_criterion_05_enumeration_identities():
    for n in range(2, 9):
        for m in range(2, 9):
            fact = math.factorial(n + m)
            total = 0
            for w in range(min(n, m) + 1):
                card = s_w_cardinality(n, m, w)
                assert hypergeom_pmf(n, m, w) * fact == card, (n, m, w)
                total += card
            assert total == fact, (n, m)
    counts = {w: 0 for w in range(4)}
    for perm in iter_permutations(range(6)):
        counts[n_of_gamma(np.array(perm), 3, 3)] += 1
    for w, c in counts.items():
        assert c == s_w_cardinality(3, 3, w), w
    _passed(5, "pmf*(n+m)! == |S_w| for n,m <= 8; n=m=3 histogram exact")


def test_criterion_06_randomization_mean_zero():
    rng = np.random.default_rng(6)
    masks = plan_masks(PermutationPlan(mode="exact"), 3, 3)
    for _ in range(100):
        a = rng.standard_normal((6, 6))
        vals = (a + a.T) / 2.0
        np.fill_diagonal(vals, 0.0)
        assert abs(masked_statistics(vals, 3, 3, masks).mean()) <= 1e-12
    for n in range(2, 13):
        for m in range(2, 13):
            total = sum(hypergeom_pmf(n, m, w) * f_w_frac(n, m, w)
                        for w in range(min(n, m) + 1))
            assert total == Fraction(0), (n, m)
    _passed(6, "enumerated means zero to 1e-12; E[f(W)] == 0 exactly, n,m <= 12")


def test_criterion_07_weight_row_permutation_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, min(21, 41 - n)))
        p = int(rng.integers(1, 9))
        fam = FAMILIES[int(rng.integers(0, 4))]
        s = LabeledSample(rng.standard_normal((n + m, p)), n, m)
        perm = rng.permutation(n + m)
        km = build_kernel_matrix(s, KernelSpec(fam))
        a = ed_statistic_permuted(km, perm)
        b = ed_statistic(build_kernel_matrix(permute_rows(s, perm), KernelSpec(fam)))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14), (n, m, fam)
    _passed(7, "1000 random (data, permutation) pairs agree to 1e-12 relative")


def test_criterion_08_asymptotic_normality():
    n = m = 100
    p = 400
    reps = 2000
    spec = KernelSpec("l2")
    v = analytic_vxy_quadratic(np.eye(p), np.eye(p))  # 4 for identity covariances
    assert v == pytest.approx(4.0)
    c = MomentConstants(2.0, 2.0, 2.0, v, v, v)
    sigma2 = sigma2_hdmss(1.0, c, spec)  # phi' = 1/(2 sqrt 2) at e = 2
    assert sigma2 == pytest.approx(8.0 * v / 8.0)
    rng = np.random.default_rng(8)
    scale = math.sqrt(n * m * p)
    stats = np.empty(reps)
    for r in range(reps):
        s = LabeledSample(rng.standard_normal((n + m, p)), n, m)
        stats[r] = scale * ed_statistic(build_kernel_matrix(s, spec))
    ks = kstest(stats, "norm", args=(0.0, math.sqrt(sigma2))).statistic
    assert ks < 0.05
    _passed(8, f"KS distance {ks:.4f} < 0.05 against N(0, {sigma2:g})")


def test_criterion_09_power_limit_at_level():
    alpha = 0.05
    gp = GaussianProcessSpec(3, 3, 1.0, 1.0, 1.0)
    rate, se = power_limit_mc(gp, alpha, PermutationPlan(mode="exact"), 20000, seed=9)
    assert rate <= alpha + 3.0 * max(se, math.sqrt(alpha * (1 - alpha) / 20000))
    _passed(9, f"equal-variance limit power {rate:.4f} <= level {alpha}")


def test_criterion_10_determinism_across_jobs(tmp_path):
    cfg = StudyConfig(
        scenarios=(
            ScenarioConfig(example="1", p=30, n=15, m=15),
            ScenarioConfig(example="2i", p=30, n=15, m=15, beta=0.5),
        ),
        kernels=ALL_KERNELS,
        replications=24,
        permutations=40,
        seed=10,
    )
    paths = []
    for jobs in (1, 8):
        table = run_power_study(cfg, jobs=jobs)
        path = tmp_path / f"jobs{jobs}.csv"
        table.write_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    _passed(10, "--jobs 1 and --jobs 8 study CSVs are byte-identical")
