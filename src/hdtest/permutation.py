"""Permutation calibration: randomization distribution, quantiles, decision.

Two modes are supported. Exact enumeration walks every permutation of the
pooled rows (feasible because the statistic only depends on which positions
receive an X label, so there are only C(n+m, n) distinct values, each shared
by n!*m! permutations). Monte Carlo draws S-1 uniform permutations after the
identity. :func:`plan_masks` puts the identity in row 0 in both modes, so
the observed statistic is its own entry of the distribution and the p-value
is valid and >= 1/S; :func:`decide` is the one quantile/reject rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .kernels import KernelSpec
from .statistic import (
    KernelMatrix,
    LabeledSample,
    _check_perm,
    build_kernel_matrix,
    masked_statistics,
)

#: refuse exact enumeration beyond 10! total permutations by default
DEFAULT_EXACT_CAP = math.factorial(10)


@dataclass(frozen=True)
class PermutationPlan:
    mode: str = "monte-carlo"  # "exact" or "monte-carlo"
    count: int = 300
    seed: int = 0
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.count < 1:
            raise ValueError("count must be positive")


@dataclass(frozen=True)
class RandomizationDistribution:
    """Sorted permuted-statistic values with their multiplicities."""

    values: np.ndarray  # sorted ascending, distinct-by-evaluation
    counts: np.ndarray  # multiplicity of each value (all 1 in MC mode)
    total: int
    provenance: str

    def cdf(self, t: float) -> float:
        idx = np.searchsorted(self.values, t, side="right")
        return float(np.cumsum(self.counts)[idx - 1] / self.total) if idx else 0.0

    def mean(self) -> float:
        return float(np.dot(self.values, self.counts) / self.total)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    plan: PermutationPlan
    w_histogram: dict = field(default_factory=dict)


def n_of_gamma(perm, n: int, m: int) -> int:
    """Number of first-block positions that a permutation sends into the
    second block."""
    perm = _check_perm(perm, n + m)
    return int(np.count_nonzero(perm[:n] >= n))


def s_w_cardinality(n: int, m: int, w: int) -> int:
    """|S_w| = C(m, w) * C(n, n-w) * n! * m!, exact."""
    if not 0 <= w <= min(n, m):
        raise ValueError(f"w={w} outside 0..min(n, m)")
    return math.comb(m, w) * math.comb(n, n - w) * math.factorial(n) * math.factorial(m)


def exact_masks(n: int, m: int):
    """All distinct group-X masks with the multiplicity each represents.

    Returns (masks, multiplicity): masks is a (C(n+m, n), n+m) boolean array,
    every mask standing for n!*m! concrete permutations.
    """
    total = n + m
    sets = list(combinations(range(total), n))
    masks = np.zeros((len(sets), total), dtype=bool)
    for i, s in enumerate(sets):
        masks[i, list(s)] = True
    return masks, math.factorial(n) * math.factorial(m)


def sample_masks(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Identity mask plus count-1 masks from uniform random permutations."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((count, n + m), dtype=bool)
    masks[0, :n] = True
    for s in range(1, count):
        masks[s] = rng.permutation(n + m) < n
    return masks


def plan_masks(plan: PermutationPlan, n: int, m: int) -> tuple[np.ndarray, int]:
    """The group-X masks a plan evaluates, identity in row 0, and the number
    of permutations each mask stands for."""
    if plan.mode == "monte-carlo":
        return sample_masks(n, m, plan.count, plan.seed), 1
    if math.factorial(n + m) > plan.exact_cap:
        raise ValueError(
            f"exact enumeration needs (n+m)! <= {plan.exact_cap}; "
            "use monte-carlo mode instead"
        )
    return exact_masks(n, m)


def decide(stats: np.ndarray, alpha: float, multiplicity: int = 1):
    """The (1-alpha) randomization quantile along the last axis of ``stats``
    and whether the observed statistic, column 0, strictly exceeds it.

    Each column stands for ``multiplicity`` permutations, T of them in all;
    the quantile is the smallest value whose cumulative count reaches
    ceil((1-alpha) T) = T - floor(alpha T). Returns (critical, reject),
    each with the shape of ``stats`` minus its last axis.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    total = stats.shape[-1] * multiplicity
    need = total - math.floor(alpha * total)
    rank = -(-need // multiplicity) - 1
    crit = np.partition(stats, rank, axis=-1)[..., rank]
    return crit, stats[..., 0] > crit


def randomization_distribution(
    km: KernelMatrix, plan: PermutationPlan
) -> RandomizationDistribution:
    masks, mult = plan_masks(plan, km.n, km.m)
    stats = np.sort(masked_statistics(km.values, km.n, km.m, masks), kind="stable")
    return RandomizationDistribution(
        values=stats,
        counts=np.full(stats.size, mult, dtype=np.int64),
        total=stats.size * mult,
        provenance="exact" if plan.mode == "exact" else f"monte-carlo(seed={plan.seed})",
    )


def critical_value(dist: RandomizationDistribution, alpha: float) -> float:
    """Smallest stored value t with cdf(t) >= 1 - alpha; every value must
    stand for the same number of permutations, as in
    :func:`randomization_distribution`."""
    mult = np.unique(dist.counts)
    if mult.size != 1:
        raise ValueError("need a nonempty distribution whose values share one multiplicity")
    return float(decide(dist.values, alpha, int(mult[0]))[0])


def _w_histogram(masks: np.ndarray, n: int, multiplicity: int) -> dict:
    # w = number of first-block positions not keeping an X label
    w_vals = n - masks[:, :n].sum(axis=1)
    uniq, cnt = np.unique(w_vals, return_counts=True)
    return {int(w): int(c) * multiplicity for w, c in zip(uniq, cnt)}


def permutation_test(
    sample: LabeledSample,
    spec: KernelSpec,
    alpha: float = 0.05,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Level-alpha permutation test: reject iff the observed statistic
    strictly exceeds the (1-alpha) randomization quantile."""
    if plan is None:
        plan = PermutationPlan()
    km = build_kernel_matrix(sample, spec)
    masks, mult = plan_masks(plan, km.n, km.m)
    stats = masked_statistics(km.values, km.n, km.m, masks)
    crit, reject = decide(stats, alpha, mult)
    # the observed statistic is the identity's own entry, so it counts in
    # its own tail and the p-value can never fall below 1/S
    p_value = np.count_nonzero(stats >= stats[0]) / stats.size
    return TestResult(
        statistic=float(stats[0]),
        critical_value=float(crit),
        p_value=p_value,
        reject=bool(reject),
        alpha=alpha,
        plan=plan,
        w_histogram=_w_histogram(masks, km.n, mult),
    )
