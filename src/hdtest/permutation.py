"""Permutation calibration: the masks a plan evaluates and the one decision rule.

The statistic only depends on which positions receive an X label, so the
(n+m)! permutations of the pooled rows give C(n+m, n) distinct values, each
shared by n!*m! permutations. Exact mode walks those C(n+m, n) group-X
masks; Monte Carlo mode draws S-1 uniform relabellings after the identity.
:func:`plan_masks` puts the identity in row 0 in both modes, so the observed
statistic is its own entry of the distribution and the p-value is valid and
>= 1/S; :func:`decide` is the one quantile/reject rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .kernels import KernelSpec
from .statistic import LabeledSample, kernel_statistics

#: exact enumeration builds at most this many group-X masks
EXACT_MASK_CAP = 100_000


@dataclass(frozen=True)
class PermutationPlan:
    mode: str = "monte-carlo"  # "exact" or "monte-carlo"
    count: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte-carlo" and self.count < 1:
            raise ValueError("count must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    plan: PermutationPlan
    w_histogram: dict = field(default_factory=dict)


def exact_masks(n: int, m: int):
    """All distinct group-X masks, in lexicographic order of their X
    positions, with the multiplicity each represents.

    Returns (masks, multiplicity): masks is a (C(n+m, n), n+m) boolean array,
    every mask standing for n!*m! concrete permutations.
    """
    total = n + m
    rows = math.comb(total, n)
    x_positions = np.fromiter(
        chain.from_iterable(combinations(range(total), n)), dtype=np.intp, count=rows * n
    ).reshape(rows, n)
    masks = np.zeros((rows, total), dtype=bool)
    np.put_along_axis(masks, x_positions, True, axis=1)
    return masks, math.factorial(n) * math.factorial(m)


def sample_masks(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Identity mask plus count-1 masks from uniform random permutations.

    Shuffling the rows of a tiled arange in order draws the same stream as
    count-1 successive ``rng.permutation(n + m)`` calls.
    """
    rng = np.random.default_rng(seed)
    perms = np.tile(np.arange(n + m), (count, 1))
    shuffled = perms[1:]
    rng.permuted(shuffled, axis=1, out=shuffled)
    return perms < n


def plan_masks(plan: PermutationPlan, n: int, m: int) -> tuple[np.ndarray, int]:
    """The group-X masks a plan evaluates, identity in row 0, and the number
    of permutations each mask stands for."""
    if plan.mode == "monte-carlo":
        return sample_masks(n, m, plan.count, plan.seed), 1
    size = math.comb(n + m, n)
    if size > EXACT_MASK_CAP:
        raise ValueError(
            f"exact enumeration needs C(n+m, n) = {size} masks, "
            f"more than {EXACT_MASK_CAP}; use monte-carlo mode instead"
        )
    return exact_masks(n, m)


def decide(stats: np.ndarray, alpha: float):
    """The (1-alpha) randomization quantile along the last axis of ``stats``
    and whether the observed statistic, column 0, strictly exceeds it.

    With S columns the quantile is the smallest value whose cumulative count
    reaches ceil((1-alpha) S) = S - floor(alpha S). In exact mode every
    column stands for the same number k of permutations, and since
    floor(floor(alpha S k) / k) = floor(alpha S) in exact arithmetic the
    rank is the same in permutation units. Returns (critical, reject), each with the shape of
    ``stats`` minus its last axis.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    size = stats.shape[-1]
    rank = size - math.floor(alpha * size) - 1
    crit = np.partition(stats, rank, axis=-1)[..., rank]
    return crit, stats[..., 0] > crit


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
    masks, mult = plan_masks(plan, sample.n, sample.m)
    stats = kernel_statistics(sample, (spec,), masks)[0]
    crit, reject = decide(stats, alpha)
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
        w_histogram=_w_histogram(masks, sample.n, mult),
    )
