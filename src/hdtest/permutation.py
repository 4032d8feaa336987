"""Permutation calibration: the masks a plan evaluates and the one decision rule.

The statistic only depends on which positions receive an X label, so the
(n+m)! permutations of the pooled rows give C(n+m, n) distinct values, each
shared by n!*m! permutations. Exact mode walks those S = C(n+m, n) group-X
masks in lexicographic order; Monte Carlo mode draws S-1 uniform
relabellings after the identity, one stream whether drawn at once
(:func:`sample_masks`) or in chunks. Both put the identity in row 0, so the
observed statistic is its own entry of the distribution and the p-value is
valid and >= 1/S. :func:`decide` is the one decision rule: it rejects when
at most floor(alpha S) statistics reach the observed one.

:func:`_plan_chunks` states a plan's S and is its one source of masks, chunk
by chunk, so an exact plan is never held whole; :func:`plan_masks` gives
all its rows at once. Every plan's masks are evaluated in those chunks.
:func:`permutation_test` evaluates them all and keeps only the S statistics:
its p-value is that count over S, and it reports the quantile,
:func:`critical_value`. Where only decisions are kept, the one chunked
decision loop, :func:`_sequential_rejections`, takes ``decide``'s count only
until each row's decision is fixed: a study's kernels over chunks of masks
(:func:`_kernel_rejections`), or the limit Monte Carlo's draws over blocks of
distinct relabellings, each counted as often as it occurs among the masks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .kernels import KernelSpec, _check_fields, _check_type
from .statistic import (LabeledSample, _bitwise_rows, _coefficient, _quadratic_forms,
                        _u_centred, kernel_matrix_stack)

#: exact enumeration builds at most this many group-X masks
EXACT_MASK_CAP = 100_000


@dataclass(frozen=True)
class PermutationPlan:
    mode: str = "monte-carlo"  # "exact" or "monte-carlo"
    count: int = 300
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.mode not in ("exact", "monte-carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte-carlo":
            if self.count < 1:
                raise ValueError("count must be positive")
            if self.count > sys.maxsize:  # a plan that would draw masks without end
                raise ValueError(f"count must be at most {sys.maxsize}")
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


def _mask_chunks(n: int, m: int, count: int, seed: int, chunks: int):
    """The rows of :func:`sample_masks` in ``chunks`` consecutive near-equal
    blocks, each drawn when it is asked for.

    Shuffling the rows of a tiled arange in order draws the same stream as
    count-1 successive ``rng.permutation(n + m)`` calls, so the blocks are
    the one-block rows bit for bit; row 0 is the identity.
    """
    rng = np.random.default_rng(seed)
    for i in range(chunks):
        start, stop = count * i // chunks, count * (i + 1) // chunks
        perms = np.tile(np.arange(n + m), (stop - start, 1))
        shuffled = perms[1:] if start == 0 else perms
        rng.permuted(shuffled, axis=1, out=shuffled)
        yield perms < n


def sample_masks(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Identity mask plus count-1 masks from uniform random permutations."""
    return next(_mask_chunks(n, m, count, seed, 1))


def _exact_chunks(n: int, m: int, size: int, chunks: int):
    """The ``size`` = C(n+m, n) group-X masks, in lexicographic order of their
    X positions, in ``chunks`` consecutive near-equal blocks, each built when
    it is asked for; row 0 is the identity."""
    positions = chain.from_iterable(combinations(range(n + m), n))
    for i in range(chunks):
        rows = size * (i + 1) // chunks - size * i // chunks
        masks = np.zeros((rows, n + m), dtype=bool)
        x_positions = np.fromiter(positions, dtype=np.intp, count=rows * n)
        np.put_along_axis(masks, x_positions.reshape(rows, n), True, axis=1)
        yield masks


def _plan_chunks(plan: PermutationPlan, n: int, m: int):
    """(S, chunks): the plan's size and its masks, identity in row 0, in
    near-equal consecutive chunks of at least :func:`_bitwise_rows` rows (one
    if there are fewer), each drawn or built when it is asked for, whose
    statistics are one call's over all S bit for bit. The plan is checked at
    once."""
    rows = _bitwise_rows(n + m)
    if plan.mode == "monte-carlo":
        return plan.count, _mask_chunks(n, m, plan.count, plan.seed, max(1, plan.count // rows))
    size = math.comb(n + m, n)
    if size > EXACT_MASK_CAP:
        raise ValueError(f"exact enumeration needs C(n+m, n) = {size} masks, more than "
                         f"{EXACT_MASK_CAP}; use monte-carlo mode instead")
    return size, _exact_chunks(n, m, size, max(1, size // rows))


def plan_masks(plan: PermutationPlan, n: int, m: int) -> np.ndarray:
    """The group-X masks a plan evaluates, identity in row 0: its chunks
    joined, a Monte Carlo plan's drawn at once by :func:`sample_masks`."""
    if plan.mode == "monte-carlo":
        return sample_masks(n, m, plan.count, plan.seed)
    return np.concatenate(list(_plan_chunks(plan, n, m)[1]))


def _check_alpha(alpha: float) -> None:
    _check_type(float, alpha=alpha)
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")


def _tail_size(alpha: float, size: int) -> int:
    """k = floor(alpha S): a level-alpha rejection lets at most k of the S
    statistics, the observed one included, reach the observed one."""
    _check_alpha(alpha)
    return math.floor(alpha * size)


def _reached(stats: np.ndarray, observed: np.ndarray, counts=None) -> np.ndarray:
    """How many ``stats`` along the last axis are >= ``observed``, each
    counted ``counts`` times when given."""
    if counts is None:
        return np.count_nonzero(stats >= observed, axis=-1)
    # einsum casts the comparison in buffered chunks, not as a whole copy
    return np.einsum("...j,j->...", stats >= observed, counts)


def decide(stats: np.ndarray, alpha: float):
    """(reached, reject): how many of the S statistics along the last axis
    reach the observed one, column 0, itself included, and whether that is
    at most k = floor(alpha S), i.e. whether S-k fall below it and it
    strictly exceeds :func:`critical_value`, the (S-k)-th smallest. With j
    permutations per exact-mode column, floor(floor(alpha S j) / j) =
    floor(alpha S), so the count decides alike in permutation units."""
    reached = _reached(stats, stats[..., :1])
    return reached, reached <= _tail_size(alpha, stats.shape[-1])


def critical_value(stats: np.ndarray, alpha: float):
    """The (1-alpha) randomization quantile along the last axis of ``stats``:
    the (S - floor(alpha S))-th smallest value. It is reported, not decided
    on; :func:`decide` rejects exactly when column 0 strictly exceeds it."""
    size = stats.shape[-1]
    rank = size - _tail_size(alpha, size) - 1
    return np.partition(stats, rank, axis=-1)[..., rank]


def _sequential_rejections(rows, chunks, evaluate, alpha: float, size: int) -> np.ndarray:
    """``decide``'s rejections for each of ``rows`` over S = ``size``
    statistics, taken chunk by chunk only until every decision is fixed.
    ``evaluate(rows, chunk)`` gives each row's statistics of the chunk and
    their multiplicities (None for one each); column 0 of the first chunk is
    the observed one. A row rejects iff at most k = floor(alpha S) reach it,
    so it accepts once k+1 seen do and rejects once S-k fall below it
    (Besag and Clifford 1991); a chunk's statistics are those of one
    evaluation over all S, so every decision is too. A decided row leaves
    ``rows``, freed unless the caller holds it, with its count final: more
    than k, or at most seen-(S-k) <= k. No chunk follows once none is left.
    """
    k = _tail_size(alpha, size)
    live = np.arange(len(rows))
    reached = np.zeros(len(rows), dtype=np.intp)
    seen = 0
    for chunk in chunks:
        stats, counts = evaluate(rows, chunk)
        if seen == 0:
            # a copy: a view would keep the first chunk's statistics alive
            observed = stats[:, :1].copy()
        reached[live] += _reached(stats, observed, counts)
        seen += stats.shape[-1] if counts is None else counts.sum()
        del chunk, stats  # before the next chunk is built
        if seen == size:  # every row is decided
            break
        now = reached[live]
        keep = (now <= k) & (seen - now < size - k)
        if not keep.all():
            if not keep.any():
                break
            live, rows, observed = live[keep], rows[keep], observed[keep]
    return reached <= k


def _kernel_rejections(values: np.ndarray, n: int, m: int, alpha: float,
                       plan: PermutationPlan) -> np.ndarray:
    """``decide``'s rejections over ``plan``'s S masks for a (K, n+m, n+m)
    stack: :func:`_sequential_rejections` over :func:`_plan_chunks`."""
    count, chunks = _plan_chunks(plan, n, m)
    # masked_statistics with the centring and its coefficient done once
    centred, coefficient = _u_centred(values), _coefficient(n, m)
    del values  # the uncentred stack, before any chunk
    return _sequential_rejections(centred, chunks, lambda rows, masks: (
        coefficient * _quadratic_forms(rows, masks), None), alpha, count)


def permutation_test(
    sample: LabeledSample,
    spec: KernelSpec,
    alpha: float = 0.05,
    plan: PermutationPlan | None = None,
) -> TestResult:
    """Level-alpha permutation test by :func:`decide`. The observed statistic
    reaches itself, so the p-value, the share of the S statistics that reach
    it, is >= 1/S."""
    _check_type(LabeledSample, sample=sample)
    _check_type(KernelSpec, spec=spec)
    _check_alpha(alpha)
    if plan is None:
        plan = PermutationPlan()
    _check_type(PermutationPlan, plan=plan)
    n, m = sample.n, sample.m
    size, chunks = _plan_chunks(plan, n, m)
    values, coefficient = _u_centred(kernel_matrix_stack(sample, (spec,))[0]), _coefficient(n, m)
    stats, classes = [], 0
    for masks in chunks:
        # adding 0.0 turns the -0.0 of a zero form into 0.0
        stats.append(coefficient * _quadratic_forms(values, masks) + 0.0)
        # class w: how many of the first n positions lose their X label
        classes = classes + np.bincount(n - masks[:, :n].sum(axis=1), minlength=n + 1)
    stats = np.concatenate(stats)
    reached, reject = decide(stats, alpha)
    # permutations per mask: n!*m! per exact-mode mask, one per drawn mask
    per_mask = math.factorial(n) * math.factorial(m) if plan.mode == "exact" else 1
    return TestResult(
        statistic=float(stats[0]),
        critical_value=float(critical_value(stats, alpha)),
        p_value=int(reached) / size,
        reject=bool(reject),
        alpha=alpha,
        plan=plan,
        w_histogram={w: int(c) * per_mask for w, c in enumerate(classes) if c},
    )
