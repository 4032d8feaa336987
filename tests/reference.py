"""Reference implementations that the tests compare the package against.

They evaluate one permutation at a time, or build masks in plain Python
loops, so they are slow but easy to check by eye.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from hdtest.asymptotics import GaussianProcessSpec
from hdtest.permutation import PermutationPlan, decide, plan_masks
from hdtest.statistic import (
    KernelMatrix,
    LabeledSample,
    _check_perm,
    ed_statistic,
    masked_statistics,
)


def group_mask(perm, n: int, m: int) -> np.ndarray:
    """Boolean mask of positions relabelled into group X by ``perm``."""
    perm = _check_perm(perm, n + m)
    return perm < n


def permutation_weights(perm, n: int, m: int) -> np.ndarray:
    """Explicit pair-weight matrix: +2/(nm) across groups, -2/(n(n-1)) within
    the relabelled X group and -2/(m(m-1)) within the relabelled Y group."""
    g = group_mask(perm, n, m)
    w = np.empty((n + m, n + m))
    xx = np.outer(g, g)
    yy = np.outer(~g, ~g)
    w[:] = 2.0 / (m * n)
    w[xx] = -2.0 / (n * (n - 1))
    w[yy] = -2.0 / (m * (m - 1))
    np.fill_diagonal(w, 0.0)
    return w


def ed_statistic_permuted(km: KernelMatrix, perm) -> float:
    """Statistic after relabelling groups by ``perm``: :func:`ed_statistic`
    of the kernel matrix reordered X-first. Its block sums are exactly
    rounded, so it matches the statistic of physically reordered rows
    exactly; ``masked_statistics`` trades a little accuracy for speed."""
    mask = group_mask(perm, km.n, km.m)
    order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
    return ed_statistic(replace(km, values=km.values[np.ix_(order, order)]))


def permute_rows(sample: LabeledSample, perm) -> LabeledSample:
    """Physically reorder rows so that position i holds old row perm^{-1}(i).

    After this reordering the first n rows are exactly the rows whose new
    index perm(i) lies in the X block, matching the weight-permutation view.
    """
    perm = _check_perm(perm, sample.n + sample.m)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return LabeledSample(data=sample.data[inv], n=sample.n, m=sample.m)


def sample_masks_loop(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Identity mask plus count-1 masks, one ``rng.permutation`` per row."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((count, n + m), dtype=bool)
    masks[0, :n] = True
    for s in range(1, count):
        masks[s] = rng.permutation(n + m) < n
    return masks


def exact_masks_loop(n: int, m: int):
    """Every group-X mask from the ``combinations`` of X positions, one row
    at a time, with the n!*m! permutations each stands for."""
    total = n + m
    sets = list(combinations(range(total), n))
    masks = np.zeros((len(sets), total), dtype=bool)
    for i, s in enumerate(sets):
        masks[i, list(s)] = True
    return masks, math.factorial(n) * math.factorial(m)


def gaussian_pair_matrix(gp: GaussianProcessSpec, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix of limiting pair contributions: cross block i.i.d.
    N(0, v_xy), within-X block N(0, v_x), within-Y block N(0, v_y)."""
    n, m = gp.n, gp.m
    total = n + m
    g = np.zeros((total, total))
    b = rng.normal(scale=math.sqrt(gp.v_xy), size=(n, m)) if gp.v_xy > 0 else np.zeros((n, m))
    g[:n, n:] = b
    g[n:, :n] = b.T
    for (lo, hi, v) in ((0, n, gp.v_x), (n, total, gp.v_y)):
        k = hi - lo
        iu = np.triu_indices(k, 1)
        block = np.zeros((k, k))
        if v > 0:
            vals = rng.normal(scale=math.sqrt(v), size=iu[0].size)
            block[iu] = vals
            block += block.T
        g[lo:hi, lo:hi] = block
    return g


def power_limit_mc_loop(
    gp: GaussianProcessSpec, alpha: float, plan: PermutationPlan, draws: int, seed: int = 0
):
    """``power_limit_mc`` one draw at a time: one pair matrix, one masked
    GEMM and one ``decide`` per draw. Returns (estimate, standard error,
    the (draws, S) statistics)."""
    n, m = gp.n, gp.m
    masks = plan_masks(plan, n, m)[0]
    rng = np.random.default_rng(seed)
    stats = np.empty((draws, masks.shape[0]))
    rejections = 0
    for d in range(draws):
        g = gaussian_pair_matrix(gp, rng)
        stats[d] = masked_statistics(g, n, m, masks)
        _, reject = decide(stats[d], alpha)
        rejections += bool(reject)
    rate = rejections / draws
    se = math.sqrt(rate * (1.0 - rate) / draws)
    return rate, se, stats
