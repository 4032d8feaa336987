"""Reference implementations that the tests compare the package against.

They evaluate one permutation at a time, one pair of points at a time, or
build masks in plain Python loops, so they are slow but easy to check by
eye. The per-pair kernel, the single-grouping diagnostics and the
permutation counting helpers live here too: the package computes the same
quantities only through its batched paths.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.stats import norm

from hdtest.asymptotics import (
    GaussianProcessSpec,
    MomentConstants,
    hypergeom_pmf,
    sigma2_nw,
)
from hdtest.diagnostics import _cov_gap
from hdtest.kernels import KernelSpec, phi
from hdtest.permutation import PermutationPlan, decide, plan_masks
from hdtest.statistic import (
    KernelMatrix,
    LabeledSample,
    ed_statistic,
    masked_statistics,
    pair_weights,
    psibar_matrix,
)


def _check_perm(perm, size: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (size,) or not np.array_equal(np.sort(perm), np.arange(size)):
        raise ValueError(f"perm must be a permutation of 0..{size - 1}")
    return perm


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


def masked_pair_sums(values: np.ndarray, n: int, m: int, masks: np.ndarray):
    """(cross, within_x, within_y) pair sums of a symmetric zero-diagonal
    matrix for each row of ``masks``, a (S, n+m) boolean array marking the
    positions that carry an X label, from one GEMM: the uncentred sums that
    the package's U-centred quadratic forms are checked against.

    ``values`` may also be a (..., n+m, n+m) stack of such matrices; the sums
    then have shape (..., S).

    For n = m each mask is evaluated through its representative with
    position 0 in group X, so the within sums may come swapped; anything
    built from them must be symmetric under the swap.
    """
    if n == m:
        # mathematically tied values then tie exactly in floating point too
        masks = masks ^ ~masks[:, :1]
    g = masks.astype(float)
    within_x = np.einsum("...si,si->...s", g @ values, g) / 2.0
    rows = values.sum(axis=-1)
    cross = np.einsum("...i,si->...s", rows, g) - 2.0 * within_x
    within_y = rows.sum(axis=-1)[..., None] / 2.0 - within_x - cross
    return cross, within_x, within_y


def _weigh(sums, weights):
    (cross, within_x, within_y), (w_xy, w_x, w_y) = sums, weights
    return w_xy * cross + w_x * within_x + w_y * within_y


def pair_sum_statistics(values, n: int, m: int, masks) -> np.ndarray:
    """Permuted statistics as the float pair weights times the (cross,
    within-X, within-Y) sums of ``masked_pair_sums``, added in that order:
    the uncentred formula that ``masked_statistics`` is checked against."""
    return _weigh(masked_pair_sums(values, n, m, masks), map(float, pair_weights(n, m)))


def weighted_abs_sums(values, n: int, m: int, masks) -> np.ndarray:
    """Sum of the absolute weighted terms of each mask's statistic: the
    scale its rounding error is relative to."""
    return _weigh(masked_pair_sums(np.abs(values), n, m, masks),
                  [abs(float(w)) for w in pair_weights(n, m)])


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
    at a time."""
    total = n + m
    sets = list(combinations(range(total), n))
    masks = np.zeros((len(sets), total), dtype=bool)
    for i, s in enumerate(sets):
        masks[i, list(s)] = True
    return masks


def distinct_relabellings_rowsort(masks: np.ndarray):
    """The distinct relabellings among ``masks`` by a sort of whole rows:
    ``np.unique`` over the representatives with position 0 in group X, each
    relabelling as its first mask in order of first appearance, with how
    many masks give it."""
    _, first, counts = np.unique(masks ^ ~masks[:, :1], axis=0,
                                 return_index=True, return_counts=True)
    order = np.argsort(first)
    return masks[first[order]], counts[order]


def pair_layout_triu(gp: GaussianProcessSpec):
    """The pair layout of ``power_limit_mc`` from ``np.triu_indices``: each
    pair's row, column and standard deviation, the cross block row by row,
    then the upper triangles of X and Y, less any zero-variance block."""
    n, m, size = gp.n, gp.m, gp.n + gp.m
    iu_x, iu_y = np.triu_indices(n, 1), np.triu_indices(m, 1)
    rows = np.concatenate([np.repeat(np.arange(n), m), iu_x[0], n + iu_y[0]])
    cols = np.concatenate([np.tile(np.arange(n, size), n), iu_x[1], n + iu_y[1]])
    sd = np.repeat(np.sqrt([gp.v_xy, gp.v_x, gp.v_y]), [n * m, iu_x[0].size, iu_y[0].size])
    keep = sd > 0
    return rows[keep], cols[keep], sd[keep]


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
    """``power_limit_mc`` one draw at a time: one pair matrix per antithetic
    pair, draw 2j its matrix g and draw 2j+1 its negation -g (an odd last
    draw is g alone), and one masked GEMM and one ``decide`` per draw.
    Returns (estimate, standard error, each draw's decision)."""
    n, m = gp.n, gp.m
    masks = plan_masks(plan, n, m)
    rng = np.random.default_rng(seed)
    rejects = np.empty(draws, dtype=bool)
    for d in range(draws):
        g = gaussian_pair_matrix(gp, rng) if d % 2 == 0 else -g
        rejects[d] = decide(masked_statistics(g, n, m, masks), alpha)[1]
    rate = int(np.count_nonzero(rejects)) / draws
    pairs = draws // 2
    both = int(np.count_nonzero(rejects[0:2 * pairs:2] & rejects[1:2 * pairs:2]))
    se = math.sqrt((rate * (1.0 - rate) + both / pairs) / draws)
    return rate, se, rejects


def limit_statistics_fsum(gp: GaussianProcessSpec, masks: np.ndarray, draws: int, seed: int):
    """The limit statistic of each of ``draws`` draws under each row of
    ``masks``, each the ``math.fsum`` of its pair terms, and the sum of the
    terms' absolute values: two (draws, S) arrays.

    Pair (i, j)'s term is its standard normal times c, where c is the float
    weight of the pair's class under the mask times the standard deviation
    of the pair's block, each product rounded once. The normals are the
    stream of ``power_limit_mc``: :func:`gaussian_pair_matrix` at unit
    variance in each block that ``gp`` draws, once per antithetic pair,
    for draw 2j as drawn and for draw 2j+1 negated.
    """
    n, m = gp.n, gp.m
    unit = replace(gp, v_xy=float(gp.v_xy > 0), v_x=float(gp.v_x > 0), v_y=float(gp.v_y > 0))
    rows, cols = np.triu_indices(n + m, 1)
    sd_xy, sd_x, sd_y = np.sqrt([gp.v_xy, gp.v_x, gp.v_y])
    block_sd = np.where(cols < n, sd_x, np.where(rows >= n, sd_y, sd_xy))
    w_xy, w_x, w_y = (float(w) for w in pair_weights(n, m))
    a, b = masks[:, rows], masks[:, cols]
    coefficients = np.where(a & b, w_x, np.where(a | b, w_xy, w_y)) * block_sd
    rng = np.random.default_rng(seed)
    stats, scale = np.empty((draws, len(masks))), np.empty((draws, len(masks)))
    for d in range(draws):
        values = gaussian_pair_matrix(unit, rng)[rows, cols] if d % 2 == 0 else -values
        terms = coefficients * values
        stats[d] = list(map(math.fsum, terms.tolist()))
        scale[d] = np.abs(terms).sum(axis=1)
    return stats, scale


def gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u), u = 2**-53: the relative bound on
    the rounding of j successive operations, such as a dot product of
    length j in any summation order."""
    u = 2.0**-53
    return j * u / (1 - j * u)


def _u_centred_loop(values: np.ndarray) -> np.ndarray:
    """U-centred copy of a symmetric matrix, entry by entry: V_ij - R_i/(N-2)
    - R_j/(N-2) + T/((N-1)(N-2)) off the diagonal, 0 on it."""
    size = len(values)
    rows = [math.fsum(r) for r in values.tolist()]
    total = math.fsum(rows)
    out = np.zeros_like(values)
    for i in range(size):
        for j in range(size):
            if i != j:
                out[i, j] = (values[i, j] - (rows[i] + rows[j]) / (size - 2)
                             + total / ((size - 1) * (size - 2)))
    return out


def permutation_mean_square(values: np.ndarray, n: int, m: int) -> float:
    """Mean square of the permuted statistic over all C(n+m, n) relabellings,
    in closed form: 2 c^2 |Ṽ|_F^2 (p_2 - 2 p_3 + p_4), with Ṽ the U-centred
    ``values``, c = (w_x + w_y)/2 - w_xy of the exact pair weights and
    p_k = n (n-1) ... (n-k+1) / (N (N-1) ... (N-k+1)), N = n + m. The mean
    itself is 0."""
    size = n + m
    w_xy, w_x, w_y = pair_weights(n, m)
    c = (w_x + w_y) / 2 - w_xy

    def p(k):
        return Fraction(math.perm(n, k), math.perm(size, k))

    frobenius = math.fsum(v * v for v in _u_centred_loop(values).ravel().tolist())
    return float(2 * c * c * (p(2) - 2 * p(3) + p(4))) * frobenius


def mixture_normal_cdf_scipy(a_values, n: int, m: int, c: MomentConstants,
                             spec: KernelSpec) -> np.ndarray:
    """``mixture_normal_cdf`` at each of ``a_values`` with scipy's normal cdf,
    summing the components in the same order; a zero-variance component is
    a point mass at 0."""
    a = np.asarray(a_values, dtype=float)
    out = np.zeros_like(a)
    for w in range(min(n, m) + 1):
        pw = float(hypergeom_pmf(n, m, w))
        s2 = sigma2_nw(n, m, w, c, spec)
        out += pw * ((a >= 0).astype(float) if s2 == 0.0 else norm.cdf(a / math.sqrt(s2)))
    return out


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


def psi_bar(x, y, spec: KernelSpec) -> float:
    """Average per-coordinate distance (1/p) * sum_u psi(x_u, y_u)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"inputs must be 1-d vectors of equal length, got {x.shape} and {y.shape}")
    if x.size == 0:
        raise ValueError("dimension must be at least 1")
    d = x - y
    if spec.uses_squared_differences:
        return float(np.mean(d * d))
    return float(np.mean(np.abs(d)))


def kernel_eval(x, y, spec: KernelSpec) -> float:
    """Evaluate k(x, y) = phi(psi_bar(x, y))."""
    return phi(spec, psi_bar(x, y, spec))


def mean_variance_gaps(sample: LabeledSample) -> tuple[float, float]:
    """Averaged squared mean difference and absolute averaged variance
    difference across coordinates (plug-in estimates)."""
    x, y = sample.x, sample.y
    mg = float(np.mean((x.mean(axis=0) - y.mean(axis=0)) ** 2))
    vg = float(abs(np.mean(x.var(axis=0, ddof=1) - y.var(axis=0, ddof=1))))
    return mg, vg


def exact_mean_variance_gaps(sample: LabeledSample) -> tuple[Fraction, Fraction]:
    """:func:`mean_variance_gaps` in exact rationals: per-column means and
    ``ddof=1`` variances. Every entry is an integer times 2**e, e the place
    of the lowest mantissa bit of any entry, so the column sums are exact
    Python integers."""
    n, m, p = sample.n, sample.m, sample.p
    e = int(np.frexp(sample.data)[1].min()) - 53
    ints = np.array([int(v) for v in np.ldexp(sample.data, -e).ravel()],
                    dtype=object).reshape(sample.data.shape)
    sx, sy = ints[:n].sum(axis=0), ints[n:].sum(axis=0)
    # n(n-1) var_x = n Σx² - (Σx)² per column
    vx = (n * (ints[:n] ** 2).sum(axis=0) - sx**2).sum()
    vy = (m * (ints[n:] ** 2).sum(axis=0) - sy**2).sum()
    unit = Fraction(2) ** (2 * e) / p
    mean_gap = Fraction(int(((m * sx - n * sy) ** 2).sum()), (n * m) ** 2) * unit
    var_gap = abs(Fraction(int(vx), n * (n - 1)) - Fraction(int(vy), m * (m - 1))) * unit
    return mean_gap, var_gap


def marginal_energy_sum(sample: LabeledSample) -> float:
    """Average over coordinates of the univariate energy-distance
    U-statistic; algebraically identical to, and computed as, the pooled
    statistic with the l1 kernel."""
    # phi is the identity for l1, so the averaged distances are the kernel
    pb = psibar_matrix(sample.data, squared=False)
    identity = np.arange(sample.n + sample.m)[None, :] < sample.n
    return float(masked_statistics(pb, sample.n, sample.m, identity)[0])


def cov_gap(sample: LabeledSample) -> float:
    """Squared Frobenius distance between group sample covariances, scaled
    by 1/p, without forming either p x p covariance."""
    return _cov_gap(psibar_matrix(sample.data, squared=True), sample.n, sample.m, sample.p)


def analytic_vxy_quadratic(cov_x: np.ndarray, cov_y: np.ndarray) -> float:
    """(4/p) sum_{u,v} cov_x[u,v] * cov_y[u,v]; the population cross-pair
    variance for squared-difference coordinate distances."""
    cov_x = np.asarray(cov_x, dtype=float)
    cov_y = np.asarray(cov_y, dtype=float)
    if cov_x.shape != cov_y.shape or cov_x.ndim != 2 or cov_x.shape[0] != cov_x.shape[1]:
        raise ValueError("covariance matrices must be square and of equal shape")
    p = cov_x.shape[0]
    return float(4.0 * np.sum(cov_x * cov_y) / p)


def leave_pair_out_variances(sample: LabeledSample, spec: KernelSpec):
    """(v_x, v_y, v_xy) of ``estimate_moment_constants`` one pair at a time.
    Each pair's averaged distance is centred by the mean of each of its two
    points' rows and by the grand mean, each mean leaving the pair's own
    points out and taken by ``math.fsum``; a constant is p times the fsum
    mean of its pairs' squares."""
    n, m, p = sample.n, sample.m, sample.p
    pb = psibar_matrix(sample.data, spec.uses_squared_differences)

    def mean(values):
        values = list(values)
        return math.fsum(values) / len(values)

    def within(block):
        k = block.shape[0]
        squares = []
        for i, j in combinations(range(k), 2):
            rest = [r for r in range(k) if r not in (i, j)]
            grand = mean(block[a, b] for a in rest for b in rest if a != b)
            centred = block[i, j] - mean(block[i, rest]) - mean(block[j, rest]) + grand
            squares.append(centred**2)
        return p * mean(squares)

    def cross(block):
        squares = []
        for i in range(n):
            for j in range(m):
                rows = [r for r in range(n) if r != i]
                cols = [c for c in range(m) if c != j]
                grand = mean(block[np.ix_(rows, cols)].ravel())
                centred = block[i, j] - mean(block[i, cols]) - mean(block[rows, j]) + grand
                squares.append(centred**2)
        return p * mean(squares)

    return within(pb[:n, :n]), within(pb[n:, n:]), cross(pb[:n, n:])


def l2_moment_estimates(sample: LabeledSample, spec: KernelSpec):
    """Empirical mean squares of the centered averaged distance over
    distinct pairs: (alpha^2_x, alpha^2_y, alpha^2_xy).

    Multiplying by sqrt(p) indicates whether the remainder-control rates
    behind the normal limit are plausible for this data.
    """
    n, m = sample.n, sample.m
    pb = psibar_matrix(sample.data, spec.uses_squared_differences)
    pxx, pyy, pxy = pb[:n, :n], pb[n:, n:], pb[:n, n:]
    iux = np.triu_indices(n, 1)
    iuy = np.triu_indices(m, 1)
    e_x = pxx[iux].mean()
    e_y = pyy[iuy].mean()
    e_xy = pxy.mean()
    ax2 = float(np.mean((pxx[iux] - e_x) ** 2))
    ay2 = float(np.mean((pyy[iuy] - e_y) ** 2))
    axy2 = float(np.mean((pxy - e_xy) ** 2))
    return ax2, ay2, axy2
