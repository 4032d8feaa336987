"""Unbiased two-sample U-statistic over a cached pairwise kernel matrix.

The kernel matrix is built once per test; evaluating the statistic under a
permutation only re-weights its entries, so the per-permutation cost is
O((n+m)^2) regardless of the data dimension. The one O((n+m)^2 p) step,
squared distances, is a Gram GEMM of the rows centred on row 0 (see
:func:`psibar_matrix`: exactly symmetric, exact on integer-valued data and
for duplicated rows); cityblock distances come from ``pdist``. One engine,
:func:`masked_pair_sums`, gives the cross and within-group pair sums for a
batch of group masks, over one matrix or a stack of them; the statistic
weighs them by :func:`pair_weights`, which the limit formulas of
:mod:`hdtest.asymptotics` sum too, and the diagnostics combine them.
:func:`kernel_statistics` is the one path from a sample and its kernels to
the permuted statistics, for the test and the studies alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .kernels import KernelSpec, phi


@dataclass(frozen=True)
class LabeledSample:
    """Stacked data matrix: rows 0..n-1 are group X, rows n..n+m-1 are group Y."""

    data: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("data must be a 2-d matrix")
        if self.n < 2 or self.m < 2:
            raise ValueError("need at least 2 observations per group")
        if data.shape[0] != self.n + self.m:
            raise ValueError(f"data has {data.shape[0]} rows, expected n+m={self.n + self.m}")
        if data.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.all(np.isfinite(data)):
            raise ValueError("data contains non-finite entries")

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.data[: self.n]

    @property
    def y(self) -> np.ndarray:
        return self.data[self.n :]


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric matrix of pairwise kernel values with a zeroed diagonal."""

    values: np.ndarray
    spec: KernelSpec
    n: int
    m: int


def psibar_matrix(data: np.ndarray, squared: bool) -> np.ndarray:
    """Pairwise averaged coordinate distances for all rows of ``data``.

    With ``squared`` this is the squared euclidean distance divided by p,
    otherwise the cityblock distance divided by p (``pdist``).

    Squared distances come from one Gram GEMM of the rows centred on row 0,
    z = data - data[0], g = z zᵀ, d = diag(g): the entry (i, j) is
    max(dᵢ + dⱼ - 2gᵢⱼ, 0) / p. Centring on a data row removes common
    offsets such as 1e8 and keeps integer-valued data integer, so its
    distances, ties included, are exact and equal ``pdist``'s bit for bit.
    The formula cancels where a distance is small against dᵢ + dⱼ, so pairs
    below 1e-2 of it are summed from their coordinate differences instead:
    every entry is then accurate relative to itself (to about 100 times the
    rounding of one dot product), not only to the largest entry. High
    dimensional data has no such pairs. The matrix is exactly symmetric
    with a zero diagonal, and rows that are exactly equal are at distance
    exactly 0.0 and share their first copy's row and column bit for bit.
    """
    p = data.shape[1]
    if not squared:
        return squareform(pdist(data, metric="cityblock")) / p
    z = data - data[0]
    g = z @ z.T
    d = g.diagonal().copy()
    sq = np.add.outer(d, d)
    # twice the Gram matrix, symmetric whatever the BLAS does; the diagonal
    # is then 2dᵢ - 2gᵢᵢ = 0 exactly
    sq -= g + g.T
    np.maximum(sq, 0.0, out=sq)
    later, earlier = np.nonzero(np.tril(sq <= np.add.outer(1e-2 * d, 1e-2 * d), -1))
    if later.size:
        near = _sq_differences(data, later, earlier)
        sq[later, earlier] = sq[earlier, later] = near
        copy = near == 0.0
        if copy.any():
            rep = np.arange(data.shape[0])  # index of each row's first copy
            np.minimum.at(rep, later[copy], earlier[copy])
            sq = sq[np.ix_(rep, rep)]
            sq[rep[:, None] == rep[None, :]] = 0.0
    sq /= p
    return sq


def _sq_differences(data: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of rows a[k] and b[k] for each k, from the coordinate
    differences, in chunks of about 2**16 entries."""
    step = max(1, 2**16 // data.shape[1])
    out = np.empty(a.size)
    for i in range(0, a.size, step):
        diff = data[a[i : i + step]] - data[b[i : i + step]]
        out[i : i + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def kernel_matrix_from_psibar(pb: np.ndarray, spec: KernelSpec, n: int, m: int) -> KernelMatrix:
    values = phi(spec, pb)
    np.fill_diagonal(values, 0.0)
    return KernelMatrix(values=values, spec=spec, n=n, m=m)


def build_kernel_matrix(sample: LabeledSample, spec: KernelSpec) -> KernelMatrix:
    pb = psibar_matrix(sample.data, spec.uses_squared_differences)
    return kernel_matrix_from_psibar(pb, spec, sample.n, sample.m)


def pair_weights(n: int, m: int) -> tuple[Fraction, Fraction, Fraction]:
    """The statistic's exact weight per (cross, within-X, within-Y) pair.
    Each converts to the correctly rounded float of its quotient."""
    return Fraction(2, n * m), Fraction(-2, n * (n - 1)), Fraction(-2, m * (m - 1))


def _combine(cross, within_x, within_y, n: int, m: int):
    w_xy, w_x, w_y = map(float, pair_weights(n, m))
    return w_xy * cross + w_x * within_x + w_y * within_y


def ed_statistic(km: KernelMatrix) -> float:
    """Unbiased estimator: 2*mean(cross) - mean(within X) - mean(within Y).

    The three block sums are accumulated with compensated summation so the
    result does not depend on evaluation order.
    """
    n, m, k = km.n, km.m, km.values
    cross = math.fsum(k[:n, n:].ravel().tolist())
    within_x = math.fsum(k[:n, :n][np.triu_indices(n, 1)].tolist())
    within_y = math.fsum(k[n:, n:][np.triu_indices(m, 1)].tolist())
    return _combine(cross, within_x, within_y, n, m)


def masked_pair_sums(values: np.ndarray, n: int, m: int, masks: np.ndarray):
    """(cross, within_x, within_y) pair sums of a symmetric zero-diagonal
    matrix for each row of ``masks``, a (S, n+m) boolean array marking the
    positions that carry an X label, from one GEMM.

    ``values`` may also be a (..., n+m, n+m) stack of such matrices; the sums
    then have shape (..., S), and each matrix's are bit for bit those of its
    own call, since numpy's matmul makes one GEMM per matrix of the stack.

    For n = m each mask is evaluated through its representative with
    position 0 in group X, so the within sums may come swapped; anything
    built from them must be symmetric under the swap.
    """
    if n == m:
        # mathematically tied values then tie exactly in floating point too
        flip = ~masks[:, 0]
        masks = np.where(flip[:, None], ~masks, masks)
    g = masks.astype(float)
    kg = g @ values  # (..., S, n+m)
    within_x = np.einsum("...si,si->...s", kg, g) / 2.0
    row_tot = kg.sum(axis=-1)
    cross = row_tot - 2.0 * within_x
    total = values.sum(axis=(-2, -1))[..., None] / 2.0
    within_y = total - within_x - cross
    return cross, within_x, within_y


def masked_statistics(values: np.ndarray, n: int, m: int, masks: np.ndarray) -> np.ndarray:
    """Permuted statistics for a batch of group-X masks, shape (..., S) for
    ``values`` of shape (..., n+m, n+m): each is a fixed re-weighting of the
    kernel matrix entries, see :func:`masked_pair_sums`."""
    return _combine(*masked_pair_sums(values, n, m, masks), n, m)


def kernel_statistics(sample: LabeledSample, kernels, masks: np.ndarray) -> np.ndarray:
    """(K, S) permuted statistics of ``sample`` for the K ``kernels`` under
    the S group-X ``masks``.

    Each averaged-distance matrix the kernels need (squared or cityblock) is
    built once, and one :func:`masked_statistics` call evaluates the stack of
    the K kernel matrices; each row is bit for bit that kernel's own 2-d call.
    """
    pb = {}
    for spec in kernels:
        squared = spec.uses_squared_differences
        if squared not in pb:
            pb[squared] = psibar_matrix(sample.data, squared)
    values = np.stack([
        kernel_matrix_from_psibar(pb[spec.uses_squared_differences], spec,
                                  sample.n, sample.m).values
        for spec in kernels
    ])
    return masked_statistics(values, sample.n, sample.m, masks)
