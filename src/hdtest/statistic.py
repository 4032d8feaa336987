"""Unbiased two-sample U-statistic over a cached pairwise kernel matrix.

The kernel matrix is built once per test; evaluating the statistic under a
permutation only re-weights its entries, so the per-permutation cost is
O((n+m)^2) regardless of the data dimension. The one O((n+m)^2 p) step,
squared distances, is a Gram GEMM of the rows centred on row 0 (see
:func:`psibar_matrix`: exactly symmetric, exact on integer-valued data and
for duplicated rows); cityblock distances come from ``pdist``.
:func:`kernel_matrix_stack` builds the (K, n+m, n+m) stack of a sample's
kernels. Under a batch of group-X masks each statistic is one quadratic form
of the U-centred matrix (:func:`_u_centred`, :func:`_quadratic_forms`): the
test and the studies centre their matrices once and take the forms chunk by
chunk (see :mod:`hdtest.permutation`), and :func:`masked_statistics`, which
centres and scales per call, serves the diagnostics' report, whose mean and
variance gaps are forms over the double-centred squared distances. The limit
formulas and the limit Monte Carlo of :mod:`hdtest.asymptotics` sum
:func:`pair_weights` too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .kernels import KernelSpec, phi


def _check_integers(**fields) -> None:
    """Refuse, naming its field, any value that is not an integer; a bool is
    not one, nor is a float such as 5.0 that a JSON config may hold."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_magnitude(data: np.ndarray, size: int) -> None:
    """Refuse ``data`` unless it is finite and no value of a test, study or
    diagnosis on ``size`` pooled rows can overflow: the largest, a diagnostics
    square, stays below 128 p size^2 B^4 for |data| <= B (a 16th of the float max)."""
    top = max(data.max(), -data.min())  # nan if any entry is
    if not np.isfinite(top):
        raise ValueError("data contains non-finite entries")
    bound = (np.finfo(float).max / (2048 * data.shape[1] * size**2)) ** 0.25
    if top > bound:
        raise ValueError(f"largest |value| {top:.3g} is above {bound:.3g}, where distances "
                         "may overflow; rescale the data")


@dataclass(frozen=True)
class LabeledSample:
    """Stacked data matrix: rows 0..n-1 are group X, rows n..n+m-1 are group Y."""

    data: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        _check_integers(n=self.n, m=self.m)
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
        _check_magnitude(data, self.n + self.m)

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
    n: int
    m: int


def psibar_matrix(data: np.ndarray, squared: bool) -> np.ndarray:
    """Pairwise averaged coordinate distances for all rows of ``data``.

    With ``squared`` this is the squared euclidean distance divided by p,
    otherwise the cityblock distance divided by p (``pdist``).

    Squared distances come from one Gram GEMM of the rows centred on row 0,
    z = data - data[0], g = z zᵀ, d = diag(g): the entry (i, j) is
    (dᵢ + dⱼ - 2gᵢⱼ) / p. Centring on a data row removes common offsets
    such as 1e8 and keeps integer-valued data integer, so its distances,
    ties included, are exact and equal ``pdist``'s bit for bit. The formula
    cancels where a distance is small against dᵢ + dⱼ, so pairs below 1e-2
    of it (any negative one too) are summed from their coordinate
    differences instead: every entry is then accurate relative to itself
    (to about 100 times the rounding of one dot product), not only to the
    largest entry. High dimensional data has no such pairs. The matrix is
    exactly symmetric with a zero diagonal, and rows that are exactly equal
    are at distance exactly 0.0 and share their first copy's row and column
    bit for bit.
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
    later, earlier = np.nonzero(np.tril(sq <= np.add.outer(1e-2 * d, 1e-2 * d), -1))
    if later.size:
        near = _sq_differences(data, later, earlier)
        sq[later, earlier] = sq[earlier, later] = near
        copy = near == 0.0
        if copy.any():
            rep = np.arange(data.shape[0])  # index of each row's first copy
            np.minimum.at(rep, later[copy], earlier[copy])
            # a pair of copies reads its first copy's diagonal entry, 0.0
            sq = sq[np.ix_(rep, rep)]
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


def kernel_matrix_from_psibar(pb: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """``spec``'s kernel matrix of the averaged distances ``pb``, zero diagonal."""
    values = phi(spec, pb)
    np.fill_diagonal(values, 0.0)
    return values


def build_kernel_matrix(sample: LabeledSample, spec: KernelSpec) -> KernelMatrix:
    pb = psibar_matrix(sample.data, spec.uses_squared_differences)
    return KernelMatrix(kernel_matrix_from_psibar(pb, spec), sample.n, sample.m)


def pair_weights(n: int, m: int) -> tuple[Fraction, Fraction, Fraction]:
    """The statistic's exact weight per (cross, within-X, within-Y) pair.
    Each converts to the correctly rounded float of its quotient."""
    return Fraction(2, n * m), Fraction(-2, n * (n - 1)), Fraction(-2, m * (m - 1))


def ed_statistic(km: KernelMatrix) -> float:
    """Unbiased estimator: 2*mean(cross) - mean(within X) - mean(within Y).

    The three block sums are accumulated with compensated summation so the
    result does not depend on evaluation order.
    """
    n, m, k = km.n, km.m, km.values
    cross = math.fsum(k[:n, n:].ravel().tolist())
    within_x = math.fsum(k[:n, :n][np.triu_indices(n, 1)].tolist())
    within_y = math.fsum(k[n:, n:][np.triu_indices(m, 1)].tolist())
    w_xy, w_x, w_y = map(float, pair_weights(n, m))
    return w_xy * cross + w_x * within_x + w_y * within_y


def _u_centred(values: np.ndarray) -> np.ndarray:
    """U-centred copy of a symmetric (..., N, N) stack (Székely and Rizzo
    2014): entry (i, j) less bᵢ + bⱼ, bᵢ = (Rᵢ - T/(2(N-1)))/(N-2) for the
    row sums R and their total T, and a zero diagonal, so every row sums to
    zero. The outer sum keeps it exactly symmetric, and the kernel matrices
    of constant data (off-diagonal 0 or -1) centre to exactly zero."""
    size = values.shape[-1]
    rows = values.sum(axis=-1)
    b = (rows - rows.sum(axis=-1, keepdims=True) / (2 * (size - 1))) / (size - 2)
    centred = np.add(b[..., :, None], b[..., None, :])
    np.subtract(values, centred, out=centred)
    np.einsum("...ii->...i", centred)[...] = 0.0
    return centred


def _coefficient(n: int, m: int) -> float:
    """c(n, m) = (w_x + w_y)/2 - w_xy of the exact pair weights, rounded once."""
    w_xy, w_x, w_y = pair_weights(n, m)
    return float((w_x + w_y) / 2 - w_xy)


def _quadratic_forms(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """gᵀVg, shape (..., S), from one GEMM, for each mask's representative g
    with position 0 in group X. Over a U-centred matrix a mask and its
    complement have equal forms, so this holds for any n, m, and for n = m
    the two tie bit for bit."""
    g = (masks ^ ~masks[:, :1]).astype(float)
    return np.einsum("...si,si->...s", g @ values, g)


#: OpenBLAS takes a GEMM of at most this many multiply-adds (M*N*K) down its
#: small-matrix path, which rounds differently from the blocked one
_SMALL_GEMM = 10**6


def _bitwise_rows(size: int) -> int:
    """Fewest mask rows a batch needs for its statistics over ``size``-side
    matrices to equal, bit for bit, those of one call over more rows: its
    GEMM must clear the small-matrix path, and no fewer than 128 rows (at
    size 100, batches of 64 and 100 rows differed in their last bits while
    128, 143 and 256 matched)."""
    return max(128, _SMALL_GEMM // size**2 + 1)


def masked_statistics(values: np.ndarray, n: int, m: int, masks: np.ndarray) -> np.ndarray:
    """Permuted statistics for a batch of group-X masks, shape (..., S) for
    ``values`` of shape (..., n+m, n+m). Each point's pair weights sum to
    zero under every relabelling, so over the U-centred matrix Ṽ, whose rows
    sum to zero, the statistic of mask g is c(n, m) gᵀṼg; the centring also
    removes the entries' common level, where pair sums would cancel."""
    # adding 0.0 turns the -0.0 of a zero form into 0.0
    return _coefficient(n, m) * _quadratic_forms(_u_centred(values), masks) + 0.0


def kernel_matrix_stack(sample: LabeledSample, kernels) -> np.ndarray:
    """The (K, n+m, n+m) stack of the K ``kernels``' matrices of ``sample``.
    Each averaged-distance matrix the kernels need (squared or cityblock) is
    built once."""
    kinds = dict.fromkeys(spec.uses_squared_differences for spec in kernels)
    pb = {squared: psibar_matrix(sample.data, squared) for squared in kinds}
    return np.stack([kernel_matrix_from_psibar(pb[spec.uses_squared_differences], spec)
                     for spec in kernels])
