"""Closed-form limit theory for the permuted statistic.

Provides the polynomial scaling f(w) of the permuted-statistic mean, the
per-class limiting mean and variance (mu_{n,w}, sigma^2_{n,w}), the exact
hypergeometric law of the class index W, the medium-sample-size variance,
the Gaussian-mixture cdf of the randomized statistic, and a Monte Carlo
estimate of the limiting power of the permutation test in the fixed-sample
regime. f(w) and sigma^2_{n,w} sum the statistic's own
:func:`~hdtest.statistic.pair_weights` over the pairs a class-w relabelling
puts in each block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np
from scipy.stats import norm

from .kernels import KernelSpec, phi, phi_prime
from .permutation import PermutationPlan, decide, plan_masks
from .statistic import masked_statistics, pair_weights


@dataclass(frozen=True)
class MomentConstants:
    """Limiting means of the averaged coordinate distance within/across
    groups and limiting variances of its double-centered version."""

    e_x: float
    e_y: float
    e_xy: float
    v_x: float
    v_y: float
    v_xy: float

    def __post_init__(self):
        if not all(math.isfinite(e) and e >= 0 for e in (self.e_x, self.e_y, self.e_xy)):
            raise ValueError("means must be finite and nonnegative")
        _check_variances(self.v_x, self.v_y, self.v_xy)


def _check_variances(*variances: float) -> None:
    if not all(math.isfinite(v) and v >= 0 for v in variances):
        raise ValueError("variances must be finite and nonnegative")


def _check_w(n: int, m: int, w) -> None:
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2")
    if not 0 <= w <= min(n, m):
        raise ValueError(f"w={w} outside 0..min(n, m)")


def _class_pairs(n: int, m: int, w: int) -> tuple[tuple[int, int, int], ...]:
    """Pairs of each original block (rows X, Y, cross) that a relabelling
    swapping w of X's positions with w of Y's puts in the (cross, X, Y)
    blocks of the statistic."""
    _check_w(n, m, w)
    return (
        ((n - w) * w, math.comb(n - w, 2), math.comb(w, 2)),
        ((m - w) * w, math.comb(w, 2), math.comb(m - w, 2)),
        ((n - w) * (m - w) + w * w, (n - w) * w, w * (m - w)),
    )


def f_w_frac(n: int, m: int, w: int) -> Fraction:
    """Exact f(w): minus the pair weights summed over X's pairs as class w
    relabels them (Y's pairs give the same, the cross pairs -2 f(w))."""
    x_pairs = _class_pairs(n, m, w)[0]
    return -sum(k * wt for k, wt in zip(x_pairs, pair_weights(n, m)))


def f_w(n: int, m: int, w: int) -> float:
    """Second-order polynomial in w scaling the permuted-statistic mean;
    f(0) = 1 and f is maximal at w = 0."""
    return float(f_w_frac(n, m, w))


def mean_gap(c: MomentConstants, spec: KernelSpec) -> float:
    """2 phi(e_xy) - phi(e_x) - phi(e_y), the unpermuted limiting mean."""
    return 2.0 * phi(spec, c.e_xy) - phi(spec, c.e_x) - phi(spec, c.e_y)


def mu_nw(n: int, m: int, w: int, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting mean of the statistic under a permutation of class w."""
    return mean_gap(c, spec) * f_w(n, m, w)


def sigma2_nw(n: int, m: int, w: int, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting variance of the (sqrt(p)-scaled) statistic for class w: per
    original block, v phi'(e)^2 times the squared pair weights summed over
    the block's pairs as class w relabels them."""
    blocks = zip(_class_pairs(n, m, w), (c.v_x, c.v_y, c.v_xy), (c.e_x, c.e_y, c.e_xy))
    # every term is nonnegative, so float sums lose nothing to cancellation
    squares = [float(wt) ** 2 for wt in pair_weights(n, m)]
    return sum(sum(map(mul, pairs, squares)) * v * phi_prime(spec, e) ** 2
               for pairs, v, e in blocks)


@dataclass(frozen=True)
class HypergeometricLaw:
    """Law of W = N(Gamma) for a uniformly random permutation."""

    n: int
    m: int

    @property
    def support(self) -> range:
        return range(min(self.n, self.m) + 1)


def hypergeom_pmf(law: HypergeometricLaw, w: int) -> Fraction:
    """P(W = w) = C(m, w) C(n, n-w) / C(n+m, n), exact; 0 off support."""
    n, m = law.n, law.m
    if not 0 <= w <= min(n, m):
        return Fraction(0)
    return Fraction(math.comb(m, w) * math.comb(n, n - w), math.comb(n + m, n))


def sigma2_hdmss(rho: float, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting variance of sqrt(nmp) times the randomized statistic when
    both sample sizes grow with n/m -> rho."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    gxy = phi_prime(spec, c.e_xy)
    gx = phi_prime(spec, c.e_x)
    gy = phi_prime(spec, c.e_y)
    return (
        4.0 * c.v_xy * gxy**2
        + 2.0 * rho * c.v_x * gx**2
        + 2.0 / rho * c.v_y * gy**2
    )


def mixture_normal_cdf(a: float, n: int, m: int, c: MomentConstants, spec: KernelSpec) -> float:
    """cdf of the Gaussian mixture over the hypergeometric class index.

    Zero-variance components contribute a point mass at 0, i.e. an
    indicator of a >= 0.
    """
    law = HypergeometricLaw(n, m)
    out = 0.0
    for w in law.support:
        pw = float(hypergeom_pmf(law, w))
        s2 = sigma2_nw(n, m, w, c, spec)
        if s2 == 0.0:
            out += pw * (1.0 if a >= 0 else 0.0)
        else:
            out += pw * norm.cdf(a / math.sqrt(s2))
    return out


@dataclass(frozen=True)
class GaussianProcessSpec:
    """Variances of the independent mean-zero Gaussian families that the
    double-centered pair contributions converge to."""

    n: int
    m: int
    v_xy: float
    v_x: float
    v_y: float

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise ValueError("need n, m >= 2")
        _check_variances(self.v_xy, self.v_x, self.v_y)


#: most entries of one batch's (draws, masks, n+m) product, and of its
#: (draws, n+m, n+m) pair matrices, in :func:`power_limit_mc`
_BATCH_ENTRIES = 2**17


def _gaussian_pair_matrices(gp: GaussianProcessSpec, rng: np.random.Generator,
                            draws: int) -> np.ndarray:
    """(draws, n+m, n+m) stack of symmetric zero-diagonal matrices of limiting
    pair contributions: cross block i.i.d. N(0, v_xy), within-X block
    N(0, v_x), within-Y block N(0, v_y).

    Each draw is one row of standard normals: the cross block, then the upper
    triangles of the X and Y blocks, each scaled by its standard deviation,
    with no columns for a zero-variance block. ``rng.normal(scale=s)`` is
    ``s * rng.standard_normal()`` bit for bit, so this is the stream of
    drawing one matrix after the other, block by block.
    """
    n, m = gp.n, gp.m
    iu_x, iu_y = np.triu_indices(n, 1), np.triu_indices(m, 1)
    blocks = (  # (rows, columns, variance) of the upper-triangle entries
        (np.repeat(np.arange(n), m), np.tile(np.arange(n, n + m), n), gp.v_xy),
        (iu_x[0], iu_x[1], gp.v_x),
        (n + iu_y[0], n + iu_y[1], gp.v_y),
    )
    blocks = [b for b in blocks if b[2] > 0]
    z = rng.standard_normal((draws, sum(rows.size for rows, _, _ in blocks)))
    g = np.zeros((draws, n + m, n + m))
    start = 0
    for rows, cols, v in blocks:
        vals = z[:, start : start + rows.size] * math.sqrt(v)
        g[:, rows, cols] = vals
        g[:, cols, rows] = vals
        start += rows.size
    return g


def _limit_statistics(gp: GaussianProcessSpec, masks: np.ndarray, draws: int, seed: int):
    """The limit process over ``masks`` for each of ``draws`` draws, yielded
    in (D, S) batches of at most :data:`_BATCH_ENTRIES` / ((n+m) max(S, n+m))
    draws, one stacked GEMM each."""
    n, m = gp.n, gp.m
    rng = np.random.default_rng(seed)
    size = max(1, _BATCH_ENTRIES // ((n + m) * max(masks.shape[0], n + m)))
    for start in range(0, draws, size):
        g = _gaussian_pair_matrices(gp, rng, min(size, draws - start))
        yield masked_statistics(g, n, m, masks)


def power_limit_mc(
    gp: GaussianProcessSpec,
    alpha: float,
    plan: PermutationPlan,
    draws: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the limiting rejection probability.

    Each draw samples the Gaussian pair matrix, evaluates the limit process
    over the identity and the plan's permutations, and rejects when the
    identity value strictly exceeds the (1-alpha) randomization quantile.
    Draws are evaluated in batches, one stacked masked GEMM and one
    :func:`~hdtest.permutation.decide` call per batch, with memory bounded
    by a fixed number of entries per batch; every draw's statistics, and so
    the estimate, are bit for bit those of evaluating the draws one by one.
    Returns (estimate, standard error).
    """
    if draws < 1000:
        raise ValueError("need at least 1000 draws")
    masks = plan_masks(plan, gp.n, gp.m)[0]
    rejections = 0
    for stats in _limit_statistics(gp, masks, draws, seed):
        rejections += int(np.count_nonzero(decide(stats, alpha)[1]))
    rate = rejections / draws
    se = math.sqrt(rate * (1.0 - rate) / draws)
    return rate, se
