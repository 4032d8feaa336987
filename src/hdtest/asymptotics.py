"""Closed-form limit theory for the permuted statistic.

Provides the polynomial scaling f(w) of the permuted-statistic mean, the
per-class limiting mean and variance (mu_{n,w}, sigma^2_{n,w}), the exact
hypergeometric law of the class index W, the medium-sample-size variance,
the Gaussian-mixture cdf of the randomized statistic, and a Monte Carlo
estimate of the limiting power of the permutation test in the fixed-sample
regime. f(w) and sigma^2_{n,w} sum the statistic's own
:func:`~hdtest.statistic.pair_weights` over the pairs a class-w relabelling
puts in each block. The mixture's normal cdf is ``0.5 * erfc(-z / sqrt(2))``
from :mod:`math`, which keeps its relative accuracy far into the lower tail.
The limit statistic is linear in a draw's pair values, with those same
pair weights as coefficients, so the Monte Carlo evaluates its draws as one
GEMM with the coefficients of each distinct relabelling, decided in the
studies' chunked decision loop. The relabellings reach that loop in chunks
whose widths start at 64 and double: most draws accept after a few dozen
relabellings, and leave before the rest are multiplied. The draws come in
antithetic pairs: a standard normal vector z gives one draw and -z the next,
since z and -z are equally likely. A pair's two statistics are negations, so
its two counts of values reaching the observed one sum to at least S + 1, and
for alpha <= 1/2 the two never both reject: the limiting power is then at
most 1/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .kernels import KernelSpec, _check_fields, _check_type, phi, phi_prime
from .permutation import PermutationPlan, _check_alpha, _sequential_rejections, plan_masks
from .statistic import pair_weights


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
        _check_fields(self)
        _check_nonnegative(self, "means", "e_x", "e_y", "e_xy")
        _check_nonnegative(self, "variances", "v_x", "v_y", "v_xy")


def _check_nonnegative(obj, what: str, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{what} must be finite and nonnegative, got {name}={value}")


def _check_constants(c: MomentConstants, spec: KernelSpec) -> None:
    _check_type(MomentConstants, c=c)
    _check_type(KernelSpec, spec=spec)


def _class_pairs(n: int, m: int, w: int) -> tuple[tuple[int, int, int], ...]:
    """Pairs of each original block (rows X, Y, cross) that a relabelling
    swapping w of X's positions with w of Y's puts in the (cross, X, Y)
    blocks of the statistic."""
    _check_type(int, n=n, m=m, w=w)
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2")
    if not 0 <= w <= min(n, m):
        raise ValueError(f"w={w} outside 0..min(n, m)")
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
    _check_constants(c, spec)
    return 2.0 * phi(spec, c.e_xy) - phi(spec, c.e_x) - phi(spec, c.e_y)


def mu_nw(n: int, m: int, w: int, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting mean of the statistic under a permutation of class w."""
    _check_constants(c, spec)
    return mean_gap(c, spec) * f_w(n, m, w)


def sigma2_nw(n: int, m: int, w: int, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting variance of the (sqrt(p)-scaled) statistic for class w: per
    original block, v phi'(e)^2 times the squared pair weights summed over
    the block's pairs as class w relabels them."""
    _check_constants(c, spec)
    blocks = zip(_class_pairs(n, m, w), (c.v_x, c.v_y, c.v_xy), (c.e_x, c.e_y, c.e_xy))
    # every term is nonnegative, so float sums lose nothing to cancellation
    squares = [float(wt) ** 2 for wt in pair_weights(n, m)]
    return sum(sum(map(mul, pairs, squares)) * v * phi_prime(spec, e) ** 2
               for pairs, v, e in blocks)


def hypergeom_pmf(n: int, m: int, w: int) -> Fraction:
    """P(W = w) for the class index W = N(Gamma) of a uniformly random
    permutation: C(m, w) C(n, n-w) / C(n+m, n), exact; 0 off the support
    0..min(n, m)."""
    _check_type(int, n=n, m=m, w=w)
    if not 0 <= w <= min(n, m):
        return Fraction(0)
    return Fraction(math.comb(m, w) * math.comb(n, n - w), math.comb(n + m, n))


def sigma2_hdmss(rho: float, c: MomentConstants, spec: KernelSpec) -> float:
    """Limiting variance of sqrt(nmp) times the randomized statistic when
    both sample sizes grow with n/m -> rho."""
    _check_constants(c, spec)
    _check_type(float, rho=rho)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be finite and positive")
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
    _check_constants(c, spec)
    _check_type(float, a=a)
    _check_type(int, n=n, m=m)
    out = 0.0
    for w in range(min(n, m) + 1):
        pw = float(hypergeom_pmf(n, m, w))
        s2 = sigma2_nw(n, m, w, c, spec)
        if s2 == 0.0:
            out += pw * (1.0 if a >= 0 else 0.0)
        else:
            out += pw * 0.5 * math.erfc(-a / math.sqrt(2.0 * s2))
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
        _check_fields(self)
        if self.n < 2 or self.m < 2:
            raise ValueError("need n, m >= 2")
        _check_nonnegative(self, "variances", "v_xy", "v_x", "v_y")


#: most entries of one block of coefficients (pairs x relabellings) in
#: :func:`power_limit_mc`, and of one batch's standard normals (draws x
#: pairs) and of one chunk's statistics (draws x relabellings) when each
#: batch builds the coefficients, or when the coefficients are built once
#: and a batch holds :data:`_MIN_DRAWS` draws
_BLOCK_ENTRIES = 2**20

#: most entries of one batch's normals and statistics when the coefficients
#: are built once, unless a block holds those of :data:`_MIN_DRAWS` draws
_BATCH_ENTRIES = 2**16

#: the fewest draws :func:`power_limit_mc` makes, and the fewest a batch
#: holds when a block holds their normals and each chunk's statistics
_MIN_DRAWS = 1000


def _pair_layout(gp: GaussianProcessSpec):
    """Each standard normal of a draw: the row and column of its pair and its
    standard deviation. The cross block comes first, then the upper triangles
    of the X and Y blocks, with no entries for a zero-variance block."""
    n, m, size = gp.n, gp.m, gp.n + gp.m
    # the pairs as runs of consecutive columns, one per row: each row of X
    # against all of Y, then each row of X, and of Y, against the later rows
    # of its own group
    run_rows = np.concatenate([np.arange(n), np.arange(size)])
    firsts = np.concatenate([np.full(n, n), run_rows[n:] + 1])
    lengths = np.repeat([size, n, size], [n, n, m]) - firsts
    rows = np.repeat(run_rows, lengths)
    # a pair's column is its index less its run's start, plus the run's first
    cols = np.arange(rows.size) + np.repeat(firsts - np.cumsum(lengths) + lengths, lengths)
    sd = np.repeat(np.sqrt([gp.v_xy, gp.v_x, gp.v_y]), [n * m, math.comb(n, 2), math.comb(m, 2)])
    keep = sd > 0
    return rows[keep], cols[keep], sd[keep]


def _distinct_relabellings(masks: np.ndarray):
    """The distinct relabellings among ``masks``, each as its first mask in
    order of first appearance (so the identity, row 0, leads), and how many
    masks give each. A mask and its complement (n = m) split the pairs into
    the same classes, so two masks are one relabelling when they share the
    representative with position 0 in group X."""
    # each representative packed into bytes, one key per row
    packed = np.packbits(masks ^ ~masks[:, :1], axis=1)
    _, first, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                 return_index=True, return_counts=True)
    order = np.argsort(first)
    return masks[first[order]], counts[order]


def _coefficients(masks: np.ndarray, layout, weights: np.ndarray) -> np.ndarray:
    """(pairs, masks) coefficients of the limit statistic: entry (k, s) is
    pair k's standard deviation times the pair weight of its class under
    mask s, from ``weights`` = (within Y, cross, within X)."""
    rows, cols, sd = layout
    # 0, 1 or 2 of the pair's two positions in group X
    in_x = masks[:, rows].view(np.uint8) + masks[:, cols].view(np.uint8)
    coefficients = np.take(weights, in_x)
    coefficients *= sd
    return coefficients.T


def _limit_batches(gp: GaussianProcessSpec, masks: np.ndarray, draws: int):
    """``draws`` draws of the limit statistic over the distinct relabellings
    among ``masks`` in batches: per batch, the shape of its standard normals
    (draws x pairs) and an iterator of (coefficients, multiplicities) chunks
    of consecutive relabellings, the identity first, whose statistics are
    ``normals @ coefficients``. A block of coefficients holds at most
    :data:`_BLOCK_ENTRIES` entries; the chunks are 64 relabellings wide at
    first and double up to a block's width, so that draws decided early
    leave the decision loop before the later chunks are multiplied, or
    built. When all the coefficients fit in one block, they are built once
    and a batch holds :data:`_MIN_DRAWS` draws if a block holds that many
    draws' normals and each chunk's statistics, else as many as keep its
    normals and statistics within :data:`_BATCH_ENTRIES`; otherwise each
    batch builds them chunk by chunk and holds up to :data:`_BLOCK_ENTRIES`.
    Every batch but the last holds an even number of draws, rounded down
    and at least 2, so that each antithetic pair of draws
    (:func:`_antithetic_normals`) lies in one batch: the pairs, and so the
    rejection count, never depend on the batch sizes, and only an odd last
    draw is unpaired.
    """
    distinct, counts = _distinct_relabellings(masks)
    layout = _pair_layout(gp)
    w_xy, w_x, w_y = pair_weights(gp.n, gp.m)
    weights = np.array([w_y, w_xy, w_x], dtype=float)
    pairs = max(1, layout[2].size)
    width = min(len(distinct), max(1, _BLOCK_ENTRIES // pairs))

    def coefficient_chunks():
        start, step = 0, min(64, width)
        while start < len(distinct):
            stop = start + step
            yield _coefficients(distinct[start:stop], layout, weights), counts[start:stop]
            start, step = stop, min(2 * step, width)

    built = list(coefficient_chunks()) if width == len(distinct) else None
    if built is None:
        # a batch that builds the coefficients anew is as large as a block, so
        # that each build serves as many draws as that memory allows
        size = _BLOCK_ENTRIES // max(pairs, width)
    else:
        size = _BATCH_ENTRIES // max(pairs, width)
        if _MIN_DRAWS * max(pairs, max(chunk[1].size for chunk in built)) <= _BLOCK_ENTRIES:
            # each pass of the decision loop costs the same few calls for any
            # number of draws, so a call of the fewest draws makes one batch
            size = max(size, _MIN_DRAWS)
    size = max(2, size - size % 2)
    for start in range(0, draws, size):
        yield (min(size, draws - start), layout[2].size), built or coefficient_chunks()


def _antithetic_normals(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A batch's standard normals (draws x pairs) in antithetic pairs: the
    first ceil(draws/2) rows drawn, and the rest their negations in the same
    order, filled in place; an odd batch's last drawn row has no negation."""
    normals = np.empty(shape)
    half = (shape[0] + 1) // 2
    rng.standard_normal(out=normals[:half])
    np.negative(normals[:shape[0] - half], out=normals[half:])
    return normals


def power_limit_mc(
    gp: GaussianProcessSpec,
    alpha: float,
    plan: PermutationPlan,
    draws: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the limiting rejection probability.

    A draw is one standard normal per pair of the cross, within-X and
    within-Y blocks, scaled by its block's standard deviation (a
    zero-variance block draws none). Draws come in antithetic pairs: draw
    2j is a standard normal vector z_j and draw 2j+1 is -z_j, which is as
    likely; an odd last draw is z_j alone. Under a relabelling the limit
    statistic is linear in these values: pair k contributes its value times
    the exact :func:`~hdtest.statistic.pair_weights` entry of its class
    (cross, within X, within Y) under the relabelling. A draw rejects by the
    test's count: when at most floor(alpha S) of the S values over the
    identity and the plan's permutations reach the identity's.

    Masks that split the pairs alike, a repeated mask and, for n = m, a
    mask and its complement, are one relabelling: it is evaluated once and
    counted as often as it occurs, so they tie bit for bit and n = m exact
    plans evaluate half their masks. Draws come in batches, and each batch
    is one GEMM of its normals with each chunk of coefficients; the chunks
    start narrow and double up to a block, and a block of coefficients, a
    batch's normals and a block's statistics each hold at most a fixed
    number of entries (:data:`_BLOCK_ENTRIES`, :data:`_BATCH_ENTRIES`).
    Coefficients built once serve batches of at least the
    :data:`_MIN_DRAWS` draws a call makes whenever a block holds those
    draws' normals and each chunk's statistics. The
    studies' sequential rule takes the count chunk by chunk, so a draw
    leaves its batch once its decision is fixed, most after the first
    chunks, and no chunk is built once none is left. Each statistic is a dot
    product of the draw's normals with its coefficients, accurate to its
    length's rounding bound in any summation order.

    The estimate is the share of draws that reject. A pair's statistics are
    negations, so its two counts of values reaching the observed one sum to
    at least S + 1: for alpha <= 1/2 (k <= S/2) the two draws never both
    reject, so the estimate is at most ceil(draws/2) / draws, and the
    limiting power at most 1/2. The standard error is
    sqrt((rate (1 - rate) + both / pairs) / draws), with ``both`` the pairs
    whose two draws reject. For alpha <= 1/2 ``both`` is 0 and this is the
    independent-draws formula, which bounds the pairs' true standard error
    sqrt(p (1 - 2p) / draws); for alpha > 1/2 the added share of pairs that
    reject twice keeps it a bound.
    Returns (estimate, standard error).
    """
    _check_type(GaussianProcessSpec, gp=gp)
    _check_type(PermutationPlan, plan=plan)
    _check_type(int, draws=draws, seed=seed)
    if draws < _MIN_DRAWS:
        raise ValueError(f"need at least {_MIN_DRAWS} draws")
    if draws > sys.maxsize:
        raise ValueError(f"draws must be at most {sys.maxsize}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_alpha(alpha)
    masks = plan_masks(plan, gp.n, gp.m)
    rng = np.random.default_rng(seed)
    rejections = both = 0
    for shape, blocks in _limit_batches(gp, masks, draws):
        # only the loop holds the normals, so narrowing them frees the rest
        rejects = _sequential_rejections(
            _antithetic_normals(rng, shape), blocks, lambda z, block: (z @ block[0], block[1]),
            alpha, len(masks))
        half = (shape[0] + 1) // 2
        rejections += int(np.count_nonzero(rejects))
        both += int(np.count_nonzero(rejects[:shape[0] - half] & rejects[half:]))
    rate = rejections / draws
    se = math.sqrt((rate * (1.0 - rate) + both / (draws // 2)) / draws)
    return rate, se
