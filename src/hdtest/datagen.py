"""Seeded generators for the four simulation designs of the study harness;
:func:`generate`, the one entry, dispatches on the design family.

Example 1 is the null design (both groups share an AR-correlated law).
Example 2 shifts the means and/or scales the standard deviations, V's
included, of Y's first floor(beta*p) coordinates. Example 3 swaps the
marginal distribution of a beta-fraction of coordinates while keeping means
and variances fixed. Example 4 builds binary vectors whose low-order margins
match but whose joint law differs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernels import _check_reals
from .statistic import LabeledSample, _check_integers

EXAMPLES = ("1", "2i", "2ii", "2iii", "3i", "3ii", "4i", "4ii")


@dataclass(frozen=True)
class ScenarioConfig:
    example: str
    p: int
    n: int
    m: int
    rho: float = 0.5
    beta: float = 0.0
    innovation: str = "normal"  # "normal" or "exponential"
    v_diag: str = "ones"  # "ones" or "uniform"
    v_seed: int = 0  # seed for the uniform(1,5) diagonal draw
    seed: int = 0

    def __post_init__(self):
        _check_integers(p=self.p, n=self.n, m=self.m, v_seed=self.v_seed, seed=self.seed)
        _check_reals(rho=self.rho, beta=self.beta)
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}")
        if self.p < 1:
            raise ValueError("dimension p must be at least 1")
        if self.n < 2 or self.m < 2:
            raise ValueError("need at least 2 observations per group")
        if not -1 < self.rho < 1:
            raise ValueError("rho must be in (-1, 1)")
        if not 0 <= self.beta <= 1:
            raise ValueError("beta must be in [0, 1]")
        if self.innovation not in ("normal", "exponential"):
            raise ValueError(f"unknown innovation {self.innovation!r}")
        if self.v_diag not in ("ones", "uniform"):
            raise ValueError(f"unknown v_diag {self.v_diag!r}")
        for name in ("v_seed", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def label(self) -> str:
        """The scenario's name in study results; a uniform V names its seed."""
        v = self.v_diag if self.v_diag == "ones" else f"{self.v_diag}(v_seed={self.v_seed})"
        return (f"ex{self.example}:p={self.p},n={self.n},m={self.m},beta={self.beta:g},"
                f"rho={self.rho:g},innov={self.innovation},v={v}")


def ar_correlation(p: int, rho: float) -> np.ndarray:
    """Correlation matrix with entries rho^|i-j|."""
    if not -1 < rho < 1:
        raise ValueError("rho must be in (-1, 1)")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


#: eigenvalues in (-_PSD_TOL, 0) are clamped to 0, lower ones raise
_PSD_TOL = 1e-8


def spd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root via eigendecomposition, see :data:`_PSD_TOL`."""
    mat = np.asarray(mat, dtype=float)
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    if vals.min() < -_PSD_TOL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _v_half_diag(cfg: ScenarioConfig) -> tuple:
    if cfg.v_diag == "ones":
        return (1.0,) * cfg.p
    rng = np.random.default_rng(cfg.v_seed)
    return tuple(rng.uniform(1.0, 5.0, size=cfg.p))


# square roots are the setup bottleneck at large p; keyed by what they
# depend on, not the replication seed, and bounded because each is p x p
@functools.lru_cache(maxsize=8)
def _base_sqrt(p: int, rho: float, v_half: tuple) -> np.ndarray:
    """(V^{1/2} R V^{1/2})^{1/2} with V^{1/2} = diag(v_half); read-only, as
    every caller shares it."""
    v = np.array(v_half)
    root = spd_sqrt(v[:, None] * ar_correlation(p, rho) * v[None, :])
    root.flags.writeable = False
    return root


def _innovations(rng: np.random.Generator, rows: int, p: int, kind: str) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal((rows, p))
    return rng.exponential(1.0, size=(rows, p)) - 1.0


def _example1(cfg: ScenarioConfig) -> LabeledSample:
    """Null design: both groups are A Z with A = (V^{1/2} R V^{1/2})^{1/2}."""
    rng = np.random.default_rng(cfg.seed)
    a = _base_sqrt(cfg.p, cfg.rho, _v_half_diag(cfg))
    z = _innovations(rng, cfg.n + cfg.m, cfg.p, cfg.innovation)
    return LabeledSample(z @ a, cfg.n, cfg.m)


#: (Y shift, Y standard-deviation scale) on the first floor(beta*p) coordinates
_EXAMPLE2 = {"2i": (0.125, 1.0), "2ii": (0.0, 1.05), "2iii": (0.1, 1.04)}


def _example2(cfg: ScenarioConfig) -> LabeledSample:
    """Mean-shift and/or scale alternatives on the first floor(beta*p)
    coordinates of group Y, whose root is X's with those entries of V^{1/2}
    scaled."""
    rng = np.random.default_rng(cfg.seed)
    k = int(np.floor(cfg.beta * cfg.p))
    shift, scale = _EXAMPLE2[cfg.example]
    v = _v_half_diag(cfg)
    a_x = _base_sqrt(cfg.p, cfg.rho, v)
    a_y = _base_sqrt(cfg.p, cfg.rho, tuple(s * scale for s in v[:k]) + v[k:])
    shifts = np.zeros(cfg.p)
    shifts[:k] = shift
    zx = _innovations(rng, cfg.n, cfg.p, cfg.innovation)
    zy = _innovations(rng, cfg.m, cfg.p, cfg.innovation)
    data = np.vstack([zx @ a_x, shifts + zy @ a_y])
    return LabeledSample(data, cfg.n, cfg.m)


def _example3(cfg: ScenarioConfig) -> LabeledSample:
    """Same marginal mean/variance, different marginal laws: the first
    floor(beta*p) coordinates of Y are Rademacher (3i) or
    Uniform(-sqrt(3), sqrt(3)) (3ii), everything else standard normal."""
    rng = np.random.default_rng(cfg.seed)
    k = int(np.floor(cfg.beta * cfg.p))
    x = rng.standard_normal((cfg.n, cfg.p))
    y = rng.standard_normal((cfg.m, cfg.p))
    if cfg.example == "3i":
        y[:, :k] = 2.0 * rng.integers(0, 2, size=(cfg.m, k)) - 1.0
    else:
        y[:, :k] = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(cfg.m, k))
    return LabeledSample(np.vstack([x, y]), cfg.n, cfg.m)


def _example4(cfg: ScenarioConfig) -> LabeledSample:
    """Fair-coin designs with matching low-order margins.

    4i: the first floor(beta*p/2) coordinate pairs of Y are (y', y') --
    every univariate margin is Bernoulli(0.5) but pairs are dependent.
    4ii: triples (y', y'', indicator(y' == y'')) -- pairwise independent
    fair coins with a three-way dependence. Leftover coordinates after the
    block structure are i.i.d. Bernoulli(0.5).
    """
    rng = np.random.default_rng(cfg.seed)
    x = rng.integers(0, 2, size=(cfg.n, cfg.p)).astype(float)
    y = rng.integers(0, 2, size=(cfg.m, cfg.p)).astype(float)
    width = 2 if cfg.example == "4i" else 3
    blocks = int(np.floor(cfg.beta * cfg.p / width))
    coins = [rng.integers(0, 2, size=(cfg.m, blocks)).astype(float) for _ in range(width - 1)]
    # 4i repeats its coin (the indicator of heads); 4ii appends whether they agree
    coins.append(coins[0] if width == 2 else (coins[0] == coins[1]).astype(float))
    for j, column in enumerate(coins):
        y[:, j : width * blocks : width] = column
    return LabeledSample(np.vstack([x, y]), cfg.n, cfg.m)


# keyed by design family; ScenarioConfig has validated the variant
_GENERATORS = {"1": _example1, "2": _example2, "3": _example3, "4": _example4}


def generate(cfg: ScenarioConfig) -> LabeledSample:
    """The scenario of ``cfg``, from the generator of its example's design
    family: the one way to draw a scenario."""
    return _GENERATORS[cfg.example[0]](cfg)
