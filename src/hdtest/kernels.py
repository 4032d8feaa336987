"""Dissimilarity metrics of the form k(x, y) = phi((1/p) * sum_u psi(x_u, y_u)).

Four families are supported:

========== ================ =========================
family     psi(a, b)        phi(t)
========== ================ =========================
l2         (a - b)^2        sqrt(t)
gaussian   (a - b)^2        -exp(-t / (2 gamma^2))
laplacian  (a - b)^2        -exp(-sqrt(t) / gamma)
l1         |a - b|          t
========== ================ =========================

The Gaussian and Laplacian kernels are stored pre-negated so that phi is
strictly increasing for every family and a larger statistic always means a
larger discrepancy.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import typing
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("l2", "l1", "gaussian", "laplacian")

#: families whose per-coordinate distance is the squared difference
_SQUARED_PSI = ("l2", "gaussian", "laplacian")


def _check_type(kind, **values) -> None:
    """Refuse, naming its field, each of ``values`` that is no ``kind``, an annotation:
    ``int`` or ``float`` (no bool, and a float's range), ``np.ndarray`` (any rectangular
    array-like of bools or real numbers), ``tuple[X, ...]`` (an iterable of X) or a class."""
    for name, value in values.items():
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        elif kind is float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if isinstance(value, numbers.Rational) and abs(value) > sys.float_info.max:
                raise TypeError(f"{name} must be a real number within the float range")
        elif kind is np.ndarray:
            try:
                dtype = np.asarray(value).dtype
            except ValueError:  # numpy's message for ragged rows names no field
                raise ValueError(f"{name} must be a rectangular array, got rows of "
                                 "unequal length") from None
            if dtype.kind not in "biuf":
                raise TypeError(f"{name} must be real, got {dtype} values")
        elif typing.get_origin(kind) is tuple:
            member = typing.get_args(kind)[0]
            bad = [value] if not isinstance(value, Iterable) else [
                v for v in value if not isinstance(v, member)]
            if bad:
                raise TypeError(f"{name} must hold {member.__name__} values, got {bad[0]!r}")
        elif not isinstance(value, kind):
            raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


@functools.cache  # once per class, so bounded by the package's dataclasses
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _check_fields(obj) -> None:
    """:func:`_check_type` on each field of the dataclass ``obj``."""
    for name, kind in _field_types(type(obj)).items():
        _check_type(kind, **{name: getattr(obj, name)})


@dataclass(frozen=True)
class KernelSpec:
    """Immutable choice of kernel family plus bandwidth.

    The bandwidth ``gamma`` is only used by the Gaussian and Laplacian
    families and defaults to 1. It must keep 2 gamma^2 a positive, finite,
    normal float: beyond that range ``phi`` overflows or maps every distance
    to one value.
    """

    family: str
    gamma: float = field(default=1.0)

    def __post_init__(self):
        _check_fields(self)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        if self.family in ("gaussian", "laplacian"):
            gamma = float(self.gamma)
            if not (gamma > 0 and sys.float_info.min <= 2.0 * gamma * gamma < math.inf):
                raise ValueError("bandwidth must be positive and finite, with 2 gamma^2 a "
                                 f"normal float, got {gamma}")

    @property
    def uses_squared_differences(self) -> bool:
        return self.family in _SQUARED_PSI

    @property
    def label(self) -> str:
        """Name in study results: the family, plus a non-default bandwidth."""
        if self.family in ("gaussian", "laplacian") and self.gamma != 1.0:
            return f"{self.family}(gamma={self.gamma:g})"
        return self.family


def phi(spec: KernelSpec, t):
    """Outer transform applied to the averaged distance; works elementwise."""
    _check_type(KernelSpec, spec=spec)
    t = np.asarray(t, dtype=float)
    if spec.family == "l2":
        out = np.sqrt(t)
    elif spec.family == "l1":
        out = t.copy()
    elif spec.family == "gaussian":
        out = -np.exp(-t / (2.0 * spec.gamma**2))
    else:  # laplacian
        out = -np.exp(-np.sqrt(t) / spec.gamma)
    if out.ndim == 0:
        return float(out)
    return out


def phi_prime(spec: KernelSpec, t: float) -> float:
    """First derivative of phi at t.

    For the l2 and laplacian families the derivative is singular at 0, so
    t must be strictly positive there.
    """
    _check_type(KernelSpec, spec=spec)
    if spec.family == "l2":
        if t <= 0:
            raise ValueError("phi' for l2 requires t > 0")
        return 1.0 / (2.0 * math.sqrt(t))
    if spec.family == "l1":
        return 1.0
    if spec.family == "gaussian":
        g2 = spec.gamma**2
        return math.exp(-t / (2.0 * g2)) / (2.0 * g2)
    # laplacian
    if t <= 0:
        raise ValueError("phi' for laplacian requires t > 0")
    rt = math.sqrt(t)
    return math.exp(-rt / spec.gamma) / (2.0 * spec.gamma * rt)
