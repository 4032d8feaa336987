"""Empirical discrepancy measures and moment-constant estimators.

These quantify, from one data pair, the marginal mean/variance gaps, the
per-coordinate energy-distance sum, and the covariance-structure gap that
determine which power regime the permutation test falls into. The regime
hint is advisory: the defining conditions are asymptotic rates that a
single dataset cannot certify.

A report runs each gap through the permutation test's own path: the masks
of :func:`permutation.plan_masks`, the engine's quadratic forms over the
double-centred squared distances, -2/p times the Gram matrix of the centred
rows (mean and variance gaps; its blocks give the covariance gap),
:func:`masked_statistics` over the cityblock ones (marginal energy-distance
sum) and the count of :func:`decide`. No array is p x p. :func:`diagnose`
builds each of the two matrices once for the report and the moment constants.

The constants' variances centre each pair leaving its own points out. That
is the package's U-centring (:func:`statistic._u_centred`) times (k-1)/(k-3)
within a group of size k, and the double centring times nm/((n-1)(m-1))
across the groups, both exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import MomentConstants
from .kernels import KernelSpec, _check_type
from .permutation import PermutationPlan, decide, plan_masks
from .statistic import (LabeledSample, _quadratic_forms, _u_centred, masked_statistics,
                         psibar_matrix)

#: relabellings behind a report's regime hint
_NULL_REPS = 50


@dataclass(frozen=True)
class DiscrepancyReport:
    mean_gap: float
    var_gap: float
    marginal_ed_sum: float
    cov_gap: float
    regime_hint: str


def _double_centred(block: np.ndarray) -> np.ndarray:
    """``block`` less its row means and its column means, plus its grand mean."""
    return block - block.mean(axis=0) - block.mean(axis=1)[:, None] + block.mean()


def _cov_gap(sq: np.ndarray, n: int, m: int, p: int) -> float:
    """cov_gap from the averaged squared distances ``sq`` of the pooled rows.
    The double-centred blocks of ``sq`` are -2/p times those of the Gram
    matrix G of the group-centred rows, and ||Cx - Cy||^2 = ||G_xx||^2/(n-1)^2
    + ||G_yy||^2/(m-1)^2 - 2||G_xy||^2/((n-1)(m-1)); copied groups have
    bitwise equal blocks, so their gap is exactly 0."""
    xx, yy, xy = (np.sum(_double_centred(d) ** 2) for d in (sq[:n, :n], sq[n:, n:], sq[:n, n:]))
    gap = xx / (n - 1) ** 2 + yy / (m - 1) ** 2 - 2.0 * xy / ((n - 1) * (m - 1))
    return float(max(gap, 0.0) * p / 4.0)


def estimate_moment_constants(sample: LabeledSample, spec: KernelSpec):
    """Plug-in estimates of the limiting means and double-centered pair
    variances from one dataset.

    Means average the per-pair coordinate distances over distinct pairs;
    variances are mean squares of the centred, sqrt(p)-scaled pair
    contributions, with the pair's own indices left out of the
    conditional-mean plug-ins to reduce bias: (k-1)/(k-3) times the
    U-centred block within a group of size k, nm/((n-1)(m-1)) times the
    double-centred block across the groups.
    """
    _check_type(LabeledSample, sample=sample)
    _check_type(KernelSpec, spec=spec)
    if sample.n < 4 or sample.m < 4:
        raise ValueError("moment-constant estimation needs n, m >= 4")
    return _moment_constants(sample, psibar_matrix(sample.data, spec.uses_squared_differences))


def _moment_constants(sample: LabeledSample, pb: np.ndarray) -> MomentConstants:
    """The constants from ``pb``, the averaged distances of the kernel's kind."""
    n, m, p = sample.n, sample.m, sample.p
    pxx, pyy, pxy = pb[:n, :n], pb[n:, n:], pb[:n, n:]
    # the U-centred diagonal is 0, so the sum over i != j is twice that over pairs
    v_x, v_y = (p * ((k - 1) / (k - 3)) ** 2 * np.sum(_u_centred(block) ** 2) / (k * (k - 1))
                for block, k in ((pxx, n), (pyy, m)))
    v_xy = p * (n * m / ((n - 1) * (m - 1))) ** 2 * np.mean(_double_centred(pxy) ** 2)
    return MomentConstants(
        e_x=float(pxx.sum() / (n * (n - 1))), e_y=float(pyy.sum() / (m * (m - 1))),
        e_xy=float(pxy.mean()), v_x=float(v_x), v_y=float(v_y), v_xy=float(v_xy))


def discrepancy_report(
    sample: LabeledSample, null_reps: int = _NULL_REPS, seed: int = 0
) -> DiscrepancyReport:
    """All four discrepancy measures plus an advisory regime hint.

    The hint flags a gap by the test's own rule, :func:`decide` at alpha =
    0.05 over ``null_reps + 1`` groupings: at most floor(0.05 (null_reps + 1))
    of them, the observed one included, reach the observed gap, so below 19
    relabellings it flags nothing. It is a heuristic, not a test.
    """
    _check_type(LabeledSample, sample=sample)
    _check_type(int, null_reps=null_reps)
    if null_reps < 1:
        raise ValueError("null_reps must be >= 1")
    sq, l1 = psibar_matrix(sample.data, True), psibar_matrix(sample.data, False)
    return _report(sample, sq, l1, null_reps, seed)


def _report(sample, sq, l1, null_reps: int, seed: int) -> DiscrepancyReport:
    n, m = sample.n, sample.m
    masks = plan_masks(PermutationPlan(count=null_reps + 1, seed=seed), n, m)
    # D is -2/p times the Gram matrix of the pooled-centred rows, so for q = gᵀDg
    # ||x̄ - ȳ||²/p = -(1/n + 1/m)² q/2 and (tr Σ̂x - tr Σ̂y)/p = -(ℓ - q (1/(n(n-1))
    # - 1/(m(m-1))))/2, ℓ = Σ σᵢDᵢᵢ with σᵢ = 1/(n-1) on X and -1/(m-1) on Y; ℓ is
    # taken row by row, so for n = m a complement's ℓ is exactly its negation
    d = _double_centred(sq)
    q = _quadratic_forms(d, masks)
    ell = np.einsum("si,i->s", np.where(masks, 1.0 / (n - 1), -1.0 / (m - 1)), d.diagonal())
    stats = np.stack([
        np.maximum(-0.5 * (1 / n + 1 / m) ** 2 * q, 0.0),
        0.5 * np.abs(ell - q * (1 / (n * (n - 1)) - 1 / (m * (m - 1)))),
        # the l1 kernel's statistic: phi is the identity for l1, so the cached
        # cityblock matrix is already l1's kernel matrix
        masked_statistics(l1, n, m, masks),
    ])
    mean_signal, var_signal, marginal_signal = decide(stats, 0.05)[1]
    if mean_signal or var_signal:
        hint = "consistency-plausible (mean/variance gap above relabelling spread)"
    elif marginal_signal:
        hint = "l1-detectable (marginal distributions differ beyond mean/variance)"
    else:
        hint = "low-power-plausible (no marginal signal above relabelling spread)"
    mg, vg, med = map(float, stats[:, 0])
    return DiscrepancyReport(
        mean_gap=mg, var_gap=vg, marginal_ed_sum=med,
        cov_gap=_cov_gap(sq, n, m, sample.p), regime_hint=hint,
    )


def diagnose(sample: LabeledSample, spec: KernelSpec, seed: int = 0):
    """The report and ``spec``'s constants (None if n or m < 4) from one matrix per kind."""
    _check_type(LabeledSample, sample=sample)
    _check_type(KernelSpec, spec=spec)
    sq, l1 = psibar_matrix(sample.data, True), psibar_matrix(sample.data, False)
    constants = None
    if sample.n >= 4 and sample.m >= 4:
        constants = _moment_constants(sample, sq if spec.uses_squared_differences else l1)
    return _report(sample, sq, l1, _NULL_REPS, seed), constants
