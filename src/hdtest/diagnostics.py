"""Empirical discrepancy measures and moment-constant estimators.

These quantify, from one data pair, the marginal mean/variance gaps, the
per-coordinate energy-distance sum, and the covariance-structure gap that
determine which power regime the permutation test falls into. The regime
hint is advisory: the defining conditions are asymptotic rates that a
single dataset cannot certify.

A report runs each gap through the permutation test's own path: the masks
of :func:`permutation.plan_masks`, :func:`statistic.masked_pair_sums` over
the squared distances (mean and variance gaps), :func:`masked_statistics`
over the cityblock ones (marginal energy-distance sum) and the count of
:func:`decide`. The double-centred blocks of the squared distances are Gram
blocks of the centred rows and give the covariance gap. No array is p x p.
:func:`diagnose` builds each of the two matrices once for the report and the
moment constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import MomentConstants
from .kernels import KernelSpec
from .permutation import PermutationPlan, decide, plan_masks
from .statistic import (LabeledSample, _check_integers, masked_pair_sums, masked_statistics,
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


def _cov_gap(sq: np.ndarray, n: int, m: int, p: int) -> float:
    """cov_gap from the averaged squared distances ``sq`` of the pooled rows.
    The double-centred blocks of ``sq`` are -2/p times those of the Gram
    matrix G of the group-centred rows, and ||Cx - Cy||^2 = ||G_xx||^2/(n-1)^2
    + ||G_yy||^2/(m-1)^2 - 2||G_xy||^2/((n-1)(m-1)); copied groups have
    bitwise equal blocks, so their gap is exactly 0."""
    xx, yy, xy = (
        np.sum((d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()) ** 2)
        for d in (sq[:n, :n], sq[n:, n:], sq[:n, n:])
    )
    gap = xx / (n - 1) ** 2 + yy / (m - 1) ** 2 - 2.0 * xy / ((n - 1) * (m - 1))
    return float(max(gap, 0.0) * p / 4.0)


def _within_centered_sq_mean(pb: np.ndarray, p: int) -> float:
    """Mean squared U-centered pair contribution within one group, with the
    conditional means estimated leaving the pair's own indices out."""
    k = pb.shape[0]
    rows = pb.sum(axis=1)  # diagonal of pb is 0
    tot = pb.sum()
    iu = np.triu_indices(k, 1)
    pij = pb[iu]
    ai = (rows[iu[0]] - pij) / (k - 2)
    aj = (rows[iu[1]] - pij) / (k - 2)
    grand = (tot - 2.0 * rows[iu[0]] - 2.0 * rows[iu[1]] + 2.0 * pij) / ((k - 2) * (k - 3))
    cent = pij - ai - aj + grand
    return float(p * np.mean(cent**2))


def _cross_centered_sq_mean(pxy: np.ndarray, p: int) -> float:
    n, m = pxy.shape
    rows = pxy.sum(axis=1, keepdims=True)
    cols = pxy.sum(axis=0, keepdims=True)
    tot = pxy.sum()
    ai = (rows - pxy) / (m - 1)
    bj = (cols - pxy) / (n - 1)
    grand = (tot - rows - cols + pxy) / ((n - 1) * (m - 1))
    cent = pxy - ai - bj + grand
    return float(p * np.mean(cent**2))


def estimate_moment_constants(sample: LabeledSample, spec: KernelSpec):
    """Plug-in estimates of the limiting means and double-centered pair
    variances from one dataset.

    Means average the per-pair coordinate distances over distinct pairs;
    variances are mean squares of the U-centered, sqrt(p)-scaled pair
    contributions, with the pair's own indices left out of the
    conditional-mean plug-ins to reduce bias.
    """
    if sample.n < 4 or sample.m < 4:
        raise ValueError("moment-constant estimation needs n, m >= 4")
    return _moment_constants(sample, psibar_matrix(sample.data, spec.uses_squared_differences))


def _moment_constants(sample: LabeledSample, pb: np.ndarray) -> MomentConstants:
    """The constants from ``pb``, the averaged distances of the kernel's kind."""
    n, m, p = sample.n, sample.m, sample.p
    pxx, pyy, pxy = pb[:n, :n], pb[n:, n:], pb[:n, n:]
    e_x = pxx.sum() / (n * (n - 1))
    e_y = pyy.sum() / (m * (m - 1))
    e_xy = pxy.mean()
    return MomentConstants(
        e_x=float(e_x),
        e_y=float(e_y),
        e_xy=float(e_xy),
        v_x=_within_centered_sq_mean(pxx, p),
        v_y=_within_centered_sq_mean(pyy, p),
        v_xy=_cross_centered_sq_mean(pxy, p),
    )


def discrepancy_report(
    sample: LabeledSample, null_reps: int = _NULL_REPS, seed: int = 0
) -> DiscrepancyReport:
    """All four discrepancy measures plus an advisory regime hint.

    The hint flags a gap by the test's own rule, :func:`decide` at alpha =
    0.05 over ``null_reps + 1`` groupings: at most floor(0.05 (null_reps + 1))
    of them, the observed one included, reach the observed gap, so below 19
    relabellings it flags nothing. It is a heuristic, not a test.
    """
    _check_integers(null_reps=null_reps)
    if null_reps < 1:
        raise ValueError("null_reps must be >= 1")
    sq, l1 = psibar_matrix(sample.data, True), psibar_matrix(sample.data, False)
    return _report(sample, sq, l1, null_reps, seed)


def _report(sample, sq, l1, null_reps: int, seed: int) -> DiscrepancyReport:
    n, m = sample.n, sample.m
    masks = plan_masks(PermutationPlan(count=null_reps + 1, seed=seed), n, m)
    # pair sums of ||x_i - x_j||^2 / p give each grouping's mean and variance gaps
    cross, wx, wy = masked_pair_sums(sq, n, m, masks)
    stats = np.stack([
        np.maximum(cross / (n * m) - wx / n**2 - wy / m**2, 0.0),
        np.abs(wx / (n * (n - 1)) - wy / (m * (m - 1))),
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
    sq, l1 = psibar_matrix(sample.data, True), psibar_matrix(sample.data, False)
    constants = None
    if sample.n >= 4 and sample.m >= 4:
        constants = _moment_constants(sample, sq if spec.uses_squared_differences else l1)
    return _report(sample, sq, l1, _NULL_REPS, seed), constants
