"""Summability-condition diagnostics for power-law spectra.

Each record pairs concrete partial sums (evaluated at probe dimensions) with
a convergence verdict from exponent algebra: a series whose terms decay like
``j**(-e)`` converges iff ``e > 1``. Sequences given with zero scale are
identically zero and trivially convergent; a perturbation's scale may be
negative. Band-type records track the running sup of the variance-ratio
deviation instead of a series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import PowerLaw


class ConditionError(ValueError):
    """Raised for invalid condition-report inputs."""


@dataclass(frozen=True)
class ConditionRecord:
    """One condition: partial sums at probe dimensions plus the verdict.

    ``exponent_margin`` is the series decay exponent (convergent iff > 1);
    for band records it is the remaining band slack instead.
    """

    name: str
    partial_sums: tuple
    verdict: str
    exponent_margin: float

    def partial_sum(self, d: int) -> float:
        for dd, val in self.partial_sums:
            if dd == d:
                return val
        raise KeyError(f"no partial sum recorded at d={d}")


@dataclass(frozen=True)
class ConditionReport:
    records: tuple

    def __getitem__(self, name: str) -> ConditionRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def names(self) -> tuple:
        return tuple(rec.name for rec in self.records)


def _verdict(exponent: float) -> str:
    return "converges" if exponent > 1.0 else "diverges"


def _series_record(name: str, exponent: float, per_j: np.ndarray, d_probe) -> ConditionRecord:
    sums = np.cumsum(per_j)
    partials = tuple((int(d), float(sums[int(d) - 1])) for d in d_probe)
    return ConditionRecord(
        name=name, partial_sums=partials, verdict=_verdict(exponent), exponent_margin=exponent
    )


def _band_record(name: str, deviation: np.ndarray, half_width: float, d_probe) -> ConditionRecord:
    running = np.maximum.accumulate(deviation)
    partials = tuple((int(d), float(running[int(d) - 1])) for d in d_probe)
    worst = float(running[-1])
    verdict = "converges" if worst < half_width else "diverges"
    return ConditionRecord(
        name=name, partial_sums=partials, verdict=verdict, exponent_margin=half_width - worst
    )


def condition_report(
    weights,
    *,
    sigma_exponent: float,
    sigma_scales=(1.0,),
    smooth: PowerLaw,
    gamma: PowerLaw,
    dmean: PowerLaw = PowerLaw(0.0),
    dsigma: PowerLaw = PowerLaw(0.0),
    weights_tilde=None,
    mean_gap_sq: float = 0.0,
    d_probe=(100, 1000, 10000),
) -> ConditionReport:
    """Evaluate every summability condition for power-law spectra.

    ``smooth`` must be the *effective* smoothing spectrum (initial level times
    the base spectrum); ``sigma_scales`` are the per-component variance
    multipliers on the common ``j**(-sigma_exponent)`` shape. ``mean_gap_sq``
    is the squared cross-component mean separation at coordinate 1 (the only
    non-decaying mean structure supported). Perturbation conditions are
    evaluated at the annealing fractions 0 and 1 and the worse case is kept.
    """
    w = np.asarray(weights, dtype=float)
    wt = w if weights_tilde is None else np.asarray(weights_tilde, dtype=float)
    taus = np.asarray(sigma_scales, dtype=float)
    if taus.shape != w.shape:
        raise ConditionError("need one sigma scale per weight")
    d_probe = tuple(int(d) for d in d_probe)
    if not d_probe or any(d < 1 for d in d_probe):
        raise ConditionError("d_probe must list positive dimensions")
    dmax = max(d_probe)
    js = np.arange(1, dmax + 1, dtype=float)

    sig = taus[:, None] * js[None, :] ** (-sigma_exponent)  # (K, dmax)
    lam = smooth.eigenvalues(dmax)
    gam = gamma.eigenvalues(dmax)
    if np.any(gam <= 0) or np.any(lam <= 0):
        raise ConditionError("smoothing and preconditioner sequences must be positive")
    dm = dmean.eigenvalues(dmax)
    dsig = dsigma.eigenvalues(dmax)
    vt0 = sig + dsig[None, :]  # perturbed variances at fraction 0
    if np.any(vt0 <= 0):
        raise ConditionError("perturbed variances must be positive")
    a_mix = sigma_exponent
    a_sm = smooth.decay
    a_pre = gamma.decay
    a_dm = dmean.decay
    a_dsig = dsigma.decay
    # decay of sigma~ = sigma + dsigma, and of the annealed variances at fractions 0 / 1
    a_vt0 = min(a_mix, a_dsig)
    a_v0 = a_mix
    a_v1 = min(a_mix, a_sm)
    a_vt1 = min(a_mix, a_dsig, a_sm)

    records = []

    # sufficient condition for a dimension-uniform horizon: sum lambda^2/(gamma sigma)
    per_j = (w[:, None] * lam[None, :] ** 2 / (gam[None, :] * sig)).sum(axis=0)
    records.append(_series_record("suff_kd", 2 * a_sm - a_pre - a_mix, per_j, d_probe))

    vt1 = sig + dsig[None, :] + lam[None, :]  # fraction 1 (initialization level)
    v1 = sig + lam[None, :]
    # initialization-KL summability, sup over components
    per_j = (dm[None, :] ** 2 / vt1).max(axis=0)
    e = 2 * a_dm - a_vt1 if dmean.scale != 0 else math.inf
    records.append(_series_record("init_mean", e, per_j, d_probe))
    per_j = (dsig[None, :] ** 2 / (v1 * vt1)).max(axis=0)
    e = 2 * a_dsig - a_v1 - a_vt1 if dsigma.scale != 0 else math.inf
    records.append(_series_record("init_var", e, per_j, d_probe))

    # weight-mismatch factor and weight comparability (no j dependence)
    dw = wt - w
    w1_val = float(np.sum(dw**2 / wt**3))
    records.append(
        ConditionRecord(
            name="w1_weights",
            partial_sums=tuple((d, w1_val) for d in d_probe),
            verdict="converges",
            exponent_margin=math.inf,
        )
    )
    w2_val = float(max(np.max(w / wt), np.max(wt / w)))
    records.append(
        ConditionRecord(
            name="w2_weight_ratio",
            partial_sums=tuple((d, w2_val) for d in d_probe),
            verdict="converges" if math.isfinite(w2_val) else "diverges",
            exponent_margin=math.inf,
        )
    )

    # preconditioner-variance compatibility behind the weight term
    def s1_per_j(v_frac, vt_frac):
        gaps = np.zeros((w.size, w.size, dmax))
        gaps[:, :, :] = dm[None, None, :] ** 2
        if w.size > 1 and mean_gap_sq > 0:
            off = ~np.eye(w.size, dtype=bool)
            gaps[off, 0] += mean_gap_sq
        num = v_frac[:, None, :] + gaps
        terms = gam[None, None, :] * num / vt_frac[None, :, :] ** 2
        return np.einsum("l,i,lih->h", w, wt, terms)

    v0 = sig
    per_j = np.maximum(s1_per_j(v0, vt0), s1_per_j(v1, vt1))
    e0 = a_pre + min(a_mix, 2 * a_dm) - 2 * a_vt0
    e1 = a_pre + min(a_mix, a_sm, 2 * a_dm) - 2 * a_vt1
    records.append(_series_record("s1_score_moment", min(e0, e1), per_j, d_probe))

    # variance-ratio bands (worst fraction is 0, where the denominators are smallest)
    dev = np.max(np.abs(dsig[None, :] / v0), axis=0)
    records.append(_band_record("band_r2", dev, 0.5, d_probe))
    records.append(_band_record("band_m8", dev, 1.0 / 8.0, d_probe))

    # fourth-moment series of the preconditioned score
    per_j = (gam[None, :] / vt0).max(axis=0)
    records.append(_series_record("m0_first", a_pre - a_vt0, per_j, d_probe))
    per_j = (gam[None, :] ** 2 / vt0**2).max(axis=0)
    records.append(_series_record("m0_second", 2 * (a_pre - a_vt0), per_j, d_probe))

    # tilted-moment summability and the mean-mismatch series
    per_j = ((dsig[None, :] / v0) ** 2 + dm[None, :] ** 2 / v0).max(axis=0)
    parts = []
    if dsigma.scale != 0:
        parts.append(2 * (a_dsig - a_v0))
    if dmean.scale != 0:
        parts.append(2 * a_dm - a_v0)
    records.append(_series_record("mpm_band_series", min(parts) if parts else math.inf, per_j, d_probe))

    zero_mean = dmean.scale == 0.0
    per_j = (gam[None, :] * dm[None, :] ** 2 / vt0**2).max(axis=0)
    e = math.inf if zero_mean else a_pre + 2 * a_dm - 2 * a_vt0
    records.append(_series_record("mpm_gamma_mean", e, per_j, d_probe))
    per_j = (gam[None, :] ** 2 * dm[None, :] ** 2 / vt0**3).max(axis=0)
    e = math.inf if zero_mean else 2 * a_pre + 2 * a_dm - 3 * a_vt0
    records.append(_series_record("mpm_gamma2_mean", e, per_j, d_probe))
    per_j = (gam[None, :] ** 2 * dm[None, :] ** 4 / vt0**4).max(axis=0)
    e = math.inf if zero_mean else 2 * a_pre + 4 * a_dm - 4 * a_vt0
    records.append(_series_record("mpm_gamma2_mean4", e, per_j, d_probe))

    return ConditionReport(records=tuple(records))
