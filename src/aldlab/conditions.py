"""Summability-condition diagnostics for power-law spectra.

Each series record is the running sum over coordinates of one budget term,
computed by the :mod:`aldlab.bounds` helper that the budget line calls: the
horizon constant's summand (``suff_kd`` at d is ``kd`` at d), the
initialization-KL summands at fraction 1 (``init_*``), the weight term's
mismatch factor and score second-moment summands (``w1_weights``,
``s1_score_moment``), the score fourth-moment summands (``m0_*``), and the
+-8 log ratio moments and tilted-moment mean parts (``mpm_*``). A record
keeps the worst component and power, and the worse of the fractions 0 and 1
where it reads both. Band records keep the running sup of ``|vt/v - 1|`` at
fraction 0. The ``init_*`` records describe an initial law that carries the
score perturbation, not a weights-only one.

Verdicts come from exponent algebra: a term that decays like ``j**(-e)``, up
to a log factor, has a finite sum iff ``e > 1``. A zero-scale sequence is
identically zero (decay ``inf``); a perturbation's scale may be negative. A
record whose partial sums are infinite (the +-8 moments outside the band)
diverges whatever its decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    _BAND,
    _GRID_ELEMS,
    BoundInputs,
    BoundsError,
    _band_deviation,
    _delta1_terms,
    _init_kl_terms,
    _kd_terms,
    _log_ratio_p_moment,
    _score_fourth_terms,
    _tilted_terms,
    _weight_factor,
)
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


def _slab_terms(inputs: BoundInputs) -> dict:
    """Each record's per-coordinate term over the coordinates of ``inputs``."""
    gam, dm = inputs.gammas, inputs.dmeans
    v, vt = inputs._annealed((0.0, 1.0))  # (2, K, n)
    mean, var = _init_kl_terms(inputs, v[1], vt[1])
    first, second = _score_fourth_terms(gam, vt[0])
    dev = _band_deviation(v[0], vt[0]).max(axis=0)
    tilted = [_tilted_terms(p, gam, v[0], vt[0], dm) for p in (8.0, -8.0)]
    log_moment = np.max([_log_ratio_p_moment(p, v[0], vt[0], dm) for p in (8.0, -8.0)], axis=(0, 1))
    return {
        "suff_kd": _kd_terms(inputs).sum(axis=0),
        "init_mean": mean.max(axis=0),
        "init_var": var.max(axis=0),
        "s1_score_moment": _delta1_terms(inputs, v, vt, 3.0).max(axis=0),
        "band_r2": dev,
        "band_m8": dev,
        "m0_first": first.max(axis=0),
        "m0_second": second.max(axis=0),
        "mpm_band_series": log_moment,
        "mpm_gamma_mean": np.max([t[1] for t in tilted], axis=(0, 1)),
        "mpm_gamma2_mean": np.max([t[3] for t in tilted], axis=(0, 1)),
        "mpm_gamma2_mean4": np.max([t[4] for t in tilted], axis=(0, 1)),
    }


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
    mean_offsets=(),
    d_probe=(100, 1000, 10000),
) -> ConditionReport:
    """Evaluate every summability condition for power-law spectra.

    ``smooth`` must be the *effective* smoothing spectrum (initial level times
    the base spectrum); ``sigma_scales`` are the per-component variance
    multipliers on the common ``j**(-sigma_exponent)`` shape. Component i's
    mean is ``mean_offsets[i]`` on coordinate 1 and zero elsewhere, as the
    target places it; empty puts every mean at the origin. All components
    carry the same ``dmean`` and ``dsigma``. The terms are evaluated in slabs
    of coordinates, which bounds the memory.
    """
    w = np.asarray(weights, dtype=float)
    taus = np.asarray(sigma_scales, dtype=float)
    if taus.shape != w.shape:
        raise ConditionError("need one sigma scale per weight")
    offsets = np.asarray(mean_offsets, dtype=float)
    if offsets.size and offsets.shape != w.shape:
        raise ConditionError("need one mean offset per weight")
    d_probe = tuple(int(d) for d in d_probe)
    if not d_probe or any(d < 1 for d in d_probe):
        raise ConditionError("d_probe must list positive dimensions")
    k, dmax = w.size, max(d_probe)
    means = np.zeros((k, dmax))
    if offsets.size:
        means[:, 0] = offsets
    try:
        full = BoundInputs(
            weights=w,
            weights_tilde=w if weights_tilde is None else weights_tilde,
            sigma=taus[:, None] * PowerLaw(1.0, sigma_exponent).eigenvalues(dmax),
            dsigma=np.broadcast_to(dsigma.eigenvalues(dmax), (k, dmax)),
            dmeans=np.broadcast_to(dmean.eigenvalues(dmax), (k, dmax)),
            lambdas=smooth.eigenvalues(dmax),
            gammas=gamma.eigenvalues(dmax),
            means=means,
        )
    except BoundsError as err:
        raise ConditionError(str(err)) from err

    # running sums (sups for the bands) of every term, read at the probe dimensions
    carry, partials = {}, {}
    step = max(1, _GRID_ELEMS // (2 * k * k))  # caps the weight term's (2, K, K, n) block
    for lo in range(0, dmax, step):
        cols = slice(lo, lo + step)
        rows = {name: getattr(full, name)[:, cols] for name in ("sigma", "dsigma", "dmeans", "means")}
        slab = replace(full, lambdas=full.lambdas[cols], gammas=full.gammas[cols], **rows)
        for name, terms in _slab_terms(slab).items():
            op = np.maximum if name.startswith("band_") else np.add
            running = op.accumulate(np.concatenate(([carry.get(name, 0.0)], terms)))
            carry[name] = running[-1]
            at = partials.setdefault(name, {})
            at.update((d, float(running[d - lo])) for d in d_probe if lo < d <= lo + step)

    a_mix, a_sm, a_pre = sigma_exponent, smooth.decay, gamma.decay
    a_dm, a_dsig = dmean.decay, dsigma.decay
    # decay of the annealed variances: v = sigma at fraction 0, v~ adds dsigma, fraction 1 adds lambda
    a_vt0 = min(a_mix, a_dsig)
    a_v1 = min(a_mix, a_sm)
    a_vt1 = min(a_vt0, a_sm)
    w2 = float(max(np.max(full.weights / full.weights_tilde), np.max(full.weights_tilde / full.weights)))
    for name, value in (("w1_weights", _weight_factor(full, 3.0)), ("w2_weight_ratio", w2)):
        partials[name] = dict.fromkeys(d_probe, value)
    margins = {  # decay exponents of the series; the remaining slack of the bands
        # log1p(lambda/sigma) decays like lambda/sigma, or grows like log j when a_sm < a_mix
        "suff_kd": a_sm - a_pre + max(0.0, a_sm - a_mix),
        "init_mean": 2 * a_dm - a_vt1,
        "init_var": 2 * max(0.0, a_dsig - a_v1),
        "w1_weights": math.inf,
        "w2_weight_ratio": math.inf,
        "s1_score_moment": a_pre + min(min(a_mix, 2 * a_dm) - 2 * a_vt0, min(a_v1, 2 * a_dm) - 2 * a_vt1),
        "band_r2": 0.5 - carry["band_r2"],  # the density-ratio second moment needs every vt/v > 1/2
        "band_m8": _BAND - carry["band_m8"],
        "m0_first": a_pre - a_vt0,
        "m0_second": 2 * (a_pre - a_vt0),
        "mpm_band_series": min(2 * (a_dsig - a_mix), 2 * a_dm - a_mix),
        "mpm_gamma_mean": a_pre + 2 * a_dm - 2 * a_vt0,
        "mpm_gamma2_mean": 2 * a_pre + 2 * a_dm - 3 * a_vt0,
        "mpm_gamma2_mean4": 2 * a_pre + 4 * a_dm - 4 * a_vt0,
    }
    records = []
    for name, margin in margins.items():
        sums = tuple((d, partials[name][d]) for d in d_probe)
        floor = 0.0 if name.startswith("band_") else 1.0
        converges = margin > floor and all(math.isfinite(val) for _, val in sums)
        records.append(ConditionRecord(name, sums, "converges" if converges else "diverges", float(margin)))
    return ConditionReport(records=tuple(records))
