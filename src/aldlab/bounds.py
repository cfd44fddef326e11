"""Closed-form error bounds, moment formulas and summability conditions for perturbed diagonal mixtures.

Everything here is an exact formula evaluation: the horizon constant and its
induced time horizon, the initialization KL bound, the component-score and
responsibility bounds on the score-error energy, and the likelihood-ratio /
tilted-Gaussian moments they are built from. Diverging quantities come back
as ``float('inf')`` (an in-band result, not an error, a NaN or a warning), so
reports can tabulate divergence. Products with many factors accumulate in log
space.

The bounds are functions of the annealing fraction ``kappa``, which is an
argument, not a field of ``BoundInputs``. They are evaluated by one grid
kernel: each moment helper takes annealed variances of shape ``(G, K, d)``
(G fractions, K components, d coordinates), works elementwise and reduces
over d and K, so a whole grid of fractions is a few array operations.
``error_budget`` runs the kernel over its trapezoid grid in blocks of at most
``_GRID_ELEMS // (K * K * d)`` fractions, which caps the size of the
temporaries. The single-fraction entry points ``bcomp_bound(inputs, kappa)``
and ``bresp_upper(inputs, kappa)`` are the same helpers at G = 1; the
initialization bound ``init_kl_bound`` sits at fraction 1.

The last section holds the summability conditions, which sum the same
per-coordinate terms. Each series record is the running sum over
coordinates of one term: the horizon constant's summand (``suff_kd`` at d is
``kd`` at d), the initialization-KL summands at fraction 1 (``init_*``), the
weight term's mismatch factor and score second-moment summands
(``w1_weights``, ``s1_score_moment``), the score fourth-moment summands
(``m0_*``), and the +-8 log ratio moments and tilted-moment mean parts
(``mpm_*``). A record keeps the worst component and power, and the worse of
the fractions 0 and 1 where it reads both. Band records keep the running sup
of ``|vt/v - 1|`` at fraction 0. The ``init_*`` records describe an initial
law that carries the score perturbation, not a weights-only one. One
function, ``family_inputs``, turns the laws of a mixture and its score
perturbation into the ``BoundInputs`` that both read: the records sum its
per-coordinate terms, and the bounds report's budget at d reads its first d
coordinates. Verdicts come from exponent algebra: a term that decays like
``j**(-e)``, up to a log factor, has a finite sum iff ``e > 1``. A
zero-scale sequence is identically zero (decay ``inf``); a perturbation's
scale may be negative. A record whose partial sums are infinite (the +-8
moments outside the band) diverges whatever its decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mixture import WEIGHT_TOL, MixturePerturbation, build_truncated_mixture
from .spectra import PowerLaw

_BAND = 1.0 / 8.0  # the +-8 ratio moments are finite while every vt/v lies in (7/8, 9/8)
_GRID_ELEMS = 2**14  # cap on the elements of one block's (G, K, K, d) array in the grid kernel


class BoundsError(ValueError):
    """Raised for invalid bound inputs."""


@dataclass(frozen=True)
class BoundInputs:
    """Perturbed-mixture data along the annealing path.

    ``sigma`` holds the unperturbed per-component variance sequences,
    ``dsigma``/``dmeans`` the diagonal perturbations, ``lambdas`` the
    *effective* smoothing eigenvalues (full initial smoothing, i.e. the
    schedule's ``theta_0`` times the base spectrum), and ``gammas`` the
    preconditioner eigenvalues. ``means`` carries the unperturbed component
    means; cross-component mean differences enter the weight-perturbation
    bound, so the gaps alone are not enough.
    """

    weights: np.ndarray
    weights_tilde: np.ndarray
    sigma: np.ndarray
    dsigma: np.ndarray
    dmeans: np.ndarray
    lambdas: np.ndarray
    gammas: np.ndarray
    means: np.ndarray | None = None

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        wt = np.atleast_1d(np.asarray(self.weights_tilde, dtype=float))
        sig = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        dsig = np.atleast_2d(np.asarray(self.dsigma, dtype=float))
        dm = np.atleast_2d(np.asarray(self.dmeans, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        gam = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        k, d = sig.shape
        if w.shape != (k,) or wt.shape != (k,):
            raise BoundsError(f"weights must have shape ({k},)")
        if dsig.shape != (k, d) or dm.shape != (k, d):
            raise BoundsError(f"dsigma and dmeans must have shape ({k}, {d})")
        if lam.shape != (d,) or gam.shape != (d,):
            raise BoundsError(f"lambdas and gammas must have shape ({d},)")
        for name, vec in (("weights", w), ("weights_tilde", wt)):
            if not np.all(vec > 0):
                raise BoundsError(f"{name} must be strictly positive")
            if abs(float(vec.sum()) - 1.0) > WEIGHT_TOL:
                raise BoundsError(f"{name} must sum to 1 within {WEIGHT_TOL:g}")
        if np.any(sig <= 0):
            raise BoundsError("sigma entries must be positive")
        if np.any(sig + dsig <= 0):
            i, j = map(int, np.argwhere(sig + dsig <= 0)[0])
            raise BoundsError(f"perturbed variance of component {i + 1}, coordinate {j + 1} is not positive")
        if np.any(lam <= 0) or np.any(gam <= 0):
            raise BoundsError("lambdas and gammas must be positive")
        m = np.zeros((k, d)) if self.means is None else np.atleast_2d(np.asarray(self.means, dtype=float))
        if m.shape != (k, d):
            raise BoundsError(f"means must have shape ({k}, {d})")
        for name, arr in (
            ("weights", w), ("weights_tilde", wt), ("sigma", sig), ("dsigma", dsig),
            ("dmeans", dm), ("lambdas", lam), ("gammas", gam), ("means", m),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.sigma.shape[0]

    @property
    def dim(self) -> int:
        return self.sigma.shape[1]

    def columns(self, cols: slice) -> "BoundInputs":
        """These inputs on the coordinates ``cols`` alone; at ``slice(0, d)``, the truncation at d."""
        rows = {name: getattr(self, name)[:, cols] for name in ("sigma", "dsigma", "dmeans", "means")}
        return replace(self, lambdas=self.lambdas[cols], gammas=self.gammas[cols], **rows)

    def _annealed(self, kappas) -> tuple[np.ndarray, np.ndarray]:
        """Annealed variances ``(v, v_tilde)`` at each fraction in ``kappas``, shape (G, K, d).

        ``v = sigma + kappa * lambda`` and ``v_tilde = sigma + dsigma + kappa * lambda``;
        the fractions are not range-checked here.
        """
        smooth = np.asarray(kappas, dtype=float)[:, None, None] * self.lambdas
        return self.sigma + smooth, self.sigma + self.dsigma + smooth

    def is_zero_perturbation(self) -> bool:
        return (
            np.array_equal(self.weights, self.weights_tilde)
            and not np.any(self.dsigma)
            and not np.any(self.dmeans)
        )


# -- horizon ---------------------------------------------------------------


def _kd_terms(inputs: BoundInputs) -> np.ndarray:
    """Summands of the horizon constant per component and coordinate, (K, d)."""
    lam = inputs.lambdas
    terms = (lam / inputs.gammas) * np.log1p(lam / inputs.sigma)
    return inputs.weights[:, None] * terms / 16.0


def kd_constant(inputs: BoundInputs) -> float:
    """Horizon constant: (1/16) sum_i w_i sum_j (lambda_j/gamma_j) log(1 + lambda_j/sigma_ij)."""
    return float(np.sum(_kd_terms(inputs)))


def horizon(kd: float, epsilon: float) -> float:
    """Time horizon guaranteeing annealing bias at most epsilon."""
    if not epsilon > 0:
        raise BoundsError(f"epsilon must be positive, got {epsilon}")
    return kd / epsilon


# -- initialization KL -----------------------------------------------------


def weight_kl(w, w_tilde) -> float:
    """Discrete KL divergence between two weight vectors."""
    w = np.asarray(w, dtype=float)
    wt = np.asarray(w_tilde, dtype=float)
    if w.shape != wt.shape:
        raise BoundsError("weight vectors must have equal length")
    if np.any(wt <= 0):
        raise BoundsError("perturbed weights must be strictly positive")
    return float(np.sum(w * np.log(w / wt)))


def _init_kl_terms(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance summands of twice the componentwise KL, elementwise in ``v``/``vt``."""
    dsig = inputs.dsigma
    return inputs.dmeans**2 / vt, np.log1p(dsig / v) - dsig / vt


def init_kl_bound(inputs: BoundInputs) -> float:
    """Upper bound on the initialization KL: weight term + weighted Gaussian terms.

    Component i's term is the KL between its law and its perturbed
    counterpart at fraction 1, the initialization level.
    """
    mean, var = _init_kl_terms(inputs, *inputs._annealed((1.0,)))
    total = weight_kl(inputs.weights, inputs.weights_tilde)
    for i in range(inputs.n_components):
        total += float(inputs.weights[i]) * (0.5 * float(np.sum(mean[0, i] + var[0, i])))
    return total


# -- grid kernel -------------------------------------------------------------
#
# Every helper below takes annealed variances ``v``/``vt`` of shape (G, K, d)
# from ``BoundInputs._annealed`` and returns one value per fraction (G,) or per
# fraction and component (G, K). Reductions run over the last, contiguous axis.


def _exp_or_inf(log_value):
    """Elementwise exp; an overflow is ``inf``, never a warning."""
    with np.errstate(over="ignore"):
        return np.exp(log_value)


def _bcomp(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray) -> np.ndarray:
    num = inputs.dmeans**2 + inputs.dsigma**2 / v
    terms = inputs.gammas * num / vt**2
    return 2.0 * (inputs.weights * terms.sum(axis=-1)).sum(axis=-1)


def _log_ratio_p_moment(p: float, v, vt, dm):
    """Elementwise log E[(phi/phi_tilde)^p] under phi_tilde; +inf where divergent."""
    kap = vt / v
    disc = p * kap - (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_m = 0.5 * p * np.log(kap) - 0.5 * np.log(disc) + p * (p - 1.0) * dm**2 / (2.0 * v * disc)
    return np.where(disc > 0, log_m, np.inf)


def _score_fourth_terms(gammas, vt) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate summands ``gamma/vt`` and ``(gamma/vt)^2`` of the score fourth moment."""
    scaled = gammas / vt
    return scaled, scaled**2


def _score_fourth(gammas, vt):
    """Fourth moment of the preconditioned Gaussian score, reduced over the last axis."""
    scaled, squared = _score_fourth_terms(gammas, vt)
    first = scaled.sum(axis=-1)
    return first * first + 2.0 * squared.sum(axis=-1)


def _band_deviation(v, vt):
    """Elementwise variance-ratio deviation ``|vt/v - 1|``; the +-8 moments need it below ``_BAND``."""
    return np.abs(vt / v - 1.0)


def _tilted_terms(p: float, gammas, v, vt, dm) -> tuple[np.ndarray, ...]:
    """Elementwise summands of the r^p-tilted score moments (``tilted_params``).

    The first moment's mean-free and mean parts ``lin0``, ``lin1``, then the
    second moment's parts ``3 lin0^2``, ``6 lin0 lin1`` and ``lin1^2``; all
    ``inf`` where the tilt is not normalizable.
    """
    kap = vt / v
    disc = p * kap - (p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lin0 = np.where(disc > 0, gammas / (disc * vt), np.inf)
        lin1 = np.where(disc > 0, gammas * (p * kap / disc) ** 2 * dm**2 / vt**2, np.inf)
        return lin0, lin1, 3.0 * lin0**2, 6.0 * lin0 * lin1, lin1**2


def _tilted_fourth(p: float, gammas, v, vt, dm) -> np.ndarray:
    """Tilted fourth-moment bound on the perturbed score, per fraction and component, (G, K).

    ``inf`` where the tilt is not normalizable at some coordinate.
    """
    lin0, lin1, *second = _tilted_terms(p, gammas, v, vt, dm)
    with np.errstate(over="ignore"):
        first = (lin0 + lin1).sum(axis=-1)
        return first * first + sum(second).sum(axis=-1)


def _weight_factor(inputs: BoundInputs, p: float) -> float:
    """Weight-mismatch factor ``sum_i (dw_i)^2 / wt_i^p`` of the weight term."""
    wt = inputs.weights_tilde
    return float(np.sum((wt - inputs.weights) ** 2 / wt**p))


def _delta1_terms(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray, p: float) -> np.ndarray:
    """Per-coordinate summands of the weight term's score second-moment factor, (G, d)."""
    w, wt = inputs.weights, inputs.weights_tilde
    means_tilde = inputs.means + inputs.dmeans
    # gap2[l, i, h] = (m_{lh} - mt_{ih})^2
    gap2 = (inputs.means[:, None, :] - means_tilde[None, :, :]) ** 2
    num = v[:, :, None, :] + gap2
    terms = inputs.gammas * num / vt[:, None, :, :] ** 2
    weighted = (w[:, None] * wt ** (p - 2.0))[:, :, None] * terms
    return weighted.sum(axis=(1, 2))


def _delta1(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray, p: float) -> np.ndarray:
    """Weight-perturbation part of the responsibility mismatch, per fraction, (G,).

    Product of the weight-mismatch factor and the preconditioner-weighted
    score second-moment factor, which involves the cross-component mean gaps.
    """
    factor = _weight_factor(inputs, p)
    return factor * _delta1_terms(inputs, v, vt, p).sum(axis=-1) if factor else np.zeros(len(v))


def _r2(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Second moment of the mixture density ratio under the perturbed law, per fraction, (G,).

    ``sum_k wt_k c_k^2 prod_j a_kj`` with per-coordinate second-moment factors
    ``a_kj``; the product is accumulated in log space and any divergent factor
    makes the value ``inf``.
    """
    log_prod = _log_ratio_p_moment(2.0, v, vt, inputs.dmeans).sum(axis=-1)
    c = inputs.weights / inputs.weights_tilde
    return (inputs.weights_tilde * c**2 * _exp_or_inf(log_prod)).sum(axis=-1)


def _bresp(inputs: BoundInputs, v: np.ndarray, vt: np.ndarray):
    """Envelope, weight term, density term and band flag of the responsibility bound, each (G,)."""
    band_ok = np.all(_band_deviation(v, vt) < _BAND, axis=(1, 2))
    b_w = _delta1(inputs, v, vt, 3.0)
    r2 = _r2(inputs, v, vt)
    gam = inputs.gammas
    dm = inputs.dmeans
    c = inputs.weights / inputs.weights_tilde
    with np.errstate(invalid="ignore", over="ignore"):
        part = _score_fourth(gam, vt)
        for p in (8.0, -8.0):
            moment = _exp_or_inf(_log_ratio_p_moment(p, v, vt, dm).sum(axis=-1))
            part = part + moment * _tilted_fourth(p, gam, v, vt, dm)
        main = (inputs.weights_tilde * c**4 * part).sum(axis=-1) * LOG_POINTWISE_CONSTANT
        main = np.where(np.isinf(r2) | ~band_ok, np.inf, main)
        b_phi = np.where(np.isinf(r2) | np.isinf(main), np.inf, np.sqrt(r2 * main))
    envelope = 6.0 * (b_w + b_phi)  # 3 (B_w + B_phi + B_mix) with B_mix = B_w + B_phi
    return envelope, b_w, b_phi, band_ok


def _resp_exact_zero(inputs: BoundInputs) -> bool:
    """Whether the responsibility mismatch is exactly 0.

    With one component every responsibility is 1 under both laws; a zero
    perturbation changes none.
    """
    return inputs.n_components == 1 or inputs.is_zero_perturbation()


def _budget_grid(inputs: BoundInputs, kappas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component bound, responsibility bound and its envelope at every fraction in ``kappas``.

    The fractions are evaluated in blocks whose largest temporary holds at
    most ``_GRID_ELEMS`` elements.
    """
    kappas = np.asarray(kappas, dtype=float)
    k, d = inputs.sigma.shape
    comp = np.empty(len(kappas))
    env = np.empty(len(kappas))
    step = max(1, _GRID_ELEMS // (k * k * d))
    for start in range(0, len(kappas), step):
        block = slice(start, start + step)
        v, vt = inputs._annealed(kappas[block])
        comp[block] = _bcomp(inputs, v, vt)
        env[block] = _bresp(inputs, v, vt)[0]
    resp = np.zeros(len(kappas)) if _resp_exact_zero(inputs) else env
    return comp, resp, env


# -- component-score bound -------------------------------------------------


def _at_fraction(inputs: BoundInputs, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """Annealed variances at the single fraction ``kappa``, each (1, K, d)."""
    if not 0.0 <= kappa <= 1.0:
        raise BoundsError(f"kappa must lie in [0, 1], got {kappa}")
    return inputs._annealed((kappa,))


def bcomp_bound(inputs: BoundInputs, kappa: float) -> float:
    """Bound on the component-score mismatch energy at the annealing fraction ``kappa``.

    With ``D_i = Gamma^{1/2} (S~_i - S_i)`` and responsibilities ``p_i``,
    Jensen gives ``E_rho ||sum_i p_i D_i||^2 <= sum_i E_rho p_i ||D_i||^2
    = sum_i w_i T_i``, where ``T_i = E_{phi_i} ||D_i||^2
    = sum_j gamma_j (dm_ij^2 + dsigma_ij^2 / v_ij) / vt_ij^2``;
    the bound is ``2 sum_i w_i T_i``.
    """
    return float(_bcomp(inputs, *_at_fraction(inputs, kappa))[0])


# -- likelihood-ratio moments ----------------------------------------------


def ratio_p_moment(p: float, v: float, vt: float, dm: float) -> float:
    """p-th moment of the one-dimensional Gaussian likelihood ratio.

    With ``kappa = vt / v`` this is
    ``kappa^{p/2} / sqrt(p*kappa - (p-1)) * exp(p(p-1) dm^2 / (2 v (p*kappa - (p-1))))``,
    finite iff ``p*kappa - (p-1) > 0``; returns ``inf`` otherwise.
    """
    if not (v > 0 and vt > 0):
        raise BoundsError("variances must be positive")
    v, vt, dm = np.asarray((v, vt, dm), dtype=float)
    return float(_exp_or_inf(_log_ratio_p_moment(p, v, vt, dm)))


def tilted_params(p: float, m: float, mt: float, v: float, vt: float) -> tuple[float, float]:
    """Mean and variance of the r^p-tilted Gaussian.

    The tilt of N(mt, vt) by the p-th power of the ratio against N(m, v) is
    Gaussian with variance ``vt / D`` and mean ``mt - (p*kappa/D) * (mt - m)``
    where ``D = p*kappa - (p-1)``; requires D > 0.
    """
    if not (v > 0 and vt > 0):
        raise BoundsError("variances must be positive")
    kap = vt / v
    disc = p * kap - (p - 1.0)
    if not disc > 0:
        raise BoundsError(f"tilt is not normalizable: p*kappa - (p-1) = {disc!r} <= 0")
    dm = mt - m
    return mt - (p * kap / disc) * dm, vt / disc


def score_fourth_moment(gammas, vts) -> float:
    """Exact fourth moment of the preconditioned diagonal-Gaussian score.

    Equals ``(sum_j gamma_j/vt_j)^2 + 2 sum_j gamma_j^2/vt_j^2`` for a
    Gaussian whose per-coordinate variances are ``vts``.
    """
    gam = np.asarray(gammas, dtype=float)
    vt = np.asarray(vts, dtype=float)
    if np.any(gam <= 0) or np.any(vt <= 0):
        raise BoundsError("inputs must be positive")
    return float(_score_fourth(gam, vt))


# -- responsibility bound ----------------------------------------------------


@dataclass(frozen=True)
class BrespBound:
    """Responsibility-mismatch bound with its pieces.

    ``value`` is the number to use: the envelope in general, exactly 0 when
    the mismatch is (the relaxed 48-constant envelope is not tight there, so
    the exact-zero shortcut is reported alongside it).
    """

    value: float
    envelope: float
    weight_term: float
    phi_term: float
    band_ok: bool
    exact_zero: bool


LOG_POINTWISE_CONSTANT = 48.0  # |log r|^4 (r^4 + r^-4) <= 48 (1 + r^8 + r^-8)


def bresp_upper(inputs: BoundInputs, kappa: float) -> BrespBound:
    """Bound on the responsibility-mismatch energy at the annealing fraction ``kappa``.

    Collects three pieces: the weight term, the component-density term (via
    the density-ratio second moment, the pointwise 48-constant envelope, and
    tilted fourth moments at powers +-8), and a mixed term fixed to their
    sum. Finite only when every variance ratio stays inside (7/8, 9/8).
    """
    envelope, b_w, b_phi, band_ok = (x.item() for x in _bresp(inputs, *_at_fraction(inputs, kappa)))
    exact_zero = _resp_exact_zero(inputs)
    return BrespBound(
        value=0.0 if exact_zero else envelope,
        envelope=envelope,
        weight_term=b_w,
        phi_term=b_phi,
        band_ok=band_ok,
        exact_zero=exact_zero,
    )


# -- budget ------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    """Per-line bookkeeping of the final-time KL upper bound."""

    e_init: float
    e_score_comp: float
    e_score_resp: float
    e_score_resp_envelope: float
    e_bias: float
    kd: float

    def total(self) -> float:
        return self.e_init + self.e_score_comp + self.e_score_resp + self.e_bias


def error_budget(
    inputs: BoundInputs,
    t_horizon: float,
    grid_size: int = 512,
    init_inputs: BoundInputs | None = None,
) -> ErrorBudget:
    """Evaluate every budget line over the annealing interval.

    Time integrals use a composite trapezoid rule on a uniform grid in the
    annealing fraction, mapped to time by ``t = T (1 - kappa)``. The
    initialization side may differ from the score side (e.g. a weight-only
    initialization mismatch next to a covariance-only score error); pass it
    via ``init_inputs``, which defaults to ``inputs``.
    """
    if not t_horizon > 0:
        raise BoundsError(f"t_horizon must be positive, got {t_horizon}")
    if grid_size < 2:
        raise BoundsError(f"grid_size must be >= 2, got {grid_size}")
    e_init = init_kl_bound(init_inputs if init_inputs is not None else inputs)

    kappas = np.linspace(0.0, 1.0, grid_size)
    comp_vals, resp_vals, resp_env = _budget_grid(inputs, kappas)
    # dt = T dkappa under the linear schedule
    e_comp = t_horizon * float(np.trapezoid(comp_vals, kappas))
    e_resp = t_horizon * float(np.trapezoid(resp_vals, kappas))
    e_resp_env = t_horizon * float(np.trapezoid(resp_env, kappas))
    kd = kd_constant(inputs)
    return ErrorBudget(
        e_init=e_init,
        e_score_comp=e_comp,
        e_score_resp=e_resp,
        e_score_resp_envelope=e_resp_env,
        e_bias=2.0 * kd / t_horizon,
        kd=kd,
    )


# -- summability conditions -------------------------------------------------


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


def family_inputs(
    weights,
    d: int,
    *,
    sigma_exponent: float,
    sigma_scales=None,
    smooth: PowerLaw,
    gamma: PowerLaw,
    dmean: PowerLaw = PowerLaw(0.0),
    dsigma: PowerLaw = PowerLaw(0.0),
    weights_tilde=None,
    mean_offsets=(),
) -> BoundInputs:
    """The bound inputs of the lab's mixture family on coordinates 1..d.

    The mixture is ``mixture.build_truncated_mixture``'s: component i has
    variances ``sigma_scales[i] * j**(-sigma_exponent)`` (scales default to
    1) and mean ``mean_offsets[i]`` on coordinate 1 (empty puts every mean
    at the origin). Its score model is a ``MixturePerturbation`` with
    ``dmean`` and ``dsigma``, which every component shares, and the weights
    ``weights_tilde`` (default: the mixture's). ``smooth`` must be the
    *effective* smoothing spectrum (initial level times the base spectrum).
    Every array is elementwise in j, so ``columns(slice(0, d))`` of a build
    at a larger dimension is the build at d, bit for bit. A malformed
    mixture raises ``MixtureError``, malformed bound inputs ``BoundsError``.
    """
    k = np.size(weights)
    offsets = mean_offsets if len(mean_offsets) else np.zeros(k)
    target = build_truncated_mixture(weights, offsets, PowerLaw(1.0, sigma_exponent), d, var_scales=sigma_scales)
    pert = MixturePerturbation(dmean=dmean, dvar=dsigma)
    return BoundInputs(
        weights=target.weights,
        weights_tilde=target.weights if weights_tilde is None else weights_tilde,
        sigma=target.variances,
        dsigma=pert.var_shifts(k, d),
        dmeans=pert.mean_shifts(k, d),
        lambdas=smooth.eigenvalues(d),
        gammas=gamma.eigenvalues(d),
        means=target.means,
    )


def condition_report(
    weights,
    *,
    sigma_exponent: float,
    sigma_scales=None,
    smooth: PowerLaw,
    gamma: PowerLaw,
    dmean: PowerLaw = PowerLaw(0.0),
    dsigma: PowerLaw = PowerLaw(0.0),
    weights_tilde=None,
    mean_offsets=(),
    d_probe=(100, 1000, 10000),
) -> ConditionReport:
    """Evaluate every summability condition for power-law spectra.

    The laws are ``family_inputs``'s, built once at the largest probe
    dimension. The terms are evaluated in slabs of coordinates, which bounds
    the memory.
    """
    d_probe = tuple(int(d) for d in d_probe)
    if not d_probe or any(d < 1 for d in d_probe):
        raise BoundsError("d_probe must list positive dimensions")
    k, dmax = np.size(weights), max(d_probe)
    full = family_inputs(
        weights, dmax, sigma_exponent=sigma_exponent, sigma_scales=sigma_scales, smooth=smooth, gamma=gamma,
        dmean=dmean, dsigma=dsigma, weights_tilde=weights_tilde, mean_offsets=mean_offsets,
    )

    # running sums (sups for the bands) of every term, read at the probe dimensions
    carry, partials = {}, {}
    step = max(1, _GRID_ELEMS // (2 * k * k))  # caps the weight term's (2, K, K, n) block
    for lo in range(0, dmax, step):
        for name, terms in _slab_terms(full.columns(slice(lo, lo + step))).items():
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
