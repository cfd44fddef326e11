"""Diagonal Gaussian mixtures: exact densities, responsibilities, scores, sampling.

All density bookkeeping runs in log-space with a log-sum-exp reduction, so
responsibilities stay accurate even when modes are separated by many standard
deviations. Mixtures are immutable after construction; every method is a pure
function and safe to call concurrently. Random sampling takes a caller-owned
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .spectra import PowerLaw

_LOG_2PI = float(np.log(2.0 * np.pi))
VAR_FLOOR = 1e-300
WEIGHT_TOL = 1e-12


class MixtureError(ValueError):
    """Raised for invalid mixture parameters or perturbations."""


def _frozen_array(x, dtype=float) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DiagGMM:
    """Mixture of diagonal Gaussians sharing one dimension.

    Stored as stacked arrays: ``weights (K,)``, ``means (K, d)``,
    ``variances (K, d)``.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = _frozen_array(np.atleast_1d(self.weights))
        m = _frozen_array(np.atleast_2d(self.means))
        v = _frozen_array(np.atleast_2d(self.variances))
        if w.ndim != 1 or w.size < 1:
            raise MixtureError("weights must be a non-empty vector")
        if m.shape != v.shape or m.shape[0] != w.size:
            raise MixtureError(
                f"shape mismatch: weights {w.shape}, means {m.shape}, variances {v.shape}"
            )
        if np.any(w <= 0):
            raise MixtureError("weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise MixtureError(f"weights sum to {float(w.sum())!r}, expected 1 within {WEIGHT_TOL:g}")
        bad = v < VAR_FLOOR
        if np.any(bad):
            i, j = map(int, np.argwhere(bad)[0])
            raise MixtureError(
                f"variance of component {i + 1} at coordinate {j + 1} is below {VAR_FLOOR:g}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    # -- evaluation ----------------------------------------------------

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise MixtureError(f"points must have dimension {self.dim}, got shape {arr.shape}")
        return arr, single

    def log_density(self, x):
        """Mixture log density via log-sum-exp; finite for all finite points."""
        X, single = self._as_batch(x)
        a = self._log_joints(X)
        amax = a.max(axis=0)
        out = amax + np.log(np.sum(np.exp(a - amax), axis=0))
        out -= 0.5 * self.dim * _LOG_2PI
        return float(out[0]) if single else out

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities, rows summing to 1."""
        X, single = self._as_batch(x)
        r = _normalize(self._log_joints(X)).T
        return r[0] if single else r

    def _log_joints(self, X) -> np.ndarray:
        """The (K, n) log joints at the rows of ``X``."""
        xt, c, work = _kernel_inputs(self.means, self.variances, np.log(self.weights), X)
        return _log_joint(xt, *c, work)

    def score(self, x) -> np.ndarray:
        """Gradient of the mixture log density."""
        X, single = self._as_batch(x)
        out = mixture_score(self.means, self.variances, np.log(self.weights), X)
        return out[0] if single else out

    def sample(self, n: int, rng: np.random.Generator, return_components: bool = False):
        """Draw ``n`` i.i.d. points; deterministic given the generator state.

        Draw order is fixed: one uniform per row for the component label,
        then an ``(n, d)`` block of standard normals.
        """
        if n < 1:
            raise MixtureError(f"sample size must be >= 1, got {n}")
        cum = np.cumsum(self.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(n), side="right")
        z = rng.standard_normal((n, self.dim))
        pts = self.means[idx] + np.sqrt(self.variances[idx]) * z
        if return_components:
            return pts, idx
        return pts


# -- the score kernel ---------------------------------------------------
#
# Every density, responsibility and score here comes from one quadratic form,
# evaluated as matrix products. With the reference point c = mean_i m_i,
# y = x - c and m'_i = m_i - c, the log joint of point n and component i is
#
#     a[i, n] = log w_i - 1/2 sum_j ((y_nj - m'_ij)^2 / v_ij + log v_ij)
#             = b_i + (m'_i / v_i) . y_n - 1/2 (1 / v_i) . (y_n * y_n),
#     b_i     = log w_i - 1/2 (sum_j m'_ij^2 / v_ij + sum_j log v_ij),
#
# so the (K, n) log joints are one (K, 2d) @ (2d, n) product, and the score
# -sum_i r_i (y - m'_i) / v_i = (m'/v)^T r - y * ((1/v)^T r) is one more.
# Measuring from c keeps y^2 - 2 y m' + m'^2 from cancelling when the modes
# sit far from the origin. The per-step part works on transposed arrays,
# one column per point, so its elementwise operations and the softmax over
# components run on contiguous rows. The constants depend on the variances
# only: the engine builds them for many smoothing levels at once
# (``level_constants``) and runs ``score_step`` on preallocated arrays
# (``ScoreWork``).


class LevelConstants(NamedTuple):
    """The kernel's constants at one or more smoothing levels.

    ``center`` (d, 1) is the mean of the component means; with
    ``m' = m - center``, ``coef`` (..., K, 2d) is ``[m'/v | 1/v]`` and
    ``offset`` (..., K, 1) is ``log w - (sum_j m'^2/v + sum_j log v) / 2``.
    """

    center: np.ndarray
    coef: np.ndarray
    offset: np.ndarray


def level_constants(means, variances, log_weights) -> LevelConstants:
    """Kernel constants for ``variances`` of shape ``(..., K, d)``, one set per leading index.

    Every operation is elementwise or a reduction over the last axis, so one
    level's constants have the same bits whether built alone or in a stack.
    """
    center = means.mean(axis=0)
    mc = means - center
    inv = 1.0 / variances
    mv = mc * inv
    coef = np.concatenate((mv, inv), axis=-1)
    offset = log_weights - 0.5 * (np.sum(mc * mv, axis=-1) + np.sum(np.log(variances), axis=-1))
    return LevelConstants(center[:, None], coef, offset[..., None])


class ScoreWork:
    """Scratch arrays of the per-step kernel for ``n`` points, ``d`` coordinates, ``k`` components."""

    def __init__(self, n: int, d: int, k: int):
        self.y2 = np.empty((2 * d, n))  # [y; -y*y/2]
        self.a = np.empty((k, n))  # log joints, then responsibilities
        self.row = np.empty(n)
        self.g = np.empty((2 * d, n))  # [(m'/v)^T r; (1/v)^T r]
        self.s = np.empty((d, n))


def _log_joint(xt, center, coef, offset, work: ScoreWork) -> np.ndarray:
    """Log joints ``log w_i + log N(x_n; m_i, diag v_i) + (d/2) log(2 pi)``, (K, n), into ``work.a``.

    ``xt`` is (d, n), one column per point.
    """
    d = xt.shape[0]
    y = np.subtract(xt, center, out=work.y2[:d])
    q = np.multiply(y, y, out=work.y2[d:])
    q *= -0.5
    a = np.matmul(coef, work.y2, out=work.a)
    a += offset
    return a


def _normalize(a: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """Responsibilities from (K, n) log joints: a softmax over each column, overwriting ``a``."""
    a -= np.max(a, axis=0, out=row)
    np.exp(a, out=a)
    a /= np.sum(a, axis=0, out=row)
    return a


def score_step(xt, center, coef, offset, work: ScoreWork) -> np.ndarray:
    """The kernel's per-step part: the score (d, n) at the columns of ``xt``, in ``work.s``.

    ``center``, ``coef`` and ``offset`` are one level's constants. A point
    that is not finite gets a score that is not finite; other points are
    unaffected.
    """
    d = xt.shape[0]
    r = _normalize(_log_joint(xt, center, coef, offset, work), work.row)
    g = np.matmul(coef.T, r, out=work.g)
    yv = np.multiply(work.y2[:d], g[d:], out=g[d:])
    return np.subtract(g[:d], yv, out=work.s)


def _kernel_inputs(means, variances, log_weights, x):
    """The transposed points, one level's constants and scratch arrays for ``x`` (n, d)."""
    xt = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    c = level_constants(means, variances, log_weights)
    return xt, c, ScoreWork(xt.shape[1], xt.shape[0], c.coef.shape[0])


def mixture_score(means, variances, log_weights, x) -> np.ndarray:
    """Score of a diagonal mixture at the rows of ``x``: ``-sum_i r_i (x - m_i) / v_i``.

    The one score kernel: ``DiagGMM.score`` and the engine's step loop both
    run ``score_step`` on the same constants, so a chain step and the
    mixture's score agree bit for bit.
    """
    xt, c, work = _kernel_inputs(means, variances, log_weights, x)
    return score_step(xt, *c, work).T


# -- construction -------------------------------------------------------


def mean_rule_to_vector(rule, d: int) -> np.ndarray:
    """Expand a mean rule to a length-``d`` vector.

    Accepts a scalar (constant mean), a dict ``{coordinate: value}`` with
    1-indexed coordinates (sparse rule), or an explicit vector of length
    at least ``d``.
    """
    if isinstance(rule, dict):
        out = np.zeros(d)
        for j, val in rule.items():
            j = int(j)
            if j < 1:
                raise MixtureError(f"mean rule coordinate must be >= 1, got {j}")
            if j <= d:
                out[j - 1] = float(val)
        return out
    if np.isscalar(rule):
        return np.full(d, float(rule))
    arr = np.asarray(rule, dtype=float)
    if arr.ndim != 1 or arr.size < d:
        raise MixtureError(f"explicit mean vector of length {arr.size} too short for d={d}")
    return arr[:d].copy()


def build_truncated_mixture(
    weights,
    mean_rules: Sequence,
    var_specs: Sequence[PowerLaw],
    d: int,
    var_scales: Sequence[float] | None = None,
) -> DiagGMM:
    """Build the d-coordinate truncation of a diagonal Gaussian mixture.

    Each component i has mean ``mean_rules[i]`` expanded to length d and
    variances ``var_scales[i] * var_specs[i].eigenvalues(d)``. Truncation is
    consistent: the first coordinates of a deeper truncation match exactly.
    """
    if d < 1:
        raise MixtureError(f"dimension must be >= 1, got {d}")
    w = np.asarray(weights, dtype=float)
    k = w.size
    if not (len(mean_rules) == len(var_specs) == k):
        raise MixtureError(
            f"got {k} weights, {len(mean_rules)} mean rules, {len(var_specs)} variance spectra"
        )
    scales = np.ones(k) if var_scales is None else np.asarray(var_scales, dtype=float)
    means = np.stack([mean_rule_to_vector(rule, d) for rule in mean_rules])
    variances = np.empty((k, d))
    for i, spec in enumerate(var_specs):
        v = scales[i] * spec.eigenvalues(d)
        if np.any(v < VAR_FLOOR):
            j = int(np.argmax(v < VAR_FLOOR))
            raise MixtureError(
                f"variance eigenvalue of component {i + 1} at coordinate {j + 1} "
                f"is below {VAR_FLOOR:g}"
            )
        variances[i] = v
    if not np.all(np.isfinite(means)):
        raise MixtureError("mean rule produced non-finite values")
    return DiagGMM(weights=w, means=means, variances=variances)


def smooth(gmm: DiagGMM, c_spec: PowerLaw, level: float) -> DiagGMM:
    """Convolve with ``N(0, level * C)``: adds ``level * lambda_j`` to every variance."""
    if level < 0:
        raise MixtureError(f"smoothing level must be >= 0, got {level}")
    if level == 0:
        return gmm
    lam = c_spec.eigenvalues(gmm.dim)
    return DiagGMM(
        weights=gmm.weights,
        means=gmm.means,
        variances=gmm.variances + level * lam[None, :],
    )


# -- perturbations ------------------------------------------------------


@dataclass(frozen=True)
class MixturePerturbation:
    """Additive perturbation (dweights, dmeans, dvars) of a mixture.

    ``dmeans`` and ``dvars`` hold one signed :class:`PowerLaw` per
    component; an empty tuple means no perturbation of that kind.
    """

    dweights: tuple = field(default_factory=tuple)
    dmeans: tuple = field(default_factory=tuple)
    dvars: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "dweights", tuple(float(v) for v in self.dweights))
        object.__setattr__(self, "dmeans", tuple(self.dmeans))
        object.__setattr__(self, "dvars", tuple(self.dvars))

    def mean_shifts(self, k: int, d: int) -> np.ndarray:
        return _shifts(self.dmeans, "mean", k, d)

    def var_shifts(self, k: int, d: int) -> np.ndarray:
        return _shifts(self.dvars, "variance", k, d)

    def weight_shifts(self, k: int) -> np.ndarray:
        if self.dweights and len(self.dweights) != k:
            raise MixtureError(f"perturbation has {len(self.dweights)} weight entries for {k} components")
        return np.asarray(self.dweights, dtype=float) if self.dweights else np.zeros(k)


def _shifts(entries: tuple, what: str, k: int, d: int) -> np.ndarray:
    """The ``(k, d)`` shifts of one kind: a row per component, zeros for ``()``."""
    if not entries:
        return np.zeros((k, d))
    if len(entries) != k:
        raise MixtureError(f"perturbation has {len(entries)} {what} entries for {k} components")
    return np.stack([e.eigenvalues(d) for e in entries])


def apply_perturbation(gmm: DiagGMM, pert: MixturePerturbation) -> DiagGMM:
    """Return the misspecified mixture (w + dw, m + dm, v + dv)."""
    k, d = gmm.n_components, gmm.dim
    dw = pert.weight_shifts(k)
    w = gmm.weights + dw
    if np.any(w <= 0):
        i = int(np.argmax(w <= 0))
        raise MixtureError(f"perturbed weight of component {i + 1} is not positive ({w[i]!r})")
    if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
        raise MixtureError(f"perturbed weights sum to {float(w.sum())!r}, expected 1")
    v = gmm.variances + pert.var_shifts(k, d)
    bad = v < VAR_FLOOR
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise MixtureError(
            f"perturbed variance of component {i + 1} at coordinate {j + 1} is not positive"
        )
    return DiagGMM(weights=w, means=gmm.means + pert.mean_shifts(k, d), variances=v)
