"""Diagonal Gaussian mixtures: exact densities, responsibilities, scores, sampling.

``DiagGMM`` holds any diagonal mixture. The lab builds one family of them
(``build_truncated_mixture``): components that share one power-law variance
shape, scaled per component, with their means offset on coordinate 1. Its
misspecified score model (``MixturePerturbation``) shifts the weights and
moves every component's means and variances by one shared power law per kind.

All density bookkeeping runs in log-space with a log-sum-exp reduction, so
responsibilities stay accurate even when modes are separated by many standard
deviations. Mixtures are immutable after construction; every method is a pure
function and safe to call concurrently. Random sampling takes a caller-owned
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def _first_entry(bad: np.ndarray) -> str:
    """The first True entry of a (K, d) mask, as 1-indexed component and coordinate."""
    i, j = map(int, np.argwhere(bad)[0])
    return f"component {i + 1} at coordinate {j + 1}"


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
        if not np.all(w > 0):
            i = int(np.argmin(w > 0))
            raise MixtureError(f"weight of component {i + 1} is not positive ({float(w[i])!r})")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise MixtureError(f"weights sum to {float(w.sum())!r}, expected 1 within {WEIGHT_TOL:g}")
        for what, arr in (("mean", m), ("variance", v)):
            if not np.all(np.isfinite(arr)):
                raise MixtureError(f"{what} of {_first_entry(~np.isfinite(arr))} is not finite")
        if np.any(v < VAR_FLOOR):
            raise MixtureError(f"variance of {_first_entry(v < VAR_FLOOR)} is below {VAR_FLOOR:g}")
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
        return _log_joint(xt, c.half, c.offset, work)

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
    ``m' = m - center``, ``coef`` (..., K, 2d) is ``[m'/v | 1/v]``, ``half``
    is ``[m'/v | -1/(2v)]``, the log joints' copy with the -1/2 folded in,
    and ``offset`` (..., K, 1) is ``log w - (sum_j m'^2/v + sum_j log v) / 2``.
    """

    center: np.ndarray
    coef: np.ndarray
    half: np.ndarray
    offset: np.ndarray


def level_constants(means, variances, log_weights) -> LevelConstants:
    """Kernel constants for ``variances`` of shape ``(..., K, d)``, one set per leading index.

    Every operation is elementwise or a reduction over the last axis, so one
    level's constants have the same bits whether built alone or in a stack.
    Scaling by -1/2 is exact, so ``half @ [y; y*y]`` has the bits of
    ``coef @ [y; -(y*y)/2]``.
    """
    center = means.mean(axis=0)
    mc = means - center
    inv = 1.0 / variances
    mv = mc * inv
    coef = np.concatenate((mv, inv), axis=-1)
    half = np.concatenate((mv, inv * -0.5), axis=-1)
    offset = log_weights - 0.5 * (np.sum(mc * mv, axis=-1) + np.sum(np.log(variances), axis=-1))
    return LevelConstants(center[:, None], coef, half, offset[..., None])


class ScoreWork:
    """Scratch arrays of the per-step kernel for ``n`` points around ``center`` (d, 1), ``k`` components.

    ``y = x - center`` is a copy of ``x`` outside ``rows``, the smallest
    range of coordinates that holds every nonzero center entry (the lab's
    mixtures offset their means on coordinate 1 only), and ``x - center``
    inside it. A mean of means is never -0.0, and ``x - 0.0`` is ``x`` bit
    for bit.
    """

    def __init__(self, n: int, center: np.ndarray, k: int):
        d = center.shape[0]
        nz = np.flatnonzero(center)
        lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        self.rows = (lo, hi)
        self.center = center[lo:hi]
        self.y2 = np.empty((2 * d, n))  # [y; y*y]
        self.a = np.empty((k, n))  # log joints, then responsibilities
        self.row = np.empty(n)
        self.g = np.empty((2 * d, n))  # [(m'/v)^T r; (1/v)^T r], then [score; y * (1/v)^T r]


def _log_joint(xt, half, offset, work: ScoreWork) -> np.ndarray:
    """Log joints ``log w_i + log N(x_n; m_i, diag v_i) + (d/2) log(2 pi)``, (K, n), into ``work.a``.

    ``xt`` is (d, n), one column per point; ``half`` and ``offset`` are one
    level's constants.
    """
    d = xt.shape[0]
    lo, hi = work.rows
    y = work.y2[:d]
    np.copyto(y[:lo], xt[:lo])
    np.subtract(xt[lo:hi], work.center, out=y[lo:hi])
    np.copyto(y[hi:], xt[hi:])
    np.multiply(y, y, out=work.y2[d:])
    a = np.matmul(half, work.y2, out=work.a)
    a += offset
    return a


def _normalize(a: np.ndarray, row: np.ndarray | None = None) -> np.ndarray:
    """Responsibilities from (K, n) log joints: a softmax over each column, overwriting ``a``."""
    a -= np.max(a, axis=0, out=row)
    np.exp(a, out=a)
    a /= np.sum(a, axis=0, out=row)
    return a


def score_step(xt, coef, half, offset, work: ScoreWork) -> np.ndarray:
    """The kernel's per-step part: the score (d, n) at the columns of ``xt``, in ``work.g[:d]``.

    ``coef``, ``half`` and ``offset`` are one level's constants. A point
    that is not finite gets a score that is not finite; other points are
    unaffected.
    """
    d = xt.shape[0]
    r = _normalize(_log_joint(xt, half, offset, work), work.row)
    g = np.matmul(coef.T, r, out=work.g)
    yv = np.multiply(work.y2[:d], g[d:], out=g[d:])
    return np.subtract(g[:d], yv, out=g[:d])


def _kernel_inputs(means, variances, log_weights, x):
    """The transposed points, one level's constants and scratch arrays for ``x`` (n, d)."""
    xt = np.ascontiguousarray(np.asarray(x, dtype=float).T)
    c = level_constants(means, variances, log_weights)
    return xt, c, ScoreWork(xt.shape[1], c.center, c.coef.shape[0])


def mixture_score(means, variances, log_weights, x) -> np.ndarray:
    """Score of a diagonal mixture at the rows of ``x``: ``-sum_i r_i (x - m_i) / v_i``.

    The one score kernel: ``DiagGMM.score`` and the engine's step loop both
    run ``score_step`` on the same constants, so a chain step and the
    mixture's score agree bit for bit.
    """
    xt, c, work = _kernel_inputs(means, variances, log_weights, x)
    return score_step(xt, c.coef, c.half, c.offset, work).T


# -- construction -------------------------------------------------------


def build_truncated_mixture(
    weights,
    mean_offsets,
    variance: PowerLaw,
    d: int,
    var_scales=None,
) -> DiagGMM:
    """Build the d-coordinate truncation of the lab's mixture family.

    Component i has mean ``mean_offsets[i]`` on coordinate 1 and zero
    elsewhere, and variances ``var_scales[i] * variance.eigenvalues(d)``
    (scales default to 1). Truncation is consistent: the first coordinates
    of a deeper truncation match exactly.
    """
    if d < 1:
        raise MixtureError(f"dimension must be >= 1, got {d}")
    w = np.asarray(weights, dtype=float)
    offsets = np.asarray(mean_offsets, dtype=float)
    scales = np.ones(w.shape) if var_scales is None else np.asarray(var_scales, dtype=float)
    for what, arr in (("mean offset", offsets), ("variance scale", scales)):
        if arr.shape != w.shape:
            raise MixtureError(f"need one {what} per weight, got {arr.size} for {w.size} weights")
    means = np.zeros((w.size, d))
    means[:, 0] = offsets
    return DiagGMM(weights=w, means=means, variances=scales[:, None] * variance.eigenvalues(d))


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
    """Additive perturbation: weight shifts, and one signed power law per kind shared by all components.

    Every component's means move by ``dmean.eigenvalues(d)`` and its
    variances by ``dvar.eigenvalues(d)``; the zero power law, the default,
    leaves that kind unperturbed, and empty ``dweights`` the weights.
    """

    dweights: tuple = ()
    dmean: PowerLaw = PowerLaw(0.0)
    dvar: PowerLaw = PowerLaw(0.0)

    def __post_init__(self):
        object.__setattr__(self, "dweights", tuple(float(v) for v in self.dweights))

    def mean_shifts(self, k: int, d: int) -> np.ndarray:
        """The ``(k, d)`` mean shifts, a read-only view of one row."""
        return np.broadcast_to(self.dmean.eigenvalues(d), (k, d))

    def var_shifts(self, k: int, d: int) -> np.ndarray:
        """The ``(k, d)`` variance shifts, a read-only view of one row."""
        return np.broadcast_to(self.dvar.eigenvalues(d), (k, d))

    def weight_shifts(self, k: int) -> np.ndarray:
        if self.dweights and len(self.dweights) != k:
            raise MixtureError(f"perturbation has {len(self.dweights)} weight entries for {k} components")
        return np.asarray(self.dweights, dtype=float) if self.dweights else np.zeros(k)


def apply_perturbation(gmm: DiagGMM, pert: MixturePerturbation) -> DiagGMM:
    """Return the misspecified mixture (w + dw, m + dm, v + dv)."""
    k, d = gmm.n_components, gmm.dim
    w = gmm.weights + pert.weight_shifts(k)
    m = gmm.means + pert.mean_shifts(k, d)
    v = gmm.variances + pert.var_shifts(k, d)
    try:
        return DiagGMM(weights=w, means=m, variances=v)
    except MixtureError as err:
        raise MixtureError(f"perturbed mixture: {err}") from None
