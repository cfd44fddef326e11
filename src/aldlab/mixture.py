"""Diagonal Gaussian mixtures: exact densities, responsibilities, scores, sampling.

All density bookkeeping runs in log-space with a log-sum-exp reduction, so
responsibilities stay accurate even when modes are separated by many standard
deviations. Mixtures are immutable after construction; every method is a pure
function and safe to call concurrently. Random sampling takes a caller-owned
``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
        a, _ = _log_joint(self.means, self.variances, np.log(self.weights), X)
        amax = a.max(axis=1, keepdims=True)
        out = (amax + np.log(np.sum(np.exp(a - amax), axis=1, keepdims=True)))[:, 0]
        out -= 0.5 * self.dim * _LOG_2PI
        return float(out[0]) if single else out

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities, rows summing to 1."""
        X, single = self._as_batch(x)
        a, _ = _log_joint(self.means, self.variances, np.log(self.weights), X)
        r = _normalize(a)
        return r[0] if single else r

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


def _log_joint(means, variances, log_weights, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-component log joint densities at the rows of ``x``, up to ``(d/2) log(2 pi)``.

    Returns ``a`` of shape ``(n, K)``, ``a[n, i] = log w_i + log N(x_n; m_i,
    diag v_i) + (d/2) log(2 pi)``, and ``q = (x_n - m_i) / v_i`` of shape
    ``(n, K, d)``. Every density, responsibility and score here is built on
    this one quadratic form.
    """
    diff = x[:, None, :] - means[None, :, :]
    q = diff / variances[None, :, :]
    a = log_weights[None, :] - 0.5 * (
        np.einsum("nkd,nkd->nk", diff, q) + np.sum(np.log(variances), axis=1)[None, :]
    )
    return a, q


def _normalize(a: np.ndarray) -> np.ndarray:
    """Responsibilities from log joints: a softmax over each row, overwriting ``a``."""
    a -= a.max(axis=1, keepdims=True)
    r = np.exp(a)
    r /= r.sum(axis=1, keepdims=True)
    return r


def mixture_score(means, variances, log_weights, x) -> np.ndarray:
    """Score of a diagonal mixture at the rows of ``x``: ``-sum_i r_i (x - m_i) / v_i``.

    The one score kernel: ``DiagGMM.score`` and the engine's step loop both
    call it, so a chain step and the mixture's score agree bit for bit.
    """
    a, q = _log_joint(means, variances, log_weights, x)
    return -np.einsum("nk,nkd->nd", _normalize(a), q)


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
