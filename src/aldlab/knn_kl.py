"""Fixed-k nearest-neighbor estimator of KL(P || Q) from two sample sets.

The estimate is

    (d / n) * sum_i [log nu_k(x_i) - log rho_k(x_i)] + log(m / (n - 1)),

where ``rho_k(x_i)`` is the Euclidean distance from ``x_i`` to its k-th
nearest neighbor inside P with ``x_i`` itself excluded, and ``nu_k(x_i)``
is the distance to the k-th nearest neighbor in Q. Values can be negative;
no clamping is applied to the estimate itself. Distances below 1e-12 are
raised to 1e-12 and counted, so duplicate samples are visible, not fatal.

The neighbor search is brute-force and exact: distances are computed as
explicit coordinate differences (no inner-product shortcut), so results
match a quadratic-scan oracle bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIST_CLAMP = 1e-12
_CHUNK_ELEMS = 2**25  # cap on points x queries x dim elements per distance block


class KnnError(ValueError):
    """Raised for invalid estimator inputs."""


@dataclass(frozen=True)
class KLEstimate:
    """kNN divergence estimate with its bookkeeping."""

    value: float
    k: int
    n: int
    m: int
    dim: int
    clamped_pairs: int


def _check_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise KnnError(f"{name} must be a 2-d sample matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise KnnError(f"{name} contains non-finite entries")
    return arr


def knn_distances(points, queries, k: int, exclude_self: bool = False) -> np.ndarray:
    """Sorted distances to the k nearest neighbors of each query row.

    With ``exclude_self`` the query matrix must be the point matrix itself;
    each row then ignores its own entry (by index, not by distance).
    """
    pts = _check_matrix(points, "points")
    qry = _check_matrix(queries, "queries")
    if pts.shape[1] != qry.shape[1]:
        raise KnnError(f"dimension mismatch: points {pts.shape[1]}, queries {qry.shape[1]}")
    usable = pts.shape[0] - (1 if exclude_self else 0)
    if k < 1 or k > usable:
        raise KnnError(f"k={k} out of range for {usable} usable neighbors")
    if exclude_self and pts.shape[0] != qry.shape[0]:
        raise KnnError("exclude_self requires queries to be the point set itself")
    n, d = pts.shape
    q = qry.shape[0]
    chunk = max(1, int(_CHUNK_ELEMS // max(1, n * d)))
    out = np.empty((q, k))
    for start in range(0, q, chunk):
        stop = min(q, start + chunk)
        diff = qry[start:stop, None, :] - pts[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        if exclude_self:
            rows = np.arange(start, stop)
            d2[rows - start, rows] = np.inf
        part = np.partition(d2, k - 1, axis=1)[:, :k]
        part.sort(axis=1)
        out[start:stop] = np.sqrt(part)
    return out


def knn_kl(p_samples, q_samples, k: int) -> KLEstimate:
    """Estimate KL(P || Q) from samples of each law."""
    P = _check_matrix(p_samples, "P")
    Q = _check_matrix(q_samples, "Q")
    n, d = P.shape
    m = Q.shape[0]
    if Q.shape[1] != d:
        raise KnnError(f"dimension mismatch: P is {d}-d, Q is {Q.shape[1]}-d")
    if not (1 <= k < n):
        raise KnnError(f"k={k} must satisfy 1 <= k < n={n}")
    if k > m:
        raise KnnError(f"k={k} exceeds the Q sample count m={m}")

    rho = knn_distances(P, P, k, exclude_self=True)[:, -1]
    nu = knn_distances(Q, P, k)[:, -1]
    clamped = int(np.sum(rho < DIST_CLAMP)) + int(np.sum(nu < DIST_CLAMP))
    rho = np.maximum(rho, DIST_CLAMP)
    nu = np.maximum(nu, DIST_CLAMP)
    value = (d / n) * float(np.sum(np.log(nu) - np.log(rho))) + float(np.log(m / (n - 1)))
    return KLEstimate(value=value, k=k, n=n, m=m, dim=d, clamped_pairs=clamped)
