"""Fixed-k nearest-neighbor estimator of KL(P || Q) from two sample sets.

The estimate is

    (d / n) * sum_i [log nu_k(x_i) - log rho_k(x_i)] + log(m / (n - 1)),

where ``rho_k(x_i)`` is the Euclidean distance from ``x_i`` to its k-th
nearest neighbor inside P with ``x_i`` itself excluded, and ``nu_k(x_i)``
is the distance to the k-th nearest neighbor in Q. Values can be negative;
no clamping is applied to the estimate itself. Distances below 1e-12 are
raised to 1e-12 and counted, so duplicate samples are visible, not fatal.

The neighbor search is brute-force and exact. A GEMM screen,
``|q|^2 + |p|^2 - 2 q.p``, picks ``k + 16`` candidates per query; the
candidates are then re-ranked on explicit coordinate differences, the same
floats a full quadratic scan computes. A rounding bound on the screen proves
for each query that its k nearest are among the candidates; a query whose
candidate set cannot be proved complete (ties at the cut, large offsets that
cancel in the screen) is rescanned in full. Results therefore match a
quadratic-scan oracle bit for bit. :func:`knn_kl_multi` serves several k
from one search at the largest k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIST_CLAMP = 1e-12
_CHUNK_ELEMS = 2**22  # cap on the elements of one query block's screen and difference arrays
_SLACK = 16  # screened candidates kept beyond k


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


def _nearest(queries: np.ndarray, points: np.ndarray, k: int, self_cols=None) -> np.ndarray:
    """Sorted k smallest explicit-difference distances of each query row.

    ``points`` is (n, d), shared by all rows, or (rows, c, d), one candidate
    set per row; ``self_cols`` masks each row's own column out of a shared set.
    """
    diff = queries[:, None, :] - points
    d2 = (diff * diff).sum(axis=2)
    if self_cols is not None:
        d2[np.arange(len(self_cols)), self_cols] = np.inf
    part = np.partition(d2, k - 1, axis=1)[:, :k]
    part.sort(axis=1)
    return np.sqrt(part)


def _full_scan(pts: np.ndarray, qry: np.ndarray, rows: np.ndarray, k: int, exclude_self: bool, out) -> None:
    """Fill ``out[rows]`` by scanning every point for those query rows."""
    n, d = pts.shape
    step = max(1, _CHUNK_ELEMS // (n * d))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        out[block] = _nearest(qry[block], pts, k, block if exclude_self else None)


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
    out = np.empty((q, k))
    width = k + _SLACK
    if width >= usable:  # nothing to screen away
        _full_scan(pts, qry, np.arange(q), k, exclude_self, out)
        return out

    # |S - D| <= E_i between the screened value S and the explicit one D of
    # any pair (i, j): each is within about (2d + 4) u_r (|q_i|^2 + |p_j|^2)
    # of the exact squared distance (u_r = eps / 2, any summation order), and
    # 4u / (1 - u) is at least twice their sum; the tiny term covers underflow.
    qn = np.einsum("ij,ij->i", qry, qry)
    pn = np.einsum("ij,ij->i", pts, pts)
    u = (d + 3) * np.finfo(float).eps
    margin = 4.0 * u / (1.0 - u) * (qn + pn.max()) + np.finfo(float).tiny

    step = max(1, _CHUNK_ELEMS // max(n, width * d))
    proved_rows = np.zeros(q, dtype=bool)
    for start in range(0, q, step):
        rows = np.arange(start, min(q, start + step))
        s = qn[rows, None] + pn[None, :] - 2.0 * (qry[rows] @ pts.T)
        if exclude_self:
            s[rows - start, rows] = np.inf
        idx = np.argpartition(s, width, axis=1)
        cand = idx[:, :width]
        s_kth = np.partition(np.take_along_axis(s, cand, axis=1), k - 1, axis=1)[:, k - 1]
        s_next = np.take_along_axis(s, idx[:, width : width + 1], axis=1)[:, 0]
        # Every point left out screens above s_kth + 2E, so its D exceeds the
        # D of the k candidates screened at or below s_kth. A finite s_next
        # also keeps the masked self entry (inf) out of the candidates.
        proved = np.isfinite(s_next) & (s_next > s_kth + 2.0 * margin[rows])
        out[rows[proved]] = _nearest(qry[rows[proved]], pts[cand[proved]], k)
        proved_rows[rows] = proved
    _full_scan(pts, qry, np.flatnonzero(~proved_rows), k, exclude_self, out)
    return out


def knn_kl_multi(p_samples, q_samples, ks: Sequence[int]) -> list:
    """Estimate KL(P || Q) at every k in ``ks`` from one search per side.

    Each estimate equals ``knn_kl(p_samples, q_samples, k)``: both searches run
    at the largest k and each k reads its own column.
    """
    P = _check_matrix(p_samples, "P")
    Q = _check_matrix(q_samples, "Q")
    n, d = P.shape
    m = Q.shape[0]
    if Q.shape[1] != d:
        raise KnnError(f"dimension mismatch: P is {d}-d, Q is {Q.shape[1]}-d")
    ks = tuple(ks)
    if not ks:
        raise KnnError("no k given")
    for k in ks:
        if not (1 <= k < n):
            raise KnnError(f"k={k} must satisfy 1 <= k < n={n}")
        if k > m:
            raise KnnError(f"k={k} exceeds the Q sample count m={m}")

    k_max = max(ks)
    rho_all = knn_distances(P, P, k_max, exclude_self=True)
    nu_all = knn_distances(Q, P, k_max)
    out = []
    for k in ks:
        rho = rho_all[:, k - 1]
        nu = nu_all[:, k - 1]
        clamped = int(np.sum(rho < DIST_CLAMP)) + int(np.sum(nu < DIST_CLAMP))
        rho = np.maximum(rho, DIST_CLAMP)
        nu = np.maximum(nu, DIST_CLAMP)
        value = (d / n) * float(np.sum(np.log(nu) - np.log(rho))) + float(np.log(m / (n - 1)))
        out.append(KLEstimate(value=value, k=k, n=n, m=m, dim=d, clamped_pairs=clamped))
    return out


def knn_kl(p_samples, q_samples, k: int) -> KLEstimate:
    """Estimate KL(P || Q) from samples of each law."""
    return knn_kl_multi(p_samples, q_samples, (k,))[0]
