"""Fixed-k nearest-neighbor estimator of KL(P || Q) from two sample sets.

The estimate is

    (d / n) * sum_i [log nu_k(x_i) - log rho_k(x_i)] + log(m / (n - 1)),

where ``rho_k(x_i)`` is the Euclidean distance from ``x_i`` to its k-th
nearest neighbor inside P with ``x_i`` itself excluded, and ``nu_k(x_i)``
is the distance to the k-th nearest neighbor in Q. Values can be negative;
no clamping is applied to the estimate itself. Distances below 1e-12 are
raised to 1e-12 and counted, so duplicate samples are visible, not fatal.

The neighbor search is brute-force and exact. It walks the queries in tiles
small enough that a tile's screen stays in cache. One GEMM per tile gives
the screen ``|q|^2 + |p|^2 - 2 q.p`` less the points' half of a per-pair
rounding bound, and one partition picks each query's ``K + 1`` smallest
screen values, K the largest requested rank; the last of them bounds every
point after the first K from below. The bound then certifies each
requested rank on the screen alone: when the points screened before it are
provably nearer and every point after it provably farther, that rank's
point is known, and only that (query, point) pair is differenced
explicitly, in the same floats a quadratic scan computes. A query with any
rank the bound cannot certify (ties near a requested rank, large offsets
that cancel in the screen) is rescanned in full. Results therefore match a
quadratic-scan oracle bit for bit, whatever the tile size.
:func:`knn_kl_multi` serves several k from one search per side at exactly
those ranks, both on the calling thread.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIST_CLAMP = 1e-12
# Cap on the elements of one query tile's arrays: its (rows, n) screen, and
# its gather of the certified pairs, at most K points of d coordinates per
# row, K the largest requested rank. 2**16 doubles (512 KiB) keeps a tile in
# a core's L2 cache. Measured at n = m = 1000 (d = 1 to 25) and at
# n = m = 2500, d = 65, against 2**15, 2**17, 2**18 and 2**22; see
# BENCH_15.json.
_CHUNK_ELEMS = 2**16


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


def _sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Explicit-difference squared distances of each query row to its points.

    ``points`` is (n, d), shared by all rows and never written, or
    (rows, c, d), one gathered point set per row, which is overwritten.
    """
    if points.ndim == 2:
        diff = queries[:, None, :] - points
    else:
        diff = np.subtract(queries[:, None, :], points, out=points)
    return np.square(diff, out=diff).sum(axis=2)


def _full_scan(pts: np.ndarray, qry: np.ndarray, rows: np.ndarray, cols, exclude_self: bool, out) -> None:
    """Fill ``out[rows]`` with explicit-difference distances to every point at the 0-based ranks ``cols``."""
    n, d = pts.shape
    step = max(1, _CHUNK_ELEMS // (n * d))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        d2 = _sq_dists(qry[block], pts)
        if exclude_self:
            d2[np.arange(len(block)), block] = np.inf
        part = np.partition(d2, cols[-1], axis=1)[:, : cols[-1] + 1]
        part.sort(axis=1)
        out[block] = np.sqrt(part[:, cols])


def _ranks(k) -> np.ndarray:
    """The requested ranks: 1..k for an int ``k``, else the increasing ranks given."""
    if isinstance(k, (int, np.integer)):
        return np.arange(1, int(k) + 1)
    ranks = np.array([operator.index(r) for r in k], dtype=np.int64)
    if np.any(np.diff(ranks) <= 0):
        raise KnnError(f"ranks {tuple(k)} are not increasing")
    return ranks


def knn_distances(points, queries, k, exclude_self: bool = False) -> np.ndarray:
    """Distances from each query row to its nearest neighbors at the requested ranks.

    An int ``k`` asks for ranks 1..k, so the columns are the sorted k nearest
    distances; an increasing sequence of ranks gives one column per rank.
    With ``exclude_self`` the query matrix must be the point matrix itself;
    each row then ignores its own entry (by index, not by distance).
    """
    pts = _check_matrix(points, "points")
    qry = _check_matrix(queries, "queries")
    if pts.shape[1] != qry.shape[1]:
        raise KnnError(f"dimension mismatch: points {pts.shape[1]}, queries {qry.shape[1]}")
    ranks = _ranks(k)
    usable = pts.shape[0] - (1 if exclude_self else 0)
    if ranks.size == 0 or ranks[0] < 1 or ranks[-1] > usable:
        raise KnnError(f"k={k} out of range for {usable} usable neighbors")
    if exclude_self and pts.shape[0] != qry.shape[0]:
        raise KnnError("exclude_self requires queries to be the point set itself")
    n, d = pts.shape
    q = qry.shape[0]
    cols = ranks - 1
    top_k = int(ranks[-1])
    out = np.empty((q, len(ranks)))

    # Rounding bound, per pair. Let A = |q_i|^2 and B = |p_j|^2 exactly, S the
    # exact squared distance, D the oracle's float (explicit differences,
    # squared and summed), u_r = eps / 2 and g_m = m u_r / (1 - m u_r). The
    # screen is the (d + 2)-term product s = qa_i . pa_j of
    #     qa_i = [-2 q_i | 1 | |q_i|^2],  pa_j = [p_j ; |p_j|^2 - ep_j ; 1],
    # whose exact value is S - ep_j but for three errors (scaling by -2 is
    # exact):
    #   - the norms, each a d-term sum of squares: g_d (A + B);
    #   - the entry |p_j|^2 - ep_j, rounded once: u_r B;
    #   - the product, in any order, with or without FMA: g_{d+2} times the
    #     sum of its terms' magnitudes, sum_k 2 |q_ik p_jk| <= A + B plus the
    #     two norm entries, at most 2 (A + B) (1 + g_d) in all.
    # That is |s + ep_j - S| <= (3d + 5) u_r (A + B) to first order. D is off
    # S by at most g_{d+2} S (differences, squares, d - 1 additions of
    # nonnegative terms), and S <= 2 (A + B). So
    #     |s + ep_j - D| <= (5d + 9) u_r (A + B).
    # gamma = 6u / (1 - u), u = (d + 2) eps, is at least 12 (d + 2) u_r, more
    # than twice that factor; with eq_i = gamma A + tiny and ep_j = gamma B,
    #     lo = s - eq_i <= D <= s + 2 ep_j + eq_i = hi,
    # with room for the roundings of lo, hi and their comparisons; tiny covers
    # underflow. A far point widens only the bounds of its own pairs. Where the
    # terms could overflow the bound means nothing, and every row is scanned.
    qn = np.einsum("ij,ij->i", qry, qry)
    pn = np.einsum("ij,ij->i", pts, pts)
    if top_k >= usable or not np.isfinite(4.0 * (qn.max() + pn.max())):
        # nothing to screen away, or a screen that could overflow
        _full_scan(pts, qry, np.arange(q), cols, exclude_self, out)
        return out
    u = (d + 2) * np.finfo(float).eps
    gamma = 6.0 * u / (1.0 - u)
    eq = gamma * qn + np.finfo(float).tiny
    ep = gamma * pn
    qa = np.empty((q, d + 2))
    np.multiply(qry, -2.0, out=qa[:, :d])
    qa[:, d] = 1.0
    qa[:, d + 1] = qn
    pa = np.empty((d + 2, n))
    pa[:d] = pts.T
    np.subtract(pn, ep, out=pa[d])
    pa[d + 1] = 1.0

    step = max(1, _CHUNK_ELEMS // max(n, (top_k + 1) * d))
    tile_rows = np.arange(min(q, step))
    tile_base = n * tile_rows[:, None]
    rescan = []
    for start in range(0, q, step):
        stop = min(q, start + step)
        r = tile_rows[: stop - start]
        base = tile_base[: stop - start]
        s = qa[start:stop] @ pa
        if exclude_self:
            s[r, start + r] = np.inf
        # the points of the top_k + 1 smallest screen values, the last of them
        # the smallest value of any point after the first top_k
        cand = np.argpartition(s, top_k, axis=1)[:, : top_k + 1]
        s_flat = s.reshape(-1)
        # those points in screen order
        top = np.take_along_axis(cand, np.argsort(s_flat[cand + base], axis=1), axis=1)
        st = s_flat[top + base]
        # along the screen order: lo rises, and lo[:, top_k] bounds every
        # point after the first top_k; before[:, c] is the largest upper
        # bound of the first c points
        e = eq[start:stop, None]
        lo = st - e
        hi = st[:, :top_k] + e
        hi += 2.0 * ep[top[:, :top_k]]
        before = np.empty((stop - start, top_k + 1))
        before[:, 0] = -np.inf
        np.maximum.accumulate(hi, axis=1, out=before[:, 1:])
        # Rank c (0-based) is certain when every point before it is nearer
        # and every point after it farther: it is then the point top[:, c].
        certain = ((before[:, cols] < lo[:, cols]) & (hi[:, cols] < lo[:, cols + 1])).all(axis=1)
        done = np.flatnonzero(certain)
        out[start + done] = np.sqrt(_sq_dists(qry[start + done], pts[top[done[:, None], cols]]))
        rescan.append(start + np.flatnonzero(~certain))
    _full_scan(pts, qry, np.concatenate(rescan), cols, exclude_self, out)
    return out


def knn_kl_multi(p_samples, q_samples, ks: Sequence[int]) -> list:
    """Estimate KL(P || Q) at every k in ``ks`` from one search per side.

    Each estimate equals ``knn_kl(p_samples, q_samples, k)``: both searches ask
    for the distinct ks as ranks, and each k reads its own column.
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

    ranks = tuple(sorted(set(ks)))
    rho_all = knn_distances(P, P, ranks, exclude_self=True)
    nu_all = knn_distances(Q, P, ranks)
    out = []
    for k in ks:
        rho = rho_all[:, ranks.index(k)]
        nu = nu_all[:, ranks.index(k)]
        clamped = int(np.sum(rho < DIST_CLAMP)) + int(np.sum(nu < DIST_CLAMP))
        rho = np.maximum(rho, DIST_CLAMP)
        nu = np.maximum(nu, DIST_CLAMP)
        value = (d / n) * float(np.sum(np.log(nu) - np.log(rho))) + float(np.log(m / (n - 1)))
        out.append(KLEstimate(value=value, k=k, n=n, m=m, dim=d, clamped_pairs=clamped))
    return out


def knn_kl(p_samples, q_samples, k: int) -> KLEstimate:
    """Estimate KL(P || Q) from samples of each law."""
    return knn_kl_multi(p_samples, q_samples, (k,))[0]
