"""Fixed-k nearest-neighbor estimator of KL(P || Q) from two sample sets.

The estimate is

    (d / n) * sum_i [log nu_k(x_i) - log rho_k(x_i)] + log(m / (n - 1)),

where ``rho_k(x_i)`` is the Euclidean distance from ``x_i`` to its k-th
nearest neighbor inside P with ``x_i`` itself excluded, and ``nu_k(x_i)``
is the distance to the k-th nearest neighbor in Q. Values can be negative;
no clamping is applied to the estimate itself. Distances below 1e-12 are
raised to 1e-12 and counted, so duplicate samples are visible, not fatal.

The neighbor search is brute-force and exact. It walks the queries in tiles
small enough that a tile's screen, candidate indices and gathered candidates
stay in cache. A GEMM screen, ``|q|^2 + |p|^2 - 2 q.p``, picks ``k + 16``
candidates per query; the gathered candidates are then differenced and
squared in place and re-ranked on those explicit coordinate differences, the
same floats a full quadratic scan computes. A per-pair rounding bound on the
screen proves for each query that its k nearest are among the candidates; a
query whose candidate set cannot be proved complete (ties at the cut, large
offsets that cancel in the screen) is rescanned in full. Results therefore
match a quadratic-scan oracle bit for bit, whatever the tile size.
:func:`knn_kl_multi` serves several k from one search per side at the
largest k, and runs the search against Q on one worker thread while the
calling thread searches P; the thread is joined before the call returns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIST_CLAMP = 1e-12
# Cap on the elements of one query tile's screen and of its gathered
# candidates: 2**16 doubles (512 KiB) keeps a tile's arrays in a core's L2
# cache. Measured at n = m = 1000 (d = 1 to 25) and at n = m = 2500, d = 65,
# against 2**15, 2**17, 2**18 and 2**22; see BENCH_15.json.
_CHUNK_ELEMS = 2**16
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

    ``points`` is (n, d), shared by all rows and never written, or
    (rows, c, d), one gathered candidate set per row, which is overwritten;
    ``self_cols`` masks each row's own column out of a shared set.
    """
    if points.ndim == 2:
        diff = queries[:, None, :] - points
    else:
        diff = np.subtract(queries[:, None, :], points, out=points)
    d2 = np.square(diff, out=diff).sum(axis=2)
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

    # Rounding bound, per pair. Let S be the screened value and D the explicit
    # one (the oracle's float) of query i and point j. To first order in
    # u_r = eps / 2, in any summation order, S is off the exact squared
    # distance by at most (2d + 3) u_r (|q_i|^2 + |p_j|^2): d u_r of it from
    # the norms, 2 d u_r |q_i.p_j| <= d u_r (|q_i|^2 + |p_j|^2) from the dot
    # product and 3 u_r from the two additions. D is off by at most (d + 2) u_r
    # times the exact squared distance, which is at most 2 (|q_i|^2 + |p_j|^2).
    # gamma = 4u / (1 - u), u = (d + 3) eps, is at least twice their sum, so
    #     |S - D| <= gamma |q_i|^2 + gamma |p_j|^2 + tiny = eq_i + ep_j,
    # with room for the few roundings of the proof below; tiny covers
    # underflow. A far point widens only the bounds of its own pairs.
    qn = np.einsum("ij,ij->i", qry, qry)
    pn = np.einsum("ij,ij->i", pts, pts)
    u = (d + 3) * np.finfo(float).eps
    gamma = 4.0 * u / (1.0 - u)
    eq = gamma * qn + np.finfo(float).tiny
    ep = gamma * pn

    step = max(1, _CHUNK_ELEMS // max(n, width * d))
    tile_rows = np.arange(min(q, step))
    unproved = []
    for start in range(0, q, step):
        stop = min(q, start + step)
        r = tile_rows[: stop - start]
        s = qry[start:stop] @ pts.T
        s *= -2.0
        s += qn[start:stop, None] + pn
        if exclude_self:
            s[r, start + r] = np.inf
        cand = np.argpartition(s, width - 1, axis=1)[:, :width]
        # Proof that a row's k nearest are among its candidates: k candidates
        # a have D_a <= S_a + ep_a + eq_i <= upper (the k-th smallest such
        # bound), and every point j left out has D_j >= S_j - ep_j - eq_i >=
        # lower. lower > upper puts every left-out point beyond k candidates.
        # A finite lower also keeps the masked self entry (inf) out of them.
        flat = cand + n * r[:, None]
        s_flat = s.reshape(-1)
        bound = s_flat[flat]
        bound += ep[cand]
        upper = np.partition(bound, k - 1, axis=1)[:, k - 1]
        upper += eq[start:stop]
        s -= ep
        s_flat[flat] = np.inf
        lower = s.min(axis=1)
        lower -= eq[start:stop]
        proved = np.isfinite(lower) & (lower > upper)
        rows = start + np.flatnonzero(proved)
        out[rows] = _nearest(qry[rows], pts[cand[proved]], k)
        unproved.append(start + np.flatnonzero(~proved))
    _full_scan(pts, qry, np.concatenate(unproved), k, exclude_self, out)
    return out


def knn_kl_multi(p_samples, q_samples, ks: Sequence[int]) -> list:
    """Estimate KL(P || Q) at every k in ``ks`` from one search per side.

    Each estimate equals ``knn_kl(p_samples, q_samples, k)``: both searches run
    at the largest k and each k reads its own column. The two searches run at
    once, the one against Q on a worker thread that is joined before this
    returns or raises.
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
    # numpy releases the interpreter lock in the GEMM, partitions and gathers,
    # so on two free cores the searches overlap; leaving the block joins the
    # worker, so no thread outlives the call (experiments forks workers).
    with ThreadPoolExecutor(max_workers=1) as pool:
        nu_search = pool.submit(knn_distances, Q, P, k_max)
        rho_all = knn_distances(P, P, k_max, exclude_self=True)
        nu_all = nu_search.result()
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
