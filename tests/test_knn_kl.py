import importlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aldlab import KnnError, knn_distances, knn_kl, knn_kl_multi

knn_module = importlib.import_module("aldlab.knn_kl")  # the package name knn_kl is the function


def quadratic_scan_knn(points, queries, k, exclude_self=False):
    """Independent O(n*m) oracle: explicit loops, full sort."""
    out = np.empty((len(queries), k))
    for qi, q in enumerate(queries):
        dists = []
        for pi, p in enumerate(points):
            if exclude_self and pi == qi:
                continue
            dists.append(math.sqrt(float(np.sum((q - p) ** 2))))
        dists.sort()
        out[qi] = dists[:k]
    return out


class TestKnnDistances:
    def test_two_points(self):
        pts = np.array([[0.0], [1.0]])
        out = knn_distances(pts, pts, 1, exclude_self=True)
        np.testing.assert_allclose(out, [[1.0], [1.0]])

    def test_collinear(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        out = knn_distances(pts, np.array([[0.0]]), 2)
        np.testing.assert_allclose(out, [[0.0, 1.0]])
        out = knn_distances(pts[1:], np.array([[0.0]]), 2)
        np.testing.assert_allclose(out, [[1.0, 3.0]])

    def test_matches_quadratic_scan_exactly(self, rng):
        pts = rng.normal(size=(50, 4))
        qry = rng.normal(size=(20, 4))
        fast = knn_distances(pts, qry, 5)
        slow = quadratic_scan_knn(pts, qry, 5)
        np.testing.assert_array_equal(fast, slow)

    def test_exclude_self_matches_oracle(self, rng):
        pts = rng.normal(size=(40, 3))
        fast = knn_distances(pts, pts, 4, exclude_self=True)
        slow = quadratic_scan_knn(pts, pts, 4, exclude_self=True)
        np.testing.assert_array_equal(fast, slow)

    def test_many_random_instances_exact(self, rng):
        for _ in range(100):
            n = int(rng.integers(5, 30))
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, n))
            pts = rng.normal(size=(n, d))
            fast = knn_distances(pts, pts, k, exclude_self=True)
            slow = quadratic_scan_knn(pts, pts, k, exclude_self=True)
            np.testing.assert_array_equal(fast, slow)

    def test_k_too_large(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(KnnError):
            knn_distances(pts, pts, 5, exclude_self=True)
        knn_distances(pts, pts, 5)  # without exclusion 5 neighbors exist


def ci_samples():
    """The CI sample sizes at the largest fig2 CI dimension: n = m = 1000, d = 25."""
    r = np.random.default_rng(25)
    return r.normal(size=(1000, 25)), r.normal(size=(1000, 25)) + 0.1


@pytest.fixture
def rescanned(monkeypatch):
    """Query rows that the search rescans in full because the screen could not certify their ranks."""
    rows = []
    full_scan = knn_module._full_scan

    def spy(pts, qry, scan_rows, *args):
        rows.extend(int(r) for r in scan_rows)
        return full_scan(pts, qry, scan_rows, *args)

    monkeypatch.setattr(knn_module, "_full_scan", spy)
    return rows


class TestScreenedSearchExact:
    """The GEMM screen and its full-scan fallback give the oracle's floats bit for bit."""

    @pytest.mark.parametrize("d", [1, 8, 65])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_matches_oracle(self, rng, rescanned, d, exclude_self):
        pts = rng.normal(size=(60, d))
        qry = pts if exclude_self else rng.normal(size=(25, d))
        usable = 59 if exclude_self else 60
        for k in (1, 5, 40):
            np.testing.assert_array_equal(
                knn_distances(pts, qry, k, exclude_self), quadratic_scan_knn(pts, qry, k, exclude_self)
            )
        assert rescanned == []  # well-separated distances: the screen proves every row
        # k = usable leaves nothing to screen away: every row is a full scan
        np.testing.assert_array_equal(
            knn_distances(pts, qry, usable, exclude_self), quadratic_scan_knn(pts, qry, usable, exclude_self)
        )
        assert rescanned == list(range(len(qry)))

    def test_ties_at_the_cut_fall_back(self, rescanned):
        pts = np.array([[1.0]] * 40 + [[-1.0]] * 40 + [[3.0]] * 20)
        qry = np.array([[0.0], [2.9]])
        out = knn_distances(pts, qry, 5)
        np.testing.assert_array_equal(out, quadratic_scan_knn(pts, qry, 5))
        # row 0: 80 points tie at distance 1 across rank 5; row 1: 20 points
        # tie at distance 0.1 over ranks 1..5 and past them
        assert rescanned == [0, 1]

    def test_ci_ranks_are_certified_on_the_screen(self, rescanned):
        # the robustness study's ranks on CI-sized samples: every row of both
        # searches is certified, and only its requested pairs are differenced
        P, Q = ci_samples()
        ranks = (20, 50, 80)
        rho = knn_distances(P, P, ranks, exclude_self=True)
        nu = knn_distances(Q, P, ranks)
        assert rescanned == []
        full_rho = knn_distances(P, P, 80, exclude_self=True)
        full_nu = knn_distances(Q, P, 80)
        np.testing.assert_array_equal(rho, full_rho[:, [19, 49, 79]])
        np.testing.assert_array_equal(nu, full_nu[:, [19, 49, 79]])
        np.testing.assert_array_equal(nu[:5], quadratic_scan_knn(Q, P[:5], 80)[:, [19, 49, 79]])

    def test_near_tie_at_a_requested_rank_is_rescanned(self, rescanned):
        # The query is (1, 0, ..., 0) at d = 65. On the screen `kept` (mass
        # 5.5e-16 on coordinate 2) comes before `lost` (1e-8 on each of
        # coordinates 9, 17, ..., 65, mass 8e-16), but the oracle's pairwise
        # sum loses each 1e-16 of `lost` against the leading 1: `lost` is
        # nearest at exactly 1.0 and `kept` second at 1 + 2 ulps. The 30 far
        # points are provably farther, so only rank 1 against rank 2 can tell
        # the order is unknown; a rank checked against the points after it
        # alone would be "certified" as `kept`, 1.0000000000000002, and rank 2
        # checked only against the ranks after it as `lost`, 1.0.
        d = 65
        kept = np.zeros(d)
        kept[1] = math.sqrt(5.5e-16)
        lost = np.zeros(d)
        lost[8::8] = 1e-8
        far = np.zeros((30, d))
        far[np.arange(30), 2 + np.arange(30)] = 10.0
        pts = np.vstack([kept, lost, far])
        qry = np.zeros((1, d))
        qry[0, 0] = 1.0
        expected = quadratic_scan_knn(pts, qry, 2)
        assert expected[0, 0] == 1.0
        np.testing.assert_array_equal(knn_distances(pts, qry, 1), expected[:, :1])
        np.testing.assert_array_equal(knn_distances(pts, qry, (1, 2)), expected)
        # rank 2 alone is as unknown: the point before it may be nearer or not
        np.testing.assert_array_equal(knn_distances(pts, qry, (2,)), expected[:, 1:])
        assert rescanned == [0, 0, 0]

    def test_requested_ranks_are_checked(self, rng):
        pts = rng.normal(size=(30, 2))
        for ranks in [(5, 3), (3, 3), (0, 2), (), (2, 30)]:
            with pytest.raises(KnnError):
                knn_distances(pts, pts, ranks, exclude_self=True)
        with pytest.raises(TypeError):
            knn_distances(pts, pts, (1.5, 2))
        assert knn_distances(pts, pts, (2, 30)).shape == (30, 2)

    def test_overflowing_screen_scans_every_row(self, rng, rescanned):
        # squared norms past the largest double: the screen's bound means
        # nothing there, so no row is decided on it
        pts = 1e154 * rng.normal(size=(40, 3))
        with np.errstate(over="ignore"):
            out = knn_distances(pts, pts, 3, exclude_self=True)
            expected = quadratic_scan_knn(pts, pts, 3, exclude_self=True)
        assert rescanned == list(range(40))
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_large_offset_falls_back(self, rng, rescanned, exclude_self):
        # |x|^2 ~ 1e13 swamps squared distances ~ 1e-5: the screen cancels
        # catastrophically and can prove nothing
        pts = 1e6 + 1e-3 * rng.normal(size=(50, 4))
        qry = pts if exclude_self else 1e6 + 1e-3 * rng.normal(size=(20, 4))
        out = knn_distances(pts, qry, 3, exclude_self)
        np.testing.assert_array_equal(out, quadratic_scan_knn(pts, qry, 3, exclude_self))
        assert rescanned == list(range(len(qry)))

    def test_duplicates_counted_as_clamped(self, rng):
        X = rng.normal(size=(40, 3))
        P = np.vstack([X, X[:10]])
        Q = np.vstack([X[:30], rng.normal(size=(30, 3))])
        for k in (1, 2):
            rho = quadratic_scan_knn(P, P, k, exclude_self=True)
            nu = quadratic_scan_knn(Q, P, k)
            np.testing.assert_array_equal(knn_distances(P, P, k, exclude_self=True), rho)
            np.testing.assert_array_equal(knn_distances(Q, P, k), nu)
            expected = int(np.sum(rho[:, -1] < 1e-12)) + int(np.sum(nu[:, -1] < 1e-12))
            assert knn_kl(P, Q, k).clamped_pairs == expected
        # rho: X[:10] and its copies; nu: every P row that is a row of X[:30]
        assert knn_kl(P, Q, 1).clamped_pairs == 20 + 40

    def test_far_point_keeps_rows_on_the_screen(self, rng, rescanned):
        # the bound is per pair: a far point widens only the bounds of its own
        # pairs, so it neither forces the other rows nor itself into a rescan
        pts = np.vstack([rng.normal(size=(1000, 10)), np.full((1, 10), 1e7)])
        out = knn_distances(pts, pts, 20, exclude_self=True)
        assert rescanned == []
        np.testing.assert_array_equal(out, quadratic_scan_knn(pts, pts, 20, exclude_self=True))

    def test_far_points_near_queries_need_the_point_half_of_the_bound(self):
        # One vector with its large coordinate rolled to each of d = 65
        # positions: the exact norms tie, but the screen's norms and the
        # oracle's difference sums round them apart by up to 15 ulps in
        # unrelated orders. The queries sit near the origin, so their half
        # of the bound (eq) is negligible and only the points' half (ep)
        # covers that error; without it the screen "proves" a wrong order.
        d = 65
        v = np.full(d, 1e-8)
        v[0] = 1.0
        pts = np.array([np.roll(v, i) for i in range(d)])
        qry = np.full((1, d), 1e-12)
        for k in (1, 2, 5):
            np.testing.assert_array_equal(knn_distances(pts, qry, k), quadratic_scan_knn(pts, qry, k))

    def test_near_points_far_queries_need_the_query_half_of_the_bound(self):
        # The query is far, (1, 0, ..., 0), and the points near the origin, so
        # the screen's error is the query's half of the bound (eq) alone. The
        # oracle's pairwise sum adds the terms at positions 8, 16, ..., 64 to
        # the leading 1 one at a time, and each term below half an ulp is
        # lost: the point holding its mass there is nearest in the oracle's
        # floats (distance exactly 1) yet last on the screen, behind 17 points
        # whose mass the sum keeps, far past the 2 screen values read at k = 1.
        d = 65
        lost = np.zeros(d)
        lost[8::8] = 1e-8
        kept = np.zeros((17, d))
        kept[np.arange(17), 1 + np.arange(17) % 7] = math.sqrt(5.5e-16)
        pts = np.vstack([kept, lost])
        qry = np.zeros((1, d))
        qry[0, 0] = 1.0
        np.testing.assert_array_equal(knn_distances(pts, qry, 1), quadratic_scan_knn(pts, qry, 1))
        assert quadratic_scan_knn(pts, qry, 1)[0, 0] == 1.0

    def test_block_size_does_not_matter(self, rng, monkeypatch):
        pts = rng.normal(size=(70, 6))
        pts[:5] = 1e6  # a tied, far cluster for the rescan path
        expected = quadratic_scan_knn(pts, pts, 4, exclude_self=True)
        P, Q = ci_samples()
        whole = 2**22  # every query row of either search in one block
        for chunk in (whole, 1, knn_module._CHUNK_ELEMS):  # 1: one query row per block
            monkeypatch.setattr(knn_module, "_CHUNK_ELEMS", chunk)
            np.testing.assert_array_equal(knn_distances(pts, pts, 4, exclude_self=True), expected)
            estimates = knn_kl_multi(P, Q, (20, 50, 80))
            if chunk == whole:
                reference = estimates
            assert estimates == reference


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 70),
    d=st.integers(1, 6),
    decimals=st.sampled_from([0, 1, 3]),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    exclude_self=st.booleans(),
    data=st.data(),
)
def test_requested_ranks_match_the_quadratic_scan(seed, n, d, decimals, offset, exclude_self, data):
    # coordinates rounded to a few decimals tie often, at requested ranks and
    # at the cut; a large offset cancels in the screen
    r = np.random.default_rng(seed)
    pts = offset + np.round(r.normal(size=(n, d)), decimals)
    qry = pts if exclude_self else offset + np.round(r.normal(size=(int(r.integers(1, 20)), d)), decimals)
    usable = n - 1 if exclude_self else n
    # a largest rank of usable leaves nothing to screen away; usable - 1 is
    # the last rank the screen serves
    top = data.draw(st.sampled_from([usable, max(1, usable - 1), max(1, usable - 17)]))
    ranks = sorted(data.draw(st.sets(st.integers(1, top), min_size=1, max_size=4)))
    expected = quadratic_scan_knn(pts, qry, ranks[-1], exclude_self)
    np.testing.assert_array_equal(
        knn_distances(pts, qry, tuple(ranks), exclude_self), expected[:, [c - 1 for c in ranks]]
    )
    np.testing.assert_array_equal(knn_distances(pts, qry, ranks[-1], exclude_self), expected)


class TestKnnKlMulti:
    def test_equals_per_k_calls(self, rng):
        P = rng.normal(size=(300, 5))
        Q = np.vstack([P[:100], rng.normal(size=(200, 5)) + 0.2])
        multi = knn_kl_multi(P, Q, (20, 50, 80))
        assert [e.k for e in multi] == [20, 50, 80]
        for est in multi:
            single = knn_kl(P, Q, est.k)
            assert est.value == single.value
            assert est.clamped_pairs == single.clamped_pairs
            assert est == single

    @pytest.mark.parametrize("side", ["rho", "nu"])
    def test_search_error_reraised_and_thread_joined(self, rng, monkeypatch, side):
        # experiments._fan_out forks worker processes, which must never
        # happen while a thread is alive: both searches run on the calling
        # thread and start none, and an error from either is re-raised
        P = rng.normal(size=(200, 3))
        Q = rng.normal(size=(150, 3))
        search = knn_module.knn_distances
        before = threading.active_count()
        failed_on = []
        counts = []

        def failing(points, queries, k, exclude_self=False):
            counts.append(threading.active_count())
            if exclude_self == (side == "rho"):
                failed_on.append(threading.current_thread())
                raise RuntimeError(f"{side} search failed")
            return search(points, queries, k, exclude_self)

        knn_kl_multi(P, Q, (5, 10))
        assert threading.active_count() == before
        monkeypatch.setattr(knn_module, "knn_distances", failing)
        with pytest.raises(RuntimeError, match=f"{side} search failed"):
            knn_kl_multi(P, Q, (5, 10))
        assert failed_on == [threading.current_thread()]
        assert counts and set(counts) == {before}
        assert threading.active_count() == before

    def test_the_lab_imports_no_thread_pool(self):
        # the searches start no thread, and experiments imports its process
        # pool only when it fans out, so importing the lab loads no pool
        code = "import sys, aldlab.experiments, aldlab.cli; print('concurrent.futures' in sys.modules)"
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=300
        )
        assert out.stdout == "False\n"

    def test_peak_memory_of_a_ci_call(self):
        # every query tile's arrays stay small: one whole-matrix block traced 73 MB
        P, Q = ci_samples()
        tracemalloc.start()
        try:
            knn_kl_multi(P, Q, (20, 50, 80))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("ks", [(5, 50), (0, 5), (5, 31), ()], ids=["k_eq_n", "zero", "k_above_m", "empty"])
    def test_invalid_k_rejected_before_any_search(self, rng, monkeypatch, ks):
        searches = []
        monkeypatch.setattr(knn_module, "knn_distances", lambda *a, **kw: searches.append(a))
        with pytest.raises(KnnError):
            knn_kl_multi(rng.normal(size=(50, 2)), rng.normal(size=(30, 2)), ks)
        assert searches == []


class TestKnnKl:
    def test_same_law_near_zero(self):
        vals = []
        for seed in range(10):
            r = np.random.default_rng([seed, 11])
            P = r.normal(size=(2500, 1))
            Q = r.normal(size=(2500, 1))
            vals.append(knn_kl(P, Q, 20).value)
        assert abs(float(np.mean(vals))) < 0.05

    def test_shifted_gaussian_near_half(self):
        # KL(N(0,1) || N(1,1)) = 0.5 exactly
        vals = []
        for seed in range(10):
            r = np.random.default_rng([seed, 12])
            P = r.normal(size=(2500, 1))
            Q = r.normal(size=(2500, 1)) + 1.0
            vals.append(knn_kl(P, Q, 20).value)
        assert abs(float(np.mean(vals)) - 0.5) < 0.1

    def test_permutation_invariance(self, rng):
        P = rng.normal(size=(300, 2))
        Q = rng.normal(size=(400, 2)) + 0.3
        base = knn_kl(P, Q, 7).value
        perm = np.random.default_rng(1).permutation(300)
        permq = np.random.default_rng(2).permutation(400)
        assert knn_kl(P[perm], Q[permq], 7).value == pytest.approx(base, rel=1e-12)

    def test_translation_invariance(self, rng):
        P = rng.normal(size=(300, 3))
        Q = rng.normal(size=(300, 3)) + 0.5
        shift = np.array([10.0, -4.0, 2.5])
        a = knn_kl(P, Q, 5).value
        b = knn_kl(P + shift, Q + shift, 5).value
        assert b == pytest.approx(a, rel=1e-9)

    def test_jittered_self_comparison_clamps(self, rng):
        P = rng.normal(size=(200, 2))
        Q = P + 1e-9 * rng.normal(size=(200, 2))
        est = knn_kl(P, Q, 1)
        assert np.isfinite(est.value)
        assert est.clamped_pairs == 0
        # exact duplicates exercise the clamp counter
        est2 = knn_kl(P, np.vstack([P, P]), 1)
        assert est2.clamped_pairs >= 200
        assert np.isfinite(est2.value)

    def test_estimate_fields(self, rng):
        P = rng.normal(size=(100, 3))
        Q = rng.normal(size=(120, 3))
        est = knn_kl(P, Q, 4)
        assert (est.k, est.n, est.m, est.dim) == (4, 100, 120, 3)

    def test_input_validation(self, rng):
        P = rng.normal(size=(50, 2))
        Q = rng.normal(size=(50, 2))
        with pytest.raises(KnnError):
            knn_kl(P, Q, 0)
        with pytest.raises(KnnError):
            knn_kl(P, Q, 50)  # k must be < n
        with pytest.raises(KnnError):
            knn_kl(P, Q[:, :1], 5)
        with pytest.raises(KnnError):
            knn_kl(P, Q[:3], 5)  # k > m
        bad = P.copy()
        bad[0, 0] = np.nan
        with pytest.raises(KnnError):
            knn_kl(bad, Q, 5)

    def test_formula_small_instance(self):
        # hand-checkable 1-d instance
        P = np.array([[0.0], [1.0], [3.0]])
        Q = np.array([[0.5], [2.0]])
        # k=1: rho = |to nearest other P| = [1, 1, 2]; nu = |to nearest Q| = [0.5, 0.5, 1]
        expected = (1 / 3) * (
            (math.log(0.5) - math.log(1.0))
            + (math.log(0.5) - math.log(1.0))
            + (math.log(1.0) - math.log(2.0))
        ) + math.log(2 / 2)
        est = knn_kl(P, Q, 1)
        assert est.value == pytest.approx(expected, rel=1e-12)
