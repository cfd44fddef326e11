import importlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

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
    """Query rows that the search rescans in full because the screen could not prove them."""
    rows = []
    full_scan = knn_module._full_scan

    def spy(pts, qry, scan_rows, *args):
        rows.extend(int(r) for r in scan_rows)
        return full_scan(pts, qry, scan_rows, *args)

    monkeypatch.setattr(knn_module, "_full_scan", spy)
    return rows


class TestScreenedSearchExact:
    """The GEMM screen and its explicit re-rank give the oracle's floats bit for bit."""

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
        assert rescanned == [0]  # 80 points tie at distance 1 across the candidate cut

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
        # happen while a search thread is alive: the call joins it on return
        # and on an error from either search, the worker's (nu) included
        P = rng.normal(size=(200, 3))
        Q = rng.normal(size=(150, 3))
        search = knn_module.knn_distances
        failed_on = []

        def failing(points, queries, k, exclude_self=False):
            if exclude_self == (side == "rho"):
                failed_on.append(threading.current_thread())
                raise RuntimeError(f"{side} search failed")
            return search(points, queries, k, exclude_self)

        before = threading.active_count()
        knn_kl_multi(P, Q, (5, 10))
        assert threading.active_count() == before
        monkeypatch.setattr(knn_module, "knn_distances", failing)
        with pytest.raises(RuntimeError, match=f"{side} search failed"):
            knn_kl_multi(P, Q, (5, 10))
        assert threading.active_count() == before
        assert (failed_on[0] is threading.current_thread()) == (side == "rho")

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
