"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The two figure sweeps and the step search run the CI profile (the
criteria sanction it for desk-scale machines); the full-scale configs ship
in configs/ and run through the CLI. Monte-Carlo checks use fixed seeds, so
every verdict here is deterministic.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import aldlab as al
from aldlab.config import apply_ci_profile, load_config
from aldlab.experiments import run_experiment, run_knn_robustness
from conftest import random_mixture

RESULTS = []


def report(num, name, ok, detail, budget_s=None, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    extra = f" [{elapsed:.1f}s / budget {budget_s:.0f}s]" if budget_s else ""
    line = f"[criterion {num:02d}] {name}: {stamp}  {detail}{extra}"
    RESULTS.append(line)
    print("\n" + line)
    return ok


def mean_kl(rows, variant, d):
    vals = [r.kl for r in rows if r.variant == variant and r.d == d]
    assert vals, f"no rows for {variant}, d={d}"
    return float(np.mean(vals))


# -- shared CI runs -----------------------------------------------------------


@pytest.fixture(scope="session")
def fig2_ci(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig2_ci")
    cfg = apply_ci_profile(load_config("configs/fig2.cfg"))
    cfg = replace(
        cfg,
        output=replace(cfg.output, csv=str(base / "fig2_ci.csv"),
                       plot_script=str(base / "fig2_ci_plot.py")),
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg, workers=2)
    elapsed = time.perf_counter() - t0
    with open(cfg.output.csv, "rb") as fh:
        csv_bytes = fh.read()
    return {"cfg": cfg, "rows": rows, "csv_bytes": csv_bytes, "elapsed": elapsed}


@pytest.fixture(scope="session")
def fig3_ci(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig3_ci")
    cfg = apply_ci_profile(load_config("configs/fig3.cfg"))
    cfg = replace(
        cfg,
        output=replace(cfg.output, csv=str(base / "fig3_ci.csv"), plot_script=""),
    )
    t0 = time.perf_counter()
    rows = run_experiment(cfg, workers=2)
    return {"cfg": cfg, "rows": rows, "elapsed": time.perf_counter() - t0}


# -- criterion 1: score correctness -------------------------------------------


def test_c01_score_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        g = random_mixture(rng, max_components=4, max_dim=6)
        x = g.sample(1, rng)[0] + rng.normal(scale=0.25, size=g.dim)
        s = g.score(x)
        h = 1e-5
        fd = np.empty(g.dim)
        for j in range(g.dim):
            e = np.zeros(g.dim)
            e[j] = h
            fd[j] = (g.log_density(x + e) - g.log_density(x - e)) / (2 * h)
        rel = float(np.linalg.norm(s - fd) / max(np.linalg.norm(fd), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    assert report(1, "score = finite differences on 50 random mixtures", ok,
                  f"worst rel err {worst:.2e}", budget_s=5, elapsed=elapsed)


# -- criterion 2: closed-form moment suite -------------------------------------


def test_c02_moment_suite_vs_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    n = 1_000_000
    failures = []
    for inst in range(20):
        v = float(rng.uniform(0.5, 2.0))
        vt = v * float(rng.uniform(0.96, 1.04))
        dm = float(rng.uniform(-0.1, 0.1)) * math.sqrt(v)
        z = rng.standard_normal(n)
        x = math.sqrt(vt) * z  # centered at the perturbed mean
        log_r = -0.5 * (x + dm) ** 2 / v + 0.5 * x**2 / vt + 0.5 * math.log(vt / v)
        for p in (-8.0, -2.0, 1.0, 2.0, 8.0):
            formula = al.ratio_p_moment(p, v, vt, dm)
            vals = np.exp(p * log_r)
            mc = float(np.mean(vals))
            se = float(np.std(vals)) / math.sqrt(n)
            if abs(mc - formula) > 3 * se + 1e-12:
                failures.append((inst, "ratio", p, mc, formula, se))
        # tilted parameters via self-normalized importance sampling at p = 3
        p = 3.0
        w = np.exp(p * log_r)
        w /= w.sum()
        mu_hat = float(np.sum(w * x))
        var_hat = float(np.sum(w * (x - mu_hat) ** 2))
        se_mu = math.sqrt(float(np.sum(w**2 * (x - mu_hat) ** 2)))
        mean_f, var_f = al.tilted_params(p, -dm, 0.0, v, vt)
        if abs(mu_hat - mean_f) > 3 * se_mu + 1e-9:
            failures.append((inst, "tilted-mean", p, mu_hat, mean_f, se_mu))
        se_var = math.sqrt(float(np.sum(w**2 * ((x - mu_hat) ** 2 - var_hat) ** 2)))
        if abs(var_hat - var_f) > 3 * se_var + 1e-9:
            failures.append((inst, "tilted-var", p, var_hat, var_f, se_var))
    for inst in range(20):
        d = int(rng.integers(1, 7))
        gam = rng.uniform(0.3, 2.0, size=d)
        vt = rng.uniform(0.5, 2.0, size=d)
        z = rng.standard_normal((200_000, d)) * np.sqrt(vt)
        vals = np.sum(gam * (z / vt) ** 2, axis=1) ** 2
        mc = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(len(vals))
        formula = al.score_fourth_moment(gam, vt)
        if abs(mc - formula) > 3 * se:
            failures.append((inst, "score4", d, mc, formula, se))
    # finiteness boundary detection within 1e-9
    boundary_ok = (
        math.isinf(al.ratio_p_moment(2.0, 1.0, 0.5 - 5e-10, 0.0))
        and math.isfinite(al.ratio_p_moment(2.0, 1.0, 0.5 + 5e-10, 0.0))
        and math.isinf(al.ratio_p_moment(-8.0, 1.0, 9.0 / 8.0 + 5e-10, 0.0))
        and math.isfinite(al.ratio_p_moment(-8.0, 1.0, 9.0 / 8.0 - 5e-10, 0.0))
    )
    elapsed = time.perf_counter() - t0
    ok = not failures and boundary_ok and elapsed < 120
    assert report(2, "moment formulas vs Monte-Carlo oracles", ok,
                  f"{len(failures)} violations, boundary_ok={boundary_ok}",
                  budget_s=120, elapsed=elapsed)


# -- criterion 3: bound dominance ----------------------------------------------


def _instance_for_dominance(rng):
    k = int(rng.integers(1, 3))
    d = int(rng.integers(1, 4))
    w = rng.uniform(0.3, 1.0, size=k)
    w /= w.sum()
    sigma = rng.uniform(0.5, 2.0, size=(k, d))
    dsigma = rng.uniform(-0.06, 0.06, size=(k, d)) * sigma
    dmeans = rng.normal(scale=0.1, size=(k, d))
    means = rng.uniform(-1.0, 1.0, size=(k, d))
    lam = rng.uniform(0.5, 2.0, size=d)
    gam = rng.uniform(0.3, 1.5, size=d)
    return dict(weights=w, weights_tilde=w, sigma=sigma, dsigma=dsigma,
                dmeans=dmeans, lambdas=lam, gammas=gam, means=means)


def _mc_lhs(inp, kappa, rng, n, which):
    v = inp.sigma + kappa * inp.lambdas
    v_tilde = inp.sigma + inp.dsigma + kappa * inp.lambdas
    rho = al.DiagGMM(weights=inp.weights, means=inp.means, variances=v)
    rho_t = al.DiagGMM(weights=inp.weights_tilde, means=inp.means + inp.dmeans,
                       variances=v_tilde)
    X = rho.sample(n, rng)
    p = rho.responsibilities(X)
    means_t = inp.means + inp.dmeans
    acc = np.zeros((n, inp.dim))
    if which == "component":
        for i in range(inp.n_components):
            s_t = -(X - means_t[i]) / v_tilde[i]
            s = -(X - inp.means[i]) / v[i]
            acc += p[:, [i]] * (s_t - s)
    else:
        pt = rho_t.responsibilities(X)
        for i in range(inp.n_components):
            s_t = -(X - means_t[i]) / v_tilde[i]
            acc += (pt[:, [i]] - p[:, [i]]) * s_t
    vals = np.sum(inp.gammas * acc * acc, axis=1)
    return float(np.mean(vals)), float(np.std(vals)) / math.sqrt(n)


def test_c03_bound_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    viols = []
    for inst in range(10):
        fields = _instance_for_dominance(rng)
        inp = al.BoundInputs(**fields)
        for kappa in (0.0, 0.5, 1.0):
            mc, se = _mc_lhs(inp, kappa, rng, 200_000, "component")
            if al.bcomp_bound(inp, kappa) < mc - 3 * se:
                viols.append((inst, kappa, "bcomp", mc, al.bcomp_bound(inp, kappa)))
            mc, se = _mc_lhs(inp, kappa, rng, 200_000, "responsibility")
            bound = al.bresp_upper(inp, kappa).value
            if bound < mc - 3 * se:
                viols.append((inst, kappa, "bresp", mc, bound))
    elapsed = time.perf_counter() - t0
    ok = not viols and elapsed < 300
    assert report(3, "bcomp/bresp dominate Monte-Carlo energies", ok,
                  f"{len(viols)} violations over 10 instances x 3 fractions",
                  budget_s=300, elapsed=elapsed)


# -- criterion 4: horizon end-to-end -------------------------------------------


def test_c04_horizon_constant_end_to_end():
    t0 = time.perf_counter()
    d, eps, dt = 2, 0.3, 9e-3
    tgt = al.build_truncated_mixture((0.75, 0.25), (0.0, 10.0),
                                     al.PowerLaw(1, 2.0), d,
                                     var_scales=(1.2, 2.0))
    js = np.arange(1, d + 1, dtype=float)
    inp = al.BoundInputs(weights=(0.75, 0.25), weights_tilde=(0.75, 0.25),
                         sigma=tgt.variances, dsigma=np.zeros((2, d)),
                         dmeans=np.zeros((2, d)), lambdas=40.0 * js**-2.7,
                         gammas=js**-1.5)
    t_horizon = al.horizon(al.kd_constant(inp), eps)
    n_steps = math.ceil(t_horizon / dt) + 1
    cfg = al.ALDConfig(dim=d, schedule=al.make_schedule(n_steps, dt, 20.0),
                       gamma=al.PowerLaw(1, 1.5),
                       c_base=al.PowerLaw(1, 2.7))
    batch = al.run_chains(cfg, tgt, 2500, seed=404)
    P = tgt.sample(2500, np.random.default_rng(405))
    kl = al.knn_kl(P, batch.samples, 20).value
    elapsed = time.perf_counter() - t0
    ok = kl <= eps + 0.15 and elapsed < 180
    assert report(4, "horizon-constant run reaches its accuracy", ok,
                  f"K_2={al.kd_constant(inp):.3f}, N={n_steps}, KL={kl:.3f} <= {eps + 0.15:.2f}",
                  budget_s=180, elapsed=elapsed)


# -- criterion 5: estimator calibration -----------------------------------------


def test_c05_knn_calibration():
    t0 = time.perf_counter()
    same, shift = [], []
    for seed in range(10):
        r = np.random.default_rng([seed, 505])
        P = r.normal(size=(2500, 1))
        Q = r.normal(size=(2500, 1))
        same.append(al.knn_kl(P, Q, 20).value)
        shift.append(al.knn_kl(P, Q + 1.0, 20).value)
    m_same, m_shift = float(np.mean(same)), float(np.mean(shift))
    elapsed = time.perf_counter() - t0
    ok = abs(m_shift - 0.5) < 0.1 and abs(m_same) < 0.05 and elapsed < 60
    assert report(5, "kNN estimator calibration", ok,
                  f"same-law {m_same:+.3f} (|.|<0.05), shifted {m_shift:.3f} (0.5 +- 0.1)",
                  budget_s=60, elapsed=elapsed)


# -- criteria 6/7: figure sweeps at the CI profile ------------------------------


def test_c06_fig2_trend(fig2_ci):
    rows = fig2_ci["rows"]
    top = max(fig2_ci["cfg"].sweep.d_values)
    g5, gt = mean_kl(rows, "green", 5), mean_kl(rows, "green", top)
    rt = mean_kl(rows, "red", top)
    flat_bar = 3.0 * max(g5, 0.1)
    flat_ok = gt <= flat_bar
    sep_ok = rt >= 2.5 * gt
    ok = flat_ok and sep_ok
    assert report(6, "tailored-vs-flat bias trend (CI profile)", ok,
                  f"green({top})={gt:.3f} <= {flat_bar:.3f}; red({top})={rt:.3f} >= {2.5 * gt:.3f}",
                  budget_s=300, elapsed=fig2_ci["elapsed"])


def test_c07_fig3_separation(fig3_ci):
    rows = fig3_ci["rows"]
    top = max(fig3_ci["cfg"].sweep.d_values)
    at = mean_kl(rows, "admissible", top)
    nt = mean_kl(rows, "non_admissible", top)
    ok = nt >= 2.5 * at
    assert report(7, "preconditioner separation under score error (CI)", ok,
                  f"non({top})={nt:.3f} >= {2.5 * at:.3f} (admissible {at:.3f})",
                  budget_s=300, elapsed=fig3_ci["elapsed"])


def test_c07_fig3_admissible_flatness(fig3_ci):
    # Stated margin: KL(top) <= 3 max(KL(5), 0.1). Thin margin by nature: the
    # admissible estimate carries a dimension-growing kNN-estimator bias on
    # small per-coordinate annealing lags that sits right at this bar
    # (~0.26-0.40 across seed choices at desk scale, 0.31-0.32 at full-scale
    # constants). Kept at the stated margin rather than loosened; see README.
    rows = fig3_ci["rows"]
    top = max(fig3_ci["cfg"].sweep.d_values)
    a5, at = mean_kl(rows, "admissible", 5), mean_kl(rows, "admissible", top)
    bar = 3.0 * max(a5, 0.1)
    ok = at <= bar
    assert report(7, "admissible-preconditioner flatness (stated margin)", ok,
                  f"admissible({top})={at:.3f} vs bar {bar:.3f}")


# -- criterion 8: steps to accuracy ---------------------------------------------


@pytest.fixture(scope="session")
def fig1_ci(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig1_ci")
    cfg = apply_ci_profile(load_config("configs/fig1.cfg"))
    cfg = replace(cfg, output=replace(cfg.output, csv=str(base / "fig1_ci.csv"),
                                      plot_script=""))
    t0 = time.perf_counter()
    rows = run_experiment(cfg, workers=2)
    return {"cfg": cfg, "rows": rows, "elapsed": time.perf_counter() - t0}


def test_c08_fig1_steps_trend(fig1_ci):
    rows = fig1_ci["rows"]
    steps = {(r.variant, r.d): r.steps for r in rows}
    capped = all(
        steps[("flat", d)] == "cap_exceeded"
        for d in fig1_ci["cfg"].sweep.d_values if d > 10
    )
    t5, t12 = steps[("tailored", 5)], steps[("tailored", 12)]
    ratio_ok = isinstance(t5, int) and isinstance(t12, int) and t12 <= 2 * t5
    small_d_ok = all(
        steps[(v, 1)] != "cap_exceeded" and steps[(v, 1)] <= 10000
        for v in ("tailored", "flat")
    )
    ok = capped and ratio_ok and small_d_ok
    assert report(8, "steps-to-accuracy trend (CI sweep)", ok,
                  f"flat d>10 capped={capped}; tailored steps 5->{t5}, 12->{t12}",
                  budget_s=2700, elapsed=fig1_ci["elapsed"])


# -- criterion 9: robustness to k ------------------------------------------------


def test_c09_knn_robustness(fig2_ci):
    t0 = time.perf_counter()
    cfg = fig2_ci["cfg"]
    top = max(cfg.sweep.d_values)
    rob = replace(cfg, experiment="knn_robustness",
                  sweep=replace(cfg.sweep, d_values=(top,)),
                  sampling=replace(cfg.sampling, k_values=(20, 50, 80)))
    rows = run_knn_robustness(rob)
    greens = {k: np.mean([r.kl for r in rows if r.variant == "green" and r.k == k])
              for k in (20, 50, 80)}
    reds = {k: np.mean([r.kl for r in rows if r.variant == "red" and r.k == k])
            for k in (20, 50, 80)}
    diffs = [abs(greens[a] - greens[b]) for a in greens for b in greens if a < b]
    pairwise_ok = max(diffs) <= 0.15
    order_ok = all(greens[k] < reds[k] for k in (20, 50, 80))
    elapsed = time.perf_counter() - t0
    ok = pairwise_ok and order_ok and elapsed < 120
    assert report(9, "kNN estimate robust to neighborhood size", ok,
                  f"green@k {dict((k, round(float(v), 3)) for k, v in greens.items())}, "
                  f"max pairwise diff {max(diffs):.3f} <= 0.15, ordering={order_ok}",
                  budget_s=120, elapsed=elapsed)


# -- criterion 10: corrected-drift path matching ----------------------------------


def test_c10_ideal_drift_path_matching():
    t0 = time.perf_counter()
    tgt = al.build_truncated_mixture((0.75, 0.25), (0.0, 10.0),
                                     al.PowerLaw(1, 1.25), 2,
                                     var_scales=(1.2, 2.0))
    sched = al.make_schedule(2000, 9e-3, 20.0)
    cb = al.PowerLaw(1, 2.7)
    cfg = al.ALDConfig(dim=2, schedule=sched,
                       gamma=al.PowerLaw(1, 1.5), c_base=cb,
                       drift_mode="ideal_corrected")
    cps = (sched.n_steps // 4, sched.n_steps // 2, 3 * sched.n_steps // 4)
    batch = al.run_chains(cfg, tgt, 2500, seed=1010, checkpoints=cps)
    kls = {}
    for c in cps:
        ref = al.smooth(tgt, cb, sched.theta(c)).sample(
            2500, np.random.default_rng([1010, c]))
        kls[c] = al.knn_kl(batch.checkpoints[c], ref, 20).value
    elapsed = time.perf_counter() - t0
    mid = kls[sched.n_steps // 2]
    ok = mid <= 0.1 and all(v <= 0.1 for v in kls.values()) and elapsed < 180
    assert report(10, "corrected drift follows the annealing path", ok,
                  f"checkpoint KLs {({k: round(v, 3) for k, v in kls.items()})} <= 0.1",
                  budget_s=180, elapsed=elapsed)


# -- criterion 11: condition verdicts ----------------------------------------------


def _growth_verdict(partial_sums):
    (d1, s1), (d2, s2), (d3, s3) = partial_sums
    inc1, inc2 = s2 - s1, s3 - s2
    if s3 == 0.0 or inc2 <= 0.6 * inc1 + 1e-12:
        return "converges"
    if inc2 >= 1.5 * inc1:
        return "diverges"
    return "borderline"


def test_c11_condition_report_verdicts():
    t0 = time.perf_counter()
    probe = (100, 1000, 10000)
    green = al.condition_report((0.75, 0.25), sigma_exponent=1.25,
                                sigma_scales=(1.2, 2.0), smooth=al.PowerLaw(40.0, 2.7),
                                gamma=al.PowerLaw(1.0, 1.5), mean_offsets=(0.0, 10.0),
                                d_probe=probe)
    red = al.condition_report((0.75, 0.25), sigma_exponent=1.25,
                              sigma_scales=(1.2, 2.0), smooth=al.PowerLaw(40.0, 0.0),
                              gamma=al.PowerLaw(1.0, 0.0), mean_offsets=(0.0, 10.0),
                              d_probe=probe)
    adm = al.condition_report((0.75, 0.25), sigma_exponent=2.0, sigma_scales=(1.0, 1.0),
                              smooth=al.PowerLaw(40.0, 4.0), gamma=al.PowerLaw(1.0, 3.5),
                              dsigma=al.PowerLaw(0.1, 3.5), mean_offsets=(0.0, 10.0),
                              d_probe=probe)
    non = al.condition_report((0.75, 0.25), sigma_exponent=2.0, sigma_scales=(1.0, 1.0),
                              smooth=al.PowerLaw(40.0, 4.0), gamma=al.PowerLaw(1.0, 1.0),
                              dsigma=al.PowerLaw(0.1, 3.5), mean_offsets=(0.0, 10.0),
                              d_probe=probe)
    verdict_ok = (
        green["suff_kd"].verdict == "converges"
        and red["suff_kd"].verdict == "diverges"
        and adm["m0_first"].verdict == "converges"
        and adm["m0_second"].verdict == "converges"
        and non["m0_first"].verdict == "diverges"
    )
    growth_ok = True
    for rep in (green, red, adm, non):
        for name in ("suff_kd", "m0_first", "m0_second", "s1_score_moment"):
            rec = rep[name]
            oracle = _growth_verdict(rec.partial_sums)
            if oracle != "borderline" and oracle != rec.verdict:
                growth_ok = False
    elapsed = time.perf_counter() - t0
    ok = verdict_ok and growth_ok and elapsed < 10
    assert report(11, "summability verdicts match partial-sum growth", ok,
                  f"verdicts ok={verdict_ok}, growth agreement={growth_ok}",
                  budget_s=10, elapsed=elapsed)


# -- criterion 12: determinism -------------------------------------------------------


def test_c12_byte_identical_reruns(fig2_ci, tmp_path_factory):
    t0 = time.perf_counter()
    base = tmp_path_factory.mktemp("fig2_ci_rerun")
    cfg2 = replace(fig2_ci["cfg"],
                   output=replace(fig2_ci["cfg"].output,
                                  csv=str(base / "fig2_ci.csv"), plot_script=""))
    run_experiment(cfg2, workers=2)  # fresh cache directory: full recompute
    with open(cfg2.output.csv, "rb") as fh:
        fresh = fh.read()

    def value_columns(data):
        lines = data.decode().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    values_equal = value_columns(fresh) == value_columns(fig2_ci["csv_bytes"])
    # cached rerun reproduces the file byte for byte, wall times included
    run_experiment(cfg2, workers=2)
    with open(cfg2.output.csv, "rb") as fh:
        cached = fh.read()
    bytes_equal = cached == fresh
    elapsed = time.perf_counter() - t0
    ok = values_equal and bytes_equal
    assert report(12, "same seed reruns reproduce the CSV", ok,
                  f"fresh-cache values equal={values_equal}, cached rerun byte-identical={bytes_equal}",
                  budget_s=300, elapsed=elapsed)
