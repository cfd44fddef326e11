import dataclasses
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from aldlab import (
    ALDConfig,
    ChainBatch,
    ChainDivergenceError,
    DiagGMM,
    EngineError,
    MixturePerturbation,
    PowerLaw,
    apply_perturbation,
    build_truncated_mixture,
    knn_kl,
    make_schedule,
    run_chains,
    smooth,
)
from aldlab import engine
from aldlab.mixture import mixture_score
from conftest import fig2_target


def single_gaussian(d=1, var=1.0):
    return build_truncated_mixture((1.0,), (0.0,), PowerLaw(var), d)


def far_init_config():
    """A rare far init component, which the unstable step (dt/v = 1000) grows 1000x per step."""
    init = DiagGMM(weights=(0.999, 0.001), means=[[0.0], [1e140]], variances=[[1e-2], [1e-2]])
    return ALDConfig(
        dim=1,
        schedule=make_schedule(12, 1.0, 1e-9),
        gamma=PowerLaw(1.0),
        c_base=PowerLaw(1e-9),
        init_mixture=init,
    )


def block_noise(init, seed, n, steps):
    """The (steps, n, d) normals that ``run_chains`` draws for its first ``n`` chains.

    Block b's generator, seeded by (seed, b), draws the block's init sample
    from ``init`` and then one (BLOCK_SIZE, d) standard normal per step, one
    row per chain.
    """
    rngs = [engine._block_rng(seed, b) for b in range(-(-n // engine.BLOCK_SIZE))]
    for r in rngs:
        init.sample(engine.BLOCK_SIZE, r)
    draws = [[r.standard_normal((engine.BLOCK_SIZE, init.dim)) for r in rngs] for _ in range(steps)]
    return np.stack([np.concatenate(step)[:n] for step in draws])


def one_step(
    target,
    drift_mode="exact",
    perturbation=None,
    dt=0.05,
    s_half=20.0,
    gamma=PowerLaw(1.0, 1.5),
    c_base=PowerLaw(1.0, 2.7),
    n=64,
    seed=3,
):
    """One ``run_chains`` step of ``n`` chains: the config, the batch (state 0
    kept) and the step's noise sqrt(2 dt gamma) xi, rebuilt from the block
    generators."""
    cfg = ALDConfig(
        dim=target.dim,
        schedule=make_schedule(2, dt, s_half),
        gamma=gamma,
        c_base=c_base,
        drift_mode=drift_mode,
        perturbation=perturbation,
    )
    xi = block_noise(smooth(target, c_base, cfg.schedule.theta0), seed, n, 1)[0]
    noise = np.sqrt(2.0 * dt * gamma.eigenvalues(target.dim)) * xi
    return cfg, run_chains(cfg, target, n, seed=seed, checkpoints=(0,)), noise


def euler_step(cfg, target, x):
    """The noise-free first step from ``x``: x + dt * (pre * s) with the
    preconditioned score of the smoothed drift mixture; ideal_corrected adds
    theta0*lambda/(2T) to the preconditioner."""
    sched = cfg.schedule
    lam, pre = cfg.c_base.eigenvalues(cfg.dim), cfg.gamma.eigenvalues(cfg.dim)
    if cfg.drift_mode == "ideal_corrected":
        pre = pre + sched.theta0 * lam / (2.0 * sched.t_horizon)
    drift_gmm = apply_perturbation(target, cfg.perturbation) if cfg.perturbation else target
    return x + sched.dt * (pre * smooth(drift_gmm, cfg.c_base, sched.theta0).score(x))


class TestSchedule:
    def test_reference_constants(self):
        sched = make_schedule(20000, 9e-3, 20.0)
        assert sched.theta(0) == 40.0
        assert sched.theta(19999) == 0.0
        assert sched.t_horizon == pytest.approx(179.991)
        assert sched.kappa(0) == 1.0
        assert sched.kappa(19999) == 0.0

    def test_two_step_endpoints(self):
        sched = make_schedule(2, 0.1, 20.0)
        np.testing.assert_allclose(sched.levels, [40.0, 0.0])

    def test_three_step_midpoint(self):
        sched = make_schedule(3, 0.1, 1.0)
        np.testing.assert_allclose(sched.levels, [2.0, 1.0, 0.0])

    def test_monotone_nonincreasing(self):
        sched = make_schedule(500, 0.01, 7.0)
        assert np.all(np.diff(sched.levels) <= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(EngineError):
            make_schedule(1, 0.1, 1.0)
        with pytest.raises(EngineError):
            make_schedule(10, -0.1, 1.0)
        with pytest.raises(EngineError):
            make_schedule(10, 0.1, 0.0)


class TestDrifts:
    """The drift modes, on the mixture score and on noise-free engine steps."""

    def test_exact_theta_zero_is_raw_score(self, rng):
        # the step loop's kernel call, at level 0, is the target's own score
        g = fig2_target(3)
        lam = PowerLaw(1.0, 2.7).eigenvalues(3)
        x = rng.normal(size=(5, 3))
        out = mixture_score(g.means, g.variances + 0.0 * lam[None, :], np.log(g.weights), x)
        np.testing.assert_array_equal(out, g.score(x))

    def test_exact_variance_addition(self):
        g = single_gaussian()
        out = smooth(g, PowerLaw(1.0), 1.0).score(np.array([2.0]))
        np.testing.assert_allclose(out, [-1.0])

    def test_exact_matches_finite_differences(self):
        g = fig2_target(3)
        c = PowerLaw(1.0, 2.7)
        x = np.array([1.0, 0.5, -0.2])
        sm = smooth(g, c, 40.0)
        h = 1e-5
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[j] = (sm.log_density(x + e) - sm.log_density(x - e)) / (2 * h)
        np.testing.assert_allclose(sm.score(x), fd, rtol=1e-6)

    def test_misspecified_zero_perturbation(self):
        g = fig2_target(2)
        c = PowerLaw(1.0, 4.0)
        _, exact, _ = one_step(g, c_base=c)
        _, mis, _ = one_step(g, "misspecified", MixturePerturbation(), c_base=c)
        np.testing.assert_array_equal(mis.samples, exact.samples)

    def test_misspecified_differs_and_matches_pair_oracle(self):
        # misspecified drift on g is exact drift on the perturbed mixture: from
        # one shared init law the two noisy multi-step runs agree bit for bit
        g = fig2_target(2)
        c = PowerLaw(1.0, 4.0)
        pert = MixturePerturbation(dvar=PowerLaw(1.0, 3.5))
        sched = make_schedule(20, 0.05, 20.0)

        def run(target, **drift):
            cfg = ALDConfig(
                dim=2,
                schedule=sched,
                gamma=PowerLaw(1.0, 1.5),
                c_base=c,
                init_mixture=smooth(g, c, sched.theta0),
                **drift,
            )
            return run_chains(cfg, target, 64, seed=3).samples

        mis = run(g, drift_mode="misspecified", perturbation=pert)
        assert not np.allclose(mis, run(g))
        np.testing.assert_array_equal(mis, run(apply_perturbation(g, pert)))

    def test_weight_only_perturbation_identical_components(self):
        # all components equal: responsibilities cancel weight changes
        g = DiagGMM(weights=(0.5, 0.5), means=[[0.0], [0.0]], variances=[[1.0], [1.0]])
        pert = MixturePerturbation(dweights=(-0.3, 0.3))
        c = PowerLaw(1.0)
        _, exact, _ = one_step(g, c_base=c)
        _, mis, _ = one_step(g, "misspecified", pert, c_base=c)
        np.testing.assert_allclose(mis.samples, exact.samples)

    def test_ideal_direct_substitution(self):
        # gamma=1, effective smoothing eigenvalue theta0*lambda=2, T=1: the
        # corrected drift is twice the score of the level-2 law N(0, 3)
        one = PowerLaw(1.0)
        _, batch, noise = one_step(
            single_gaussian(), "ideal_corrected", dt=1.0, s_half=1.0, gamma=one, c_base=one
        )
        np.testing.assert_allclose(batch.samples - noise, batch.checkpoints[0] / 3.0)

    def test_ideal_large_horizon_limit(self):
        # the path-matching term theta0*lambda/(2T) vanishes as T grows
        g = fig2_target(2)
        _, ideal, noise = one_step(g, "ideal_corrected", dt=1e12)
        _, exact, _ = one_step(g, dt=1e12)
        x0 = ideal.checkpoints[0]
        np.testing.assert_allclose(ideal.samples - x0 - noise, exact.samples - x0 - noise, rtol=1e-9)


class TestEmStep:
    def test_unit_noise_scaling(self):
        # a step minus the noise-free Euler step from its state 0 is the
        # noise: sqrt(2 dt gamma) xi in every drift mode, without the
        # path-matching term
        g = fig2_target(2)
        gam = PowerLaw(1.0, 1.5)
        n = 4096
        for mode in ("exact", "ideal_corrected"):
            cfg, batch, _ = one_step(g, mode, dt=0.5, gamma=gam, n=n, seed=5)
            noise = batch.samples - euler_step(cfg, g, batch.checkpoints[0])
            ratio = noise.var(axis=0) / (2 * 0.5 * gam.eigenvalues(2))
            assert np.all(np.abs(ratio - 1.0) < 5 * math.sqrt(2.0 / n)), (mode, ratio)

    def test_nonfinite_drift_rejected(self):
        # a drift that overflows on the first step is reported at step 0, on
        # the first chain, before the state carries an inf forward
        g = single_gaussian(d=1, var=1e-6)
        cfg = ALDConfig(
            dim=1,
            schedule=make_schedule(3, 1e306, 1e-9),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1e-9),
            init_mixture=DiagGMM(weights=(1.0,), means=[[1.0]], variances=[[1e-4]]),
        )
        with pytest.raises(ChainDivergenceError, match="at step 0") as err:
            run_chains(cfg, g, 8, seed=1)
        assert (err.value.chain, err.value.step) == (0, 0)


class TestRunChains:
    def test_one_step_is_euler_plus_block_noise(self):
        # every drift mode steps with the preconditioned score of its smoothed
        # drift mixture and adds sqrt(2 dt gamma) xi, bit for bit;
        # ideal_corrected adds theta0*lambda/(2T) to the preconditioner
        g = fig2_target(2)
        pert = MixturePerturbation(dvar=PowerLaw(1.0, 3.5))
        for mode in ("exact", "misspecified", "ideal_corrected"):
            cfg, batch, noise = one_step(g, mode, pert if mode == "misspecified" else None)
            expect = euler_step(cfg, g, batch.checkpoints[0]) + noise
            np.testing.assert_array_equal(batch.samples, expect, err_msg=mode)

    def test_determinism_and_chain_count_stability(self):
        g = fig2_target(3)
        cfg = ALDConfig(
            dim=3,
            schedule=make_schedule(50, 9e-3, 20.0),
            gamma=PowerLaw(1.0, 1.5),
            c_base=PowerLaw(1.0, 2.7),
        )
        a = run_chains(cfg, g, 700, seed=11)
        b = run_chains(cfg, g, 700, seed=11)
        np.testing.assert_array_equal(a.samples, b.samples)
        # rows are independent of how many chains were requested
        c = run_chains(cfg, g, 600, seed=11)
        np.testing.assert_array_equal(a.samples[:600], c.samples)

    def test_level_slabs_do_not_change_bits(self, monkeypatch):
        # the step loop builds its level constants a slab of levels at a time;
        # one level per slab gives the same chains as the default slabs
        g = fig2_target(3)
        cfg = ALDConfig(
            dim=3,
            schedule=make_schedule(50, 9e-3, 20.0),
            gamma=PowerLaw(1.0, 1.5),
            c_base=PowerLaw(1.0, 2.7),
        )
        a = run_chains(cfg, g, 100, seed=4, checkpoints=(17,))
        monkeypatch.setattr(engine, "_LEVEL_ELEMS", 1)
        b = run_chains(cfg, g, 100, seed=4, checkpoints=(17,))
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.checkpoints[17], b.checkpoints[17])

    def test_each_block_draws_its_own_noise_per_step(self):
        # block b's generator, seeded by (seed, b), draws the block's init
        # sample and then one (BLOCK_SIZE, d) standard normal per step, one row
        # per chain; a step is x + dt * (pre * score) + sqrt(2 dt gamma) * xi,
        # bit for bit
        g = fig2_target(3)
        cfg = ALDConfig(
            dim=3,
            schedule=make_schedule(6, 0.05, 20.0),
            gamma=PowerLaw(1.0, 1.5),
            c_base=PowerLaw(1.0, 2.7),
        )
        sched = cfg.schedule
        pre = cfg.gamma.eigenvalues(3)
        rngs = [engine._block_rng(8, b) for b in (0, 1)]
        x = np.concatenate([smooth(g, cfg.c_base, sched.theta0).sample(engine.BLOCK_SIZE, r) for r in rngs])
        for k in range(sched.n_steps - 1):
            xi = np.concatenate([r.standard_normal((engine.BLOCK_SIZE, 3)) for r in rngs])
            s = smooth(g, cfg.c_base, sched.theta(k)).score(x)
            x = x + sched.dt * (pre * s) + np.sqrt(2.0 * sched.dt * pre) * xi
        np.testing.assert_array_equal(run_chains(cfg, g, 700, seed=8).samples, x[:700])

    def test_state_slabs_and_noise_chunks_do_not_change_bits(self, monkeypatch):
        # the default steps a slab of blocks as one state and draws its noise a
        # chunk of steps ahead; one block per slab and one step per chunk give
        # the same chains. At d = 3, 49 steps are not a whole number of default
        # chunks; at d = 25 a slab holds two blocks, so a third starts a second.
        assert 49 % (engine._NOISE_ELEMS // (3 * 5 * engine.BLOCK_SIZE)) != 0
        assert engine._STATE_ELEMS // (engine.BLOCK_SIZE * 25) == 2
        runs = []
        for d, n in ((3, 100), (3, 700), (3, 2500), (25, 1100)):
            cfg = ALDConfig(
                dim=d,
                schedule=make_schedule(50, 9e-3, 20.0),
                gamma=PowerLaw(1.0, 1.5),
                c_base=PowerLaw(1.0, 2.7),
            )
            runs.append((cfg, fig2_target(d), n))
        a = [run_chains(cfg, g, n, seed=4, checkpoints=(0, 17)) for cfg, g, n in runs]
        monkeypatch.setattr(engine, "_STATE_ELEMS", 1)
        monkeypatch.setattr(engine, "_NOISE_ELEMS", 1)
        b = [run_chains(cfg, g, n, seed=4, checkpoints=(0, 17)) for cfg, g, n in runs]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)
            for c in (0, 17):
                np.testing.assert_array_equal(x.checkpoints[c], y.checkpoints[c])

    def test_batch_arrays_are_read_only(self):
        batch = ChainBatch(samples=np.zeros((2, 1)), checkpoints={0: np.ones((2, 1))})
        for arr in (batch.samples, batch.checkpoints[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    def test_seed_changes_output(self):
        g = fig2_target(2)
        cfg = ALDConfig(
            dim=2,
            schedule=make_schedule(10, 9e-3, 20.0),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1.0),
        )
        a = run_chains(cfg, g, 32, seed=1)
        b = run_chains(cfg, g, 32, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_final_drift_level_is_second_to_last(self):
        # steps k = 0..N-2 use levels theta_k; the state ends at level 0
        g = single_gaussian()
        sched = make_schedule(3, 0.1, 1.0)
        cfg = ALDConfig(
            dim=1,
            schedule=sched,
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1.0),
        )
        batch = run_chains(cfg, g, 8, seed=5, checkpoints=(0, 1))
        noise = np.sqrt(2.0 * 0.1) * block_noise(smooth(g, PowerLaw(1.0), 2.0), 5, 8, 2)
        x0 = batch.checkpoints[0]
        x1 = batch.checkpoints[1]
        np.testing.assert_allclose(x1, x0 + 0.1 * smooth(g, PowerLaw(1.0), 2.0).score(x0) + noise[0])
        np.testing.assert_allclose(
            batch.samples, x1 + 0.1 * smooth(g, PowerLaw(1.0), 1.0).score(x1) + noise[1]
        )

    def test_single_gaussian_tracks_ou_moments(self):
        # exact drift on a single Gaussian stays Gaussian: compare against the
        # per-coordinate discrete variance recursion
        g = single_gaussian(d=2, var=1.0)
        sched = make_schedule(400, 9e-3, 10.0)
        cfg = ALDConfig(
            dim=2,
            schedule=sched,
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1.0),
        )
        batch = run_chains(cfg, g, 4096, seed=17)
        v = 1.0 + sched.theta0  # smoothed init variance
        for k in range(sched.n_steps - 1):
            vt = 1.0 + sched.levels[k]
            a = 1.0 - sched.dt / vt
            v = a * a * v + 2.0 * sched.dt
        emp = batch.samples.var(axis=0)
        se = v * math.sqrt(2.0 / batch.samples.shape[0])
        assert np.all(np.abs(emp - v) < 5 * se)
        assert np.all(np.abs(batch.samples.mean(axis=0)) < 5 * math.sqrt(v / batch.samples.shape[0]))

    def test_preconditioner_rescales_clock(self):
        # gamma = c*I with dt' = dt/c matches the base run distributionally
        g = single_gaussian(d=1)
        base = ALDConfig(
            dim=1,
            schedule=make_schedule(300, 9e-3, 10.0),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1.0),
        )
        scaled = ALDConfig(
            dim=1,
            schedule=make_schedule(300, 3e-3, 10.0),
            gamma=PowerLaw(3.0),
            c_base=PowerLaw(1.0),
        )
        a = run_chains(base, g, 4096, seed=23).samples
        b = run_chains(scaled, g, 4096, seed=23).samples
        assert abs(a.mean() - b.mean()) < 0.1
        assert abs(a.var() - b.var()) / a.var() < 0.05

    def test_divergence_reports_chain_and_step(self):
        g = single_gaussian(d=1, var=1e-6)  # dt/v >> 2: unstable
        cfg = ALDConfig(
            dim=1,
            schedule=make_schedule(4000, 0.5, 1e-9),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1e-9),
        )
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 8, seed=1)
        assert err.value.step >= 0 and err.value.chain >= 0

    def test_divergence_in_second_block_names_chain_and_step(self):
        # block 1 draws a chain from the far init component, which grows until
        # its square overflows; block 0 draws none and finishes. The einsum
        # kernel this replaced reported the same chain and step.
        g = single_gaussian(d=1, var=1e-3)
        cfg = far_init_config()
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 700, seed=11)
        assert (err.value.chain, err.value.step) == (545, 5)
        run_chains(cfg, g, 512, seed=11)  # block 0 alone stays finite

    def test_only_requested_chains_can_diverge(self):
        # with seed 4 the lowest chain drawn from the far component is 914 (row
        # 402 of block 1): a run that stops short of it finishes, although that
        # padding column goes non-finite, and a run that includes it names it
        g = single_gaussian(d=1, var=1e-3)
        cfg = far_init_config()
        for n in (600, 700, 914):
            assert np.isfinite(run_chains(cfg, g, n, seed=4).samples).all()
        for n in (915, 1024):
            with pytest.raises(ChainDivergenceError) as err:
                run_chains(cfg, g, n, seed=4)
            assert (err.value.chain, err.value.step) == (914, 5)

    def test_noise_handoff_keeps_bits_under_thread_pressure(self, monkeypatch):
        # one step per chunk hands every step's noise from the worker thread to
        # the stepping thread; with two busy Python threads on two cores and a
        # short switch interval, the chains keep the bits of an undisturbed run
        g = fig2_target(3)
        cfg = ALDConfig(
            dim=3,
            schedule=make_schedule(60, 9e-3, 20.0),
            gamma=PowerLaw(1.0, 1.5),
            c_base=PowerLaw(1.0, 2.7),
        )
        want = run_chains(cfg, g, 1100, seed=6, checkpoints=(31,))
        monkeypatch.setattr(engine, "_NOISE_ELEMS", 1)
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                pass

        spinners = [threading.Thread(target=spin) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in spinners:
                t.start()
            got = run_chains(cfg, g, 1100, seed=6, checkpoints=(31,))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for t in spinners:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in spinners)
        np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(got.checkpoints[31], want.checkpoints[31])

    def test_divergence_names_first_step_of_the_slab(self):
        # both blocks of a d = 1 run are one slab. With seed 33, block 0 draws
        # chain 63 from the component at 1e134, which overflows at step 7, and
        # block 1 draws chain 569 from the one at 1e140, which overflows at step
        # 5: the error names the chain that is non-finite first
        g = single_gaussian(d=1, var=1e-3)
        init = DiagGMM(
            weights=(0.998, 0.001, 0.001), means=[[0.0], [1e134], [1e140]], variances=[[1e-2]] * 3
        )
        cfg = dataclasses.replace(far_init_config(), init_mixture=init)
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 512, seed=33)
        assert (err.value.chain, err.value.step) == (63, 7)
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 1024, seed=33)
        assert (err.value.chain, err.value.step) == (569, 5)

    def test_divergence_in_a_later_noise_chunk_names_chain_and_step(self):
        # d = 25 with two blocks in one slab: with seed 4, chain 914 (row 402 of
        # block 1) starts at 1e132 and grows 10x per step until it overflows at
        # step 21, inside the third noise chunk and not at its first step,
        # whether a chunk is 5 or 10 steps long
        g = single_gaussian(d=25, var=1e-3)
        means = np.zeros((2, 25))
        means[1, 0] = 1e132
        init = DiagGMM(weights=(0.999, 0.001), means=means, variances=np.full((2, 25), 1e-2))
        cfg = ALDConfig(
            dim=25,
            schedule=make_schedule(40, 0.011, 1e-9),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1e-9),
            init_mixture=init,
        )
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 1000, seed=4, checkpoints=(30,))
        assert (err.value.chain, err.value.step) == (914, 21)
        assert np.isfinite(run_chains(cfg, g, 914, seed=4).samples).all()

    def test_no_thread_outlives_the_call(self):
        # the noise thread is joined on return and on a divergence, so a
        # fork-based worker pool never forks a process that holds it
        g = single_gaussian(d=1, var=1e-3)
        cfg = far_init_config()
        before = threading.active_count()
        run_chains(cfg, g, 512, seed=11)
        assert threading.active_count() == before
        with pytest.raises(ChainDivergenceError):
            run_chains(cfg, g, 700, seed=11)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_multi_slab_call(self, monkeypatch):
        # one block per slab: each slab starts and joins its own noise
        # thread, also when a later slab diverges, and the divergence names
        # the chain and step of the default one-slab run
        g = single_gaussian(d=1, var=1e-3)
        cfg = far_init_config()
        monkeypatch.setattr(engine, "_STATE_ELEMS", 1)
        before = threading.active_count()
        assert np.isfinite(run_chains(cfg, g, 914, seed=4).samples).all()
        assert threading.active_count() == before
        with pytest.raises(ChainDivergenceError) as err:
            run_chains(cfg, g, 1100, seed=4)
        assert (err.value.chain, err.value.step) == (914, 5)
        assert threading.active_count() == before

    def test_failed_draw_raises_engine_error_on_either_thread(self, monkeypatch):
        # a chunk draw that raises on the worker or on the stepping thread
        # surfaces as one EngineError chained from the cause, and the worker
        # is joined; the thread that does not fail draws slowly, so that the
        # failing one claims a task
        class DrawFailed(Exception):
            pass

        class Draws:
            def __init__(self, rng, fail_on_worker):
                self._rng = rng
                self._fail_on_worker = fail_on_worker

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, size=None, out=None):
                if out is None:  # the init sample
                    return self._rng.standard_normal(size)
                on_worker = threading.current_thread() is not threading.main_thread()
                if on_worker == self._fail_on_worker:
                    raise DrawFailed
                time.sleep(0.05)
                return self._rng.standard_normal(out=out)

        g = single_gaussian(d=1)
        cfg = ALDConfig(
            dim=1, schedule=make_schedule(20, 9e-3, 20.0), gamma=PowerLaw(1.0), c_base=PowerLaw(1.0)
        )
        block_rng = engine._block_rng
        monkeypatch.setattr(engine, "_NOISE_ELEMS", 1)
        before = threading.active_count()
        for fail_on_worker in (True, False):
            monkeypatch.setattr(engine, "_block_rng", lambda seed, b: Draws(block_rng(seed, b), fail_on_worker))
            with pytest.raises(EngineError, match="a noise draw failed") as err:
                run_chains(cfg, g, 1024, seed=2)
            assert isinstance(err.value.__cause__, DrawFailed), fail_on_worker
            assert threading.active_count() == before

    def test_blas_threads_do_not_change_bits(self, tmp_path):
        # two blocks of 700 chains give the same bits on one BLAS thread and on two
        script = (
            "import sys, numpy as np\n"
            "from aldlab import ALDConfig, PowerLaw, make_schedule, run_chains\n"
            "from conftest import fig2_target\n"
            "cfg = ALDConfig(dim=25, schedule=make_schedule(20, 9e-3, 20.0),\n"
            "                gamma=PowerLaw(1.0, 1.5), c_base=PowerLaw(1.0, 2.7))\n"
            "np.save(sys.argv[1], run_chains(cfg, fig2_target(25), 700, seed=3).samples)\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, tests_dir, env.get("PYTHONPATH")) if p)
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
            runs.append(np.load(out))
        assert runs[0].shape == (700, 25) and np.all(np.isfinite(runs[0]))
        np.testing.assert_array_equal(runs[0], runs[1])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_core_keeps_bits_and_threads(self, tmp_path):
        # pinned to one CPU, the worker and the stepping thread take turns on
        # it; a two-block slab and a one-block slab give the bits of an
        # unpinned run, and no thread outlives the call
        script = (
            "import os, sys, threading, numpy as np\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from aldlab import ALDConfig, PowerLaw, make_schedule, run_chains\n"
            "from conftest import fig2_target\n"
            "cfg = ALDConfig(dim=25, schedule=make_schedule(50, 9e-3, 20.0),\n"
            "                gamma=PowerLaw(1.0, 1.5), c_base=PowerLaw(1.0, 2.7))\n"
            "before = threading.active_count()\n"
            "b = run_chains(cfg, fig2_target(25), 1100, seed=4, checkpoints=(0, 17))\n"
            "assert threading.active_count() == before\n"
            "assert len(os.sched_getaffinity(0)) == 1\n"
            "np.savez(sys.argv[1], samples=b.samples, c0=b.checkpoints[0], c17=b.checkpoints[17])\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, tests_dir, env.get("PYTHONPATH")) if p)
        out = tmp_path / "pinned.npz"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
        cfg = ALDConfig(
            dim=25,
            schedule=make_schedule(50, 9e-3, 20.0),
            gamma=PowerLaw(1.0, 1.5),
            c_base=PowerLaw(1.0, 2.7),
        )
        want = run_chains(cfg, fig2_target(25), 1100, seed=4, checkpoints=(0, 17))
        got = np.load(out)
        np.testing.assert_array_equal(got["samples"], want.samples)
        np.testing.assert_array_equal(got["c0"], want.checkpoints[0])
        np.testing.assert_array_equal(got["c17"], want.checkpoints[17])

    def test_init_exact_smoothed_moments(self):
        g = fig2_target(2)
        c = PowerLaw(1.0, 2.7)
        pts = smooth(g, c, 40.0).sample(60_000, np.random.default_rng(2))
        sm = smooth(g, c, 40.0)
        w = sm.weights
        mean = w @ sm.means
        second = w @ (sm.variances + sm.means**2)
        var = second - mean**2
        np.testing.assert_allclose(pts.mean(axis=0), mean, atol=5 * np.sqrt(var / 60_000).max())
        np.testing.assert_allclose(pts.var(axis=0), var, rtol=0.05)

    def test_init_theta0_zero_samples_target(self):
        g = fig2_target(2)
        a = smooth(g, PowerLaw(1.0), 0.0).sample(40, np.random.default_rng(3))
        b = g.sample(40, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_custom_mixture_init(self):
        g = fig2_target(2)
        wrong = DiagGMM(weights=(0.1, 0.9), means=g.means, variances=g.variances)
        cfg = ALDConfig(
            dim=2,
            schedule=make_schedule(2, 0.01, 20.0),
            gamma=PowerLaw(1.0),
            c_base=PowerLaw(1.0),
            init_mixture=wrong,
        )
        batch = run_chains(cfg, g, 4000, seed=9, checkpoints=(0,))
        frac = float(np.mean(batch.checkpoints[0][:, 0] > 5.0))
        assert abs(frac - 0.9) < 0.03

    def test_config_validation(self):
        g = fig2_target(2)
        sched = make_schedule(5, 0.01, 20.0)
        with pytest.raises(EngineError):
            ALDConfig(dim=2, schedule=sched, gamma=PowerLaw(1.0),
                      c_base=PowerLaw(1.0), drift_mode="misspecified")
        # only the misspecified drift reads a perturbation; another mode would run unperturbed chains
        for mode in ("exact", "ideal_corrected"):
            with pytest.raises(EngineError, match=f"drift mode '{mode}' ignores a perturbation"):
                ALDConfig(dim=2, schedule=sched, gamma=PowerLaw(1.0), c_base=PowerLaw(1.0),
                          drift_mode=mode, perturbation=MixturePerturbation(dweights=(-0.1, 0.1)))
        with pytest.raises(EngineError, match="init mixture has dim 2, config dim 3"):
            ALDConfig(dim=3, schedule=sched, gamma=PowerLaw(1.0),
                      c_base=PowerLaw(1.0), init_mixture=g)
        cfg = ALDConfig(dim=3, schedule=sched, gamma=PowerLaw(1.0),
                        c_base=PowerLaw(1.0))
        with pytest.raises(EngineError):
            run_chains(cfg, g, 10, seed=1)  # target dim mismatch


@pytest.mark.slow
def test_fig2_green_full_constants_d5():
    # full-scale-constant run at d=5 lands close to the target law
    g = fig2_target(5)
    cfg = ALDConfig(
        dim=5,
        schedule=make_schedule(20000, 9e-3, 20.0),
        gamma=PowerLaw(1.0, 1.5),
        c_base=PowerLaw(1.0, 2.7),
    )
    batch = run_chains(cfg, g, 2500, seed=41)
    target_pts = g.sample(2500, np.random.default_rng(42))
    est = knn_kl(target_pts, batch.samples, 20)
    assert est.value <= 0.5
