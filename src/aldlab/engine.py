"""Time-inhomogeneous preconditioned Langevin simulation.

The sampler follows the Euler--Maruyama iteration

    X_{k+1} = X_k + dt * G_k(X_k) + sqrt(2 dt gamma) xi_k,    xi_k ~ N(0, I),

for k = 0 .. N-2, where ``G_k = gamma * s_k`` is the preconditioned score of
the target smoothed at level ``theta_k`` (or the corrected drift in
``ideal_corrected`` mode, which already includes the preconditioner). The
smoothing levels follow the linear schedule ``theta_k = 2S (1 - k/(N-1))``,
so the run starts at level ``2S`` and the final state sits at level 0.

Chains are deterministic given ``(seed, chain index, config)``: chains are
grouped into fixed-size blocks and block ``b`` draws from a generator seeded
by ``(seed, b)``: first its init sample, then one ``(BLOCK_SIZE, d)`` noise
draw per step, one row per chain, with full-block draw shapes even when the
last block is partially filled. Results are therefore independent of worker
count, execution order, and the total number of chains requested.

``run_chains`` steps slabs of consecutive blocks as one ``(d, width)`` state,
one column per chain. A slab holds as many blocks as its noise buffers can
hold one step of, ``_NOISE_ELEMS // (_NOISE_BUFS * BLOCK_SIZE * d)`` = 256 // d
and one at least: 2500 chains (five blocks) are one slab up to d = 51, and
slabs of at most 4, 3 and 2 blocks at d = 52-64, 65-85 and 86-128; from
d = 129 up a slab is one block. A slab builds its level constants and kernel
scratch once.

A slab's noise is a set of (chunk, block) draw tasks: task (c, j) draws the
c-th chunk of steps from block j's generator, after chunk c - 1, so every
block still draws its normals in step order. Each slab starts one worker
thread when its step loop begins and joins it when the loop returns or
raises. The worker takes the tasks in order, up to a few chunks ahead of the
step. The calling thread, when the chunk it needs is not ready, draws the
first task that can start instead of waiting; on one core the two threads
take turns. A draw that fails on either thread raises ``EngineError``. The
calling thread scales each step's normals into a contiguous ``(d, width)``
array and adds it. Neither the slab width, nor the chunk length, nor the
thread that draws a task changes a bit.

Slabs run in order, and a ``ChainDivergenceError`` names the lowest
requested chain that is non-finite at the first step where any requested
chain of its slab is non-finite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mixture import (
    DiagGMM,
    MixturePerturbation,
    ScoreWork,
    apply_perturbation,
    level_constants,
    score_step,
    smooth,
)
from .spectra import PowerLaw

BLOCK_SIZE = 512
# Cap on the smoothed variances (levels x K x d) per slab of level constants:
# a slab's constants (coef and its halved copy) take about 4x this many floats.
_LEVEL_ELEMS = 2**15
# Cap on the elements (steps x d x width) of a slab's noise buffers together;
# it also sets the slab width, as many blocks as the buffers hold one step of.
_NOISE_ELEMS = 2**19
# Noise buffers of a slab, so that the threads can draw up to three chunks
# ahead of the step.
_NOISE_BUFS = 4


class EngineError(RuntimeError):
    """Raised for invalid simulation parameters."""


class ChainDivergenceError(EngineError):
    """Raised when a chain state becomes non-finite."""

    def __init__(self, chain: int, step: int):
        self.chain = chain
        self.step = step
        super().__init__(
            f"chain {chain} diverged (non-finite state) at step {step}; "
            "consider a smaller dt"
        )


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear smoothing schedule theta_k = 2S (1 - k/(N-1)), k = 0..N-1."""

    n_steps: int
    dt: float
    s_half: float

    def __post_init__(self):
        if self.n_steps < 2:
            raise EngineError(f"n_steps must be >= 2, got {self.n_steps}")
        if not self.dt > 0:
            raise EngineError(f"dt must be positive, got {self.dt}")
        if not self.s_half > 0:
            raise EngineError(f"s_half must be positive, got {self.s_half}")

    @cached_property
    def levels(self) -> np.ndarray:
        """All smoothing levels theta_0 .. theta_{N-1} (theta_{N-1} = 0)."""
        k = np.arange(self.n_steps, dtype=float)
        out = 2.0 * self.s_half * (1.0 - k / (self.n_steps - 1))
        out[-1] = 0.0
        out.setflags(write=False)
        return out

    def theta(self, k: int) -> float:
        return float(self.levels[k])

    def kappa(self, k: int) -> float:
        """Annealing fraction (N-1-k)/(N-1) = theta_k / theta_0."""
        return float(self.n_steps - 1 - k) / float(self.n_steps - 1)

    @property
    def theta0(self) -> float:
        return 2.0 * self.s_half

    @property
    def t_horizon(self) -> float:
        return (self.n_steps - 1) * self.dt


def make_schedule(n_steps: int, dt: float, s_half: float) -> AnnealSchedule:
    return AnnealSchedule(n_steps=int(n_steps), dt=float(dt), s_half=float(s_half))


@dataclass(frozen=True)
class ALDConfig:
    """Everything that defines one annealed Langevin run except the target.

    ``drift_mode`` is "exact", "misspecified" (requires ``perturbation``,
    which no other mode takes) or "ideal_corrected". Chains start from
    ``init_mixture``, sampled as given without smoothing, when one is given,
    and from the target smoothed to level ``theta_0`` otherwise.
    """

    dim: int
    schedule: AnnealSchedule
    gamma: PowerLaw
    c_base: PowerLaw
    drift_mode: str = "exact"
    perturbation: MixturePerturbation | None = None
    init_mixture: DiagGMM | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise EngineError(f"dim must be >= 1, got {self.dim}")
        if self.drift_mode not in ("exact", "misspecified", "ideal_corrected"):
            raise EngineError(f"unknown drift mode {self.drift_mode!r}")
        if self.drift_mode == "misspecified" and self.perturbation is None:
            raise EngineError("misspecified drift mode needs a perturbation")
        if self.drift_mode != "misspecified" and self.perturbation is not None:
            raise EngineError(
                f"drift mode {self.drift_mode!r} ignores a perturbation; "
                "a perturbation needs drift_mode = 'misspecified'"
            )
        if self.init_mixture is not None and self.init_mixture.dim != self.dim:
            raise EngineError(f"init mixture has dim {self.init_mixture.dim}, config dim {self.dim}")
        if np.any(self.gamma.eigenvalues(self.dim) <= 0) or np.any(
            self.c_base.eigenvalues(self.dim) <= 0
        ):
            raise EngineError("preconditioner and smoothing eigenvalues must be positive")


@dataclass(frozen=True)
class ChainBatch:
    """Final chain states and the states recorded at the requested checkpoints."""

    samples: np.ndarray
    checkpoints: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        checkpoints = {c: np.asarray(a, dtype=float) for c, a in self.checkpoints.items()}
        object.__setattr__(self, "checkpoints", checkpoints)
        for arr in (self.samples, *self.checkpoints.values()):
            arr.setflags(write=False)


# -- chain execution ------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(block))))


class _SlabNoise:
    """One slab's standard normals, drawn as (chunk, block) tasks by two threads.

    Block j's generator draws one ``(BLOCK_SIZE, d)`` standard normal per
    step, one row per chain as the init sample. The task ``(c, j)`` draws
    chunk ``c`` of block j, its next ``chunk`` steps, as one
    ``(steps, BLOCK_SIZE, d)`` draw, which has the bits of one draw per step,
    into block j's part of a ``(blocks, chunk, BLOCK_SIZE, d)`` buffer. A
    task can start once the block's previous chunk is drawn and a buffer is
    free; the first task in (chunk, block) order that can start is the next
    one claimed, by the worker thread or by the stepping thread while it
    waits in ``take``. The worker thread runs from ``__enter__`` to
    ``__exit__``.
    """

    def __init__(self, rngs: list, d: int, n_steps: int):
        steps = _NOISE_ELEMS // (_NOISE_BUFS * len(rngs) * BLOCK_SIZE * d)
        self.chunk = min(n_steps, max(1, steps))
        self.n_chunks = -(-n_steps // self.chunk)
        self._n_steps = n_steps
        self._rngs = rngs
        shape = (len(rngs), self.chunk, BLOCK_SIZE, d)
        self._bufs = [np.empty(shape) for _ in range(min(_NOISE_BUFS, self.n_chunks))]
        self._claimed = [0] * len(rngs)  # chunks of each block claimed
        self._drawn = [0] * len(rngs)  # chunks of each block drawn
        self._freed = 0  # the stepping thread is done with the chunks below this
        self._stopped = False
        self._error = None  # a failed draw, on either thread
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._draw_ahead, name="aldlab-noise", daemon=True)

    def __enter__(self) -> "_SlabNoise":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join()

    def _claim(self):
        """Claim the first task that can start and return it as ``(c, j)``, or None; lock held."""
        limit = min(self.n_chunks, self._freed + len(self._bufs))
        task = None
        for j, c in enumerate(self._claimed):
            if c < limit and c == self._drawn[j] and (task is None or c < task[0]):
                task = (c, j)
        if task is not None:
            self._claimed[task[1]] += 1
        return task

    def _draw(self, task) -> None:
        """Draw a claimed task; a failure is kept in ``_error``.

        The lock is held on entry and exit, not during the draw.
        """
        c, j = task
        n = min(self.chunk, self._n_steps - c * self.chunk)
        self._cond.release()
        try:
            self._rngs[j].standard_normal(out=self._bufs[c % len(self._bufs)][j, :n])
        except Exception as exc:
            self._error = exc
        finally:
            self._cond.acquire()
        self._drawn[j] += 1
        self._cond.notify_all()

    def _draw_ahead(self) -> None:
        """The worker's part: draw tasks in order until all are claimed, a draw fails or the slab ends."""
        with self._cond:
            while not self._stopped and self._error is None and min(self._claimed) < self.n_chunks:
                task = self._claim()
                if task is None:
                    self._cond.wait()
                else:
                    self._draw(task)

    def take(self, c: int) -> np.ndarray:
        """Chunk ``c``'s normals, ``(blocks, steps, BLOCK_SIZE, d)``, once every block has drawn it.

        Frees the buffer of chunk ``c - 1``, and while the chunk is not ready
        draws the first task that can start, if any, instead of waiting.
        """
        with self._cond:
            self._freed = c
            self._cond.notify_all()
            while min(self._drawn) <= c and self._error is None:
                task = self._claim()
                if task is None:
                    self._cond.wait()
                else:
                    self._draw(task)
            if self._error is not None:
                raise EngineError("a noise draw failed") from self._error
        return self._bufs[c % len(self._bufs)][:, : min(self.chunk, self._n_steps - c * self.chunk)]


def _run_slab(
    config: ALDConfig,
    target: DiagGMM,
    seed: int,
    blocks: range,
    n_rows: int,
    checkpoints: tuple,
) -> tuple[np.ndarray, dict]:
    """Step ``blocks`` as one (d, width) state, one column per chain; return the first ``n_rows`` chains."""
    d = config.dim
    sched = config.schedule
    rngs = [_block_rng(seed, b) for b in blocks]

    init_gmm = config.init_mixture
    if init_gmm is None:
        init_gmm = smooth(target, config.c_base, sched.theta0)
    xt = np.empty((d, len(blocks) * BLOCK_SIZE))
    xs = xt.reshape(d, len(blocks), BLOCK_SIZE)  # a view: block j's chains are xs[:, j]
    for j, rng in enumerate(rngs):
        xs[:, j] = init_gmm.sample(BLOCK_SIZE, rng).T

    drift_gmm = target
    if config.drift_mode == "misspecified":
        drift_gmm = apply_perturbation(target, config.perturbation)
    means = drift_gmm.means
    base_vars = drift_gmm.variances
    log_w = np.log(drift_gmm.weights)
    lam = config.c_base.eigenvalues(d)
    gam = config.gamma.eigenvalues(d)
    if config.drift_mode == "ideal_corrected":
        pre = gam + sched.theta0 * lam / (2.0 * sched.t_horizon)
    else:
        pre = gam
    # per-coordinate factors as full (d, width) arrays: a contiguous operand
    # is faster than a broadcast (d, 1) one from d = 5 up
    pre = np.broadcast_to(pre[:, None], xt.shape).copy()
    levels = sched.levels
    dt = sched.dt
    n_steps = sched.n_steps - 1
    slab = max(1, _LEVEL_ELEMS // base_vars.size)

    noise_std = np.broadcast_to(np.sqrt(2.0 * dt * gam)[:, None, None], xs.shape).copy()
    finite = np.empty(xt.shape, dtype=bool)
    saved = {}
    if 0 in checkpoints:
        saved[0] = xt[:, :n_rows].T.copy()
    # overflow of a diverging state is detected right after the step
    with _SlabNoise(rngs, d, n_steps) as noise, np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, slab):
            hi = min(n_steps, lo + slab)
            center, coef, half, offset = level_constants(
                means, base_vars + levels[lo:hi, None, None] * lam, log_w
            )
            if lo == 0:
                work = ScoreWork(xt.shape[1], center, base_vars.shape[0])
            for k in range(lo, hi):
                if k % noise.chunk == 0:
                    xi = noise.take(k // noise.chunk)
                # x + dt * (pre * s) + noise_std * xi in place, in this order, so a
                # step is x + dt * (pre * DiagGMM.score(x)) + noise_std * xi bit for bit
                s = score_step(xt, coef[k - lo], half[k - lo], offset[k - lo], work)
                s *= pre
                s *= dt
                xt += s
                # the scaled noise goes to the score's array, free until the next step
                np.multiply(xi[:, k % noise.chunk].transpose(2, 0, 1), noise_std, out=s.reshape(xs.shape))
                xt += s
                if not np.isfinite(xt, out=finite)[:, :n_rows].all():
                    row = int(np.flatnonzero(~finite[:, :n_rows].all(axis=0))[0])
                    raise ChainDivergenceError(chain=blocks[0] * BLOCK_SIZE + row, step=k)
                if (k + 1) in checkpoints:
                    saved[k + 1] = xt[:, :n_rows].T.copy()
    return xt[:, :n_rows].T, saved


def run_chains(
    config: ALDConfig,
    target: DiagGMM,
    n_chains: int,
    seed: int,
    checkpoints: tuple = (),
) -> ChainBatch:
    """Run ``n_chains`` annealed Langevin chains to the end of the schedule.

    ``checkpoints`` lists state indices to record along the way (state s is
    the state after s steps; state 0 is the initialization).

    Slabs of up to ``256 // d`` blocks (one at least) run in order. A
    ``ChainDivergenceError`` names the lowest requested chain that is
    non-finite at the first step where any requested chain of its slab is
    non-finite. Each slab's noise thread is joined before the slab returns or
    raises.
    """
    if n_chains < 1:
        raise EngineError(f"n_chains must be >= 1, got {n_chains}")
    if target.dim != config.dim:
        raise EngineError(f"target has dim {target.dim}, config dim {config.dim}")
    cps = tuple(sorted(set(int(c) for c in checkpoints)))
    if any(c < 0 or c >= config.schedule.n_steps for c in cps):
        raise EngineError(f"checkpoints must lie in [0, {config.schedule.n_steps - 1}]")

    out = np.empty((n_chains, config.dim))
    saved = {c: np.empty((n_chains, config.dim)) for c in cps}
    n_blocks = (n_chains + BLOCK_SIZE - 1) // BLOCK_SIZE
    per_slab = max(1, _NOISE_ELEMS // (_NOISE_BUFS * BLOCK_SIZE * config.dim))
    for b in range(0, n_blocks, per_slab):
        blocks = range(b, min(n_blocks, b + per_slab))
        lo = b * BLOCK_SIZE
        hi = min(n_chains, blocks.stop * BLOCK_SIZE)
        out[lo:hi], slab_saved = _run_slab(config, target, seed, blocks, hi - lo, cps)
        for c, states in slab_saved.items():
            saved[c][lo:hi] = states
    return ChainBatch(samples=out, checkpoints=saved)
