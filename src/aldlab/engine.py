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
one column per chain. The width is capped at ``_STATE_ELEMS`` state elements
(one block at least), so a slab holds 64 blocks at d = 1 and one block from
d = 33 up. A slab builds its level constants, kernel scratch and
finiteness check once. One worker thread, started and joined inside each
``run_chains`` call, draws every block's noise for the next chunk of steps
while the calling thread steps the current chunk; a chunk that the worker
has not started when it is due is drawn by the calling thread. Neither the
slab width, nor the chunk length, nor the thread that draws a chunk changes a
bit. Slabs run in order, and a
``ChainDivergenceError`` names the lowest requested chain that is non-finite
at the first step where any requested chain of its slab is non-finite.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
# a slab's constants take about 2x this many floats.
_LEVEL_ELEMS = 2**16
# Cap on the state elements (d x width) of a slab of blocks stepped as one
# state; a slab is one block at least, so from d = 33 up it is one block.
_STATE_ELEMS = 2**15
# Cap on the elements (blocks x steps x BLOCK_SIZE x d) of each of a slab's
# two noise buffers.
_NOISE_ELEMS = 2**18


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
        arr = np.asarray(self.samples, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)


# -- chain execution ------------------------------------------------------


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(block))))


def _noise(pool, rngs: list, noise_std: np.ndarray, n_steps: int):
    """Yield the noise ``noise_std * xi`` of each step, a (d, blocks, BLOCK_SIZE) view.

    Block j's generator draws one ``(BLOCK_SIZE, d)`` standard normal per
    step, one row per chain as the init sample. A chunk of ``m`` steps is one
    ``(m, BLOCK_SIZE, d)`` draw, which has the bits of ``m`` draws one after
    another. ``pool`` draws the next chunk into one buffer while the caller
    steps with the other.
    """
    d = noise_std.shape[0]
    chunk = max(1, min(n_steps, _NOISE_ELEMS // (d * len(rngs) * BLOCK_SIZE)))
    shape = (len(rngs), chunk, BLOCK_SIZE, d)
    bufs = [np.empty(shape) for _ in range(1 if chunk == n_steps else 2)]

    def fill(buf, m):
        for j, rng in enumerate(rngs):
            rng.standard_normal(out=buf[j, :m])
            buf[j, :m] *= noise_std
        return buf[:, :m].transpose(1, 3, 0, 2)

    args = (bufs[0], chunk)
    pending = pool.submit(fill, *args)
    for i, lo in enumerate(range(0, n_steps, chunk)):
        # a chunk that the worker has not started, say for want of a free core, is drawn here
        ready = fill(*args) if pending.cancel() else pending.result()
        nxt = lo + chunk
        if nxt < n_steps:
            args = (bufs[(i + 1) % 2], min(chunk, n_steps - nxt))
            pending = pool.submit(fill, *args)
        yield from ready


def _run_slab(
    config: ALDConfig,
    target: DiagGMM,
    seed: int,
    blocks: range,
    n_rows: int,
    checkpoints: tuple,
    noise_scale: float,
    pool: ThreadPoolExecutor,
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
    pre = pre[:, None]
    levels = sched.levels
    dt = sched.dt
    n_steps = sched.n_steps - 1
    slab = max(1, _LEVEL_ELEMS // base_vars.size)

    work = ScoreWork(xt.shape[1], d, base_vars.shape[0])
    finite = np.empty(xt.shape, dtype=bool)
    saved = {}
    if 0 in checkpoints:
        saved[0] = xt[:, :n_rows].T.copy()
    noise = _noise(pool, rngs, np.sqrt(2.0 * dt * gam) * noise_scale, n_steps)
    # overflow of a diverging state is detected right after the step
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, slab):
            hi = min(n_steps, lo + slab)
            center, coef, offset = level_constants(
                means, base_vars + levels[lo:hi, None, None] * lam, log_w
            )
            for k, xi in zip(range(lo, hi), noise):
                # x + dt * (pre * s) + noise_std * xi in place, in this order, so a
                # noise-free step is x + dt * (pre * DiagGMM.score(x)) bit for bit
                s = score_step(xt, center, coef[k - lo], offset[k - lo], work)
                s *= pre
                s *= dt
                xt += s
                xs += xi
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
    noise_scale: float = 1.0,
) -> ChainBatch:
    """Run ``n_chains`` annealed Langevin chains to the end of the schedule.

    ``checkpoints`` lists state indices to record along the way (state s is
    the state after s steps; state 0 is the initialization). ``noise_scale``
    rescales the injected noise and exists for diagnostics: 0 gives the
    deterministic Euler flow of the drift.

    Slabs of blocks run in order. A ``ChainDivergenceError`` names the
    lowest requested chain that is non-finite at the first step where any
    requested chain of its slab is non-finite. The noise thread is joined
    before this returns or raises.
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
    per_slab = max(1, _STATE_ELEMS // (BLOCK_SIZE * config.dim))
    with ThreadPoolExecutor(max_workers=1) as pool:
        for b in range(0, n_blocks, per_slab):
            blocks = range(b, min(n_blocks, b + per_slab))
            lo = b * BLOCK_SIZE
            hi = min(n_chains, blocks.stop * BLOCK_SIZE)
            rows, slab_saved = _run_slab(
                config, target, seed, blocks, hi - lo, cps, noise_scale, pool
            )
            out[lo:hi] = rows
            for c, states in slab_saved.items():
                saved[c][lo:hi] = states
    return ChainBatch(samples=out, checkpoints={c: _frozen(saved[c]) for c in cps})


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
