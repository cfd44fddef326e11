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
by ``(seed, b)``, with a fixed draw order and full-block draw shapes even
when the last block is partially filled. Results are therefore independent
of worker count, execution order, and the total number of chains requested.
"""

from __future__ import annotations

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


def _run_block(
    config: ALDConfig,
    target: DiagGMM,
    seed: int,
    block: int,
    n_rows: int,
    checkpoints: tuple,
    noise_scale: float,
) -> tuple[np.ndarray, dict]:
    d = config.dim
    sched = config.schedule
    rng = _block_rng(seed, block)

    init_gmm = config.init_mixture
    if init_gmm is None:
        init_gmm = smooth(target, config.c_base, sched.theta0)
    # the state is held transposed, (d, BLOCK_SIZE), one column per chain
    xt = np.ascontiguousarray(init_gmm.sample(BLOCK_SIZE, rng).T)

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
    noise_std = np.sqrt(2.0 * sched.dt * gam) * noise_scale
    levels = sched.levels
    dt = sched.dt
    n_steps = sched.n_steps - 1
    slab = max(1, _LEVEL_ELEMS // base_vars.size)

    work = ScoreWork(BLOCK_SIZE, d, base_vars.shape[0])
    noise = np.empty((BLOCK_SIZE, d))  # drawn one row per chain, as the init sample
    finite = np.empty((d, BLOCK_SIZE), dtype=bool)
    saved = {}
    if 0 in checkpoints:
        saved[0] = xt[:, :n_rows].T.copy()
    # overflow of a diverging state is detected right after the step
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, slab):
            hi = min(n_steps, lo + slab)
            center, coef, offset = level_constants(
                means, base_vars + levels[lo:hi, None, None] * lam, log_w
            )
            for k in range(lo, hi):
                # x + dt * (pre * s) + noise_std * xi in place, in this order, so a
                # noise-free step is x + dt * (pre * DiagGMM.score(x)) bit for bit
                s = score_step(xt, center, coef[k - lo], offset[k - lo], work)
                s *= pre
                s *= dt
                xt += s
                rng.standard_normal(out=noise)
                noise *= noise_std
                xt += noise.T
                if not np.isfinite(xt, out=finite)[:, :n_rows].all():
                    row = int(np.flatnonzero(~finite[:, :n_rows].all(axis=0))[0])
                    raise ChainDivergenceError(chain=block * BLOCK_SIZE + row, step=k)
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
    for b in range(n_blocks):
        lo = b * BLOCK_SIZE
        hi = min(n_chains, lo + BLOCK_SIZE)
        rows, block_saved = _run_block(
            config, target, seed, b, hi - lo, cps, noise_scale
        )
        out[lo:hi] = rows
        for c, states in block_saved.items():
            saved[c][lo:hi] = states
    return ChainBatch(samples=out, checkpoints={c: _frozen(saved[c]) for c in cps})


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr
