"""Flat, typed key-value experiment configuration.

The format is sections of ``key = value`` lines::

    [experiment]
    kind = fig2_bias_vs_dim

    [target]
    weights = 0.75, 0.25
    ...

    [variant green]
    gamma_exponent = 1.5
    cbase_exponent = 2.7
    ...

Unknown sections or keys are errors: a misspelled spectrum exponent must not
silently fall back to a default. Every spectrum of a variant is a power law
``scale * j**(-exponent)`` (a :class:`~aldlab.spectra.PowerLaw`) read from
its ``*_scale`` and ``*_exponent`` keys; exponent 0, the default, is a
constant spectrum. The preconditioner and smoothing scales must be positive
and no exponent may be negative; a perturbation scale may have either sign.
A variant's perturbation keys (``dsigma_scale``, ``dmean_scale``,
``dweights``) need ``drift = misspecified``: a key the variant would ignore
is an error. A non-empty ``init_weights`` (one weight per component) starts
the chains from the smoothed target with those weights instead of the
smoothed target itself. Each component's mean offset sits on coordinate 1,
and the step search stops at the largest ``step_grid`` point (each point is
a schedule of at least 2 steps). Values are typed per key (int, float, str,
or comma-separated lists); a float that is not finite is an error where it
is read. ``#`` starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .mixture import WEIGHT_TOL

EXPERIMENT_KINDS = (
    "fig1_steps_to_accuracy",
    "fig2_bias_vs_dim",
    "fig3_score_error",
    "knn_robustness",
    "bounds_report",
)

DEFAULT_STEP_GRID = (250, 500, 1000, 2000, 4000, 8000, 16000, 20000)


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


def _to_float(s: str) -> float:
    val = float(s)
    if not math.isfinite(val):
        raise ConfigError("must be finite")
    return val


def _to_float_list(s: str) -> tuple:
    return tuple(_to_float(tok) for tok in s.split(",") if tok.strip())


def _to_int_list(s: str) -> tuple:
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


@dataclass(frozen=True)
class TargetBlock:
    """The mixture family's four facts, as ``mixture.build_truncated_mixture`` takes them."""

    weights: tuple[float, ...] = (0.75, 0.25)
    mean_offsets: tuple[float, ...] = (0.0, 10.0)  # per-component scalar placed at coordinate 1
    var_exponent: float = 1.25  # the shared variance shape is j**(-var_exponent)
    var_scales: tuple[float, ...] = (1.0, 1.0)  # per-component tau multipliers


@dataclass(frozen=True)
class ScheduleBlock:
    n_steps: int = 20000
    dt: float = 9e-3
    s_half: float = 20.0


@dataclass(frozen=True)
class SamplingBlock:
    n_chains: int = 2500
    n_target_samples: int = 2500
    k_values: tuple[int, ...] = (20,)
    repeats: int = 3
    seed: int = 20251

    @property
    def k_primary(self) -> int:
        return self.k_values[0]


@dataclass(frozen=True)
class SweepBlock:
    d_values: tuple[int, ...] = ()
    epsilon: float = 0.3
    step_grid: tuple[int, ...] = DEFAULT_STEP_GRID


@dataclass(frozen=True)
class OutputBlock:
    csv: str = "results.csv"
    plot_script: str = ""


@dataclass(frozen=True)
class VariantBlock:
    """One curve of an experiment: spectra, drift mode, initialization."""

    name: str
    gamma_scale: float = 1.0
    gamma_exponent: float = 0.0
    cbase_scale: float = 1.0
    cbase_exponent: float = 0.0
    drift: str = "exact"
    dsigma_scale: float = 0.0
    dsigma_exponent: float = 0.0
    dmean_scale: float = 0.0
    dmean_exponent: float = 0.0
    dweights: tuple[float, ...] = ()
    init_weights: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    name: str
    target: TargetBlock
    schedule: ScheduleBlock
    sampling: SamplingBlock
    sweep: SweepBlock
    output: OutputBlock
    variants: tuple


_BLOCK_TYPES = {
    "target": TargetBlock,
    "schedule": ScheduleBlock,
    "sampling": SamplingBlock,
    "sweep": SweepBlock,
    "output": OutputBlock,
}

_PARSERS = {
    int: int,
    float: _to_float,
    str: str,
    tuple[float, ...]: _to_float_list,
    tuple[int, ...]: _to_int_list,
}


def _schema(block) -> dict:
    """Key -> value parser of one section, read off the block's field annotations."""
    hints = get_type_hints(block)
    # a variant's name comes from its section header, not from a key
    return {f.name: _PARSERS[hints[f.name]] for f in fields(block) if f.name != "name"}


_SCHEMAS = {
    "experiment": {"kind": str, "name": str},
    **{name: _schema(block) for name, block in _BLOCK_TYPES.items()},
    "variant": _schema(VariantBlock),
}


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    sections: dict = {}
    variant_keys: dict = {}  # variant name -> its keys, in file order
    current: dict | None = None
    current_name = where = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            word, *rest = header.split(None, 1) or [""]
            if word == "variant":
                vname = "".join(rest)
                if not vname:
                    raise ConfigError(f"{source}:{lineno}: variant section needs a name")
                if vname in variant_keys:
                    raise ConfigError(f"{source}:{lineno}: duplicate section [variant {vname}]")
                current_name, where = "variant", f"variant {vname!r}"
                current = variant_keys[vname] = {}
            else:
                if header not in _SCHEMAS:
                    raise ConfigError(f"{source}:{lineno}: unknown section [{header}]")
                if header in sections:
                    raise ConfigError(f"{source}:{lineno}: duplicate section [{header}]")
                current_name = where = header
                current = {}
                sections[header] = current
            continue
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        schema = _SCHEMAS[current_name]
        if key not in schema:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{current_name}]")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            current[key] = schema[key](value)
        except ConfigError as exc:  # a parsed value that fails its type's own check
            raise ConfigError(f"{source}:{lineno}: {where} {key} {exc}, got {value!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc

    exp = sections.get("experiment")
    if not exp or "kind" not in exp:
        raise ConfigError(f"{source}: missing [experiment] section with a 'kind' key")
    kind = exp["kind"]
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"{source}: unknown experiment kind {kind!r}")

    blocks = {}
    for bname, btype in _BLOCK_TYPES.items():
        blocks[bname] = btype(**sections.get(bname, {}))
    variants = tuple(VariantBlock(name=vname, **keys) for vname, keys in variant_keys.items())
    if not variants and kind != "bounds_report":
        variants = (VariantBlock(name="default"),)

    d_values = blocks["sweep"].d_values
    if not d_values:
        d_values = default_d_values(kind)
        blocks["sweep"] = replace(blocks["sweep"], d_values=d_values)
    _validate(kind, blocks, variants, source)
    return ExperimentConfig(
        experiment=kind,
        name=exp.get("name", kind),
        target=blocks["target"],
        schedule=blocks["schedule"],
        sampling=blocks["sampling"],
        sweep=blocks["sweep"],
        output=blocks["output"],
        variants=variants,
    )


def default_d_values(kind: str) -> tuple:
    if kind == "fig1_steps_to_accuracy":
        return tuple(range(1, 11)) + (12, 15, 20)
    if kind == "fig3_score_error":
        return (1,) + tuple(range(5, 76, 5))
    return (1,) + tuple(range(5, 66, 5))


def _validate(kind, blocks, variants, source):
    sweep = blocks["sweep"]
    if any(d < 1 for d in sweep.d_values):
        raise ConfigError(f"{source}: d values must be positive")
    if list(sweep.d_values) != sorted(set(sweep.d_values)):
        raise ConfigError(f"{source}: d values must be strictly increasing")
    if not sweep.epsilon > 0:
        raise ConfigError(f"{source}: epsilon must be positive")
    if not sweep.step_grid or min(sweep.step_grid) < 2:
        raise ConfigError(f"{source}: sweep step_grid must list step counts of at least 2")
    tgt = blocks["target"]
    k = len(tgt.weights)
    if abs(sum(tgt.weights) - 1.0) > WEIGHT_TOL or any(w <= 0 for w in tgt.weights):
        raise ConfigError(f"{source}: target weights must be a positive simplex vector")
    if len(tgt.mean_offsets) != k or len(tgt.var_scales) != k:
        raise ConfigError(f"{source}: target blocks must have one entry per component")
    if not tgt.var_exponent >= 0:
        raise ConfigError(f"{source}: target var_exponent must be finite and >= 0")
    if not all(v > 0 for v in tgt.var_scales):
        raise ConfigError(f"{source}: target var_scales must be finite and positive")
    samp = blocks["sampling"]
    if samp.n_chains < 1 or samp.n_target_samples < 2 or samp.repeats < 1:
        raise ConfigError(f"{source}: sampling sizes must be positive")
    if any(kk < 1 for kk in samp.k_values) or not samp.k_values:
        raise ConfigError(f"{source}: k values must be positive")
    if len(set(samp.k_values)) != len(samp.k_values):
        raise ConfigError(f"{source}: k_values {', '.join(map(str, samp.k_values))} must be distinct")
    _check_k_values(samp, source)
    for v in variants:
        if v.drift not in ("exact", "misspecified", "ideal_corrected"):
            raise ConfigError(f"{source}: variant {v.name!r} has unknown drift {v.drift!r}")
        if v.init_weights and len(v.init_weights) != k:
            raise ConfigError(f"{source}: variant {v.name!r} needs init_weights per component")
        for key in ("gamma_scale", "cbase_scale"):
            if not getattr(v, key) > 0:
                raise ConfigError(f"{source}: variant {v.name!r} {key} must be positive")
        for key in ("gamma_exponent", "cbase_exponent", "dsigma_exponent", "dmean_exponent"):
            if not getattr(v, key) >= 0:
                raise ConfigError(f"{source}: variant {v.name!r} {key} must be >= 0")
        if v.drift != "misspecified" and (v.dsigma_scale or v.dmean_scale or v.dweights):
            raise ConfigError(
                f"{source}: variant {v.name!r} sets a perturbation key but its drift is "
                f"{v.drift!r}; perturbation keys need drift = misspecified"
            )
        if v.drift == "misspecified" and v.dsigma_scale == 0 and v.dmean_scale == 0 and not v.dweights:
            raise ConfigError(f"{source}: variant {v.name!r} is misspecified but has no perturbation")
        if v.dweights and (len(v.dweights) != k or abs(sum(v.dweights)) > WEIGHT_TOL):
            raise ConfigError(f"{source}: variant {v.name!r} dweights must sum to 0, one per component")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def _check_k_values(samp: SamplingBlock, source: str) -> None:
    # the estimator's P sample is the target draw (k < n) and its Q sample the chains (k <= m)
    if any(kk >= samp.n_target_samples or kk > samp.n_chains for kk in samp.k_values):
        raise ConfigError(
            f"{source}: k_values {', '.join(map(str, samp.k_values))} must each be below "
            f"n_target_samples = {samp.n_target_samples} and at most n_chains = {samp.n_chains}"
        )


def apply_ci_profile(cfg: ExperimentConfig) -> ExperimentConfig:
    """Desk-scale profile: fewer chains and dimensions at the same horizon.

    Scales the chain count and sample size to 1000 (a k in ``k_values`` that
    no longer fits is a ``ConfigError``) and truncates the sweep
    (d <= 25; d <= 12 for the step-search experiment). For the fixed-length
    experiments the step count drops to 2000 with dt scaled up to preserve
    the continuous time horizon; the step-search experiment keeps its step
    grid untouched, since step counts are its measurement.
    """
    sched = cfg.schedule
    sweep = cfg.sweep
    if cfg.experiment == "fig1_steps_to_accuracy":
        d_values = tuple(d for d in sweep.d_values if d in (1, 5, 12))
        d_values = d_values or tuple(d for d in sweep.d_values if d <= 12) or (1, 5, 12)
        sweep = replace(sweep, d_values=d_values)
    else:
        if sched.n_steps > 2000:
            t_horizon = (sched.n_steps - 1) * sched.dt
            sched = replace(sched, n_steps=2000, dt=t_horizon / 1999)
        d_values = tuple(d for d in sweep.d_values if d <= 25) or sweep.d_values[:1]
        sweep = replace(sweep, d_values=d_values)
    sampling = replace(
        cfg.sampling,
        n_chains=min(cfg.sampling.n_chains, 1000),
        n_target_samples=min(cfg.sampling.n_target_samples, 1000),
    )
    _check_k_values(sampling, f"{cfg.name} under the ci profile")
    out = cfg.output
    out = replace(
        out,
        csv=_suffixed(out.csv, "_ci"),
        plot_script=_suffixed(out.plot_script, "_ci") if out.plot_script else "",
    )
    return replace(cfg, schedule=sched, sweep=sweep, sampling=sampling, output=out)


def _suffixed(path: str, suffix: str) -> str:
    if "." in path.rsplit("/", 1)[-1]:
        stem, dot, ext = path.rpartition(".")
        return f"{stem}{suffix}{dot}{ext}"
    return path + suffix
