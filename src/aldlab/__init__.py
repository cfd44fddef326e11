"""Annealed Langevin sampling lab for diagonal Gaussian mixtures.

Four layers: mixtures (exact densities, scores, sampling), the
time-inhomogeneous preconditioned Langevin engine, closed-form error bounds
with the summability conditions on their terms (one module,
:mod:`aldlab.bounds`), and a kNN divergence estimator. The experiment
harness and CLI live in :mod:`aldlab.experiments` and :mod:`aldlab.cli`.
"""

from .spectra import PowerLaw, SpectrumError
from .mixture import (
    DiagGMM,
    MixtureError,
    MixturePerturbation,
    apply_perturbation,
    build_truncated_mixture,
    smooth,
)
from .engine import (
    ALDConfig,
    AnnealSchedule,
    ChainBatch,
    ChainDivergenceError,
    EngineError,
    make_schedule,
    run_chains,
)
from .bounds import (
    BoundInputs,
    BoundsError,
    BrespBound,
    ConditionRecord,
    ConditionReport,
    ErrorBudget,
    bcomp_bound,
    bresp_upper,
    condition_report,
    error_budget,
    horizon,
    init_kl_bound,
    kd_constant,
    ratio_p_moment,
    score_fourth_moment,
    tilted_params,
    weight_kl,
)
from .knn_kl import KLEstimate, KnnError, knn_distances, knn_kl, knn_kl_multi

__version__ = "0.1.0"

__all__ = [
    "ALDConfig",
    "AnnealSchedule",
    "BoundInputs",
    "BoundsError",
    "BrespBound",
    "ChainBatch",
    "ChainDivergenceError",
    "ConditionRecord",
    "ConditionReport",
    "DiagGMM",
    "EngineError",
    "ErrorBudget",
    "KLEstimate",
    "KnnError",
    "MixtureError",
    "MixturePerturbation",
    "PowerLaw",
    "SpectrumError",
    "apply_perturbation",
    "bcomp_bound",
    "bresp_upper",
    "build_truncated_mixture",
    "condition_report",
    "error_budget",
    "horizon",
    "init_kl_bound",
    "kd_constant",
    "knn_distances",
    "knn_kl",
    "knn_kl_multi",
    "make_schedule",
    "ratio_p_moment",
    "run_chains",
    "score_fourth_moment",
    "smooth",
    "tilted_params",
    "weight_kl",
]
