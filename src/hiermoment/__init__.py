"""Moment-based fitting of hierarchical (mixed-effect) linear and logistic
models.

Each group is fit independently, group summaries are combined by weighted
method-of-moments into population estimates (fixed effects, random-effect
covariance, dispersion), and empirical Bayes posteriors shrink the per-group
deviations. No global iteration is required.
"""

from __future__ import annotations

from .combine import (
    FitOptions,
    MomentFit,
    WeightSpec,
    fit_moment,
    kappa_bound,
    kappa_check,
    standardize,
)
from .data import GroupData, GroupedDataset, GroupLayout
from .ebayes import (
    GroupPosterior,
    PosteriorSet,
    posterior,
    posterior_set,
    predict_grouped,
)
from .errors import (
    ConvergenceError,
    DegeneratePrecisionError,
    DispersionError,
    HierMomentError,
    SingularOmega2Error,
    SingularOmegaError,
    ZeroRankError,
)
from .families import BINOMIAL_LOGIT, GAUSSIAN, Family, GlmFit, fit_glm, get_family
from .groups import GroupSummary, SummarySet, build_summary_set
from .simulate import (
    LossRecord,
    SimTruth,
    StudyRow,
    fit_global,
    fit_local,
    gen_replicate,
    losses,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "BINOMIAL_LOGIT",
    "ConvergenceError",
    "DegeneratePrecisionError",
    "DispersionError",
    "Family",
    "FitOptions",
    "GAUSSIAN",
    "GlmFit",
    "GroupData",
    "GroupPosterior",
    "GroupSummary",
    "GroupedDataset",
    "GroupLayout",
    "HierMomentError",
    "LossRecord",
    "MomentFit",
    "PosteriorSet",
    "SimTruth",
    "SingularOmega2Error",
    "SingularOmegaError",
    "StudyRow",
    "SummarySet",
    "WeightSpec",
    "ZeroRankError",
    "build_summary_set",
    "fit_glm",
    "fit_global",
    "fit_local",
    "fit_moment",
    "gen_replicate",
    "get_family",
    "kappa_bound",
    "kappa_check",
    "losses",
    "posterior",
    "posterior_set",
    "predict_grouped",
    "run_study",
    "standardize",
    "__version__",
]
