"""Uncertainty-based optimal subsampling for linear softmax regression.

The library covers the full pipeline: the softmax-regression calculus
(probabilities, losses, score vectors, Fisher information), maximum
likelihood and inverse-probability-weighted fitting, exact and
ensemble-based per-sample uncertainty scores, score-proportional
subsampling with clipping and weight-flooring safeguards, and a
Monte-Carlo simulation harness for studying robustness to label
corruption. A command line front end lives in :mod:`copsamp.cli`.
"""

from copsamp.model import (
    Coefficients,
    Dataset,
    FisherInfo,
    class_probabilities,
    cross_entropy,
    dataset_loss,
    fisher_info,
    loss_gradient,
    loss_hessian,
    phi,
    psi,
    score_vector,
)
from copsamp.solver import FitReport, fit_mle, fit_weighted_batch, fit_weighted_mle
from copsamp.uncertainty import (
    ProbeEnsemble,
    SingularInformationError,
    ensemble_score_active,
    ensemble_score_coreset,
    exact_score_active,
    exact_score_coreset,
    logit_covariance,
    train_ensemble,
)
from copsamp.sampler import (
    SamplingConfig,
    SamplingPlan,
    Subsample,
    cops_active,
    cops_coreset,
    draw_subsample,
    make_plan,
    subsample_and_refit,
    subsample_objective,
)
from copsamp.simulation import (
    Method,
    SimulationSpec,
    generate_dataset,
    regret,
    run_experiment,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "Dataset",
    "FisherInfo",
    "class_probabilities",
    "cross_entropy",
    "dataset_loss",
    "fisher_info",
    "loss_gradient",
    "loss_hessian",
    "phi",
    "psi",
    "score_vector",
    "FitReport",
    "fit_mle",
    "fit_weighted_batch",
    "fit_weighted_mle",
    "ProbeEnsemble",
    "SingularInformationError",
    "train_ensemble",
    "logit_covariance",
    "ensemble_score_coreset",
    "ensemble_score_active",
    "exact_score_coreset",
    "exact_score_active",
    "SamplingConfig",
    "SamplingPlan",
    "Subsample",
    "make_plan",
    "draw_subsample",
    "subsample_objective",
    "subsample_and_refit",
    "cops_coreset",
    "cops_active",
    "Method",
    "SimulationSpec",
    "generate_dataset",
    "run_trial",
    "run_experiment",
    "regret",
    "__version__",
]
