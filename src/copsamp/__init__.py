"""Uncertainty-based optimal subsampling for linear softmax regression.

The library covers the full pipeline: the batched softmax-regression
calculus (probabilities, losses, Fisher information), maximum
likelihood and inverse-probability-weighted fitting, exact and
ensemble-based uncertainty scores, score-proportional subsampling with
clipping and weight-flooring safeguards, and a Monte-Carlo simulation
harness for studying robustness to label corruption. ``__all__`` is
what the pipeline and the command line run. The per-sample oracles of
the batched functions live in :mod:`copsamp.selfcheck`, and a command
line front end in :mod:`copsamp.cli`.
"""

from copsamp.model import Coefficients, Dataset, FisherInfo, dataset_loss, fisher_info
from copsamp.solver import FitReport, fit_mle, fit_weighted_batch, fit_weighted_mle
from copsamp.uncertainty import ProbeEnsemble, SingularInformationError, train_ensemble
from copsamp.sampler import (
    SamplingConfig,
    SamplingPlan,
    Subsample,
    cops_active,
    cops_coreset,
    draw_subsample,
    make_plan,
    subsample_and_refit,
)
from copsamp.simulation import (
    Method,
    SimulationSpec,
    generate_dataset,
    regret,
    run_experiment,
    run_trial,
)

# perfbench/workloads.py reads these three oracles from the package root.
# The next change to perfbench imports them from copsamp.selfcheck and
# deletes these lines.
from copsamp.selfcheck import (  # noqa: F401
    ensemble_score_coreset,
    exact_score_active,
    exact_score_coreset,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "Dataset",
    "FisherInfo",
    "dataset_loss",
    "fisher_info",
    "FitReport",
    "fit_mle",
    "fit_weighted_batch",
    "fit_weighted_mle",
    "ProbeEnsemble",
    "SingularInformationError",
    "train_ensemble",
    "SamplingConfig",
    "SamplingPlan",
    "Subsample",
    "make_plan",
    "draw_subsample",
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
