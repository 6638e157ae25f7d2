"""The public API is what the pipeline and the command line run."""

import copsamp
from copsamp import model, sampler, selfcheck, uncertainty

#: the per-sample twins of the batched functions: oracles, in selfcheck alone
PER_SAMPLE = {
    "class_probabilities", "cross_entropy", "score_vector", "loss_gradient", "phi", "psi",
    "loss_hessian", "logit_covariance", "ensemble_score_coreset", "ensemble_score_active",
    "exact_score_coreset", "exact_score_active", "subsample_objective",
}


def test_per_sample_oracles_live_in_selfcheck_alone():
    assert sorted(copsamp.__all__) == sorted([
        "Coefficients", "Dataset", "FisherInfo", "dataset_loss", "fisher_info",
        "FitReport", "fit_mle", "fit_weighted_batch", "fit_weighted_mle",
        "ProbeEnsemble", "SingularInformationError", "train_ensemble",
        "SamplingConfig", "SamplingPlan", "Subsample", "make_plan", "draw_subsample",
        "subsample_and_refit", "cops_coreset", "cops_active",
        "Method", "SimulationSpec", "generate_dataset", "run_trial", "run_experiment", "regret",
        "__version__",
    ])
    assert all(hasattr(copsamp, name) for name in copsamp.__all__)
    for module in (model, uncertainty, sampler):
        assert PER_SAMPLE.isdisjoint(vars(module)), module.__name__
        assert PER_SAMPLE.isdisjoint(module.__all__), module.__name__
    assert PER_SAMPLE <= set(selfcheck.__all__)
    assert all(getattr(selfcheck, name).__module__ == "copsamp.selfcheck" for name in PER_SAMPLE)
    # bound at the package root for the benchmark's imports, not public
    for name in ("exact_score_coreset", "exact_score_active", "ensemble_score_coreset"):
        assert getattr(copsamp, name) is getattr(selfcheck, name)
