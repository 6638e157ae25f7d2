"""Built-in invariant checks behind the ``selfcheck`` CLI command.

Each check recomputes a core identity through an independent route
(finite differences, exhaustive label expectation, per-sample Kronecker
Hessians, random-search optimality, Monte-Carlo ensemble calibration)
and compares against the library implementation at a fixed tolerance.
The routes are public functions, the one home of each oracle: the test
suite imports them and runs them at its own seeds and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from copsamp.model import (
    Dataset,
    class_probabilities,
    cross_entropy,
    loss_gradient,
    loss_hessian,
    phi,
    probability_matrix,
    psi,
    fisher_info,
)
from copsamp.sampler import subsample_objective
from copsamp.solver import fit_mle
from copsamp.uncertainty import (
    ensemble_scores,
    exact_scores,
    train_ensemble,
)

__all__ = [
    "CheckResult", "calibration_medians", "fd_gradient", "fd_hessian", "label_average",
    "mean_kron_hessian", "random_instance", "random_plan_gaps", "run_selfcheck",
    "sample_labels",
]


@dataclass
class CheckResult:
    name: str
    threshold: str
    measured: float
    passed: bool


def random_instance(rng: np.random.Generator, K: int, d: int, scale: float = 0.8):
    """Coefficients ``N(0, scale^2)``, a standard normal ``x`` and a uniform label."""
    beta = rng.normal(scale=scale, size=(K, d))
    x = rng.normal(size=d)
    y = int(rng.integers(0, K + 1))
    return beta, x, y


def sample_labels(rng: np.random.Generator, P: np.ndarray) -> np.ndarray:
    """One label per row of the ``(n, K + 1)`` probabilities, by inverse CDF."""
    return (rng.random(P.shape[0])[:, None] > np.cumsum(P, axis=1)).sum(axis=1)


def _central_differences(f, beta, step) -> np.ndarray:
    """Central differences of ``f`` in each coefficient, stacked on the last axis."""
    K, d = beta.shape
    columns = []
    for j in range(K * d):
        bp, bm = beta.ravel().copy(), beta.ravel().copy()
        bp[j] += step
        bm[j] -= step
        columns.append((f(bp.reshape(K, d)) - f(bm.reshape(K, d))) / (2 * step))
    return np.stack(columns, axis=-1)


def fd_gradient(beta, x, y, step=1e-5) -> np.ndarray:
    """Central finite differences of the cross entropy: the gradient oracle."""
    return _central_differences(lambda b: cross_entropy(b, x, y), beta, step)


def fd_hessian(beta, x, y, step=1e-5) -> np.ndarray:
    """Central finite differences of ``loss_gradient``: the Hessian oracle."""
    return _central_differences(lambda b: loss_gradient(b, x, y), beta, step)


def label_average(beta, x, value):
    """``sum_y p_y value(y)`` over the K + 1 labels, with ``p`` at ``beta``."""
    p = class_probabilities(beta, x)
    return sum(p[y] * value(y) for y in range(len(p)))


def mean_kron_hessian(beta, X, w=None) -> np.ndarray:
    """``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)``, one per-sample Hessian at a time."""
    w = np.ones(len(X)) if w is None else w
    return np.mean([wi * loss_hessian(beta, x) for wi, x in zip(w, X)], axis=0)


def random_plan_gaps(u, rng: np.random.Generator, draws: int) -> tuple[float, int]:
    """Objective gaps of Dirichlet plans over the score-proportional plan.

    Returns the smallest gap and the number of strictly worse plans.
    """
    best = subsample_objective(u, u / u.sum())
    min_gap = np.inf
    worse = 0
    for _ in range(draws):
        gap = subsample_objective(u, rng.dirichlet(np.ones(len(u)))) - best
        min_gap = min(min_gap, gap)
        worse += int(gap > 0)
    return min_gap, worse


def calibration_medians(
    beta_star, *, members: int, shard: int, big: int, evaluated: int,
    probe_seed: int, big_seed: int, ensemble_seed: int,
) -> dict[str, float]:
    """Median ``|n' u_ens - u_exact| / u_exact`` per score kind.

    An ensemble of ``members`` fits on shards of ``shard`` rows is scored
    against exact trace scores at the MLE of ``big`` rows, on the first
    ``evaluated`` of them. Both draws are labelled by ``beta_star``.
    """
    K, d = beta_star.shape

    def draw(n, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(n, d))
        return Dataset(X, sample_labels(r, probability_matrix(beta_star, X)), K)

    probe = draw(members * shard, probe_seed)
    big_data = draw(big, big_seed)
    ensemble = train_ensemble(probe, members, seed=ensemble_seed)
    beta_hat = fit_mle(big_data).beta
    info = fisher_info(beta_hat, big_data)
    eval_data = big_data.subset(np.arange(evaluated))
    medians = {}
    for kind in ("coreset", "active"):
        u_ens = ensemble_scores(ensemble, eval_data, kind) * ensemble.probe_size
        u_exact = exact_scores(beta_hat, info, eval_data, kind)
        medians[kind] = float(np.median(np.abs(u_ens - u_exact) / u_exact))
    return medians


def _relative_error(value, oracle) -> float:
    return float(np.abs(value - oracle).max() / max(1.0, np.abs(oracle).max()))


def check_label_expectation(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for K in (1, 2, 5):
        for d in (1, 3, 8):
            for _ in range(8):
                beta, x, _ = random_instance(rng, K, d)
                total = label_average(beta, x, lambda y: psi(beta, x, y))
                worst = max(worst, float(np.abs(total - phi(beta, x)).max()))
    return CheckResult("label-expectation identity", "<= 1e-12", worst, worst <= 1e-12)


def check_gradient_fd(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(30):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        beta, x, y = random_instance(rng, K, d)
        worst = max(worst, _relative_error(loss_gradient(beta, x, y), fd_gradient(beta, x, y)))
    return CheckResult("gradient vs finite differences", "<= 1e-6", worst, worst <= 1e-6)


def check_hessian_fd(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(15):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        beta, x, y = random_instance(rng, K, d)
        worst = max(worst, _relative_error(loss_hessian(beta, x), fd_hessian(beta, x, y)))
    return CheckResult("hessian vs finite differences", "<= 1e-5", worst, worst <= 1e-5)


def check_fisher_kron(rng: np.random.Generator) -> CheckResult:
    """Blockwise information matrix vs the mean of per-sample kron Hessians."""
    worst = 0.0
    for K in (1, 2, 4):
        d = int(rng.integers(1, 6))
        beta = rng.normal(scale=0.8, size=(K, d))
        X = rng.normal(size=(40, d))
        m = fisher_info(beta, Dataset(X, None, K)).m
        oracle = mean_kron_hessian(beta, X)
        worst = max(worst, float(np.abs(m - oracle).max() / np.abs(oracle).max()))
    return CheckResult(
        "information matrix vs mean per-sample hessian", "<= 1e-12", worst, worst <= 1e-12
    )


def check_sampling_optimality(rng: np.random.Generator) -> CheckResult:
    u = rng.uniform(0.1, 5.0, size=20)
    min_gap, worse = random_plan_gaps(u, rng, 1000)
    passed = min_gap >= -1e-9 and worse >= 990
    return CheckResult(
        "score-proportional sampling minimizes sum u^2/pi",
        ">= 99% strictly worse alternatives",
        worse / 1000.0,
        passed,
    )


def check_ensemble_calibration(rng: np.random.Generator) -> CheckResult:
    """Scaled ensemble scores vs exact trace scores, quick variant."""
    beta_star = rng.uniform(-1, 1, size=(2, 3))
    medians = calibration_medians(
        beta_star, members=80, shard=1500, big=60_000, evaluated=200,
        probe_seed=int(rng.integers(2**32)), big_seed=int(rng.integers(2**32)),
        ensemble_seed=0,
    )
    worst = max(medians.values())
    return CheckResult(
        "ensemble/exact score correspondence (quick)", "median <= 0.25", worst, worst <= 0.25
    )


def run_selfcheck(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = [
        check_label_expectation(rng),
        check_gradient_fd(rng),
        check_hessian_fd(rng),
        check_fisher_kron(rng),
        check_sampling_optimality(rng),
    ]
    if not quick:
        results.append(check_ensemble_calibration(rng))
    return results
