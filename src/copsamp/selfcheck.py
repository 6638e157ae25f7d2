"""Built-in invariant checks behind the ``selfcheck`` CLI command.

Each check recomputes a core identity through an independent route
(finite differences, exhaustive label expectation, per-sample Kronecker
Hessians, random-search optimality, Monte-Carlo ensemble calibration)
and compares against the library implementation at a fixed tolerance.
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

__all__ = ["CheckResult", "run_selfcheck"]


@dataclass
class CheckResult:
    name: str
    threshold: str
    measured: float
    passed: bool


def _random_instance(rng: np.random.Generator, K: int, d: int):
    beta = rng.normal(scale=0.8, size=(K, d))
    x = rng.normal(scale=1.0, size=d)
    y = int(rng.integers(0, K + 1))
    return beta, x, y


def _fd_gradient(beta, x, y, step=1e-5):
    K, d = beta.shape
    g = np.empty(K * d)
    for j in range(K * d):
        bp, bm = beta.copy().ravel(), beta.copy().ravel()
        bp[j] += step
        bm[j] -= step
        g[j] = (
            cross_entropy(bp.reshape(K, d), x, y)
            - cross_entropy(bm.reshape(K, d), x, y)
        ) / (2 * step)
    return g


def check_label_expectation(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for K in (1, 2, 5):
        for d in (1, 3, 8):
            for _ in range(8):
                beta, x, _ = _random_instance(rng, K, d)
                p = class_probabilities(beta, x)
                total = sum(p[y] * psi(beta, x, y) for y in range(K + 1))
                worst = max(worst, float(np.abs(total - phi(beta, x)).max()))
    return CheckResult("label-expectation identity", "<= 1e-12", worst, worst <= 1e-12)


def check_gradient_fd(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(30):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        beta, x, y = _random_instance(rng, K, d)
        g = loss_gradient(beta, x, y)
        fd = _fd_gradient(beta, x, y)
        worst = max(worst, float(np.abs(g - fd).max() / max(1.0, np.abs(fd).max())))
    return CheckResult("gradient vs finite differences", "<= 1e-6", worst, worst <= 1e-6)


def check_hessian_fd(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    step = 1e-5
    for _ in range(15):
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        beta, x, y = _random_instance(rng, K, d)
        H = loss_hessian(beta, x)
        fd = np.empty_like(H)
        for j in range(K * d):
            bp, bm = beta.copy().ravel(), beta.copy().ravel()
            bp[j] += step
            bm[j] -= step
            fd[:, j] = (
                loss_gradient(bp.reshape(K, d), x, y)
                - loss_gradient(bm.reshape(K, d), x, y)
            ) / (2 * step)
        worst = max(worst, float(np.abs(H - fd).max() / max(1.0, np.abs(fd).max())))
    return CheckResult("hessian vs finite differences", "<= 1e-5", worst, worst <= 1e-5)


def check_fisher_kron(rng: np.random.Generator) -> CheckResult:
    """Blockwise information matrix vs the mean of per-sample kron Hessians."""
    worst = 0.0
    for K in (1, 2, 4):
        d = int(rng.integers(1, 6))
        beta = rng.normal(scale=0.8, size=(K, d))
        X = rng.normal(size=(40, d))
        m = fisher_info(beta, Dataset(X, None, K)).m
        oracle = np.mean([loss_hessian(beta, x) for x in X], axis=0)
        worst = max(worst, float(np.abs(m - oracle).max() / np.abs(oracle).max()))
    return CheckResult(
        "information matrix vs mean per-sample hessian", "<= 1e-12", worst, worst <= 1e-12
    )


def check_sampling_optimality(rng: np.random.Generator) -> CheckResult:
    u = rng.uniform(0.1, 5.0, size=20)
    best = subsample_objective(u, u / u.sum())
    worse = 0
    min_gap = np.inf
    for _ in range(1000):
        pi = rng.dirichlet(np.ones(20))
        gap = subsample_objective(u, pi) - best
        min_gap = min(min_gap, gap)
        if gap > 0:
            worse += 1
    passed = min_gap >= -1e-9 and worse >= 990
    return CheckResult(
        "score-proportional sampling minimizes sum u^2/pi",
        ">= 99% strictly worse alternatives",
        worse / 1000.0,
        passed,
    )


def check_ensemble_calibration(rng: np.random.Generator) -> CheckResult:
    """Scaled ensemble scores vs exact trace scores, quick variant."""
    d, K, M, n_shard = 3, 2, 80, 1500
    beta_star = rng.uniform(-1, 1, size=(K, d))

    def draw(n, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(n, d))
        P = probability_matrix(beta_star, X)
        y = (r.random(n)[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
        return Dataset(X, y, K)

    probe = draw(M * n_shard, int(rng.integers(2**32)))
    big = draw(60_000, int(rng.integers(2**32)))
    ensemble = train_ensemble(probe, M, seed=0)
    beta_hat = fit_mle(big).beta
    info = fisher_info(beta_hat, big)
    eval_data = big.subset(np.arange(200))
    medians = []
    for kind in ("coreset", "active"):
        u_ens = ensemble_scores(ensemble, eval_data, kind) * ensemble.probe_size
        u_exact = exact_scores(beta_hat, info, eval_data, kind)
        medians.append(float(np.median(np.abs(u_ens - u_exact) / u_exact)))
    worst = max(medians)
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
