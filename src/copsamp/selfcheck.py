"""Built-in invariant checks behind the ``selfcheck`` CLI command.

Each check recomputes a core identity through an independent route
(finite differences, exhaustive label expectation, per-sample Kronecker
Hessians, random-search optimality, Monte-Carlo ensemble calibration)
and compares against the library implementation at a fixed tolerance.
The routes are public functions, the one home of each oracle: the test
suite imports them and runs them at its own seeds and tolerances.

The per-sample twins of the batched library functions live here too, one
row ``x`` at a time: probabilities, the cross entropy, score vectors,
the loss gradient and Hessian, ``phi`` and ``psi``, the ensemble's logit
covariance, the exact and ensemble scores, and the variance objective of
a plan. No pipeline stage calls them. Each one that needs probabilities
computes its own softmax in :func:`class_probabilities`, independent of
the batched builder it checks; :func:`cross_entropy` alone reads the
cross entropy of the batched softmax. The score twins share the members'
logit deviations and the inverse Cholesky factor with the batched scorers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from copsamp.model import (
    Coefficients,
    Dataset,
    FisherInfo,
    _check_beta,
    _softmax,
    fisher_info,
    probability_matrix,
)
from copsamp.solver import fit_mle
from copsamp.uncertainty import (
    ProbeEnsemble,
    _clamp,
    _factorize,
    _logit_deviations,
    ensemble_scores,
    exact_scores,
    train_ensemble,
)

__all__ = [
    "CheckResult", "calibration_medians", "fd_gradient", "fd_hessian", "label_average",
    "mean_kron_hessian", "random_instance", "random_plan_gaps", "run_selfcheck",
    "sample_labels",
    "class_probabilities", "cross_entropy", "score_vector", "loss_gradient", "phi", "psi",
    "loss_hessian", "logit_covariance", "ensemble_score_coreset", "ensemble_score_active",
    "exact_score_coreset", "exact_score_active", "subsample_objective",
]


@dataclass
class CheckResult:
    name: str
    threshold: str
    measured: float
    passed: bool


def _check_x(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (beta.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({beta.shape[1]},)")
    return x


def class_probabilities(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """Probabilities of classes ``0..K`` at a single point, length K + 1.

    A max-shifted softmax of its own, independent of the batched
    builder, so that it can serve as the batched functions' oracle.
    """
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    z = np.concatenate([[0.0], beta @ x])
    z = np.exp(z - z.max())
    return z / z.sum()


def cross_entropy(beta: Coefficients, x: np.ndarray, y: int) -> float:
    """Negative log-probability of label ``y`` at ``x``.

    Read from the batched softmax of :mod:`copsamp.model`, not from
    :func:`class_probabilities`.
    """
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    if not 0 <= y <= beta.shape[0]:
        raise ValueError(f"label {y} outside [0, {beta.shape[0]}]")
    return float(_softmax(beta, x[None, :], np.array([y]))[1][0])


def score_vector(beta: Coefficients, x: np.ndarray, y: int) -> np.ndarray:
    """Length-K vector with entries ``indicator(y == k) - p_k``, k = 1..K."""
    p = class_probabilities(beta, x)
    s = -p[1:]
    if y >= 1:
        s = s.copy()
        s[y - 1] += 1.0
    return s


def loss_gradient(beta: Coefficients, x: np.ndarray, y: int) -> np.ndarray:
    """Gradient of :func:`cross_entropy` w.r.t. ``vec(beta)``: ``-kron(s, x)``."""
    s = score_vector(beta, x, y)
    x = np.asarray(x, dtype=float)
    return -np.kron(s, x)


def phi(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """``(K, K)`` matrix ``diag(p_1..p_K) - p p^T`` over non-reference classes.

    Symmetric PSD; row sums equal ``p_k * p_0``.
    """
    p = class_probabilities(beta, x)[1:]
    return np.diag(p) - np.outer(p, p)


def psi(beta: Coefficients, x: np.ndarray, y: int) -> np.ndarray:
    """Rank-one matrix ``s s^T`` built from the score vector at ``(x, y)``."""
    s = score_vector(beta, x, y)
    return np.outer(s, s)


def loss_hessian(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """``(K*d, K*d)`` per-sample Hessian ``kron(phi, outer(x, x))``."""
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    return np.kron(phi(beta, x), np.outer(x, x))


def logit_covariance(ensemble: ProbeEnsemble, x: np.ndarray) -> np.ndarray:
    """Sample covariance of member logit vectors at ``x``, shape (K, K).

    Uses the M-1 divisor and centers on the mean model's logits.
    """
    x = _check_x(x, ensemble.members[0])
    dev = _logit_deviations(ensemble.members, x[None, :])[..., 0]
    sigma = dev.T @ dev / (ensemble.M - 1)
    return 0.5 * (sigma + sigma.T)


def ensemble_score_coreset(ensemble: ProbeEnsemble, x: np.ndarray, y: int) -> float:
    """``s^T Sigma_M(x) s`` with the score vector at the ensemble mean."""
    s = score_vector(ensemble.mean, x, y)
    sigma = logit_covariance(ensemble, x)
    return float(_clamp(s @ sigma @ s))


def ensemble_score_active(ensemble: ProbeEnsemble, x: np.ndarray) -> float:
    """``Tr(phi(mean; x) Sigma_M(x))``, the label-averaged coreset score."""
    sigma = logit_covariance(ensemble, x)
    return float(_clamp(np.sum(phi(ensemble.mean, x) * sigma)))


def _check_exact(beta: Coefficients, info: FisherInfo, x: np.ndarray) -> np.ndarray:
    x = _check_x(x, _check_beta(beta))
    if np.size(beta) != info.m.shape[0]:
        raise ValueError("beta/x dimensions do not match the information matrix")
    return x


def exact_score_coreset(
    beta: Coefficients,
    info: FisherInfo,
    x: np.ndarray,
    y: int,
) -> float:
    """``Tr((psi kron xx^T) M^-1)`` as the quadratic form of ``kron(s, x)``."""
    x = _check_exact(beta, info, x)
    z = _factorize(info) @ np.kron(score_vector(beta, x, y), x)  # g^T M^-1 g = |L^-1 g|^2
    return float(_clamp(z @ z))


def exact_score_active(
    beta: Coefficients,
    info: FisherInfo,
    x: np.ndarray,
) -> float:
    """``Tr((phi kron xx^T) M^-1)`` via the eigendecomposition of phi."""
    x = _check_exact(beta, info, x)
    eigvals, eigvecs = np.linalg.eigh(phi(beta, x))
    Z = _factorize(info) @ np.kron(eigvecs, x[:, None])  # column j: L^-1 kron(v_j, x)
    return float(_clamp(np.maximum(eigvals, 0.0) @ np.sum(Z * Z, axis=0)))


def subsample_objective(u: np.ndarray, pi: np.ndarray) -> float:
    """``sum_i u_i**2 / pi_i``, the variance proxy the optimal plan minimizes.

    Minimized over distributions at ``pi`` proportional to ``u`` (by the
    Cauchy-Schwarz inequality), where it equals ``(sum_i u_i)**2``.
    """
    u = np.asarray(u, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if u.shape != pi.shape:
        raise ValueError("u and pi must have the same length")
    active = u > 0
    if np.any(pi[active] <= 0):
        raise ValueError("pi must be positive wherever u is positive")
    return float(np.sum(u[active] ** 2 / pi[active]))


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
