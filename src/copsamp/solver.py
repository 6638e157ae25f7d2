"""Damped-Newton fitting of softmax regression, plain and inverse-probability weighted.

The weighted objective is ``(1/n) sum_i w_i * cross_entropy_i``. Weights
are rescaled internally to mean one before iterating, so fits are
invariant (to round-off) under rescaling all weights by a positive
constant; the reported ``final_loss`` is always of the caller's original
objective. The gradient is one ``(K, n) @ (n, d)`` GEMM of the
weighted class-major score vectors against ``X`` (see
:mod:`copsamp.model`). The Hessian ``H`` is :func:`copsamp.model.information` of the
mean-one weights: one GEMM per block of rows between the weighted
class-pair coefficients ``w phi_kl`` (``k <= l``) and the feature
products ``x_a x_b`` (``a <= b``), whose ``(P, T)`` sum over the blocks
is mirrored into the exactly symmetric ``(K*d, K*d)`` matrix. Each
Newton step solves ``(H + ridge * I) step = grad`` with numpy's LU
solve. A Cholesky factorization of the same matrix decides only whether
it is positive definite: when it fails, the step is counted in
``FitReport.cholesky_fallbacks``. Each step is halved until the
objective decreases, so the objective is non-increasing across accepted
steps; a step whose predicted decrease is within a few ulps of the
objective, where rounding alone would decide, is taken whole. Iteration
starts at ``beta = 0``; the objective is convex, so the optimum does not
depend on that choice, only reproducibility does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from copsamp.model import (
    Coefficients,
    Dataset,
    _loss_sum,
    _residuals,
    information,
)

__all__ = ["FitConfig", "FitReport", "fit_mle", "fit_weighted_mle"]

#: halvings of a Newton step before the fit stops as numerically stationary
STEP_HALVING_MAX = 30


@dataclass(frozen=True)
class FitConfig:
    """Newton-iteration settings."""

    grad_tol: float = 1e-8
    max_iters: int = 100
    ridge: float = 1e-8

    def __post_init__(self) -> None:
        if min(self.grad_tol, self.max_iters, self.ridge) <= 0:
            raise ValueError("all FitConfig fields must be positive")


@dataclass
class FitReport:
    """Outcome of a fit.

    ``final_grad_norm`` is the infinity norm of the gradient of the
    internally normalized (mean-one-weight) objective; ``final_loss`` is
    the caller's objective ``(1/n) sum_i w_i * loss_i`` at ``beta``.
    ``converged`` implies ``final_grad_norm <= grad_tol``.
    ``cholesky_fallbacks`` counts the Newton steps whose ridged Hessian
    was not positive definite; such a step need not be a descent
    direction.
    """

    beta: Coefficients
    iterations: int
    final_grad_norm: float
    converged: bool
    final_loss: float
    cholesky_fallbacks: int = 0


def _objective(beta: np.ndarray, data: Dataset, w: np.ndarray) -> float:
    return _loss_sum(beta, data.X, data.y, w) / data.n


def _gradient(beta: np.ndarray, data: Dataset, w: np.ndarray) -> np.ndarray:
    """Gradient of the weighted mean loss w.r.t. vec(beta), shape (K*d,).

    One ``(K, n) @ (n, d)`` GEMM of the weighted class-major score vectors
    against ``X``.
    """
    S = _residuals(beta, data.X, data.y)
    S *= w
    grad_mat = -(S @ data.X) / data.n
    return grad_mat.reshape(-1)


def _newton_solve(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
    """Solve ``H step = g``; the flag is True when ``H`` is not positive definite."""
    try:
        cholesky(H)
        fell_back = False
    except LinAlgError:
        fell_back = True
    return np.linalg.solve(H, g), fell_back


def fit_weighted_mle(
    data: Dataset,
    weights: np.ndarray,
    config: FitConfig = FitConfig(),
) -> FitReport:
    """Minimize ``(1/n) sum_i w_i * cross_entropy_i`` by damped Newton.

    Non-convergence within ``max_iters`` is reported via
    ``converged=False``, never silently. Raises ``ValueError`` on
    negative/all-zero weights or if the positive-weight samples cover
    fewer than two distinct classes.
    """
    if not data.labeled:
        raise ValueError("fitting requires labels")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.n,):
        raise ValueError(f"weights has shape {weights.shape}, expected ({data.n},)")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    if total == 0:
        raise ValueError("weights must not be all zero")
    if np.unique(data.y[weights > 0]).size < 2:
        raise ValueError("need samples of at least 2 distinct classes")

    # Mean-one rescaling keeps conditioning and stop criteria independent
    # of the caller's weight scale; the argmin is unchanged.
    w = weights * (data.n / total)
    K, d = data.K, data.d
    beta = np.zeros((K, d))
    loss = _objective(beta, data, w)
    iterations = 0
    fallbacks = 0
    eye = np.eye(K * d)

    for _ in range(config.max_iters):
        g = _gradient(beta, data, w)
        grad_norm = float(np.abs(g).max())
        if grad_norm <= config.grad_tol:
            break
        H = information(beta, data.X, w) + config.ridge * eye
        step, fell_back = _newton_solve(H, g)
        fallbacks += fell_back
        # a predicted decrease 0.5 g^T H^-1 g within a few ulps of the loss is
        # below the line search's resolution: the whole step is taken
        negligible = not fell_back and 0.5 * (g @ step) <= 8 * np.finfo(float).eps * loss
        step = step.reshape(K, d)
        t = 1.0
        accepted = False
        for _ in range(STEP_HALVING_MAX + 1):
            candidate = beta - t * step
            candidate_loss = _objective(candidate, data, w)
            if candidate_loss < loss or negligible:
                beta, loss = candidate, candidate_loss
                accepted = True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            # No descent at the smallest step: numerically stationary.
            break

    final_grad_norm = float(np.abs(_gradient(beta, data, w)).max())
    return FitReport(
        beta=beta,
        iterations=iterations,
        final_grad_norm=final_grad_norm,
        converged=final_grad_norm <= config.grad_tol,
        final_loss=_objective(beta, data, weights),
        cholesky_fallbacks=fallbacks,
    )


def fit_mle(data: Dataset, config: FitConfig = FitConfig()) -> FitReport:
    """Maximum-likelihood fit (all weights one)."""
    return fit_weighted_mle(data, np.ones(data.n), config)
