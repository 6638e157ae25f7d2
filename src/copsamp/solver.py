"""Damped-Newton fitting of softmax regression, plain and inverse-probability weighted.

One Newton loop runs over a leading batch axis: :func:`fit_weighted_batch`
fits B weight vectors on one shared design at once, each with its own
stop test, step halving and :class:`FitReport`, and
:func:`fit_weighted_mle` is its one-element case. Batching saves the
per-iteration Python overhead that dominates fits on a few rows, such
as the simulation's probe members and refits on its six cells; an
element that stops keeps its place, at a zero step.

The weighted objective is ``(1/n) sum_i w_i * cross_entropy_i``. Weights
are rescaled internally to mean one before iterating, so fits are
invariant (to round-off) under rescaling all weights by a positive
constant; the reported ``final_loss`` is always of the caller's original
objective. Each iterate is evaluated once: the softmax that accepts it in
the line search gives its loss, the report's when the caller's weights
are already mean one, and its probabilities, which the next gradient and
Hessian read. The gradient is one GEMM of the weighted class-major
residuals against ``X``, even at K = 1 (see :func:`_gradient`). The
Hessian ``H`` is the information matrix of the mean-one weights, from
the unchecked kernel ``copsamp.model._information`` that
:func:`copsamp.model.fisher_info` also reads: a fit's weights are checked
once, by :func:`_weights_error`, and nothing is checked on a Newton step.
A fit builds the feature products ``x_a x_b`` once if they fit
``copsamp.model.PAIR_TABLE_BYTES``, else per Newton step; either way a
batch element gets the GEMMs its fit alone would get, bit for bit. Each
Newton step is one LU solve of ``(H + RIDGE * I) step = grad``, a zero
step where that matrix is exactly singular. A step whose predicted
decrease ``0.5 grad^T step`` is positive is a descent step; every other
step counts in ``FitReport.non_descent_steps``, and on the convex
objective its line search stalls, but for rounding. Each step is
halved until the objective decreases, so the objective is non-increasing
across accepted steps; a descent step whose predicted decrease is within
a few ulps of the objective, where rounding alone would decide, is taken
whole. A fit stops when the infinity norm of its gradient is at most
``GRAD_TOL``, after ``MAX_ITERS`` Newton steps, or when its line search
stalls, at its last accepted iterate. Iteration starts at ``beta = 0``;
the objective is convex, so the optimum does not depend on that choice,
only reproducibility does. The solver's settings are the module
constants below, read when a fit runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from copsamp.model import (
    Coefficients,
    Dataset,
    _information,
    _loss_sum,
    _nonnegative,
    _pair_table,
    _residuals,
)

__all__ = ["FitReport", "fit_mle", "fit_weighted_batch", "fit_weighted_mle"]

#: a fit converges once the infinity norm of its mean-one gradient is at most this
GRAD_TOL = 1e-8
#: Newton steps before a fit stops unconverged
MAX_ITERS = 100
#: added to the Hessian's diagonal before each Newton step is solved
RIDGE = 1e-8
#: halvings of a Newton step before the fit stops as numerically stationary
STEP_HALVING_MAX = 30
#: a predicted decrease up to this fraction of the loss is below the line search's resolution
NEGLIGIBLE_ULPS = 8 * np.finfo(float).eps


@dataclass
class FitReport:
    """Outcome of a fit.

    ``final_grad_norm`` is the infinity norm of the gradient of the
    internally normalized (mean-one-weight) objective; ``final_loss`` is
    the caller's objective ``(1/n) sum_i w_i * loss_i`` at ``beta``.
    ``converged`` implies ``final_grad_norm <= GRAD_TOL``.
    ``non_descent_steps`` counts the Newton steps whose predicted decrease
    ``0.5 grad^T step`` is not positive, a singular Hessian's zero step
    among them; none is taken whole as negligible, and each ends its fit at
    the iterate before it, unconverged.
    """

    beta: Coefficients
    iterations: int
    final_grad_norm: float
    converged: bool
    final_loss: float
    non_descent_steps: int = 0


def _gradient(probs: np.ndarray, data: Dataset, w: np.ndarray) -> np.ndarray:
    """Gradients of the weighted mean losses w.r.t. vec(beta), shape (B, K*d).

    Per element rows 1..K of one ``(K + 1, n) @ (n, d)`` GEMM of the weighted
    class-major residuals, made from a copy of ``probs``, against ``X``: a GEMM
    even at K = 1, where a ``(1, n)`` GEMV would round by X's layout and the
    BLAS thread count.
    """
    S = _residuals(probs.copy(), data.y)
    S *= w[:, None, :]
    grad_mat = -(S @ data.X)[:, 1:] / data.n
    return grad_mat.reshape(-1, data.K * data.d)


def _newton_steps(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per matrix of the stack ``H``, the step ``H^-1 g``; zero where ``H`` is singular.

    One solve of the whole stack, and one per matrix only after it fails.
    """
    try:
        return np.linalg.solve(H, g)
    except LinAlgError:
        pass  # some matrix is singular: find which, one at a time
    step = np.zeros_like(g)
    for b, (h, g_b) in enumerate(zip(H, g)):
        try:
            step[b] = np.linalg.solve(h, g_b)
        except LinAlgError:
            pass  # a zero step, on which the line search stalls
    return step


def _weights_error(y: np.ndarray, K: int, weights: np.ndarray) -> str | None:
    """What is wrong with the first bad row of ``weights``, or None if none is.

    A row is bad when an entry is negative or not finite, when it is all
    zero, when its sum or the mean-one scale ``n / sum`` overflows, or
    when its positive-weight samples cover fewer than two distinct
    classes; the message is the first of these that holds.
    """
    invalid = ~_nonnegative(weights, axis=1)
    # a bad row may sum inf and -inf; an all-zero row divides by zero
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        total = weights.sum(axis=1)
        unscalable = ~np.isfinite(total) | ~np.isfinite(weights.shape[1] / total)
    zero = total == 0
    # (B, n) @ (n, K + 1) boolean product: which classes have positive weight
    present = (weights > 0) @ (y[:, None] == np.arange(K + 1))
    bad = invalid | zero | unscalable | (present.sum(axis=1) < 2)
    if not bad.any():
        return None
    b = int(np.argmax(bad))
    if invalid[b]:
        return "weights must be finite and nonnegative"
    if zero[b]:
        return "weights must not be all zero"
    if unscalable[b]:
        return f"weights sum to {total[b]:.3g}: the sum or its mean-one scale n/sum overflows"
    return "need samples of at least 2 distinct classes"


def fit_weighted_batch(data: Dataset, weights: np.ndarray) -> list[FitReport]:
    """Fit one weighted objective per row of ``weights`` on the one design ``data``.

    Row ``b`` of the ``(B, n)`` array ``weights`` gives the fit that
    :func:`fit_weighted_mle` would make with those weights, and its own
    :class:`FitReport`, bit for bit: each element has its own convergence
    test, step halving, iteration count and non-descent steps. Every
    element keeps its place, and a mask marks those still iterating: each
    round of the line search evaluates the whole stack, a stopped element
    at its own iterate, and only the elements still searching take their
    candidates. A bad row raises the ``ValueError`` that
    :func:`fit_weighted_mle` raises for it, for the first bad row.
    """
    if not data.labeled:
        raise ValueError("fitting requires labels")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != data.n or len(weights) == 0:
        raise ValueError(f"weights has shape {weights.shape}, expected (B, {data.n})")
    error = _weights_error(data.y, data.K, weights)
    if error is not None:
        raise ValueError(error)

    # mean-one weights: conditioning and stop tests do not depend on the caller's scale
    w = weights * (data.n / weights.sum(axis=1))[:, None]
    B, K, d = len(w), data.K, data.d
    beta = np.zeros((B, K, d))
    loss, probs = _loss_sum(beta, data.X, data.y, w)  # each iterate's one evaluation
    loss /= data.n
    iterations, non_descent = np.zeros((2, B), dtype=int)
    grad_norm = np.empty(B)
    eye = np.eye(K * d)
    # the feature products depend on X alone: one table serves every
    # Newton step of every element, when it fits the budget
    pairs = _pair_table(data.X)
    running = np.ones(B, dtype=bool)  # the elements still iterating

    for iteration in range(MAX_ITERS + 1):
        g = _gradient(probs, data, w)
        grad_norm[running] = np.abs(g[running]).max(axis=1)
        running &= grad_norm > GRAD_TOL
        if iteration == MAX_ITERS or not running.any():  # all converged or stalled
            break
        H = _information(probs, data.X, w, pairs) + RIDGE * eye
        del probs  # held through the line search, they would double the per-row memory
        H[~running] = eye  # a stopped element's singular matrix would fail the stack's solve
        step = _newton_steps(H, g[:, :, None])
        step[~running] = 0.0  # a stopped element is evaluated at its own iterate
        # a descent step predicts a positive decrease 0.5 g^T H^-1 g; within a few
        # ulps of the loss it is below the line search's resolution: taken whole
        decrease = 0.5 * (g[:, None, :] @ step)[:, 0, 0]
        descent = decrease > 0
        non_descent += running & ~descent
        negligible = descent & (decrease <= NEGLIGIBLE_ULPS * loss)
        step = step.reshape(-1, K, d)
        iterations += running
        # the elements still searching have all halved their steps equally often
        t, pending, probs = 1.0, running.copy(), None
        for _ in range(STEP_HALVING_MAX + 1):
            candidate = beta - t * step
            candidate_loss, candidate_probs = _loss_sum(candidate, data.X, data.y, w)
            candidate_loss /= data.n
            taken = pending & ((candidate_loss < loss) | negligible)
            beta[taken] = candidate[taken]
            loss[taken] = candidate_loss[taken]
            if probs is None:
                probs = candidate_probs
            else:
                np.copyto(probs, candidate_probs, where=taken[:, None, None])
            pending &= ~taken
            if not pending.any():
                break
            t *= 0.5
        del candidate_probs  # held into the next gradient, they would add a third copy
        running &= ~pending  # an element that could not step is numerically stationary
    del probs  # freed before the report's evaluation

    # weights already mean one: the last accepted loss is the caller's, bit for bit
    final_loss = loss if np.array_equal(w, weights) else (
        _loss_sum(beta, data.X, data.y, weights)[0] / data.n)
    return [
        FitReport(
            beta=beta[b],
            iterations=int(iterations[b]),
            final_grad_norm=float(grad_norm[b]),
            converged=bool(grad_norm[b] <= GRAD_TOL),
            final_loss=float(final_loss[b]),
            non_descent_steps=int(non_descent[b]),
        )
        for b in range(B)
    ]


def fit_weighted_mle(data: Dataset, weights: np.ndarray) -> FitReport:
    """Minimize ``(1/n) sum_i w_i * cross_entropy_i`` by damped Newton.

    Non-convergence within ``MAX_ITERS`` steps is reported via
    ``converged=False``, never silently. Raises ``ValueError`` on weights
    that are not finite and nonnegative or are all zero, on weights whose
    sum or mean-one scale overflows, or if the positive-weight samples
    cover fewer than two distinct classes. The one-element case of
    :func:`fit_weighted_batch`, which checks the weights' values.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.n,):
        raise ValueError(f"weights has shape {weights.shape}, expected {(data.n,)}")
    return fit_weighted_batch(data, weights[None])[0]


def fit_mle(data: Dataset) -> FitReport:
    """Maximum-likelihood fit (all weights one)."""
    return fit_weighted_mle(data, np.ones(data.n))
