"""Damped-Newton fitting of softmax regression, plain and inverse-probability weighted.

One Newton loop runs over a leading batch axis: :func:`fit_weighted_batch`
fits B weight vectors on one shared design at once, each with its own
stop test, step halving and :class:`FitReport`, and
:func:`fit_weighted_mle` is its one-element case. Batching saves the
per-iteration Python overhead that dominates fits on a few rows, such
as the simulation's probe members and refits on its six cells.

The weighted objective is ``(1/n) sum_i w_i * cross_entropy_i``. Weights
are rescaled internally to mean one before iterating, so fits are
invariant (to round-off) under rescaling all weights by a positive
constant; the reported ``final_loss`` is always of the caller's original
objective. The gradient is rows 1..K of one ``(K + 1, n) @ (n, d)`` GEMM
of the weighted class-major residuals against ``X``, a GEMM even at K = 1,
where a ``(1, n)`` GEMV would round by X's layout and the BLAS thread
count (see :mod:`copsamp.model`). The Hessian ``H`` is the information
matrix of the mean-one weights, from the unchecked kernel
``copsamp.model._information`` that :func:`copsamp.model.fisher_info`
also reads: a fit's weights are checked once, by :func:`_weights_error`,
and nothing is checked on a Newton step. It is one GEMM per
block of rows between the weighted class-pair coefficients ``w phi_kl``
(``k <= l``) and the feature products ``x_a x_b`` (``a <= b``), whose
``(P, T)`` sum over the blocks is mirrored into the exactly symmetric
``(K*d, K*d)`` matrix. The products depend on ``X`` alone: when their
n*d(d+1)/2 floats fit ``copsamp.model.PAIR_TABLE_BYTES``, a fit builds
them once and every Newton step of every batch element reads them, so
the fit holds at most that budget besides its O(n*K) per-row arrays;
over it, each step builds them per block of rows, as
:func:`~copsamp.model.fisher_info` always does. Either way a batch
element gets the GEMMs its fit alone would get, bit for bit. Each
Newton step is one LU solve of ``(H + RIDGE * I) step =
grad``, a zero step where that matrix is exactly singular. A step whose
predicted decrease ``0.5 grad^T step`` is positive is a descent step;
every other step counts in ``FitReport.non_descent_steps``, and on the
convex objective its line search stalls, but for rounding. Each step is
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


def _objective(beta: np.ndarray, data: Dataset, w: np.ndarray) -> np.ndarray:
    return _loss_sum(beta, data.X, data.y, w) / data.n


def _gradient(beta: np.ndarray, data: Dataset, w: np.ndarray) -> np.ndarray:
    """Gradients of the weighted mean losses w.r.t. vec(beta), shape (B, K*d).

    Per element rows 1..K of one ``(K + 1, n) @ (n, d)`` GEMM of the
    weighted class-major residuals against ``X``.
    """
    S = _residuals(beta, data.X, data.y)
    S *= w[:, None, :]
    grad_mat = -(S @ data.X)[:, 1:] / data.n
    return grad_mat.reshape(len(beta), -1)


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
    :class:`FitReport`: each element has its own convergence test, step
    halving, iteration count and non-descent steps. An element leaves
    the batch when it converges or its line search fails, and each
    round of the line search evaluates only the elements still
    searching. A bad row raises the ``ValueError`` that
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

    # Mean-one rescaling keeps conditioning and stop criteria independent
    # of the caller's weight scale; the argmin is unchanged.
    w = weights * (data.n / weights.sum(axis=1))[:, None]
    B, K, d = len(w), data.K, data.d
    beta = np.zeros((B, K, d))
    loss = _objective(beta, data, w)
    iterations = np.zeros(B, dtype=int)
    non_descent = np.zeros(B, dtype=int)
    eye = np.eye(K * d)
    # the feature products depend on X alone: one table serves every
    # Newton step of every element, when it fits the budget
    pairs = _pair_table(data.X)
    active = np.arange(B)  # elements still iterating

    for _ in range(MAX_ITERS):
        if active.size == 0:  # the last elements stalled in the line search
            break
        g = _gradient(beta[active], data, w[active])
        moving = np.abs(g).max(axis=1) > GRAD_TOL
        active, g = active[moving], g[moving]
        if active.size == 0:
            break
        H = _information(beta[active], data.X, w[active], pairs) + RIDGE * eye
        step = _newton_steps(H, g[:, :, None])
        # a descent step predicts a positive decrease 0.5 g^T H^-1 g; within a few
        # ulps of the loss it is below the line search's resolution: taken whole
        decrease = 0.5 * (g[:, None, :] @ step)[:, 0, 0]
        descent = decrease > 0
        non_descent[active] += ~descent
        negligible = descent & (decrease <= NEGLIGIBLE_ULPS * loss[active])
        step = step.reshape(-1, K, d)
        iterations[active] += 1
        # the elements still searching have all halved their steps equally often
        t, pending = 1.0, active
        for _ in range(STEP_HALVING_MAX + 1):
            candidate = beta[pending] - t * step
            candidate_loss = _objective(candidate, data, w[pending])
            taken = (candidate_loss < loss[pending]) | negligible
            beta[pending[taken]] = candidate[taken]
            loss[pending[taken]] = candidate_loss[taken]
            if taken.all():
                break
            pending, step, negligible = pending[~taken], step[~taken], negligible[~taken]
            t *= 0.5
        else:  # no descent at the smallest step: numerically stationary
            active = np.setdiff1d(active, pending, assume_unique=True)

    final_grad_norm = np.abs(_gradient(beta, data, w)).max(axis=1)
    final_loss = _objective(beta, data, weights)
    return [
        FitReport(
            beta=beta[b],
            iterations=int(iterations[b]),
            final_grad_norm=float(final_grad_norm[b]),
            converged=bool(final_grad_norm[b] <= GRAD_TOL),
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
