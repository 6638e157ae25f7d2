"""Softmax-regression calculus.

A model over classes ``{0, 1, ..., K}`` is parameterized by a ``(K, d)``
coefficient matrix ``beta`` whose row ``k`` scores class ``k``; class 0 is
the reference class with an implicit zero row. The probability of class
``k`` given features ``x`` is ``exp(x @ beta[k]) / sum_l exp(x @ beta[l])``
with ``beta[0] = 0``.

Vectorization convention (pinned, relied on everywhere): ``vec(beta)``
concatenates row 1, then row 2, ..., row K, so that the per-sample loss
Hessian is ``kron(phi, outer(x, x))`` whose ``(k, l)`` block is
``phi[k, l] * outer(x, x)``, and the loss gradient is ``-kron(s, x)``.

All probabilities are computed with max-subtraction and all losses in
log-space (a max-shifted log-sum-exp); nothing here exponentiates a
probability and takes its logarithm afterwards. Probabilities can still underflow to
exactly 0.0 once the spread of logits exceeds roughly 700; losses remain
finite regardless.

Every function in this module is a pure function of its inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Coefficients",
    "Dataset",
    "FisherInfo",
    "class_probabilities",
    "cross_entropy",
    "dataset_loss",
    "score_vector",
    "loss_gradient",
    "phi",
    "psi",
    "loss_hessian",
    "information",
    "fisher_info",
    "probability_matrix",
    "residual_matrix",
    "phi_matrices",
]

# Coefficients are plain (K, d) float arrays; the alias documents intent
# in signatures without wrapping every matrix in a class.
Coefficients = np.ndarray

#: Relative eigenvalue threshold below which Fisher information is
#: flagged as numerically singular (diagnostic only, never an error).
NEAR_SINGULAR_RTOL = 1e-10


@dataclass
class Dataset:
    """A design matrix with optional labels.

    ``X`` has shape ``(n, d)``; ``y``, when present, holds integer labels
    in ``[0, K]``. ``K`` is the number of non-reference classes, so a
    binary problem has ``K == 1``.
    """

    X: np.ndarray
    y: np.ndarray | None
    K: int

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {self.X.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X contains non-finite entries")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=int)
            if self.y.shape != (self.X.shape[0],):
                raise ValueError(
                    f"y has shape {self.y.shape}, expected ({self.X.shape[0]},)"
                )
            if self.y.size and (self.y.min() < 0 or self.y.max() > self.K):
                raise ValueError(f"labels must lie in [0, {self.K}]")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def labeled(self) -> bool:
        return self.y is not None

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Rows at ``indices`` (repeats allowed) as a new dataset."""
        idx = np.asarray(indices, dtype=int)
        y = None if self.y is None else self.y[idx]
        return Dataset(self.X[idx], y, self.K)


@dataclass
class FisherInfo:
    """Averaged loss Hessian ``(1/n) sum_i kron(phi_i, x_i x_i^T)``.

    ``m`` is ``(K*d, K*d)`` symmetric positive semidefinite up to
    round-off.
    """

    m: np.ndarray
    near_singular: bool = field(default=False)


def _check_beta(beta: Coefficients, d: int | None = None) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        raise ValueError(f"beta must be a (K, d) matrix, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    if d is not None and beta.shape[1] != d:
        raise ValueError(
            f"beta has feature dimension {beta.shape[1]}, data has {d}"
        )
    return beta


def _check_x(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (beta.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({beta.shape[1]},)")
    return x


def _logit_matrix(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """All class logits, shape ``(n, K + 1)``, reference class first."""
    z = X @ beta.T
    return np.concatenate([np.zeros((X.shape[0], 1)), z], axis=1)


def probability_matrix(beta: Coefficients, X: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``X``, shape ``(n, K + 1)``."""
    beta = _check_beta(beta)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != beta.shape[1]:
        raise ValueError(
            f"X has shape {X.shape}, expected (n, {beta.shape[1]})"
        )
    z = _logit_matrix(beta, X)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def residual_matrix(beta: Coefficients, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Score vectors of every row, shape ``(n, K)``: ``indicator(y_i == k) - p_k(x_i)``.

    Row ``i`` is :func:`score_vector` at ``(x_i, y_i)``, i.e. the one-hot
    label minus the probabilities of classes ``1..K``.
    """
    S = -probability_matrix(beta, X)[:, 1:]
    y = np.asarray(y, dtype=int)
    labeled = y >= 1
    S[np.flatnonzero(labeled), y[labeled] - 1] += 1.0
    return S


def class_probabilities(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """Probabilities of classes ``0..K`` at a single point, length K + 1."""
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    return probability_matrix(beta, x[None, :])[0]


def _log_probability_of_label(
    beta: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """``log p_y`` per row, computed as ``z_y - m - log(sum(exp(z - m)))``.

    ``m`` is the row maximum of the logits, so every exponent is at most 0
    and the sum is at least 1: nothing overflows and the log is finite.
    """
    z = _logit_matrix(beta, X)
    z_y = z[np.arange(X.shape[0]), y]
    m = z.max(axis=1)
    z -= m[:, None]
    np.exp(z, out=z)
    return z_y - m - np.log(z.sum(axis=1))


def cross_entropy(beta: Coefficients, x: np.ndarray, y: int) -> float:
    """Negative log-probability of label ``y`` at ``x``."""
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    if not 0 <= y <= beta.shape[0]:
        raise ValueError(f"label {y} outside [0, {beta.shape[0]}]")
    return float(-_log_probability_of_label(beta, x[None, :], np.array([y]))[0])


def dataset_loss(
    beta: Coefficients,
    data: Dataset,
    weights: np.ndarray | None = None,
) -> float:
    """Average (optionally weighted) cross-entropy ``(1/n) sum_i w_i l_i``.

    The caller controls weight normalization; the subsampling pipelines
    pass inverse sampling probabilities.
    """
    beta = _check_beta(beta, data.d)
    if not data.labeled:
        raise ValueError("dataset_loss needs labels")
    if data.n == 0:
        raise ValueError("empty dataset")
    losses = -_log_probability_of_label(beta, data.X, data.y)
    if weights is None:
        return float(losses.mean())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.n,):
        raise ValueError(f"weights has shape {weights.shape}, expected ({data.n},)")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    return float(weights @ losses / data.n)


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


def _phi_from_p(p_nonref: np.ndarray) -> np.ndarray:
    return np.diag(p_nonref) - np.outer(p_nonref, p_nonref)


def phi(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """``(K, K)`` matrix ``diag(p_1..p_K) - p p^T`` over non-reference classes.

    Symmetric PSD; row sums equal ``p_k * p_0``.
    """
    p = class_probabilities(beta, x)
    return _phi_from_p(p[1:])


def phi_matrices(beta: Coefficients, X: np.ndarray) -> np.ndarray:
    """Stacked ``phi`` for every row of ``X``, shape ``(n, K, K)``."""
    P = probability_matrix(beta, X)[:, 1:]
    K = P.shape[1]
    out = -P[:, :, None] * P[:, None, :]
    out[:, np.arange(K), np.arange(K)] += P
    return out


def psi(beta: Coefficients, x: np.ndarray, y: int) -> np.ndarray:
    """Rank-one matrix ``s s^T`` built from the score vector at ``(x, y)``."""
    s = score_vector(beta, x, y)
    return np.outer(s, s)


def loss_hessian(beta: Coefficients, x: np.ndarray) -> np.ndarray:
    """``(K*d, K*d)`` per-sample Hessian ``kron(phi, outer(x, x))``."""
    beta = _check_beta(beta)
    x = _check_x(x, beta)
    return np.kron(phi(beta, x), np.outer(x, x))


def information(
    beta: Coefficients,
    X: np.ndarray,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """``(K*d, K*d)`` matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)``.

    Block ``(k, l)`` equals ``(X * (w * phi_kl)[:, None]).T @ X / n`` with
    ``phi_kl = [k == l] p_k - p_k p_l`` per row, so the matrix is built as
    K(K+1)/2 GEMMs of ``(d, n) @ (n, d)``, one per block with ``k <= l``;
    the blocks below the diagonal are their transposes, and the diagonal
    blocks are mirrored from their upper triangles, so the result is
    exactly symmetric. Extra memory is O(n*d + n*K + (K*d)^2): one scaled
    copy of ``X`` is reused for every block. ``w`` defaults to all ones.
    """
    X = np.asarray(X, dtype=float)
    P = probability_matrix(beta, X)[:, 1:]
    n, d = X.shape
    K = P.shape[1]
    if n == 0:
        raise ValueError("empty dataset")
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights length mismatch")
    # one scratch buffer serves every block, so the loop allocates no
    # (n, d) array per block; rows of P.T are contiguous
    Pt = np.ascontiguousarray(P.T)
    scaled = np.empty_like(X)
    m = np.empty((K * d, K * d))
    for k in range(K):
        rows = slice(k * d, (k + 1) * d)
        for l in range(k, K):
            c = -Pt[k] * Pt[l]
            if k == l:
                c += Pt[k]
            if w is not None:
                c *= w
            np.multiply(X, c[:, None], out=scaled)
            block = scaled.T @ X / n
            cols = slice(l * d, (l + 1) * d)
            if k == l:
                m[rows, cols] = np.triu(block) + np.triu(block, 1).T
            else:
                m[rows, cols] = block
                m[cols, rows] = block.T
    return m


def fisher_info(
    beta: Coefficients,
    data: Dataset,
    weights: np.ndarray | None = None,
) -> FisherInfo:
    """Average of ``kron(phi_i, x_i x_i^T)`` over the dataset.

    The matrix comes from :func:`information`: one GEMM per block
    ``(k, l)``, ``k <= l``, of ``(X * phi_kl)^T X / n``, mirrored into an
    exactly symmetric ``(K*d, K*d)`` matrix. Labels are unused, so
    unlabeled datasets are accepted. A near-singular result (smallest
    eigenvalue below ``1e-10`` times the largest) emits a
    ``RuntimeWarning``; downstream inversions apply a ridge instead of
    failing here.
    """
    beta = _check_beta(beta, data.d)
    m = information(beta, data.X, weights)
    eigs = np.linalg.eigvalsh(m)
    near_singular = bool(eigs[0] < NEAR_SINGULAR_RTOL * max(eigs[-1], 0.0))
    if near_singular:
        warnings.warn(
            "Fisher information is numerically singular "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]); "
            "inverse-based scores will rely on ridge regularization",
            RuntimeWarning,
            stacklevel=2,
        )
    return FisherInfo(m=m, near_singular=near_singular)
