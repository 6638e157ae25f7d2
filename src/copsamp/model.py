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

Batched functions hold their per-row quantities class-major as
``(K + 1, n)``: logits, probabilities and residuals, so that every
reduction over the classes runs along the long axis and the loss
gradient is rows 1..K of one ``(K + 1, n) @ (n, d)`` GEMM, even at K = 1.
Rows 1..K of the residuals are the score vectors. One private builder writes
``beta @ X.T`` into rows 1..K of a ``(K + 1, n)`` array whose row 0 is
zero and max-shifts each column; probabilities, residuals, losses
and the feature-pair table all start from it. The public
:func:`probability_matrix` and :func:`residual_matrix` return
row-major ``(n, K + 1)`` and ``(n, K)`` transposed views. The
per-sample functions compute their own softmax and serve as oracles.

All probabilities are computed with max-subtraction and all losses in
log-space (a max-shifted log-sum-exp); nothing here exponentiates a
probability and takes its logarithm afterwards. Probabilities can still underflow to
exactly 0.0 once the spread of logits exceeds roughly 700; losses remain
finite regardless.

The information matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)`` is the
Newton Hessian of every fit and the Fisher matrix of exact scoring. Each
of its ``(d, d)`` blocks is symmetric and every block reads the same
products ``x_a x_b``, so :func:`information` builds it from one
feature-pair table: the T = d(d+1)/2 products with ``a <= b`` and the
P = K(K+1)/2 class-pair coefficients with ``k <= l``, in row blocks of
``BLOCK_ROWS``, one ``(P, b) @ (b, T)`` GEMM per block. Only the exact
scores of :mod:`copsamp.uncertainty` read the same table.

The private builders, the weighted loss and :func:`information` also
take a ``(B, K, d)`` stack of coefficients on one design, with ``(B, n)``
weights: the batched Newton solver's fits. Every per-row quantity gains
the leading batch axis and the feature products are built once for the
whole stack, but each element gets the GEMMs it would get alone.

Every function in this module is a pure function of its inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

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


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """Refuse ``value`` unless it is an int or a numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_beta(
    beta: Coefficients, d: int | None = None, batched: bool = False
) -> np.ndarray:
    """``beta`` as a float ``(K, d)`` matrix, or ``(B, K, d)`` stack if ``batched``."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 and not (batched and beta.ndim == 3):
        raise ValueError(f"beta must be a (K, d) matrix, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    if d is not None and beta.shape[-1] != d:
        raise ValueError(
            f"beta has feature dimension {beta.shape[-1]}, data has {d}"
        )
    return beta


def _check_x(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (beta.shape[1],):
        raise ValueError(f"x has shape {x.shape}, expected ({beta.shape[1]},)")
    return x


def _shifted_logits(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class-major logits ``z - max_k z`` of every row of ``X``, shape ``(K + 1, n)``.

    Row 0, the reference class, is written as zeros and rows 1..K as
    ``beta @ X.T``; each column is then shifted by its maximum, so every
    entry is at most 0. The reductions run along the long axis. A
    ``(B, K, d)`` stack of coefficients gives a ``(B, K + 1, n)`` stack,
    one GEMM per element, each the one its element would get alone.
    """
    z = np.empty(beta.shape[:-2] + (beta.shape[-2] + 1, X.shape[0]))
    z[..., 0, :] = 0.0
    np.matmul(beta, X.T, out=z[..., 1:, :])
    z -= z.max(axis=-2, keepdims=True)
    return z


def _probabilities(beta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Class-major probabilities, shape ``(K + 1, n)``: each column sums to 1."""
    z = _shifted_logits(beta, X)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z


def _residuals(beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Class-major residuals of classes 0..K, ``(K + 1, n)``: ``indicator(y_i == k) - p_k(x_i)``."""
    S = _probabilities(beta, X)
    np.negative(S, out=S)
    S[..., np.asarray(y, dtype=int), np.arange(X.shape[0])] += 1.0
    return S


def _check_rows(
    beta: Coefficients, X: np.ndarray, batched: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    beta = _check_beta(beta, batched=batched)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != beta.shape[-1]:
        raise ValueError(
            f"X has shape {X.shape}, expected (n, {beta.shape[-1]})"
        )
    return beta, X


def probability_matrix(beta: Coefficients, X: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``X``, shape ``(n, K + 1)``.

    A transposed view of the class-major ``(K + 1, n)`` array.
    """
    return _probabilities(*_check_rows(beta, X)).T


def residual_matrix(beta: Coefficients, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Score vectors of every row, shape ``(n, K)``: ``indicator(y_i == k) - p_k(x_i)``.

    Row ``i`` is :func:`score_vector` at ``(x_i, y_i)``, i.e. the one-hot
    label minus the probabilities of classes ``1..K``. A transposed view
    of rows 1..K of the class-major ``(K + 1, n)`` residuals.
    """
    return _residuals(*_check_rows(beta, X), y)[1:].T


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


def _log_probability_of_label(
    beta: np.ndarray, X: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """``log p_y`` per row, computed as ``(z_y - m) - log(sum(exp(z - m)))``.

    ``m`` is the column maximum of the logits, so every exponent is at
    most 0 and the sum is at least 1: nothing overflows and the log is
    finite.
    """
    z = _shifted_logits(beta, X)
    z_y = z[..., y, np.arange(X.shape[0])]
    np.exp(z, out=z)
    return z_y - np.log(z.sum(axis=-2))


def _loss_sum(beta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_i w_i * cross_entropy_i``, the one weighted-loss reduction.

    numpy's pairwise sum along each row, not a BLAS dot: its rounding is
    smaller and does not depend on the BLAS thread count. A ``(B, K, d)``
    stack of coefficients with ``(B, n)`` weights gives ``B`` sums.
    """
    return np.sum(w * -_log_probability_of_label(beta, X, y), axis=-1)


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
    weights = np.ones(data.n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (data.n,):
        raise ValueError(f"weights has shape {weights.shape}, expected ({data.n},)")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    return float(_loss_sum(beta, data.X, data.y, weights) / data.n)


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


#: rows per block of the row-blocked kernels: the feature-pair ones take
#: O(BLOCK_ROWS * (d^2 + K^2)) scratch whatever the number of rows
BLOCK_ROWS = 1024


@lru_cache(maxsize=32)
def _pair_layout(K: int, d: int) -> tuple[np.ndarray, ...]:
    """Index arrays of the class pairs ``k <= l`` and feature pairs ``a <= b``.

    Returns ``(kk, ll, aa, bb, unpack)``. ``(kk[p], ll[p])`` is class pair
    ``p`` of P = K(K+1)/2 and ``(aa[t], bb[t])`` is feature pair ``t`` of
    T = d(d+1)/2, both in ``triu_indices`` order. ``unpack`` is the
    ``(K*d, K*d)`` index into a flattened ``(P, T)`` pair table: entry
    ``(k*d + a, l*d + b)`` reads pair ``(min(k, l), max(k, l))``,
    ``(min(a, b), max(a, b))``, so a matrix gathered through it is exactly
    symmetric. The arrays are read-only.
    """
    kk, ll = np.triu_indices(K)
    aa, bb = np.triu_indices(d)
    class_pair = np.empty((K, K), dtype=np.intp)
    class_pair[kk, ll] = class_pair[ll, kk] = np.arange(len(kk))
    feature_pair = np.empty((d, d), dtype=np.intp)
    feature_pair[aa, bb] = feature_pair[bb, aa] = np.arange(len(aa))
    unpack = (class_pair[:, None, :, None] * len(aa)
              + feature_pair[None, :, None, :]).reshape(K * d, K * d)
    layout = (kk, ll, aa, bb, unpack)
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _trace_weights(V: np.ndarray, K: int, d: int) -> np.ndarray:
    """The ``(P, T)`` table ``W`` with ``sum_pt W[p, t] C[p] Q[t] = sum_kl c_kl x^T V_kl x``.

    ``V`` is a symmetric ``(K*d, K*d)`` matrix, so each class pair ``k < l``
    counts twice, and a quadratic form ``x^T A x`` reads only the products
    ``x_a x_b`` with ``a <= b``: entry ``(k, l), (a, b)`` is
    ``V_kl[a, b] + V_kl[b, a]``, halved for ``a == b`` and doubled for
    ``k < l``. ``C`` and ``Q`` are the tables of :func:`_pair_blocks`.
    """
    kk, ll, aa, bb, _ = _pair_layout(K, d)
    rows, cols = kk[:, None] * d, ll[:, None] * d
    W = V[rows + aa, cols + bb] + V[rows + bb, cols + aa]
    W[:, aa == bb] *= 0.5
    W[kk < ll] *= 2.0
    return W


def _pair_product_views(
    src: np.ndarray, out: np.ndarray, b: int
) -> list[tuple[np.ndarray, ...]]:
    """``(src[a], src[a:], rows of out)`` for each ``a``, cut to the first ``b`` columns.

    Multiplying each first view into the second, out to the third, fills
    ``out`` with ``src[a] * src[c]`` for the pairs ``a <= c`` in
    ``triu_indices`` order; the third view's row 0 is the pair ``(a, a)``.
    Rows are the second-to-last axis, so a stack of tables is filled
    element by element with the same calls.
    """
    m, views, t = src.shape[-2], [], 0
    for a in range(m):
        views.append((src[..., a : a + 1, :b], src[..., a:, :b], out[..., t : t + m - a, :b]))
        t += m - a
    return views


def _pair_blocks(
    beta: Coefficients,
    X: np.ndarray,
    y: np.ndarray | None = None,
    w: np.ndarray | None = None,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The feature-pair table of ``X`` in row blocks, as ``(start, stop, C, Q)``.

    ``Q`` is ``(T, b)``: row ``t`` holds ``x_a x_b`` of the rows
    ``start:stop`` for feature pair ``t`` of :func:`_pair_layout`. ``C`` is
    ``(P, b)``: row ``p`` holds the coefficient of class pair ``p``, with
    labels ``s_k s_l`` from the score vectors (the entries of ``psi``),
    without them ``phi_kl = [k == l] p_k - p_k p_l``, times ``w`` if given.
    So ``sum_i w_i C_i kron x_i x_i^T`` has block ``(k, l)`` entry
    ``(a, b)`` equal to ``C[p] @ Q[t]`` summed over the blocks. Both
    arrays are scratch reused by the next block.

    A ``(B, K, d)`` stack of coefficients, with ``(B, n)`` weights, gives
    a ``(B, P, b)`` stack ``C``; ``Q`` depends on ``X`` alone and is built
    once for the whole stack.
    """
    beta, X = _check_rows(beta, X, batched=True)
    rows = (_probabilities(beta, X) if y is None else _residuals(beta, X, y))[..., 1:, :]
    n, d = X.shape
    K = rows.shape[-2]
    size = min(n, BLOCK_ROWS)
    xt = np.empty((d, size))
    rt = np.empty(rows.shape[:-1] + (size,))
    C = np.empty(rows.shape[:-2] + (K * (K + 1) // 2, size))
    Q = np.empty((d * (d + 1) // 2, size))
    # the views are made once per block width: per block, the Python work
    # is d + K ufunc calls on them
    width = size
    q_views, c_views = _pair_product_views(xt, Q, width), _pair_product_views(rt, C, width)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        if stop - start < width:
            width = stop - start
            q_views, c_views = _pair_product_views(xt, Q, width), _pair_product_views(rt, C, width)
        # a per-block transpose of X: a whole-array copy would cost O(n * d);
        # the class-major rows are copied as they are
        np.copyto(xt[:, :width], X[start:stop].T)
        for x_a, x_rest, out in q_views:
            np.multiply(x_a, x_rest, out=out)
        np.copyto(rt[..., :width], rows[..., start:stop])
        for r_k, r_rest, out in c_views:
            np.multiply(r_k, r_rest, out=out)
            if y is None:
                np.negative(out, out=out)
                out[..., :1, :] += r_k
        if w is not None:
            C[..., :width] *= w[..., None, start:stop]
        yield start, stop, C[..., :width], Q[:, :width]


def information(
    beta: Coefficients,
    X: np.ndarray,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """``(K*d, K*d)`` matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)``.

    Every ``(d, d)`` block ``sum_i w_i phi_kl,i x_i x_i^T`` is symmetric and
    every block reads the same products, so the matrix is the ``(P, T)``
    table ``G = sum C @ Q^T`` over the row blocks of :func:`_pair_blocks`,
    P = K(K+1)/2 class pairs by T = d(d+1)/2 feature pairs: one GEMM per
    block of rows, then each entry of ``G / n`` is copied to its mirror
    positions, so the result is exactly symmetric. Extra memory is
    O(n*K + BLOCK_ROWS*(d^2 + K^2) + (K*d)^2). ``w`` defaults to all ones.

    A ``(B, K, d)`` stack of coefficients, with ``w`` of shape ``(B, n)``
    if given, gives the ``(B, K*d, K*d)`` stack of matrices on the one
    design ``X``, each element from its own ``(P, b) @ (b, T)`` GEMMs.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n == 0:
        raise ValueError("empty dataset")
    beta = _check_beta(beta, d, batched=True)
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != beta.shape[:-2] + (n,):
            raise ValueError(f"weights has shape {w.shape}, expected {beta.shape[:-2] + (n,)}")
    kk, _, aa, _, unpack = _pair_layout(beta.shape[-2], d)
    G = np.zeros(beta.shape[:-2] + (len(kk), len(aa)))
    for _, _, C, Q in _pair_blocks(beta, X, w=w):
        G += C @ Q.T
    G /= n
    return G.reshape(G.shape[:-2] + (-1,))[..., unpack]


def fisher_info(beta: Coefficients, data: Dataset) -> FisherInfo:
    """Average of ``kron(phi_i, x_i x_i^T)`` over the dataset, by :func:`information`.

    Labels are unused, so unlabeled datasets are accepted. A
    near-singular result (smallest eigenvalue below ``1e-10`` times the
    largest) emits a ``RuntimeWarning``; downstream inversions apply a
    ridge instead of failing here.
    """
    m = information(beta, data.X)
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
