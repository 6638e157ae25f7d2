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
:func:`probability_matrix` returns the row-major ``(n, K + 1)``
transposed view. Every function here is batched over rows; the
per-sample oracles live in :mod:`copsamp.selfcheck`.

All probabilities are computed with max-subtraction and all losses in
log-space (a max-shifted log-sum-exp); nothing here exponentiates a
probability and takes its logarithm afterwards. Probabilities can still underflow to
exactly 0.0 once the spread of logits exceeds roughly 700; losses remain
finite regardless.

The information matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)`` is the
Newton Hessian of every fit (:func:`_information`) and the Fisher matrix
of exact scoring (:func:`fisher_info`). It is built from one feature-pair
table, the products ``x_a x_b`` with ``a <= b``, which only the exact
scores of :mod:`copsamp.uncertainty` also read. A Newton fit keeps the
whole table for its life when it fits ``PAIR_TABLE_BYTES``; over the
budget each call builds it block by block. Both give the same bits.

The private builders, the weighted loss and :func:`_information` also
take a ``(B, K, d)`` stack of coefficients on one design, with ``(B, n)``
weights: the batched Newton solver's fits. Every per-row quantity gains
the leading batch axis and the feature products are built once for the
whole stack, but each element gets the GEMMs it would get alone.

A public function that takes ``beta`` from outside the package checks
once, on entry, that it is a finite ``(data.K, data.d)`` matrix
(:func:`_check_beta`); the private kernels, and so the Newton steps,
check nothing.

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
    "dataset_loss",
    "fisher_info",
    "probability_matrix",
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
    in ``[0, K]``. ``K``, an integer >= 1, is the number of non-reference
    classes, so a binary problem has ``K == 1``. Float labels are taken
    when they are whole numbers; a label an integer cast would change,
    such as 0.5 or NaN, is refused.
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
        _check_integer("K", self.K, 1)
        if self.y is not None:
            y = np.asarray(self.y)
            if y.shape != (self.X.shape[0],):
                raise ValueError(
                    f"y has shape {y.shape}, expected ({self.X.shape[0]},)"
                )
            if y.dtype.kind == "f":
                bad = np.flatnonzero(~np.isfinite(y) | (y != np.trunc(y)))
                if bad.size:
                    raise ValueError(f"label {y[bad[0]]} of row {bad[0]} is not an integer")
            # the range is checked before the cast, which would wrap labels outside int64
            if y.size and (y.min() < 0 or y.max() > self.K):
                raise ValueError(f"labels must lie in [0, {self.K}]")
            self.y = np.asarray(y, dtype=int)

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


def _nonnegative(a: np.ndarray, axis: int | None = None):
    """The rule for weights, counts and scores: all entries (per ``axis``) finite and >= 0."""
    return np.all(np.isfinite(a) & (a >= 0), axis=axis)


def _check_nonnegative(name: str, a, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``a`` as a float array, refused unless of ``shape`` (if given) and :func:`_nonnegative`."""
    a = np.asarray(a, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not _nonnegative(a):
        raise ValueError(f"{name} must be finite and nonnegative")
    return a


def _check_beta(beta: Coefficients, data: Dataset | None = None) -> np.ndarray:
    """``beta`` as a finite float ``(K, d)`` matrix, of ``data``'s K and d if given."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        raise ValueError(f"beta must be a (K, d) matrix, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    if data is not None and beta.shape != (data.K, data.d):
        name, got, want = (("feature dimension", beta.shape[1], data.d) if beta.shape[1] != data.d
                           else ("class count", beta.shape[0], data.K))
        raise ValueError(f"beta has {name} {got}, data has {want}: "
                         f"shape {beta.shape}, expected {(data.K, data.d)}")
    return beta


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


def probability_matrix(beta: Coefficients, X: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``X``, shape ``(n, K + 1)``.

    A transposed view of the class-major ``(K + 1, n)`` array.
    """
    beta = _check_beta(beta)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != beta.shape[1]:
        raise ValueError(f"X has shape {X.shape}, expected (n, {beta.shape[1]})")
    return _probabilities(beta, X).T


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


def dataset_loss(
    beta: Coefficients,
    data: Dataset,
    weights: np.ndarray | None = None,
) -> float:
    """Average (optionally weighted) cross-entropy ``(1/n) sum_i w_i l_i``.

    The caller scales the weights, finite and nonnegative, one per row;
    the subsampling pipelines pass inverse sampling probabilities.
    """
    beta = _check_beta(beta, data)
    if not data.labeled:
        raise ValueError("dataset_loss needs labels")
    if data.n == 0:
        raise ValueError("empty dataset")
    w = np.ones(data.n) if weights is None else _check_nonnegative("weights", weights, (data.n,))
    return float(_loss_sum(beta, data.X, data.y, w) / data.n)


#: rows per block of the row-blocked kernels: the feature-pair ones take
#: O(BLOCK_ROWS * (d^2 + K^2)) scratch whatever the number of rows
BLOCK_ROWS = 1024
#: bytes of the largest feature-pair table, n * d(d+1)/2 floats, that a
#: fit keeps for all its Newton steps; over it, each step builds its own
#: blocks into the O(BLOCK_ROWS * d^2) scratch
PAIR_TABLE_BYTES = 6 * 2**20


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


def _feature_pair_blocks(
    X: np.ndarray, table: np.ndarray | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The feature products of ``X`` in row blocks, as ``(start, stop, Q)``.

    ``Q`` is ``(T, b)``: row ``t`` holds ``x_a x_b`` of the rows
    ``start:stop`` for feature pair ``t`` of :func:`_pair_layout`. Each
    block is built into scratch reused by the next block or, given the
    ``(T, n)`` ``table``, into its columns ``start:stop``, so that one pass
    fills the table. This is the one builder of the products.
    """
    n, d = X.shape
    xt = np.empty((d, min(n, BLOCK_ROWS)))
    scratch = np.empty((d * (d + 1) // 2, xt.shape[1])) if table is None else None
    width = None
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        # scratch views are made once per block width: per block, the
        # Python work is d ufunc calls on them
        if scratch is None or stop - start != width:
            width = stop - start
            Q = scratch[:, :width] if table is None else table[:, start:stop]
            views = _pair_product_views(xt, Q, width)
        # a per-block transpose of X: a whole-array copy would cost O(n * d)
        np.copyto(xt[:, :width], X[start:stop].T)
        for x_a, x_rest, out in views:
            np.multiply(x_a, x_rest, out=out)
        yield start, stop, Q


def _pair_table(X: np.ndarray) -> np.ndarray | None:
    """The whole ``(T, n)`` feature-pair table of ``X``, or None over ``PAIR_TABLE_BYTES``.

    A fit builds it once and passes it to :func:`_information` on every
    Newton step, which then reads its blocks instead of building them.
    """
    n, d = X.shape
    T = d * (d + 1) // 2
    if n * T * 8 > PAIR_TABLE_BYTES:
        return None
    table = np.empty((T, n))
    for _ in _feature_pair_blocks(X, table):
        pass
    return table


def _pair_blocks(
    beta: np.ndarray,
    X: np.ndarray,
    y: np.ndarray | None = None,
    w: np.ndarray | None = None,
    pairs: np.ndarray | None = None,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The feature-pair table of ``X`` in row blocks, as ``(start, stop, C, Q)``.

    ``Q`` is a block of :func:`_feature_pair_blocks`, read from ``pairs``,
    the whole table of :func:`_pair_table`, when given. ``C`` is
    ``(P, b)``: row ``p`` holds the coefficient of class pair ``p``, with
    labels ``s_k s_l`` from the score vectors (the entries of ``psi``),
    without them ``phi_kl = [k == l] p_k - p_k p_l``, times ``w`` if given.
    So ``sum_i w_i C_i kron x_i x_i^T`` has block ``(k, l)`` entry
    ``(a, b)`` equal to ``C[p] @ Q[t]`` summed over the blocks. ``C`` and
    a built ``Q`` are scratch reused by the next block.

    A ``(B, K, d)`` stack of coefficients, with ``(B, n)`` weights, gives
    a ``(B, P, b)`` stack ``C``; ``Q`` depends on ``X`` alone and is built
    once for the whole stack.
    """
    rows = (_probabilities(beta, X) if y is None else _residuals(beta, X, y))[..., 1:, :]
    n = X.shape[0]
    K = rows.shape[-2]
    size = min(n, BLOCK_ROWS)
    rt = np.empty(rows.shape[:-1] + (size,))
    C = np.empty(rows.shape[:-2] + (K * (K + 1) // 2, size))
    q_blocks = _feature_pair_blocks(X) if pairs is None else (
        (start, min(start + BLOCK_ROWS, n), pairs[:, start : start + BLOCK_ROWS])
        for start in range(0, n, BLOCK_ROWS))
    width = None
    for start, stop, Q in q_blocks:
        # the views are made once per block width, as the products' are
        if stop - start != width:
            width = stop - start
            views = _pair_product_views(rt, C, width)
        # the class-major rows are copied as they are
        np.copyto(rt[..., :width], rows[..., start:stop])
        for r_k, r_rest, out in views:
            np.multiply(r_k, r_rest, out=out)
            if y is None:
                np.negative(out, out=out)
                out[..., :1, :] += r_k
        if w is not None:
            C[..., :width] *= w[..., None, start:stop]
        yield start, stop, C[..., :width], Q


def _information(
    beta: np.ndarray, X: np.ndarray, w: np.ndarray | None, pairs: np.ndarray | None
) -> np.ndarray:
    """``(K*d, K*d)`` matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)``.

    Every ``(d, d)`` block ``sum_i w_i phi_kl,i x_i x_i^T`` is symmetric and
    every block reads the same products, so the matrix is the ``(P, T)``
    table ``G = sum C @ Q^T`` over the row blocks of :func:`_pair_blocks`,
    P = K(K+1)/2 class pairs by T = d(d+1)/2 feature pairs: one GEMM per
    block of rows, then each entry of ``G / n`` is copied to its mirror
    positions, so the result is exactly symmetric. ``w``, finite and
    nonnegative, stands for all ones when None. ``pairs``, the ``(T, n)``
    table of ``X`` that :func:`_pair_table` builds, gives the feature
    products; without it each call builds them block by block. Extra
    memory is O(n*K + BLOCK_ROWS*(d^2 + K^2) + (K*d)^2), less the
    BLOCK_ROWS*d^2 scratch of the products when ``pairs`` is given; the
    table itself is held by the caller, a Newton fit, and is at most
    ``PAIR_TABLE_BYTES``.

    A ``(B, K, d)`` stack of coefficients, with ``w`` of shape ``(B, n)``
    if given, gives the ``(B, K*d, K*d)`` stack of matrices on the one
    design ``X``, each element from its own ``(P, b) @ (b, T)`` GEMMs,
    the same GEMMs whether or not ``pairs`` is given. Nothing is checked:
    :func:`fisher_info` checks ``beta`` and a Newton fit its weights.
    """
    kk, _, aa, _, unpack = _pair_layout(beta.shape[-2], X.shape[1])
    G = np.zeros(beta.shape[:-2] + (len(kk), len(aa)))
    for _, _, C, Q in _pair_blocks(beta, X, w=w, pairs=pairs):
        G += C @ Q.T
    G /= X.shape[0]
    return G.reshape(G.shape[:-2] + (-1,))[..., unpack]


def fisher_info(beta: Coefficients, data: Dataset) -> FisherInfo:
    """Average of ``kron(phi_i, x_i x_i^T)`` over the dataset, by :func:`_information`.

    Labels are unused, so unlabeled datasets are accepted. A
    near-singular result (smallest eigenvalue below ``1e-10`` times the
    largest) emits a ``RuntimeWarning``; downstream inversions apply a
    ridge instead of failing here.
    """
    beta = _check_beta(beta, data)
    if data.n == 0:
        raise ValueError("empty dataset")
    m = _information(beta, data.X, None, None)
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
