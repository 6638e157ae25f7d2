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
Rows 1..K of the residuals are the score vectors. One private kernel,
:func:`_softmax`, gives the probabilities and, given labels, the cross
entropies; the residuals, pair coefficients and information matrix take
its probabilities, not ``beta``. The public :func:`probability_matrix`
returns their row-major ``(n, K + 1)`` transposed view. Every function
here is batched over rows; the per-sample oracles live in
:mod:`copsamp.selfcheck`.

All probabilities are computed with max-subtraction and all losses in
log-space (a max-shifted log-sum-exp); nothing here exponentiates a
probability and takes its logarithm afterwards. Probabilities can still underflow to
exactly 0.0 once the spread of logits exceeds roughly 700; losses remain
finite regardless.

The information matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)`` is the
Newton Hessian of every fit (:func:`_information`) and the Fisher matrix
of exact scoring (:func:`fisher_info`); only exact scoring inverts it and
judges its conditioning. It is built from pair products of rows, the
feature pairs ``x_a x_b`` (``a <= b``) and the class pairs of
:func:`_class_pairs`, all from one block loop, :func:`_pair_products`,
which the exact scores of :mod:`copsamp.uncertainty` also read; one
index, :func:`_pair_layout`, maps between the matrix and the pair table
both ways. A Newton fit keeps its feature products when they fit
``PAIR_TABLE_BYTES``, else each call builds them: the same bits.

The softmax and the weighted loss also take a ``(B, K, d)`` stack of
coefficients on one design, with ``(B, n)`` weights, and the other
kernels its ``(B, K + 1, n)`` probabilities: the batched Newton fits.
Every per-row quantity gains the leading batch axis, and the feature
products are built once; each element gets the GEMMs it would get alone.

A public function that takes ``beta`` from outside the package checks
once, on entry, that it is a finite ``(data.K, data.d)`` matrix
(:func:`_check_beta`); the private kernels, and so the Newton steps,
check nothing.

Every function in this module is safe to call concurrently and pure, but
the residuals are written over the probabilities they are formed from.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
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
        """Rows at ``indices``, integers in ``[0, n)`` (repeats allowed), as a new dataset."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu" or (idx.size and (idx.min() < 0 or idx.max() >= self.n)):
            raise ValueError(f"indices must be integers in [0, {self.n}), got {idx}")
        y = None if self.y is None else self.y[idx]
        return Dataset(self.X[idx], y, self.K)


@dataclass
class FisherInfo:
    """Averaged loss Hessian ``(1/n) sum_i kron(phi_i, x_i x_i^T)``.

    ``m`` is ``(K*d, K*d)`` symmetric positive semidefinite up to
    round-off; one that is not square and nonempty, or not finite, is refused.
    """

    m: np.ndarray

    def __post_init__(self) -> None:
        m = self.m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError(f"information matrix must be finite, square, nonempty, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("information matrix contains non-finite entries")


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


def _softmax(beta: np.ndarray, X: np.ndarray, y: np.ndarray | None = None) -> tuple:
    """Class-major probabilities ``(K + 1, n)`` and, given labels ``y``, each row's cross entropy.

    Both come from one :func:`_shifted_logits`, one ``exp`` and one column
    sum ``s``: the probabilities are ``exp(z) / s``, the cross entropy is
    ``-(z_y - log s)``, finite as ``s >= 1``, or None without labels. A
    ``(B, K, d)`` stack of coefficients gives ``(B, K + 1, n)`` and ``(B, n)``.
    """
    z = _shifted_logits(beta, X)
    z_y = None if y is None else z[..., y, np.arange(X.shape[0])]
    np.exp(z, out=z)
    s = z.sum(axis=-2, keepdims=True)
    z /= s
    return z, None if y is None else -(z_y - np.log(s[..., 0, :]))


def _residuals(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Class-major residuals ``indicator(y_i == k) - p_k(x_i)``, written over ``probs``."""
    np.negative(probs, out=probs)
    # a class mask, not a fancy index: no O(n) index arrays
    np.add(probs, 1.0, out=probs, where=y == np.arange(probs.shape[-2])[:, None])
    return probs


def probability_matrix(beta: Coefficients, X: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``X``, shape ``(n, K + 1)``.

    A transposed view of the class-major ``(K + 1, n)`` array.
    """
    beta = _check_beta(beta)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != beta.shape[1]:
        raise ValueError(f"X has shape {X.shape}, expected (n, {beta.shape[1]})")
    return _softmax(beta, X)[0].T


def _loss_sum(beta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple:
    """``sum_i w_i * cross_entropy_i``, the one weighted-loss reduction, and the probabilities.

    numpy's pairwise sum along each row, not a BLAS dot: its rounding is
    smaller and does not depend on the BLAS thread count. A ``(B, K, d)``
    stack of coefficients with ``(B, n)`` weights gives ``B`` sums.
    """
    probs, loss = _softmax(beta, X, y)
    return np.sum(w * loss, axis=-1), probs


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
    return float(_loss_sum(beta, data.X, data.y, w)[0] / data.n)


#: rows per block of the row-blocked kernels: the feature-pair ones take
#: O(BLOCK_ROWS * (d^2 + K^2)) scratch whatever the number of rows
BLOCK_ROWS = 1024
#: bytes of the largest feature-pair table, n * d(d+1)/2 floats, that a
#: fit keeps for all its Newton steps; over it, each step builds its own
#: blocks into the O(BLOCK_ROWS * d^2) scratch
PAIR_TABLE_BYTES = 6 * 2**20


@lru_cache(maxsize=32)
def _pair_layout(K: int, d: int) -> np.ndarray:
    """The one map between a ``(K*d, K*d)`` matrix and the ``(P, T)`` pair table.

    The table has a row per class pair ``k <= l`` (P = K(K+1)/2) and a
    column per feature pair ``a <= b`` (T = d(d+1)/2), both in
    ``triu_indices`` order. The returned read-only ``(K*d, K*d)`` index
    gives entry ``(k*d + a, l*d + b)`` the flat position of pair
    ``(min(k, l), max(k, l))``, ``(min(a, b), max(a, b))``. Gathered
    through it, a flattened table is a matrix, exactly symmetric
    (:func:`_information`); scattered through it by ``np.bincount``, a
    matrix sums each entry into its pair, the table of ``M^-1`` that the
    exact scores read.
    """
    kk, ll = np.triu_indices(K)
    aa, bb = np.triu_indices(d)
    class_pair = np.empty((K, K), dtype=np.intp)
    class_pair[kk, ll] = class_pair[ll, kk] = np.arange(len(kk))
    feature_pair = np.empty((d, d), dtype=np.intp)
    feature_pair[aa, bb] = feature_pair[bb, aa] = np.arange(len(aa))
    unpack = (class_pair[:, None, :, None] * len(aa)
              + feature_pair[None, :, None, :]).reshape(K * d, K * d)
    unpack.setflags(write=False)
    return unpack


def _pair_products(
    src: np.ndarray, out: np.ndarray | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The one builder of pair products: of the rows of ``src``, as ``(start, stop, R)`` blocks.

    For a ``(..., m, n)`` source, row ``t`` of ``R``, ``(..., m(m+1)/2, b)``,
    holds ``src[a] * src[c]`` of the columns ``start:stop`` for the ``t``-th
    pair ``a <= c`` in ``triu_indices`` order, the order of
    :func:`_pair_layout`. Each block of ``BLOCK_ROWS`` columns is copied
    into contiguous scratch, and its products go into scratch reused by the
    next block or, given ``out``, into its columns ``start:stop``. Rows are
    the second-to-last axis, so a stack of sources is built element by
    element with the same calls.
    """
    m, n = src.shape[-2:]
    size = min(n, BLOCK_ROWS)
    block = np.empty(src.shape[:-1] + (size,))
    scratch = np.empty(src.shape[:-2] + (m * (m + 1) // 2, size)) if out is None else None
    width = None
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        # scratch views are made once per block width: per block, the
        # Python work is m ufunc calls on them
        if scratch is None or stop - start != width:
            width = stop - start
            R = scratch[..., :width] if out is None else out[..., start:stop]
            views, t = [], 0
            for a in range(m):
                views.append((block[..., a : a + 1, :width], block[..., a:, :width],
                              R[..., t : t + m - a, :]))
                t += m - a
        # a per-block copy: a whole-array one would cost O(n * m)
        np.copyto(block[..., :width], src[..., start:stop])
        for src_a, src_rest, R_a in views:
            np.multiply(src_a, src_rest, out=R_a)
        yield start, stop, R


def _pair_table(X: np.ndarray) -> list[tuple[int, int, np.ndarray]] | None:
    """The feature-product blocks of ``X`` in one kept table, or None over ``PAIR_TABLE_BYTES``.

    A fit builds them once and passes them to :func:`_information` on
    every Newton step, which reads them as it would read built blocks.
    """
    n, d = X.shape
    T = d * (d + 1) // 2
    if n * T * 8 > PAIR_TABLE_BYTES:
        return None
    return list(_pair_products(X.T, np.empty((T, n))))


def _class_pairs(
    probs: np.ndarray, y: np.ndarray | None = None, w: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The class-pair coefficients ``C``, ``(P, b)``, in the blocks of :func:`_pair_products`.

    ``probs`` holds class-major probabilities; given labels ``y``, they are
    overwritten by the residuals. Row ``p`` of ``C`` holds the coefficient
    of class pair ``p``: with labels ``s_k s_l`` from the score vectors
    (the entries of ``psi``), without them ``phi_kl = [k == l] p_k - p_k
    p_l``, times ``w`` if given. So ``sum_i w_i C_i kron x_i x_i^T`` has
    block ``(k, l)`` entry ``(a, b)`` equal to ``C[p] @ Q[t]`` summed over
    the blocks ``Q`` of the feature products. A ``(B, K + 1, n)`` stack of
    probabilities, with ``(B, n)`` weights, gives ``(B, P, b)`` blocks.
    """
    rows = (probs if y is None else _residuals(probs, y))[..., 1:, :]
    K = rows.shape[-2]
    diagonal = [k * K - k * (k - 1) // 2 for k in range(K)]  # the rows of the pairs (k, k)
    for start, stop, C in _pair_products(rows):
        if y is None:
            np.negative(C, out=C)
            for k, t in enumerate(diagonal):
                C[..., t, :] += rows[..., k, start:stop]
        if w is not None:
            C *= w[..., None, start:stop]
        yield C


def _information(
    probs: np.ndarray, X: np.ndarray, w: np.ndarray | None, pairs: list | None
) -> np.ndarray:
    """``(K*d, K*d)`` matrix ``(1/n) sum_i w_i kron(phi_i, x_i x_i^T)``.

    Every ``(d, d)`` block ``sum_i w_i phi_kl,i x_i x_i^T`` is symmetric and
    every block reads the same products, so the matrix is the ``(P, T)``
    table ``G = sum C @ Q^T`` over the blocks of :func:`_class_pairs` and
    the feature products ``Q``, P = K(K+1)/2 class pairs by T = d(d+1)/2
    feature pairs: one GEMM per block of rows, then each entry of ``G / n``
    is copied to its mirror positions, so the result is exactly symmetric.
    ``w``, finite and nonnegative, stands for all ones when None.
    ``pairs``, the kept blocks of :func:`_pair_table`, gives the feature
    products; without it each call builds them by :func:`_pair_products`
    from ``X.T``, in O(BLOCK_ROWS*d^2) scratch. ``probs``, the class-major
    probabilities of the rows of ``X``, is only read; besides it and
    ``pairs``, the call takes O(BLOCK_ROWS*K^2 + (K*d)^2) memory. A
    ``(B, K + 1, n)`` stack, with ``w`` of shape ``(B, n)`` if given, gives
    the ``(B, K*d, K*d)`` stack of matrices on the one design ``X``, each
    element from its own ``(P, b) @ (b, T)`` GEMMs, the same GEMMs whether
    or not ``pairs`` is given. Nothing is checked: :func:`fisher_info`
    checks ``beta`` and a Newton fit its weights.
    """
    K, d = probs.shape[-2] - 1, X.shape[1]
    G = np.zeros(probs.shape[:-2] + (K * (K + 1) // 2, d * (d + 1) // 2))
    q_blocks = _pair_products(X.T) if pairs is None else pairs
    for (_, _, Q), C in zip(q_blocks, _class_pairs(probs, w=w)):
        G += C @ Q.T
    G /= X.shape[0]
    return G.reshape(G.shape[:-2] + (-1,))[..., _pair_layout(K, d)]


def fisher_info(beta: Coefficients, data: Dataset) -> FisherInfo:
    """Average of ``kron(phi_i, x_i x_i^T)`` over the dataset, by :func:`_information`.

    Labels are unused, so unlabeled datasets are accepted. The matrix is
    returned as built; how well it is conditioned is judged where exact
    scoring inverts it (``copsamp.uncertainty._factorize``).
    """
    beta = _check_beta(beta, data)
    if data.n == 0:
        raise ValueError("empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is FisherInfo's to refuse
        return FisherInfo(_information(_softmax(beta, data.X)[0], data.X, None, None))
