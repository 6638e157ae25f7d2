"""Per-sample uncertainty scores, exact and ensemble-based.

Exact scores are trace quantities under the inverse Fisher information:
``Tr((psi kron xx^T) M^-1)`` when the label is known (coreset selection)
and ``Tr((phi kron xx^T) M^-1)`` when it is not (active learning). The
per-sample functions evaluate them as quadratic forms of ``kron(v, x)``
against a Cholesky factorization of the ridge-stabilized information
matrix. The batched :func:`exact_scores` instead forms the K x K grid
of ``(d, d)`` blocks of ``M^-1`` once from that factor and sums
``C[k, l] * x^T (M^-1)_kl x`` over the blocks, with ``C = s s^T`` or
``phi``: one code path for both kinds, one GEMM per block pair, and
O(n*K^2 + n*d + (K*d)^2) memory.

Ensemble scores avoid the ``(K*d, K*d)`` inverse entirely: fit M probe
models, form the sample covariance of their logit vectors at ``x``, and
take the same traces against that ``(K, K)`` covariance at the ensemble
mean. Scaled by the per-member training size n', the ensemble scores
converge to the exact ones.

Scoring is pure and thread-safe; ensemble members can be trained
concurrently since they share nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal
import warnings

import numpy as np
from numpy.linalg import LinAlgError, cholesky
from scipy.linalg import cho_solve

from copsamp.model import (
    Coefficients,
    Dataset,
    FisherInfo,
    fisher_info,
    phi,
    phi_matrices,
    residual_matrix,
    score_vector,
)
from copsamp.solver import fit_mle

__all__ = [
    "ProbeEnsemble",
    "SingularInformationError",
    "train_ensemble",
    "logit_covariance",
    "ensemble_score_coreset",
    "ensemble_score_active",
    "ensemble_scores",
    "exact_score_coreset",
    "exact_score_active",
    "exact_scores",
    "score_rows",
]

class SingularInformationError(RuntimeError):
    """Fisher information could not be factorized even after the ridge."""


@dataclass
class ProbeEnsemble:
    """M probe-model coefficient matrices; ``mean`` is their arithmetic mean.

    ``probe_size`` is the per-member training-set size n', the scale
    factor linking ensemble scores to exact ones.
    """

    members: np.ndarray
    probe_size: int

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=float)
        if self.members.ndim != 3 or self.members.shape[0] < 2:
            raise ValueError("members must be (M, K, d) with M >= 2")

    @property
    def mean(self) -> Coefficients:
        return self.members.mean(axis=0)

    @property
    def M(self) -> int:
        return self.members.shape[0]

    @property
    def K(self) -> int:
        return self.members.shape[1]

    @property
    def d(self) -> int:
        return self.members.shape[2]


def shard_indices(n: int, M: int, seed: int) -> list[np.ndarray]:
    """M disjoint equal shards of ``range(n)``, shuffled by ``seed``.

    Shards have ``n // M`` rows each; any remainder rows are unused so
    every member trains on the same amount of data.
    """
    shard_size = n // M
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[m * shard_size : (m + 1) * shard_size] for m in range(M)]


def train_ensemble(probe: Dataset, M: int, seed: int = 0) -> ProbeEnsemble:
    """Fit M probe models, one per disjoint equal shard of ``probe``.

    The shards come from :func:`shard_indices` shuffled by ``seed``; each
    member is a plain maximum-likelihood fit of its shard.
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    if not probe.labeled:
        raise ValueError("probe data must be labeled")
    probe_size = probe.n // M
    if probe_size < probe.K + probe.d:
        raise ValueError(
            f"probe too small: shards of {probe_size} rows for K+d={probe.K + probe.d}"
        )

    members = np.empty((M, probe.K, probe.d))
    for m, idx in enumerate(shard_indices(probe.n, M, seed)):
        report = fit_mle(probe.subset(idx))
        if not report.converged:
            warnings.warn(
                f"ensemble member {m} did not converge "
                f"(grad norm {report.final_grad_norm:.3e})",
                RuntimeWarning,
                stacklevel=2,
            )
        members[m] = report.beta
    return ProbeEnsemble(members=members, probe_size=probe_size)


def logit_covariance(ensemble: ProbeEnsemble, x: np.ndarray) -> np.ndarray:
    """Sample covariance of member logit vectors at ``x``, shape (K, K).

    Uses the M-1 divisor and centers on the mean model's logits.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ensemble.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({ensemble.d},)")
    if ensemble.M < 2:
        raise ValueError("need at least 2 members")
    Z = ensemble.members @ x
    # the mean model's logits equal the mean of member logits; centering on
    # the computed logit mean keeps identical members at (near) zero
    dev = Z - Z.mean(axis=0)
    dev = _strip_roundoff(dev, Z, axis=0)
    sigma = dev.T @ dev / (ensemble.M - 1)
    return 0.5 * (sigma + sigma.T)


def _clamp(u: np.ndarray | float) -> np.ndarray | float:
    """Zero out round-off negatives of PSD quadratic forms."""
    return np.maximum(u, 0.0)


def _strip_roundoff(dev: np.ndarray, Z: np.ndarray, axis: int) -> np.ndarray:
    """Zero logit deviations within a few ulps of the logit magnitude.

    A spread that small is indistinguishable from identical members
    (the mean of M identical logits need not be bit-exact), and its
    squared contribution to the covariance is pure rounding noise.
    """
    tol = 8 * np.finfo(float).eps * np.abs(Z).max(axis=axis, keepdims=True)
    return np.where(np.abs(dev) <= tol, 0.0, dev)


def ensemble_score_coreset(ensemble: ProbeEnsemble, x: np.ndarray, y: int) -> float:
    """``s^T Sigma_M(x) s`` with the score vector at the ensemble mean."""
    s = score_vector(ensemble.mean, x, y)
    sigma = logit_covariance(ensemble, x)
    return float(_clamp(s @ sigma @ s))


def ensemble_score_active(ensemble: ProbeEnsemble, x: np.ndarray) -> float:
    """``Tr(phi(mean; x) Sigma_M(x))``, the label-averaged coreset score."""
    sigma = logit_covariance(ensemble, x)
    return float(_clamp(np.sum(phi(ensemble.mean, x) * sigma)))


def ensemble_scores(
    ensemble: ProbeEnsemble,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized ensemble scores over every row of ``data``."""
    X = data.X
    if data.d != ensemble.d:
        raise ValueError(f"data dimension {data.d} != ensemble dimension {ensemble.d}")
    Z = np.einsum("nd,mkd->nmk", X, ensemble.members)
    dev = _strip_roundoff(Z - Z.mean(axis=1, keepdims=True), Z, axis=1)
    sigma = np.einsum("nmk,nml->nkl", dev, dev) / (ensemble.M - 1)
    if kind == "coreset":
        if not data.labeled:
            raise ValueError("coreset scoring needs labels")
        S = residual_matrix(ensemble.mean, X, data.y)
        u = np.einsum("nk,nkl,nl->n", S, sigma, S)
    elif kind == "active":
        PHI = phi_matrices(ensemble.mean, X)
        u = np.einsum("nkl,nkl->n", PHI, sigma)
    else:
        raise ValueError(f"unknown score kind {kind!r}")
    return _clamp(u)


def _factorize(info: FisherInfo) -> np.ndarray:
    """Lower Cholesky factor of ``M + ridge * I``, ``ridge = 1e-10 * Tr(M) / (K*d)``.

    The factorization is numpy's, like the GEMMs around it: numpy and
    scipy may link separate BLAS builds, and switching thread pools
    between them made the factorization intermittently slow.
    """
    ridge = 1e-10 * float(np.trace(info.m)) / info.m.shape[0]
    try:
        return cholesky(info.m + ridge * np.eye(info.m.shape[0]))
    except LinAlgError as err:
        raise SingularInformationError(
            f"information matrix not positive definite with ridge {ridge:.3e}"
        ) from err


def exact_score_coreset(
    beta: Coefficients,
    info: FisherInfo,
    x: np.ndarray,
    y: int,
) -> float:
    """``Tr((psi kron xx^T) M^-1)`` as the quadratic form of ``kron(s, x)``."""
    factor = _factorize(info)
    g = np.kron(score_vector(beta, x, y), np.asarray(x, dtype=float))
    if g.shape[0] != info.m.shape[0]:
        raise ValueError("beta/x dimensions do not match the information matrix")
    return float(_clamp(g @ cho_solve((factor, True), g)))


def exact_score_active(
    beta: Coefficients,
    info: FisherInfo,
    x: np.ndarray,
) -> float:
    """``Tr((phi kron xx^T) M^-1)`` via the eigendecomposition of phi."""
    factor = _factorize(info)
    x = np.asarray(x, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(phi(beta, x))
    u = 0.0
    for lam, v in zip(eigvals, eigvecs.T):
        if lam <= 0:
            continue
        g = np.kron(v, x)
        u += lam * float(g @ cho_solve((factor, True), g))
    return float(_clamp(u))


def exact_scores(
    beta: Coefficients,
    info: FisherInfo,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized exact scores over every row of ``data``.

    Both kinds are ``Tr((C_i kron x_i x_i^T) M^-1) = sum_kl C_i[k, l]
    q_kl(x_i)`` with ``q_kl(x) = x^T (M^-1)_kl x`` over the ``(d, d)``
    blocks of the inverse of the ridged information matrix; ``C_i`` is
    ``s_i s_i^T`` for coreset scores and ``phi_i`` for active ones. The
    inverse is formed once from the shared Cholesky factor, and each
    ``q_kl`` with ``k <= l`` costs one ``(n, d) @ (d, d)`` GEMM, so peak
    memory is O(n*K^2 + n*d + (K*d)^2). Agrees with the per-sample
    functions to round-off.
    """
    factor = _factorize(info)
    X = data.X
    n, d = X.shape
    K = data.K
    if K * d != info.m.shape[0]:
        raise ValueError("data dimensions do not match the information matrix")
    if kind == "coreset":
        if not data.labeled:
            raise ValueError("coreset scoring needs labels")
        S = residual_matrix(beta, X, data.y)
        C = S[:, :, None] * S[:, None, :]
    elif kind == "active":
        C = phi_matrices(beta, X)
    else:
        raise ValueError(f"unknown score kind {kind!r}")
    factor_inv = np.linalg.inv(factor)
    m_inv = factor_inv.T @ factor_inv
    u = np.zeros(n)
    xm = np.empty_like(X)  # reused by every block: no (n, d) allocation per GEMM
    for k in range(K):
        for l in range(k, K):
            block = m_inv[k * d : (k + 1) * d, l * d : (l + 1) * d]
            np.matmul(X, block, out=xm)
            q = np.einsum("nd,nd->n", xm, X)
            # C and M^-1 are symmetric: the (l, k) term equals the (k, l) one
            u += (1.0 if k == l else 2.0) * C[:, k, l] * q
    return _clamp(u)


def score_rows(
    ensemble: ProbeEnsemble,
    data: Dataset,
    kind: Literal["coreset", "active"],
    estimator: Literal["ensemble", "exact"],
) -> np.ndarray:
    """Scores of every row of ``data`` by the ensemble or the exact estimator.

    The exact estimator evaluates the information matrix of ``data`` at the
    ensemble mean and takes its trace scores there.
    """
    if estimator == "ensemble":
        return ensemble_scores(ensemble, data, kind)
    if estimator != "exact":
        raise ValueError(f"unknown estimator {estimator!r}")
    beta = ensemble.mean
    return exact_scores(beta, fisher_info(beta, data), data, kind)
