"""Per-sample uncertainty scores, exact and ensemble-based.

Both estimators are one trace, ``sum_kl C[k, l] x^T V_kl x`` over the
``(d, d)`` blocks of a ``(K*d, K*d)`` matrix ``V``, with ``C = s s^T``
when the label is known (coreset selection) and ``C = phi`` when it is
not (active learning). Exact scores take ``V = M^-1``, the inverse of
the ridge-stabilized Fisher information. Ensemble scores take the sample
covariance ``V = Cov(vec beta_m)`` of M probe models, whose logit
covariance at ``x`` is ``(I kron x)^T V (I kron x)``, and ``C`` at the
ensemble mean. Each member fits n' rows and ``n' * Cov(vec beta_m) ~
M^-1``, so ensemble scores times n' approach the exact ones; the
subsampling pipelines plan on that scale.

Both batched scorers run one kernel over the feature-pair table of
:func:`copsamp.model.information`: ``V`` is packed once into a ``(P, T)``
matrix ``W`` over the class pairs ``k <= l`` and feature pairs
``a <= b``, and each block of rows costs one ``(P, T) @ (T, b)`` GEMM
and a column sum against the pair coefficients, a single pass over
``X``. Their memory is O(n*K + BLOCK_ROWS*(d^2 + K^2) + (K*d)^2) for any
M. The per-sample functions take independent routes and serve as
oracles. Scoring is pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal
import warnings

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from copsamp.model import (
    Coefficients,
    Dataset,
    FisherInfo,
    _pair_blocks,
    _trace_weights,
    fisher_info,
    phi,
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
        if not np.all(np.isfinite(self.members)):
            raise ValueError("members must be finite")
        if self.probe_size < 1:
            raise ValueError(f"probe_size must be >= 1, got {self.probe_size}")

    @property
    def mean(self) -> Coefficients:
        return self.members.mean(axis=0)

    @property
    def covariance(self) -> np.ndarray:
        """Sample covariance (M-1 divisor) of the members' ``vec(beta)``, ``(K*d, K*d)``.

        Round-off deviations are stripped, so identical members give exactly 0.
        """
        B = self.members.reshape(self.M, -1)
        dev = _strip_roundoff(B - B.mean(axis=0), B, axis=0)
        return dev.T @ dev / (self.M - 1)

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
    """Zero deviations within a few ulps of the magnitude of the values.

    A spread that small is indistinguishable from identical members
    (the mean of M identical values need not be bit-exact), and its
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


def _trace_scores(
    beta: Coefficients, V: np.ndarray, data: Dataset, kind: str
) -> np.ndarray:
    """``u_i = sum_kl c_kl(x_i) x_i^T V_kl x_i`` over the row blocks of ``_pair_blocks``.

    Per block of rows it is ``sum_p C[p] * (W @ Q)[p]`` with ``W`` the
    ``(P, T)`` packing of ``V`` by ``_trace_weights``.
    """
    if kind not in ("coreset", "active"):
        raise ValueError(f"unknown score kind {kind!r}")
    if kind == "coreset" and not data.labeled:
        raise ValueError("coreset scoring needs labels")
    K, d = data.K, data.d
    if K * d != V.shape[0]:
        raise ValueError("data dimensions do not match the score matrix")
    W = _trace_weights(V, K, d)
    u = np.empty(data.n)
    y = data.y if kind == "coreset" else None
    for start, stop, C, Q in _pair_blocks(beta, data.X, y):
        np.einsum("pb,pb->b", C, W @ Q, out=u[start:stop])
    return _clamp(u)


def ensemble_scores(
    ensemble: ProbeEnsemble,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized ensemble scores: traces against the members' coefficient covariance."""
    if data.d != ensemble.d:
        raise ValueError(f"data dimension {data.d} != ensemble dimension {ensemble.d}")
    return _trace_scores(ensemble.mean, ensemble.covariance, data, kind)


def _factorize(info: FisherInfo) -> np.ndarray:
    """Lower Cholesky factor of ``M + ridge * I``, ``ridge = 1e-10 * Tr(M) / (K*d)``."""
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
    z = np.linalg.solve(factor, g)  # g^T M^-1 g = |L^-1 g|^2
    return float(_clamp(z @ z))


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
        z = np.linalg.solve(factor, np.kron(v, x))
        u += lam * float(z @ z)
    return float(_clamp(u))


def exact_scores(
    beta: Coefficients,
    info: FisherInfo,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized exact scores ``Tr((C_i kron x_i x_i^T) M^-1)`` over every row.

    ``M^-1`` is formed once from the Cholesky factor of the ridged matrix.
    """
    factor_inv = np.linalg.inv(_factorize(info))
    return _trace_scores(beta, factor_inv.T @ factor_inv, data, kind)


def score_rows(
    ensemble: ProbeEnsemble,
    data: Dataset,
    kind: Literal["coreset", "active"],
    estimator: Literal["ensemble", "exact"],
) -> np.ndarray:
    """Scores of every row of ``data`` by the ensemble or the exact estimator.

    The exact estimator evaluates the information matrix of ``data`` at the
    ensemble mean and takes its trace scores there. Ensemble scores are
    unscaled: times ``ensemble.probe_size`` they are on the exact scale.
    """
    if estimator == "ensemble":
        return ensemble_scores(ensemble, data, kind)
    if estimator != "exact":
        raise ValueError(f"unknown estimator {estimator!r}")
    beta = ensemble.mean
    return exact_scores(beta, fisher_info(beta, data), data, kind)
