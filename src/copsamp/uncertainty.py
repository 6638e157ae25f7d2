"""Per-row uncertainty scores, exact and ensemble-based.

Both estimators score a row ``x`` by ``sum_kl C[k, l] Cov(z_k, z_l)`` over
its logits ``z``, with ``C = s s^T`` when the label is known (coreset
selection) and ``C = phi`` when it is not (active learning). Exact scores
take ``Cov(z) = (I kron x)^T M^-1 (I kron x)``, ``M`` the ridge-stabilized
Fisher information; ensemble scores take the sample covariance of the M
probe members' logits, and ``C`` at their mean. Each member fits n' rows
and ``n' * Cov(vec beta_m) ~ M^-1``, so ensemble scores times n' approach
the exact ones; the subsampling pipelines plan on that scale.

Batched exact scores pack ``M^-1``, the inverse of
:func:`copsamp.model.fisher_info`, into the feature-pair table of the
information kernel ``copsamp.model._information``: one
``(P, T) @ (T, b)`` GEMM per block of rows,
O(n*K + BLOCK_ROWS*(d^2 + K^2) + (K*d)^2) memory. Both ensemble
scorers read the members' logit deviations from one function; the batched
one takes O(n*K + BLOCK_ROWS*M*K) memory. The per-sample oracles of
both scorers live in :mod:`copsamp.selfcheck`. Scoring is pure and
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal
import warnings

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from copsamp.model import (
    BLOCK_ROWS,
    Coefficients,
    Dataset,
    FisherInfo,
    _check_beta,
    _check_integer,
    _pair_blocks,
    _probabilities,
    _residuals,
    _trace_weights,
    fisher_info,
)
from copsamp.solver import fit_mle

__all__ = [
    "ProbeEnsemble",
    "SingularInformationError",
    "train_ensemble",
    "ensemble_scores",
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
    _check_integer("M", M, 2)
    _check_integer("seed", seed, 0)
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


def _logit_deviations(members: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The members' logits at the rows of ``X`` minus their mean, shape ``(M, K, n)``.

    Deviations within 8 ulps of their row's and class's largest logit are
    rounding noise (a mean of identical values need not be exact): zeroed.
    """
    M, K, d = members.shape
    Z = (members.reshape(M * K, d) @ X.T).reshape(M, K, -1)
    tol = 8 * np.finfo(float).eps * np.abs(Z).max(axis=0)
    Z -= Z.mean(axis=0)  # Z now holds the deviations
    Z[np.abs(Z) <= tol] = 0.0
    return Z


def _clamp(u: np.ndarray | float) -> np.ndarray | float:
    """Zero out round-off negatives of PSD quadratic forms."""
    return np.maximum(u, 0.0)


def _scored_labels(data: Dataset, kind: str, size: int) -> np.ndarray | None:
    """The labels a ``kind`` score reads (None: active), after both batched scorers' checks."""
    if kind not in ("coreset", "active"):
        raise ValueError(f"unknown score kind {kind!r}")
    if kind == "coreset" and not data.labeled:
        raise ValueError("coreset scoring needs labels")
    if data.K * data.d != size:
        raise ValueError("data dimensions do not match the score matrix")
    return data.y if kind == "coreset" else None


def ensemble_scores(
    ensemble: ProbeEnsemble,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized ensemble scores: the members' logit covariance against ``C`` per row.

    Per block of rows it is ``sum_m c(dev_m) / (M - 1)`` over the members'
    logit deviations ``dev_m``, with ``c = (s^T dev)^2`` for coreset
    scores and ``dev^T phi dev`` for active ones.
    """
    if data.d != ensemble.d:
        raise ValueError(f"data dimension {data.d} != ensemble dimension {ensemble.d}")
    y = _scored_labels(data, kind, ensemble.K * ensemble.d)
    K, mean = ensemble.K, ensemble.mean
    # class-major (K, n) probabilities or score vectors at the mean, built once
    c = (_probabilities(mean, data.X) if y is None else _residuals(mean, data.X, y))[1:]
    u = np.empty(data.n)
    for start in range(0, data.n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        dev = _logit_deviations(ensemble.members, data.X[rows])
        if y is None:  # phi = diag(p) - p p^T per row, formed as selfcheck.phi forms it
            phi_rows = -(c[:, None, rows] * c[:, rows])
            phi_rows.reshape(K * K, -1)[:: K + 1] += c[:, rows]
            np.einsum("mkb,klb,mlb->b", dev, phi_rows, dev, out=u[rows])
        else:
            s_dev = np.einsum("kb,mkb->mb", c[:, rows], dev)
            np.einsum("mb,mb->b", s_dev, s_dev, out=u[rows])
    return _clamp(u / (ensemble.M - 1))


def _factorize(info: FisherInfo) -> np.ndarray:
    """Lower Cholesky factor of ``M + ridge * I``, ``ridge = 1e-10 * Tr(M) / (K*d)``."""
    ridge = 1e-10 * float(np.trace(info.m)) / info.m.shape[0]
    try:
        return cholesky(info.m + ridge * np.eye(info.m.shape[0]))
    except LinAlgError as err:
        raise SingularInformationError(
            f"information matrix not positive definite with ridge {ridge:.3e}"
        ) from err


def exact_scores(
    beta: Coefficients,
    info: FisherInfo,
    data: Dataset,
    kind: Literal["coreset", "active"],
) -> np.ndarray:
    """Vectorized exact scores ``Tr((C_i kron x_i x_i^T) M^-1)`` over every row.

    ``M^-1`` is packed into the ``(P, T)`` table ``W``: per block of rows
    of ``_pair_blocks`` the scores are ``sum_p C[p] * (W @ Q)[p]``.
    ``beta`` must be a finite ``(data.K, data.d)`` matrix.
    """
    beta = _check_beta(beta, data)
    y = _scored_labels(data, kind, info.m.shape[0])
    factor_inv = np.linalg.inv(_factorize(info))
    W = _trace_weights(factor_inv.T @ factor_inv, data.K, data.d)
    u = np.empty(data.n)
    for start, stop, C, Q in _pair_blocks(beta, data.X, y):
        np.einsum("pb,pb->b", C, W @ Q, out=u[start:stop])
    return _clamp(u)


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
