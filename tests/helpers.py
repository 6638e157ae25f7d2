"""Data fixtures and test-only oracles shared by the test modules.

The oracles that ``copsamp selfcheck`` runs live in :mod:`copsamp.selfcheck`;
this module holds the ones that only the tests use.
"""

import numpy as np

from copsamp.model import Dataset, probability_matrix
from copsamp.selfcheck import class_probabilities, phi, sample_labels, score_vector
from copsamp.uncertainty import ProbeEnsemble


def synthetic(seed, n, K, d, scale=0.8):
    """Standard normal rows labelled by coefficients ``N(0, scale^2)``; returns both."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(scale=scale, size=(K, d))
    y = sample_labels(rng, probability_matrix(beta, X))
    return Dataset(X, y, K), beta


def constant_ensemble(beta, M=4, probe_size=100):
    """M identical members: every covariance, and so every ensemble score, is zero."""
    members = np.repeat(np.asarray(beta)[None, :, :], M, axis=0)
    return ProbeEnsemble(members, probe_size)


def kronecker_ensemble_score(ensemble, x, y=None):
    """``tr((C kron x x^T) V)`` with ``V`` the members' ``np.cov`` of ``vec(beta)``.

    The dense definition of an ensemble score at ``x``: ``C`` is ``s s^T``
    at label ``y``, or ``phi`` without one, at the ensemble mean. It
    shares no code with the members' logit deviations, and it runs in
    extended precision: its sum of (K*d)^2 terms of both signs, like the
    entries of ``s s^T``, loses more digits than the logit route does.
    """
    ext = np.longdouble
    if y is None:
        C = phi(ensemble.mean, x).astype(ext)
    else:
        s = score_vector(ensemble.mean, x, y).astype(ext)
        C = np.outer(s, s)
    V = np.cov(ensemble.members.reshape(ensemble.M, -1).astype(ext), rowvar=False)
    x = np.asarray(x, dtype=ext)
    return float(np.sum(np.kron(C, np.outer(x, x)) * V))


def ridged(m):
    """``m + ridge * I`` with the exact scorers' ridge ``1e-10 * Tr(m) / (K*d)``."""
    return m + 1e-10 * np.trace(m) / m.shape[0] * np.eye(m.shape[0])


def binary_exact_scores(beta, m, x, y):
    """The K = 1 closed forms of the exact (coreset, active) scores at ``x``.

    With ``q = x^T ridged(m)^-1 x``: coreset ``(1[y = 1] - p1)^2 q`` and
    active ``(p1 - p1^2) q``.
    """
    quad = x @ np.linalg.solve(ridged(m), x)
    p1 = class_probabilities(beta, x)[1]
    s = (1.0 if y == 1 else 0.0) - p1
    return s * s * quad, (p1 - p1 * p1) * quad
