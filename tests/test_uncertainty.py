"""Uncertainty scores: ensemble machinery, exact traces, and their agreement."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from copsamp.model import (
    Dataset,
    FisherInfo,
    class_probabilities,
    fisher_info,
    probability_matrix,
)
from copsamp.solver import fit_mle
from copsamp.uncertainty import (
    ProbeEnsemble,
    SingularInformationError,
    ensemble_score_active,
    ensemble_score_coreset,
    ensemble_scores,
    exact_score_active,
    exact_score_coreset,
    exact_scores,
    logit_covariance,
    train_ensemble,
)


def synthetic(seed, n, K, d, scale=0.8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(scale=scale, size=(K, d))
    P = probability_matrix(beta, X)
    y = (rng.random(n)[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
    return Dataset(X, y, K), beta


def constant_ensemble(beta, M=4, probe_size=100):
    members = np.repeat(beta[None, :, :], M, axis=0)
    return ProbeEnsemble(members=members, probe_size=probe_size)


class TestTrainEnsemble:
    def test_same_seed_identical(self):
        data, _ = synthetic(0, 400, 1, 3)
        a = train_ensemble(data, 4, seed=9)
        b = train_ensemble(data, 4, seed=9)
        npt.assert_array_equal(a.members, b.members)

    def test_mean_is_arithmetic_mean(self):
        data, _ = synthetic(1, 600, 2, 3)
        ens = train_ensemble(data, 5, seed=1)
        npt.assert_allclose(ens.mean, ens.members.mean(axis=0), atol=1e-12)

    def test_duplicated_shards_give_zero_covariance(self):
        # two identical halves, M=2: both members see the same rows
        data, _ = synthetic(2, 200, 1, 2)
        X2 = np.vstack([data.X, data.X])
        y2 = np.concatenate([data.y, data.y])
        both = Dataset(X2, y2, 1)
        # fit on the two identical halves directly
        a = fit_mle(Dataset(data.X, data.y, 1)).beta
        members = np.stack([a, a])
        ens = ProbeEnsemble(members, probe_size=200)
        for x in both.X[:5]:
            npt.assert_allclose(logit_covariance(ens, x), 0.0, atol=1e-30)

    def test_ten_member_ensemble(self):
        data, _ = synthetic(3, 2000, 1, 2)
        ens = train_ensemble(data, 10, seed=4)
        assert ens.M == 10
        assert ens.probe_size == 200

    def test_probe_too_small(self):
        data, _ = synthetic(4, 30, 2, 4)
        with pytest.raises(ValueError, match="too small"):
            train_ensemble(data, 10, seed=0)

    def test_m_below_two_rejected(self):
        data, _ = synthetic(6, 100, 1, 2)
        with pytest.raises(ValueError):
            train_ensemble(data, 1, seed=0)


class TestLogitCovariance:
    def test_identical_members_zero(self):
        ens = constant_ensemble(np.array([[0.5, -0.2]]))
        npt.assert_allclose(logit_covariance(ens, np.array([1.0, 2.0])), 0.0)

    def test_zero_x(self):
        data, _ = synthetic(7, 300, 2, 3)
        ens = train_ensemble(data, 3, seed=0)
        npt.assert_allclose(logit_covariance(ens, np.zeros(3)), 0.0)

    def test_two_member_variance(self):
        # K=1 logits {a, b}: covariance is (a-b)^2 / 2
        m1, m2 = np.array([[1.0, 0.0]]), np.array([[3.0, 1.0]])
        ens = ProbeEnsemble(np.stack([m1, m2]), 10)
        x = np.array([2.0, -1.0])
        a, b = float((m1 @ x)[0]), float((m2 @ x)[0])
        npt.assert_allclose(logit_covariance(ens, x), [[(a - b) ** 2 / 2]], rtol=1e-14)

    def test_psd(self):
        data, _ = synthetic(8, 500, 3, 3)
        ens = train_ensemble(data, 6, seed=1)
        for x in data.X[:20]:
            eig = np.linalg.eigvalsh(logit_covariance(ens, x))
            assert eig.min() >= -1e-12


class TestEnsembleScores:
    def test_identical_members_zero_scores(self):
        ens = constant_ensemble(np.array([[0.5, -0.2]]))
        assert ensemble_score_coreset(ens, np.array([1.0, 1.0]), 1) == 0.0
        assert ensemble_score_active(ens, np.array([1.0, 1.0])) == 0.0

    def test_doubling_covariance_doubles_score(self):
        data, _ = synthetic(9, 400, 2, 3)
        ens = train_ensemble(data, 5, seed=3)
        inflated = ProbeEnsemble(
            ens.mean + np.sqrt(2.0) * (ens.members - ens.mean),
            ens.probe_size,
        )
        x = data.X[0]
        for y in range(3):
            u = ensemble_score_coreset(ens, x, y)
            npt.assert_allclose(ensemble_score_coreset(inflated, x, y), 2 * u, rtol=1e-10)

    def test_label_average_identity(self):
        data, _ = synthetic(10, 500, 2, 3)
        ens = train_ensemble(data, 5, seed=5)
        for x in data.X[:10]:
            p = class_probabilities(ens.mean, x)
            avg = sum(p[y] * ensemble_score_coreset(ens, x, y) for y in range(3))
            npt.assert_allclose(avg, ensemble_score_active(ens, x), atol=1e-12)

    def test_batch_matches_pointwise(self):
        data, _ = synthetic(11, 200, 2, 3)
        ens = train_ensemble(data, 4, seed=6)
        u_core = ensemble_scores(ens, data, "coreset")
        u_act = ensemble_scores(ens, data, "active")
        for i in range(0, 200, 23):
            npt.assert_allclose(
                u_core[i], ensemble_score_coreset(ens, data.X[i], int(data.y[i])), rtol=1e-12
            )
            npt.assert_allclose(u_act[i], ensemble_score_active(ens, data.X[i]), rtol=1e-12)

    def test_binary_score_form(self):
        data, _ = synthetic(12, 300, 1, 2)
        ens = train_ensemble(data, 4, seed=7)
        x = data.X[0]
        p1 = class_probabilities(ens.mean, x)[1]
        sigma = logit_covariance(ens, x)[0, 0]
        npt.assert_allclose(
            ensemble_score_active(ens, x), (p1 - p1 * p1) * sigma, rtol=1e-12
        )


class TestExactScores:
    def test_zero_x(self):
        data, beta = synthetic(13, 300, 2, 3)
        info = fisher_info(beta, data)
        assert exact_score_coreset(beta, info, np.zeros(3), 1) == 0.0
        assert exact_score_active(beta, info, np.zeros(3)) == 0.0

    def test_binary_corollary_cross_check(self):
        # coreset: (indicator - p1)^2 x^T M^-1 x; active: (p1 - p1^2) x^T M^-1 x
        rng = np.random.default_rng(14)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            data, beta = synthetic(int(rng.integers(2**31)), 200, 1, d)
            info = fisher_info(beta, data)
            x = rng.normal(size=d)
            y = int(rng.integers(0, 2))
            ridge = 1e-10 * np.trace(info.m) / info.m.shape[0]
            Minv_x = np.linalg.solve(info.m + ridge * np.eye(d), x)
            quad = x @ Minv_x
            p1 = class_probabilities(beta, x)[1]
            s = (1.0 if y == 1 else 0.0) - p1
            npt.assert_allclose(
                exact_score_coreset(beta, info, x, y), s * s * quad, rtol=1e-10
            )
            npt.assert_allclose(
                exact_score_active(beta, info, x), (p1 - p1 * p1) * quad, rtol=1e-10
            )

    def test_dense_kronecker_oracle(self):
        from copsamp.model import phi, psi

        rng = np.random.default_rng(15)
        for _ in range(25):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            data, beta = synthetic(int(rng.integers(2**31)), 300, K, d)
            info = fisher_info(beta, data)
            x = rng.normal(size=d)
            y = int(rng.integers(0, K + 1))
            ridge = 1e-10 * np.trace(info.m) / info.m.shape[0]
            Minv = np.linalg.inv(info.m + ridge * np.eye(K * d))
            dense_core = np.trace(np.kron(psi(beta, x, y), np.outer(x, x)) @ Minv)
            dense_act = np.trace(np.kron(phi(beta, x), np.outer(x, x)) @ Minv)
            npt.assert_allclose(exact_score_coreset(beta, info, x, y), dense_core, rtol=1e-10)
            npt.assert_allclose(exact_score_active(beta, info, x), dense_act, rtol=1e-10)

    def test_label_average_identity(self):
        data, beta = synthetic(16, 400, 2, 3)
        info = fisher_info(beta, data)
        for x in data.X[:10]:
            p = class_probabilities(beta, x)
            avg = sum(p[y] * exact_score_coreset(beta, info, x, y) for y in range(3))
            npt.assert_allclose(avg, exact_score_active(beta, info, x), rtol=1e-10)

    def test_confident_label_scores_vanish(self):
        # extreme beta: choosing the predicted class sends the score to ~0
        data, _ = synthetic(17, 300, 1, 2)
        beta = np.array([[8.0, 0.0]])
        info = fisher_info(np.array([[0.5, 0.2]]), data)
        x = np.array([3.0, 0.1])
        p = class_probabilities(beta, x)
        y_hat = int(np.argmax(p))
        u_hat = exact_score_coreset(beta, info, x, y_hat)
        u_other = exact_score_coreset(beta, info, x, 1 - y_hat)
        assert u_hat < 1e-6 * u_other

    def test_batch_matches_pointwise(self):
        data, beta = synthetic(18, 150, 2, 3)
        info = fisher_info(beta, data)
        u_core = exact_scores(beta, info, data, "coreset")
        u_act = exact_scores(beta, info, data, "active")
        for i in range(0, 150, 17):
            npt.assert_allclose(
                u_core[i], exact_score_coreset(beta, info, data.X[i], int(data.y[i])),
                rtol=1e-10,
            )
            npt.assert_allclose(
                u_act[i], exact_score_active(beta, info, data.X[i]), rtol=1e-10
            )

    @pytest.mark.parametrize("kind", ["coreset", "active"])
    def test_batch_peak_memory_bounded(self, kind):
        # n=20k, d=30, K=6: an (n*K, K*d) or (n, K*d) matrix alone is 173 or 29 MB
        data, beta = synthetic(21, 20_000, 6, 30, scale=0.2)
        info = fisher_info(beta, data)
        tracemalloc.start()
        try:
            exact_scores(beta, info, data, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"{kind}: peak {peak / 1e6:.1f} MB"

    def test_singular_information_raises(self):
        info = FisherInfo(m=np.zeros((2, 2)))
        with pytest.raises(SingularInformationError):
            exact_score_coreset(np.zeros((1, 2)), info, np.ones(2), 1)
        with pytest.raises(SingularInformationError):
            exact_scores(np.zeros((1, 2)), info, Dataset(np.ones((3, 2)), None, 1), "active")

    def test_scores_nonnegative(self):
        data, beta = synthetic(19, 400, 3, 3)
        info = fisher_info(beta, data)
        assert np.all(exact_scores(beta, info, data, "coreset") >= 0)
        assert np.all(exact_scores(beta, info, data, "active") >= 0)
        ens = train_ensemble(data, 5, seed=8)
        assert np.all(ensemble_scores(ens, data, "coreset") >= 0)
        assert np.all(ensemble_scores(ens, data, "active") >= 0)


def test_scaled_ensemble_tracks_exact_quick():
    """Reduced-size version of the ensemble/exact correspondence."""
    rng = np.random.default_rng(20)
    d, K, M, shard = 3, 2, 60, 2000
    beta_star = rng.uniform(-1, 1, size=(K, d))

    def draw(n, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(n, d))
        P = probability_matrix(beta_star, X)
        y = (r.random(n)[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
        return Dataset(X, y, K)

    probe = draw(M * shard, 1)
    big = draw(80_000, 2)
    ens = train_ensemble(probe, M, seed=3)
    beta_hat = fit_mle(big).beta
    info = fisher_info(beta_hat, big)
    eval_data = big.subset(np.arange(300))
    for kind in ("coreset", "active"):
        u_ens = ensemble_scores(ens, eval_data, kind) * ens.probe_size
        u_exact = exact_scores(beta_hat, info, eval_data, kind)
        med = np.median(np.abs(u_ens - u_exact) / u_exact)
        assert med <= 0.25, f"{kind}: median rel err {med}"
