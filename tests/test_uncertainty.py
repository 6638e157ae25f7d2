"""Uncertainty scores: ensemble machinery, exact traces, and their agreement."""

import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from copsamp import solver, uncertainty
from copsamp.model import BLOCK_ROWS, Dataset, FisherInfo, fisher_info
from copsamp.sampler import SamplingConfig, cops_coreset
from copsamp.selfcheck import (
    class_probabilities,
    ensemble_score_active,
    ensemble_score_coreset,
    exact_score_active,
    exact_score_coreset,
    label_average,
    logit_covariance,
    phi,
    psi,
)
from copsamp.solver import fit_mle
from copsamp.uncertainty import (
    ProbeEnsemble,
    SingularInformationError,
    ensemble_scores,
    exact_scores,
    score_rows,
    train_ensemble,
)
from helpers import (
    binary_exact_scores,
    constant_ensemble,
    kronecker_ensemble_score,
    ridged,
    synthetic,
)


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

    @pytest.mark.parametrize("probe_size", [0, -5])
    def test_probe_size_below_one_rejected(self, probe_size):
        # probe_size 0 would scale every score to 0: a silent uniform plan
        with pytest.raises(ValueError, match="probe_size must be >= 1"):
            constant_ensemble(np.array([[0.5, -0.2]]), probe_size=probe_size)

    def test_non_finite_member_rejected(self):
        members = np.repeat(np.array([[[0.5, -0.2]]]), 3, axis=0)
        members[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ProbeEnsemble(members, probe_size=50)

    def test_unconverged_member_warns(self, monkeypatch):
        data, _ = synthetic(3, 400, 1, 2)
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        with pytest.warns(RuntimeWarning, match=r"ensemble member \d did not converge") as caught:
            ens = train_ensemble(data, 4, seed=0)
        assert len(caught) == ens.M == 4
        assert {w.filename for w in caught} == {__file__}


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
            avg = label_average(ens.mean, x, lambda y: ensemble_score_coreset(ens, x, y))
            npt.assert_allclose(avg, ensemble_score_active(ens, x), atol=1e-12)

    def test_identical_members_zero_batch_scores(self):
        # the mean of 7 copies of 0.1 is not bit-exact 0.1: round-off is stripped
        beta = np.array([[0.1, 0.7], [1.1, -0.3]])
        ens = constant_ensemble(beta, M=7)
        assert not np.array_equal(ens.mean, beta)
        data = Dataset(np.random.default_rng(24).normal(size=(50, 2)),
                       np.arange(50) % 3, 2)
        for x in data.X:
            npt.assert_array_equal(logit_covariance(ens, x), 0.0)
        npt.assert_array_equal(ensemble_scores(ens, data, "coreset"), 0.0)
        npt.assert_array_equal(ensemble_scores(ens, data, "active"), 0.0)

    def test_covariance_of_vectorized_members(self):
        data, _ = synthetic(25, 600, 2, 3)
        ens = train_ensemble(data, 5, seed=2)
        cov = np.cov(ens.members.reshape(5, -1), rowvar=False)
        # the logit covariance at x is (I kron x)^T Cov(vec beta) (I kron x)
        x = data.X[0]
        lift = np.kron(np.eye(2), x[:, None])
        npt.assert_allclose(lift.T @ cov @ lift, logit_covariance(ens, x), rtol=1e-12)

    @pytest.mark.parametrize("M", [2, 10])
    @pytest.mark.parametrize("K, d", [(1, 2), (2, 3), (3, 5), (4, 2)])
    def test_batch_matches_kronecker_oracle(self, K, d, M):
        train, _ = synthetic(30 + K * d, 60 * M * (K + d), K, d)
        ens = train_ensemble(train, M, seed=M)
        data, _ = synthetic(31, 80, K, d)
        u_core = ensemble_scores(ens, data, "coreset")
        u_act = ensemble_scores(ens, data, "active")
        for i, x in enumerate(data.X):
            npt.assert_allclose(u_core[i], kronecker_ensemble_score(ens, x, int(data.y[i])),
                                rtol=1e-12)
            npt.assert_allclose(u_act[i], kronecker_ensemble_score(ens, x), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["coreset", "active"])
    def test_batch_peak_memory_bounded_in_d(self, kind):
        # K=9, d=128: one BLOCK_ROWS block of the d(d+1)/2 feature products
        # alone is 67.6 MB, and Cov(vec beta) is 10.6 MB
        data, beta = synthetic(29, 4096, 9, 128, scale=0.05)
        rng = np.random.default_rng(29)
        ens = ProbeEnsemble(beta + rng.normal(scale=0.01, size=(10, 9, 128)), 100)
        tracemalloc.start()
        try:
            ensemble_scores(ens, data, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"{kind}: peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("kind", ["coreset", "active"])
    @pytest.mark.parametrize("M", [5, 50])
    def test_batch_peak_memory_independent_of_members(self, kind, M):
        # n=100k, d=10, K=2: one (n, M, K) logit tensor alone is 8*M MB
        data, beta = synthetic(26, 100_000, 2, 10, scale=0.3)
        rng = np.random.default_rng(M)
        ens = ProbeEnsemble(beta + rng.normal(scale=0.05, size=(M, 2, 10)), 100)
        tracemalloc.start()
        try:
            ensemble_scores(ens, data, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"{kind}, M={M}: peak {peak / 1e6:.1f} MB"

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
            core, act = binary_exact_scores(beta, info.m, x, y)
            npt.assert_allclose(exact_score_coreset(beta, info, x, y), core, rtol=1e-10)
            npt.assert_allclose(exact_score_active(beta, info, x), act, rtol=1e-10)

    def test_dense_kronecker_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            data, beta = synthetic(int(rng.integers(2**31)), 300, K, d)
            info = fisher_info(beta, data)
            x = rng.normal(size=d)
            y = int(rng.integers(0, K + 1))
            Minv = np.linalg.inv(ridged(info.m))
            dense_core = np.trace(np.kron(psi(beta, x, y), np.outer(x, x)) @ Minv)
            dense_act = np.trace(np.kron(phi(beta, x), np.outer(x, x)) @ Minv)
            npt.assert_allclose(exact_score_coreset(beta, info, x, y), dense_core, rtol=1e-10)
            npt.assert_allclose(exact_score_active(beta, info, x), dense_act, rtol=1e-10)

    def test_label_average_identity(self):
        data, beta = synthetic(16, 400, 2, 3)
        info = fisher_info(beta, data)
        for x in data.X[:10]:
            avg = label_average(beta, x, lambda y: exact_score_coreset(beta, info, x, y))
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

    @pytest.mark.parametrize("n", [2 * BLOCK_ROWS + 37, 1])
    def test_row_blocks_match_pointwise(self, n):
        # several full row blocks plus a remainder, and a single row, for
        # both batched scorers against their per-sample functions
        train, beta = synthetic(19, 400, 3, 4)
        info = fisher_info(beta, train)
        ens = train_ensemble(train, 4, seed=3)
        data, _ = synthetic(20 + n, n, 3, 4)
        u = {kind: (exact_scores(beta, info, data, kind), ensemble_scores(ens, data, kind))
             for kind in ("coreset", "active")}
        for i in range(n):
            x, y = data.X[i], int(data.y[i])
            npt.assert_allclose(u["coreset"][0][i], exact_score_coreset(beta, info, x, y), rtol=1e-12)
            npt.assert_allclose(u["active"][0][i], exact_score_active(beta, info, x), rtol=1e-12)
            npt.assert_allclose(u["coreset"][1][i], ensemble_score_coreset(ens, x, y), rtol=1e-12)
            npt.assert_allclose(u["active"][1][i], ensemble_score_active(ens, x), rtol=1e-12)

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

    def test_rank_deficient_information_warns_where_inverted(self):
        # a zero feature column: fisher_info returns the matrix without a
        # warning, and each route that inverts it warns
        data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([0, 1, 1]), 1)
        beta = np.zeros((1, 2))
        info = fisher_info(beta, data)
        for score in (lambda: exact_scores(beta, info, data, "coreset"),
                      lambda: exact_scores(beta, info, data, "active"),
                      lambda: exact_score_coreset(beta, info, data.X[0], 1),
                      lambda: exact_score_active(beta, info, data.X[0])):
            with pytest.warns(RuntimeWarning, match="numerically singular"):
                score()

    @pytest.mark.parametrize("smallest, warns", [(0.1, True), (1.0, True), (16.0, False)])
    def test_singularity_warning_band(self, smallest, warns):
        # M = diag(1, 1, 1, smallest * ridge) at K = d = 2, where ridge solves
        # the scorers' ridge = 1e-10 * Tr(M) / 4: the warning always fires
        # once lambda_min <= ridge, and never once every eigenvalue is at
        # least 2*K*d*ridge; 16 * ridge is 4*K*d*ridge
        ridge = 3e-10 / (4 - 1e-10 * smallest)
        info = FisherInfo(np.diag([1.0, 1.0, 1.0, smallest * ridge]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exact_scores(np.zeros((2, 2)), info, ROWS_K2, "active")
        messages = [str(w.message) for w in caught]
        assert len(messages) == warns and all("numerically singular" in m for m in messages)

    @pytest.mark.parametrize("caller", ["exact_scores", "score_rows", "cops_coreset"])
    def test_singularity_warning_names_the_caller(self, caller):
        # however deep in the package the matrix is inverted, the warning
        # points at the line outside it that asked for the scores
        data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.array([0, 1, 1]), 1)
        beta = np.zeros((1, 2))
        ens = constant_ensemble(beta)
        call = {
            "exact_scores": lambda: exact_scores(beta, fisher_info(beta, data), data, "coreset"),
            "score_rows": lambda: score_rows(ens, data, "active", "exact"),
            "cops_coreset": lambda: cops_coreset(data, ens, SamplingConfig(3, estimator="exact")),
        }[caller]
        with pytest.warns(RuntimeWarning, match="numerically singular") as caught:
            call()
        assert [w.filename for w in caught] == [__file__]

    def test_scores_nonnegative(self):
        data, beta = synthetic(19, 400, 3, 3)
        info = fisher_info(beta, data)
        assert np.all(exact_scores(beta, info, data, "coreset") >= 0)
        assert np.all(exact_scores(beta, info, data, "active") >= 0)
        ens = train_ensemble(data, 5, seed=8)
        assert np.all(ensemble_scores(ens, data, "coreset") >= 0)
        assert np.all(ensemble_scores(ens, data, "active") >= 0)



ENSEMBLE = constant_ensemble(np.array([[0.5, -0.2]]))
ROWS = Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 1)
ROWS_K2 = Dataset(np.ones((3, 2)), np.array([0, 2, 1]), 2)

#: each refused input of the scoring layer, and the message it raises
REFUSALS = {
    "members not (M, K, d)": (lambda: ProbeEnsemble(np.zeros((3, 2)), probe_size=50),
                              r"members must be \(M, K, d\)"),
    # a probe size that is not an integer used to scale the ensemble
    # scores of cops_coreset and cops_active by itself
    "probe size not an integer": (lambda: ProbeEnsemble(np.zeros((2, 1, 2)), probe_size=2.5),
                                  "probe_size must be an integer, got 2.5"),
    "probe size a bool": (lambda: ProbeEnsemble(np.zeros((2, 1, 2)), probe_size=True),
                          "probe_size must be an integer, got True"),
    "probe size a numpy float": (
        lambda: ProbeEnsemble(np.zeros((2, 1, 2)), probe_size=np.float64(3.0)),
        r"probe_size must be an integer, got (np\.float64\()?3\.0"),
    "unlabeled probe": (lambda: train_ensemble(Dataset(ROWS.X, None, 1), 2),
                        "probe data must be labeled"),
    "member count not an integer": (lambda: train_ensemble(ROWS, 2.5),
                                    "M must be an integer, got 2.5"),
    "negative ensemble seed": (lambda: train_ensemble(ROWS, 2, seed=-1),
                               "seed must be >= 0, got -1"),
    "unknown score kind": (lambda: ensemble_scores(ENSEMBLE, ROWS, "bogus"),
                           "unknown score kind 'bogus'"),
    "coreset scores without labels": (
        lambda: ensemble_scores(ENSEMBLE, Dataset(ROWS.X, None, 1), "coreset"),
        "coreset scoring needs labels"),
    "K*d mismatch": (lambda: ensemble_scores(ENSEMBLE, Dataset(ROWS.X, ROWS.y, 2), "coreset"),
                     "data dimensions do not match the score matrix"),
    "d mismatch": (lambda: ensemble_scores(ENSEMBLE, Dataset(np.ones((3, 3)), None, 1), "active"),
                   "data dimension 3 != ensemble dimension 2"),
    "unknown estimator": (lambda: score_rows(ENSEMBLE, ROWS, "coreset", "bogus"),
                          "unknown estimator 'bogus'"),
    "x of the wrong d": (lambda: logit_covariance(ENSEMBLE, np.ones(3)),
                         r"x has shape \(3,\), expected \(2,\)"),
    # a beta of 1 or 3 classes on K=2 data used to fail inside the kernel,
    # with an IndexError or a broadcast error
    "exact scores with a beta of too few classes": (
        lambda: exact_scores(np.zeros((1, 2)), FisherInfo(np.eye(4)), ROWS_K2, "coreset"),
        r"beta has class count 1, data has 2: shape \(1, 2\), expected \(2, 2\)"),
    "exact scores with a beta of too many classes": (
        lambda: exact_scores(np.zeros((3, 2)), FisherInfo(np.eye(4)), ROWS_K2, "active"),
        r"beta has class count 3, data has 2: shape \(3, 2\), expected \(2, 2\)"),
    "exact scores with a beta of the wrong d": (
        lambda: exact_scores(np.zeros((2, 3)), FisherInfo(np.eye(4)), ROWS_K2, "coreset"),
        r"beta has feature dimension 3, data has 2: shape \(2, 3\), expected \(2, 2\)"),
    "exact scores with a non-finite beta": (
        lambda: exact_scores(np.full((2, 2), np.nan), FisherInfo(np.eye(4)), ROWS_K2, "coreset"),
        "beta contains non-finite entries"),
    "exact score of the wrong d": (
        lambda: exact_score_coreset(np.zeros((1, 2)), FisherInfo(np.eye(3)), np.ones(2), 1),
        "beta/x dimensions do not match the information matrix"),
    # the active oracle used to fail inside np.linalg.solve
    "exact active score of the wrong d": (
        lambda: exact_score_active(np.zeros((1, 2)), FisherInfo(np.eye(3)), np.ones(2)),
        "beta/x dimensions do not match the information matrix"),
    # a matrix that is not square used to fail inside _factorize with a
    # broadcast error
    "information matrix not square": (
        lambda: exact_scores(np.zeros((2, 2)), FisherInfo(np.ones((2, 3))), ROWS_K2, "coreset"),
        r"information matrix must be finite, square, nonempty, got \(2, 3\)"),
    "information matrix not 2-d": (
        lambda: FisherInfo(np.ones(4)),
        r"information matrix must be finite, square, nonempty, got \(4,\)"),
    "information matrix empty": (
        lambda: FisherInfo(np.zeros((0, 0))),
        r"information matrix must be finite, square, nonempty, got \(0, 0\)"),
    "information matrix not finite": (
        lambda: FisherInfo(np.diag([1.0, np.inf])),
        "information matrix contains non-finite entries"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_input(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
