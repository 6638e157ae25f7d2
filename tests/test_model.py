"""Softmax calculus: frozen examples, identities, and derivative oracles."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from copsamp.model import (
    Dataset,
    class_probabilities,
    cross_entropy,
    dataset_loss,
    fisher_info,
    information,
    loss_gradient,
    loss_hessian,
    phi,
    phi_matrices,
    probability_matrix,
    psi,
    score_vector,
)


def random_instance(rng, K, d, scale=0.8):
    return rng.normal(scale=scale, size=(K, d)), rng.normal(size=d), int(rng.integers(0, K + 1))


def fd_gradient(beta, x, y, step=1e-5):
    """Central finite differences of the cross entropy, the gradient oracle."""
    K, d = beta.shape
    g = np.empty(K * d)
    for j in range(K * d):
        bp, bm = beta.ravel().copy(), beta.ravel().copy()
        bp[j] += step
        bm[j] -= step
        g[j] = (cross_entropy(bp.reshape(K, d), x, y)
                - cross_entropy(bm.reshape(K, d), x, y)) / (2 * step)
    return g


class TestProbabilities:
    def test_zero_beta_uniform(self):
        p = class_probabilities(np.zeros((4, 3)), np.array([1.0, -2.0, 0.5]))
        npt.assert_allclose(p, 0.2, atol=1e-15)

    def test_single_logit(self):
        # e^2 / (1 + e^2), frozen from direct evaluation
        p = class_probabilities(np.array([[2.0, 2.0]]), np.array([1.0, 0.0]))
        npt.assert_allclose(p[1], 0.8807970779778824, rtol=1e-14)

    def test_three_way_ratios(self):
        beta = np.array([[math.log(2)], [math.log(3)]])
        p = class_probabilities(beta, np.array([1.0]))
        npt.assert_allclose(p, [1 / 6, 2 / 6, 3 / 6], rtol=1e-13)

    def test_no_overflow_at_large_logits(self):
        p = class_probabilities(np.array([[700.0]]), np.array([1.0]))
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            class_probabilities(np.zeros((2, 3)), np.zeros(4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_simplex(self, seed, K, d):
        rng = np.random.default_rng(seed)
        beta, x, _ = random_instance(rng, K, d, scale=2.0)
        p = class_probabilities(beta, x)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0) and np.all(p < 1)

    def test_reference_class_shift_invariance(self):
        # explicit-beta0 formulation: adding one row vector to every class
        # (including the reference) leaves the probabilities unchanged
        def explicit_softmax(B, x):
            z = B @ x
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        rng = np.random.default_rng(3)
        for _ in range(20):
            beta, x, _ = random_instance(rng, 3, 4)
            B = np.vstack([np.zeros(4), beta])
            c = rng.normal(size=4)
            npt.assert_allclose(
                class_probabilities(beta, x), explicit_softmax(B, x), atol=1e-13
            )
            npt.assert_allclose(
                explicit_softmax(B + c, x), explicit_softmax(B, x), atol=1e-13
            )


class TestCrossEntropy:
    def test_uniform_binary(self):
        assert cross_entropy(np.zeros((1, 3)), np.ones(3), 1) == pytest.approx(math.log(2), rel=1e-14)

    def test_uniform_ten_classes(self):
        assert cross_entropy(np.zeros((9, 2)), np.ones(2), 4) == pytest.approx(math.log(10), rel=1e-14)

    def test_frozen_value(self):
        # -log(e^2/(1+e^2)) from the probability example
        val = cross_entropy(np.array([[2.0, 2.0]]), np.array([1.0, 0.0]), 1)
        assert val == pytest.approx(0.12692801104297252, rel=1e-13)

    def test_log_space_at_extreme_logits(self):
        # the naive exp-then-log path would return inf here
        val = cross_entropy(np.array([[700.0]]), np.array([1.0]), 0)
        assert np.isfinite(val) and val == pytest.approx(700.0, rel=1e-12)


class TestDatasetLoss:
    def test_single_sample_weight_one(self):
        data = Dataset(np.array([[1.0, 0.5]]), np.array([1]), 1)
        beta = np.array([[0.3, -0.2]])
        assert dataset_loss(beta, data, np.array([1.0])) == pytest.approx(
            cross_entropy(beta, data.X[0], 1), rel=1e-15
        )

    def test_weight_linearity(self):
        X = np.array([[1.0, 0.5], [1.0, 0.5]])
        data = Dataset(X, np.array([1, 1]), 1)
        beta = np.array([[0.3, -0.2]])
        a = dataset_loss(beta, data, np.array([2.0, 0.0]))
        b = dataset_loss(beta, data, np.array([1.0, 1.0]))
        assert a == pytest.approx(b, rel=1e-15)

    def test_zero_beta(self):
        data = Dataset(np.random.default_rng(0).normal(size=(5, 2)), np.array([0, 1, 0, 1, 1]), 1)
        assert dataset_loss(np.zeros((1, 2)), data) == pytest.approx(math.log(2), rel=1e-14)

    def test_negative_weight_rejected(self):
        data = Dataset(np.ones((2, 1)), np.array([0, 1]), 1)
        with pytest.raises(ValueError):
            dataset_loss(np.zeros((1, 1)), data, np.array([1.0, -1.0]))


class TestScoreAndGradient:
    def test_score_symmetric_point(self):
        npt.assert_allclose(score_vector(np.zeros((1, 2)), np.zeros(2), 1), [0.5])
        npt.assert_allclose(score_vector(np.zeros((1, 2)), np.zeros(2), 0), [-0.5])

    def test_score_three_way(self):
        beta = np.array([[math.log(2)], [math.log(3)]])
        npt.assert_allclose(score_vector(beta, np.array([1.0]), 2), [-2 / 6, 3 / 6], rtol=1e-13)

    def test_gradient_symmetric_point(self):
        g = loss_gradient(np.zeros((1, 2)), np.array([1.0, 0.0]), 1)
        npt.assert_allclose(g, [-0.5, 0.0], atol=1e-15)

    def test_gradient_zero_x(self):
        g = loss_gradient(np.array([[1.0, 2.0]]), np.zeros(2), 1)
        npt.assert_allclose(g, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            K, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            beta, x, y = random_instance(rng, K, d)
            g = loss_gradient(beta, x, y)
            fd = fd_gradient(beta, x, y)
            npt.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


class TestPhiPsi:
    def test_phi_symmetric_point(self):
        npt.assert_allclose(phi(np.zeros((1, 1)), np.zeros(1)), [[0.25]])

    def test_phi_frozen_three_way(self):
        beta = np.array([[math.log(2)], [math.log(3)]])
        expected = [[2 / 9, -1 / 6], [-1 / 6, 1 / 4]]
        npt.assert_allclose(phi(beta, np.array([1.0])), expected, rtol=1e-13)

    def test_phi_row_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            K, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            beta, x, _ = random_instance(rng, K, d)
            p = class_probabilities(beta, x)
            npt.assert_allclose(phi(beta, x) @ np.ones(K), p[1:] * p[0], atol=1e-12)

    def test_psi_symmetric_point(self):
        npt.assert_allclose(psi(np.zeros((1, 1)), np.zeros(1), 1), [[0.25]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 5]))
    def test_label_expectation_identity(self, seed, K):
        rng = np.random.default_rng(seed)
        beta, x, _ = random_instance(rng, K, 3)
        p = class_probabilities(beta, x)
        total = sum(p[y] * psi(beta, x, y) for y in range(K + 1))
        npt.assert_allclose(total, phi(beta, x), atol=1e-12)

    def test_psi_phi_psd_and_rank(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            K, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            beta, x, y = random_instance(rng, K, d)
            eig_psi = np.linalg.eigvalsh(psi(beta, x, y))
            eig_phi = np.linalg.eigvalsh(phi(beta, x))
            assert eig_psi.min() >= -1e-12 and eig_phi.min() >= -1e-12
            assert np.sum(eig_psi > 1e-12) <= 1


class TestHessianAndFisher:
    def test_hessian_zero_x(self):
        npt.assert_allclose(loss_hessian(np.ones((2, 3)), np.zeros(3)), 0.0)

    def test_hessian_symmetric_point(self):
        H = loss_hessian(np.zeros((1, 2)), np.array([1.0, 0.0]))
        npt.assert_allclose(H, [[0.25, 0.0], [0.0, 0.0]])

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(25):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            beta, x, y = random_instance(rng, K, d)
            H = loss_hessian(beta, x)
            fd = np.empty_like(H)
            for j in range(K * d):
                bp, bm = beta.ravel().copy(), beta.ravel().copy()
                bp[j] += step
                bm[j] -= step
                fd[:, j] = (loss_gradient(bp.reshape(K, d), x, y)
                            - loss_gradient(bm.reshape(K, d), x, y)) / (2 * step)
            npt.assert_allclose(H, fd, rtol=1e-5, atol=1e-7)

    def test_kron_trace_identity(self):
        # Tr((psi kron xx^T) A) == (s kron x)^T A (s kron x) for symmetric A
        rng = np.random.default_rng(11)
        for _ in range(20):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            beta, x, y = random_instance(rng, K, d)
            A = rng.normal(size=(K * d, K * d))
            A = A + A.T
            s = score_vector(beta, x, y)
            lhs = np.trace(np.kron(psi(beta, x, y), np.outer(x, x)) @ A)
            g = np.kron(s, x)
            npt.assert_allclose(lhs, g @ A @ g, rtol=1e-10, atol=1e-12)

    def test_fisher_single_sample_is_hessian(self):
        beta = np.array([[0.4, -0.3]])
        x = np.array([1.2, 0.7])
        with pytest.warns(RuntimeWarning):  # a single sample is rank deficient
            info = fisher_info(beta, Dataset(x[None, :], np.array([1]), 1))
        npt.assert_allclose(info.m, loss_hessian(beta, x), atol=1e-14)

    def test_fisher_duplication_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        beta = rng.normal(size=(2, 3))
        a = fisher_info(beta, Dataset(X, None, 2))
        b = fisher_info(beta, Dataset(np.vstack([X, X]), None, 2))
        npt.assert_allclose(a.m, b.m, atol=1e-13)

    def test_fisher_simulation_atoms(self):
        # Table of three feature atoms with counts; independent summation oracle
        atoms = np.array([[1.0, 0.0], [0.1, 0.1], [0.0, 1.0]])
        counts = np.array([1000, 100000, 100000])
        beta = np.array([[2.0, 2.0]])
        X = np.repeat(atoms, counts, axis=0)
        info = fisher_info(beta, Dataset(X, None, 1))
        assert info.m.shape == (2, 2)
        assert np.linalg.matrix_rank(info.m) == 2
        oracle = np.zeros((2, 2))
        for x, c in zip(atoms, counts):
            p = class_probabilities(beta, x)[1]
            oracle += c * (p - p * p) * np.outer(x, x)
        oracle /= counts.sum()
        npt.assert_allclose(info.m, oracle, rtol=1e-11)

    def test_fisher_near_singular_warns(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="singular"):
            info = fisher_info(np.zeros((1, 2)), Dataset(X, None, 1))
        assert info.near_singular

    def test_fisher_empty_rejected(self):
        with pytest.raises(ValueError):
            fisher_info(np.zeros((1, 2)), Dataset(np.empty((0, 2)), None, 1))


def einsum_information(beta, X, w=None):
    """Direct 3-operand contraction of (1/n) sum_i w_i kron(phi_i, x_i x_i^T)."""
    PHI = phi_matrices(beta, X)
    if w is not None:
        PHI = PHI * w[:, None, None]
    K, d = beta.shape
    return (np.einsum("nkl,ni,nj->kilj", PHI, X, X) / X.shape[0]).reshape(K * d, K * d)


class TestInformation:
    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_einsum_oracle(self, K, weighted):
        rng = np.random.default_rng(100 + K)
        d = 4
        X = rng.normal(size=(300, d))
        beta = rng.normal(scale=0.8, size=(K, d))
        w = rng.uniform(0.0, 3.0, size=300) if weighted else None
        m = information(beta, X, w)
        oracle = einsum_information(beta, X, w)
        assert m.shape == (K * d, K * d)
        npt.assert_array_equal(m, m.T)
        assert np.abs(m - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_weights_length_rejected(self):
        with pytest.raises(ValueError):
            information(np.zeros((1, 2)), np.ones((3, 2)), np.ones(2))


def test_probability_matrix_matches_pointwise():
    rng = np.random.default_rng(13)
    beta = rng.normal(size=(3, 4))
    X = rng.normal(size=(50, 4))
    P = probability_matrix(beta, X)
    for i in range(50):
        npt.assert_allclose(P[i], class_probabilities(beta, X[i]), atol=1e-14)
