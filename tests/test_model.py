"""Softmax calculus: frozen examples, identities, and derivative oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from copsamp import model
from copsamp.model import (
    BLOCK_ROWS,
    Dataset,
    _information,
    _pair_blocks,
    _pair_table,
    _pair_layout,
    _residuals,
    _softmax,
    dataset_loss,
    fisher_info,
    probability_matrix,
)
from copsamp.selfcheck import (
    class_probabilities,
    cross_entropy,
    fd_gradient,
    fd_hessian,
    label_average,
    loss_gradient,
    loss_hessian,
    mean_kron_hessian,
    phi,
    psi,
    random_instance,
    score_vector,
)
from copsamp.solver import fit_mle


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

    def test_weighted_losses_independent_of_blas_threads(self):
        # dataset_loss, row-level regret and a counted plan's normalizers share
        # one pairwise sum, and a binary fit's gradient is a GEMM, not a GEMV; a
        # BLAS dot or GEMV would round differently with 1 and 2 BLAS threads
        # at this size
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from copsamp.model import Dataset, dataset_loss\n"
            "from copsamp.sampler import SamplingConfig, make_plan\n"
            "from copsamp.simulation import regret\n"
            "from copsamp.solver import fit_mle\n"
            "rng = np.random.default_rng(0)\n"
            "n, d, K = 200_000, 10, 2\n"
            "X = rng.normal(size=(n, d))\n"
            "beta = rng.normal(scale=0.3, size=(K, d))\n"
            "data = Dataset(X, rng.integers(0, K + 1, size=n), K)\n"
            "w = rng.uniform(0.0, 2.0, size=n)\n"
            "print(repr(dataset_loss(beta, data, w)), "
            "repr(regret(beta, np.zeros((K, d)), data)))\n"
            "plan = make_plan(rng.random(n), SamplingConfig(subsample_size=10), "
            "rng.integers(0, 5, n))\n"
            "print(hashlib.sha1(plan.pi.tobytes() + plan.pi_reweight.tobytes()).hexdigest())\n"
            "fit = fit_mle(Dataset(X, (X @ beta[0] > rng.logistic(size=n)).astype(int), 1))\n"
            "print(fit.beta.tobytes().hex(), repr(fit.final_grad_norm))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


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
        total = label_average(beta, x, lambda y: psi(beta, x, y))
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
        for _ in range(25):
            K, d = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            beta, x, y = random_instance(rng, K, d)
            npt.assert_allclose(loss_hessian(beta, x), fd_hessian(beta, x, y),
                                rtol=1e-5, atol=1e-7)

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

    def test_fisher_rank_deficient_returns_without_warning(self):
        # a zero feature column: exact scoring, which inverts the matrix,
        # warns on it (tests/test_uncertainty.py); building it does not
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = fisher_info(np.zeros((1, 2)), Dataset(X, None, 1))
        npt.assert_allclose(info.m, [[7 / 6, 0.0], [0.0, 0.0]], rtol=1e-15)

    def test_fisher_empty_rejected(self):
        with pytest.raises(ValueError):
            fisher_info(np.zeros((1, 2)), Dataset(np.empty((0, 2)), None, 1))


class TestInformation:
    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_einsum_oracle(self, K, weighted):
        rng = np.random.default_rng(100 + K)
        d = 4
        X = rng.normal(size=(300, d))
        beta = rng.normal(scale=0.8, size=(K, d))
        w = rng.uniform(0.0, 3.0, size=300) if weighted else None
        m = _information(_softmax(beta, X)[0], X, w, None)
        oracle = mean_kron_hessian(beta, X, w)
        assert m.shape == (K * d, K * d)
        npt.assert_array_equal(m, m.T)
        assert np.abs(m - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # a (B, K, d) stack on the same rows, with (B, n) weights if weighted
        betas = np.stack([beta, rng.normal(scale=0.8, size=(K, d)), np.zeros((K, d))])
        ws = None if w is None else np.stack([w, rng.uniform(0.0, 3.0, size=300), w[::-1]])
        stack = _information(_softmax(betas, X)[0], X, ws, None)
        assert stack.shape == (3, K * d, K * d)
        for b in range(3):
            oracle = mean_kron_hessian(betas[b], X, None if ws is None else ws[b])
            npt.assert_array_equal(stack[b], stack[b].T)
            assert np.abs(stack[b] - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("n", [2 * BLOCK_ROWS + 37, 1])
    @pytest.mark.parametrize("K", [1, 3])
    def test_row_blocks_match_einsum_oracle(self, n, K):
        # several full row blocks plus a remainder, and a single row
        rng = np.random.default_rng(200 + K + n)
        d = 5
        X = rng.normal(size=(n, d))
        beta = rng.normal(scale=0.8, size=(K, d))
        w = rng.uniform(0.0, 3.0, size=n)
        for weights in (None, w):
            m = _information(_softmax(beta, X)[0], X, weights, None)
            oracle = mean_kron_hessian(beta, X, weights)
            npt.assert_array_equal(m, m.T)
            assert np.abs(m - oracle).max() <= 1e-12 * np.abs(oracle).max()
        # a (B, K, d) stack with (B, n) weights, block by block
        betas = np.stack([beta, -beta])
        ws = np.stack([w, rng.uniform(0.0, 3.0, size=n)])
        for b, m in enumerate(_information(_softmax(betas, X)[0], X, ws, None)):
            oracle = mean_kron_hessian(betas[b], X, ws[b])
            npt.assert_array_equal(m, m.T)
            assert np.abs(m - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_peak_memory_below_data(self):
        # the per-block scratch is O(BLOCK_ROWS * (d^2 + K^2)): no (n, d) copy of X
        rng = np.random.default_rng(27)
        X = rng.normal(size=(100_000, 10))
        beta = rng.normal(scale=0.3, size=(2, 10))
        w = rng.uniform(0.0, 2.0, size=100_000)
        tracemalloc.start()
        try:
            _information(_softmax(beta, X)[0], X, w, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes, f"peak {peak / 1e6:.1f} MB for {X.nbytes / 1e6:.1f} MB of X"

    def test_newton_steps_check_nothing(self, monkeypatch):
        # beta is checked where it comes in, at the public entries; a fit
        # makes its own coefficients, so none of its Newton steps checks them
        calls = []
        real_check = model._check_beta

        def counted(*args, **kwargs):
            calls.append(args)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(model, "_check_beta", counted)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(400, 3))
        data = Dataset(X, rng.integers(0, 3, size=400), 2)
        report = fit_mle(data)
        assert report.converged and report.iterations >= 3
        assert calls == []
        fisher_info(report.beta, data)  # an entry checks once
        assert len(calls) == 1


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("labeled", [False, True])
def test_pair_coefficients_match_pointwise(K, labeled):
    # each k <= l class pair once, equal to the per-sample psi or phi entry
    # times the weight; each a <= b feature pair once, equal to x_a x_b,
    # whether the blocks are built per call or read from a kept table
    rng = np.random.default_rng(30 + K)
    n, d = BLOCK_ROWS + 40, 3
    beta = rng.normal(size=(K, d))
    X = rng.normal(size=(n, d))
    y = rng.integers(0, K + 1, size=n) if labeled else None
    w = rng.uniform(0.0, 2.0, size=n)
    kk, ll, aa, bb, _ = _pair_layout(K, d)
    assert list(zip(kk, ll)) == [(k, l) for k in range(K) for l in range(k, K)]
    assert list(zip(aa, bb)) == [(a, b) for a in range(d) for b in range(a, d)]
    table = _pair_table(X)
    assert table is not None
    for pairs in (None, table):
        blocks = [(start, stop, C.copy(), Q.copy())
                  for start, stop, C, Q in _pair_blocks(_softmax(beta, X)[0], X, y, w, pairs)]
        assert [(start, stop) for start, stop, _, _ in blocks] == [(0, BLOCK_ROWS), (BLOCK_ROWS, n)]
        C = np.concatenate([c for _, _, c, _ in blocks], axis=1)
        Q = np.concatenate([q for _, _, _, q in blocks], axis=1)
        npt.assert_array_equal(Q, table)
        for i in list(range(0, n, 97)) + [BLOCK_ROWS - 1, BLOCK_ROWS, n - 1]:
            pointwise = psi(beta, X[i], int(y[i])) if labeled else phi(beta, X[i])
            npt.assert_allclose(C[:, i], w[i] * pointwise[kk, ll], rtol=1e-13, atol=1e-16)
            npt.assert_array_equal(Q[:, i], X[i, aa] * X[i, bb])


def test_probability_matrix_matches_pointwise():
    rng = np.random.default_rng(13)
    beta = rng.normal(size=(3, 4))
    X = rng.normal(size=(50, 4))
    P = probability_matrix(beta, X)
    for i in range(50):
        npt.assert_allclose(P[i], class_probabilities(beta, X[i]), atol=1e-14)


def _row_major_probabilities(beta, X):
    """The row-major expression: (n, K + 1) logits reduced along the short last axis."""
    z = np.concatenate([np.zeros((X.shape[0], 1)), X @ beta.T], axis=1)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


@pytest.mark.parametrize("K", [1, 2, 6, 9])
def test_class_major_probabilities_match_row_major(K):
    # features and coefficients on a grid of eighths: every logit is exact
    # whatever order a BLAS sums in, so only the layout of the softmax differs
    rng = np.random.default_rng(40 + K)
    d, n = 7, 3001
    beta = rng.integers(-8, 9, size=(K, d)) / 8
    X = rng.integers(-16, 17, size=(n, d)) / 8
    P = probability_matrix(beta, X)
    expected = _row_major_probabilities(beta, X)
    assert P.shape == (n, K + 1)
    if K <= 6:
        npt.assert_array_equal(P, expected)
    else:
        # from 8 classes on, numpy's row sum is pairwise; the column sum is not
        npt.assert_allclose(P, expected, rtol=1e-15, atol=0)
    y = rng.integers(0, K + 1, size=n)
    S = _residuals(_softmax(beta, X)[0], y)[1:].T
    onehot = (y[:, None] == np.arange(1, K + 1)).astype(float)
    npt.assert_array_equal(S, onehot - P[:, 1:])


LABELED = Dataset(np.ones((3, 2)), np.array([0, 1, 0]), 1)

#: each refused input of the model layer, and the message it raises
REFUSALS = {
    "X not 2-d": (lambda: Dataset(np.ones(3), None, 1), "X must be 2-dimensional"),
    "K below 1": (lambda: Dataset(np.ones((3, 2)), None, 0), "K must be >= 1"),
    "K not an integer": (lambda: Dataset(np.ones((3, 2)), None, 2.5),
                         "K must be an integer, got 2.5"),
    "K a bool": (lambda: Dataset(np.ones((3, 2)), None, True), "K must be an integer, got True"),
    # labels are refused before the integer cast, whose RuntimeWarning on NaN,
    # inf or 1e30 this suite's filterwarnings would turn into a failure
    "fractional label": (lambda: Dataset(np.ones((3, 2)), [0.0, 0.5, 1.7], 1),
                         "label 0.5 of row 1 is not an integer"),
    "NaN label": (lambda: Dataset(np.ones((3, 2)), [0.0, 1.0, np.nan], 1),
                  "label nan of row 2 is not an integer"),
    "infinite label": (lambda: Dataset(np.ones((3, 2)), [np.inf, 1.0, 0.0], 1),
                       "label inf of row 0 is not an integer"),
    "integral label outside int64": (lambda: Dataset(np.ones((3, 2)), [0.0, 1e30, 0.0], 1),
                                     r"labels must lie in \[0, 1\]"),
    "y of the wrong shape": (lambda: Dataset(np.ones((3, 2)), np.zeros(2, dtype=int), 1),
                             r"y has shape \(2,\), expected \(3,\)"),
    "label above K": (lambda: Dataset(np.ones((3, 2)), np.array([0, 2, 1]), 1),
                      r"labels must lie in \[0, 1\]"),
    # subset used to read a bool mask as rows 0 and 1, cut fractional
    # indices down, count a negative index from the end and raise numpy's
    # IndexError past the last row
    "subset by a bool mask": (lambda: LABELED.subset(np.array([True, False, True])),
                              r"indices must be integers in \[0, 3\)"),
    "subset by fractional indices": (lambda: LABELED.subset([2.7, 0.2]),
                                     r"indices must be integers in \[0, 3\)"),
    "subset by a negative index": (lambda: LABELED.subset([0, -1]),
                                   r"indices must be integers in \[0, 3\)"),
    "subset past the last row": (lambda: LABELED.subset([0, 3]),
                                 r"indices must be integers in \[0, 3\), got \[0 3\]"),
    "beta not (K, d)": (lambda: dataset_loss(np.zeros(2), LABELED),
                        r"beta must be a \(K, d\) matrix"),
    "beta not finite": (lambda: dataset_loss(np.array([[0.0, np.inf]]), LABELED),
                        "beta contains non-finite entries"),
    "beta of the wrong d": (lambda: dataset_loss(np.zeros((1, 3)), LABELED),
                            r"beta has feature dimension 3, data has 2: "
                            r"shape \(1, 3\), expected \(1, 2\)"),
    # a (2, 2) beta on K=1 data used to give a three-class loss, log 3
    "loss beta of the wrong K": (lambda: dataset_loss(np.zeros((2, 2)), LABELED),
                                 r"beta has class count 2, data has 1: "
                                 r"shape \(2, 2\), expected \(1, 2\)"),
    # and fisher_info a 4x4 matrix
    "Fisher beta of the wrong K": (lambda: fisher_info(np.zeros((2, 2)), LABELED),
                                   r"beta has class count 2, data has 1: "
                                   r"shape \(2, 2\), expected \(1, 2\)"),
    "Fisher beta of the wrong d": (lambda: fisher_info(np.zeros((1, 3)), LABELED),
                                   r"beta has feature dimension 3, data has 2: "
                                   r"shape \(1, 3\), expected \(1, 2\)"),
    "Fisher beta not finite": (lambda: fisher_info(np.array([[np.nan, 0.0]]), LABELED),
                               "beta contains non-finite entries"),
    "Fisher beta stacked": (lambda: fisher_info(np.zeros((2, 1, 2)), LABELED),
                            r"beta must be a \(K, d\) matrix"),
    "loss of unlabeled data": (lambda: dataset_loss(np.zeros((1, 2)), Dataset(LABELED.X, None, 1)),
                               "dataset_loss needs labels"),
    "loss of empty data": (lambda: dataset_loss(np.zeros((1, 2)),
                                                Dataset(np.empty((0, 2)), np.empty(0, int), 1)),
                           "empty dataset"),
    "loss weights of the wrong shape": (lambda: dataset_loss(np.zeros((1, 2)), LABELED, np.ones(2)),
                                        r"weights has shape \(2,\), expected \(3,\)"),
    "loss weights with a NaN": (lambda: dataset_loss(np.zeros((1, 2)), LABELED, [1.0, np.nan, 1.0]),
                                "weights must be finite and nonnegative"),
    "loss weights with an inf": (lambda: dataset_loss(np.zeros((1, 2)), LABELED, [1.0, np.inf, 1.0]),
                                 "weights must be finite and nonnegative"),
    "label above K of one row": (lambda: cross_entropy(np.zeros((1, 2)), np.ones(2), 2),
                                 r"label 2 outside \[0, 1\]"),
    "rows of the wrong d": (lambda: probability_matrix(np.zeros((1, 2)), np.ones((3, 3))),
                            r"X has shape \(3, 3\), expected \(n, 2\)"),
}


@pytest.mark.parametrize("labels", [[0, 1, 0], [False, True, False], [0.0, 1.0, -0.0],
                                    np.array([0, 1, 0], dtype=np.uint8)])
def test_integral_labels_accepted(labels):
    y = Dataset(np.ones((3, 2)), labels, 1).y
    assert y.dtype == int
    npt.assert_array_equal(y, [0, 1, 0])


def test_subset_takes_integer_rows():
    # repeats and any integer dtype are taken; so is an empty index array
    for idx in ([2, 0, 2], np.array([2, 0, 2], dtype=np.uint8)):
        sub = LABELED.subset(idx)
        npt.assert_array_equal(sub.y, [0, 0, 0])
        npt.assert_array_equal(sub.X, LABELED.X[[2, 0, 2]])
    assert LABELED.subset(np.arange(0)).n == 0


@pytest.mark.parametrize("case", REFUSALS)
def test_refused_input(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
