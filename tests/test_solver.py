"""Newton solver: convergence, monotonicity, weighting semantics."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from numpy.linalg import LinAlgError

from copsamp import solver
from copsamp.model import Dataset, _loss_sum, _residuals, dataset_loss, information
from copsamp.simulation import SimulationSpec, generate_dataset
from copsamp.solver import fit_mle, fit_weighted_batch, fit_weighted_mle
from helpers import synthetic


def test_symmetric_labels_give_near_zero_beta():
    rng = np.random.default_rng(0)
    n = 4000
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)  # labels independent of X
    report = fit_mle(Dataset(X, y, 1))
    assert report.converged
    # standard error of each coefficient is about 2/sqrt(n)
    assert np.abs(report.beta).max() <= 3 * 2 / np.sqrt(n)


def test_converges_on_multiclass():
    data, _ = synthetic(1, 2000, 3, 4)
    report = fit_mle(data)
    assert report.converged
    assert report.final_grad_norm <= 1e-8


def test_loss_non_increasing_across_iterations(monkeypatch):
    data, _ = synthetic(2, 500, 2, 3)
    monkeypatch.setattr(solver, "GRAD_TOL", 1e-14)
    losses = []
    for k in range(1, 8):
        monkeypatch.setattr(solver, "MAX_ITERS", k)
        rep = fit_mle(data)
        losses.append(rep.final_loss)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-15)


def test_gradient_norm_at_convergence(monkeypatch):
    data, _ = synthetic(3, 800, 1, 2)
    monkeypatch.setattr(solver, "GRAD_TOL", 1e-10)
    rep = fit_mle(data)
    assert rep.converged and rep.final_grad_norm <= 1e-10


def test_equal_weights_match_unweighted():
    data, _ = synthetic(4, 600, 2, 3)
    a = fit_mle(data)
    b = fit_weighted_mle(data, np.full(data.n, 7.3))
    npt.assert_array_equal(a.beta, fit_weighted_mle(data, np.ones(data.n)).beta)
    assert np.abs(a.beta - b.beta).max() < 1e-8


def test_weight_scale_invariance():
    data, _ = synthetic(5, 500, 1, 3)
    w = np.random.default_rng(5).uniform(0.5, 2.0, size=data.n)
    a = fit_weighted_mle(data, w)
    b = fit_weighted_mle(data, 1e6 * w)
    assert np.abs(a.beta - b.beta).max() < 1e-8


def test_zero_weight_equals_deletion():
    data, _ = synthetic(6, 400, 1, 2)
    w = np.ones(data.n)
    w[37] = 0.0
    a = fit_weighted_mle(data, w)
    keep = np.ones(data.n, dtype=bool)
    keep[37] = False
    b = fit_mle(data.subset(np.where(keep)[0]))
    assert np.abs(a.beta - b.beta).max() < 1e-6


def test_determinism_bit_identical():
    data, _ = synthetic(7, 700, 2, 3)
    a = fit_mle(data)
    b = fit_mle(data)
    npt.assert_array_equal(a.beta, b.beta)
    assert (a.iterations, a.final_grad_norm, a.final_loss) == (
        b.iterations, b.final_grad_norm, b.final_loss
    )


def test_non_convergence_reported(monkeypatch):
    data, _ = synthetic(8, 500, 2, 4)
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    monkeypatch.setattr(solver, "GRAD_TOL", 1e-14)
    rep = fit_mle(data)
    assert not rep.converged


def test_cholesky_fallback_counted(monkeypatch):
    data, _ = synthetic(13, 600, 2, 3)
    assert fit_mle(data).cholesky_fallbacks == 0

    def failing_cholesky(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "cholesky", failing_cholesky)
    rep = fit_mle(data)
    assert rep.converged
    assert rep.cholesky_fallbacks >= 1
    assert rep.cholesky_fallbacks == rep.iterations


def test_single_class_rejected():
    data = Dataset(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int), 1)
    with pytest.raises(ValueError):
        fit_mle(data)


def test_bad_weights_rejected():
    data, _ = synthetic(9, 50, 1, 2)
    with pytest.raises(ValueError):
        fit_weighted_mle(data, np.zeros(data.n))
    with pytest.raises(ValueError):
        fit_weighted_mle(data, -np.ones(data.n))
    with pytest.raises(ValueError):
        fit_weighted_mle(data, np.ones(data.n - 1))


def test_weighted_fit_minimizes_weighted_loss():
    data, _ = synthetic(10, 300, 1, 2)
    w = np.random.default_rng(10).uniform(0.2, 3.0, size=data.n)
    rep = fit_weighted_mle(data, w)
    base = dataset_loss(rep.beta, data, w)
    rng = np.random.default_rng(11)
    for _ in range(20):
        perturbed = rep.beta + rng.normal(scale=0.05, size=rep.beta.shape)
        assert dataset_loss(perturbed, data, w) >= base - 1e-12


def reference_fit(data, weights):
    """The one-at-a-time damped-Newton loop on (K, d) coefficients, step by step.

    The reference of the batched solver: the same stop test, step solve,
    Cholesky test, negligible-decrease rule and step halving, written for
    one weight vector with scalar losses, on the solver's settings.
    """
    w = weights * (data.n / weights.sum())

    def objective(beta, weights):
        return float(_loss_sum(beta, data.X, data.y, weights)) / data.n

    def gradient(beta):
        S = _residuals(beta, data.X, data.y) * w
        return (-(S @ data.X)[1:] / data.n).reshape(-1)

    K, d = data.K, data.d
    beta, iterations, fallbacks = np.zeros((K, d)), 0, 0
    loss = objective(beta, w)
    for _ in range(solver.MAX_ITERS):
        g = gradient(beta)
        if np.abs(g).max() <= solver.GRAD_TOL:
            break
        H = information(beta, data.X, w) + solver.RIDGE * np.eye(K * d)
        try:
            solver.cholesky(H)
            fell_back = False
        except LinAlgError:
            fell_back = True
        step = np.linalg.solve(H, g)
        fallbacks += fell_back
        negligible = not fell_back and 0.5 * (g @ step) <= 8 * np.finfo(float).eps * loss
        t, accepted = 1.0, False
        for _ in range(solver.STEP_HALVING_MAX + 1):
            candidate = beta - t * step.reshape(K, d)
            candidate_loss = objective(candidate, w)
            if candidate_loss < loss or negligible:
                beta, loss, accepted = candidate, candidate_loss, True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            break
    grad_norm = float(np.abs(gradient(beta)).max())
    return solver.FitReport(beta, iterations, grad_norm, grad_norm <= solver.GRAD_TOL,
                            objective(beta, weights), fallbacks)


def test_single_fit_is_the_reference_loop_bit_for_bit(monkeypatch):
    # the solver fixtures above; fit_weighted_mle is the batch of one
    cases = []
    for seed, n, K, d in ((1, 2000, 3, 4), (2, 500, 2, 3), (4, 600, 2, 3), (5, 500, 1, 3),
                          (8, 500, 2, 4), (9, 50, 1, 2), (10, 300, 1, 2), (13, 600, 2, 3)):
        data, _ = synthetic(seed, n, K, d)
        w = np.random.default_rng(seed).uniform(0.2, 3.0, size=n)
        for weights in (np.ones(n), 7.3 * np.ones(n), w, 1e6 * w):
            cases.append((data, weights))

    def check():
        # the default settings, then two steps with a stop test none passes
        for max_iters, grad_tol in ((solver.MAX_ITERS, solver.GRAD_TOL), (2, 1e-14)):
            with monkeypatch.context() as settings:
                settings.setattr(solver, "MAX_ITERS", max_iters)
                settings.setattr(solver, "GRAD_TOL", grad_tol)
                for data, weights in cases:
                    fit, ref = fit_weighted_mle(data, weights), reference_fit(data, weights)
                    npt.assert_array_equal(fit.beta, ref.beta)
                    assert (fit.iterations, fit.final_grad_norm, fit.converged, fit.final_loss,
                            fit.cholesky_fallbacks) == (ref.iterations, ref.final_grad_norm,
                                                        ref.converged, ref.final_loss,
                                                        ref.cholesky_fallbacks)

    check()

    def failing_cholesky(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(solver, "cholesky", failing_cholesky)
    check()


def test_batch_matches_one_at_a_time(monkeypatch):
    # four weight vectors on one design: two converge in 5 steps, one needs 7
    # and stops unconverged at max_iters=6, and one weights only rows with
    # |x_2| < 0.05, whose Hessian is near singular along x_2
    data, _ = synthetic(14, 400, 2, 3)
    rng = np.random.default_rng(14)
    weights = np.stack([
        np.ones(data.n),
        rng.uniform(0.2, 3.0, size=data.n),
        np.exp(3 * rng.normal(size=data.n)),
        (np.abs(data.X[:, 2]) < 0.05).astype(float),
    ])
    # a Hessian counts as not positive definite below a margin of 1e-3, which
    # only the near-singular element's Hessians fall under
    monkeypatch.setattr(solver, "cholesky",
                        lambda H: np.linalg.cholesky(H - 1e-3 * np.eye(H.shape[-1])))

    def batch_and_alone(max_iters):
        monkeypatch.setattr(solver, "MAX_ITERS", max_iters)
        batch = fit_weighted_batch(data, weights)
        alone = [fit_weighted_mle(data, w) for w in weights]
        for fit, ref in zip(batch, alone, strict=True):
            assert (fit.iterations, fit.converged, fit.cholesky_fallbacks) == (
                ref.iterations, ref.converged, ref.cholesky_fallbacks)
            npt.assert_array_equal(fit.beta, ref.beta)
            assert (fit.final_loss, fit.final_grad_norm) == (ref.final_loss, ref.final_grad_norm)
        return batch

    batch = batch_and_alone(6)
    assert [fit.iterations for fit in batch] == [5, 5, 6, 6]
    assert [fit.converged for fit in batch] == [True, True, False, True]
    assert [fit.cholesky_fallbacks for fit in batch] == [0, 0, 0, 6]
    # with the Hessians shrunk, full Newton steps overshoot: each element
    # halves its step as often as its own loss asks
    real_information = solver.information
    monkeypatch.setattr(solver, "information", lambda *a: 0.3 * real_information(*a))
    batch_and_alone(20)


@pytest.mark.parametrize("K, d, n, B", [(1, 2, 6, 10), (2, 3, 50, 7), (6, 30, 1200, 3),
                                         (3, 5, 3000, 12)])
def test_batch_element_is_its_fit_alone_bit_for_bit(K, d, n, B):
    # each element's information GEMM is the one its fit alone makes, so the
    # batch size does not change a bit of any element
    data, _ = synthetic(K * d + n, n, K, d)
    weights = 2 * np.random.default_rng(1).random((B, n))
    for fit, w in zip(fit_weighted_batch(data, weights), weights, strict=True):
        ref = fit_weighted_mle(data, w)
        npt.assert_array_equal(fit.beta, ref.beta)
        assert (fit.iterations, fit.final_loss, fit.final_grad_norm) == (
            ref.iterations, ref.final_loss, ref.final_grad_norm)


@pytest.mark.parametrize("bad", ["negative", "not finite", "all zero", "one class"])
def test_batch_raises_the_first_bad_rows_error(bad):
    # the message is the one the fit of that row alone raises, whatever the
    # later rows hold, so a trial's recorded failure text does not depend on
    # batching
    data, _ = synthetic(9, 50, 1, 2)
    rows = {
        "negative": np.where(np.arange(data.n) == 3, -1.0, 1.0),
        "not finite": np.where(np.arange(data.n) == 3, np.inf, 1.0),
        "all zero": np.zeros(data.n),
        "one class": (data.y == 1).astype(float),
    }
    with pytest.raises(ValueError) as alone:
        fit_weighted_mle(data, rows[bad])
    later = [rows[kind] for kind in rows if kind != bad]
    with pytest.raises(ValueError) as batched:
        fit_weighted_batch(data, np.stack([np.ones(data.n), rows[bad], *later]))
    assert str(batched.value) == str(alone.value)


def test_batch_shape_rejected():
    data, _ = synthetic(9, 50, 1, 2)
    for weights in (np.ones(data.n), np.ones((2, data.n - 1)), np.ones((0, data.n))):
        with pytest.raises(ValueError, match="shape"):
            fit_weighted_batch(data, weights)


ATOM_DESIGN = dict(
    atom_x=np.array([[1.0, 0.0], [0.1, 0.1], [0.0, 1.0]]),
    counts=np.array([1000, 100000, 100000]),
    beta_star=np.array([[2.0, 2.0]]),
    zeta=np.zeros(3),
    r=1000,
)


def test_full_data_fit_recovers_truth_on_atom_design():
    # three-atom binary design, 201k rows, well specified
    spec = SimulationSpec(**ATOM_DESIGN)
    data = generate_dataset(spec, seed=12345, corrupted=False)
    rep = fit_mle(data)
    assert rep.converged
    npt.assert_allclose(rep.beta, spec.beta_star, atol=0.1)


def test_atom_design_fit_converges_with_one_blas_thread():
    # BLAS thread count sets the rounding of BLAS reductions; the Newton
    # line search must not stall on it
    code = textwrap.dedent("""
        import sys
        import numpy as np
        sys.path.insert(0, sys.argv[1])
        from test_solver import ATOM_DESIGN
        from copsamp.simulation import SimulationSpec, generate_dataset
        from copsamp.solver import fit_mle
        data = generate_dataset(SimulationSpec(**ATOM_DESIGN), seed=12345, corrupted=False)
        rep = fit_mle(data)
        print(rep.converged, rep.iterations, rep.final_grad_norm)
    """)
    here = Path(__file__).resolve().parent
    src = str(here.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, str(here)], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[0] == "True", f"not converged: iterations {out[1]}, grad norm {out[2]}"


def separable_scaled_data():
    """Separable rows at scale 1e10: the line search runs out of halvings."""
    X = np.random.default_rng(2).normal(size=(20, 2)) * 1e10
    return Dataset(X, (X[:, 1] > 0).astype(int), 1)


def test_fit_stops_when_its_last_elements_stall():
    # the only element leaves the batch in the line search, not by
    # converging; the loop then stops with the report it has
    rep = fit_mle(separable_scaled_data())
    assert not rep.converged
    assert (rep.iterations, rep.cholesky_fallbacks) == (42, 0)
    assert rep.final_grad_norm == pytest.approx(3.2834e-8, rel=1e-3)


def batch_with_first_information(monkeypatch, replace):
    """Element 0's report of a two-element batch whose element 0's information is ``replace``d.

    Checks that element 1's report is its fit alone, bit for bit.
    """
    data, _ = synthetic(9, 50, 1, 2)
    weights = np.stack([np.ones(data.n), np.random.default_rng(9).uniform(0.2, 3.0, data.n)])
    alone = fit_weighted_mle(data, weights[1])
    real_information = solver.information

    def replace_first(beta, X, w):
        H = real_information(beta, X, w)
        if len(H) == 2:
            H[0] = replace(H[0])
        return H

    monkeypatch.setattr(solver, "information", replace_first)
    first, fit = fit_weighted_batch(data, weights)
    npt.assert_array_equal(fit.beta, alone.beta)
    assert (fit.iterations, fit.final_grad_norm, fit.converged, fit.final_loss,
            fit.cholesky_fallbacks) == (alone.iterations, alone.final_grad_norm,
                                        alone.converged, alone.final_loss,
                                        alone.cholesky_fallbacks)
    return first


def test_element_without_descent_leaves_the_batch(monkeypatch):
    # element 0's Hessian is negated, so its first Newton step ascends at
    # every step length; it stops after one iteration, and the other
    # element's fit is its fit alone
    stalled = batch_with_first_information(monkeypatch, lambda H: -H)
    assert (stalled.converged, stalled.iterations, stalled.cholesky_fallbacks) == (False, 1, 1)
    npt.assert_array_equal(stalled.beta, 0.0)


def singular_hessian_data():
    """Two equal feature columns at scale 1e6: a ridged Hessian is exactly singular."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=50) * 1e6
    return Dataset(np.column_stack([x, x]), (rng.random(50) < 0.5).astype(int), 1)


def test_singular_hessian_ends_the_fit_unconverged():
    # the LU solve of the second step fails; the fit stops at its first
    # step's iterate, as a stalled line search does
    rep = fit_mle(singular_hessian_data())
    assert not rep.converged
    assert (rep.iterations, rep.cholesky_fallbacks) == (2, 2)
    assert rep.final_loss < np.log(2)  # the loss at beta = 0


def test_singular_element_leaves_the_batch(monkeypatch):
    # element 0's information is -RIDGE * I, so its ridged Hessian is exactly
    # zero; it stops after one step that is not taken, and the other
    # element's fit is its fit alone
    singular = batch_with_first_information(monkeypatch,
                                            lambda H: -solver.RIDGE * np.eye(len(H)))
    assert (singular.converged, singular.iterations, singular.cholesky_fallbacks) == (False, 1, 1)
    npt.assert_array_equal(singular.beta, 0.0)

OVERFLOWING_WEIGHTS = {
    "sum overflows": np.full(50, 1e308),
    "two huge weights": np.where(np.isin(np.arange(50), [3, 7]), 1e308, 1.0),
    "scale overflows": np.full(50, 1e-310),
}


@pytest.mark.parametrize("kind", OVERFLOWING_WEIGHTS)
def test_weights_that_cannot_be_rescaled_rejected(kind):
    data, _ = synthetic(9, 50, 1, 2)
    with pytest.raises(ValueError, match="mean-one scale n/sum overflows") as alone:
        fit_weighted_mle(data, OVERFLOWING_WEIGHTS[kind])
    with pytest.raises(ValueError) as batched:
        fit_weighted_batch(data, np.stack([np.ones(data.n), OVERFLOWING_WEIGHTS[kind]]))
    assert str(batched.value) == str(alone.value)


def test_refused_data():
    with pytest.raises(ValueError, match="fitting requires labels"):
        fit_weighted_batch(Dataset(np.ones((3, 2)), None, 1), np.ones((1, 3)))
