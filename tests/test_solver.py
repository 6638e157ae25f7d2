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
from copsamp.model import Dataset, dataset_loss
from copsamp.simulation import SimulationSpec, generate_dataset
from copsamp.solver import FitConfig, fit_mle, fit_weighted_mle
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


def test_loss_non_increasing_across_iterations():
    data, _ = synthetic(2, 500, 2, 3)
    losses = []
    for k in range(1, 8):
        rep = fit_mle(data, FitConfig(max_iters=k, grad_tol=1e-14))
        losses.append(rep.final_loss)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-15)


def test_gradient_norm_at_convergence():
    data, _ = synthetic(3, 800, 1, 2)
    rep = fit_mle(data, FitConfig(grad_tol=1e-10))
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


def test_non_convergence_reported():
    data, _ = synthetic(8, 500, 2, 4)
    rep = fit_mle(data, FitConfig(max_iters=1, grad_tol=1e-14))
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
