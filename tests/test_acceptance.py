"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np

from copsamp.cli import main as cli_main
from copsamp.model import Dataset, fisher_info, probability_matrix
from copsamp.selfcheck import (
    calibration_medians,
    class_probabilities,
    exact_score_active,
    exact_score_coreset,
    fd_gradient,
    fd_hessian,
    label_average,
    loss_gradient,
    loss_hessian,
    phi,
    psi,
    random_instance,
    random_plan_gaps,
    sample_labels,
)
from copsamp.simulation import Method, SimulationSpec, run_experiment
from copsamp.solver import fit_mle, fit_weighted_mle
from helpers import binary_exact_scores


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail} (runtime {elapsed:.2f}s < {budget:.0f}s)")
    assert passed, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_label_expectation_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    while count < 100:
        for K in (1, 2, 5):
            for d in (1, 3, 8):
                beta = rng.normal(scale=0.8, size=(K, d))
                x = rng.normal(size=d)
                total = label_average(beta, x, lambda y: psi(beta, x, y))
                worst = max(worst, float(np.abs(total - phi(beta, x)).max()))
                count += 1
    report(1, worst <= 1e-12, f"max |sum_y p_y psi - phi| = {worst:.2e} <= 1e-12",
           time.time() - start, 1.0)


def test_criterion_2_calculus_suite():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_grad = worst_hess = worst_row = worst_eig = 0.0
    for i in range(100):
        K, d = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        beta, x, y = random_instance(rng, K, d)
        g = loss_gradient(beta, x, y)
        fd = fd_gradient(beta, x, y)
        scale = max(1.0, np.abs(fd).max())
        worst_grad = max(worst_grad, float(np.abs(g - fd).max() / scale))
        if i < 25:
            H = loss_hessian(beta, x)
            fdH = fd_hessian(beta, x, y)
            worst_hess = max(worst_hess, float(np.abs(H - fdH).max()
                                               / max(1.0, np.abs(fdH).max())))
        p = class_probabilities(beta, x)
        worst_row = max(worst_row, float(np.abs(phi(beta, x) @ np.ones(K)
                                                - p[1:] * p[0]).max()))
        worst_eig = max(worst_eig,
                        -float(np.linalg.eigvalsh(phi(beta, x)).min()),
                        -float(np.linalg.eigvalsh(psi(beta, x, y)).min()))
    passed = (worst_grad <= 1e-6 and worst_hess <= 1e-5
              and worst_row <= 1e-12 and worst_eig <= 1e-12)
    report(2, passed,
           f"grad fd {worst_grad:.2e}<=1e-6, hess fd {worst_hess:.2e}<=1e-5, "
           f"row-sum {worst_row:.2e}<=1e-12, min-eig slack {worst_eig:.2e}",
           time.time() - start, 5.0)


def test_criterion_3_optimality_oracle():
    start = time.time()
    rng = np.random.default_rng(303)
    u = rng.uniform(0.1, 5.0, size=20)
    min_gap, strictly = random_plan_gaps(u, rng, 1000)
    passed = min_gap >= -1e-9 and strictly >= 990
    report(3, passed,
           f"pi ~ u minimizes sum u^2/pi: min gap {min_gap:.3e} >= 0, "
           f"strictly worse {strictly}/1000 >= 990",
           time.time() - start, 1.0)


def test_criterion_4_ensemble_exact_correspondence():
    start = time.time()
    rng = np.random.default_rng(404)
    beta_star = rng.uniform(-1.0, 1.0, size=(2, 3))
    medians = calibration_medians(beta_star, members=200, shard=5000, big=200_000,
                                  evaluated=500, probe_seed=1, big_seed=2, ensemble_seed=3)
    passed = all(v <= 0.15 for v in medians.values())
    report(4, passed,
           f"median |n'*u_ens - u_exact|/u_exact: coreset {medians['coreset']:.3f}, "
           f"active {medians['active']:.3f} <= 0.15",
           time.time() - start, 120.0)


def test_criterion_5_binary_corollary():
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        n = 200
        X = rng.normal(size=(n, d))
        beta = rng.normal(scale=0.8, size=(1, d))
        y_all = sample_labels(rng, probability_matrix(beta, X))
        info = fisher_info(beta, Dataset(X, y_all, 1))
        x = rng.normal(size=d)
        y = int(rng.integers(0, 2))
        core, act = binary_exact_scores(beta, info.m, x, y)
        rel_c = abs(exact_score_coreset(beta, info, x, y) - core) / core
        rel_a = abs(exact_score_active(beta, info, x) - act) / act
        worst = max(worst, rel_c, rel_a)
    report(5, worst <= 1e-10,
           f"generic trace vs binary closed form, max rel err {worst:.2e} <= 1e-10",
           time.time() - start, 1.0)


def test_criterion_6_simulation_orderings():
    start = time.time()
    spec = SimulationSpec(
        atom_x=np.array([[1.0, 0.0], [0.1, 0.1], [0.0, 1.0]]),
        counts=np.array([1000, 100000, 100000]),
        beta_star=np.array([[2.0, 2.0]]),
        zeta=np.zeros(3),
        r=1000,
        methods=(Method("uniform"), Method("vanilla", with_labels=False),
                 Method("clip", 3.0, with_labels=False)),
        trials=50,
        seed=0,
    )
    cases = {"zeta_x1_0": np.zeros(3), "zeta_x1_-3": np.array([-3.0, 0.0, 0.0])}
    rep = run_experiment(spec, zeta_cases=cases)
    assert not rep.failures

    def mean(case, mid, metric):
        return rep.aggregates[f"{case}/{mid}"][metric]["mean"]

    van, clip, unif = "cops-vanilla-withoutY", "cops-clip3-withoutY", "uniform"
    checks = {}
    for metric in ("regret", "param_error_l2"):
        checks[f"{metric}: clean vanilla<=uniform"] = (
            mean("zeta_x1_0", van, metric) <= mean("zeta_x1_0", unif, metric)
        )
        checks[f"{metric}: corrupted vanilla>uniform"] = (
            mean("zeta_x1_-3", van, metric) > mean("zeta_x1_-3", unif, metric)
        )
        checks[f"{metric}: corrupted clip<vanilla"] = (
            mean("zeta_x1_-3", clip, metric) < mean("zeta_x1_-3", van, metric)
        )
        checks[f"{metric}: corrupted clip<uniform"] = (
            mean("zeta_x1_-3", clip, metric) < mean("zeta_x1_-3", unif, metric)
        )
    failed = [name for name, ok in checks.items() if not ok]
    detail = (
        "50-trial means "
        f"regret z0 (u={mean('zeta_x1_0', unif, 'regret'):.5f}, "
        f"v={mean('zeta_x1_0', van, 'regret'):.5f}) "
        f"z-3 (u={mean('zeta_x1_-3', unif, 'regret'):.5f}, "
        f"v={mean('zeta_x1_-3', van, 'regret'):.5f}, "
        f"c={mean('zeta_x1_-3', clip, 'regret'):.5f})"
        + (f"; failed: {failed}" if failed else "; all orderings hold")
    )
    report(6, not failed, detail, time.time() - start, 300.0)


def test_criterion_7_subsampling_consistency():
    start = time.time()
    rng = np.random.default_rng(707)
    n, d, K = 20000, 4, 2
    X = rng.normal(size=(n, d))
    beta_star = rng.uniform(-0.8, 0.8, size=(K, d))
    y = sample_labels(rng, probability_matrix(beta_star, X))
    data = Dataset(X, y, K)
    beta_mle = fit_mle(data).beta
    pi = rng.uniform(0.75, 1.5, size=n)
    pi /= pi.sum()
    assert pi.min() >= 0.5 / n and pi.max() <= 2.0 / n
    weights_all = 1.0 / pi

    def median_error(r, seed0):
        errs = []
        for t in range(30):
            r_rng = np.random.default_rng(seed0 + t)
            idx = r_rng.choice(n, size=r, replace=True, p=pi)
            rep = fit_weighted_mle(data.subset(idx), weights_all[idx])
            errs.append(np.linalg.norm(rep.beta - beta_mle))
        return float(np.median(errs))

    med_small = median_error(500, 1000)
    med_big = median_error(8000, 2000)
    report(7, med_big < med_small,
           f"median ||beta_bar - beta_mle||: r=8000 gives {med_big:.4f} "
           f"< {med_small:.4f} at r=500",
           time.time() - start, 60.0)


def test_criterion_8_simulate_determinism(tmp_path):
    start = time.time()
    from copsamp.cli import bundled_config_path

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["simulate", bundled_config_path(), "--out", str(out_a),
                       "--trials", "1", "--seed", "7"])
    code_b = cli_main(["simulate", bundled_config_path(), "--out", str(out_b),
                       "--trials", "1", "--seed", "7"])
    same_report = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    same_trials = (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    passed = code_a == 0 and code_b == 0 and same_report and same_trials
    report(8, passed,
           "two fixed-seed simulate runs byte-identical "
           f"(report.json: {same_report}, trials.csv: {same_trials})",
           time.time() - start, 120.0)
