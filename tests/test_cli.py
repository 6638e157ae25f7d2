"""CLI surface: formats, exit codes, determinism."""

import csv
import io
import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from copsamp import cli, model, selfcheck, solver, uncertainty
from copsamp.cli import (
    CliError,
    bundled_config_path,
    ensemble_to_doc,
    json_text,
    main,
    read_dataset_csv,
    read_scores_csv,
)
from copsamp.model import Dataset
from copsamp.selfcheck import class_probabilities
from copsamp.simulation import PAPER_METHODS, ExperimentReport, SimulationSpec, TrialResult
from copsamp.uncertainty import ProbeEnsemble, train_ensemble
from helpers import synthetic

FIXTURES = Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


def simulated_trials_csv(tmp_path, monkeypatch, labels, values):
    """``trials.csv`` bytes of ``simulate`` on one uniform trial per case label.

    The trial values are fixed, one ``(components, l2, regret)`` per label,
    so a pin on the bytes does not rest on the numerics of a run.
    """
    cfg = json.loads(tiny_sim_config(tmp_path).read_text())
    cfg.update(methods=["uniform"], trials=1,
               zeta_cases={label: [0.0, 0.0, 0.0] for label in labels})
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(cfg))

    def fixed_report(spec, zeta_cases, threads):
        rows = [TrialResult(method_id="uniform", case=case, trial_index=0,
                            param_error_components=components, param_error_l2=l2,
                            regret=regret, seed=100 + i)
                for i, (case, (components, l2, regret)) in enumerate(zip(zeta_cases, values))]
        return ExperimentReport(trials=1, methods=("uniform",), cases=tuple(zeta_cases),
                                seed=spec.seed, rows=rows, aggregates={})

    monkeypatch.setattr(cli, "run_experiment", fixed_report)
    out = tmp_path / "run"
    assert run(["simulate", path, "--out", out]) == 0
    return (out / "trials.csv").read_bytes()


def write_ensemble(path, ensemble):
    path.write_text(json_text(ensemble_to_doc(ensemble)))


def synthetic_csv(path, seed=0, n=200, K=1, d=2, weights=False):
    data, _ = synthetic(seed, n, K, d)
    header = [f"x{i}" for i in range(d)] + ["y"] + (["w"] if weights else [])
    lines = [",".join(header)]
    for x, y in zip(data.X, data.y):
        row = [format(float(v), ".17g") for v in x] + [str(y)] + (["1.0"] if weights else [])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return data


def tiny_sim_config(tmp_path, trials=2, seed=11):
    cfg = {
        "atoms": [
            {"x": [1.0, 0.0], "count": 50},
            {"x": [0.1, 0.1], "count": 2000},
            {"x": [0.0, 1.0], "count": 2000},
        ],
        "beta_star": [[2.0, 2.0]],
        "zeta_cases": {"clean": [0.0, 0.0, 0.0], "hit": [-3.0, 0.0, 0.0]},
        "r": 150,
        "trials": trials,
        "seed": seed,
        "methods": ["uniform", "cops-vanilla-withoutY", "cops-clip3-withoutY"],
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


class TestFit:
    def test_fixture_converges(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / "tiny_binary.csv", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["k"] == 1 and doc["d"] == 2

    def test_unit_weights_match_unweighted(self, tmp_path):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, weights=True)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["fit", data_path, "--out", out_a]) == 0
        assert run(["fit", data_path, "--out", out_b, "--weights-col", "w"]) == 0
        a = json.loads(out_a.read_text())["coefficients"]
        b = json.loads(out_b.read_text())["coefficients"]
        npt.assert_array_equal(a, b)

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        # int() semantics for labels: 1.0 and 1.5 are not labels; labels are int64
        for bad_row in ("1.0,oops,0", "1.0,2.0,1.0", "1.0,2.0,1.5", "1.0,2.0,99999999999999999999"):
            bad = tmp_path / "bad.csv"
            bad.write_text(f"x0,x1,y\n1.0,2.0,1\n{bad_row}\n")
            assert run(["fit", bad]) == 2, bad_row
            assert "malformed row 3" in capsys.readouterr().err, bad_row

    def test_header_only_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        data_path.write_text("x0,x1,y\n")
        assert run(["fit", data_path, "--out", tmp_path / "fit.json"]) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"], ["--grad-tol", "1e-6"],
                                      ["--max-iters", "5"], ["--ridge", "1"]])
    def test_flag_of_another_command_exit_2(self, flag, tmp_path, capsys):
        # only simulate reads --threads; fit draws nothing, so it takes no
        # seed; the Newton solver's settings are constants, not flags
        out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as err:
            run(["fit", FIXTURES / "tiny_binary.csv", "--out", out] + flag)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        out = tmp_path / "outdir"
        out.mkdir()
        assert run(["fit", FIXTURES / "tiny_binary.csv", "--out", out]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_strict_flag_on_nonconvergence(self, tmp_path, monkeypatch):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=1, n=300, K=2, d=3)
        out = tmp_path / "fit.json"
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-14)
        assert run(["fit", data_path, "--out", out]) == 0
        assert json.loads(out.read_text())["converged"] is False
        assert run(["fit", data_path, "--out", out, "--strict"]) == 1

    def test_singular_hessian_reported_not_converged(self, tmp_path):
        # two equal feature columns at scale 1e6: a Newton step's ridged
        # Hessian is exactly singular, and the fit stops with its report
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / "singular_hessian.csv", "--out", out]) == 0
        assert '"converged": false' in out.read_text()
        assert run(["fit", FIXTURES / "singular_hessian.csv", "--out", out, "--strict"]) == 1

    def test_overflowing_products_reported_not_converged(self, tmp_path, capsys):
        # x1 scaled by 1e160: its square overflows, so the Newton Hessian is
        # non-finite; the fit stops unconverged and nothing reaches stderr
        data_path = tmp_path / "scaled.csv"
        lines = (FIXTURES / "tiny_binary.csv").read_text().splitlines()
        data_path.write_text("\n".join([lines[0]] + [
            f"{x0},{float(x1) * 1e160!r},{y}" for x0, x1, y in (l.split(",") for l in lines[1:])]))
        out = tmp_path / "fit.json"
        assert run(["fit", data_path, "--out", out]) == 0
        assert '"converged": false' in out.read_text()
        assert capsys.readouterr().err == ""
        assert run(["fit", data_path, "--out", out, "--strict"]) == 1

    def test_unexpected_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # an exception no command handler expects ends in main's last resort
        def broken(data, weights):
            raise RuntimeError("broken solver")

        monkeypatch.setattr(cli, "fit_weighted_mle", broken)
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / "tiny_binary.csv", "--out", out]) == 1
        assert capsys.readouterr().err == "copsamp: unexpected failure: broken solver\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, steps", [("singular_hessian.csv", 1), ("tiny_binary.csv", 0)])
    def test_non_descent_steps_reported(self, tmp_path, name, steps):
        # the singular step is the one non-descent step, written right after "converged"
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / name, "--out", out]) == 0
        keys = list(json.loads(out.read_text()))
        assert keys[keys.index("converged") + 1] == "non_descent_steps"
        assert f'"non_descent_steps": {steps}' in out.read_text()

    @pytest.mark.parametrize("name", ["singular_hessian.csv", "tiny_binary.csv"])
    def test_fit_is_the_library_fit_bit_for_bit(self, tmp_path, name):
        # the reader's X is a strided view of its parse; the library's is C-contiguous
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / name, "--out", out]) == 0
        doc = json.loads(out.read_text())
        table = np.loadtxt(FIXTURES / name, delimiter=",", skiprows=1)
        X, y = np.ascontiguousarray(table[:, :-1]), table[:, -1].astype(int)
        report = solver.fit_mle(Dataset(X, y, doc["k"]))
        assert doc["coefficients"] == report.beta.tolist()
        assert (doc["iterations"], doc["final_grad_norm"], doc["final_loss"],
                doc["non_descent_steps"]) == (report.iterations, report.final_grad_norm,
                                              report.final_loss, report.non_descent_steps)

    def test_manifest_records_solver_settings(self, tmp_path, monkeypatch):
        # the settings are read from the solver's constants when the fit runs
        monkeypatch.setattr(solver, "MAX_ITERS", 7)
        out = tmp_path / "fit.json"
        assert run(["fit", FIXTURES / "tiny_binary.csv", "--out", out]) == 0
        config = json.loads((tmp_path / "fit.json.manifest.json").read_text())["config"]
        assert (config["grad_tol"], config["max_iters"], config["ridge"]) == (
            solver.GRAD_TOL, solver.MAX_ITERS, solver.RIDGE)

    def test_stalled_fit_reported_not_converged(self, tmp_path):
        # separable rows at scale 1e10: the Newton line search runs out of
        # halvings, and the fit stops with its report
        X = np.random.default_rng(2).normal(size=(20, 2)) * 1e10
        data_path = tmp_path / "data.csv"
        data_path.write_text("x0,x1,y\n" + "".join(
            f"{a!r},{b!r},{int(b > 0)}\n" for a, b in X.tolist()))
        out = tmp_path / "fit.json"
        assert run(["fit", data_path, "--out", out]) == 0
        assert '"converged": false' in out.read_text()
        assert run(["fit", data_path, "--out", out, "--strict"]) == 1

    def test_overflowing_weight_sum_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=9, n=50, weights=True)
        data_path.write_text(data_path.read_text().replace(",1.0\n", ",1e308\n"))
        out = tmp_path / "fit.json"
        assert run(["fit", data_path, "--weights-col", "w", "--out", out]) == 2
        assert "weights sum to inf" in capsys.readouterr().err
        assert not out.exists()


class TestScore:
    def test_identical_members_zero_scores(self, tmp_path):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=2)
        beta = np.array([[0.4, -0.2]])
        ens = ProbeEnsemble(np.repeat(beta[None], 3, axis=0), 50)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)
        out = tmp_path / "scores.csv"
        assert run(["score", data_path, ens_path, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,u"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals == [0.0] * len(vals)

    def test_row_order_preserved(self, tmp_path):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=3, n=50)
        data = synthetic_csv(data_path, seed=3, n=50)
        ens = train_ensemble(data, 3, seed=0)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)
        out = tmp_path / "scores.csv"
        assert run(["score", data_path, ens_path, "--kind", "active", "--out", out]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(50))

    def test_label_average_identity_via_cli(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2))
        data = Dataset(X, rng.integers(0, 2, 20), 1)
        ens = train_ensemble(
            Dataset(rng.normal(size=(300, 2)),
                    rng.integers(0, 2, 300), 1), 4, seed=1
        )
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)

        def score(kind, labels=None):
            path = tmp_path / f"{kind}.csv"
            lines = ["x0,x1,y"]
            ys = labels if labels is not None else data.y
            for x, y in zip(X, ys):
                lines.append(f"{float(x[0])!r},{float(x[1])!r},{y}")
            path.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"{kind}_scores.csv"
            assert run(["score", path, ens_path, "--kind", kind, "--out", out]) == 0
            return np.array([float(r.split(",")[1])
                             for r in out.read_text().strip().splitlines()[1:]])

        u0 = score("coreset", labels=np.zeros(20, dtype=int))
        u1 = score("coreset", labels=np.ones(20, dtype=int))
        ua = score("active")
        P = np.array([class_probabilities(ens.mean, x) for x in X])
        npt.assert_allclose(P[:, 0] * u0 + P[:, 1] * u1, ua, atol=1e-12)

    def test_exact_estimator(self, tmp_path):
        data_path = tmp_path / "data.csv"
        data = synthetic_csv(data_path, seed=6, n=300)
        ens = train_ensemble(data, 4, seed=2)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)
        out = tmp_path / "scores.csv"
        assert run(["score", data_path, ens_path, "--estimator", "exact",
                    "--out", out]) == 0
        vals = np.array([float(r.split(",")[1])
                         for r in out.read_text().strip().splitlines()[1:]])
        assert vals.shape == (300,) and np.all(vals >= 0) and vals.max() > 0

    def test_scoring_failure_exit_1(self, tmp_path, capsys):
        # products of features scaled by 1e160 overflow: the information
        # matrix is refused as non-finite, with no numpy warning on the way
        data = synthetic_csv(tmp_path / "data.csv", seed=6, n=50)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, train_ensemble(data, 2, seed=0))
        data_path = tmp_path / "scaled.csv"
        data_path.write_text("x0,x1,y\n" + "".join(
            f"{a!r},{b * 1e160!r},{y}\n" for (a, b), y in zip(data.X.tolist(), data.y.tolist())))
        out = tmp_path / "scores.csv"
        assert run(["score", data_path, ens_path, "--estimator", "exact", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "copsamp: error: scoring failed: information matrix contains non-finite entries\n")
        assert not out.exists()

    def test_legacy_mode_key_ignored(self, tmp_path):
        # documents written with a "mode" key still load and score the same
        data_path = tmp_path / "data.csv"
        data = synthetic_csv(data_path, seed=7, n=80)
        doc = ensemble_to_doc(train_ensemble(data, 3, seed=1))
        assert "mode" not in doc
        current, legacy = tmp_path / "ens.json", tmp_path / "legacy.json"
        current.write_text(json_text(doc))
        legacy.write_text(json_text({**doc, "mode": "bootstrap"}))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for ens_path, out in zip((current, legacy), outs):
            assert run(["score", data_path, ens_path, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize(
        "broken", ["missing-k", "missing-d", "array", "float-probe_size", "bool-k",
                   "string-member", "exponent-string-member", "bool-member",
                   "huge-int-member"]
    )
    def test_malformed_ensemble_document_exit_2(self, tmp_path, capsys, broken):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=8, n=30)
        beta = np.array([[0.4, -0.2]])
        doc = ensemble_to_doc(ProbeEnsemble(np.repeat(beta[None], 3, axis=0), 50))
        if broken == "array":
            doc = [doc]
        elif broken.endswith("-member"):
            # float() would read "0.4" as 0.4, "1e1" as 10.0 and true as 1.0
            members = doc["members"].tolist()
            members[1][0][0] = {"string-member": "0.4", "exponent-string-member": "1e1",
                                "bool-member": True, "huge-int-member": 10**400}[broken]
            doc["members"] = members
        else:
            how, key = broken.split("-", 1)
            if how == "missing":
                del doc[key]
            else:
                # 12.7 would truncate to 12, and true equals the members' k = 1
                doc[key] = {"float": 12.7, "bool": True}[how]
        ens_path = tmp_path / "ens.json"
        ens_path.write_text(json_text(doc))
        assert run(["score", data_path, ens_path, "--out", tmp_path / "s.csv"]) == 2
        assert "invalid ensemble document" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["probe_size-0", "probe_size--5", "nan-member"])
    def test_invalid_ensemble_values_exit_2(self, tmp_path, capsys, broken):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=8, n=30)
        beta = np.array([[0.4, -0.2]])
        ens = ProbeEnsemble(np.repeat(beta[None], 3, axis=0), 50)
        doc = json.loads(json_text(ensemble_to_doc(ens)))
        if broken == "nan-member":
            doc["members"][1][0][0] = float("nan")
        else:
            doc["probe_size"] = int(broken.split("-", 1)[1])
        ens_path = tmp_path / "ens.json"
        ens_path.write_text(json.dumps(doc))  # NaN is written as a bare NaN literal
        assert run(["score", data_path, ens_path, "--out", tmp_path / "s.csv"]) == 2
        assert "invalid ensemble document" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_active_kind_ignores_label_column(self, tmp_path):
        # active scores never read y, so no value there can fail them
        X = np.random.default_rng(9).normal(size=(40, 2))
        ens = ProbeEnsemble(np.array([[[0.4, -0.2]], [[0.1, 0.3]], [[-0.2, 0.5]]]), 50)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)
        scores = {}
        for name, label in (("none", None), ("five", "5"), ("float", "1.0")):
            lines = ["x0,x1" + (",y" if label else "")]
            lines += [f"{a!r},{b!r}" + (f",{label}" if label else "") for a, b in X.tolist()]
            data_path = tmp_path / f"{name}.csv"
            data_path.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"{name}_scores.csv"
            assert run(["score", data_path, ens_path, "--kind", "active", "--out", out]) == 0
            scores[name] = out.read_bytes()
        assert scores["five"] == scores["none"] and scores["float"] == scores["none"]

    @pytest.mark.parametrize("kind", ["coreset", "active"])
    def test_header_only_exit_2(self, tmp_path, capsys, kind):
        data_path = tmp_path / "data.csv"
        data_path.write_text("x0,x1,y\n")
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ProbeEnsemble(np.array([[[0.4, -0.2]], [[0.1, 0.3]]]), 50))
        out = tmp_path / "scores.csv"
        assert run(["score", data_path, ens_path, "--kind", kind, "--out", out]) == 2
        assert "no data rows" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_exit_2(self, tmp_path):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=5, d=3)
        beta = np.array([[0.4, -0.2]])
        ens = ProbeEnsemble(np.repeat(beta[None], 3, axis=0), 50)
        ens_path = tmp_path / "ens.json"
        write_ensemble(ens_path, ens)
        assert run(["score", data_path, ens_path]) == 2


class TestSample:
    def test_clip_plan_document(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1.0\n1,2.0\n2,10.0\n")
        out_prefix = tmp_path / "sub"
        assert run(["sample", scores, "--seed", 0, "--out", out_prefix,
                    "--r", 5, "--alpha-mult", 3, "--transform", "identity"]) == 0
        plan = json.loads((tmp_path / "sub_plan.json").read_text())
        npt.assert_allclose(plan["pi"], [1 / 6, 2 / 6, 3 / 6], rtol=1e-15)
        assert plan["beta_floor"] == 0.1
        # alpha = 3 x 1 caps the score 10; no score is below the floor
        assert (plan["capped_fraction"], plan["floored_fraction"]) == (1 / 3, 0.0)
        keys = list(plan)
        assert keys[keys.index("max_weight_ratio") + 1 : keys.index("pi")] == [
            "capped_fraction", "floored_fraction"]

    def test_subsample_csv_schema(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1.0\n1,2.0\n2,3.0\n")
        out_prefix = tmp_path / "sub"
        assert run(["sample", scores, "--seed", 3, "--out", out_prefix, "--r", 7]) == 0
        lines = (tmp_path / "sub.csv").read_text().strip().splitlines()
        assert lines[0] == "draw_index,source_row,weight"
        assert len(lines) == 8

    def test_r_zero_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1.0\n")
        assert run(["sample", scores, "--r", 0]) == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1.0\n")
        assert run(["sample", scores, "--r", 1, "--seed", -1, "--out", tmp_path / "sub"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("sub*"))

    def test_byte_identical_reruns(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n" + "\n".join(f"{i},{(i % 7) + 0.5}" for i in range(40)) + "\n")
        for prefix in ("p1", "p2"):
            assert run(["sample", scores, "--seed", 9, "--r", 25,
                        "--out", tmp_path / prefix]) == 0
        assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
        assert (tmp_path / "p1_plan.json").read_bytes() == (tmp_path / "p2_plan.json").read_bytes()

    @pytest.mark.parametrize("flag, field", [
        (["--beta-floor", "nan"], "beta_floor"),
        (["--beta-floor", "inf"], "beta_floor"),
        (["--alpha-mult", "nan"], "alpha_multiplier"),
        (["--alpha-mult", "inf"], "alpha_multiplier"),
    ])
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, flag, field):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1.0\n1,2.0\n")
        assert run(["sample", scores, "--r", 2] + flag) == 2
        assert field in capsys.readouterr().err

    def test_drawable_rows_set_max_weight_ratio(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,0\n1,1\n2,1\n3,1\n")
        assert run(["sample", scores, "--r", 5, "--transform", "identity",
                    "--out", tmp_path / "sub"]) == 0
        plan = json.loads((tmp_path / "sub_plan.json").read_text())
        assert plan["max_weight_ratio"] == pytest.approx(0.775, rel=1e-15)

    def test_overflowing_score_sum_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,1e308\n1,1e308\n")
        assert run(["sample", scores, "--r", 2, "--transform", "identity",
                    "--out", tmp_path / "sub"]) == 2
        assert "scores too large to normalize" in capsys.readouterr().err
        assert not (tmp_path / "sub.csv").exists()

    def test_negative_scores_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,-1.0\n")
        assert run(["sample", scores, "--r", 2]) == 2


def test_manifests_beside_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = synthetic_csv(tmp_path / "data.csv", seed=18, n=60)
    write_ensemble(tmp_path / "ens.json", train_ensemble(data, 2, seed=0))
    sub = tmp_path / "sub"
    sub.mkdir()
    assert run(["fit", "data.csv", "--out", "sub/fit.json"]) == 0
    assert run(["score", "data.csv", "ens.json", "--out", "sub/scores.csv"]) == 0
    assert run(["sample", "sub/scores.csv", "--r", 5, "--out", "sub/pick"]) == 0
    manifests = {
        "fit.json.manifest.json": ["fit.json"],
        "scores.csv.manifest.json": ["scores.csv"],
        "pick.manifest.json": ["pick.csv", "pick_plan.json"],
    }
    for name, outputs in manifests.items():
        recorded = json.loads((sub / name).read_text())["outputs"]
        assert recorded == [os.path.join(os.getcwd(), "sub", out) for out in outputs]
    assert sorted(os.listdir(sub)) == sorted([*manifests, "fit.json", "scores.csv",
                                              "pick.csv", "pick_plan.json"])
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "ens.json", "sub"]


@pytest.mark.parametrize("reader", ["simulate-config", "ensemble", "dataset", "scores"])
def test_non_utf8_input_exit_2(tmp_path, capsys, reader):
    # the byte sits in the last row of a dataset larger than one read
    # buffer, so the bulk parse meets it first and the row reader after
    config = tiny_sim_config(tmp_path)
    data_path = tmp_path / "data.csv"
    data = synthetic_csv(data_path, seed=19, n=400)
    ens_path = tmp_path / "ens.json"
    write_ensemble(ens_path, train_ensemble(data, 2, seed=0))
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("index,u\n0,1.5\n1,0.25\n")
    out = tmp_path / "out"
    path, argv = {
        "simulate-config": (config, ["simulate", config, "--out", out]),
        "ensemble": (ens_path, ["score", data_path, ens_path, "--out", out]),
        "dataset": (data_path, ["fit", data_path, "--out", out]),
        "scores": (scores_path, ["sample", scores_path, "--r", 2, "--out", out]),
    }[reader]
    path.write_bytes(path.read_bytes()[:-3] + b"\xff" + path.read_bytes()[-3:])
    assert run(argv) == 2
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("case, message", [
    ("unopenable input", "cannot open"),
    ("empty dataset", "empty file"),
    ("features out of order", "header must contain x0..x{d-1} in order"),
    ("fit without y", "labeled data needs a 'y' column"),
    ("missing weights column", "no column named 'w'"),
    ("members disagree with d", "members shape disagrees with declared k/d"),
    ("config not an object", "config must be a JSON object"),
    ("empty zeta_cases", "'zeta_cases' must be a non-empty object"),
    ("labels above K", "class mismatch"),
    ("scores without u", "expected a header with a 'u' column"),
])
def test_refused_input_exit_2(tmp_path, capsys, case, message):
    data_path = tmp_path / "data.csv"
    synthetic_csv(data_path, seed=8, n=30)
    three_class_path = tmp_path / "three_class.csv"
    synthetic_csv(three_class_path, seed=8, n=30, K=2)
    ens_path = tmp_path / "ens.json"
    write_ensemble(ens_path, ProbeEnsemble(np.array([[[0.4, -0.2]], [[0.1, 0.3]]]), 50))
    doc = json.loads(ens_path.read_text())
    doc["d"] = 3
    wide_ens_path = tmp_path / "wide_ens.json"
    wide_ens_path.write_text(json.dumps(doc))
    cfg = json.loads(tiny_sim_config(tmp_path).read_text())
    cfg["zeta_cases"] = {}
    no_cases_path = tmp_path / "no_cases.json"
    no_cases_path.write_text(json.dumps(cfg))
    bad = tmp_path / "bad"
    text, argv = {
        "unopenable input": (None, ["fit", tmp_path / "absent.csv"]),
        "empty dataset": ("", ["fit", bad]),
        "features out of order": ("x1,x0,y\n1.0,2.0,1\n", ["fit", bad]),
        "fit without y": ("x0,x1\n1.0,2.0\n", ["fit", bad]),
        "missing weights column": (None, ["fit", data_path, "--weights-col", "w"]),
        "members disagree with d": (None, ["score", data_path, wide_ens_path]),
        "config not an object": ("[1, 2]\n", ["simulate", bad]),
        "empty zeta_cases": (None, ["simulate", no_cases_path]),
        "labels above K": (None, ["score", three_class_path, ens_path]),
        "scores without u": ("index,v\n0,1.0\n", ["sample", bad, "--r", 2]),
    }[case]
    if text is not None:
        bad.write_text(text)
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_sim_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", cfg, "--out", out_a, "--trials", 1, "--seed", 7]) == 0
        assert run(["simulate", cfg, "--out", out_b, "--trials", 1, "--seed", 7]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = tiny_sim_config(tmp_path)
        outputs = {}
        for threads in (1, 3):
            out = tmp_path / f"threads{threads}"
            assert run(["simulate", cfg, "--out", out, "--trials", 3, "--threads", threads]) == 0
            outputs[threads] = [(out / name).read_bytes() for name in ("report.json", "trials.csv")]
        assert outputs[1] == outputs[3]

    def test_bundled_matches_benchmark_reference(self, tmp_path):
        # the benchmark checks the bundled config's seeded rows against its
        # stored reference; a change to a seeded stream fails here first
        stored = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                             / "sim_paper.json").read_text())
        out = tmp_path / "run"
        assert run(["simulate", bundled_config_path(), "--out", out,
                    "--trials", stored["trials"], "--seed", stored["seed"]]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == len(stored["rows"])
        for got, want in zip(rows, stored["rows"]):
            for key in ("method", "case", "trial_index", "seed"):
                assert got[key] == want[key]
            values = [got["param_error_components"], got["param_error_l2"], got["regret"]]
            reference = [want["param_error_components"], want["param_error_l2"], want["regret"]]
            for a, b in zip(values, reference):
                npt.assert_allclose(a, b, rtol=1e-9, atol=1e-9)

    def test_trials_csv_schema(self, tmp_path):
        cfg = tiny_sim_config(tmp_path)
        out = tmp_path / "run"
        assert run(["simulate", cfg, "--out", out]) == 0
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == ("method,case,param_error_d1,param_error_d2,"
                            "param_error_l2,regret,seed")
        # 2 cases x 2 trials x 3 methods
        assert len(lines) == 1 + 12
        assert (out / "manifest.json").exists()

    def test_missing_beta_star_exit_2(self, tmp_path, capsys):
        cfg = json.loads(tiny_sim_config(tmp_path).read_text())
        del cfg["beta_star"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cfg))
        assert run(["simulate", path]) == 2
        assert "beta_star" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("beta_floor", -1, "beta_floor"),
        ("beta_floor", "nan", "beta_floor"),
        ("score_transform", "log", "score_transform"),
        ("probe_members", 1, "probe_members"),
        ("clip_multipliers", [3.0, 10.0], "clip_multipliers"),
        ("methods", ["uniform", "cops-clip0.5-withY"], "clip0.5"),
        ("zeta_cases", {"clean": [0.0, 0.0, 0.0], "bad": [float("nan"), 0.0, 0.0]}, "zeta"),
        ("probe_member", 3, "probe_member"),
        ("methods", ["uniform", "cops-clip1-withY"], "cops-clip1-withY"),
        ("zeta_cases", {"short": [0.0, 0.0]}, "'short'"),
        # each of these was once read by int() or float(), or by numpy
        ("r", 1000.7, "'r'"),
        ("trials", True, "'trials'"),
        ("trials", "3", "'trials'"),
        ("probe_members", 10.9, "'probe_members'"),
        ("atoms", [{"x": [1.0, 0.0], "count": 2.5}, {"x": [0.1, 0.1], "count": 100000},
                   {"x": [0.0, 1.0], "count": 100000}], "'count'"),
        ("beta_star", [["2", "2"]], "'beta_star'"),
        ("beta_floor", True, "'beta_floor'"),
        ("methods", ["uniform", "cops-clipinf-withY"], "cops-clipinf-withY"),
        # JSON's NaN and Infinity literals reach the spec, which refuses them
        ("atoms", [{"x": [1.0, float("nan")], "count": 1000}, {"x": [0.1, 0.1], "count": 100000},
                   {"x": [0.0, 1.0], "count": 100000}], "atom_x"),
        ("beta_star", [[2.0, float("inf")]], "beta_star"),
    ])
    def test_bad_bundled_config_exit_2(self, tmp_path, capsys, key, value, field):
        # rejected before any trial runs: no output directory is written
        cfg = json.loads(Path(bundled_config_path()).read_text())
        cfg[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["simulate", path, "--trials", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config:" in err and field in err
        assert not out.exists()

    def test_json_syntax_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "syntax.json"
        path.write_text('{\n  "atoms": [,]\n}\n')
        assert run(["simulate", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bundled_config_loads(self):
        cfg = json.loads(Path(bundled_config_path()).read_text())
        assert cfg["r"] == 1000
        assert cfg["beta_star"] == [[2.0, 2.0]]
        assert set(cfg["zeta_cases"]) == {"zeta_x1_0", "zeta_x1_-1", "zeta_x1_-3"}
        assert cfg["methods"] == [m.id for m in PAPER_METHODS]

    def test_resolved_config_recorded(self, tmp_path):
        # keys the config leaves out are recorded with the defaults they ran on
        cfg = json.loads(tiny_sim_config(tmp_path).read_text())
        cfg = {key: cfg[key] for key in ("atoms", "beta_star", "zeta_cases", "r")}
        cfg["methods"] = ["uniform"]
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["simulate", path, "--out", out]) == 0
        expected = {
            "trials": SimulationSpec.trials,
            "seed": SimulationSpec.seed,
            "probe_members": SimulationSpec.probe_members,
            "score_transform": SimulationSpec.score_transform,
            "beta_floor": SimulationSpec.beta_floor,
            "methods": ["uniform"],
        }
        for name in ("report.json", "manifest.json"):
            recorded = json.loads((out / name).read_text())["config"]
            assert {key: recorded[key] for key in expected} == expected
            assert recorded["atoms"] == cfg["atoms"]
        assert len(json.loads((out / "report.json").read_text())["rows"]) == 2 * 50

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        out = tmp_path / "run"
        assert run(["simulate", tiny_sim_config(tmp_path), "--threads", threads,
                    "--out", out]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_shards_too_small_to_fit_exit_2(self, tmp_path, capsys):
        # nine rows in ten probe shards: refused before any trial runs
        cfg = json.loads(tiny_sim_config(tmp_path).read_text())
        cfg["atoms"] = [{**atom, "count": count} for atom, count in zip(cfg["atoms"], [2, 3, 4])]
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["simulate", path, "--out", out]) == 2
        assert "config: probe too small: shards of 0 rows for K+d=3" in capsys.readouterr().err
        assert not out.exists()

    def test_every_trial_failing_is_recorded(self, tmp_path, capsys):
        # every atom's logit is 200, so every label is 1: no member of three
        # three-row shards has two classes, and every trial's probe fit
        # fails, for each of its methods
        cfg = json.loads(tiny_sim_config(tmp_path, trials=1).read_text())
        cfg.update(atoms=[{"x": x, "count": 3} for x in ([100.0, 0.0], [50.0, 50.0], [0.0, 100.0])],
                   zeta_cases={"clean": [0.0, 0.0, 0.0]}, r=5, probe_members=3)
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run(["simulate", path, "--out", out]) == 0
        assert "3 trial failures recorded" in capsys.readouterr().out
        doc = json.loads((out / "report.json").read_text())
        assert doc["rows"] == []
        assert [f["method_id"] for f in doc["failures"]] == cfg["methods"]
        assert all("2 distinct classes" in f["error"] for f in doc["failures"])

    def test_simulation_failure_exit_1(self, tmp_path, capsys, monkeypatch):
        # a failure of the experiment itself, not of one trial, ends the run
        def broken(spec, zeta_cases, threads):
            raise RuntimeError("worker pool died")

        monkeypatch.setattr(cli, "run_experiment", broken)
        out = tmp_path / "run"
        assert run(["simulate", tiny_sim_config(tmp_path), "--out", out]) == 1
        assert capsys.readouterr().err == (
            "copsamp: error: simulation failed: worker pool died\n")
        assert not (out / "report.json").exists()

    def test_report_aggregates_match_trial_rows(self, tmp_path):
        cfg = tiny_sim_config(tmp_path)
        out = tmp_path / "run"
        assert run(["simulate", cfg, "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        rows = doc["rows"]
        for key, agg in doc["aggregates"].items():
            case, mid = key.split("/")
            regs = [r["regret"] for r in rows if r["case"] == case and r["method"] == mid]
            assert agg["regret"]["mean"] == pytest.approx(np.mean(regs), rel=1e-12)


def _scaled(f, factor):
    return lambda *args: factor * f(*args)


def _perturbed_fisher_info(*args):
    info = model.fisher_info(*args)
    return replace(info, m=info.m * (1 + 1e-9))


#: a slightly wrong version of a name that copsamp.selfcheck's checks call,
#: the check that must catch it, and the selfcheck flags that run that check
WRONG_LIBRARY = {
    "psi": (_scaled(selfcheck.psi, 1.001), "check_label_expectation", ["--quick"]),
    "loss_gradient": (_scaled(selfcheck.loss_gradient, 1.0001), "check_gradient_fd", ["--quick"]),
    "loss_hessian": (_scaled(selfcheck.loss_hessian, 1.0001), "check_hessian_fd", ["--quick"]),
    "fisher_info": (_perturbed_fisher_info, "check_fisher_kron", ["--quick"]),
    "exact_scores": (_scaled(uncertainty.exact_scores, 2.0), "check_ensemble_calibration", []),
}


class TestSelfcheck:
    def test_full_passes(self, capsys):
        # the one tier-1 run of the ensemble-calibration check
        assert run(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_quick_passes(self, capsys):
        assert run(["selfcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_seed_does_not_change_outcome(self, capsys):
        assert run(["selfcheck", "--quick", "--seed", 123]) == 0

    def test_negative_seed_exit_2(self, capsys):
        assert run(["selfcheck", "--quick", "--seed", -1]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(WRONG_LIBRARY))
    def test_wrong_library_function_fails(self, monkeypatch, capsys, name):
        wrong, check, flags = WRONG_LIBRARY[name]
        monkeypatch.setattr(selfcheck, name, wrong)
        result = getattr(selfcheck, check)(np.random.default_rng(0))
        assert not result.passed
        assert run(["selfcheck", *flags]) == 1
        assert f"FAIL  {result.name}" in capsys.readouterr().out


def test_csv_text_formats_floats_with_lf_lines(tmp_path, monkeypatch):
    # trials.csv floats carry 17 significant digits, nan, inf and -0 as
    # fmt_float writes them, and every line ends in LF
    values = [((0.1, -0.0), 1.5, float("nan")), ((1 / 3, 2.0), float("inf"), -2.5e-300),
              ((1e22, -7.0), 0.0, 1e-5), ((float("nan"), 5e-324), 2.5, 12.0)]
    assert simulated_trials_csv(tmp_path, monkeypatch, ["p", "q", "r", "s"], values) == (
        b"method,case,param_error_d1,param_error_d2,param_error_l2,regret,seed\n"
        b"uniform,p,0.10000000000000001,-0,1.5,nan,100\n"
        b"uniform,q,0.33333333333333331,2,inf,-2.5e-300,101\n"
        b"uniform,r,1e+22,-7,0,1.0000000000000001e-05,102\n"
        b"uniform,s,nan,4.9406564584124654e-324,2.5,12,103\n"
    )


def test_float_serialization_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal(scale=10.0 ** rng.integers(-300, 300)))
        assert float(format(x, ".17g")) == x


#: corner cases of the dataset CSV: (file text, read_dataset_csv keywords)
DATASET_CORNER_CASES = {
    "crlf": ("x0,x1,y\r\n0.5,-1.25,1\r\n2,3,0\r\n", {}),
    "lone-cr": ("x0,x1,y\r0.5,-1.25,1\r2,3,0\r", {}),
    "blank-lines": ("x0,x1,y\n\n0.5,1,1\n\n2,3,0\n\n", {}),
    "whitespace-line": ("x0,x1,y\n0.5,1,1\n   \n2,3,0\n", {}),
    "quoted-field": ('x0,x1,y\n"1.0",2,1\n', {}),
    "quoted-comma-before-features": ('note,x0,x1,y\n"a,1,2,3",4,5,1\n', {}),
    "underscore": ("x0,x1,y\n1_0,2,1\n", {}),
    "plus-sign": ("x0,x1,y\n+1,2,+1\n", {}),
    "padded": ("x0,x1,y\n 1.0 ,\t2\t,1\n", {}),
    "trailing-comma": ("x0,x1,y\n1,2,1,\n3,4,0,\n", {}),
    "extra-columns": ("x0,x1,y,note\n1,2,1,a\n3,4,0,b\n", {}),
    "short-row": ("x0,x1,y\n1,2,1\n3,4\n", {}),
    "nan-feature": ("x0,x1,y\nnan,2,1\n", {}),
    "inf-feature": ("x0,x1,y\n1,-inf,1\n", {}),
    "label-1.0": ("x0,x1,y\n1,2,1.0\n", {}),
    "label-1.5": ("x0,x1,y\n1,2,1.5\n", {}),
    "label-1e0": ("x0,x1,y\n1,2,1e0\n", {}),
    "label-padded": ("x0,x1,y\n1,2, 1\n", {}),
    "label-too-large": ("x0,x1,y\n1,2,99999999999999999999\n", {}),
    "weights-before-y": ("x0,x1,w,y\n1,2,0.5,1\n3,4,2,0\n", {"weights_col": "w"}),
    "non-finite-weights": ("x0,x1,w,y\n1,2,nan,1\n3,4,-inf,0\n5,6,-nan,1\n", {"weights_col": "w"}),
    "header-only": ("x0,x1,y\n", {}),
    "file-separator": ("x0,x1,y\n1\x1c,2,1\n", {}),
    "nul-in-extra-column": ("x0,x1,y,note\n1,2,1,a\x00b\n", {}),
}
#: cases numpy parses itself; the rest go to the row reader
BULK_CASES = {"crlf", "lone-cr", "blank-lines", "plus-sign", "padded", "trailing-comma",
              "extra-columns", "label-padded", "weights-before-y", "non-finite-weights"}


def _read_outcome(read, path, **kwargs):
    """Arrays as bytes, or the error: what a caller of ``read`` can observe."""
    try:
        result = read(path, **kwargs)
    except CliError as err:
        return ("exit", err.code, str(err))
    except Exception as err:  # noqa: BLE001 - the row reader's own failures count too
        return ("raise", type(err).__name__, str(err))
    if isinstance(result, np.ndarray):
        arrays, K = [result], None
    else:
        data, weights = result
        arrays, K = [data.X, data.y, weights], data.K
    return ("ok", K, [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def _both_parses(monkeypatch, read, path, **kwargs):
    """The outcome of ``read`` and of ``read`` with the bulk parse disabled."""
    rows_calls = []
    parse_rows = cli._parse_rows

    def spy(*args):
        rows_calls.append(args)
        return parse_rows(*args)

    def no_bulk(*args):
        raise ValueError("bulk parse disabled")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_rows", spy)
        fast = _read_outcome(read, path, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_bulk", no_bulk)
        reference = _read_outcome(read, path, **kwargs)
    return fast, reference, bool(rows_calls)


class TestBulkReaders:
    @pytest.mark.parametrize("labels", [True, False])
    @pytest.mark.parametrize("case", sorted(DATASET_CORNER_CASES))
    def test_dataset_matches_row_reader(self, tmp_path, monkeypatch, case, labels):
        text, kwargs = DATASET_CORNER_CASES[case]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        fast, reference, used_rows = _both_parses(
            monkeypatch, read_dataset_csv, str(path), labels=labels, **kwargs)
        assert fast == reference
        if case in BULK_CASES:
            assert not used_rows

    @pytest.mark.parametrize("text", [
        "index,u\r\n0,1.5\r\n1,0\r\n",
        "index,u\n\n0,1.5\n\n1,2.25\n",
        'index,u\n0,"1.5"\n',
        "index,u\n0,1_5\n",
        "index,u\n0,1.5\n1,oops\n",
        "index,u\n0,1.5\n1\n",
        "index,u\n0,-1\n",
        "index,u\n0,nan\n",
        "index,u\n",
        "u,index\n 2 ,0\n",
    ])
    def test_scores_match_row_reader(self, tmp_path, monkeypatch, text):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode("utf-8"))
        fast, reference, _ = _both_parses(monkeypatch, read_scores_csv, str(path))
        assert fast == reference

    def test_large_file_takes_bulk_path(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        data = synthetic_csv(path, seed=12, n=3000, K=2, d=3, weights=True)
        fast, reference, used_rows = _both_parses(
            monkeypatch, read_dataset_csv, str(path), labels=True, weights_col="w")
        assert fast == reference and not used_rows
        assert fast[2][0] == ("<f8", data.X.shape, data.X.tobytes())

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_read_row_by_row(self, tmp_path):
        # a pipe cannot be rewound: the row reader reads on from the header
        data_path, scores_path = tmp_path / "data.csv", tmp_path / "scores.csv"
        synthetic_csv(data_path, seed=14, n=50, K=2, d=3, weights=True)
        scores_path.write_text("index,u\n0,1.5\n1,0.25\n")
        reads = [(read_dataset_csv, data_path, {"labels": True, "weights_col": "w"}),
                 (read_scores_csv, scores_path, {})]
        for read, path, kwargs in reads:
            r, w = os.pipe()
            try:
                os.write(w, path.read_bytes())  # a few kB: fits in the pipe buffer
                os.close(w)
                got = _read_outcome(read, f"/dev/fd/{r}", **kwargs)
            finally:
                os.close(r)
            assert got == _read_outcome(read, str(path), **kwargs)
            assert got[0] == "ok"

    def test_read_dataset_peak_memory_bounded(self, tmp_path):
        # the row reader held a Python float per field: about 6x X plus y
        n, d = 50_000, 10
        rng = np.random.default_rng(13)
        X, y = rng.normal(size=(n, d)), rng.integers(0, 3, n)
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join([f"x{j}" for j in range(d)] + ["y"]) + "\n")
            fh.writelines(",".join(map(repr, row)) + f",{label}\n"
                          for row, label in zip(X.tolist(), y.tolist()))
        tracemalloc.start()
        try:
            data, _ = read_dataset_csv(str(path), True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(data.X, X)
        size = data.X.nbytes + data.y.nbytes
        assert peak < 2 * size, f"peak {peak / 1e6:.1f} MB for {size / 1e6:.1f} MB of X and y"


def test_json_text_bytes_pinned():
    doc = {
        "floats": np.array([1.5, np.nan, np.inf, -np.inf, 0.1, -0.0]),
        "empty": {"array": np.array([]), "list": [], "dict": {}, "matrix": np.zeros((0, 2))},
        "scalars": [np.float64(2.5), np.float32(0.1), np.int64(-3), float("nan"), np.float64(-np.inf)],
        "float32": np.array([0.1, 3e-8], dtype=np.float32),
        "nested": [[1, 2.5], (np.nan, "x"), np.arange(4.0).reshape(2, 2), [[]]],
        "ints": [0, -7, 2**70, True, False, None],
        "strings": ["plain", 'quote " and \\ backslash', "new\nline", "é"],
        7: "key",
    }
    assert json_text(doc) == (
        '{\n  "floats": [\n    1.5,\n    null,\n    null,\n    null,\n    0.10000000000000001,\n'
        '    -0\n  ],\n  "empty": {\n    "array": [],\n    "list": [],\n    "dict": {},\n'
        '    "matrix": []\n  },\n  "scalars": [\n    2.5,\n    0.10000000149011612,\n    -3,\n'
        '    null,\n    null\n  ],\n  "float32": [\n    0.10000000149011612,\n'
        '    2.9999998929497451e-08\n  ],\n  "nested": [\n    [\n      1,\n      2.5\n    ],\n'
        '    [\n      null,\n      "x"\n    ],\n    [\n      [\n        0,\n        1\n      ],\n'
        '      [\n        2,\n        3\n      ]\n    ],\n    [\n      []\n    ]\n  ],\n'
        '  "ints": [\n    0,\n    -7,\n    1180591620717411303424,\n    true,\n    false,\n'
        '    null\n  ],\n  "strings": [\n    "plain",\n    "quote \\" and \\\\ backslash",\n'
        '    "new\\nline",\n    "\\u00e9"\n  ],\n  "7": "key"\n}\n'
    )
    assert json_text(np.array([])) == "[]\n"
    assert json_text([np.nan]) == "[\n  null\n]\n"
    assert json_text(np.float64(1e-300)) == "1e-300\n"
    # numpy scalars and 0-d arrays render as the Python scalars they hold
    assert json_text(
        [np.array(2.5), np.array(np.nan), np.array(-4), np.array(True), np.bool_(True), np.bool_(False)]
    ) == "[\n  2.5,\n  null,\n  -4,\n  true,\n  true,\n  false\n]\n"


def test_csv_text_quotes_text_fields(tmp_path, monkeypatch):
    # case labels come from the config and are quoted as the csv module
    # quotes them; an empty label is an empty field
    labels = ["a,b", 'say "hi"', "two\nlines", ""]
    values = [((1.5, 2.0), -0.0, float("nan"))] * len(labels)
    assert simulated_trials_csv(tmp_path, monkeypatch, labels, values) == (
        b"method,case,param_error_d1,param_error_d2,param_error_l2,regret,seed\n"
        b'uniform,"a,b",1.5,2,-0,nan,100\n'
        b'uniform,"say ""hi""",1.5,2,-0,nan,101\n'
        b'uniform,"two\nlines",1.5,2,-0,nan,102\n'
        b"uniform,,1.5,2,-0,nan,103\n"
    )


def test_labelled_weighted_read_parses_once(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    data = synthetic_csv(path, seed=15, n=500, K=2, d=3, weights=True)
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(kwargs.get("usecols"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    got, weights = read_dataset_csv(str(path), labels=True, weights_col="w")
    assert calls == [[0, 1, 2, 3, 4]]
    npt.assert_array_equal(got.X, data.X)
    npt.assert_array_equal(got.y, data.y)
    npt.assert_array_equal(weights, np.ones(500))


def _generic_json(values):
    """``json_text`` of a float vector through the element-by-element renderer."""
    return json_text(values.tolist())


#: floats whose bit patterns tie in small arrays: both zeros, NaNs of four
#: payloads, both infinities, subnormals and two normal numbers
TIE_POOL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308, 1.5, 0.1],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
              0x7FF0000000000001], dtype=np.uint64).view(np.float64),
])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2250738585072009e-308]),
        )),
        # tie-heavy: entries of the pool, so chunks take the gathering path
        hnp.arrays(np.intp, st.integers(0, 40), elements=st.integers(0, TIE_POOL.size - 1))
        .map(TIE_POOL.__getitem__),
    ),
    st.integers(1, 9),
)
def test_bulk_float_json_matches_generic(values, chunk_items):
    # small chunks put chunk boundaries, and chunks of both paths, inside one array
    with mock.patch.object(cli, "CHUNK_ITEMS", chunk_items):
        assert json_text(values) == _generic_json(values)
        assert json_text({"a": {"pi": values}}) == json_text({"a": {"pi": values.tolist()}})


def test_float_chunk_paths(monkeypatch):
    # a chunk where at most half of the entries are distinct bit patterns
    # formats each distinct value once; any other chunk formats every entry
    formatted = []
    joined_floats = cli._joined_floats

    def spy(values, sep):
        formatted.append(values.size)
        return joined_floats(values, sep)

    monkeypatch.setattr(cli, "_joined_floats", spy)
    monkeypatch.setattr(cli, "CHUNK_ITEMS", 8)
    chunks = [
        [0.5, 0.5, -0.0, 0.0, 0.5, 0.5, 0.0, -0.0],  # 3 distinct: gathered
        np.arange(8.0) / 3,                          # tie-free: every entry
        [1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0],    # 4 distinct of 8: gathered
        [1.0, 2.0, 3.0, 4.0, 5.0, 3.0, 2.0, 1.0],    # 5 distinct: every entry
        [np.nan, -np.nan, -np.nan, np.nan],          # a short last chunk, 2 distinct
    ]
    values = np.concatenate(chunks)
    assert json_text(values) == _generic_json(values)
    assert formatted == [3, 8, 4, 8, 2]


def test_bulk_float_json_across_chunks():
    n = 2 * cli.CHUNK_ITEMS + 3
    values = np.random.default_rng(16).normal(size=n)
    values[[0, cli.CHUNK_ITEMS - 1, cli.CHUNK_ITEMS, n - 1]] = [np.nan, -np.inf, -0.0, np.inf]
    chunks = list(cli.json_chunks({"pi": values}))
    assert len(chunks) > 3
    assert "".join(chunks) == json_text({"pi": values.tolist()})


def test_generic_json_path_for_other_arrays(monkeypatch):
    def no_bulk(*args):
        raise AssertionError("bulk float path taken")

    monkeypatch.setattr(cli, "_float_chunks", no_bulk)
    assert json_text(np.array([0.1, 3e-8], dtype=np.float32)) == (
        "[\n  0.10000000149011612,\n  2.9999998929497451e-08\n]\n")
    assert json_text([[1.5, np.nan], np.arange(4.0).reshape(2, 2)]) == (
        "[\n  [\n    1.5,\n    null\n  ],\n  [\n    [\n      0,\n      1\n    ],\n"
        "    [\n      2,\n      3\n    ]\n  ]\n]\n")


def test_numeric_csv_rows_match_field_writer():
    n = cli.CHUNK_ITEMS + 5
    rng = np.random.default_rng(17)
    rows = list(zip(range(n), rng.integers(0, 10**6, n).tolist(), rng.normal(size=n).tolist()))
    rows[3] = (3, 7, float("nan"))
    rows[-1] = (n - 1, 8, -0.0)
    header = ["draw_index", "source_row", "weight"]
    chunks = list(cli._csv_chunks(header, rows, "%d,%d,%.17g\n"))
    assert len(chunks) == 3
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows((i, source, cli.fmt_float(w)) for i, source, w in rows)
    assert "".join(chunks) == expected.getvalue()


def test_streaming_write_failure_leaves_nothing(tmp_path):
    out = tmp_path / "out.csv"

    def chunks():
        yield "index,u\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError):
        cli.atomic_write_chunks(str(out), chunks())
    assert list(tmp_path.iterdir()) == []
