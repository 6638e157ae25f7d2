"""CLI surface: formats, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from copsamp.cli import bundled_config_path, ensemble_to_doc, json_text, main
from copsamp.model import Dataset, class_probabilities, probability_matrix
from copsamp.uncertainty import ProbeEnsemble, train_ensemble

FIXTURES = Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


def write_ensemble(path, ensemble):
    path.write_text(json_text(ensemble_to_doc(ensemble)))


def synthetic_csv(path, seed=0, n=200, K=1, d=2, weights=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    beta = rng.normal(scale=0.8, size=(K, d))
    P = probability_matrix(beta, X)
    y = (rng.random(n)[:, None] > np.cumsum(P, axis=1)).sum(axis=1)
    header = [f"x{i}" for i in range(d)] + ["y"] + (["w"] if weights else [])
    lines = [",".join(header)]
    for i in range(n):
        row = [format(float(v), ".17g") for v in X[i]] + [str(y[i])] + (["1.0"] if weights else [])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return Dataset(X, y, K)


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
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,x1,y\n1.0,2.0,1\n1.0,oops,0\n")
        assert run(["fit", bad]) == 2
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
    def test_flag_of_another_command_exit_2(self, flag, capsys):
        # only simulate reads --threads; fit draws nothing, so it takes no seed
        with pytest.raises(SystemExit) as err:
            run(["fit", FIXTURES / "tiny_binary.csv"] + flag)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_strict_flag_on_nonconvergence(self, tmp_path):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=1, n=300, K=2, d=3)
        out = tmp_path / "fit.json"
        assert run(["fit", data_path, "--out", out, "--max-iters", 1,
                    "--grad-tol", 1e-14]) == 0
        assert json.loads(out.read_text())["converged"] is False
        assert run(["fit", data_path, "--out", out, "--max-iters", 1,
                    "--grad-tol", 1e-14, "--strict"]) == 1


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

    @pytest.mark.parametrize("broken", ["missing-k", "missing-d", "array"])
    def test_malformed_ensemble_document_exit_2(self, tmp_path, capsys, broken):
        data_path = tmp_path / "data.csv"
        synthetic_csv(data_path, seed=8, n=30)
        beta = np.array([[0.4, -0.2]])
        doc = ensemble_to_doc(ProbeEnsemble(np.repeat(beta[None], 3, axis=0), 50))
        if broken == "array":
            doc = [doc]
        else:
            del doc[broken.split("-")[1]]
        ens_path = tmp_path / "ens.json"
        ens_path.write_text(json_text(doc))
        assert run(["score", data_path, ens_path]) == 2
        assert "invalid ensemble document" in capsys.readouterr().err

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

    def test_negative_scores_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("index,u\n0,-1.0\n")
        assert run(["sample", scores, "--r", 2]) == 2


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_sim_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", cfg, "--out", out_a, "--trials", 1, "--seed", 7]) == 0
        assert run(["simulate", cfg, "--out", out_b, "--trials", 1, "--seed", 7]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()

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
        ("clip_multipliers", [1.0], "clip1"),
        ("methods", ["uniform", "cops-clip0.5-withY"], "clip0.5"),
        ("zeta_cases", {"clean": [0.0, 0.0, 0.0], "bad": [float("nan"), 0.0, 0.0]}, "zeta"),
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
        assert cfg["clip_multipliers"] == [3.0, 10.0]

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


class TestSelfcheck:
    def test_quick_passes(self, capsys):
        assert run(["selfcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5 and "FAIL" not in out

    def test_seed_does_not_change_outcome(self, capsys):
        assert run(["selfcheck", "--quick", "--seed", 123]) == 0


def test_float_serialization_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal(scale=10.0 ** rng.integers(-300, 300)))
        assert float(format(x, ".17g")) == x
