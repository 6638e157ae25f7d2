"""The benchmark's workloads: inputs built from a seed, one timed iteration, checks.

Each workload object is driven by ``worker.py``:

* ``setup()`` builds the inputs (untimed, reported as set-up time) and
  sets ``items``, the number of items one iteration finishes;
* ``stages(k)`` lists the ``(name, callable)`` stages of iteration ``k``,
  which the worker times one by one;
* ``check_iteration(k)`` and ``final_checks()`` run outside the timed
  section and return one ``(operation, ok, message)`` per operation.
  Iteration 0 gets the full output checks; later iterations must
  reproduce iteration 0, since they repeat the same seed.

Inputs are generated with plain numpy, independently of copsamp, so a
change to the package cannot change the data it is measured on.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
#: seed of the stored reference outputs
REFERENCE_SEED = 0
#: the generated models' true coefficients are fixed; ``--seed`` draws the
#: rows, so every seed asks the solver for about the same Newton work
TRUE_BETA_SEED = 2309


def true_beta(K: int, d: int, scale: float) -> np.ndarray:
    return scale * np.random.default_rng(TRUE_BETA_SEED).standard_normal((K, d))


def softmax_dataset(rng: np.random.Generator, n: int, beta: np.ndarray):
    """Gaussian features with an intercept column, labels drawn from softmax(X beta).

    ``beta`` is (K, d); class 0 is the reference class with logit 0.
    """
    K, d = beta.shape
    X = rng.standard_normal((n, d))
    X[:, 0] = 1.0
    z = np.concatenate([np.zeros((n, 1)), X @ beta.T], axis=1)
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    y = (rng.random((n, 1)) > np.cumsum(p, axis=1)).sum(axis=1)
    return X, np.minimum(y, K)


def write_dataset_csv(path: str, X: np.ndarray, y: np.ndarray, block: int = 20000) -> None:
    """Header ``x0..x{d-1},y``; features with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"x{j}" for j in range(X.shape[1])] + ["y"]) + "\n")
        for s in range(0, X.shape[0], block):
            rows = X[s:s + block].tolist()
            labels = y[s:s + block].tolist()
            fh.write("".join(
                ",".join(format(v, ".17g") for v in row) + f",{label}\n"
                for row, label in zip(rows, labels)
            ))


def close(a, b, rtol: float) -> bool:
    """Elementwise ``|a - b| <= rtol * max(|a|, |b|)`` plus a tiny absolute floor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + 1e-300))


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _op(name: str, problems: list[str]) -> tuple[str, bool, str]:
    return name, not problems, "; ".join(problems)


# ----------------------------------------------------------------------
# sim-paper
# ----------------------------------------------------------------------

class SimPaper:
    """The bundled three-atom corruption Monte Carlo through ``copsamp simulate``.

    All 3 corruption cases and all 7 methods, ``TRIALS`` trials each, so
    one iteration yields ``TRIALS * 21`` trial x method results.
    """

    TRIALS = 1
    REFERENCE_TRIALS = 1

    def __init__(self, seed: int, workdir: str, workers: int):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.outputs: dict[int, dict[str, bytes]] = {}

    def setup(self) -> None:
        from copsamp import cli

        self.cli = cli
        self.config = cli.bundled_config_path()
        with open(self.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        self.cases = len(cfg["zeta_cases"])
        self.methods = len(cfg["methods"])
        self.items = self.TRIALS * self.cases * self.methods

    def _simulate(self, out: str, trials: int, seed: int) -> int:
        return self.cli.main([
            "simulate", self.config, "--trials", str(trials),
            "--threads", str(self.workers), "--seed", str(seed), "--out", out,
        ])

    def stages(self, k: int) -> list:
        def simulate() -> None:
            self.rc = self._simulate(os.path.join(self.workdir, f"iter{k}"), self.TRIALS, self.seed)

        return [("simulate", simulate)]

    def check_iteration(self, k: int) -> list[tuple[str, bool, str]]:
        """One operation per trial x method result of the iteration."""
        expected = self.items
        out = os.path.join(self.workdir, f"iter{k}")
        problems = []
        failures = 0
        if self.rc != 0:
            problems.append(f"simulate exited {self.rc}")
        else:
            files = {}
            for name in ("report.json", "trials.csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            report = json.loads(files["report.json"])
            failures = len(report["failures"])
            problems += self._check_report(report)
            if k == 0:
                self.outputs[0] = files
            elif files != self.outputs.get(0):
                problems.append(f"outputs of iteration {k} differ from iteration 0")
        if problems:
            return [("sim-paper.result", False, "; ".join(problems))] * expected
        return [("sim-paper.result", i >= failures, "recorded trial failure" if i < failures else "")
                for i in range(expected)]

    def _check_report(self, report: dict) -> list[str]:
        problems = []
        counts: dict[str, int] = {}
        for row in report["rows"]:
            key = f"{row['case']}/{row['method']}"
            counts[key] = counts.get(key, 0) + 1
            values = list(row["param_error_components"]) + [row["param_error_l2"], row["regret"]]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"non-finite result in {key} trial {row['trial_index']}")
        if len(counts) != self.cases * self.methods:
            problems.append(f"{len(counts)} case/method groups, expected {self.cases * self.methods}")
        wrong = {key: c for key, c in counts.items() if c != self.TRIALS}
        if wrong:
            problems.append(f"results per case/method differ from {self.TRIALS}: {wrong}")
        for key, metrics in report["aggregates"].items():
            for stat in metrics.values():
                if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in stat.values()):
                    problems.append(f"non-finite aggregate in {key}")
        return problems

    def reference_rows(self) -> list[dict]:
        out = os.path.join(self.workdir, "reference")
        rc = self._simulate(out, self.REFERENCE_TRIALS, REFERENCE_SEED)
        if rc != 0:
            raise RuntimeError(f"reference simulate exited {rc}")
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)["rows"]

    def final_checks(self) -> list[tuple[str, bool, str]]:
        """The reference seed's rows match the stored ones to 1e-9."""
        problems = []
        try:
            rows = self.reference_rows()
        except (RuntimeError, OSError, ValueError) as err:
            return [_op("sim-paper.reference", [str(err)])]
        stored = load_reference("sim_paper.json")["rows"]
        if len(rows) != len(stored):
            problems.append(f"{len(rows)} reference rows, stored {len(stored)}")
        for got, want in zip(rows, stored):
            ident = ("method", "case", "trial_index", "seed")
            if any(got[f] != want[f] for f in ident):
                problems.append(f"row identity {[got[f] for f in ident]} != {[want[f] for f in ident]}")
                break
            a = list(got["param_error_components"]) + [got["param_error_l2"], got["regret"]]
            b = list(want["param_error_components"]) + [want["param_error_l2"], want["regret"]]
            if not np.allclose(a, b, rtol=1e-9, atol=1e-9):
                problems.append(f"{got['case']}/{got['method']}: {a} != stored {b}")
        return [_op("sim-paper.reference", problems)]


# ----------------------------------------------------------------------
# exact-multiclass
# ----------------------------------------------------------------------

class ExactMulticlass:
    """Ensemble training, then exact-score coreset and active pipelines, in process.

    n = 20000 rows, d = 30 (with intercept), K = 6, so K d = 180; the
    ensemble of M = 10 members trains on a separate 12000-row probe set.
    One iteration carries the n source rows through the whole chain.
    """

    N, D, K, PROBE, MEMBERS, R, ALPHA = 20000, 30, 6, 12000, 10, 2000, 3.0
    CHECK_ROWS = 50

    def __init__(self, seed: int, workdir: str, workers: int):
        self.seed = seed
        self.results: dict[int, dict | None] = {}
        self.items = self.N

    def setup(self) -> None:
        import copsamp

        self.copsamp = copsamp
        rng = np.random.default_rng(self.seed)
        beta = true_beta(self.K, self.D, 0.3)
        Xp, yp = softmax_dataset(rng, self.PROBE, beta)
        X, y = softmax_dataset(rng, self.N, beta)
        self.probe = copsamp.Dataset(Xp, yp, self.K)
        self.data = copsamp.Dataset(X, y, self.K)
        self.unlabeled = copsamp.Dataset(X, None, self.K)
        self.config = copsamp.SamplingConfig(
            subsample_size=self.R, seed=self.seed, alpha_multiplier=self.ALPHA,
            estimator="exact",
        )

    def stages(self, k: int) -> list:
        cp = self.copsamp
        labels = self.data.y
        res = self.results[k] = {"error": ""}

        def stage(name, run):
            def guarded() -> None:
                if res["error"]:
                    return
                try:
                    res[name] = run()
                except Exception as err:  # noqa: BLE001 - recorded as a failed operation
                    res["error"] = f"{name}: {type(err).__name__}: {err}"
            return name, guarded

        return [
            stage("ensemble", lambda: cp.train_ensemble(self.probe, M=self.MEMBERS, seed=self.seed)),
            stage("coreset", lambda: cp.cops_coreset(self.data, res["ensemble"], self.config)),
            stage("active", lambda: cp.cops_active(
                self.unlabeled, lambda i: int(labels[i]), res["ensemble"], self.config)),
        ]

    def check_iteration(self, k: int) -> list[tuple[str, bool, str]]:
        res = self.results[k]
        names = ("ensemble", "coreset", "active")
        if res["error"]:
            return [_op(f"exact-multiclass.{name}", [] if name in res else [res["error"]])
                    for name in names]
        ensemble, coreset, active = (res[name] for name in names)
        if k == 0:
            return [_op("exact-multiclass.ensemble", []),
                    _op("exact-multiclass.coreset", self._check_pipeline(ensemble, coreset, "coreset")),
                    _op("exact-multiclass.active", self._check_pipeline(ensemble, active, "active"))]
        first = self.results[0]
        same = [
            close(ensemble.members, first["ensemble"].members, 1e-10),
            "coreset" in first and close(coreset.scores, first["coreset"].scores, 1e-10)
            and close(coreset.beta_bar, first["coreset"].beta_bar, 1e-10),
            "active" in first and close(active.scores, first["active"].scores, 1e-10)
            and close(active.beta_bar, first["active"].beta_bar, 1e-10),
        ]
        self.results[k] = None  # keep only iteration 0 alive
        return [_op(f"exact-multiclass.{name}", [] if ok else [f"iteration {k} differs from iteration 0"])
                for name, ok in zip(names, same)]

    def _check_pipeline(self, ensemble, result, kind: str) -> list[str]:
        """Rescore fixed rows through the per-sample route; check the plan and refit."""
        cp = self.copsamp
        problems = []
        if not hasattr(self, "info"):
            self.info = cp.fisher_info(ensemble.mean, self.unlabeled)
        rows = np.linspace(0, self.N - 1, self.CHECK_ROWS).astype(int)
        X, y = self.data.X, self.data.y
        if kind == "coreset":
            expect = [cp.exact_score_coreset(ensemble.mean, self.info, X[i], int(y[i])) for i in rows]
        else:
            expect = [cp.exact_score_active(ensemble.mean, self.info, X[i]) for i in rows]
        if not close(result.scores[rows], expect, 1e-8):
            worst = np.max(np.abs(result.scores[rows] - expect) / np.maximum(np.abs(expect), 1e-300))
            problems.append(f"{kind} scores differ from the per-sample route (rel {worst:.2e})")
        for name in ("pi", "pi_reweight"):
            total = float(getattr(result.plan, name).sum())
            if abs(total - 1.0) > 1e-9:
                problems.append(f"{kind} {name} sums to {total!r}")
        if not result.fit.converged:
            problems.append(f"{kind} refit did not converge")
        return problems

    def final_checks(self) -> list[tuple[str, bool, str]]:
        return []


# ----------------------------------------------------------------------
# cli-io
# ----------------------------------------------------------------------

class CliIo:
    """``copsamp fit``, ``score`` and ``sample`` on a generated 200000 x 10 CSV.

    K = 2. Set-up writes the CSV and an ensemble document trained on a
    separate 20000-row probe set; one iteration runs the three commands
    through ``cli.main`` and carries the n source rows through them.
    """

    N, D, K, PROBE, MEMBERS, R, ALPHA = 200000, 10, 2, 20000, 10, 2000, 3.0
    REFERENCE_N = 500
    CHECK_ROWS = 50

    def __init__(self, seed: int, workdir: str, workers: int):
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[str, list[str]] = {}
        self.items = self.N

    def _paths(self, base: str) -> dict[str, str]:
        return {name: os.path.join(base, name) for name in
                ("data.csv", "ensemble.json", "fit.json", "scores.csv", "pick")}

    def _build_inputs(self, base: str, seed: int, n: int):
        from copsamp import Dataset, train_ensemble
        from copsamp.cli import ensemble_to_doc, json_text

        os.makedirs(base, exist_ok=True)
        paths = self._paths(base)
        rng = np.random.default_rng(seed)
        beta = true_beta(self.K, self.D, 0.5)
        Xp, yp = softmax_dataset(rng, self.PROBE, beta)
        X, y = softmax_dataset(rng, n, beta)
        write_dataset_csv(paths["data.csv"], X, y)
        ensemble = train_ensemble(Dataset(Xp, yp, self.K), M=self.MEMBERS, seed=seed)
        with open(paths["ensemble.json"], "w", encoding="utf-8") as fh:
            fh.write(json_text(ensemble_to_doc(ensemble)))
        return paths, Dataset(X, y, self.K), ensemble

    def setup(self) -> None:
        self.paths, self.data, self.ensemble = self._build_inputs(self.workdir, self.seed, self.N)

    def _commands(self, paths: dict[str, str], seed: int) -> list[tuple[str, list[str]]]:
        return [
            ("fit", ["fit", paths["data.csv"], "--out", paths["fit.json"]]),
            ("score", ["score", paths["data.csv"], paths["ensemble.json"], "--kind", "coreset",
                       "--estimator", "ensemble", "--out", paths["scores.csv"]]),
            ("sample", ["sample", paths["scores.csv"], "--r", str(self.R), "--alpha-mult",
                        str(self.ALPHA), "--seed", str(seed), "--out", paths["pick"]]),
        ]

    def stages(self, k: int) -> list:
        from copsamp.cli import main

        self.rcs = {}

        def command(name: str, argv: list[str]):
            def run() -> None:
                self.rcs[name] = main(argv)
            return name, run

        return [command(name, argv) for name, argv in self._commands(self.paths, self.seed)]

    @staticmethod
    def _read_outputs(paths: dict[str, str]):
        with open(paths["fit.json"], encoding="utf-8") as fh:
            fit = json.load(fh)
        with open(paths["scores.csv"], newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = [(int(i), float(u)) for i, u in reader]
        with open(paths["pick"] + "_plan.json", encoding="utf-8") as fh:
            plan = json.load(fh)
        index = np.array([i for i, _ in body])
        u = np.array([u for _, u in body])
        return fit, header, index, u, plan

    def check_iteration(self, k: int) -> list[tuple[str, bool, str]]:
        names = ("cli-io.fit", "cli-io.score", "cli-io.sample")
        outputs = {"cli-io.fit": [self.paths["fit.json"]],
                   "cli-io.score": [self.paths["scores.csv"]],
                   "cli-io.sample": [self.paths["pick"] + ".csv", self.paths["pick"] + "_plan.json"]}
        rcs = [self.rcs[name.split(".")[1]] for name in names]
        problems = {name: [f"exit code {rc}"] if rc != 0 else [] for name, rc in zip(names, rcs)}
        if any(problems.values()):
            return [_op(name, problems[name]) for name in names]
        if k == 0:
            fit, header, index, u, plan = self._read_outputs(self.paths)
            if not fit["converged"]:
                problems["cli-io.fit"].append("fit.json is not converged")
            problems["cli-io.score"] += self._check_scores(header, index, u)
            for name in ("pi", "pi_reweight"):
                total = math.fsum(plan[name])
                if abs(total - 1.0) > 1e-9 or len(plan[name]) != self.N:
                    problems["cli-io.sample"].append(f"plan {name}: {len(plan[name])} entries summing to {total!r}")
        for name in names:
            digests = [file_digest(p) for p in outputs[name]]
            if k == 0:
                self.digests[name] = digests
            elif digests != self.digests[name]:
                problems[name].append(f"outputs of iteration {k} differ from iteration 0")
        return [_op(name, problems[name]) for name in names]

    def _check_scores(self, header, index, u) -> list[str]:
        """n rows in input order, equal to per-sample ensemble scores on fixed rows."""
        from copsamp import ensemble_score_coreset

        if header != ["index", "u"] or u.size != self.N or not np.array_equal(index, np.arange(self.N)):
            return [f"scores.csv has {u.size} rows / header {header}, expected {self.N} rows"]
        rows = np.linspace(0, self.N - 1, self.CHECK_ROWS).astype(int)
        expect = [ensemble_score_coreset(self.ensemble, self.data.X[i], int(self.data.y[i])) for i in rows]
        if not close(u[rows], expect, 1e-8):
            return ["scores differ from the per-sample ensemble scores"]
        return []

    def reference_outputs(self) -> dict:
        """The three commands on a small dataset of the reference seed."""
        paths, _, _ = self._build_inputs(os.path.join(self.workdir, "reference"),
                                         REFERENCE_SEED, self.REFERENCE_N)
        from copsamp.cli import main

        rcs = [main(argv) for _, argv in self._commands(paths, REFERENCE_SEED)]
        if rcs != [0, 0, 0]:
            raise RuntimeError(f"reference chain exited {rcs}")
        fit, _, _, u, plan = self._read_outputs(paths)
        return {"coefficients": fit["coefficients"], "scores": u.tolist(),
                "pi": plan["pi"], "pi_reweight": plan["pi_reweight"]}

    def final_checks(self) -> list[tuple[str, bool, str]]:
        """The reference seed's outputs match the stored ones to 1e-9."""
        try:
            got = self.reference_outputs()
        except (RuntimeError, OSError, ValueError) as err:
            return [_op("cli-io.reference", [str(err)])]
        stored = load_reference("cli_io.json")
        problems = [f"{key} differs from the stored reference" for key in stored
                    if not close(got[key], stored[key], 1e-9)]
        return [_op("cli-io.reference", problems)]


WORKLOADS = {
    "sim-paper": SimPaper,
    "exact-multiclass": ExactMulticlass,
    "cli-io": CliIo,
}
