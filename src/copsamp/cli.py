"""Command line front end: ``copsamp simulate|fit|score|sample|selfcheck``.

Tabular data travels as CSV with a mandatory header (features
``x0..x{d-1}``, label column ``y``), documents as JSON. All numbers are
serialized with 17 significant digits so doubles round-trip exactly, and
files are written atomically (temp file + rename). Primary outputs are
pure functions of inputs, flags and seed; wall-clock metadata lives only
in the accompanying manifest file.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from typing import Any

import numpy as np

from copsamp import __version__
from copsamp.model import Dataset
from copsamp.sampler import SamplingConfig, draw_subsample, make_plan
from copsamp.selfcheck import run_selfcheck
from copsamp.simulation import Method, SimulationSpec, run_experiment
from copsamp.solver import FitConfig, fit_weighted_mle
from copsamp.uncertainty import ProbeEnsemble, score_rows

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def fmt_float(x: float) -> str:
    """17 significant digits: exact round-trip for IEEE doubles."""
    return format(float(x), ".17g")


def _json_render(obj: Any, indent: int, out: list[str]) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _json_render(val, indent + 2, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(seq):
            out.append(pad + "  ")
            _json_render(val, indent + 2, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            out.append("null")
        else:
            out.append(fmt_float(float(obj)))
    else:
        out.append(json.dumps(str(obj)))


def json_text(obj: Any) -> str:
    out: list[str] = []
    _json_render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_manifest(
    out_dir: str, name: str, command: str, config: dict, seed: int | None,
    inputs: list[str], outputs: list[str], started: float,
) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "duration_seconds": time.time() - started,
    }
    atomic_write(os.path.join(out_dir, name), json_text(manifest))


# ----------------------------------------------------------------------
# CSV dataset I/O
# ----------------------------------------------------------------------

def read_dataset_csv(
    path: str, require_labels: bool, weights_col: str | None = None
) -> tuple[Dataset, np.ndarray | None]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot open {path}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        feature_cols = []
        for name in header:
            if name.startswith("x") and name[1:].isdigit():
                feature_cols.append(name)
        expected = [f"x{i}" for i in range(len(feature_cols))]
        if not feature_cols or feature_cols != expected:
            raise CliError(
                f"{path}: header must contain x0..x{{d-1}} in order, got {header}"
            )
        col_index = {name: i for i, name in enumerate(header)}
        if require_labels and "y" not in col_index:
            raise CliError(f"{path}: labeled data needs a 'y' column")
        if weights_col is not None and weights_col not in col_index:
            raise CliError(f"{path}: no column named '{weights_col}'")
        d = len(feature_cols)
        X_rows, y_rows, w_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                X_rows.append([float(row[col_index[c]]) for c in feature_cols])
                if "y" in col_index:
                    y_rows.append(int(row[col_index["y"]]))
                if weights_col is not None:
                    w_rows.append(float(row[col_index[weights_col]]))
            except (ValueError, IndexError) as err:
                raise CliError(f"{path}: malformed row {lineno}: {err}") from err
    X = np.array(X_rows, dtype=float).reshape(-1, d)
    y = np.array(y_rows, dtype=int) if y_rows else None
    K = int(y.max()) if y is not None and y.size else 1
    K = max(K, 1)
    try:
        data = Dataset(X, y, K)
    except ValueError as err:
        raise CliError(f"{path}: {err}") from err
    weights = np.array(w_rows, dtype=float) if weights_col is not None else None
    return data, weights


# ----------------------------------------------------------------------
# ensemble document
# ----------------------------------------------------------------------

def ensemble_to_doc(ensemble: ProbeEnsemble) -> dict:
    return {
        "format": "copsamp-ensemble",
        "k": ensemble.K,
        "d": ensemble.d,
        "probe_size": ensemble.probe_size,
        "members": ensemble.members,
    }


def load_ensemble(path: str) -> ProbeEnsemble:
    """Read an ensemble document; a ``mode`` key of older documents is ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CliError(f"cannot open {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CliError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    try:
        ensemble = ProbeEnsemble(
            members=np.asarray(doc["members"], dtype=float),
            probe_size=int(doc["probe_size"]),
        )
        declared = (int(doc["k"]), int(doc["d"]))
    except (KeyError, ValueError, TypeError) as err:
        raise CliError(f"{path}: invalid ensemble document: {err}") from err
    if (ensemble.K, ensemble.d) != declared:
        raise CliError(f"{path}: members shape disagrees with declared k/d")
    return ensemble


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def bundled_config_path() -> str:
    return str(resources.files("copsamp").joinpath("configs/paper_sim.json"))


def _require(cfg: dict, field: str):
    if field not in cfg:
        raise CliError(f"config: missing required field '{field}'")
    return cfg[field]


def load_simulation_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CliError(f"cannot open {path}: {err}") from err
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise CliError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    return cfg


#: optional config keys and their conversions; an absent key takes
#: SimulationSpec's default
_OPTIONAL_SPEC_FIELDS = {
    "clip_multipliers": lambda v: tuple(float(m) for m in v),
    "trials": int,
    "seed": int,
    "probe_members": int,
    "score_transform": str,
    "beta_floor": float,
}


def build_spec(cfg: dict) -> tuple[SimulationSpec, list[Method] | None, dict]:
    atoms = _require(cfg, "atoms")
    beta_star = np.asarray(_require(cfg, "beta_star"), dtype=float)
    zeta_cases_raw = _require(cfg, "zeta_cases")
    try:
        atom_x = np.array([a["x"] for a in atoms], dtype=float)
        counts = np.array([a["count"] for a in atoms], dtype=int)
    except (KeyError, TypeError, ValueError) as err:
        raise CliError(f"config: invalid 'atoms' entries: {err}") from err
    zeta_cases = {}
    for label, zeta in zeta_cases_raw.items():
        zeta = np.asarray(zeta, dtype=float)
        if zeta.shape != (atom_x.shape[0],):
            raise CliError(
                f"config: zeta case '{label}' needs one offset per atom"
            )
        zeta_cases[str(label)] = zeta
    if not zeta_cases:
        raise CliError("config: 'zeta_cases' must not be empty")
    try:
        spec = SimulationSpec(
            atom_x=atom_x,
            counts=counts,
            beta_star=beta_star,
            zeta=next(iter(zeta_cases.values())),
            r=int(_require(cfg, "r")),
            **{key: convert(cfg[key])
               for key, convert in _OPTIONAL_SPEC_FIELDS.items() if key in cfg},
        )
        for zeta in zeta_cases.values():
            replace(spec, zeta=zeta)  # each case passes the spec's own checks
        methods = [Method.parse(m) for m in cfg["methods"]] if "methods" in cfg else None
        if methods is not None:
            spec.check_methods(methods)
    except (TypeError, ValueError) as err:
        raise CliError(f"config: {err}") from err
    return spec, methods, zeta_cases


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = load_simulation_config(args.config)
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    spec, methods, zeta_cases = build_spec(cfg)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        report = run_experiment(
            spec, methods=methods, zeta_cases=zeta_cases, threads=args.threads
        )
    except Exception as err:
        raise CliError(f"simulation failed: {err}", EXIT_RUNTIME) from err

    rows_doc = [
        {
            "method": row.method_id,
            "case": row.case,
            "trial_index": row.trial_index,
            "param_error_components": list(row.param_error_components),
            "param_error_l2": row.param_error_l2,
            "regret": row.regret,
            "seed": row.seed,
        }
        for row in report.rows
    ]
    report_doc = {
        "format": "copsamp-simulation-report",
        "version": __version__,
        "config": cfg,
        "seed": report.seed,
        "trials": report.trials,
        "methods": list(report.methods),
        "cases": list(report.cases),
        "aggregates": report.aggregates,
        "failures": report.failures,
        "rows": rows_doc,
    }
    report_path = os.path.join(out_dir, "report.json")
    atomic_write(report_path, json_text(report_doc))

    ncomp = len(report.rows[0].param_error_components) if report.rows else spec.beta_star.size
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "case"]
        + [f"param_error_d{j + 1}" for j in range(ncomp)]
        + ["param_error_l2", "regret", "seed"]
    )
    for row in report.rows:
        writer.writerow(
            [row.method_id, row.case]
            + [fmt_float(e) for e in row.param_error_components]
            + [fmt_float(row.param_error_l2), fmt_float(row.regret), row.seed]
        )
    trials_path = os.path.join(out_dir, "trials.csv")
    atomic_write(trials_path, buf.getvalue())
    write_manifest(
        out_dir, "manifest.json", "simulate", cfg, report.seed,
        [os.path.abspath(args.config)],
        [os.path.abspath(report_path), os.path.abspath(trials_path)],
        started,
    )
    print(f"simulate: {len(report.rows)} trials -> {report_path}")
    if report.failures:
        print(f"simulate: {len(report.failures)} trial failures recorded")
    return EXIT_OK


# ----------------------------------------------------------------------
# fit / score / sample / selfcheck
# ----------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> int:
    started = time.time()
    data, weights = read_dataset_csv(args.data, require_labels=True,
                                     weights_col=args.weights_col)
    config = FitConfig(
        grad_tol=args.grad_tol, max_iters=args.max_iters, ridge=args.ridge
    )
    if weights is None:
        weights = np.ones(data.n)
    try:
        report = fit_weighted_mle(data, weights, config)
    except ValueError as err:
        raise CliError(str(err)) from err
    out_path = args.out or "fit.json"
    doc = {
        "format": "copsamp-fit",
        "version": __version__,
        "k": data.K,
        "d": data.d,
        "n": data.n,
        "coefficients": report.beta,
        "iterations": report.iterations,
        "final_grad_norm": report.final_grad_norm,
        "final_loss": report.final_loss,
        "converged": report.converged,
    }
    atomic_write(out_path, json_text(doc))
    write_manifest(
        os.path.dirname(os.path.abspath(out_path)) or ".",
        os.path.basename(out_path) + ".manifest.json",
        "fit", {"grad_tol": config.grad_tol, "max_iters": config.max_iters,
                "ridge": config.ridge, "weights_col": args.weights_col},
        None, [os.path.abspath(args.data)], [os.path.abspath(out_path)], started,
    )
    print(f"fit: converged={report.converged} iterations={report.iterations} -> {out_path}")
    if not report.converged and args.strict:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    started = time.time()
    ensemble = load_ensemble(args.ensemble)
    data, _ = read_dataset_csv(args.data, require_labels=args.kind == "coreset")
    if data.d != ensemble.d:
        raise CliError(
            f"dimension mismatch: data d={data.d}, ensemble d={ensemble.d}"
        )
    if data.labeled and data.K > ensemble.K:
        raise CliError(
            f"class mismatch: labels up to {data.K}, ensemble has K={ensemble.K}"
        )
    data = Dataset(data.X, data.y if args.kind == "coreset" else None, ensemble.K)
    try:
        u = score_rows(ensemble, data, args.kind, args.estimator)
    except Exception as err:
        raise CliError(f"scoring failed: {err}", EXIT_RUNTIME) from err
    out_path = args.out or "scores.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "u"])
    for i, val in enumerate(u):
        writer.writerow([i, fmt_float(val)])
    atomic_write(out_path, buf.getvalue())
    write_manifest(
        os.path.dirname(os.path.abspath(out_path)) or ".",
        os.path.basename(out_path) + ".manifest.json",
        "score", {"kind": args.kind, "estimator": args.estimator}, None,
        [os.path.abspath(args.data), os.path.abspath(args.ensemble)],
        [os.path.abspath(out_path)], started,
    )
    print(f"score: {len(u)} rows -> {out_path}")
    return EXIT_OK


def read_scores_csv(path: str) -> np.ndarray:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot open {path}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "u" not in header:
            raise CliError(f"{path}: expected a header with a 'u' column")
        u_col = header.index("u")
        vals = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals.append(float(row[u_col]))
            except (ValueError, IndexError) as err:
                raise CliError(f"{path}: malformed row {lineno}: {err}") from err
    u = np.array(vals, dtype=float)
    if u.size == 0:
        raise CliError(f"{path}: no scores")
    if np.any(u < 0) or not np.all(np.isfinite(u)):
        raise CliError(f"{path}: scores must be finite and nonnegative")
    return u


def cmd_sample(args: argparse.Namespace) -> int:
    started = time.time()
    if args.r <= 0:
        raise CliError("--r must be positive")
    u = read_scores_csv(args.scores)
    try:
        config = SamplingConfig(
            subsample_size=args.r,
            seed=args.seed,
            score_transform=args.transform,
            alpha_multiplier=args.alpha_mult,
            beta_floor=args.beta_floor,
        )
        plan = make_plan(u, config)
        sub = draw_subsample(plan, u.size, args.r, config.seed)
    except ValueError as err:
        raise CliError(str(err)) from err
    out_prefix = args.out or "subsample"
    sub_path = f"{out_prefix}.csv"
    plan_path = f"{out_prefix}_plan.json"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["draw_index", "source_row", "weight"])
    for j, (idx, w) in enumerate(zip(sub.indices, sub.weights)):
        writer.writerow([j, int(idx), fmt_float(w)])
    atomic_write(sub_path, buf.getvalue())
    plan_doc = {
        "format": "copsamp-plan",
        "version": __version__,
        "r": args.r,
        "seed": config.seed,
        "score_transform": config.score_transform,
        "alpha_multiplier": config.alpha_multiplier,
        "beta_floor": config.beta_floor,
        "uniform_fallback": plan.uniform_fallback,
        "max_weight_ratio": plan.max_weight_ratio,
        "pi": plan.pi,
        "pi_reweight": plan.pi_reweight,
    }
    atomic_write(plan_path, json_text(plan_doc))
    write_manifest(
        os.path.dirname(os.path.abspath(sub_path)) or ".",
        os.path.basename(out_prefix) + ".manifest.json",
        "sample",
        {"r": args.r, "alpha_mult": args.alpha_mult, "beta_floor": args.beta_floor,
         "transform": args.transform, "seed": config.seed},
        config.seed, [os.path.abspath(args.scores)],
        [os.path.abspath(sub_path), os.path.abspath(plan_path)], started,
    )
    print(f"sample: {args.r} draws -> {sub_path}")
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    results = run_selfcheck(quick=args.quick, seed=args.seed or 0)
    all_pass = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: measured={res.measured:.3e} ({res.threshold})")
        all_pass &= res.passed
    return EXIT_OK if all_pass else EXIT_RUNTIME


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copsamp",
        description="Uncertainty-based optimal subsampling for softmax regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the corruption simulation experiment")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit softmax regression on a CSV dataset")
    p.add_argument("data", help="dataset CSV (x0..x{d-1},y)")
    p.add_argument("--weights-col", type=str, default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the fit does not converge")
    p.add_argument("--grad-tol", type=float, default=FitConfig.grad_tol)
    p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    p.add_argument("--ridge", type=float, default=FitConfig.ridge)
    p.add_argument("--out", type=str, default=None, help="fit document path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("score", help="score rows with a probe ensemble")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("ensemble", help="ensemble JSON document")
    p.add_argument("--kind", choices=["coreset", "active"], default="coreset")
    p.add_argument("--estimator", choices=["ensemble", "exact"],
                   default=SamplingConfig.estimator)
    p.add_argument("--out", type=str, default=None, help="scores CSV path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("sample", help="draw a weighted subsample from scores")
    p.add_argument("scores", help="scores CSV (index,u)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha-mult", type=float, default=None)
    p.add_argument("--beta-floor", type=float, default=SamplingConfig.beta_floor)
    p.add_argument("--transform", choices=["sqrt", "identity"],
                   default=SamplingConfig.score_transform)
    p.add_argument("--seed", type=int, default=SamplingConfig.seed, help="draw seed")
    p.add_argument("--out", type=str, default=None, help="output prefix")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("selfcheck", help="run built-in invariant checks")
    p.add_argument("--quick", action="store_true",
                   help="skip the ensemble-calibration Monte Carlo")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"copsamp: error: {err}", file=sys.stderr)
        return err.code
    except Exception as err:  # noqa: BLE001 - last-resort runtime failure
        print(f"copsamp: unexpected failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
