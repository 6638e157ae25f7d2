"""Command line front end: ``copsamp simulate|fit|score|sample|selfcheck``.

Tabular data travels as CSV with a mandatory header (features
``x0..x{d-1}``, label column ``y``), documents as JSON. All numbers are
serialized with 17 significant digits (``%.17g``) so doubles round-trip
exactly, and files are written atomically (temp file + rename); the
outputs with a line or an entry per data row are formatted and written
in chunks of ``CHUNK_ITEMS``, each with one ``%``. The numeric CSV
outputs are formatted by one writer, :func:`_csv_chunks`, and the float
vectors of JSON documents by :func:`_float_chunks`, which formats each
distinct value of a tie-heavy chunk once, with the bytes of formatting
every entry. ``trials.csv``, the one CSV with text fields, is written by
``csv.writer``. Every JSON input is read by :func:`_read_json` and its
fields are typed by :func:`_json_typed` and :func:`_json_numbers`.
Primary outputs are pure functions of inputs, flags and seed; wall-clock
metadata lives only in the accompanying manifest file.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import replace
from importlib import resources
from itertools import chain, islice
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from copsamp import __version__, solver
from copsamp.model import Dataset, _nonnegative
from copsamp.sampler import SamplingConfig, draw_subsample, make_plan
from copsamp.selfcheck import run_selfcheck
from copsamp.simulation import Method, SimulationSpec, run_experiment
from copsamp.solver import fit_weighted_mle
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
    """17 significant digits: exact round-trip for IEEE doubles.

    The ``%.17g`` of every float the CLI writes, in JSON and CSV alike.
    """
    return "%.17g" % float(x)


#: items per chunk of the streaming writers: rows of a CSV file, entries
#: of a float vector in a JSON document
CHUNK_ITEMS = 16384


def _joined_floats(values: np.ndarray, sep: str) -> str:
    """The floats of ``values`` joined by ``sep``, formatted with one ``%``.

    Each is written as :func:`fmt_float` writes it, non-finite ones as ``null``.
    """
    items, specs = values.tolist(), ["%.17g"] * values.size
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        items[i], specs[i] = "null", "%s"
    return sep.join(specs) % tuple(items)


def _float_chunks(values: np.ndarray, sep: str) -> Iterator[str]:
    """The floats of ``values`` joined by ``sep``, one chunk per :data:`CHUNK_ITEMS`.

    Each is written as :func:`fmt_float` writes it, non-finite ones as
    ``null``; every chunk after the first starts with ``sep``. A chunk
    where at most half of the entries are distinct bit patterns, as in
    the alpha-capped ``pi`` of a plan, formats each distinct value once
    and gathers the texts; any other chunk formats every entry. The
    bytes do not depend on the path. Bit patterns, not values, are
    compared, so ``-0.0`` and ``0.0`` stay apart. On a 16384-entry chunk
    (2-vCPU Xeon VM, CPython 3.11) the gather costs less than formatting
    every entry up to about 80% distinct entries, so the half keeps a
    margin below that crossover. Every chunk pays the ``np.unique``,
    about 5% of the cost of formatting a tie-free chunk.
    """
    for start in range(0, values.size, CHUNK_ITEMS):
        part = values[start : start + CHUNK_ITEMS]
        bits, inverse = np.unique(part.view(np.uint64), return_inverse=True)
        if 2 * bits.size <= part.size:
            texts = np.array(_joined_floats(bits.view(np.float64), "\n").split("\n"), dtype=object)
            text = sep.join(texts[inverse].tolist())
        else:
            text = _joined_floats(part, sep)
        yield (sep if start else "") + text


def _json_scalar(obj: Any) -> str:
    """JSON text of a value that is not a non-empty container."""
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        return "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return json.dumps(str(obj))


def _json_render(obj: Any, indent: int = 0) -> Iterator[str]:
    """``obj`` as JSON text in chunks, its first line starting at column ``indent``.

    Containers put one item per line; floats are written by
    :func:`fmt_float`, non-finite ones as ``null``. A 1-d float64 array
    is rendered in bulk by :func:`_float_chunks`; every other value is
    rendered element by element.
    """
    if isinstance(obj, np.generic) or (isinstance(obj, np.ndarray) and obj.ndim == 0):
        obj = obj.item()  # numpy scalars render as the Python scalar they hold
    pad = " " * indent
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim == 1 and obj.size:
        yield "[\n" + inner
        yield from _float_chunks(obj, ",\n" + inner)
        yield "\n" + pad + "]"
    elif isinstance(obj, dict) and obj:
        lead = "{\n"
        for key, val in obj.items():
            yield f"{lead}{inner}{json.dumps(str(key))}: "
            yield from _json_render(val, indent + 2)
            lead = ",\n"
        yield "\n" + pad + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)) and len(obj):
        lead = "[\n" + inner
        for val in obj.tolist() if isinstance(obj, np.ndarray) else obj:
            yield lead
            yield from _json_render(val, indent + 2)
            lead = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        yield _json_scalar(obj)


def json_chunks(obj: Any) -> Iterator[str]:
    """The JSON document of ``obj``, with its final line end, in chunks."""
    yield from _json_render(obj)
    yield "\n"


def json_text(obj: Any) -> str:
    return "".join(json_chunks(obj))


def _csv_chunks(header: list[str], rows: Iterable[Iterable], line: str) -> Iterator[str]:
    """CSV text of numeric rows with LF line ends, one chunk per :data:`CHUNK_ITEMS` rows.

    ``line`` formats one row of ``len(header)`` fields, line end included,
    with ``%d`` for integers and ``%.17g`` for floats, as :func:`fmt_float`
    writes them. Each chunk is one ``%`` of ``line`` repeated over the
    chunk's fields.
    """
    yield ",".join(header) + "\n"
    width = len(header)
    fields = chain.from_iterable(rows)
    while items := tuple(islice(fields, CHUNK_ITEMS * width)):
        yield (line * (len(items) // width)) % items


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temp file, then rename it over ``path``.

    Any failure, an interrupt or an error raised by ``chunks`` included,
    removes the temp file; an OS error then exits as a runtime failure
    that names ``path``.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError):
            raise CliError(f"cannot write {path}: {err}", EXIT_RUNTIME) from err
        raise


def atomic_write(path: str, text: str) -> None:
    """:func:`atomic_write_chunks` of one chunk."""
    atomic_write_chunks(path, (text,))


def write_manifest(
    path: str, command: str, config: dict, seed: int | None,
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
    atomic_write(path, json_text(manifest))


@contextlib.contextmanager
def _open_text(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; a file that cannot be opened or decoded is refused."""
    try:
        fh = open(path, newline=newline, encoding="utf-8")
    except OSError as err:
        raise CliError(f"cannot open {path}: {err}") from err
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise CliError(f"{path}: not UTF-8 text: {err}") from err


# ----------------------------------------------------------------------
# CSV dataset I/O
# ----------------------------------------------------------------------

#: columns read together: their indices and the type each field converts to
Columns = tuple[list[int], type]


#: where numpy's parse can differ from the csv module and float()/int():
#: quoting, NUL (a csv error on Python 3.10) and \x1c-\x1f, which numpy
#: strips as whitespace around a number and float() refuses
_ROW_READER_ONLY = '"\x00\x1c\x1d\x1e\x1f'


def _rewind_past_header(fh) -> None:
    """Puts ``fh`` at the first record after the header."""
    fh.seek(0)
    next(csv.reader(fh))


_INT64 = np.iinfo(np.int64)


def _int64(field: str) -> int:
    """``int(field)``, refused outside int64, the type labels are stored in."""
    value = int(field)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"label {field.strip()} does not fit in int64")
    return value


#: the row reader's parse of a field, by the type its column converts to
_FIELD_PARSERS = {float: float, int: _int64}


def _parse_rows(
    path: str, records: Iterator[list[str]], groups: list[Columns]
) -> list[np.ndarray]:
    """Each group's columns as one (n, len(indices)) array, read row by row.

    The reference parse, and the one that names the first malformed row.
    """
    values: list[list] = [[] for _ in groups]
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        try:
            for out, (cols, convert) in zip(values, groups):
                parse = _FIELD_PARSERS[convert]
                out.append([parse(row[i]) for i in cols])
        except (ValueError, IndexError) as err:
            raise CliError(f"{path}: malformed row {lineno}: {err}") from err
    return [np.array(out, dtype=convert).reshape(-1, len(cols))
            for out, (cols, convert) in zip(values, groups)]


def _parse_bulk(fh, groups: list[Columns]) -> list[np.ndarray]:
    """The arrays of :func:`_parse_rows`, parsed by numpy in one pass.

    One ``np.loadtxt`` call reads a table with one field per group, and
    the arrays returned are views of its fields, not copies. ``fh`` is
    seekable and at the first record. Raises where numpy might read the
    file differently from the csv module.
    """
    for chunk in iter(lambda: fh.read(1 << 20), ""):
        if any(char in chunk for char in _ROW_READER_ONLY):
            raise ValueError("a character the two parsers may read differently")
    dtype = np.dtype([(f"g{i}", np.int64 if convert is int else float, (len(cols),))
                      for i, (cols, convert) in enumerate(groups)])
    _rewind_past_header(fh)
    with warnings.catch_warnings():
        # numpy 1.x reads the label 1.0 as 1 with a DeprecationWarning, where
        # int() refuses it; a file without rows gives a UserWarning
        warnings.simplefilter("error")
        table = np.loadtxt(
            fh, dtype=dtype, delimiter=",", comments=None,
            usecols=[i for cols, _ in groups for i in cols], ndmin=1,
        )
    return [table[name] for name in dtype.names]


def _read_columns(path: str, fh, groups: list[Columns]) -> list[np.ndarray]:
    """The CSV body from ``fh``, which is at the first record after the header.

    A seekable file is parsed in bulk; on any failure, and for a pipe, the
    row reader gives the result or names the bad row.
    """
    if fh.seekable():
        try:
            return _parse_bulk(fh, groups)
        except Exception:  # noqa: BLE001 - the row reader decides
            _rewind_past_header(fh)
    return _parse_rows(path, csv.reader(fh), groups)


def read_dataset_csv(
    path: str, labels: bool, weights_col: str | None = None
) -> tuple[Dataset, np.ndarray | None]:
    """The dataset in ``path``, and its ``weights_col`` column if one is named.

    With ``labels`` the ``y`` column is required and read; without it the
    file may hold any ``y`` column, which is not read. A file without data
    rows is refused.
    """
    with _open_text(path, newline="") as fh:
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
        if labels and "y" not in col_index:
            raise CliError(f"{path}: labeled data needs a 'y' column")
        if weights_col is not None and weights_col not in col_index:
            raise CliError(f"{path}: no column named '{weights_col}'")
        groups: list[Columns] = [([col_index[c] for c in feature_cols], float)]
        if labels:
            groups.append(([col_index["y"]], int))
        if weights_col is not None:
            groups.append(([col_index[weights_col]], float))
        X, *columns = _read_columns(path, fh, groups)
    y = columns.pop(0)[:, 0] if labels else None
    weights = columns.pop(0)[:, 0] if weights_col is not None else None
    if not X.shape[0]:
        raise CliError(f"{path}: no data rows")
    K = max(int(y.max()), 1) if y is not None else 1
    try:
        data = Dataset(X, y, K)
    except ValueError as err:
        raise CliError(f"{path}: {err}") from err
    return data, weights


# ----------------------------------------------------------------------
# JSON documents
# ----------------------------------------------------------------------

def _read_json(path: str) -> Any:
    """The JSON document in ``path``; one that cannot be read or decoded is refused."""
    with _open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise CliError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err


#: the name of each type a JSON field may be required to hold; a
#: ``float`` field admits any number
_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
                    list: "a list", dict: "an object"}


def _json_typed(value: Any, key: str, kind: type) -> Any:
    """``value`` when it is a JSON value of ``kind``; booleans are no numbers."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"'{key}' must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _json_numbers(value: Any, key: str) -> Any:
    """``value`` when it is a JSON number or nested lists of them."""
    if not isinstance(value, list):
        return _json_typed(value, key, float)
    for item in value:
        _json_numbers(item, key)
    return value


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
    doc = _read_json(path)
    try:
        k, d, probe_size = (_json_typed(doc[key], key, int) for key in ("k", "d", "probe_size"))
        ensemble = ProbeEnsemble(
            members=np.asarray(_json_numbers(doc["members"], "members"), dtype=float),
            probe_size=probe_size,
        )
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise CliError(f"{path}: invalid ensemble document: {err}") from err
    if (ensemble.K, ensemble.d) != (k, d):
        raise CliError(f"{path}: members shape disagrees with declared k/d")
    return ensemble


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def bundled_config_path() -> str:
    return str(resources.files("copsamp").joinpath("configs/paper_sim.json"))


#: the config keys and the JSON type of each; an absent optional key
#: takes SimulationSpec's default
_REQUIRED_FIELDS = {"atoms": list, "beta_star": list, "zeta_cases": dict, "r": int}
_OPTIONAL_SPEC_FIELDS = {"methods": list, "trials": int, "seed": int,
                         "probe_members": int, "score_transform": str, "beta_floor": float}


def load_simulation_config(path: str) -> dict:
    """The simulation config in ``path``, every key of the JSON type it must hold."""
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_SPEC_FIELDS))
    if unknown:
        raise CliError(f"config: unknown keys {unknown}")
    missing = [key for key in _REQUIRED_FIELDS if key not in cfg]
    if missing:
        raise CliError(f"config: missing required fields {missing}")
    try:
        for key, kind in {**_REQUIRED_FIELDS, **_OPTIONAL_SPEC_FIELDS}.items():
            if key in cfg:
                _json_typed(cfg[key], key, kind)
        _json_numbers(cfg["beta_star"], "beta_star")
        for method in cfg.get("methods", []):
            _json_typed(method, "methods", str)
        for zeta in cfg["zeta_cases"].values():
            _json_numbers(zeta, "zeta_cases")
    except TypeError as err:
        raise CliError(f"config: {err}") from err
    try:
        for atom in cfg["atoms"]:
            _json_numbers(atom["x"], "x")
            _json_typed(atom["count"], "count", int)
    except (KeyError, TypeError) as err:
        raise CliError(f"config: invalid 'atoms' entries: {err}") from err
    return cfg


def build_spec(cfg: dict) -> tuple[SimulationSpec, dict[str, np.ndarray], dict]:
    """The spec, the zeta cases and the resolved config of a simulation config.

    ``cfg`` is typed as :func:`load_simulation_config` reads it. The
    resolved config is ``cfg`` with every optional field filled from the
    spec and methods given by their canonical ids.
    """
    atoms, zeta_cases = cfg["atoms"], cfg["zeta_cases"]
    if not zeta_cases:
        raise CliError("config: 'zeta_cases' must be a non-empty object")
    optional = {key: cfg[key] for key in _OPTIONAL_SPEC_FIELDS if key in cfg}
    try:
        if "methods" in optional:
            optional["methods"] = tuple(map(Method.parse, optional["methods"]))
        spec = SimulationSpec(
            atom_x=np.array([atom["x"] for atom in atoms], dtype=float),
            counts=np.array([atom["count"] for atom in atoms], dtype=int),
            beta_star=np.asarray(cfg["beta_star"], dtype=float),
            zeta=np.zeros(len(atoms)),  # the clean case; each case is checked below
            r=cfg["r"],
            **optional,
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise CliError(f"config: {err}") from err
    for label, zeta in zeta_cases.items():
        try:
            replace(spec, zeta=zeta)
        except (TypeError, ValueError) as err:
            raise CliError(f"config: zeta case '{label}': {err}") from err
    resolved = {**cfg, **{key: getattr(spec, key) for key in _OPTIONAL_SPEC_FIELDS}}
    resolved["methods"] = [method.id for method in spec.methods]
    return spec, zeta_cases, resolved


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = load_simulation_config(args.config)
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads < 1:
        raise CliError(f"--threads must be >= 1, got {args.threads}")
    spec, zeta_cases, resolved = build_spec(cfg)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        report = run_experiment(spec, zeta_cases=zeta_cases, threads=args.threads)
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
        "config": resolved,
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

    ncomp = spec.beta_star.size
    trials_path = os.path.join(out_dir, "trials.csv")
    trials_csv = io.StringIO()
    writer = csv.writer(trials_csv, lineterminator="\n")
    writer.writerow(["method", "case", *(f"param_error_d{j + 1}" for j in range(ncomp)),
                     "param_error_l2", "regret", "seed"])
    writer.writerows(
        [row.method_id, row.case,
         *map(fmt_float, (*row.param_error_components, row.param_error_l2, row.regret)),
         row.seed]
        for row in report.rows
    )
    atomic_write(trials_path, trials_csv.getvalue())
    write_manifest(
        os.path.join(out_dir, "manifest.json"), "simulate", resolved, report.seed,
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
    data, weights = read_dataset_csv(args.data, labels=True, weights_col=args.weights_col)
    if weights is None:
        weights = np.ones(data.n)
    try:
        report = fit_weighted_mle(data, weights)
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
        out_path + ".manifest.json", "fit",
        {"grad_tol": solver.GRAD_TOL, "max_iters": solver.MAX_ITERS,
         "ridge": solver.RIDGE, "weights_col": args.weights_col},
        None, [os.path.abspath(args.data)], [os.path.abspath(out_path)], started,
    )
    print(f"fit: converged={report.converged} iterations={report.iterations} -> {out_path}")
    if not report.converged and args.strict:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    started = time.time()
    ensemble = load_ensemble(args.ensemble)
    data, _ = read_dataset_csv(args.data, labels=args.kind == "coreset")
    if data.d != ensemble.d:
        raise CliError(
            f"dimension mismatch: data d={data.d}, ensemble d={ensemble.d}"
        )
    if data.labeled and data.K > ensemble.K:
        raise CliError(
            f"class mismatch: labels up to {data.K}, ensemble has K={ensemble.K}"
        )
    data = Dataset(data.X, data.y, ensemble.K)
    try:
        u = score_rows(ensemble, data, args.kind, args.estimator)
    except Exception as err:
        raise CliError(f"scoring failed: {err}", EXIT_RUNTIME) from err
    out_path = args.out or "scores.csv"
    atomic_write_chunks(out_path, _csv_chunks(
        ["index", "u"], enumerate(u.tolist()), "%d,%.17g\n"))
    write_manifest(
        out_path + ".manifest.json", "score",
        {"kind": args.kind, "estimator": args.estimator}, None,
        [os.path.abspath(args.data), os.path.abspath(args.ensemble)],
        [os.path.abspath(out_path)], started,
    )
    print(f"score: {len(u)} rows -> {out_path}")
    return EXIT_OK


def read_scores_csv(path: str) -> np.ndarray:
    with _open_text(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or "u" not in header:
            raise CliError(f"{path}: expected a header with a 'u' column")
        (u,) = _read_columns(path, fh, [([header.index("u")], float)])
    u = u[:, 0]
    if u.size == 0:
        raise CliError(f"{path}: no scores")
    if not _nonnegative(u):
        raise CliError(f"{path}: scores must be finite and nonnegative")
    return u


def cmd_sample(args: argparse.Namespace) -> int:
    started = time.time()
    if args.r <= 0:
        raise CliError("--r must be positive")
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
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
        sub = draw_subsample(plan, args.r, config.seed)
    except ValueError as err:
        raise CliError(str(err)) from err
    out_prefix = args.out or "subsample"
    sub_path = f"{out_prefix}.csv"
    plan_path = f"{out_prefix}_plan.json"
    atomic_write_chunks(sub_path, _csv_chunks(
        ["draw_index", "source_row", "weight"],
        zip(range(len(sub.indices)), sub.indices.tolist(), sub.weights.tolist()),
        "%d,%d,%.17g\n",
    ))
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
        "capped_fraction": plan.capped_fraction,
        "floored_fraction": plan.floored_fraction,
        "pi": plan.pi,
        "pi_reweight": plan.pi_reweight,
    }
    atomic_write_chunks(plan_path, json_chunks(plan_doc))
    write_manifest(
        out_prefix + ".manifest.json", "sample",
        {"r": args.r, "alpha_mult": args.alpha_mult, "beta_floor": args.beta_floor,
         "transform": args.transform, "seed": config.seed},
        config.seed, [os.path.abspath(args.scores)],
        [os.path.abspath(sub_path), os.path.abspath(plan_path)], started,
    )
    print(f"sample: {args.r} draws -> {sub_path}")
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    results = run_selfcheck(quick=args.quick, seed=args.seed)
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
    p.add_argument("--seed", type=int, default=0, help="master seed")
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
