"""Span tracing of copsamp's public functions, installed from outside the package.

``install`` wraps each function in ``TARGETS`` and rebinds the wrapper in
every ``copsamp`` module that holds the original under any name (for
example ``sampler.fisher_info`` and ``simulation.ensemble_scores``), so
calls between modules are traced without editing the package. Each call
records a span: name, start, end, parent span, thread id and the run id
of the workload iteration it belongs to (``setup`` or ``iter-<k>``).
Spans stay in memory; ``Tracer.dump`` writes them out at the end.

A span's self time is its duration minus the durations of its child
spans. Parents are tracked per thread, so a span opened in a pool
thread has no parent and its caller's self time includes the wait.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

# ----------------------------------------------------------------------
# per-call counters, computed from arguments and results
# ----------------------------------------------------------------------


def _fisher_counters(args: dict, result) -> dict:
    """Computed kernel counts of the information matrix, from input shapes.

    Flops are those of forming ``sum_i kron(phi_i, x_i x_i^T)`` directly,
    2 n K^2 d^2; bytes are the compulsory traffic: X and the n (K, K) phi
    blocks read once, the (Kd, Kd) result written once.
    """
    n, d = args["data"].X.shape
    K = result.m.shape[0] // d
    return {
        "computed_gflop": 2.0 * n * K * K * d * d / 1e9,
        "computed_mb": 8.0 * (n * d + n * K * K + (K * d) ** 2) / 1e6,
    }


def _exact_counters(args: dict, result) -> dict:
    """Computed counts of exact scoring against a Cholesky factor.

    Each row needs R triangular solve pairs with the (Kd, Kd) factor,
    R = 1 for coreset scores and R = K for active ones (one per
    eigenvector of phi): 2 R (Kd)^2 flops per row. Bytes are the
    compulsory traffic: X and the factor read once, the n scores written.
    """
    n, d = args["data"].X.shape
    Kd = args["info"].m.shape[0]
    K = Kd // d
    R = K if args["kind"] == "active" else 1
    return {
        "computed_gflop": 2.0 * n * R * Kd * Kd / 1e9,
        "computed_mb": 8.0 * (n * d + Kd * Kd + n) / 1e6,
    }


def _fit_counters(args: dict, result) -> dict:
    return {"iterations": result.iterations, "not_converged": int(not result.converged)}


def _rows_counter(args: dict, result) -> dict:
    return {"rows": args["data"].n}


def _dataset_key(args: dict, result) -> dict:
    return {"key": f"{args['seed']}/{bool(args['corrupted'])}"}


def _file_bytes(args: dict, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


def _text_bytes(args: dict, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _written_bytes(args: dict, result) -> dict:
    return {"bytes": len(args["text"].encode("utf-8"))}


# (module, function, counters or None, measure the tracemalloc peak)
TARGETS = [
    ("copsamp.model", "fisher_info", _fisher_counters, True),
    ("copsamp.solver", "fit_weighted_mle", _fit_counters, False),
    ("copsamp.uncertainty", "exact_scores", _exact_counters, True),
    ("copsamp.uncertainty", "train_ensemble", None, False),
    ("copsamp.uncertainty", "ensemble_scores", _rows_counter, False),
    ("copsamp.sampler", "make_plan", None, False),
    ("copsamp.sampler", "draw_subsample", None, False),
    ("copsamp.sampler", "cops_coreset", None, False),
    ("copsamp.sampler", "cops_active", None, False),
    ("copsamp.simulation", "generate_dataset", _dataset_key, False),
    ("copsamp.simulation", "run_trial", None, False),
    ("copsamp.simulation", "run_experiment", None, False),
    ("copsamp.cli", "read_dataset_csv", _file_bytes, False),
    ("copsamp.cli", "read_scores_csv", None, False),
    ("copsamp.cli", "json_text", _text_bytes, False),
    ("copsamp.cli", "atomic_write", _written_bytes, False),
    ("copsamp.cli", "cmd_fit", None, False),
    ("copsamp.cli", "cmd_score", None, False),
    ("copsamp.cli", "cmd_sample", None, False),
    ("copsamp.cli", "cmd_simulate", None, False),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        # (id, name, start, end, parent, thread, run_id, error, counters)
        self.spans: list[tuple] = []
        self.run_id = "setup"
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counters=None, measure_alloc: bool = False):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            run_id = self.run_id
            # tracemalloc is process-wide: skip the peak when another span
            # (nested or in another thread) is already measuring one
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            stack.append(span_id)
            error = False
            extra: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if alloc:
                    extra["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                if not error and counters is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra.update(counters(bound.arguments, result))
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), run_id, error, extra))
            return result

        return traced

    def dump(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "run_id",
                "error", "counters")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever copsamp holds the original."""
    for module_name, func_name, counters, measure_alloc in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, func_name)
        layer = module_name.rsplit(".", 1)[-1]
        traced = tracer.wrap(f"{layer}.{func_name}", original, counters, measure_alloc)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "copsamp" or mod_name.startswith("copsamp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def layer_metrics(spans: list[tuple], iterations: int) -> dict[str, float]:
    """Per-layer figures for set-up plus one timed iteration.

    Spans recorded during set-up count once; spans of the timed
    iterations are averaged over ``iterations``. Returns
    ``<layer>.<function>.<stat>`` -> value for every function that ran.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    setup: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    timed: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    peaks: dict[str, float] = {}
    keys: dict[str, dict[str, list[str]]] = defaultdict(lambda: defaultdict(list))
    for span_id, name, start, end, parent, _, run_id, error, extra in spans:
        acc = (setup if run_id == "setup" else timed)[name]
        acc["calls"] += 1
        acc["self_s"] += end - start - child_time[span_id]
        acc["errors"] += error
        for key, value in extra.items():
            if key == "peak_alloc_mb":
                peaks[name] = max(peaks.get(name, 0.0), value)
            elif key == "key":
                keys[name][run_id].append(value)
            else:
                acc[key] += value
    sums = {name: {stat: setup[name][stat] + timed[name][stat] / iterations
                   for stat in set(setup[name]) | set(timed[name])}
            for name in set(setup) | set(timed)}
    out: dict[str, float] = {}
    for name, acc in sums.items():
        for stat, value in acc.items():
            out[f"{name}.{stat}"] = value
        if "computed_gflop" in acc:
            out[f"{name}.gflop_s"] = acc["computed_gflop"] / acc["self_s"] if acc["self_s"] > 0 else 0.0
        if name in peaks:
            out[f"{name}.peak_alloc_mb"] = peaks[name]
        if name in keys:
            ratios = [len(set(v)) / len(v) for v in keys[name].values()]
            out[f"{name}.unique_ratio"] = sum(ratios) / len(ratios)
    return out
