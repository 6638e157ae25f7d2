"""copsamp benchmark runner.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout: copsamp is imported from its
``src`` directory, never from an installed copy. Each run starts fresh
worker processes (``worker.py``), one closed-loop client each, with the
BLAS thread count of the workload in their environment.

``--trace 0`` measures the end-to-end metrics: it sets the workload up
``SETUP_REPEATS - 1`` times in set-up-only processes, then once more
in the measured process, and reports the median set-up time.
``--trace 1`` measures the per-layer metrics: one untraced and one
traced process, each for half of ``--seconds``; the ratio of their
throughputs is the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the environment record, is written under
``perfbench/out/results``. Compare two sets of results with
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from stats import median, timing_summary  # noqa: E402

#: BLAS threads and worker threads per workload; never more than nproc
THREADS = {
    "sim-paper": {"blas": 1, "workers": 2},
    "exact-multiclass": {"blas": 2, "workers": 1},
    "cli-io": {"blas": 1, "workers": 1},
}
SETUP_REPEATS = 3
#: the whole run, all processes included, must end within this many seconds
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def hardware() -> dict:
    def read(path: str) -> str | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return None

    llc = None
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = read(f"{base}/level")
        if level is None:
            break
        if llc is None or int(level) >= llc[0]:
            llc = (int(level), read(f"{base}/size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "last_level_cache": None if llc is None else {"level": llc[0], "size": llc[1]},
    }


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        nproc = len(os.sched_getaffinity(0))
        self.threads = {key: min(value, nproc) for key, value in THREADS[workload].items()}
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": SRC,
            "OPENBLAS_NUM_THREADS": str(self.threads["blas"]),
            "OMP_NUM_THREADS": str(self.threads["blas"]),
            "MKL_NUM_THREADS": str(self.threads["blas"]),
        })
        self.work_root = os.path.join(HERE, "out", "work")
        self.children = 0

    def child(self, seconds: float, result: str, *flags: str) -> dict:
        """Run one worker process to completion and return its result document."""
        workdir = os.path.join(self.work_root, f"{self.workload}-{os.getpid()}-{self.children}")
        self.children += 1
        os.makedirs(workdir, exist_ok=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", repr(seconds), "--workers", str(self.threads["workers"]),
               "--workdir", workdir, "--result", result, "--spawned", repr(spawned), *flags]
        try:
            proc = subprocess.Popen(cmd, cwd=workdir, env=self.env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
            try:
                _, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {"error": f"worker exceeded {timeout:.0f} s and was killed"}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            return {"error": f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}"}
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(result)
        return doc


def result_ops(doc: dict) -> tuple[int, int]:
    """(attempted, failed); a worker that produced no result is one failed operation."""
    if "error" in doc:
        return 1, 1
    return doc.get("attempted", 1), doc.get("failed", 0)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="copsamp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(HERE, "out", "results"),
                        help="directory for the full result documents")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "copsamp", "__init__.py")):
        print(f"run.py: no copsamp source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(args.results, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    base = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    runner = Runner(args.workload, args.seed, started + DEADLINE_S)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": runner.threads,
        "thread_env": {k: runner.env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
        "hardware": hardware(),
        "git_commit": git_commit(),
    }
    if args.trace == 0:
        setups = [runner.child(args.seconds, f"{base}-setup{i}.json", "--setup-only")
                  for i in range(SETUP_REPEATS - 1)]
        main_run = runner.child(args.seconds, f"{base}-run.json")
        parts = setups + [main_run]
        setup_times = [p["setup_s_normalized"] for p in parts if "setup_s" in p]
        doc["setup_s"] = timing_summary(setup_times)
        doc["setup_s_raw"] = timing_summary([p["setup_s"] for p in parts if "setup_s" in p])
        doc["run"] = main_run
        values = {
            "items_per_s": main_run.get("items_per_s", 0.0),
            "peak_rss_mb": main_run.get("peak_rss_mb", 0.0),
            "setup_s": median(setup_times) if setup_times else 0.0,
        }
        metric_specs = spec["end_to_end"]
    else:
        untraced = runner.child(args.seconds / 2, f"{base}-untraced.json")
        traced = runner.child(args.seconds / 2, f"{base}-traced.json", "--trace")
        parts = [untraced, traced]
        doc["untraced"], doc["traced"] = untraced, traced
        values = dict(traced.get("layers", {}))
        plain, slow = untraced.get("items_per_s", 0.0), traced.get("items_per_s", 0.0)
        values.update({
            "trace.items_per_s": slow,
            "trace.untraced_items_per_s": plain,
            "trace.overhead_frac": 1.0 - slow / plain if plain > 0 else 0.0,
        })
        metric_specs = spec["per_layer"]
        unknown = sorted(set(values) - {m["name"] for m in metric_specs})
        if unknown:
            print(f"run.py: traced metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)

    attempted = failed = 0
    for part in parts:
        a, f = result_ops(part)
        attempted, failed = attempted + a, failed + f
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in metric_specs}
    doc.update({"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
                "metrics": metrics, "wall_s": time.monotonic() - started})
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)

    for part in parts:
        for message in part.get("failures", []) + ([part["error"]] if "error" in part else []):
            print(f"FAILED {message}")
    if args.trace == 0:
        run = doc["run"]
        durations = timing_summary(run.get("durations_s", []))
        tail = durations["tail"]
        print(f"{args.workload}: iteration time median {durations['median']:.4f} s over "
              f"{durations['count']} iterations; tail percentile "
              + (f"p{tail['percentile']:.1f} = {tail['value']:.4f} s" if tail else
                 "n/a (fewer than 11 iterations)"))
        print(f"{args.workload}: set-up time median of {len(setup_times)} processes, "
              f"values {', '.join(f'{v:.4f}' for v in setup_times)} s normalized, "
              f"{', '.join(f'{v:.4f}' for v in doc['setup_s_raw']['values'])} s as measured")
        if "items_per_s_raw" in run:
            print(f"{args.workload}: items_per_s as measured {run['items_per_s_raw']:.6g} 1/s, "
                  f"normalized to the reference speed {run['items_per_s']:.6g} 1/s")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(f"{args.workload}: full result in {os.path.relpath(base + '.json', ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
