"""One workload run in a fresh process; started by ``run.py``, never by hand.

Imports copsamp from the checkout's ``src`` (the runner sets PYTHONPATH),
builds the workload's inputs, runs timed iterations for about
``--seconds`` seconds, checks the outputs outside the timed section and
writes one JSON result to ``--result``. With ``--setup-only`` it stops
after set-up; with ``--trace`` it wraps copsamp's public functions
first and also writes the recorded spans next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: calibration times of a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4,
#: OpenBLAS 0.3.31) by number of worker threads; the speed the
#: normalized figures are stated at
CALIBRATION_REF_S = {1: 0.0075, 2: 0.0155}


def _calibration_kernel(a, v) -> None:
    s = 0
    for i in range(60_000):
        s += i * i
    for _ in range(8):
        a @ a
    v.copy().sort()


def calibrate(threads: int) -> float:
    """Seconds for a fixed mix of interpreter, BLAS and memory-bound numpy work.

    ``threads`` copies run concurrently, as many as the workload's worker
    threads, so the kernel meets the same interpreter-lock contention;
    the best of three repetitions. It runs between stages, when copsamp
    is idle, and tracks the machine's speed: on a shared host that speed
    drifts by tens of percent over minutes, more than any bound this
    benchmark could hold.
    """
    import threading

    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    v = rng.standard_normal(400_000)
    best = float("inf")
    for _ in range(3):
        helpers = [threading.Thread(target=_calibration_kernel, args=(a, v))
                   for _ in range(threads - 1)]
        start = time.perf_counter()
        for helper in helpers:
            helper.start()
        _calibration_kernel(a, v)
        for helper in helpers:
            helper.join()
        best = min(best, time.perf_counter() - start)
    return best


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "copsamp_src": os.path.relpath(sys.modules["copsamp"].__file__, os.path.dirname(SRC)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before the runner started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import copsamp  # noqa: F401 - imported first so set-up time covers it
    import copsamp.cli  # noqa: F401

    if not os.path.abspath(copsamp.__file__).startswith(SRC + os.sep):
        print(f"copsamp imported from {copsamp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    workload = WORKLOADS[args.workload](args.seed, args.workdir, args.workers)
    workload.setup()
    timed_start = time.monotonic()
    setup_s = timed_start - args.spawned
    reference = CALIBRATION_REF_S[args.workers]
    setup_calibration = [calibrate(args.workers) for _ in range(3)]
    result = {
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        "setup_s_normalized": setup_s * reference / statistics.median(setup_calibration),
        "environment": environment(),
    }
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    stage_times: dict[str, list[float]] = {}
    calibration: list[float] = []
    durations: list[float] = []
    ops: list[tuple[str, bool, str]] = []
    k = 0
    while True:
        if tracer is not None:
            tracer.run_id, tracer.enabled = f"iter-{k}", True
        total = 0.0
        for name, run in workload.stages(k):
            calibration.append(calibrate(args.workers))
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            stage_times.setdefault(name, []).append(elapsed)
            total += elapsed
        if tracer is not None:
            tracer.enabled = False
        durations.append(total)
        ops += workload.check_iteration(k)
        k += 1
        # start another iteration only if it should end by half an
        # iteration past the requested time
        if sum(durations) + 0.5 * statistics.median(durations) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops += workload.final_checks()

    # a stage slowed by a burst of outside load in one iteration is
    # filtered by its own median, independently of the other stages
    median_iteration = sum(statistics.median(v) for v in stage_times.values())
    items_per_s = workload.items / median_iteration
    calibration.append(calibrate(args.workers))
    speed = statistics.median(calibration) / reference
    result.update({
        "iterations": k,
        "items_per_iteration": workload.items,
        "durations_s": durations,
        "stage_durations_s": stage_times,
        "items_per_s_raw": items_per_s,
        "calibration_s": calibration,
        "items_per_s": items_per_s * speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _ in ops if not ok),
        "failures": sorted({f"{name}: {msg}" for name, ok, msg in ops if not ok}),
    })
    if tracer is not None:
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, k)
        tracer.dump(args.result[: -len(".json")] + "-spans.json")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
