"""Compare two sets of benchmark results, A (the parent) and B (the change).

    python3 perfbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result documents written by ``run.py``
(``perfbench/out/results`` by default; copy the files of each side to
a directory of its own). For every workload and end-to-end metric it
prints each side's quartiles, the pairs B wins (runs are paired by
seed, else in the order they were made) and a verdict, using the
bounds recorded in ``BENCHMARK.json``:

* ``better``: B wins at least nine tenths of ten or more pairs, ties
  counting for neither, and the medians differ by more than A's own
  quartile distance;
* ``unresolved``: A's quartile distance exceeds the bound (as a share
  of A's median), unless every B run beats every A run;
* ``worse``: B's median is worse than A's by more than the bound;
* ``within bound`` otherwise.

Traced runs on both sides add a table of per-layer medians, without
verdicts. Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, quartiles, tail_percentile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory: str) -> list[dict]:
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "workload" in doc and "metrics" in doc:
            docs.append(doc)
    return docs


def pairs(a: list[dict], b: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with equal seeds; if no seed is shared, pair in run order."""
    by_seed = {doc["seed"]: doc for doc in b}
    matched = [(doc, by_seed[doc["seed"]]) for doc in a if doc["seed"] in by_seed]
    return matched or list(zip(a, b))


def verdict(va: list[float], vb: list[float], wins: int, n_pairs: int,
            better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1a, ma, q3a = quartiles(va)
    mb = median(vb)
    gain = sign * (mb - ma)
    if n_pairs >= 10 and wins >= 0.9 * n_pairs and gain > q3a - q1a:
        return "better"
    all_better = min(sign * v for v in vb) > max(sign * v for v in va)
    if ma != 0 and (q3a - q1a) / abs(ma) > bound and not all_better:
        return "unresolved"
    if ma != 0 and -gain / abs(ma) > bound:
        return "worse"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory of results A (parent)")
    parser.add_argument("b", help="directory of results B (change)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    side_a, side_b = load_results(args.a), load_results(args.b)
    workloads = [w["name"] for w in spec["workloads"]]
    worse = False
    for workload in workloads:
        runs_a = [d for d in side_a if d["workload"] == workload and d["trace"] == 0]
        runs_b = [d for d in side_b if d["workload"] == workload and d["trace"] == 0]
        if runs_a and runs_b:
            matched = pairs(runs_a, runs_b)
            print(f"\n{workload}: {len(runs_a)} runs A, {len(runs_b)} runs B, {len(matched)} pairs")
            print(f"  {'metric':<14} {'A q1 / median / q3':>36} {'B q1 / median / q3':>36}"
                  f" {'B wins':>7}  verdict (bound)")
            for m in spec["end_to_end"]:
                name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
                va = [d["metrics"][name]["value"] for d in runs_a]
                vb = [d["metrics"][name]["value"] for d in runs_b]
                wins = sum(1 for x, y in matched
                           if sign * (y["metrics"][name]["value"] - x["metrics"][name]["value"]) > 0)
                v = verdict(va, vb, wins, len(matched), m["better"], m["bound"])
                worse |= v == "worse"
                fa = " / ".join(f"{x:.5g}" for x in quartiles(va))
                fb = " / ".join(f"{x:.5g}" for x in quartiles(vb))
                print(f"  {name:<14} {fa:>36} {fb:>36} {wins:>3}/{len(matched):<3}  {v} "
                      f"({m['bound']:g}) [{m['unit']}]")
            for label, runs in (("A", runs_a), ("B", runs_b)):
                fails = sum(d["failed"] for d in runs)
                tail = tail_percentile([d["metrics"]["items_per_s"]["value"] for d in runs], "lower")
                note = "" if tail is None else (
                    f"; items_per_s p{tail['percentile']:.1f} = {tail['value']:.5g} over {tail['count']} runs")
                print(f"  {label}: failed {fails} of {sum(d['attempted'] for d in runs)} operations{note}")
        traced_a = [d for d in side_a if d["workload"] == workload and d["trace"] == 1]
        traced_b = [d for d in side_b if d["workload"] == workload and d["trace"] == 1]
        if traced_a and traced_b:
            print(f"  per-layer medians, {len(traced_a)} traced runs A, {len(traced_b)} B:")
            for m in spec["per_layer"]:
                name = m["name"]
                ma = median([d["metrics"][name]["value"] for d in traced_a])
                mb = median([d["metrics"][name]["value"] for d in traced_b])
                if ma == 0 and mb == 0:
                    continue
                ratio = f"{mb / ma:.3f}x" if ma else "n/a"
                print(f"    {name:<44} {ma:>12.5g} {mb:>12.5g}  {ratio:>8} [{m['unit']}]")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
