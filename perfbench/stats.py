"""Order statistics shared by the runner and the comparison tool (stdlib only)."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail_percentile(values: list[float], worse: str = "higher") -> dict | None:
    """The furthest percentile towards the worse side with ten samples beyond it.

    For timings (``worse="higher"``) that is the value with ten samples
    above it, percentile ``100 * (n - 10) / n``; for throughputs
    (``worse="lower"``) the value with ten samples below it, percentile
    ``100 * 10 / n``. Fewer than eleven samples give ``None``.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    if worse == "higher":
        return {"percentile": 100.0 * (n - 10) / n, "value": float(ordered[n - 11]), "count": n}
    return {"percentile": 100.0 * 10 / n, "value": float(ordered[10]), "count": n}


def timing_summary(values: list[float]) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    return {
        "count": len(values),
        "median": median(values) if values else None,
        "tail": tail_percentile(values),
        "values": list(values),
    }
