"""Summaries shared by the runner, the sweep and the compare report."""
from __future__ import annotations

import statistics


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of op time with at least ten ops above it.

    Returns (value, percentile, op count).  With n ops sorted ascending
    that is the (n-10)-th smallest: exactly ten ops are slower, and it
    sits at percentile 100 * (n - 10) / n.  With ten ops or fewer there
    is no such percentile and the fastest op stands in, at percentile 0.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n if n > 10 else 0.0, n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them with n=4."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """better / worse / unchanged / unresolved for one metric on one
    workload, with (pairs won by the change, pairs run).

    Runs pair up in order.  A gain needs the change to win at least nine
    tenths of all pairs (ties count for neither) and the medians to
    differ by more than the parent's own quartile distance.  The change
    is worse when its median is worse than the parent's by more than
    `bound` times the parent's median.  When the parent's own spread is
    wider than the bound the metric is unresolved, unless every run of
    the change reads better than every run of the parent.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gain = sign * (med_c - med_p)
    if pairs and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better", won, len(pairs)
    if -gain > bound * abs(med_p):
        return "worse", won, len(pairs)
    if spread(parent) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better", won, len(pairs)
        return "unresolved", won, len(pairs)
    return "unchanged", won, len(pairs)
