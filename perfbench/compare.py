#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files hold records appended by `run.py --record` (or sweep.py).
Runs of one workload pair up by seed.  Each row shows each side's
median and quartiles, the pairs the change won, and a verdict from
stats.verdict with the metric's bound from BENCHMARK.json: better,
worse, unchanged, or unresolved when the parent's own spread is wider
than the bound.

residual_max only sees the worst op of a run, which is a known-defect
op on some workloads.  So a second table gives the worst residual of
every op kind on each side, flagged when the change's is worse than the
parent's by more than residual_max's bound.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats
from sweep import by_workload, load

ROOT = Path(__file__).resolve().parent.parent
ROUND_OFF = 1e-12  # residuals below this differ by rounding only


def rows(parent: list[dict], change: list[dict], bench: dict) -> list[str]:
    out = [f"{'workload':16s} {'metric':15s} {'parent q1/median/q3':>32s} "
           f"{'change q1/median/q3':>32s} {'won':>6s}  verdict"]
    a, b = by_workload(parent), by_workload(change)
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            continue
        seeds = sorted({r["provenance"]["seed"] for r in a[workload]}
                       & {r["provenance"]["seed"] for r in b[workload]})
        if not seeds:
            continue
        pa = {r["provenance"]["seed"]: r for r in a[workload]}
        pb = {r["provenance"]["seed"]: r for r in b[workload]}
        for m in bench["end_to_end"]:
            va = [pa[s]["result"]["metrics"][m["name"]]["value"] for s in seeds]
            vb = [pb[s]["result"]["metrics"][m["name"]]["value"] for s in seeds]
            verdict, won, n = stats.verdict(va, vb, m["better"], m["bound"])
            qa = "/".join(f"{v:.4g}" for v in stats.quartiles(va))
            qb = "/".join(f"{v:.4g}" for v in stats.quartiles(vb))
            out.append(f"{workload:16s} {m['name']:15s} {qa:>32s} {qb:>32s} "
                       f"{won:>3d}/{n:<2d}  {verdict}")
    return out


def worst_residuals(records: list[dict]) -> dict[str, float]:
    """Worst oracle residual of each op kind over the records."""
    worst: dict[str, float] = {}
    for rec in records:
        for key, r in rec["residuals"].items():
            kind = key.rsplit("#", 1)[0]
            worst[kind] = max(worst.get(kind, r), r)
    return worst


def residual_rows(parent: list[dict], change: list[dict],
                  bench: dict) -> list[str]:
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "residual_max")
    out = [f"{'workload':16s} {'op kind':28s} {'parent worst':>13s} "
           f"{'change worst':>13s}  residual"]
    a, b = by_workload(parent), by_workload(change)
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a or workload not in b:
            continue
        wa, wb = worst_residuals(a[workload]), worst_residuals(b[workload])
        for kind in sorted(wa.keys() | wb.keys()):
            ra, rb = wa.get(kind, float("nan")), wb.get(kind, float("nan"))
            flag = ("ok" if rb <= max(ra, ROUND_OFF) * (1.0 + bound)
                    else "WORSE")
            out.append(f"{workload:16s} {kind:28s} {ra:13.4e} {rb:13.4e}  "
                       f"{flag}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="records of the parent commit")
    parser.add_argument("change", help="records of the change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    print("\n".join(rows(parent, change, bench)))
    print()
    print("\n".join(residual_rows(parent, change, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
