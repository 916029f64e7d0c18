#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads affine-scan roundtrip --seeds 1-10 \\
        --out .perfbench_out/runs.jsonl

Each run is `run.py` in a fresh interpreter, one after another, for
BENCHMARK.json's run_seconds, appending its record to --out.  The summary gives, per workload and end-to-end
metric, the quartiles of the runs and the spread (third minus first
quartile over the median), next to a third of the metric's bound from
BENCHMARK.json, which is the steadiness the benchmark aims for.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records: list[dict], trace: int = 0) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec["provenance"]["trace"] == trace:
            out.setdefault(rec["provenance"]["workload"], []).append(rec)
    return out


def baseline(records: list[dict], bench: dict) -> dict:
    """Quartiles of every end-to-end metric (and its wall-clock reading)
    and medians of every per-layer metric, per workload, with the
    machine they were measured on."""
    prov = records[0]["provenance"]
    workloads: dict[str, dict] = {}
    for workload, recs in by_workload(records).items():
        e2e = {}
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = stats.quartiles(vals)
            e2e[m["name"]] = {"q1": q1, "median": med, "q3": q3,
                              "unit": m["unit"], "spread": stats.spread(vals)}
            walls = [r["extra"]["wall"].get(m["name"]) for r in recs]
            if None not in walls:
                e2e[m["name"]]["wall_median"] = stats.quartiles(walls)[1]
        workloads[workload] = {
            "seeds": sorted(r["provenance"]["seed"] for r in recs),
            "all_correct": all(r["result"]["correct"] for r in recs),
            "end_to_end": e2e}
    for workload, recs in by_workload(records, trace=1).items():
        workloads.setdefault(workload, {})["per_layer"] = {
            m["name"]: stats.quartiles(
                [r["result"]["metrics"][m["name"]]["value"] for r in recs])[1]
            for m in bench["per_layer"]}
    return {"machine": {k: prov[k] for k in ("nproc", "cpu_model", "python",
                                             "numpy", "blas_threads",
                                             "git_commit")},
            "run_seconds": prov["seconds"], "workloads": workloads}


def summary(records: list[dict], bench: dict) -> list[str]:
    lines = []
    for workload, recs in by_workload(records).items():
        bad = [r["provenance"]["seed"] for r in recs if not r["result"]["correct"]]
        lines.append(f"{workload}: {len(recs)} runs"
                     + (f", NOT correct on seeds {bad}" if bad else ""))
        for m in bench["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            q1, med, q3 = stats.quartiles(vals)
            flag = "" if stats.spread(vals) < m["bound"] / 3 else "  <-- wide"
            lines.append(f"  {m['name']:16s} median {med:.6g} {m['unit']:4s} "
                         f"q1 {q1:.6g} q3 {q3:.6g} spread "
                         f"{stats.spread(vals):.3f} (bound/3 "
                         f"{m['bound'] / 3:.3f}){flag}")
    return lines


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--out", required=True, help="JSON-lines record file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary-only", action="store_true",
                        help="summarize --out without running anything")
    parser.add_argument("--baseline", default=None,
                        help="also write quartiles per workload to this JSON")
    args = parser.parse_args(argv)
    if not args.summary_only:
        for workload in args.workloads:
            for seed in seed_list(args.seeds):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", str(args.trace),
                       "--record", args.out]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{workload} seed {seed}: exit {proc.returncode} "
                      f"{last[0][:160]}", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
    records = load(args.out)
    print("\n".join(summary(records, bench)))
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline(records, bench), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
