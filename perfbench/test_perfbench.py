"""The benchmark's own tests: contract of its output, smoke runs, stats.

    python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_contract():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert max(m["bound"] for m in BENCH["end_to_end"]) == next(
        m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--size", "smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    printed = {line.split(" = ")[0]: line.split(" = ")[1].split()[1]
               for line in lines[:-1] if " = " in line}
    for m in BENCH["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
    assert printed["failed_frac"] == run.FAILED_FRAC_UNIT
    if trace:
        assert all(printed[m["name"]] == m["unit"] for m in want)
        unattributed = result["metrics"]["trace.unattributed_frac"]["value"]
        assert 0.0 <= unattributed < 0.05


def test_residual_max_repeats_for_a_seed():
    values = []
    for _ in range(2):
        proc = bench_run("--workload", "affine-scan", "--seed", "5",
                         "--seconds", "0.2", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])
                      ["metrics"]["residual_max"]["value"])
    assert values[0] == values[1] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct, n = stats.tail(times)
    assert sum(t > value for t in times) == 10
    assert (n, pct) == (40, 75.0)


def test_trace_overhead_pairs_ops():
    untraced = [run.Instance(i % 2, 0.0, s, True) for i, s in
                enumerate([1.0, 10.0, 1.0, 10.0])]
    traced = [run.Instance(i % 2, 0.0, 1.1 * s, True) for i, s in
              enumerate([1.0, 10.0])]
    assert run.trace_overhead(untraced, traced) == pytest.approx(0.1)


def test_residual_rows_flag_a_worse_op_kind():
    def record(residuals):
        return {"provenance": {"workload": WORKLOADS[0], "trace": 0},
                "residuals": residuals}
    parent = [record({"a#0": 0.01, "b#1": 0.3, "c#2": 1e-15})]
    change = [record({"a#0": 0.02, "b#1": 0.3, "c#2": 3e-15})]
    flags = {line.split()[1]: line.split()[-1]
             for line in compare.residual_rows(parent, change, BENCH)[1:]}
    assert flags == {"a": "WORSE", "b": "ok", "c": "ok"}


def test_verdict_rule():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    faster = [0.8 * v for v in parent]
    slower = [1.3 * v for v in parent]
    assert stats.verdict(parent, faster, "lower", 0.2)[0] == "better"
    assert stats.verdict(parent, slower, "lower", 0.2)[0] == "worse"
    assert stats.verdict(parent, parent, "lower", 0.2)[0] == "unchanged"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 1.9, 0.6, 1.1, 1.4]
    assert stats.verdict(noisy, noisy, "higher", 0.2)[0] == "unresolved"
