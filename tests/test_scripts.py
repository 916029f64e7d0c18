"""The demo scripts the README lists run and write the CSV files they
report."""
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["maximal_box_demo.py", "disc_sinogram.py",
                                    "numrange_demo.py",
                                    "haar_roundtrip_demo.py"])
def test_demo_script_writes_the_csv_it_reports(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    wrote = re.search(r"^wrote (.+)$", run.stdout, re.MULTILINE)
    assert wrote, run.stdout
    for name in wrote.group(1).split(" and "):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        # a header and at least one row of numbers
        assert len(rows) >= 2
        assert all(float(cell) == float(cell) for cell in rows[1])


def test_pool_plans_counts_the_paths_of_the_smoke_pools(tmp_path):
    # one line per op of the benchmark's smoke pools, each op run to exit
    # 0; the roundtrip pool sums kernels and moved vacua by FFT and the
    # affine-scan pool reads both directly, its kernels at fewer sources
    # than its signals' 1000 nodes
    script = ROOT / "scripts" / "pool_plans.py"
    run = subprocess.run([sys.executable, str(script), "--seed", "7",
                          "--size", "smoke"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    workloads, totals = set(), {}
    for line in run.stdout.splitlines():
        workload, index, kind, rc, *counts = line.split()
        assert rc == "rc=0", line
        workloads.add(workload)
        counts = {key: int(value) for key, value in (c.split("=")
                                                     for c in counts)}
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
        if workload == "affine-scan" and counts["kernel_direct"]:
            assert counts["kernel_pairs"] < 1000 * counts["kernel_direct"]
    assert workloads == {"affine-scan", "radon-sinogram", "roundtrip",
                         "operator-orbits"}
    assert list(totals) == ["kernel_fft", "kernel_direct", "kernel_pairs",
                            "moved_fft", "moved_strided", "moved_direct"]
    assert all(totals[key] > 0 for key in ("kernel_fft", "kernel_direct",
                                           "kernel_pairs", "moved_fft",
                                           "moved_direct"))
