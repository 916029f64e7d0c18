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
