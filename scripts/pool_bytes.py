"""Digest of every output byte the benchmark's op pools write, for a seed.

Builds each pool of perfbench/workloads.py at full size (imported
read-only, as the benchmark's runner imports it), writes its inputs into
a temporary directory, runs every op once through `covkit.cli.main` and
prints one line per op:

    <workload> <index> <kind> rc=<exit code> <sha256 of its outputs>

The sha256 runs over the op's output files in order ("-" when one is
missing).  Two checkouts that write the same bytes print the same lines,
so a change meant to move no output byte is checked by

    python3 scripts/pool_bytes.py --seed 7 > after.txt   # in the change
    python3 scripts/pool_bytes.py --seed 7 > before.txt  # in its parent
    diff before.txt after.txt

A change that moves bytes at rounding level says how far: --save DIR
keeps every op's outputs under DIR, and --against DIR ends each line
with rel=<r>, the largest difference of a numeric cell from the saved
one over the largest magnitude of the saved cells, the worst over the
op's output files (0 for equal cells, inf when the files differ in
their number of cells or one is missing):

    python3 scripts/pool_bytes.py --seed 7 --save /tmp/before     # parent
    python3 scripts/pool_bytes.py --seed 7 --against /tmp/before  # change

Run it from any directory: covkit is imported from the src/ of the
checkout the script sits in.  BLAS runs one thread, as in the benchmark,
so a matrix product sums in one order.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import covkit.cli  # noqa: E402
import workloads  # noqa: E402


def digest(paths) -> str:
    """sha256 of the files at paths, concatenated in order; "-" when one
    of them is missing."""
    h = hashlib.sha256()
    for path in paths:
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            return "-"
    return h.hexdigest()


def numbers(value) -> list[float]:
    """The numbers in a parsed JSON value, in order (booleans left out)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def cells(path) -> list[float]:
    """The numeric cells of an output file, in order: the numbers of a
    JSON report, or the comma-separated cells of a CSV table that read
    as floats (its header left out)."""
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        return numbers(json.loads(text))
    out = []
    for cell in text.replace("\n", ",").split(","):
        try:
            out.append(float(cell))
        except ValueError:
            pass
    return out


def rel_difference(paths, saved) -> float:
    """The largest of |cell - saved cell| / max |saved cell| over the
    files at paths against their namesakes in the directory saved."""
    worst = 0.0
    for path in paths:
        try:
            got, want = cells(path), cells(Path(saved) / Path(path).name)
        except OSError:
            return math.inf
        if len(got) != len(want):
            return math.inf
        scale = max((abs(v) for v in want), default=0.0) or 1.0
        diff = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        worst = max(worst, diff / scale)
    return worst


def run_op(op) -> int | None:
    """op's exit code from one call of covkit.cli.main, None when it
    raised; its stdout and stderr are dropped."""
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return covkit.cli.main(op.argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--save", metavar="DIR",
                        help="keep every op's outputs under DIR")
    parser.add_argument("--against", metavar="DIR",
                        help="end each line with the largest relative "
                             "difference from the outputs --save kept in DIR")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="pool-bytes-") as tmp:
            pool = workloads.build(name, args.seed, "full", Path(tmp))
            pool.write_inputs()
            for i, op in enumerate(pool.ops):
                rc = run_op(op)
                line = f"{name} {i} {op.kind} rc={rc} {digest(op.outputs)}"
                kept = Path(name, str(i))
                if args.against:
                    rel = rel_difference(op.outputs, Path(args.against, kept))
                    line += f" rel={rel:.3g}"
                if args.save:
                    (Path(args.save) / kept).mkdir(parents=True, exist_ok=True)
                    for path in op.outputs:
                        if Path(path).exists():
                            shutil.copy(path, Path(args.save, kept))
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
