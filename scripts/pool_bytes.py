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

Run it from any directory: covkit is imported from the src/ of the
checkout the script sits in.  BLAS runs one thread, as in the benchmark,
so a matrix product sums in one order.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import os
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
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="pool-bytes-") as tmp:
            pool = workloads.build(name, args.seed, "full", Path(tmp))
            pool.write_inputs()
            for i, op in enumerate(pool.ops):
                rc = run_op(op)
                print(f"{name} {i} {op.kind} rc={rc} {digest(op.outputs)}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
