"""Counts of the paths every op of the benchmark's pools sums by, for a seed.

Builds each pool of perfbench/workloads.py (imported read-only, as the
benchmark's runner imports it), writes its inputs into a temporary
directory, runs every op once through `covkit.cli.main` and prints one
line per op:

    <workload> <index> <kind> rc=<exit code> kernel_fft=<n>
        kernel_direct=<n> kernel_pairs=<n> moved_fft=<n> moved_strided=<n>
        moved_direct=<n>

(one line, wrapped here).  It counts the work the sums did, not what a
planner said they would do, by wrapping the functions that do it:

* kernel_fft: dilations whose Cauchy or Poisson kernel was transformed
  on a lattice (calls of `_Lattice.kernel` less those of
  `_Lattice.moved_vacuum`, whose rows each FFT dilation of a moved
  vacuum transforms once);
* kernel_direct: elements whose kernels were read directly (the
  elements of each `transform._kernel_blocks` call);
* kernel_pairs: the (element, source) pairs those calls read, f's nodes
  and the proxies of far panels alike;
* moved_fft: dilations of a moved vacuum summed by FFT (calls of
  `_Lattice.moved_vacuum`);
* moved_strided: those summed by strided products (calls of
  `_Lattice.strided`);
* moved_direct: elements a moved vacuum was read at directly (the
  distinct elements each `_moved_reads` call yields, in analysis and in
  synthesis).

Two checkouts whose sums take the same paths and read the same sources
print the same lines, so a change meant to move no path is checked by

    python3 scripts/pool_plans.py --seed 7 > after.txt   # in the change
    python3 scripts/pool_plans.py --seed 7 > before.txt  # in its parent
    diff before.txt after.txt

--size smoke runs the small pools the benchmark's own tests use.  Run it
from any directory: covkit is imported from the src/ of the checkout the
script sits in, with BLAS on one thread as in the benchmark.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

# pool_bytes puts this checkout's src/ and perfbench/ on the path and
# BLAS on one thread, so it is imported before covkit
from pool_bytes import run_op, workloads

from covkit import inversion, signals, transform

COUNTS = ("kernel_fft", "kernel_direct", "kernel_pairs", "moved_fft",
          "moved_strided", "moved_direct")


def instrument(counts: dict) -> None:
    """Wraps the functions whose work the counts name (see the module
    docstring), so that each call adds to counts; kernel_fft counts every
    `_Lattice.kernel` call until the caller subtracts moved_fft."""
    for name, key in (("kernel", "kernel_fft"), ("moved_vacuum", "moved_fft"),
                      ("strided", "moved_strided")):
        def lattice_call(*args, fn=getattr(signals._Lattice, name), key=key,
                         **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        setattr(signals._Lattice, name, lattice_call)

    def kernel_blocks(fw, xs, a, b, sums, elems=None,
                      blocks=transform._kernel_blocks):
        elements = a.size if elems is None else elems.size
        counts["kernel_direct"] += elements
        counts["kernel_pairs"] += elements * xs.size
        return blocks(fw, xs, a, b, sums, elems)
    transform._kernel_blocks = kernel_blocks
    for module in (transform, inversion):
        def moved_reads(*args, reads=module._moved_reads, **kwargs):
            seen = set()
            for elems, cols, u in reads(*args, **kwargs):
                seen.update(elems.tolist())
                yield elems, cols, u
            counts["moved_direct"] += len(seen)
        module._moved_reads = moved_reads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    counts = dict.fromkeys(COUNTS, 0)
    instrument(counts)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="pool-plans-") as tmp:
            pool = workloads.build(name, args.seed, args.size, Path(tmp))
            pool.write_inputs()
            for i, op in enumerate(pool.ops):
                counts.update(dict.fromkeys(COUNTS, 0))
                rc = run_op(op)
                counts["kernel_fft"] -= counts["moved_fft"]
                print(f"{name} {i} {op.kind} rc={rc} " + " ".join(
                    f"{key}={counts[key]}" for key in COUNTS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
