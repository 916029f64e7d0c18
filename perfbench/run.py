#!/usr/bin/env python3
"""covkit benchmark: one workload as a closed loop of CLI calls.

    python3 perfbench/run.py --workload affine-scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout of the repository: covkit is imported
from `src/` of that checkout, nothing is installed.  One client in this
process calls `covkit.cli.main(argv)` for one op after another; the next
op starts when the previous one returns.  The op pool is built from
`--seed` (see workloads.py) and covkit only ever sees the generated
input files.  The loop runs whole passes over the pool until `--seconds`
have passed (at least two passes, so every op repeats and its output
bytes are compared).  Afterwards each op's first-pass output is checked
against its oracle.

Every time is scaled for machine drift (see calibrate.py): a fixed
kernel is sampled between ops every half second, and each op's wall
time is multiplied by calibrate.REFERENCE_S over the kernel time
sampled around it.  Wall times are printed and recorded beside the
scaled ones.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` an untraced half of the time is followed by a traced
half (see spans.py) and the last line carries the per-layer metrics,
given per pass over the pool, plus the tracing overhead.  Spans go to
`.perfbench_out/spans-<workload>-seed<seed>.csv`.

`--size smoke` runs a tiny pool of every workload in a few seconds;
`--record FILE` appends the full result with its provenance as a JSON
line (sweep.py and compare.py read those files).
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
MIN_PASSES = 2
MAX_LOOP_S = 60.0  # keeps a run of a much slower commit under 180 s

# failed_frac is printed but left out of BENCHMARK.json: it is 0 whenever
# covkit works, and the result's attempted/failed carry the same facts.
FAILED_FRAC_UNIT = "1"


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def pin_environment() -> dict:
    """No covkit thread pool; BLAS threads as set but at most nproc, and
    one when unset (a single client has nothing for a second thread to
    overlap with).  Must run before numpy is imported."""
    os.environ.pop("COVKIT_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, ""))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))
    return {var: os.environ[var] for var in BLAS_VARS}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Instance:
    """One executed op: wall seconds, and the same scaled for drift."""

    op: int
    wall: float
    seconds: float
    ok: bool
    message: str = ""


class Runner:
    def __init__(self, pool, workdir: Path, drift):
        import covkit.cli

        self.cli = covkit.cli
        self.pool = pool
        self.drift = drift
        self.first_dir = workdir / "first"
        self.first_dir.mkdir()
        self.first: dict[int, str | None] = {}  # pass-1 digest per op
        self.first_paths: dict[int, list[Path]] = {}
        self._pending: list[tuple[Instance, float]] = []

    def call(self, i: int, first_pass: bool) -> Instance:
        op = self.pool.ops[i]
        for path in op.outputs:
            path.unlink(missing_ok=True)
        self.drift.tick()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing op is a failed op, not a crashed run
            rc = None
            err.write(traceback.format_exc())
        t1 = perf_counter()
        # Scaled once the run is over, when samples after the op exist too.
        timing = (i, t1 - t0, 0.5 * (t0 + t1))
        if first_pass:
            self.first[i] = None
        if rc != 0:
            return self._done(timing, False,
                              f"{op.kind}: exit {rc}: {err.getvalue().strip()}")
        h = hashlib.sha256()
        for path in op.outputs:
            try:
                h.update(path.read_bytes())
            except OSError:
                return self._done(timing, False,
                                  f"{op.kind}: missing output {path.name}")
        digest = h.hexdigest()
        if first_pass:
            self.first[i] = digest
            copies = []
            for k, path in enumerate(op.outputs):
                copy = self.first_dir / f"{i}-{k}-{path.name}"
                shutil.copyfile(path, copy)
                copies.append(copy)
            self.first_paths[i] = copies
        elif digest != self.first[i]:
            return self._done(timing, False,
                              f"{op.kind}: output bytes differ from pass 1")
        return self._done(timing, True)

    def _done(self, timing, ok, message="") -> Instance:
        i, wall, at = timing
        inst = Instance(i, wall, wall, ok, message)
        self._pending.append((inst, at))
        return inst

    def rescale(self) -> None:
        """Scale every op timed so far by the drift samples around it."""
        for inst, at in self._pending:
            inst.seconds = inst.wall * self.drift.scale(at)
        self._pending.clear()

    def passes(self, seconds: float, tracer=None) -> tuple[list[Instance], int]:
        """Whole passes over the pool until `seconds` are up, at least
        MIN_PASSES unless a single pass already took MAX_LOOP_S."""
        done: list[Instance] = []
        n = 0
        t0 = perf_counter()
        while True:
            elapsed = perf_counter() - t0
            if n > 0 and ((n >= MIN_PASSES and elapsed >= seconds)
                          or elapsed >= MAX_LOOP_S):
                return done, n
            first_pass = not self.first
            for i in range(len(self.pool.ops)):
                if tracer is not None:
                    tracer.op_id = len(done)
                done.append(self.call(i, first_pass))
            n += 1

    def check(self) -> tuple[dict[int, float], set[int]]:
        """Oracle residual of every op's first-pass output, and the ops
        whose output is wrong (over tolerance, non-finite, unreadable)."""
        residuals, bad = {}, set()
        for i, op in enumerate(self.pool.ops):
            if i not in self.first_paths:
                bad.add(i)
                continue
            try:
                r = float(op.oracle(self.first_paths[i]))
            except Exception:  # unreadable output is a wrong output
                traceback.print_exc(file=sys.stderr)
                r = float("inf")
            residuals[i] = r
            if not r <= op.tolerance:
                bad.add(i)
        return residuals, bad


def measure_setup(pool, env: dict, drift) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import of covkit and its CLI, plus writing the
    workload's input files; SETUP_REPEATS times after one warm-up import
    that leaves compiled bytecode behind, as any installed copy has.
    Returns wall seconds and drift-scaled seconds."""
    cmd = [sys.executable, "-c", "import covkit, covkit.cli"]
    kw = dict(env=env, cwd=ROOT, check=True, timeout=120,
              stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **kw)
    timed = []
    for _ in range(SETUP_REPEATS):
        drift.sample()
        t0 = perf_counter()
        subprocess.run(cmd, **kw)
        pool.write_inputs()
        t1 = perf_counter()
        timed.append((t1 - t0, 0.5 * (t0 + t1)))
    drift.sample()
    return ([wall for wall, _ in timed],
            [wall * drift.scale(at) for wall, at in timed])


def timings(runs: list[Instance], units: list[int], setup: list[float],
            scaled: bool) -> dict:
    import stats

    times = [r.seconds if scaled else r.wall for r in runs]
    tail, pct, count = stats.tail(times)
    return {"setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times), "op_tail_s": tail,
            "elements_per_s": sum(units) / sum(times),
            "op_tail_percentile": pct, "op_count": count}


def end_to_end(pool, runs: list[Instance], bad: set[int],
               residuals: dict[int, float], setup: tuple) -> tuple[dict, dict]:
    failed = [not r.ok or r.op in bad for r in runs]
    units = [pool.ops[r.op].units for r, f in zip(runs, failed) if not f]
    scaled = timings(runs, units, setup[1], scaled=True)
    wall = timings(runs, units, setup[0], scaled=False)
    finite = [r for r in residuals.values() if r < float("inf")]
    values = {
        "setup_s": scaled["setup_s"],
        "op_p50_s": scaled["op_p50_s"],
        "op_tail_s": scaled["op_tail_s"],
        "elements_per_s": scaled["elements_per_s"],
        "residual_max": max(finite, default=float("nan")),
        "failed_frac": sum(failed) / len(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    kinds: dict[str, list[float]] = {}
    for r in runs:
        kinds.setdefault(pool.ops[r.op].kind, []).append(r.wall)
    extra = {"op_tail_percentile": scaled["op_tail_percentile"],
             "op_count": scaled["op_count"], "failed": sum(failed),
             "wall": wall, "setup_wall_s": setup[0],
             "kind_median_wall_s": {k: statistics.median(v)
                                    for k, v in kinds.items()}}
    return values, extra


def trace_overhead(untraced: list[Instance], traced: list[Instance]) -> float:
    """Median over ops of the op's traced median time over its untraced
    median time, minus 1.  Pairing by op keeps which op kind lands at the
    median of a mixed pool out of the figure."""
    plain: dict[int, list[float]] = {}
    spanned: dict[int, list[float]] = {}
    for r in untraced:
        plain.setdefault(r.op, []).append(r.seconds)
    for r in traced:
        spanned.setdefault(r.op, []).append(r.seconds)
    return statistics.median(
        statistics.median(spanned[i]) / statistics.median(plain[i])
        for i in spanned if i in plain) - 1.0


def per_layer(tracer, names, untraced: list[Instance],
              traced: list[Instance], passes: int, failed: int) -> dict:
    """Every per-layer metric in `names`, per traced pass.  `<layer>.calls`,
    `.s` and `.self_s` come from the spans, other `<layer>.<count>` names
    from the wrappers' counters; times are drift-scaled by the traced
    window's overall scale."""
    layers = tracer.layer_times()
    scale = sum(r.seconds for r in traced) / sum(r.wall for r in traced)
    out = {}
    for name in names:
        layer, key = name.rsplit(".", 1)
        if key in ("calls", "s", "self_s"):
            value = layers.get(layer, {}).get(key, 0.0)
            out[name] = value * (1.0 if key == "calls" else scale) / passes
        else:
            out[name] = tracer.counts.get(name, 0.0) / passes
    elements = out["transform.engine.elements"]
    points2 = out["signals.evaluate2.points"]
    useful = tracer.counts.get("signals.evaluate2.useful_points", 0.0) / passes
    self_total = sum(v["self_s"] for v in layers.values())
    out.update({
        "cli.failed": failed / passes,
        "signals.evaluate.points_per_element":
            out["signals.evaluate.points"] / elements if elements else 0.0,
        "signals.evaluate2.useful_frac": useful / points2 if points2 else 0.0,
        "trace.overhead_frac": trace_overhead(untraced, traced),
        "trace.unattributed_frac":
            1.0 - self_total / sum(r.wall for r in traced),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", default=None,
                        help="append the result as one JSON line to this file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "covkit" / "__init__.py").is_file():
        print(f"perfbench: no covkit source tree at {src}/covkit; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    blas = pin_environment()
    sys.path.insert(0, str(src))
    import numpy as np
    import covkit
    import calibrate
    import workloads

    if Path(covkit.__file__).resolve().parent != (src / "covkit").resolve():
        print(f"perfbench: imported covkit from {covkit.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        pool = workloads.build(args.workload, args.seed, args.size, workdir)
        drift = calibrate.Drift()
        setup = measure_setup(pool, env, drift)
        runner = Runner(pool, workdir, drift)
        budget = args.seconds / 2 if args.trace else args.seconds
        runs, passes = runner.passes(budget)
        traced, traced_passes, tracer = [], 0, None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                traced, traced_passes = runner.passes(budget, tracer)
            finally:
                tracer.uninstall()
        drift.sample()
        runner.rescale()
        residuals, bad = runner.check()
        values, extra = end_to_end(pool, runs, bad, residuals, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    all_runs = runs + traced
    failed = [r for r in all_runs if not r.ok or r.op in bad]
    failed_traced = sum(1 for r in traced if not r.ok or r.op in bad)
    for r in failed[:5]:
        print(f"perfbench: failed op {r.op} {r.message or pool.ops[r.op].kind}",
              file=sys.stderr)
    for i in sorted(bad):
        if i in residuals:
            print(f"perfbench: op {i} {pool.ops[i].kind} residual "
                  f"{residuals[i]:.3g} > tolerance {pool.ops[i].tolerance:.3g}",
                  file=sys.stderr)

    print(f"# perfbench {args.workload} seed={args.seed} size={args.size} "
          f"passes={passes} ops={len(runs)} ({len(pool.ops)} per pass)")
    for kind, med in extra["kind_median_wall_s"].items():
        worst = max((r for i, r in residuals.items()
                     if pool.ops[i].kind == kind), default=float("nan"))
        print(f"#   {kind:28s} median wall {med:.4f} s  worst residual "
              f"{worst:.3e}")
    e2e_units = metric_units("end_to_end")
    for name, value in values.items():
        wall = extra["wall"].get(name)
        unit = e2e_units.get(name, FAILED_FRAC_UNIT)
        print(f"{name} = {value!r} {unit}"
              + (f"  (wall {wall:.6g})" if wall is not None else ""))
    print(f"#   op_tail_s is percentile {extra['op_tail_percentile']:.2f} of "
          f"{extra['op_count']} ops; {extra['failed']} of {len(runs)} ops failed")

    result = {"correct": not failed, "attempted": len(all_runs),
              "failed": len(failed)}
    if args.trace:
        layer_units = metric_units("per_layer")
        layer = per_layer(tracer, layer_units, runs, traced, traced_passes,
                          failed_traced)
        result["metrics"] = {k: {"value": layer[k], "unit": unit}
                             for k, unit in layer_units.items()}
        for name, metric in result["metrics"].items():
            print(f"{name} = {metric['value']!r} {metric['unit']}")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        result["metrics"] = {k: {"value": values[k], "unit": unit}
                             for k, unit in e2e_units.items()}

    provenance = {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas,
        "covkit_threads": os.environ.get("COVKIT_THREADS"),
        "git_commit": git_commit(ROOT), "workload": args.workload,
        "spec": pool.spec, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    if args.record:
        record = {"provenance": provenance, "result": result, "extra": extra,
                  "end_to_end": values,
                  "residuals": {pool.ops[i].kind + f"#{i}": r
                                for i, r in residuals.items()}}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
