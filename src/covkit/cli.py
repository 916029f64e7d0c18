"""Command-line front end.

Subcommands map one-to-one onto the library surface: `transform` runs
the engine over a grid, `reconstruct` inverts a saved transform along
the Haar or Hardy route, `maximal`/`radon`/`numrange`/`mobius` run the
named examples, and `check` executes the seeded property suites.

All outputs are flat files (CSV for tables, JSON for reports) written
deterministically: identical configurations produce identical bytes.
Exit codes: 0 success, 1 domain error (and failing `check` suites)
or an output that cannot be written, 2 usage error (a missing or
directory input among them).  Domain diagnostics are one line on
stderr naming the module and operation that rejected the input.  An
output path whose directory is missing, or that is a directory, is
named with the system's reason, and an empty one is a usage error,
before any work (`_check_outputs`).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .checks import _suite_names, available_suites, run_suites
from .fiducials import _KINDS, parse_fiducial
from .groups import (GridAxis, GridSpecError, Su11Element, check_size,
                     make_grid, parse_axis)
from .inversion import (InadmissibleVacuumError, inverse_haar, inverse_hardy,
                        parse_a_sequence)
from .operators import (_mobius, _numrange, read_matrix_json,
                        read_vector_json, UnitaryOrbit, write_matrix_json)
from .representations import AffineRep, EuclideanRep
from .signals import (_write_table, read_signal_csv, read_signal2_csv,
                      write_signal_csv)
from .transform import (_maximal, _maximal_grid, covariant_transform,
                        line_motion, radon_transform, radon_values,
                        read_transform_csv, write_transform_csv)

class UsageError(Exception):
    """Bad invocation: malformed spec string or missing input file."""


class DomainError(Exception):
    """Valid invocation rejected by the mathematics; carries module.op."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


def _axis(label: str, spec: str) -> GridAxis:
    """The axis `kind:lo:hi:n` of the option label, as groups parses it."""
    return parse_axis(f"{label}={spec}")


def _parse_p(text: str) -> float:
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise UsageError(f"p must be a number >= 1 or 'inf', got {text!r}") \
            from None
    if not p >= 1.0:
        raise UsageError(f"p must be a number >= 1 or 'inf', got {text!r}")
    return p


# The words naming an input path that is not a file, whichever reader
# opened it: every input is read under _rebrand.
_NOT_A_FILE = {FileNotFoundError: "input file not found",
               NotADirectoryError: "input file not found",
               IsADirectoryError: "input is a directory, not a file"}


@contextlib.contextmanager
def _rebrand(where: str, as_usage: bool):
    """Tag the block's low-level errors with module.operation where."""
    try:
        yield
    except tuple(_NOT_A_FILE) as exc:
        raise UsageError(f"{_NOT_A_FILE[type(exc)]}: {exc.filename}") \
            from None
    except (ValueError, OSError) as exc:
        if as_usage:
            raise UsageError(f"{where}: {exc}") from None
        raise DomainError(where, str(exc)) from None


def _domain(where: str):
    return _rebrand(where, as_usage=False)


def _usage(where: str):
    """For spec-string parsing: malformed specs are invocation mistakes."""
    return _rebrand(where, as_usage=True)


def _check_outputs(ns) -> None:
    """Before any work: raise a usage error naming the option of an empty
    output path of ns, and the OSError that writing would raise on one
    whose directory is missing or that is a directory.  Only such a path
    is opened, so no file is created."""
    for option in ("out", "report", "hull"):
        path = vars(ns).get(option)
        if path == "":
            raise UsageError(f"--{option} must name a file, got an empty "
                             "path")
        if path and (os.path.isdir(path) or not os.path.isdir(
                os.path.dirname(path) or ".")):
            open(path, "a").close()


def _write_report(report: dict, path) -> None:
    """report as sorted, indented JSON at path, or on stdout without one."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _read_vacuum(path):
    """The vacuum of an `inner:<path>` fiducial: a missing file is a
    usage error, a malformed one a domain error, as for --signal."""
    with _domain("signals.read_signal_csv"):
        return read_signal_csv(path)


def _check_fiducial(kind: str, group: str, tail: str) -> None:
    """Raise a usage error, before any input is read, when the group's
    transform does not read a fiducial of this kind (its spec up to the
    first colon; radonline is the one kind of e2), or when a tail model
    is asked of a kind without one (inner, avg, radonline).  An unknown
    kind is left to parse_fiducial."""
    if kind not in _KINDS:
        return
    want = "e2" if kind == "radonline" else "affine"
    if want != group:
        raise UsageError(f"fiducial {kind!r} is read on the {want} group, "
                         f"not on --group {group}")
    if tail == "rational-tail" and kind in ("inner", "avg", "radonline"):
        raise UsageError(f"--tail rational-tail has no tail model for "
                         f"fiducial {kind!r}; it applies to the Cauchy, "
                         "combo, jump and Poisson kinds")


def _cmd_transform(ns) -> int:
    grid = make_grid(ns.grid)
    if grid.group != ns.group:
        raise UsageError(f"grid is over {grid.group!r} but --group says "
                         f"{ns.group!r}")
    if ns.group == "affine":
        rep = AffineRep(_parse_p(ns.p))
    else:
        if ns.p != "2":
            raise UsageError("--p applies to the affine group only")
        rep = EuclideanRep()
    _check_fiducial(ns.fiducial.partition(":")[0], ns.group, ns.tail)
    with _usage("fiducials.parse_fiducial"):
        fid = parse_fiducial(ns.fiducial, read_signal=_read_vacuum,
                             tail_policy=ns.tail)
    reader = read_signal2_csv if fid.signal_ndim == 2 else read_signal_csv
    with _domain(f"signals.{reader.__name__}"):
        v = reader(ns.signal)
    with _domain("transform.covariant_transform"):
        res = covariant_transform(rep, fid, v, grid)
    write_transform_csv(res, ns.out)
    print(f"wrote {ns.out} ({len(grid)} rows, output dim {res.output_dim})")
    return 0


def _cmd_reconstruct(ns) -> int:
    hardy = ns.route == "hardy"
    rep = AffineRep(_parse_p(ns.p) if ns.p else (1.0 if hardy else 2.0))
    a_sequence = None
    if ns.a_sequence:
        if not hardy:
            raise UsageError("--a-sequence applies to the hardy route only")
        with _usage("inversion.parse_a_sequence"):
            a_sequence = parse_a_sequence(ns.a_sequence)
    with _domain("transform.read_transform_csv"):
        w = read_transform_csv(ns.transform)
    with _domain("signals.read_signal_csv"):
        v0 = read_signal_csv(ns.vacuum)
        ref = read_signal_csv(ns.reference) if ns.reference else None
    if hardy:
        with _domain("inversion.inverse_hardy"):
            report = inverse_hardy(w, rep, v0, a_sequence, reference=ref)
    else:
        with _domain("inversion.inverse_haar"):
            report = inverse_haar(w, rep, v0, reference=ref)
    if ns.out:
        write_signal_csv(report.result, ns.out)
    _write_report(report.to_json_dict(), ns.report)
    return 0


def _cmd_maximal(ns) -> int:
    grid = _maximal_grid(ns.b_grid, ns.a_grid)
    with _domain("signals.read_signal_csv"):
        f = read_signal_csv(ns.signal)
    with _domain("transform.hardy_maximal"):
        m = _maximal(f, grid)
    write_signal_csv(m, ns.out)
    print(f"wrote {ns.out} ({m.n} rows)")
    return 0


def _cmd_radon(ns) -> int:
    if bool(ns.grid) == bool(ns.thetas or ns.offsets):
        raise UsageError("give either --grid or both --thetas and --offsets")
    if ns.grid:
        motions = make_grid(ns.grid)
    else:
        if not (ns.thetas and ns.offsets):
            raise UsageError("sinogram mode needs both --thetas and --offsets")
        theta_axis = _axis("thetas", ns.thetas)
        offset_axis = _axis("offsets", ns.offsets)
        check_size("the sinogram", theta_axis.n * offset_axis.n)
        thetas, offsets = theta_axis.values(), offset_axis.values()
        motions = [line_motion(t, d) for t in thetas for d in offsets]
    with _domain("signals.read_signal2_csv"):
        f = read_signal2_csv(ns.signal)
    if ns.grid:
        with _domain("transform.radon_transform"):
            res = radon_transform(f, motions)
        write_transform_csv(res, ns.out)
        print(f"wrote {ns.out} ({len(motions)} rows)")
        return 0
    with _domain("transform.radon_values"):
        vals = radon_values(f, motions)
    _write_table(ns.out, ["theta", "offset", "re", "im"],
                 (thetas.repeat(offsets.size), np.tile(offsets, thetas.size),
                  vals.real, vals.imag),
                 comment=f"sinogram thetas={ns.thetas} offsets={ns.offsets}")
    print(f"wrote {ns.out} ({len(motions)} rows)")
    return 0


def _cmd_numrange(ns) -> int:
    if ns.n_theta < 1:
        raise UsageError(f"--n-theta must be at least 1, got {ns.n_theta}")
    check_size("--n-theta", ns.n_theta)
    t_vals = _axis("t-grid", ns.t_grid).values()
    with _domain("operators.read_matrix_json"):
        a = read_matrix_json(ns.matrix)
        h = read_matrix_json(ns.hermitian)
    with _domain("operators.read_vector_json"):
        x = read_vector_json(ns.x)
    with _domain("operators.numrange_transform"):
        orbit = UnitaryOrbit(h, x, t_vals)
        # the certificate and the hull share each direction's eigensolve
        forms, hull = _numrange(a, orbit, ns.n_theta, hull=bool(ns.hull))
    _write_table(ns.out, ["t", "re", "im"], (t_vals, forms.real, forms.imag),
                 comment=f"numrange t_grid={ns.t_grid}")
    if ns.hull:
        _write_table(ns.hull, ["re", "im"], (hull.real, hull.imag),
                     comment=f"numrange-hull n_theta={ns.n_theta}")
    print(f"wrote {ns.out} ({len(t_vals)} rows)")
    return 0


def _cmd_mobius(ns) -> int:
    try:
        alpha, beta = complex(ns.alpha), complex(ns.beta)
    except ValueError:
        raise UsageError("--alpha/--beta must be complex literals like "
                         "'1.25+0.5j'") from None
    with _domain("groups.Su11Element"):
        g = Su11Element(alpha, beta)
    with _domain("operators.read_matrix_json"):
        a = read_matrix_json(ns.matrix)
    with _domain("operators.mobius_apply"):
        moved, rho = _mobius(g, a)
    write_matrix_json(ns.out, moved)
    print(f"wrote {ns.out} (spectral radius {rho:.12g})")
    return 0


def _cmd_check(ns) -> int:
    suites = tuple(ns.suite) if ns.suite else ("all",)
    # the names and the seed are checked before the suites run
    try:
        _suite_names(suites)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if ns.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got "
                         f"{ns.seed}")
    report = run_suites(suites, seed=ns.seed)
    _write_report(report, ns.out)
    if ns.out:
        print(f"{report['n_checks'] - report['n_failed']}/"
              f"{report['n_checks']} checks passed (seed {report['seed']})")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built by the first
    (not at import).  parse_args leaves no state in it: each call starts
    a fresh namespace from the defaults."""
    top = argparse.ArgumentParser(
        prog="covkit",
        description="Covariant transforms over concrete groups: run the "
                    "engine, invert transforms, and verify the library's "
                    "property suites.")
    sub = top.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="run the covariant transform over "
                                         "a group grid")
    t.add_argument("--group", choices=("affine", "e2"), required=True)
    t.add_argument("--p", default="2", help="affine L_p exponent (or 'inf')")
    t.add_argument("--fiducial", required=True,
                   help="cauchy+ | cauchy- | combo:<c+>:<c-> | jump | poisson"
                        " | inner:<v0.csv> | avg | radonline")
    t.add_argument("--signal", required=True, help="input signal CSV")
    t.add_argument("--grid", required=True, help="group grid spec string")
    t.add_argument("--tail", choices=("truncate", "rational-tail"),
                   default="truncate")
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_transform)

    r = sub.add_parser("reconstruct", help="invert a saved transform")
    r.add_argument("--route", choices=("haar", "hardy"), required=True)
    r.add_argument("--transform", required=True, help="transform CSV")
    r.add_argument("--vacuum", required=True, help="vacuum signal CSV")
    r.add_argument("--p", default=None,
                   help="synthesis exponent (default 2 haar / 1 hardy)")
    r.add_argument("--a-sequence", default=None, help="geo:<a0>:<ratio>:<n>")
    r.add_argument("--reference", default=None, help="reference signal CSV")
    r.add_argument("--out", default=None, help="reconstructed signal CSV")
    r.add_argument("--report", default=None, help="report JSON path "
                                                  "(default: stdout)")
    r.set_defaults(func=_cmd_reconstruct)

    m = sub.add_parser("maximal", help="averaged-modulus maximal function")
    m.add_argument("--signal", required=True)
    m.add_argument("--a-grid", required=True, help="e.g. log:0.05:20:200")
    m.add_argument("--b-grid", required=True,
                   help="a lin axis, e.g. lin:-4:4:161")
    m.add_argument("--out", required=True)
    m.set_defaults(func=_cmd_maximal)

    d = sub.add_parser("radon", help="line integrals over Euclidean motions")
    d.add_argument("--signal", required=True, help="2D signal CSV")
    d.add_argument("--grid", default=None, help="e2 grid spec string")
    d.add_argument("--thetas", default=None, help="angle axis kind:lo:hi:n")
    d.add_argument("--offsets", default=None,
                   help="signed line offsets kind:lo:hi:n")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_radon)

    n = sub.add_parser("numrange", help="numerical-range samples along a "
                                        "unitary orbit")
    n.add_argument("--matrix", required=True, help="operator JSON")
    n.add_argument("--hermitian", required=True, help="orbit generator JSON")
    n.add_argument("--x", required=True, help="unit vector JSON")
    n.add_argument("--t-grid", required=True, help="kind:lo:hi:n")
    n.add_argument("--n-theta", type=int, default=360)
    n.add_argument("--hull", default=None, help="also write hull boundary CSV")
    n.add_argument("--out", required=True)
    n.set_defaults(func=_cmd_numrange)

    b = sub.add_parser("mobius", help="disc automorphism acting on a "
                                      "contraction matrix")
    b.add_argument("--alpha", required=True)
    b.add_argument("--beta", required=True)
    b.add_argument("--matrix", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_mobius)

    c = sub.add_parser("check", help="run seeded property suites")
    c.add_argument("--suite", action="append", default=None,
                   help=f"one of {', '.join(available_suites())} "
                        "(repeatable; default all)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None, help="report JSON path "
                                               "(default: stdout)")
    c.set_defaults(func=_cmd_check)
    return top


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        _check_outputs(ns)
        return ns.func(ns)
    except (UsageError, GridSpecError) as exc:
        print(f"covkit: usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"covkit: {exc}", file=sys.stderr)
        return 1
    except InadmissibleVacuumError as exc:
        print(f"covkit: inversion.admissibility_constant: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        # an output that cannot be written (inputs are read under _rebrand)
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"covkit: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
