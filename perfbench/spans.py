"""Layer spans recorded from outside covkit.

`Tracer.install()` replaces each traced public function of covkit under
every name a caller bound it to (`covkit.signals.evaluate`,
`covkit.representations.evaluate`, `covkit.fiducials.evaluate`, ...) and
`Fiducial.__call__` on its class, with a wrapper that records a span
(name, start, end, parent span, op id) in flat in-memory arrays.
`uninstall()` puts the originals back.  Nothing inside covkit changes.

A span's self time is its duration minus the time its child spans
cover.  Calls run on one thread and nest, so the children of a span are
disjoint and the self times of all spans of one op add up to the root
(`cli`) span exactly.
"""
from __future__ import annotations

import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# (module, attribute, span name, counter).  A counter receives the call's
# args, kwargs and result and returns {count name: amount}.
def _targets():
    import covkit.cli
    import covkit.fiducials
    import covkit.groups
    import covkit.inversion
    import covkit.operators
    import covkit.representations
    import covkit.signals
    import covkit.transform

    ops_samples = {
        "numrange_transform": lambda a, k, r: {"samples": len(r)},
        "numerical_range_hull": lambda a, k, r: {"samples": len(r)},
        "mobius_apply": lambda a, k, r: {"samples": 1},
    }
    t = [
        (covkit.cli, "main", "cli", None),
        (covkit.groups, "make_grid", "groups.make_grid",
         lambda a, k, r: {"elements": len(r)}),
        (covkit.signals, "evaluate", "signals.evaluate",
         lambda a, k, r: {"points": _size(a[1])}),
        (covkit.signals, "evaluate2", "signals.evaluate2",
         lambda a, k, r: {"points": _size(a[1])}),
        (covkit.signals, "read_signal_csv", "signals.csv",
         lambda a, k, r: {"bytes": _file_bytes(a[0])}),
        (covkit.signals, "read_signal2_csv", "signals.csv",
         lambda a, k, r: {"bytes": _file_bytes(a[0])}),
        (covkit.signals, "write_signal_csv", "signals.csv",
         lambda a, k, r: {"bytes": _file_bytes(a[1])}),
        (covkit.representations, "apply", "representations.apply", None),
        (covkit.transform, "covariant_transform", "transform.engine",
         lambda a, k, r: {"elements": len(a[3])}),
        (covkit.transform, "radon_values", "transform.engine",
         lambda a, k, r: {"elements": len(r)}),
        (covkit.transform, "hardy_maximal", "transform.engine", None),
        (covkit.transform, "radon_transform", "transform.engine", None),
        (covkit.transform, "write_transform_csv", "transform.csv",
         lambda a, k, r: {"bytes": _file_bytes(a[1])}),
        (covkit.transform, "read_transform_csv", "transform.csv",
         lambda a, k, r: {"bytes": _file_bytes(a[0])}),
        (covkit.inversion, "inverse_haar", "inversion.synthesis",
         lambda a, k, r: {"points": r.result.n * len(a[0].grid)}),
        (covkit.inversion, "inverse_hardy", "inversion.synthesis",
         lambda a, k, r: {"points": r.result.n * len(a[0].grid)}),
        (covkit.inversion, "admissibility_constant", "inversion.admissibility",
         None),
    ]
    for name in ("mobius_apply", "numerical_range_hull", "numrange_transform",
                 "spectral_radius", "support_function", "read_matrix_json",
                 "read_vector_json", "write_matrix_json"):
        t.append((covkit.operators, name, "operators", ops_samples.get(name)))
    return t


# The evaluate2 call inside the Radon line fiducial reads the one line
# that is integrated; every other evaluate2 point is interpolated only to
# move the whole image.
_USEFUL = {("covkit.fiducials", "evaluate2"): "useful_points"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.op = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, counter, extra: str | None):
        nid = self._nid(name)
        start, end, parent, name_id, op = (self.start, self.end, self.parent,
                                           self.name_id, self.op)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += amount
                    if extra:
                        counts[f"{name}.{extra}"] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import covkit.fiducials

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "covkit" or n.startswith("covkit."))]
        for home, attr, name, counter in _targets():
            original = getattr(home, attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        extra = _USEFUL.get((mod.__name__, key))
                        self._saved.append((mod, key, val))
                        setattr(mod, key, self._wrap(original, name, counter,
                                                     extra))
        cls = covkit.fiducials.Fiducial
        self._saved.append((cls, "__call__", cls.__call__))
        cls.__call__ = self._wrap(cls.__call__, "fiducials.call", None, None)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._saved):
            setattr(owner, key, val)
        self._saved.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (outermost spans only) and self s."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        nid = np.array(self.name_id, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        outer = ~has_parent.copy()
        outer[has_parent] = nid[parent[has_parent]] != nid[has_parent]
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            out[name] = {"calls": float(np.count_nonzero(mask)),
                         "s": float(dur[mask & outer].sum()),
                         "self_s": float(self_s[mask].sum())}
        return out

    def write(self, path) -> None:
        """One line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n")
