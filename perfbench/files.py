"""Writers for the benchmark's input files and readers for covkit's outputs.

The benchmark never uses covkit to make or parse files: inputs are
written here in covkit's documented formats (signal CSV `x,re,im`, 2D
signal CSV `x,y,re,im`, matrix/vector JSON with `[re, im]` pairs) and
outputs are parsed here, so a defect in covkit's own readers or writers
shows up as a failed op instead of cancelling out.
"""
from __future__ import annotations

import io
import json

import numpy as np


def _rows(columns) -> str:
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*cols))


def write_signal(path, x0: float, dx: float, values) -> None:
    values = np.asarray(values, dtype=complex)
    xs = x0 + dx * np.arange(values.size)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,re,im\n")
        fh.write(_rows((xs, values.real, values.imag)))


def write_signal2(path, lo: float, step: float, values) -> None:
    """values[iy, ix] sits at (lo + ix*step, lo + iy*step)."""
    values = np.asarray(values, dtype=complex)
    ny, nx = values.shape
    coords_x = lo + step * np.arange(nx)
    coords_y = lo + step * np.arange(ny)
    X, Y = np.meshgrid(coords_x, coords_y)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,re,im\n")
        fh.write(_rows((X.ravel(), Y.ravel(), values.real.ravel(),
                        values.imag.ravel())))


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"matrix": [_pairs(row) for row in np.asarray(a, complex)]},
                  fh)


def write_vector(path, x) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vector": _pairs(np.asarray(x, complex).ravel())}, fh)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Column names and float rows of a CSV whose '#' lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no header")
    header = lines[0].split(",")
    data = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",",
                      ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns, header has "
                         f"{len(header)}")
    return header, data


def read_matrix(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)["matrix"]
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def column(header: list[str], data: np.ndarray, name: str) -> np.ndarray:
    return data[:, header.index(name)]


def complex_columns(header: list[str], data: np.ndarray) -> np.ndarray:
    """Values of a covkit table as complex, one column per re_k/im_k pair
    (or the single re/im pair)."""
    if "re" in header:
        return (column(header, data, "re")
                + 1j * column(header, data, "im"))[:, None]
    k = 0
    out = []
    while f"re_{k}" in header:
        out.append(column(header, data, f"re_{k}")
                   + 1j * column(header, data, f"im_{k}"))
        k += 1
    return np.stack(out, axis=1)
