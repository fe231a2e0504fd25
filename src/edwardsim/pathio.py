"""Path serialization: text CSV and a small packed binary format.

CSV carries full float64 precision (%.17g round-trips). The binary layout
is a 16-byte header  magic "FBMP" | version u32 | N u32 | d u32  (all
little-endian) followed by the time column and the d component columns as
contiguous little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cameron_martin import CMShift, make_shift_from_target
from .fbm import FbmPath, GridCovariance, _covariance_for
from .params import ModelParams, TimeGrid

__all__ = [
    "write_path_csv",
    "read_path_csv",
    "write_path_binary",
    "read_path_binary",
    "write_shift_csv",
    "read_shift_csv",
    "BINARY_MAGIC",
    "BINARY_VERSION",
]

BINARY_MAGIC = b"FBMP"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIII")


def _columns(path: FbmPath) -> tuple[np.ndarray, list[str]]:
    d = path.values.shape[1]
    header = ["t"] + [f"x_{c + 1}" for c in range(d)]
    table = np.column_stack([path.grid.points, path.values])
    return table, header


def _rebuild(params: ModelParams, grid: TimeGrid, values: np.ndarray) -> FbmPath:
    # The file fixes N and T; H, d, g, seed come from the caller's model.
    # The path keeps the file's grid, the covariance builds its own.
    cov = GridCovariance(replace(params, N=grid.n, T=grid.horizon))
    return FbmPath(grid=grid, values=values, cov=cov)


def write_path_csv(dest, path: FbmPath) -> None:
    table, header = _columns(path)
    np.savetxt(dest, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def read_path_csv(src, params: ModelParams) -> FbmPath:
    table = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != params.d + 1:
        raise ValueError(
            f"expected {params.d + 1} columns for d={params.d}, found {table.shape[1]}"
        )
    grid = TimeGrid(np.ascontiguousarray(table[:, 0]))
    return _rebuild(params, grid, np.ascontiguousarray(table[:, 1:]))


def write_path_binary(dest, path: FbmPath) -> None:
    n, d = path.values.shape
    payload = _HEADER.pack(BINARY_MAGIC, BINARY_VERSION, n, d)
    cols = [path.grid.points] + [path.values[:, c] for c in range(d)]
    body = b"".join(np.ascontiguousarray(c, dtype="<f8").tobytes() for c in cols)
    Path(dest).write_bytes(payload + body)


def write_shift_csv(dest, shift: CMShift) -> None:
    """Shift target as CSV with header t, k_1..k_d."""
    d = shift.k.shape[1]
    header = ["t"] + [f"k_{c + 1}" for c in range(d)]
    table = np.column_stack([shift.grid.points, shift.k])
    np.savetxt(dest, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def read_shift_csv(src, params: ModelParams, *, cov: GridCovariance | None = None) -> CMShift:
    """Shift from CSV; the time column must match the model grid exactly
    (the representer solve reuses the cached covariance factor). `cov` is
    taken as in make_shift_from_target."""
    cov = _covariance_for(params, cov)
    table = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != params.d + 1:
        raise ValueError(
            f"expected {params.d + 1} columns for d={params.d}, found {table.shape[1]}"
        )
    if table.shape[0] != cov.grid.n or np.max(
        np.abs(table[:, 0] - cov.grid.points)
    ) > 1e-12 * cov.grid.horizon:
        raise ValueError("shift file time column does not match the model grid")
    return make_shift_from_target(params, np.ascontiguousarray(table[:, 1:]), cov=cov)


def read_path_binary(src, params: ModelParams) -> FbmPath:
    blob = Path(src).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError("truncated path file")
    magic, version, n, d = _HEADER.unpack_from(blob)
    if magic != BINARY_MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a packed path file")
    if version != BINARY_VERSION:
        raise ValueError(f"unsupported path file version {version}")
    expect = _HEADER.size + 8 * n * (d + 1)
    if len(blob) != expect:
        raise ValueError(f"path file length {len(blob)} does not match header (want {expect})")
    if d != params.d:
        raise ValueError(f"file has d={d}, model has d={params.d}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    cols = flat.reshape(d + 1, n)
    grid = TimeGrid(np.array(cols[0], dtype=float))
    return _rebuild(params, grid, np.array(cols[1:].T, dtype=float))
