"""On-disk formats shared with downstream tooling.

Snapshot format (one file per field, field name in the filename):
    magic "ISOF" | version u32 | d u32 | n u32 | ell f64 | t f64 |
    n^d f64 samples, little-endian, row-major.

Diagnostics go to CSV (one row per sample time, fixed column order) next to a
JSON header describing the column semantics; run metadata goes to JSON.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .diagnostics import DiagnosticsRecord
from .spectral import Grid

__all__ = [
    "Snapshot",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "write_snapshot",
    "read_snapshot",
    "snapshot_path",
    "write_diagnostics_csv",
    "write_metadata",
    "config_hash",
]

SNAPSHOT_MAGIC = b"ISOF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdd")


def snapshot_path(out_dir, field_name: str, t: float) -> Path:
    return Path(out_dir) / f"snap_t{t:.6f}_{field_name}.isof"


class Snapshot(NamedTuple):
    """The samples of one field read back from a snapshot file."""

    grid: Grid
    values: np.ndarray


def write_snapshot(path, grid: Grid, values, t: float) -> Path:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, grid.d, grid.n, grid.ell, t))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return path


def read_snapshot(path) -> tuple[Snapshot, float]:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot header ({len(data)} bytes)")
    magic, version, d, n, ell, t = _HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: not a snapshot file (magic {magic!r})")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if d not in (1, 2, 3) or len(data) != _HEADER.size + 8 * n**d:
        raise ValueError(f"{path}: {len(data) - _HEADER.size} data bytes, not a d={d} n={n} grid")
    grid = Grid(d, ell, n)
    raw = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return Snapshot(grid, raw.reshape(grid.shape).copy()), t


def write_diagnostics_csv(out_dir, records, d: int, stem: str = "diagnostics") -> Path:
    """One CSV row per record plus a JSON header with column semantics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = DiagnosticsRecord.csv_columns(d)
    path = out_dir / f"{stem}.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for rec in records:
            w.writerow(["%.17g" % v for v in rec.csv_row()])
    header = {
        "columns": cols,
        "semantics": DiagnosticsRecord.column_semantics(),
        "units": "dimensionless (self-similar variables)",
    }
    with open(out_dir / f"{stem}.columns.json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
    return path


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def write_metadata(out_dir, meta: dict, stem: str = "metadata") -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.json"
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
    return path
