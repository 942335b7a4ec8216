"""Binary on-disk format for per-round server state.

Layout (all integers little-endian):

    magic       8 bytes  b"FMSNAP01"
    strategy    u32 length + utf-8 bytes
    round       u64
    n_entries   u64
    entry*      u32 label length + utf-8 label,
                u32 ndim, u64 * ndim extents,
                float64 little-endian values (row-major)

Entries are written in sorted label order, so identical state produces
identical bytes.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

__all__ = ["write_snapshot", "read_snapshot"]

MAGIC = b"FMSNAP01"


def write_snapshot(path: str | Path, strategy: str, round_index: int, entries: Mapping[str, np.ndarray]) -> None:
    path = Path(path)
    sid = strategy.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(sid)))
        fh.write(sid)
        fh.write(struct.pack("<Q", int(round_index)))
        fh.write(struct.pack("<Q", len(entries)))
        for label in sorted(entries):
            arr = np.asarray(entries[label], dtype="<f8")
            lab = label.encode("utf-8")
            fh.write(struct.pack("<I", len(lab)))
            fh.write(lab)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(arr.tobytes())


def read_snapshot(path: str | Path) -> tuple[str, int, dict[str, np.ndarray]]:
    """Parse a snapshot file; any truncation, corrupt count or repeated label raises a ValueError naming the file."""
    path = Path(path)
    buf = path.read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: truncated in {what} (needs {n} bytes at offset {pos}, file has {len(buf)})")
        pos += n
        return buf[pos - n:pos]

    def text(what: str) -> str:
        (length,) = struct.unpack("<I", take(4, f"{what} length"))
        try:
            return take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {what} is not utf-8 ({exc})") from None

    if take(len(MAGIC), "magic") != MAGIC:
        raise ValueError(f"{path}: not a round snapshot file")
    strategy = text("strategy")
    (round_index,) = struct.unpack("<Q", take(8, "round"))
    (n_entries,) = struct.unpack("<Q", take(8, "entry count"))
    entries: dict[str, np.ndarray] = {}
    for index in range(n_entries):
        label = text(f"entry {index} label")
        if label in entries:
            raise ValueError(f"{path}: entry {index} repeats the label {label!r}")
        (ndim,) = struct.unpack("<I", take(4, f"entry {label!r} ndim"))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"entry {label!r} extents"))
        raw = take(8 * math.prod(shape), f"entry {label!r} values")
        entries[label] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes after {n_entries} entries")
    return strategy, round_index, entries
