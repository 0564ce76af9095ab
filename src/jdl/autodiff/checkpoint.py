"""Flat binary weight checkpoints.

Layout: 5-byte magic ``JDLW1``, then per-tensor records until EOF. Each
record is u64-LE name length, UTF-8 name, u64-LE rank, rank u64-LE dims,
then the row-major float64-LE data. Records are written in sorted name
order so files are byte-reproducible. A save writes a temporary file next to
the target and renames it over the target, so a failed save leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from pathlib import Path

import numpy as np

from ..errors import CheckpointMismatch

MAGIC = b"JDLW1"


def save_weights(path, named: dict[str, np.ndarray]) -> None:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            for name in sorted(named):
                arr = np.asarray(named[name], dtype="<f8")  # tobytes() emits C order
                raw = name.encode("utf-8")
                f.write(struct.pack("<Q", len(raw)))
                f.write(raw)
                f.write(struct.pack("<Q", arr.ndim))
                f.write(np.asarray(arr.shape, dtype="<u8").tobytes())
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any malformed file raises ``CheckpointMismatch``."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:5] != MAGIC:
        raise CheckpointMismatch(f"{path}: not a JDLW1 checkpoint")
    out: dict[str, np.ndarray] = {}
    pos = 5
    total = len(blob)

    def read_u64s(count: int, what: str) -> tuple:
        nonlocal pos
        if count > (total - pos) // 8:
            raise CheckpointMismatch(f"{path}: truncated {what} at byte {pos}")
        values = struct.unpack_from(f"<{count}Q", blob, pos)
        pos += 8 * count
        return values

    while pos < total:
        (name_len,) = read_u64s(1, "name length")
        if name_len > total - pos:
            raise CheckpointMismatch(f"{path}: truncated name at byte {pos}")
        try:
            name = blob[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointMismatch(f"{path}: name at byte {pos} is not UTF-8") from exc
        pos += name_len
        (rank,) = read_u64s(1, "rank")
        dims = read_u64s(rank, f"dims of {name!r}")
        count = math.prod(dims)
        if count > (total - pos) // 8:
            raise CheckpointMismatch(f"{path}: truncated data for {name!r}")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=pos)
        try:
            # only an empty tensor can get here with a shape numpy refuses
            out[name] = data.reshape(dims).copy()
        except ValueError as exc:
            raise CheckpointMismatch(f"{path}: bad shape {dims} for {name!r}") from exc
        pos += 8 * count
    return out
