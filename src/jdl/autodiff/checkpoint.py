"""Flat binary weight checkpoints.

Layout: 5-byte magic ``JDLW1``, then per-tensor records until EOF. Each
record is u64-LE name length, UTF-8 name, u64-LE rank, rank u64-LE dims,
then the row-major float64-LE data. Records are written in sorted name
order so files are byte-reproducible. A save writes a temporary file next to
the target and renames it over the target, so a failed save leaves the
previous checkpoint intact.

The graph computes in float32 (``tensor.DTYPE``), but the file stays
float64: every float32 value is exactly a float64 value, so widening on save
and narrowing back on load (``JointModel.load_state``,
``load_training_checkpoint``) restores each array bit for bit, and the
format does not depend on the compute dtype.
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


def check_shapes(arrays: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """Raise ``CheckpointMismatch`` unless ``arrays`` holds every name in
    ``shapes`` at its shape. It only reads, so a caller that checks first
    assigns nothing from a rejected checkpoint."""
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise CheckpointMismatch(f"checkpoint missing {missing[:3]}...")
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise CheckpointMismatch(
                f"{name}: checkpoint shape {arrays[name].shape} != expected {shape}")


def load_weights(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any malformed file raises ``CheckpointMismatch``.

    Each field is read from the file straight into its own array, so a load
    holds the checkpoint once."""
    path = Path(path)
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        total = os.fstat(f.fileno()).st_size
        if f.read(len(MAGIC)) != MAGIC:
            raise CheckpointMismatch(f"{path}: not a JDLW1 checkpoint")
        pos = len(MAGIC)

        def read(count: int, dtype: str, what: str) -> np.ndarray:
            # the size bound comes before the allocation, the length check
            # after the read catches a file that shrank since fstat
            nonlocal pos
            if count > (total - pos) // np.dtype(dtype).itemsize:
                raise CheckpointMismatch(f"{path}: truncated {what} at byte {pos}")
            buf = np.empty(count, dtype=dtype)
            if f.readinto(buf) != buf.nbytes:
                raise CheckpointMismatch(f"{path}: truncated {what} at byte {pos}")
            pos += buf.nbytes
            return buf

        while pos < total:
            (name_len,) = read(1, "<u8", "name length")
            try:
                name = read(int(name_len), "u1", "name").tobytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointMismatch(f"{path}: name before byte {pos} is not UTF-8") from exc
            (rank,) = read(1, "<u8", "rank")
            dims = tuple(int(d) for d in read(int(rank), "<u8", f"dims of {name!r}"))
            data = read(math.prod(dims), "<f8", f"data for {name!r}")
            try:
                # only an empty tensor can get here with a shape numpy refuses
                out[name] = data.reshape(dims)
            except ValueError as exc:
                raise CheckpointMismatch(f"{path}: bad shape {dims} for {name!r}") from exc
    return out
