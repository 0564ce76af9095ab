"""Binary PGM (P5, 8-bit) image files, mapping [-1, 1] floats to [0, 255]."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IoError


def write_pgm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise IoError(f"PGM writer expects a 2-d image, got shape {img.shape}")
    h, w = img.shape
    data = np.clip(np.round((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM; a malformed file raises ``IoError``."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"P5"):
        raise IoError(f"{path}: not a binary PGM")
    # header: magic, width, height, maxval, one whitespace, then raster
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment line
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if not all(f.isdigit() for f in fields):
        raise IoError(f"{path}: header fields {fields} are not all decimal numbers")
    pos += 1  # single whitespace before raster
    w, h, maxval = (int(x) for x in fields)
    if maxval != 255:
        raise IoError(f"{path}: only 8-bit PGM supported")
    if w < 1 or h < 1 or len(blob) - pos < w * h:
        raise IoError(f"{path}: no {w}x{h} raster after a {pos}-byte header "
                      f"in {len(blob)} bytes")
    raster = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    return raster.reshape(h, w).astype(np.float64) / 127.5 - 1.0
