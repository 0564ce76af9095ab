"""Binary PGM (P5, 8-bit) image writer, mapping [-1, 1] floats to [0, 255]."""

from __future__ import annotations

import numpy as np

from .errors import IoError


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-d image; values outside [-1, 1] clip to 0 or 255. An image
    that is not 2-d, is empty or holds a NaN or an infinity raises
    ``IoError`` before the file is opened."""
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise IoError(f"PGM writer expects a non-empty 2-d image, got shape {img.shape}")
    if not np.isfinite(img).all():
        # NaN would be written as 0 and an infinity as 255, with no error
        raise IoError("PGM writer got a NaN or infinite pixel")
    h, w = img.shape
    data = np.clip(np.round((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
