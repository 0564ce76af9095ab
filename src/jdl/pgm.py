"""Binary PGM (P5, 8-bit) image writer, mapping [-1, 1] floats to [0, 255]."""

from __future__ import annotations

import numpy as np

from .errors import IoError


def write_pgm(path, img: np.ndarray) -> None:
    """Write a 2-d image; values outside [-1, 1] clip to 0 or 255, and an
    image that is not 2-d raises ``IoError``."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise IoError(f"PGM writer expects a 2-d image, got shape {img.shape}")
    h, w = img.shape
    data = np.clip(np.round((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
