"""Deterministic random stream derivation.

All randomness in the package flows from a single 64-bit experiment seed.
Independent consumers get their own streams keyed by a purpose tag and an
integer index, so adding or removing one consumer never shifts the draws
seen by another: stream identity is (seed, crc32(tag), index), nothing else.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigInvalid, is_count

SEED_LIMIT = 2**64


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the generator for stream (seed, tag, index).

    Calling this twice with the same arguments yields generators that
    produce identical sequences. A seed or index that is not an integer, a
    seed outside [0, 2**64), a negative index or a tag that is not a ``str``
    raises ``ConfigInvalid``.
    """
    if not (is_count(seed) and is_count(index)):
        raise ConfigInvalid(f"seed and index must be integers, got {seed!r} and {index!r}")
    if not 0 <= seed < SEED_LIMIT:
        # a seed outside 64 bits would alias one inside them
        raise ConfigInvalid(f"seed must lie in [0, 2**64), got {seed}")
    if index < 0:
        raise ConfigInvalid(f"index must be >= 0, got {index}")
    if not isinstance(tag, str):
        raise ConfigInvalid(f"tag must be a str, got {tag!r}")
    key = (int(seed), zlib.crc32(tag.encode("utf-8")), int(index))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))

