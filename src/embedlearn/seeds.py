"""Deterministic per-component random streams from one global seed.

A stream is addressed by name; the name is folded into the seed material via
crc32, which is stable across platforms and Python versions.  Streams with
different names are statistically independent, and the same (seed, names)
pair always yields the same generator.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np


def stream(seed: int, *names: str | int) -> np.random.Generator:
    """Generator for the stream addressed by ``names`` under a 32-bit ``seed``."""
    if not 0 <= seed <= 0xFFFFFFFF:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    material = [int(seed)]
    for name in names:
        if isinstance(name, int):
            material.append(name & 0xFFFFFFFF)
        else:
            material.append(crc32(name.encode("utf-8")))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(material)))
