"""Named, splittable random streams.

Every stochastic routine in the package draws from a generator obtained via
``substream(root_seed, *names)``.  Equal (seed, names) always yields the same
stream, independent of call order, total sample size, or worker parallelism.

Subject-level draws use fixed-size blocks: block ``b`` of a simulation is
generated from ``substream(seed, ..., b)`` with a fixed draw layout.  Every
law of a block consumes its full ``BLOCK`` draws, the final block's too, but
is evaluated only on the rows the block keeps.  Subject ``j``'s values are
therefore a pure function of (seed, names, j).
"""

from __future__ import annotations

import hashlib

import numpy as np

BLOCK = 8192


def _words(name: str | int) -> list[int]:
    if isinstance(name, (int, np.integer)):
        return [int(name) & 0xFFFFFFFF, (int(name) >> 32) & 0xFFFFFFFF]
    digest = hashlib.sha256(str(name).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 8, 4)]


def substream(root_seed: int, *names: str | int) -> np.random.Generator:
    """Generator for the stream addressed by ``names`` under ``root_seed``."""
    entropy = [int(root_seed) & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        entropy.extend(_words(name))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def block_count(n: int) -> int:
    return (int(n) + BLOCK - 1) // BLOCK
