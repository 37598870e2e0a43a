"""Seeded randomness source.

All protocol randomness flows through an injected ``SeededRng`` so that every
run (library call, simulator scenario, CLI invocation) is reproducible from a
seed.  A stream is single-owner: concurrent users fork their own child stream,
derived by hashing the parent seed material together with a label.
"""

from __future__ import annotations

import hashlib
import random

_DERIVE_TAG = b"trustmesh/rng/"


def _seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, int):
        return seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big", signed=False)
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")


class SeededRng:
    """Deterministic random stream with labelled forking."""

    def __init__(self, seed):
        self._material = hashlib.sha512(_DERIVE_TAG + _seed_bytes(seed)).digest()
        self._rand = random.Random(int.from_bytes(self._material, "big"))

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream; same parent+label, same child."""
        return SeededRng(self._material + label.encode("utf-8"))

    def randbelow(self, n: int) -> int:
        return self._rand.randrange(n)

    def sample(self, population, k: int):
        return self._rand.sample(population, k)

    def getrandbits(self, k: int) -> int:
        return self._rand.getrandbits(k)
