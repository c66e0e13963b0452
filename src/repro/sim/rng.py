"""Deterministic named random streams.

Every stochastic element of the reproduction (query generation, skew
assignment, cost-model distortion, tuple routing) draws from its own named
stream derived from a single master seed.  Two runs with the same master
seed are bit-identical; changing one experiment's draws never perturbs
another's — the property the paper relies on when comparing strategies on
*the same* plan population.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a child seed from ``master_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per process and unusable here).  The
    master seed must be an ``int``: any other object (a ``bool``, a
    params object) would be formatted into the hash input and silently
    seed a stream.
    """
    if type(master_seed) is not int:
        raise TypeError(
            f"a master seed is an int, got {type(master_seed).__name__}"
        )
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, reproducible :class:`random.Random` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("queries")
    >>> b = streams.stream("skew")
    >>> a is streams.stream("queries")
    True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def names(self) -> Iterator[str]:
        """Names of streams created so far (for diagnostics)."""
        return iter(sorted(self._streams))
