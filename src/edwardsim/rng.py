"""Counter-based random streams.

Every draw comes from a stream keyed by (seed, index): Philox at counter 0
under that key. Philox is counter-based, so streams are independent and
reproducible whatever the thread schedule, chunking or order of draws.

    replica i of a batch     (seed, stream_offset + i)
    chain start z_0          (seed, 2^48)
    chain step t             (seed, 2^48 + 1 + t)
    moment Monte Carlo       (_MC_SEED, 0)

Step t counts from the chain's start, resumed steps included, and draws its
proposal normals, then its accept uniform: a chain keeps no generator state.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Keys", "stream"]


class Keys:
    """The streams of one seed, drawn through one Philox.

    `at(index)` resets the Philox to counter 0 and key (seed, index) with an
    empty buffer and returns its generator, which draws what a fresh Philox
    under that key draws, until the next `at`. It is the same generator
    every call, so use each stream up before asking for the next.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        bits = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(bits)
        self._state = self._gen.bit_generator.state  # counter 0, empty buffer

    def at(self, index: int) -> np.random.Generator:
        self._state["state"]["key"][1] = int(index) % 2**64
        self._gen.bit_generator.state = self._state
        return self._gen


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator of the stream keyed by (seed, index)."""
    return Keys(seed).at(index)
