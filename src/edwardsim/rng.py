"""Counter-based random streams.

Replica m of a run draws from stream(seed, m). Philox is counter-based, so
streams are independent and reproducible regardless of thread scheduling or
the order replicas are evaluated in.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream"]


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Generator for replica `index`, keyed by (seed, index)."""
    key = np.array([int(seed) % 2**64, int(index) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
