"""Model parameters and the shared uniform time grid.

Every computation in this package is parameterized by the Hurst index H,
the spatial dimension d, the time horizon T, the coupling constant g of the
exponential reweighting, and the grid size N. The pair (H, d) controls which
regime the self-intersection functionals live in; the critical line is
H * d = 1 (planar Brownian motion is H = 1/2, d = 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ModelParams", "TimeGrid", "make_grid"]

# Width of the window around H*d = 1 treated as "on the critical line".
HD_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Global model configuration.

    Parameters
    ----------
    H : Hurst index, 0 < H < 1.
    d : spatial dimension, d >= 1.
    T : time horizon, T > 0.
    g : coupling constant of the exponential weight exp(-g * L_c). May be
        negative; admissibility for large |g| is diagnosed at run time, not
        assumed.
    N : number of grid points including t = 0, N >= 2.
    seed : base seed for counter-based random streams.
    """

    H: float = 0.5
    d: int = 2
    T: float = 1.0
    g: float = 0.1
    N: int = 256
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < float(self.H) < 1.0:
            raise ValueError(f"H must lie in (0, 1), got H={self.H}")
        if int(self.d) < 1:
            raise ValueError(f"d must be a positive integer, got d={self.d}")
        if not float(self.T) > 0.0:
            raise ValueError(f"T must be positive, got T={self.T}")
        if int(self.N) < 2:
            raise ValueError(f"N must be at least 2, got N={self.N}")
        if not np.isfinite(float(self.g)):
            raise ValueError(f"g must be finite, got g={self.g}")

    @property
    def critical(self) -> bool:
        """True exactly when H*d sits on the critical line H*d = 1."""
        return abs(self.H * self.d - 1.0) < HD_REGIME_TOL

    @property
    def spacing(self) -> float:
        """Grid step T / (N - 1)."""
        return self.T / (self.N - 1)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing uniform grid t_0 = 0 < t_1 < ... < t_{N-1} = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at t_0 = 0")
        steps = np.diff(pts)
        if np.any(steps <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        # Uniformity within 1e-12 relative; downstream quadrature weights
        # assume a constant step.
        if np.max(np.abs(steps - steps[0])) > 1e-12 * steps[0]:
            raise ValueError("grid must be uniform within 1e-12 relative")

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def horizon(self) -> float:
        return float(self.points[-1])


def make_grid(params: ModelParams) -> TimeGrid:
    """Uniform grid with N points on [0, T]."""
    return TimeGrid(np.linspace(0.0, params.T, params.N))
