"""Regularized self-intersection local time (SILT) and its centering.

The regularized SILT of a path x on [0, T] is

    L_eps(T) = int_0^T dt int_0^t ds  p_eps(x_t - x_s),

with the heat kernel p_eps(y) = (2 pi eps)^{-d/2} exp(-|y|^2 / (2 eps)).
On the grid the double integral is a trapezoid rule over the triangular
index set {0 <= i < j <= N-1}; the diagonal i = j is excluded (the continuum
domain is s < t, and the diagonal carries no measure).

Centering subtracts the expectation of exactly the quantity computed: the
same triangular weights applied to the analytic pair expectation

    E p_eps(x_{t_j} - x_{t_i}) = (2 pi)^{-d/2} (eps + (t_j - t_i)^{2H})^{-d/2},

so E[centered] = 0 is an identity at every grid size. The continuum
expectation

    E[L_eps(T)] = int_0^T (T - u) (2 pi)^{-d/2} (eps + u^{2H})^{-d/2} du

is exposed separately; the grid expectation converges to it at rate O(T/N).
Shifted paths are centered with the unshifted expectation: the centering
constant never depends on the shift.

The eps ladder eps_j = eps0 * 2^{-j} tracks convergence of the centered
values as eps -> 0. At H*d = 1 the limit exists in L^2 but the rate carries
no proven constant, so the ladder reports successive-difference ratios and
flags non-convergence instead of asserting a rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.integrate

from .fbm import _chunk_bounds, _map_chunks
from .params import ModelParams, TimeGrid

__all__ = [
    "heat_kernel",
    "silt_raw",
    "silt_raw_batch",
    "silt_expectation",
    "silt_expectation_grid",
    "brownian_plane_expectation",
    "SiltEstimate",
    "silt_centered",
    "centered_ladder",
    "LadderConfig",
    "EpsLadder",
    "silt_limit",
]

# pair elements per path chunk of silt_raw_batch; each worker holds a few
# arrays of this size at a time
_CHUNK_ELEMENTS = 1_000_000
# relative floor below which eps no longer resolves the grid: eps >= 0.1 * spacing^{2H}
EPS_FLOOR_FACTOR = 0.1


def heat_kernel(eps: float, x):
    """Gaussian kernel (2 pi eps)^{-d/2} exp(-|x|^2/(2 eps)) for x in R^d.

    x may be a scalar (d = 1) or an array whose last axis is the spatial
    dimension; leading axes broadcast.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
    d = x.shape[-1]
    sq = np.sum(x * x, axis=-1)
    out = (2.0 * np.pi * eps) ** (-0.5 * d) * np.exp(-sq / (2.0 * eps))
    return out if out.ndim else float(out)


@lru_cache(maxsize=16)
def _pair_cache(n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle pair indices (i < j) and trapezoid weights c_ij.

    Outer weight 1/2 at j = N-1, inner weight 1/2 at i = 0; the would-be
    inner endpoint i = j is excluded entirely.
    """
    i_idx, j_idx = np.triu_indices(n_points, k=1)
    outer = np.ones(n_points)
    outer[-1] = 0.5
    inner = np.ones(n_points)
    inner[0] = 0.5
    c = outer[j_idx] * inner[i_idx]
    return i_idx, j_idx, c


def _pair_differences(values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Pair differences x_j - x_i over the _pair_cache pairs, one (M, P)
    array per component, and their squared norm (M, P), for values (M, N, d).

    The one pair kernel: the batch SILT and the Langevin target both build
    on it. One 1-d gather per component is faster than gathering (N, d)
    rows. The squared norm accumulates component by component in order.
    """
    i_idx, j_idx, _ = _pair_cache(values.shape[1])
    dx = []
    for k in range(values.shape[2]):
        vk = values[:, :, k]
        dx.append(np.take(vk, j_idx, axis=1) - np.take(vk, i_idx, axis=1))
    sq = dx[0] * dx[0]
    for k in range(1, len(dx)):
        sq += dx[k] * dx[k]
    return dx, sq


def silt_raw(path, eps: float) -> float:
    """Triangular trapezoid value of L_eps(T) for one path.

    `path` is anything with .values (N, d) and .grid; this is silt_raw_batch
    on a batch of one.
    """
    return float(silt_raw_batch(path.values[None], path.grid, [eps])[0, 0])


def silt_raw_batch(
    values: np.ndarray,
    grid: TimeGrid,
    epsilons,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Raw SILT for a batch: values (M, N, d) -> (M, n_eps).

    The squared pair distances are formed once per chunk of paths and
    reused across the eps ladder; a chunk's weighted pair sums are one
    matrix-vector product per eps. Chunks hold a fixed number of pair
    elements, so the chunking, and with it every result, does not depend on
    the thread count.
    """
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if np.any(epsilons <= 0.0):
        raise ValueError("all eps values must be positive")
    m, n, d = values.shape
    if n != grid.n:
        raise ValueError("values and grid disagree on N")
    _, _, c = _pair_cache(n)
    out = np.empty((m, epsilons.size))
    scale = grid.spacing**2

    def work(lo: int, hi: int) -> None:
        _, sq = _pair_differences(values[lo:hi])
        for k, eps in enumerate(epsilons):
            norm = (2.0 * np.pi * eps) ** (-0.5 * d)
            out[lo:hi, k] = scale * norm * (np.exp(sq * (-0.5 / eps)) @ c)

    _map_chunks(_chunk_bounds(m, max(1, _CHUNK_ELEMENTS // c.size)), work, threads)
    return out


def silt_expectation(params: ModelParams, eps: float) -> float:
    """Continuum expectation int_0^T (T-u)(2 pi)^{-d/2}(eps + u^{2H})^{-d/2} du
    by adaptive quadrature."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    pref = (2.0 * np.pi) ** (-0.5 * params.d)
    two_h = 2.0 * params.H
    half_d = 0.5 * params.d

    def f(u: float) -> float:
        return (params.T - u) * pref * (eps + u**two_h) ** (-half_d)

    val, _ = scipy.integrate.quad(
        f, 0.0, params.T, epsabs=1e-14, epsrel=1e-12, limit=200
    )
    return float(val)


def brownian_plane_expectation(T: float, eps: float) -> float:
    """Closed form of silt_expectation at H = 1/2, d = 2:
    (2 pi)^{-1} * ((T + eps) * ln((T + eps)/eps) - T)."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return float(((T + eps) * np.log((T + eps) / eps) - T) / (2.0 * np.pi))


def silt_expectation_grid(params: ModelParams, grid: TimeGrid, eps: float) -> float:
    """Exact mean of the discretized estimator: the triangular trapezoid
    weights applied to the analytic pair expectation, grouped by lag.

    The weights of lag m sum to N-1-m for 1 <= m <= N-2 (two end pairs at
    weight 1/2); the single pair at lag N-1 has weight 1/4."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    w = grid.n - 1.0 - np.arange(grid.n)
    w[-1] = 0.25
    lags = np.arange(grid.n) * grid.spacing
    pref = (2.0 * np.pi) ** (-0.5 * params.d)
    q = pref * (eps + lags ** (2.0 * params.H)) ** (-0.5 * params.d)
    return float(grid.spacing**2 * np.dot(w[1:], q[1:]))


@dataclass(frozen=True)
class SiltEstimate:
    """Raw value, the expectation used for centering, and their difference.

    `expectation` is the exact mean of the discrete estimator for an
    unshifted path at these parameters; `centered` is raw - expectation,
    exactly.
    """

    epsilon: float
    raw: float
    expectation: float
    centered: float


def silt_centered(path, eps: float) -> SiltEstimate:
    """Centered SILT of a path (shifted paths keep the unshifted centering)."""
    raw = silt_raw(path, eps)
    expectation = silt_expectation_grid(path.params, path.grid, eps)
    return SiltEstimate(
        epsilon=float(eps),
        raw=raw,
        expectation=expectation,
        centered=raw - expectation,
    )


@dataclass(frozen=True)
class LadderConfig:
    """Dyadic eps ladder eps_j = eps0 * 2^{-j}, j = 0..levels-1; levels >= 4."""

    eps0: float = 0.1
    levels: int = 5

    def __post_init__(self):
        if self.eps0 <= 0.0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if self.levels < 4:
            raise ValueError("ladder needs at least 4 levels")

    @property
    def epsilons(self) -> np.ndarray:
        return self.eps0 * 0.5 ** np.arange(self.levels)


@dataclass(eq=False)
class EpsLadder:
    """Per-eps estimates plus convergence diagnostics.

    `ratios[j] = |diff_j| / |diff_{j+1}|` measures how fast successive
    centered values contract; `converged` requires the last two ratios to
    reach the shrink factor 1.2. `limit` is the centered value at the
    smallest eps; `extrapolated` is the geometric (Aitken) extrapolation of
    the last three values, advisory only. `under_resolved` flags eps below
    0.1 * spacing^{2H}.
    """

    epsilons: np.ndarray
    raw: np.ndarray
    expectation: np.ndarray
    centered: np.ndarray
    diffs: np.ndarray
    ratios: np.ndarray
    limit: float
    extrapolated: float
    converged: bool
    under_resolved: bool


def centered_ladder(
    values: np.ndarray,
    params: ModelParams,
    grid: TimeGrid,
    epsilons,
    *,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw SILT (M, n_eps) of a batch, the grid expectation per eps, and
    raw minus expectation, exactly."""
    raw = silt_raw_batch(values, grid, epsilons, threads=threads)
    expectation = np.array([silt_expectation_grid(params, grid, e) for e in epsilons])
    return raw, expectation, raw - expectation


def silt_limit(path, config: LadderConfig) -> EpsLadder:
    """Evaluate the centered SILT down the eps ladder for one path."""
    eps = config.epsilons
    raw, expectation, centered = centered_ladder(path.values[None], path.params, path.grid, eps)
    return _assemble_ladder(path.params, path.grid, eps, raw[0], expectation, centered[0])


def _assemble_ladder(
    params: ModelParams,
    grid: TimeGrid,
    eps: np.ndarray,
    raw: np.ndarray,
    expectation: np.ndarray,
    centered: np.ndarray,
) -> EpsLadder:
    diffs = np.diff(centered)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(diffs[:-1]) / np.abs(diffs[1:])
    converged = bool(np.all(ratios[-2:] >= 1.2)) if ratios.size >= 2 else False
    floor = EPS_FLOOR_FACTOR * grid.spacing ** (2.0 * params.H)
    under_resolved = bool(eps[-1] < floor)
    # geometric extrapolation from the last three values (Aitken delta^2)
    denom = diffs[-1] - diffs[-2]
    if diffs.size >= 2 and abs(denom) > 1e-300:
        extrapolated = float(centered[-1] - diffs[-1] ** 2 / denom)
    else:
        extrapolated = float(centered[-1])
    return EpsLadder(
        epsilons=eps,
        raw=raw,
        expectation=expectation,
        centered=centered,
        diffs=diffs,
        ratios=ratios,
        limit=float(centered[-1]),
        extrapolated=extrapolated,
        converged=converged,
        under_resolved=under_resolved,
    )
