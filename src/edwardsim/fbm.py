"""Exact simulation of d-dimensional fractional Brownian motion on a grid.

The covariance of one component is

    cov_h(H, t, s) = 0.5 * (t^{2H} + s^{2H} - |t - s|^{2H}),

and the d components are independent copies. Sampling is exact, and the grid
size N alone picks the route: from _CIRCULANT_MIN_N upward circulant
embedding (Davies & Harte 1987), which needs no factor; below it a dense
Cholesky factor of the grid covariance (t_0 = 0 excluded, where the path is
pinned to zero), shared by every path and component. The covariance and its
factor are built on first use. Single paths and batches share one draw
routine: one product with the factor, or one spectrum and one batched FFT,
per chunk of paths. The factor and the solve use numpy's LAPACK alone, so
this module loads no scipy module and no second OpenBLAS beside numpy's.
Every entry point of the package that takes a `cov` checks, through
_covariance_for, that it was built for the caller's (H, N, T).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import ModelParams, TimeGrid, make_grid
from .rng import Keys, stream

__all__ = ["cov_h", "build_covariance", "GridCovariance", "FbmPath", "sample_fbm", "sample_fbm_batch"]

# Smallest grid size N drawn by circulant embedding; smaller grids use the
# Cholesky factor. sample_fbm_batch through a fresh GridCovariance, factor
# counted (2 cores): at N = 2048 circulant loses at M = 1024 (999 against
# 761 ms), at N = 3072 it ties there (1231 ms each) and wins at M <= 64.
_CIRCULANT_MIN_N = 3072
# Cholesky normals are zero-padded to a multiple of this many columns: BLAS
# rounds a trailing partial block of 8 columns (and numpy a lone column)
# differently, which would make a replica's bits depend on its chunk.
_GEMM_COLUMNS = 8
# Paths drawn per _draw call, which bounds its normals and FFT temporaries.
_CHUNK_PATHS = 256
# Rows per block of GridCovariance.solve's substitutions: each diagonal
# block is one np.linalg.solve, each off-diagonal update one matmul. Beside a
# busy 2-thread matmul on 2 cores, an N = 256 solve took 0.35 ms with 64-row
# blocks and 0.48 s with 128-row ones (median of 7), which fits OpenBLAS
# threading the LU of the larger block and waiting for the busy cores.
_SOLVE_BLOCK = 64


def cov_h(H: float, t, s):
    """One-component fBm covariance 0.5*(t^2H + s^2H - |t-s|^2H).

    Accepts scalars or broadcastable arrays; times must be nonnegative.
    """
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got H={H}")
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(s < 0.0):
        raise ValueError("cov_h: times must be nonnegative")
    two_h = 2.0 * H
    out = 0.5 * (t**two_h + s**two_h - np.abs(t - s) ** two_h)
    return out if out.ndim else float(out)


def build_covariance(params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """(N-1) x (N-1) covariance matrix of one component at t_1..t_{N-1}."""
    pts = grid.points[1:]
    return cov_h(params.H, pts[:, None], pts[None, :])


def _cholesky_with_jitter(sigma: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor; one jitter retry of 1e-12 * trace/N, then fail.

    Returns (L, jittered), L in Fortran order as LAPACK writes it: the bits
    of the products with L and L^T depend on that layout. Failure raises
    LinAlgError naming the offending leading minor, which numpy does not
    report: it is found by bisection on leading blocks.
    """
    try:
        return np.asfortranarray(np.linalg.cholesky(sigma)), False
    except np.linalg.LinAlgError:
        pass
    n = sigma.shape[0]
    jitter = 1e-12 * np.trace(sigma) / n
    bumped = sigma + jitter * np.eye(n)
    try:
        chol = np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"covariance is not positive definite: leading minor "
            f"{_failing_minor(bumped)} failed even after jitter {jitter:.3e}"
        ) from None
    warnings.warn(
        f"covariance required diagonal jitter {jitter:.3e} to factor",
        RuntimeWarning,
        stacklevel=3,
    )
    return np.asfortranarray(chol), True


def _failing_minor(a: np.ndarray) -> int:
    """Order of the smallest leading block of `a` that does not factor;
    `a` itself must not."""
    good, bad = 0, a.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


class GridCovariance:
    """Grid covariance of one fBm component and its Cholesky factor, on
    make_grid(params): params alone fixes the grid.

    Shared across the d components and across paths; also provides the
    linear solves used by Cameron-Martin weights and the path sampler.
    `sigma`, `chol` and `jittered` are built on first access and cached.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.grid = make_grid(params)

    @cached_property
    def sigma(self) -> np.ndarray:
        return build_covariance(self.params, self.grid)

    @cached_property
    def _factor(self) -> tuple[np.ndarray, bool]:
        return _cholesky_with_jitter(self.sigma)

    @cached_property
    def chol(self) -> np.ndarray:
        return self._factor[0]

    @cached_property
    def jittered(self) -> bool:
        return self._factor[1]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve sigma @ x = b, b of shape (N-1,) or (N-1, k), on the cached
        factor: blocked forward substitution with L, then back substitution
        with L^T, O(N^2) per column.

        A NaN or inf in b raises ValueError; only b is scanned, since the
        factor is finite once built."""
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side contains NaN or inf")
        chol = self.chol
        n = chol.shape[0]
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ValueError(f"right-hand side must have {n} rows, got shape {b.shape}")
        x = b.reshape(n, -1).copy()
        blocks = [(lo, min(lo + _SOLVE_BLOCK, n)) for lo in range(0, n, _SOLVE_BLOCK)]
        for lo, hi in blocks:
            x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi] - chol[lo:hi, :lo] @ x[:lo])
        for lo, hi in reversed(blocks):
            x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi] - chol[hi:, lo:hi].T @ x[hi:])
        return x.reshape(b.shape)

    def factor_residual(self) -> float:
        """Relative Frobenius error of L L^T against sigma."""
        rec = self.chol @ self.chol.T
        return float(np.linalg.norm(rec - self.sigma) / np.linalg.norm(self.sigma))


@dataclass(eq=False)
class FbmPath:
    """One sampled path: grid, values (N, d) with values[0] = 0, and the
    grid covariance it was drawn from."""

    grid: TimeGrid
    values: np.ndarray
    cov: GridCovariance

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def params(self) -> ModelParams:
        return self.cov.params

    def check(self, tol: float = 1e-8) -> None:
        """Shape and zero start, and, on the Cholesky route, that the factor
        the path was drawn with reproduces sigma."""
        if self.values.shape != (self.grid.n, self.d):
            raise AssertionError("value array shape does not match grid")
        if np.any(self.values[0] != 0.0):
            raise AssertionError("path must start at 0")
        if _sampling_factor(self.cov) is not None and self.cov.factor_residual() > tol:
            raise AssertionError("cached factor does not reproduce sigma")


# ---------------------------------------------------------------- samplers #


def _sampling_factor(cov: GridCovariance) -> np.ndarray | None:
    """The Cholesky factor that draws on cov's grid, or None where the grid
    takes circulant embedding. The choice reads N only, so a replica's bits
    do not depend on its batch, and the factor is built before any chunk."""
    return None if cov.grid.n >= _CIRCULANT_MIN_N else cov.chol


def _draw(
    params: ModelParams,
    grid: TimeGrid,
    chol: np.ndarray | None,
    rngs: Iterable[np.random.Generator],
) -> np.ndarray:
    """Values (P, N-1, d) at t_1..t_{N-1}, one path per generator in `rngs`.

    Each path draws its normals from its own generator, taken in turn, so
    the generators may be one object re-keyed between paths. One product
    with `chol` (or, when it is None, one circulant FFT) serves them all,
    so a path gets the same bits whatever batch it is drawn in.
    """
    n, d = grid.n - 1, params.d
    if chol is not None:
        # column j*d + c holds component c of path j
        z = np.concatenate([r.standard_normal((n, d)) for r in rngs], axis=1)
        cols = z.shape[1]
        if pad := -cols % _GEMM_COLUMNS:
            z = np.pad(z, ((0, 0), (0, pad)))
        return (chol @ z)[:, :cols].reshape(n, -1, d).transpose(1, 0, 2)
    # Circulant embedding of unit-spacing fractional Gaussian noise, scaled
    # by spacing^H (exact by self-similarity on a uniform grid). The
    # spectrum is clipped at zero where it undershoots by rounding only; a
    # genuinely negative spectrum is an error. The first row of the
    # circulant is [gamma(0..n), gamma(n-1..1)] (Davies & Harte 1987).
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * params.H
    gamma = 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    lam = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < -1e-8 * lam.max():
        raise np.linalg.LinAlgError(
            f"circulant embedding not nonnegative (min eigenvalue {lam.min():.3e})"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    z = np.stack([r.standard_normal((d, m)) for r in rngs])
    a = np.empty(z.shape, dtype=complex)
    a[..., 0] = np.sqrt(lam[0] / m) * z[..., 0]
    a[..., n] = np.sqrt(lam[n] / m) * z[..., n]
    a[..., 1:n] = np.sqrt(lam[1:n] / (2.0 * m)) * (z[..., 1:n] + 1j * z[..., n + 1 :])
    a[..., n + 1 :] = np.conj(a[..., n - 1 : 0 : -1])
    fgn = np.fft.fft(a).real[..., :n]
    return grid.spacing**params.H * np.cumsum(fgn, axis=-1).transpose(0, 2, 1)


def _covariance_for(params: ModelParams, cov: GridCovariance | None) -> GridCovariance:
    """The grid covariance an entry point draws or solves with:
    GridCovariance(params) when cov is None, else cov, which must have
    been built for the same (H, N, T). Its seed, d and g may differ, since
    the covariance of one component does not depend on them."""
    if cov is None:
        return GridCovariance(params)
    want = (params.H, params.N, params.T)
    have = (cov.params.H, cov.params.N, cov.params.T)
    if have != want:
        raise ValueError(
            f"covariance built for (H, N, T) = {have} does not fit params with "
            f"(H, N, T) = {want}: it has another law or grid"
        )
    return cov


def sample_fbm(
    params: ModelParams,
    rng: np.random.Generator | None = None,
    *,
    cov: GridCovariance | None = None,
) -> FbmPath:
    """Draw one path with d independent components, pinned to 0 at t_0.

    `rng` defaults to stream(params.seed, 0); the grid size picks the
    sampling route (see the module notes). `cov` defaults to
    GridCovariance(params); a given one must match params' (H, N, T).
    """
    cov = _covariance_for(params, cov)
    if rng is None:
        rng = stream(params.seed, 0)
    values = np.zeros((cov.grid.n, params.d))
    values[1:] = _draw(params, cov.grid, _sampling_factor(cov), [rng])[0]
    return FbmPath(grid=cov.grid, values=values, cov=cov)


def sample_fbm_batch(
    params: ModelParams,
    m: int,
    *,
    cov: GridCovariance | None = None,
    stream_offset: int = 0,
) -> np.ndarray:
    """M paths as one (M, N, d) array.

    Replica i draws from stream(params.seed, stream_offset + i), so any
    subset of replicas reproduces bit-identically no matter how the batch is
    chunked. `cov` is checked as in sample_fbm.
    """
    cov = _covariance_for(params, cov)
    chol = _sampling_factor(cov)
    keys = Keys(params.seed)
    out = np.zeros((m, cov.grid.n, params.d))
    for lo in range(0, m, _CHUNK_PATHS):
        hi = min(lo + _CHUNK_PATHS, m)
        rngs = (keys.at(stream_offset + i) for i in range(lo, hi))
        out[lo:hi, 1:] = _draw(params, cov.grid, chol, rngs)
    return out
