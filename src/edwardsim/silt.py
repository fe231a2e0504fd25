"""Regularized self-intersection local time (SILT) and its centering.

The regularized SILT of a path x on [0, T] is

    L_eps(T) = int_0^T dt int_0^t ds  p_eps(x_t - x_s),

with the heat kernel p_eps(y) = (2 pi eps)^{-d/2} exp(-|y|^2 / (2 eps)).
On the grid the double integral is a trapezoid rule over the triangular
index set {0 <= i < j <= N-1}; the diagonal i = j is excluded (the continuum
domain is s < t, and the diagonal carries no measure). Pair i < j weighs
c_ij = w_i w_j with the node weights w = (1/2, 1, ..., 1, 1/2), and the
batch kernel applies these weights to every pair as it sums them.

Centering subtracts the expectation of exactly the quantity computed: the
same triangular weights applied to the analytic pair expectation

    E p_eps(x_{t_j} - x_{t_i}) = (2 pi)^{-d/2} (eps + (t_j - t_i)^{2H})^{-d/2},

so E[centered] = 0 is an identity at every grid size. The continuum
expectation

    E[L_eps(T)] = int_0^T (T - u) (2 pi)^{-d/2} (eps + u^{2H})^{-d/2} du

is exposed separately; the grid expectation converges to it at rate O(T/N).
Shifted paths are centered with the unshifted expectation: the centering
constant never depends on the shift. The shifted family x + u k along a
direction k is summed from the pair geometry a = |dx|^2, b = 2 dx.dk per
path and c = |dk|^2 for all paths, formed once per lag block for every u
and scaled by the first rate r0 = -1/(2 eps0): a' = r0 a, and b' = r0 b
with r0 taken into dk. Rate r weighs a pair by exp((r / r0)(a' + u b'))
times exp(r u^2 c); the second factor, free of the path, multiplies the
pair weights, so a shifted u costs four passes over a block: s = a' + u b'
(two), exp and the weighted sum. Since a + u b >= -u^2 c, the path factor
stays below exp(|r| u^2 max c); a block where that bound passes e^700
adds r0 u^2 c into s instead, and keeps the pair weights. A u of 0 takes
a' and a alone and gives the unshifted kernel's bits; a row does not
depend on the other u of its family; a shifted row agrees with the kernel
run on the paths x + u k to about ulp(a + u^2 c) / (2 eps) relative per
pair term, which the tests (eps >= 1e-3, |u| <= 3, blocks past e^700
included) hold within 1e-12.

The eps ladder eps_j = eps0 * 2^{-j} tracks convergence of the centered
values as eps -> 0. At H*d = 1 the limit exists in L^2 but the rate carries
no proven constant, so the ladder reports successive-difference ratios and
flags non-convergence instead of asserting a rate. Only the quadrature
silt_expectation imports scipy (scipy.integrate), when it is called.

The kernel takes its paths in fixed chunks and, given `threads` > 1, runs
the chunks on a thread pool, the package's only one; every result is the
same at any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import ModelParams, TimeGrid

__all__ = [
    "heat_kernel",
    "silt_raw",
    "silt_raw_batch",
    "silt_raw_shifted",
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

# paths per kernel chunk, the unit of the thread pool
_CHUNK_PATHS = 256
# pair elements per lag block (rows x N x paths). A block holds at least
# one lag row of the chunk, N x P elements: at N = P = 256 that row is
# 65536 elements, and the block is that one row. A worker holds two block
# buffers for an unshifted call, four (2 MB) for a shifted one. Timed from
# 16384 to 524288 with 256 paths, d = 2, one thread (x86-64, 2 cores):
# 65536 was fastest or level at N = 64, 128 and 256; at N = 256, blocks of
# 2 to 8 rows ran up to 22% slower
_BLOCK_ELEMENTS = 65_536
# largest |rate| u^2 max|dk|^2 of a lag block whose shifted rows carry
# exp(rate u^2 |dk|^2) in the pair weights: both factors stay normal
# doubles, between e^-700 and e^700
_FOLD_LIMIT = 700.0
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


def _node_weights(n_points: int) -> np.ndarray:
    """Trapezoid node weights (1/2, 1, ..., 1, 1/2): the weight of pair
    i < j is c_ij = w_i w_j, 1/2 at i = 0 or j = N-1 and 1/4 at the corner."""
    w = np.ones(n_points)
    w[[0, -1]] = 0.5
    return w


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

    Paths go in fixed chunks of 256, so the chunking, and with it every
    result, does not depend on the thread count. Within a chunk the pairs
    are visited by lag, in blocks laid out (B, N, paths) with the paths
    innermost. Row m of a block is circular: x[(i + m) mod N] - x[i] for
    every i, which are the pairs of lag m and of lag N - m, so rows
    1..N/2 hold every pair once with no padding; the lag-N/2 row of an
    even N holds its pairs twice and weighs the second half 0. The chunk
    is stored (d, 2N, paths), written twice along the nodes, so the
    leading term of row m is one contiguous (N, paths) slice and every
    pass over a block is one loop per row. Each row is summed once with
    its trapezoid pair weights, w_i w_((i+m) mod N) at node i, so the ends
    need no second pass. B keeps a block near _BLOCK_ELEMENTS and at least
    one row. When -1/(2 eps) doubles from one eps to the next, as down a
    dyadic ladder, that rung is the previous one squared in place, so a
    ladder costs one exp per pair. Memory is the chunk written twice and
    two block buffers, O(M N d) in all.
    """
    return _raw_family(values, grid, np.zeros(values.shape[1:]), [0.0], epsilons, threads)[:, 0]


def silt_raw_shifted(
    values: np.ndarray, grid: TimeGrid, k: np.ndarray, us, epsilons, *, threads: int = 1
) -> np.ndarray:
    """Raw SILT of the shifted family values + u k: (M, N, d) -> (M, n_u, n_eps).

    k is a path (N, d), in practice a Cameron-Martin direction. Each lag
    block of silt_raw_batch forms the pair geometry once and serves every
    u and eps: a = |dx|^2 and, scaled by the first rate r0 = -1/(2 eps0),
    a' = r0 a and b' = 2 dx.(r0 dk) per path, and c = |dk|^2 for all
    paths, where dx = x_j - x_i and dk = k_j - k_i. A shifted u sums
    exp((r / r0)(a' + u b')) with the pair weights times the path-free
    exp(r u^2 c); where |r| u^2 max c passes 700 in a block, a' + u b'
    takes r0 u^2 c as well and the weights stay as they are, so neither
    factor leaves the normal doubles. A u of 0 takes a' and a alone, so
    its row equals silt_raw_batch(values) to the bit. Every row equals the
    call with that u alone to the bit, at any thread count, and agrees
    with silt_raw_batch(values + u k) to about ulp(a + u^2 c) / (2 eps)
    relative per pair term, measured within 1e-12 at eps >= 1e-3 and
    |u| <= 3; where every term of a row falls below the smallest normal
    double, both round at subnormal steps.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != values.shape[1:]:
        raise ValueError(f"k must have shape (N, d) = {values.shape[1:]}, got {k.shape}")
    return _raw_family(values, grid, k, us, epsilons, threads)


def _raw_family(
    values: np.ndarray, grid: TimeGrid, k: np.ndarray, us, epsilons, threads: int
) -> np.ndarray:
    """(M, n_u, n_eps) raw SILT of values + u k for each u of us."""
    us = np.atleast_1d(np.asarray(us, dtype=float))
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    if np.any(epsilons <= 0.0):
        raise ValueError("all eps values must be positive")
    m, n, d = values.shape
    if n != grid.n:
        raise ValueError("values and grid disagree on N")
    rates = -0.5 / epsilons
    squares = np.concatenate([[False], rates[1:] == 2.0 * rates[:-1]])
    factor = grid.spacing**2 * (2.0 * np.pi * epsilons) ** (-0.5 * d)
    # components along which k moves the pairs; b and c sum only these
    moved = [j for j in range(d) if np.any(us) and np.any(k[:, j] != k[0, j])]
    out = np.empty((m, us.size, epsilons.size))

    def work(lo: int, hi: int) -> None:
        out[lo:hi] = _lag_block_sums(values[lo:hi], k, moved, us, rates, squares) * factor

    _map_chunks(m, work, threads)
    return out


def _map_chunks(m: int, fn, threads: int) -> None:
    """Call fn(lo, hi) on the fixed chunks of _CHUNK_PATHS of m paths, on a
    pool of `threads` workers when there is more than one chunk. Each chunk
    writes its own rows, so the result does not depend on the thread count."""
    bounds = [(lo, min(lo + _CHUNK_PATHS, m)) for lo in range(0, m, _CHUNK_PATHS)]
    if threads <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            fn(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for future in [pool.submit(fn, lo, hi) for lo, hi in bounds]:
            future.result()


def _lag_block_sums(
    x: np.ndarray, k: np.ndarray, moved: list, us: np.ndarray, rates: np.ndarray, squares: np.ndarray
) -> np.ndarray:
    """Trapezoid sums of exp(rate * |dx + u dk|^2) over i < j, (P, n_u,
    n_rates), for paths x (P, N, d) and direction k (N, d), in one pass
    over the circular lag rows 1..N/2, each weighted by its pair weights.

    The chunk is laid out (d, 2N, P), the paths innermost and written twice
    along the nodes, and k on its own as (d, 2N, 1). Circular row m,
    z[(i + m) mod N] - z[i] for every node i, holds the pairs of lag m and
    of lag N - m; its first term is the contiguous (N, P) slice from node
    m, so a subtract, square or exp over a block of r rows runs r loops of
    N P elements."""
    p, n, d = x.shape
    acc = np.zeros((p, us.size, rates.size))
    # the chunk and k written twice along the nodes, so that rows[c, m, i] =
    # z[c, (i + m) mod N] for m = 0..N; padding the rows with +inf instead
    # would send exp(-inf) down numpy's slow path. Both are C-ordered:
    # np.concatenate would keep the path-major order of x.transpose
    twice, k_twice = np.empty((d, 2 * n, p)), np.empty((d, 2 * n, 1))
    twice[:, :n] = twice[:, n:] = x.transpose(2, 1, 0)
    k_twice[:, :n, 0] = k_twice[:, n:, 0] = k.T
    rows, k_rows = (sliding_window_view(z, n, axis=1).swapaxes(2, 3) for z in (twice, k_twice))
    # node i of row m weighs the pair (i, (i + m) mod N) by w_i w_((i+m) mod N);
    # the lag-N/2 row of an even N repeats its first half, so the second gets 0
    w = _node_weights(n)
    pair_w = sliding_window_view(np.concatenate([w, w]), n)
    half = n // 2
    b = max(1, _BLOCK_ELEMENTS // (p * n))
    buf = np.empty((4 if moved else 2, p * b * n))
    for m0 in range(1, half + 1, b):
        r = min(b, half + 1 - m0)
        c = pair_w[m0 : m0 + r] * w
        if n % 2 == 0 and m0 + r > half:
            c[-1, half:] = 0.0
        x_pair = rows[:, m0 : m0 + r], rows[:, :1]
        k_pair = k_rows[:, m0 : m0 + r], k_rows[:, :1]
        for i, j, e, weights in _family_terms(x_pair, k_pair, c, moved, us, rates, squares, buf):
            # einsum, not BLAS: a threaded gemv in each kernel worker
            # oversubscribes the cores
            acc[:, i, j] += np.einsum("rip,ri->p", e, weights)
    return acc


def _family_terms(x_pair, k_pair, c: np.ndarray, moved: list, us, rates, squares, buf: np.ndarray):
    """Yield (i, j, e, weights) for every u and rate, where e (r, N, P)
    times weights (r, N) is c * exp(rates[j] * |dx + us[i] dk|^2), with dx
    = ahead - behind of x_pair, (d, r, N, P) less (d, 1, N, P), dk likewise
    of k_pair, whose paths axis has length 1, and c the pair weights.

    The geometry is formed once for every u, scaled by the first rate r0:
    a = |dx|^2 summed over the components in order, a' = r0 a and, over
    the components named in `moved`, b' = 2 dx.(r0 dk) per path and
    q = |dk|^2 for all paths. A u of 0, or an empty `moved`, takes the
    rungs exp(a') and exp(rate * a), those of silt_raw_batch. A shifted u
    takes s = a' + u b' and the rungs exp(s) and exp((rate / r0) s), and
    moves the path-free exp(rate u^2 q) into the weights. Since a + u b >=
    -u^2 q, the path factor stays below exp(|rate| u^2 max q); where that
    bound passes e^_FOLD_LIMIT in the block, s = a' + u (b' + u r0 q)
    and the weights stay c. buf has 4 rows of at least one pair block each
    when `moved` names components, 2 otherwise."""
    (ahead, behind), (k_ahead, k_behind) = x_pair, k_pair
    shape = ahead.shape[1:]
    slots = buf[:, : math.prod(shape)].reshape(-1, *shape)
    # dx and then the rungs, a, and for a moving k, b' and a'
    dx, a = slots[:2]
    b, a_r = slots[2:] if moved else (None, None)
    r0 = rates[0]
    q = None
    for j, (hi, lo) in enumerate(zip(ahead, behind)):
        np.subtract(hi, lo, out=dx)
        if j in moved:
            # dx enters b' before it is squared in place
            dk = k_ahead[j] - k_behind[j]
            if q is None:
                np.multiply(dx, 2.0 * r0 * dk, out=b)
                q = dk * dk
            else:
                np.add(b, np.multiply(dx, 2.0 * r0 * dk, out=a_r), out=b)
                q = q + dk * dk
        if j == 0:
            np.multiply(dx, dx, out=a)
        else:
            np.multiply(dx, dx, out=dx)
            np.add(a, dx, out=a)
    if moved:
        np.multiply(a, r0, out=a_r)
    # the unshifted rows first: their rungs take a, whose buffer s reuses
    for i in [i for i, u in enumerate(us) if u == 0.0 or not moved]:
        first = a_r if moved else np.multiply(a, r0, out=dx)
        for j, rung in enumerate(_rungs(first, a, rates, squares, dx)):
            yield i, j, rung, c
    if not moved:
        return
    s, ratios = a, rates / r0
    bound = np.max(-rates) * np.max(q)
    weights = np.empty_like(c)
    for i, u in enumerate(us):
        if u == 0.0:
            continue
        folded = bound * u * u <= _FOLD_LIMIT
        if folded:
            np.multiply(b, u, out=s)
        else:
            # the path-free term joins s: a' + u (b' + u r0 q)
            np.multiply(np.add(b, (r0 * u) * q, out=s), u, out=s)
        np.add(s, a_r, out=s)
        for j, rung in enumerate(_rungs(s, s, ratios, squares, dx)):
            if folded:
                np.exp(np.multiply(q[..., 0], rates[j] * u * u, out=weights), out=weights)
                np.multiply(weights, c, out=weights)
            yield i, j, rung, weights if folded else c


def _rungs(first: np.ndarray, later: np.ndarray, ratios, squares, e: np.ndarray):
    """Yield exp(first) and then exp(ratio * later) for each later ratio,
    computed in the buffer e (first may be e itself); a rung flagged in
    `squares` is the previous rung squared in place."""
    np.exp(first, out=e)
    yield e
    for ratio, square in zip(ratios[1:], squares[1:]):
        if square:
            np.multiply(e, e, out=e)
        else:
            np.exp(np.multiply(later, ratio, out=e), out=e)
        yield e


def silt_expectation(params: ModelParams, eps: float) -> float:
    """Continuum expectation int_0^T (T-u)(2 pi)^{-d/2}(eps + u^{2H})^{-d/2} du
    by adaptive quadrature."""
    import scipy.integrate
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
    raw, expectation, centered = centered_ladder(path.values[None], path.params, path.grid, [eps])
    return SiltEstimate(
        epsilon=float(eps),
        raw=float(raw[0, 0]),
        expectation=float(expectation[0]),
        centered=float(centered[0, 0]),
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
