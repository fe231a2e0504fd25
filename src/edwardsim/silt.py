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
constant never depends on the shift.

The pair sum has two forms. The Gram form runs first: each path is
centered over its nodes and scaled, y = (x - mean x) / sqrt(eps0), so
that with m = -|y|^2 / 2 the exponent -|x_i - x_j|^2 / (2 eps0) is
m_i + m_j + y_i . y_j, one rank-(d + 2) BLAS product per block of 32 x 32
nodes. Its rounding grows like gamma |y|^2 where the difference form's
does not, gamma = (2d + 12) 2^-53 counting the roundings of the scale,
the path, the norms and the product (Higham 2002, sect. 3.1), so every
row carries a certificate: gamma (r / r0) sum c e (|y_i| + |y_j|)^2 /
(2 sum c e) bounds its relative error, from one more product of each
kernel block with the columns [w, w |y|, w |y|^2]. A row whose bound is
above 5e-13, or not finite (every term underflowed, or the path is not
finite), is summed again by the difference form: the lag kernel, which
forms |dx|^2 component by component over circular lag rows. A shifted
row x + u k is the same computation on the paths x + u k, formed as a
caller of silt_raw_batch forms them, so it equals silt_raw_batch(x + u k)
to the bit; the u = 0 row is silt_raw_batch(x) itself.

The eps ladder eps_j = eps0 * 2^{-j} tracks convergence of the centered
values as eps -> 0. At H*d = 1 the limit exists in L^2 but the rate carries
no proven constant, so the ladder reports successive-difference ratios and
flags non-convergence instead of asserting a rate. Only the quadrature
silt_expectation imports scipy (scipy.integrate), when it is called.

The kernels take their paths in fixed chunks and, given `threads` > 1, run
the chunks on a thread pool, the package's only one. The Gram form
computes each path in its own products and the lag kernel sums the
failed rows of one chunk and one u together, so every result is the
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
# 65536 elements, and the block is that one row. Timed from 16384 to
# 524288 with 256 paths, d = 2, one thread (x86-64, 2 cores): 65536 was
# fastest or level at N = 64, 128 and 256; at N = 256, blocks of 2 to 8
# rows ran up to 22% slower
_BLOCK_ELEMENTS = 65_536
# nodes per side of a Gram node block, and the pair elements of one block
# over a path sub-batch, which also bounds its path-nodes (paths x N).
# 1000 paths at N = 256, d = 2, one eps, one thread (same machine): 32 x
# 32 blocks of 32 paths took 56 ms, of 64 paths 64 ms, of 16 paths 69 ms;
# 64 x 64 blocks of 16 paths took 67 ms, 16 x 16 blocks of 128 paths 76 ms
_NODE_BLOCK = 32
_GRAM_ELEMENTS = 32_768
# largest certified relative error of a Gram row; a row above it, or with
# a bound that is not finite, is summed by the lag kernel instead
_GRAM_RTOL = 5e-13
# relative floor below which eps no longer resolves the grid: eps >= 0.1 * spacing^{2H}
EPS_FLOOR_FACTOR = 0.1


def _check_eps(eps, name: str = "eps") -> float:
    """eps as a float; a ValueError naming it and its value unless it is
    finite and positive. NaN fails every comparison, so `eps <= 0` alone
    would let it through."""
    value = float(eps)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def heat_kernel(eps: float, x):
    """Gaussian kernel (2 pi eps)^{-d/2} exp(-|x|^2/(2 eps)) for x in R^d.

    x may be a scalar (d = 1) or an array whose last axis is the spatial
    dimension; leading axes broadcast.
    """
    eps = _check_eps(eps)
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
    result, does not depend on the thread count. Within a chunk the
    paths go in sub-batches sized by an element budget, and the pairs in
    blocks of 32 x 32 nodes, I <= J. Each path is centered over its nodes
    and scaled by 1/sqrt(eps0), y = (x - mean x) / sqrt(eps0), and one
    stacked matmul of the rows [m, 1, y] and [1, m, y], m = -|y|^2 / 2,
    writes the block's exponent -|x_i - x_j|^2 / (2 eps0); exp runs in
    place, a diagonal block gets a zero diagonal and half weight, and one
    product with the columns [w, w |y|, w |y|^2] gives the trapezoid sum
    and the row's certificate, gamma sum c e (|y_i| + |y_j|)^2 / (2 sum c
    e) with gamma = (2d + 12) 2^-53, which bounds the relative error the
    exponent's rounding leaves. When -1/(2 eps) doubles from one eps to
    the next, as down a dyadic ladder, that rung is the previous one
    squared in place, so a ladder costs one exp per pair; a later rung
    scales the certificate by its rate over the first. A row whose bound
    passes 5e-13 on some rung, or is not finite, is summed again by the
    lag kernel, which visits the circular lag rows of the chunk's failed
    paths in blocks laid out (rows, N, paths). Memory is O(M N d) plus a
    few blocks of 32768 elements per worker.
    """
    return _raw_family(values, grid, np.zeros(values.shape[1:]), [0.0], epsilons, threads)[:, 0]


def silt_raw_shifted(
    values: np.ndarray, grid: TimeGrid, k: np.ndarray, us, epsilons, *, threads: int = 1
) -> np.ndarray:
    """Raw SILT of the shifted family values + u k: (M, N, d) -> (M, n_u, n_eps).

    k is a path (N, d), in practice a Cameron-Martin direction. Each u
    runs silt_raw_batch's kernel on the paths values + u k, formed in the
    kernel's sub-batches as the caller of silt_raw_batch would form them:
    the Gram form on their centered, scaled nodes, y + u kappa with
    kappa = (k - mean k) / sqrt(eps0) up to rounding, certified row by
    row, and the lag kernel on x + u k for the rows whose bound passes
    5e-13. So every row equals silt_raw_batch(values + u k) to the
    bit, the u = 0 row is silt_raw_batch(values) itself, and a row does
    not depend on the other u of its family or on the thread count.
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
    epsilons = np.array([_check_eps(e) for e in np.atleast_1d(epsilons)])
    m, n, d = values.shape
    if n != grid.n:
        raise ValueError("values and grid disagree on N")
    rates = -0.5 / epsilons
    squares = np.concatenate([[False], rates[1:] == 2.0 * rates[:-1]])
    factor = grid.spacing**2 * (2.0 * np.pi * epsilons) ** (-0.5 * d)
    out = np.empty((m, us.size, epsilons.size))

    def work(lo: int, hi: int) -> None:
        x = values[lo:hi]
        for i, u in enumerate(us):
            sums, bounds = _gram_sums(x, k, u, rates, squares)
            # a NaN bound fails the test too, so it never keeps a Gram row
            redo = ~np.all(bounds <= _GRAM_RTOL, axis=1)
            if np.any(redo):
                sums[redo] = _lag_block_sums(_shifted(x[redo], k, u), rates, squares)
            out[lo:hi, i] = sums * factor

    _map_chunks(m, work, threads)
    return out


def _shifted(x: np.ndarray, k: np.ndarray, u: float) -> np.ndarray:
    """The paths x + u k, as the caller of silt_raw_batch would form them;
    x itself at u = 0."""
    return x if u == 0.0 else x + u * k


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


def _gram_sums(
    x: np.ndarray, k: np.ndarray, u: float, rates: np.ndarray, squares: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums of exp(rate * |dx|^2) over i < j for the paths
    x + u k, x (P, N, d), and a bound on the relative error of each, both
    (P, n_rates), from the Gram form of the pair exponent.

    Each path is centered over its nodes and scaled, y = (x - mean) /
    sqrt(eps0) with eps0 = -1 / (2 rates[0]), so that with m = -|y|^2 / 2

        rates[0] |x_i - x_j|^2 = m_i + m_j + y_i . y_j,

    one rank-(d + 2) product of the rows u = [m, 1, y] and v = [1, m, y].
    The paths go in sub-batches of at most _GRAM_ELEMENTS // N paths and
    _GRAM_ELEMENTS pair elements per node block (_gram_block_sums).

    Rounding the exponent costs at most gamma (|y_i| + |y_j|)^2 / 2 per
    pair, gamma a dot-product error constant (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sect. 3.1), so the sum is off
    by at most gamma (r / r0) sum c e (|y_i| + |y_j|)^2 / (2 sum c e)
    relative, apart from the rounding of exp and of the sum itself. A row
    whose every term underflows has a NaN bound. Every path is computed
    alone in its own products, so its bits do not depend on the others."""
    p, n, d = x.shape
    w = _node_weights(n)
    b = min(n, _NODE_BLOCK)
    sub = max(1, min(_GRAM_ELEMENTS // (b * b), _GRAM_ELEMENTS // n))
    ratios = rates / rates[0]
    # roundings per unit of (|y_i| + |y_j|)^2 / 2 in the exponent: 4 from
    # the scale 1/sqrt(eps0) and 4 from the centered, scaled path (each
    # doubled by the square), d in the norms m, d + 2 in the Gram product,
    # and 2 in a later rate's ratio
    gamma = (2 * d + 12) * 2.0**-53
    sums, bounds = np.empty((p, rates.size)), np.empty((p, rates.size))
    for lo in range(0, p, sub):
        q = min(sub, p - lo)
        # the rows u = [m, 1, y] and v = [1, m, y], and the columns [w, w|y|, w|y|^2]
        ur, vr, cs = np.empty((q, d + 2, n)), np.empty((q, d + 2, n)), np.empty((q, 3, n))
        y = ur[:, 2:]
        y[...] = _shifted(x[lo : lo + q], k, u).transpose(0, 2, 1)
        # a path whose |y|^2 overflows, or that is not finite, gets a NaN
        # bound: the certificate reports it, not a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # centered before it is scaled, like mala._Target
            y -= y.mean(axis=2, keepdims=True)
            y *= math.sqrt(-2.0 * rates[0])
            sq = np.sum(y * y, axis=1)
            np.multiply(sq, -0.5, out=ur[:, 0])
            ur[:, 1] = vr[:, 0] = 1.0
            vr[:, 1] = ur[:, 0]
            vr[:, 2:] = y
            cs[:, 0] = w
            np.multiply(np.sqrt(sq), w, out=cs[:, 1])
            np.multiply(sq, w, out=cs[:, 2])
            acc = _gram_block_sums(ur, vr, cs, ratios, squares, b)
            den = acc[:, :, 0, 0]
            num = acc[:, :, 2, 0] + 2.0 * acc[:, :, 1, 1] + acc[:, :, 0, 2]
            sums[lo : lo + q] = den.T
            bounds[lo : lo + q] = (gamma * ratios[:, None] * num / (2.0 * den)).T
    return sums, bounds


def _gram_block_sums(
    ur: np.ndarray, vr: np.ndarray, cs: np.ndarray, ratios: np.ndarray, squares: np.ndarray, b: int
) -> np.ndarray:
    """sum_(i < j) cs_i e_ij cs_j^T per rate, (n_rates, q, 3, 3), over node
    blocks of b: the exponent e's argument is ur^T vr, each of (q, d + 2,
    N), and cs is (q, 3, N). Column block J sums cs_I^T E_IJ over its row
    blocks I <= J, the diagonal block first, at half weight and with a zero
    diagonal; then one product with cs_J closes it."""
    q, _, n = ur.shape
    starts = range(0, n, b)
    lefts = [ur[:, :, i : i + b].transpose(0, 2, 1) for i in starts]
    rights = [vr[:, :, i : i + b] for i in starts]
    cols = [cs[:, :, i : i + b] for i in starts]
    # exponent, kernel and the kernel's diagonal per block shape: b x b, and
    # those of the last, shorter block
    flat, views = np.empty((2, q * b * b)), {}
    col_sums, part = np.empty((ratios.size, q, 3, b)), np.empty((q, 3, b))
    acc, block_acc = np.zeros((ratios.size, q, 3, 3)), np.empty((q, 3, 3))
    for jb, right in enumerate(rights):
        bj = right.shape[2]
        sums_j, part_j = col_sums[..., :bj], part[..., :bj]
        for ib in (jb, *range(jb)):
            shape = (lefts[ib].shape[1], bj)
            if shape not in views:
                s, e = flat[:, : q * shape[0] * bj].reshape(2, q, *shape)
                views[shape] = s, e, e.reshape(q, -1)[:, :: bj + 1]
            s, e, diagonal = views[shape]
            np.matmul(lefts[ib], right, out=s)
            for j, rung in enumerate(_rungs(s, s, ratios, squares, e)):
                if ib == jb:
                    diagonal[...] = 0.0
                    np.multiply(np.matmul(cols[ib], rung, out=sums_j[j]), 0.5, out=sums_j[j])
                else:
                    np.add(sums_j[j], np.matmul(cols[ib], rung, out=part_j), out=sums_j[j])
        for j in range(ratios.size):
            acc[j] += np.matmul(sums_j[j], cols[jb].transpose(0, 2, 1), out=block_acc)
    return acc


def _lag_block_sums(x: np.ndarray, rates: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Trapezoid sums of exp(rate * |dx|^2) over i < j, (P, n_rates), for
    paths x (P, N, d), in one pass over the circular lag rows 1..N/2, each
    weighted by its pair weights.

    The chunk is laid out (d, 2N, P), the paths innermost and written twice
    along the nodes. Circular row m, x[(i + m) mod N] - x[i] for every node
    i, holds the pairs of lag m and of lag N - m; its first term is the
    contiguous (N, P) slice from node m, so a subtract, square or exp over
    a block of r rows runs r loops of N P elements. The sum |dx|^2 adds the
    components in order."""
    p, n, d = x.shape
    acc = np.zeros((p, rates.size))
    # the chunk written twice along the nodes, so that rows[c, m, i] =
    # x[c, (i + m) mod N] for m = 0..N; padding the rows with +inf instead
    # would send exp(-inf) down numpy's slow path. C-ordered: np.concatenate
    # would keep the path-major order of x.transpose
    twice = np.empty((d, 2 * n, p))
    twice[:, :n] = twice[:, n:] = x.transpose(2, 1, 0)
    rows = sliding_window_view(twice, n, axis=1).swapaxes(2, 3)
    # node i of row m weighs the pair (i, (i + m) mod N) by w_i w_((i+m) mod N);
    # the lag-N/2 row of an even N repeats its first half, so the second gets 0
    w = _node_weights(n)
    pair_w = sliding_window_view(np.concatenate([w, w]), n)
    half = n // 2
    b = max(1, _BLOCK_ELEMENTS // (p * n))
    buf = np.empty((2, p * b * n))
    for m0 in range(1, half + 1, b):
        r = min(b, half + 1 - m0)
        c = pair_w[m0 : m0 + r] * w
        if n % 2 == 0 and m0 + r > half:
            c[-1, half:] = 0.0
        # dx and then the rungs, and a
        dx, a = buf[:, : r * n * p].reshape(2, r, n, p)
        for j, (ahead, behind) in enumerate(zip(rows[:, m0 : m0 + r], rows[:, :1])):
            np.subtract(ahead, behind, out=dx)
            if j == 0:
                np.multiply(dx, dx, out=a)
            else:
                np.multiply(dx, dx, out=dx)
                np.add(a, dx, out=a)
        for j, rung in enumerate(_rungs(np.multiply(a, rates[0], out=dx), a, rates, squares, dx)):
            # einsum, not BLAS: a threaded gemv in each kernel worker
            # oversubscribes the cores
            acc[:, j] += np.einsum("rip,ri->p", rung, c)
    return acc


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
    eps = _check_eps(eps)
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
    eps = _check_eps(eps)
    return float(((T + eps) * np.log((T + eps) / eps) - T) / (2.0 * np.pi))


def silt_expectation_grid(params: ModelParams, grid: TimeGrid, eps: float) -> float:
    """Exact mean of the discretized estimator: the triangular trapezoid
    weights applied to the analytic pair expectation, grouped by lag.

    The weights of lag m sum to N-1-m for 1 <= m <= N-2 (two end pairs at
    weight 1/2); the single pair at lag N-1 has weight 1/4."""
    eps = _check_eps(eps)
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
        _check_eps(self.eps0, "eps0")
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
