"""Path-space Metropolis-adjusted Langevin sampling of the reweighted law.

Targets exp(-g * L_eps(x)) against the Gaussian path law on the grid. The
chain moves in whitened Cameron-Martin coordinates z, x[1:] = L z per
component with L = chol(Sigma) the factor of the pinned-grid covariance:

    log pi(z) = -1/2 |z|^2  -  g * L_eps(L z),
    z' = z + (s^2 / 2) grad log pi(z) + s xi,  grad log pi(z) = -z - g L^T grad L_eps.

That is the Sigma-preconditioned Langevin chain in x, so the g = 0 chain is
an exact AR(1). The accept ratio takes plain Euclidean residuals, s xi
forward and z - z' - (s^2 / 2) grad log pi(z') back, so no iteration solves
against Sigma, and at g = 0 the path is formed only at recorded samples.
Checkpoints carry z, the step size, the iteration and the seed. Every step
draws from its own stream keyed by (seed, step), so the chain has no
generator state to save and an interrupted run concatenates bit-identically.

L_eps and its gradient come from one dense Gram form on the path centered
over its nodes, K_ij = exp(-|x_i - x_j|^2 / (2 eps)) with K_ii = 0, and the
trapezoid node weights w = (1/2, 1, ..., 1, 1/2):

    L_eps = (scale / 2) w^T K w,
    grad_i L_eps = (scale / eps) w_i [(K (w x))_i - (K w)_i x_i]
                 = (scale / sqrt(eps)) w_i [(K (w y))_i - (K w)_i y_i],

with scale = spacing^2 (2 pi eps)^{-d/2}. Per iteration, one einsum over the
d + 2 rows of u = [m, 1, y] and v = [1, m, y] writes the exponent
K_ij = m_i + m_j + y_i . y_j into one reused N x N buffer, where
y = x_c / sqrt(eps) is the centered path and m = -|y|^2 / 2; exp runs in
place; then one product of K with [w, w y]. The einsum adds the rows in
order, norm rows first, so K_ij and K_ji take the same terms in the same
order and K is bit-symmetric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fbm import GridCovariance, _covariance_for
from .params import ModelParams, TimeGrid
from .rng import Keys
from .silt import _check_eps, _node_weights, silt_expectation_grid

__all__ = [
    "MalaResult",
    "ChainState",
    "run_mala",
    "save_checkpoint",
    "load_checkpoint",
    "batch_means_stderr",
    "sokal_iat",
]

MALA_STREAM_INDEX = 2**48
ACCEPT_TARGET = 0.574
ACCEPT_WARN_LOW = 0.1
ACCEPT_WARN_HIGH = 0.9
# burn-in iterations per step-size update
ADAPT_EVERY = 100
# fewest trace samples batch_means_stderr takes
BATCH_MEANS_MIN = 4
# fewest trace samples sokal_iat takes: shorter chains gave estimates below
# the floor of 1 (down to -0.28) up to 24 samples, none from 32 on
IAT_MIN = 32
# the arrays of a checkpoint, as save_checkpoint writes them
_CHECKPOINT_FIELDS = ("xr", "z", "step", "iteration", "seed")


class _Target:
    """Cached geometry for log pi and its Sigma-preconditioned gradient."""

    def __init__(self, params: ModelParams, cov: GridCovariance, eps: float):
        self.eps = _check_eps(eps)
        self.params = params
        self.cov = cov
        self._inv_root_eps = 1.0 / np.sqrt(self.eps)
        grid = cov.grid
        self.w = _node_weights(grid.n)
        self.scale = grid.spacing**2 * (2.0 * np.pi * self.eps) ** (-0.5 * params.d)
        # N x N buffer reused by every call: a fresh one crosses glibc's
        # default mmap and trim thresholds and is faulted in again each iteration
        self._k = np.empty((grid.n, grid.n))
        # rows of the einsum's operands u = [m, 1, y] and v = [1, m, y]; the
        # rows of ones are written here once
        self._u = np.ones((params.d + 2, grid.n))
        self._v = np.ones((params.d + 2, grid.n))
        # right-hand side [w, w y] of the gradient's product with K, and the product
        self._rhs = np.empty((grid.n, params.d + 1))
        self._rhs[:, 0] = self.w
        self._kb = np.empty((grid.n, params.d + 1))

    def _kernel(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair kernel K_ij = exp(-|x_i - x_j|^2 / 2 eps) of one path with a
        zero diagonal, and the scaled path y = x_c / sqrt(eps), centered over
        the nodes, as rows of shape (d, N).

        Centering keeps m_i + m_j + y_i . y_j from cancelling against an
        offset. The exponent is one einsum sum_c u_ci v_cj over the rows of
        u = [m, 1, y] and v = [1, m, y], with m = -|y|^2 / 2; then exp runs
        in place. K is bit-symmetric by construction: einsum adds the rows
        in order, so K_ij starts from the commutative m_i + m_j and adds the
        same rounded products y_ic y_jc as K_ji, in the same order. With the
        norm rows last, or in a BLAS product whose edge tiles round
        otherwise, K_ij and K_ji can differ. The next call overwrites K and
        y."""
        k, u, v = self._k, self._u, self._v
        y = u[2:]
        # centered before it is scaled: scaling a far-offset path first rounds
        # its large entries, which the centering then exposes
        y[...] = x.T
        y -= y.sum(axis=1, keepdims=True) / y.shape[1]
        y *= self._inv_root_eps
        np.einsum("ci,ci->i", y, y, out=u[0])
        u[0] *= -0.5
        v[1] = u[0]
        v[2:] = y
        np.einsum("ci,cj->ij", u, v, out=k)
        np.exp(k, out=k)
        np.fill_diagonal(k, 0.0)
        return k, y

    def raw(self, x: np.ndarray) -> float:
        """SILT of the full path: (scale / 2) w^T K w."""
        k, _ = self._kernel(x)
        return 0.5 * self.scale * float(self.w @ (k @ self.w))

    def raw_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """SILT of the full path and its gradient in the free coordinates
        x[1:]; one product of K with [w, w y] feeds both, y = x_c / sqrt(eps)."""
        k, y = self._kernel(x)
        w, rhs, kb = self.w, self._rhs, self._kb
        np.multiply(w[:, None], y.T, out=rhs[:, 1:])
        np.matmul(k, rhs, out=kb)
        kw = kb[:, 0]
        # a fresh array: the chain keeps the current state's gradient while
        # the next call overwrites the buffers
        grad = (self.scale * self._inv_root_eps) * w[:, None] * (kb[:, 1:] - kw[:, None] * y.T)
        return 0.5 * self.scale * float(w @ kw), grad[1:]


@dataclass(eq=False)
class _State:
    """One chain state with everything the accept ratio reuses."""

    z: np.ndarray  # whitened coordinates, shape (N-1, d)
    raw: float | None  # lazy at g = 0 (only the trace needs it then)
    glog: np.ndarray  # grad log pi in z = -z - g * L^T grad raw
    logpi: float


def _full(xr: np.ndarray) -> np.ndarray:
    return np.vstack([np.zeros((1, xr.shape[1])), xr])


def _make_state(target: _Target, z: np.ndarray) -> _State:
    g = target.params.g
    gauss = -0.5 * float(np.vdot(z, z))
    if g == 0.0:
        # The Gaussian chain never needs the path, the pair sum or its gradient.
        return _State(z=z, raw=None, glog=-z, logpi=gauss)
    chol = target.cov.chol
    raw, graw = target.raw_and_grad(_full(chol @ z))
    glog = -z - g * (chol.T @ graw)
    return _State(z=z, raw=raw, glog=glog, logpi=gauss - g * raw)


def _propose(target: _Target, cur: _State, s: float, xi: np.ndarray) -> tuple[_State, float]:
    """The proposal made from the normal draw xi and its log accept ratio."""
    half = 0.5 * s * s
    prop = _make_state(target, cur.z + half * cur.glog + s * xi)
    rev = cur.z - prop.z - half * prop.glog
    log_q_ratio = 0.5 * float(np.vdot(xi, xi)) - 0.5 / (s * s) * float(np.vdot(rev, rev))
    return prop, prop.logpi - cur.logpi + log_q_ratio


@dataclass(eq=False)
class ChainState:
    """Resumable chain snapshot: position, step size, iteration, seed."""

    xr: np.ndarray  # free path coordinates x[1:] = L z
    z: np.ndarray  # whitened position, from which a resume continues
    step: float
    iteration: int  # steps taken; the next step draws from stream t = iteration
    seed: int  # the key word of every stream, reduced mod 2^64


@dataclass(eq=False)
class MalaResult:
    params: ModelParams
    grid: TimeGrid
    eps: float
    traces: dict
    acceptance_rate: float
    step: float
    n_iter: int
    burn_in: int
    thin: int
    state: ChainState

    def stderr(self, key: str = "lc") -> float:
        return batch_means_stderr(self.traces[key])


def run_mala(
    params: ModelParams,
    *,
    eps: float,
    n_iter: int,
    burn_in: int,
    cov: GridCovariance | None = None,
    step: float = 0.4,
    thin: int = 20,
    resume: ChainState | None = None,
) -> MalaResult:
    """Run the chain and return thinned traces of the centered SILT, the
    path at the middle node N // 2, and log pi.

    Step size adapts toward the optimal acceptance rate during burn-in only
    (multiplicative updates on block acceptance), then freezes so the chain
    after burn-in is a genuine MALA chain. `resume` continues a saved chain
    of params.seed; its step overrides the argument and burn-in is skipped.
    A run that would record no sample raises ValueError. `cov` defaults to
    GridCovariance(params); a given one must match params' (H, N, T).
    """
    if n_iter <= 0 or burn_in < 0 or thin <= 0:
        raise ValueError("n_iter must be positive, burn_in nonnegative, thin positive")
    cov = _covariance_for(params, cov)
    grid = cov.grid
    target = _Target(params, cov, eps)

    keys = Keys(params.seed)
    if resume is not None:
        if resume.seed != keys.seed:
            raise ValueError(f"checkpoint was written under seed {resume.seed}, this chain "
                             f"has seed {keys.seed}: its steps would draw other streams")
        z0 = np.array(resume.z, dtype=float)
        if z0.shape != (grid.n - 1, params.d):
            raise ValueError(f"checkpoint state has shape {z0.shape}, this chain needs "
                             f"{(grid.n - 1, params.d)}")
        s = float(resume.step)
        it0 = int(resume.iteration)
        burn_in = 0
    else:
        z0 = keys.at(MALA_STREAM_INDEX).standard_normal((grid.n - 1, params.d))
        s = float(step)
        it0 = 0

    n_rec = (n_iter - burn_in) // thin
    if n_rec < 1:
        raise ValueError(
            f"chain records no sample: {n_iter} iterations after a burn-in of {burn_in} "
            f"at thin {thin}; need (n_iter - burn_in) // thin >= 1"
        )
    expect = silt_expectation_grid(params, grid, eps)
    cur = _make_state(target, z0)
    lc_tr = np.empty(n_rec)
    coord_tr = np.empty((n_rec, params.d))
    logpi_tr = np.empty(n_rec)
    rec = 0
    accepted = 0
    block_acc = 0

    for it in range(n_iter):
        rng = keys.at(MALA_STREAM_INDEX + 1 + it0 + it)
        xi = rng.standard_normal(z0.shape)
        prop, log_alpha = _propose(target, cur, s, xi)
        if np.log(rng.random()) < log_alpha:
            cur = prop
            block_acc += 1
            if it >= burn_in:
                accepted += 1
        if it < burn_in and (it + 1) % ADAPT_EVERY == 0:
            rate = block_acc / ADAPT_EVERY
            s *= float(np.exp(0.3 * (rate - ACCEPT_TARGET)))
            s = float(np.clip(s, 1e-6, 1e3))
            block_acc = 0
        elif it == burn_in - 1:
            block_acc = 0
        if it >= burn_in and (it - burn_in) % thin == thin - 1:
            if cur.raw is None:  # g = 0: the pair sum of recorded states only
                cur.raw = target.raw(_full(cov.chol @ cur.z))
            lc_tr[rec] = cur.raw - expect
            coord_tr[rec] = cov.chol[grid.n // 2 - 1] @ cur.z
            logpi_tr[rec] = cur.logpi
            rec += 1

    rate = accepted / (n_iter - burn_in)
    if not ACCEPT_WARN_LOW <= rate <= ACCEPT_WARN_HIGH:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside [{ACCEPT_WARN_LOW}, {ACCEPT_WARN_HIGH}]; "
            "adjust the step size",
            RuntimeWarning,
            stacklevel=2,
        )
    state = ChainState(
        xr=cov.chol @ cur.z,
        z=cur.z.copy(),
        step=s,
        iteration=it0 + n_iter,
        seed=keys.seed,
    )
    return MalaResult(
        params=params,
        grid=grid,
        eps=eps,
        traces={"lc": lc_tr, "coord": coord_tr, "logpi": logpi_tr},
        acceptance_rate=rate,
        step=s,
        n_iter=n_iter,
        burn_in=burn_in,
        thin=thin,
        state=state,
    )


def batch_means_stderr(trace: np.ndarray) -> float:
    """Batch-means standard error of the trace mean (accounts for
    autocorrelation left after thinning)."""
    trace = np.asarray(trace, dtype=float)
    n = trace.size
    if trace.ndim != 1:
        raise ValueError(f"batch means need a 1-D trace, got shape {trace.shape}")
    if n < BATCH_MEANS_MIN:
        raise ValueError("trace too short for batch means")
    b = max(2, int(np.sqrt(n)))
    nb = n // b
    blocks = trace[: nb * b].reshape(nb, b).mean(axis=1)
    return float(np.std(blocks, ddof=1) / np.sqrt(nb))


def sokal_iat(trace: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window:
    tau(M) = 1 + 2 sum_{1 <= t <= M} rho_t at the first M >= c tau(M)."""
    x = np.asarray(trace, dtype=float)
    n = x.size
    if x.ndim != 1 or n < IAT_MIN:
        raise ValueError(f"need a 1-D trace of at least IAT_MIN = {IAT_MIN} samples for an "
                         f"autocorrelation time, got shape {x.shape}")
    # tested before centering: x - x.mean() of a constant trace need not be zero
    if np.all(x == x[0]):
        raise ValueError("constant trace has no autocorrelation time")
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f), 2 * n)[:n]
    tau = 2.0 * np.cumsum(acf / acf[0]) - 1.0
    window = np.arange(n) >= c * tau
    m = int(np.argmax(window)) if window.any() else n - 1
    return float(tau[m])


def save_checkpoint(path, state: ChainState) -> None:
    """Checkpoint as plain npz arrays: xr, z, step, iteration, seed."""
    np.savez(
        path,
        xr=state.xr,
        z=state.z,
        step=np.float64(state.step),
        iteration=np.int64(state.iteration),
        seed=np.uint64(state.seed),
    )


def load_checkpoint(path) -> ChainState:
    """Read a checkpoint of save_checkpoint. A file that lacks any of its
    fields is refused with all of them named; one without a seed was written
    before chain steps were keyed or by another program."""
    with np.load(path) as f:
        missing = [name for name in _CHECKPOINT_FIELDS if name not in f]
        if missing:
            why = ["checkpoint lacks " + ", ".join(missing)]
            if "seed" in missing:
                why.append("it has no seed: it was written before chain steps were "
                           "keyed by (seed, step), or not by this sampler")
            if "z" in missing:
                why.append("it has no whitened coordinates z to resume from")
            raise ValueError("; ".join(why))
        return ChainState(
            xr=np.array(f["xr"], dtype=float),
            z=np.array(f["z"], dtype=float),
            step=float(f["step"]),
            iteration=int(f["iteration"]),
            seed=int(f["seed"]),
        )
