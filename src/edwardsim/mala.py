"""Path-space Metropolis-adjusted Langevin sampling of the reweighted law.

Targets the density exp(-g * L_eps(x)) against the Gaussian path measure on
the grid, i.e. the unnormalized log density

    log pi(x) = -1/2 sum_c x_c^T Sigma^{-1} x_c  -  g * L_eps(x),

with Sigma the pinned-grid covariance. Proposals are preconditioned by
Sigma itself,

    y = x + (s^2 / 2) * Sigma grad log pi(x) + s * chol(Sigma) xi,

which makes the g = 0 chain an exact AR(1) in the whitened coordinates.
The Sigma-weighted drift needs no extra solves: Sigma grad log pi =
-x - g * Sigma grad L_eps, and the solve Sigma^{-1} x is cached per state
for the accept ratio.

L_eps and its gradient come from one dense Gram form on the path centered
over its nodes, K_ij = exp(-(|x_i|^2 + |x_j|^2 - 2 x_i . x_j) / (2 eps))
with K_ii = 0, and the trapezoid node weights w = (1/2, 1, ..., 1, 1/2):

    L_eps = (scale / 2) w^T K w,
    grad_i L_eps = (scale / eps) w_i [(K (w x))_i - (K w)_i x_i],

with scale = spacing^2 (2 pi eps)^{-d/2}. Per iteration: one rank-one
BLAS product -2 x_c x_c^T per component, one rank-two product
[|x|^2, 1] [1, |x|^2]^T for the norm sum, one exp and one product of K with
[w, w x]. Every entry of those products is a single rounding of a
commutative expression, so K is bit-symmetric whatever tiles the BLAS uses.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .fbm import GridCovariance
from .params import ModelParams, TimeGrid
from .rng import stream
from .silt import _node_weights, silt_expectation_grid

__all__ = [
    "MalaResult",
    "ChainState",
    "run_mala",
    "save_checkpoint",
    "load_checkpoint",
    "batch_means_stderr",
]

MALA_STREAM_INDEX = 2**48
ACCEPT_TARGET = 0.574
ACCEPT_WARN_LOW = 0.1
ACCEPT_WARN_HIGH = 0.9
# burn-in iterations per step-size update
ADAPT_EVERY = 100


class _Target:
    """Cached geometry for log pi and its Sigma-preconditioned gradient."""

    def __init__(self, params: ModelParams, cov: GridCovariance, eps: float):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        from scipy.linalg.blas import dgemm
        self._dgemm = dgemm
        self.params = params
        self.cov = cov
        self.eps = float(eps)
        grid = cov.grid
        self.w = _node_weights(grid.n)
        self.scale = grid.spacing**2 * (2.0 * np.pi * self.eps) ** (-0.5 * params.d)
        # N x N buffers reused by every call: fresh ones cross glibc's default
        # mmap and trim thresholds and are faulted in again each iteration
        self._k = np.empty((grid.n, grid.n))
        self._sums = np.empty((grid.n, grid.n))
        # columns |x_i|^2 and 1: the two factors of the norm sum
        self._norms = np.ones((grid.n, 2))

    def _kernel(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair kernel K_ij = exp(-|x_i - x_j|^2 / 2 eps) of one path with a
        zero diagonal, and the path centered over the nodes.

        Centering keeps |x_i|^2 + |x_j|^2 - 2 x_i . x_j from cancelling
        against an offset. -2 x x^T is summed from one rank-one product per
        component (beta = 0, written into the reused buffers), and
        |x_i|^2 + |x_j|^2 is the rank-two product [|x|^2, 1] [1, |x|^2]^T.
        Each entry of a rank-one product is one rounded product x_ic x_jc,
        and each norm sum one rounding of |x_i|^2 + |x_j|^2, so K is
        bit-symmetric by construction; a single product x (-2 x)^T is not.
        The next call overwrites K."""
        x = x - x.mean(axis=0)
        k, scratch, norms, dgemm = self._k, self._sums, self._norms, self._dgemm
        # symmetric results, so the C-ordered buffers are written through
        # their Fortran-ordered transposes
        for comp in range(x.shape[1]):
            col = x[:, comp : comp + 1]
            dgemm(-2.0, col, col, trans_b=1, c=(scratch if comp else k).T, overwrite_c=1)
            if comp:
                k += scratch
        np.einsum("ij,ij->i", x, x, out=norms[:, 0])
        dgemm(1.0, norms, norms[:, ::-1], trans_b=1, c=scratch.T, overwrite_c=1)
        k += scratch
        k *= -0.5 / self.eps
        np.exp(k, out=k)
        np.fill_diagonal(k, 0.0)
        return k, x

    def raw(self, x: np.ndarray) -> float:
        """SILT of the full path: (scale / 2) w^T K w."""
        k, _ = self._kernel(x)
        return 0.5 * self.scale * float(self.w @ (k @ self.w))

    def raw_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """SILT of the full path and its gradient in the free coordinates
        x[1:]; one product of K with [w, w x] feeds both."""
        k, x = self._kernel(x)
        w = self.w
        kb = k @ np.column_stack([w, w[:, None] * x])
        kw = kb[:, 0]
        grad = (self.scale / self.eps) * w[:, None] * (kb[:, 1:] - kw[:, None] * x)
        return 0.5 * self.scale * float(w @ kw), grad[1:]


@dataclass(eq=False)
class _State:
    """One chain state with everything the accept ratio reuses."""

    xr: np.ndarray  # free coordinates x[1:], shape (N-1, d)
    prec: np.ndarray  # Sigma^{-1} xr per component
    raw: float | None  # lazy at g = 0 (only the trace needs it then)
    glog: np.ndarray  # grad log pi = -prec - g * grad raw
    drift: np.ndarray  # Sigma grad log pi = -xr - g * Sigma grad raw
    logpi: float


def _full(xr: np.ndarray) -> np.ndarray:
    return np.vstack([np.zeros((1, xr.shape[1])), xr])


def _make_state(target: _Target, xr: np.ndarray) -> _State:
    cov = target.cov
    g = target.params.g
    prec = cov.solve(xr)
    gauss = -0.5 * float(np.sum(xr * prec))
    if g == 0.0:
        # The Gaussian chain never needs the pair sum or its gradient.
        return _State(xr=xr, prec=prec, raw=None, glog=-prec, drift=-xr, logpi=gauss)
    raw, graw = target.raw_and_grad(_full(xr))
    glog = -prec - g * graw
    drift = -xr - g * (cov.sigma @ graw)
    return _State(xr=xr, prec=prec, raw=raw, glog=glog, drift=drift, logpi=gauss - g * raw)


def _log_q(s: float, frm: _State, to: _State) -> float:
    """log proposal density q(frm -> to), up to the shared normalization."""
    r = to.xr - (frm.xr + 0.5 * s * s * frm.drift)
    prec_r = to.prec - frm.prec - 0.5 * s * s * frm.glog
    return -0.5 / (s * s) * float(np.sum(r * prec_r))


@dataclass(eq=False)
class ChainState:
    """Resumable chain snapshot: position, step size, iteration, rng."""

    xr: np.ndarray
    step: float
    iteration: int
    rng_state: dict


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
    adapt: bool = True,
    resume: ChainState | None = None,
    record_index: int | None = None,
) -> MalaResult:
    """Run the chain and return thinned traces of the centered SILT, one
    path coordinate, and log pi.

    Step size adapts toward the optimal acceptance rate during burn-in only
    (multiplicative updates on block acceptance), then freezes so the chain
    after burn-in is a genuine MALA chain. `resume` continues a saved chain;
    its step overrides the argument and burn-in is skipped.
    """
    if n_iter <= 0 or burn_in < 0 or thin <= 0:
        raise ValueError("n_iter must be positive, burn_in nonnegative, thin positive")
    if cov is None:
        cov = GridCovariance(params)
    grid = cov.grid
    target = _Target(params, cov, eps)
    expect = silt_expectation_grid(params, grid, eps)
    if record_index is None:
        record_index = grid.n // 2
    if not 1 <= record_index < grid.n:
        raise ValueError("record_index must point at a free grid node")

    if resume is not None:
        rng = np.random.Generator(np.random.Philox())
        rng.bit_generator.state = resume.rng_state
        cur = _make_state(target, np.array(resume.xr, dtype=float))
        s = float(resume.step)
        it0 = int(resume.iteration)
        burn_in = 0
        adapt = False
    else:
        rng = stream(params.seed, MALA_STREAM_INDEX)
        xi = rng.standard_normal((grid.n - 1, params.d))
        cur = _make_state(target, cov.chol @ xi)
        s = float(step)
        it0 = 0

    n_rec = (n_iter - burn_in) // thin
    lc_tr = np.empty(n_rec)
    coord_tr = np.empty((n_rec, params.d))
    logpi_tr = np.empty(n_rec)
    rec = 0
    accepted = 0
    block_acc = 0

    for it in range(n_iter):
        xi = rng.standard_normal((grid.n - 1, params.d))
        prop_xr = cur.xr + 0.5 * s * s * cur.drift + s * (cov.chol @ xi)
        prop = _make_state(target, prop_xr)
        log_alpha = prop.logpi - cur.logpi + _log_q(s, prop, cur) - _log_q(s, cur, prop)
        if np.log(rng.random()) < log_alpha:
            cur = prop
            block_acc += 1
            if it >= burn_in:
                accepted += 1
        if adapt and it < burn_in and (it + 1) % ADAPT_EVERY == 0:
            rate = block_acc / ADAPT_EVERY
            s *= float(np.exp(0.3 * (rate - ACCEPT_TARGET)))
            s = float(np.clip(s, 1e-6, 1e3))
            block_acc = 0
        elif it == burn_in - 1:
            block_acc = 0
        if it >= burn_in and (it - burn_in) % thin == thin - 1 and rec < n_rec:
            raw_cur = cur.raw if cur.raw is not None else target.raw(_full(cur.xr))
            lc_tr[rec] = raw_cur - expect
            coord_tr[rec] = cur.xr[record_index - 1]
            logpi_tr[rec] = cur.logpi
            rec += 1

    n_post = n_iter - burn_in
    rate = accepted / n_post if n_post > 0 else float("nan")
    if n_post > 0 and not ACCEPT_WARN_LOW <= rate <= ACCEPT_WARN_HIGH:
        warnings.warn(
            f"acceptance rate {rate:.3f} outside [{ACCEPT_WARN_LOW}, {ACCEPT_WARN_HIGH}]; "
            "adjust the step size",
            RuntimeWarning,
            stacklevel=2,
        )
    state = ChainState(
        xr=cur.xr.copy(),
        step=s,
        iteration=it0 + n_iter,
        rng_state=rng.bit_generator.state,
    )
    return MalaResult(
        params=params,
        grid=grid,
        eps=eps,
        traces={"lc": lc_tr[:rec], "coord": coord_tr[:rec], "logpi": logpi_tr[:rec]},
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
    if n < 4:
        raise ValueError("trace too short for batch means")
    b = max(2, int(np.sqrt(n)))
    nb = n // b
    blocks = trace[: nb * b].reshape(nb, b).mean(axis=1)
    return float(np.std(blocks, ddof=1) / np.sqrt(nb))


def save_checkpoint(path, state: ChainState) -> None:
    """Binary checkpoint: arrays via savez, rng state via a JSON sidecar
    field (Philox counters are uint64 arrays; json gets them as lists)."""
    rs = state.rng_state
    inner = rs["state"]
    payload = {
        "bit_generator": rs["bit_generator"],
        "counter": np.asarray(inner["counter"], dtype=np.uint64).tolist(),
        "key": np.asarray(inner["key"], dtype=np.uint64).tolist(),
        "buffer": np.asarray(rs["buffer"], dtype=np.uint64).tolist(),
        "buffer_pos": int(rs["buffer_pos"]),
        "has_uint32": int(rs["has_uint32"]),
        "uinteger": int(rs["uinteger"]),
    }
    np.savez(
        path,
        xr=state.xr,
        step=np.float64(state.step),
        iteration=np.int64(state.iteration),
        rng_json=np.bytes_(json.dumps(payload).encode()),
    )


def load_checkpoint(path) -> ChainState:
    with np.load(path) as z:
        xr = np.array(z["xr"], dtype=float)
        step = float(z["step"])
        iteration = int(z["iteration"])
        payload = json.loads(z["rng_json"].item().decode())
    if payload["bit_generator"] != "Philox":
        raise ValueError("checkpoint was not written by this sampler")
    rng_state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array(payload["counter"], dtype=np.uint64),
            "key": np.array(payload["key"], dtype=np.uint64),
        },
        "buffer": np.array(payload["buffer"], dtype=np.uint64),
        "buffer_pos": payload["buffer_pos"],
        "has_uint32": payload["has_uint32"],
        "uinteger": payload["uinteger"],
    }
    return ChainState(xr=xr, step=step, iteration=iteration, rng_state=rng_state)
