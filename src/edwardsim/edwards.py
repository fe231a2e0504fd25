"""Reweighted path ensembles, cylinder functions, and the Dirichlet form.

The reweighted (polymer-type) path law is

    d nu_g = exp(-g * L_c) d nu / E[exp(-g * L_c)],

realized here by self-normalized importance sampling: an ensemble of fBm
paths with weights exp(-g * lc), where lc is the centered SILT at one
working eps, the bottom rung of an eps ladder. Cylinder functions
f(l_1(x), ..., l_n(x)) built from linear grid functionals have exact
directional derivatives along Cameron-Martin shifts, and the Dirichlet form

    E(f, h) = E_g[ <grad f, grad h>_CM ]

(no factor 1/2), with the full Cameron-Martin gradient, is estimated in
closed form from the factor of the covariance the ensemble carries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cameron_martin import CMShift
from .fbm import GridCovariance, _covariance_for, sample_fbm_batch
from .params import ModelParams, TimeGrid
from .silt import LadderConfig, centered_ladder

__all__ = [
    "WeightedEnsemble",
    "edwards_ensemble",
    "coordinate_functional",
    "SmoothFn",
    "make_tanh",
    "make_linear",
    "make_poly_bump",
    "CylinderFunction",
    "random_cylinder",
    "gradient_cylinder",
    "dirichlet_form",
]

ESS_DEGENERACY_FRACTION = 0.01


@dataclass(eq=False)
class WeightedEnsemble:
    """Paths drawn with `cov`, centered SILT values at the working eps, and
    unnormalized weights exp(-g * lc).

    Only the working eps is evaluated: the ladder above it, with its
    convergence diagnostics, is silt_limit's. Weights are finite by
    construction; non-finite weights abort ensemble construction. cov must
    be built for params' (H, N, T).
    """

    params: ModelParams
    cov: GridCovariance
    values: np.ndarray
    lc: np.ndarray
    weights: np.ndarray
    eps: float

    def __post_init__(self):
        _covariance_for(self.params, self.cov)

    @property
    def grid(self) -> TimeGrid:
        return self.cov.grid

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def ess(self) -> float:
        """Kish (sum w)^2 / sum w^2, taken of w / max w so it cannot overflow."""
        r = self.weights / np.max(self.weights)
        s1 = float(np.sum(r))
        return s1 * s1 / float(np.sum(r * r))

    @property
    def normalized_weights(self) -> np.ndarray:
        return self.weights / np.sum(self.weights)

    def expectation(self, a: np.ndarray) -> tuple[float, float]:
        """Self-normalized weighted mean of a per-path array, with stderr."""
        a = np.asarray(a, dtype=float)
        wn = self.normalized_weights
        mean = float(np.dot(wn, a))
        stderr = float(np.sqrt(np.sum(wn**2 * (a - mean) ** 2)))
        return mean, stderr

    def mgf_diagnostic(self) -> float:
        """log of the empirical E[exp(-2 g L_c)] = E[w^2], a finiteness proxy
        for the weight tail; a logsumexp of -2 g lc, so it stays finite
        where w^2 overflows."""
        a = -2.0 * self.params.g * self.lc
        top = float(np.max(a))
        return top + float(np.log(np.mean(np.exp(a - top))))

    def weight_tail(self, qs=(0.5, 0.9, 0.99, 1.0)) -> np.ndarray:
        """Weight quantiles, the plot-ready degeneracy diagnostic."""
        return np.quantile(self.weights, np.asarray(qs))


def edwards_ensemble(
    params: ModelParams,
    m: int,
    ladder: LadderConfig | None = None,
    *,
    cov: GridCovariance | None = None,
    stream_offset: int = 0,
    threads: int = 1,
) -> WeightedEnsemble:
    """Sample M paths on index-derived streams and weight them by
    exp(-g * lc), with lc the centered SILT at the bottom rung of the
    ladder, the working eps. The kernel runs at that eps alone, one exp
    per pair. `cov` defaults to GridCovariance(params); a given one must
    match params' (H, N, T). `threads` runs the SILT kernel's chunks in a
    pool."""
    if ladder is None:
        ladder = LadderConfig()
    cov = _covariance_for(params, cov)
    values = sample_fbm_batch(params, m, cov=cov, stream_offset=stream_offset)
    eps = float(ladder.epsilons[-1])
    _, _, centered = centered_ladder(values, params, cov.grid, [eps], threads=threads)
    lc = centered[:, 0]
    log_w = -params.g * lc
    with np.errstate(over="ignore"):
        weights = np.exp(log_w)
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError(
            "non-finite importance weights; g is outside the admissible range"
        )
    ens = WeightedEnsemble(
        params=params,
        cov=cov,
        values=values,
        lc=lc,
        weights=weights,
        eps=eps,
    )
    if ens.ess < ESS_DEGENERACY_FRACTION * m:
        warnings.warn(
            f"importance weights degenerate: ess {ens.ess:.1f} of {m}",
            RuntimeWarning,
            stacklevel=2,
        )
    return ens


# ------------------------------------------------------- cylinder functions #


def coordinate_functional(grid: TimeGrid, d: int, time_index: int, component: int) -> np.ndarray:
    """Linear functional x -> x(t_i)[c], as a weight array."""
    if not 0 <= time_index < grid.n:
        raise ValueError("time index out of range")
    w = np.zeros((grid.n, d))
    w[time_index, component] = 1.0
    return w


@dataclass(eq=False)
class SmoothFn:
    """Smooth bounded R^n -> R map with an exact gradient, both vectorized
    over leading batch axes."""

    f: callable
    grad: callable
    name: str = "smooth"


def make_tanh(a, b: float = 0.0) -> SmoothFn:
    """f(z) = tanh(a . z + b)."""
    a = np.asarray(a, dtype=float)

    def f(z):
        return np.tanh(z @ a + b)

    def grad(z):
        t = np.tanh(z @ a + b)
        return (1.0 - t * t)[..., None] * a

    return SmoothFn(f=f, grad=grad, name="tanh")


def make_linear(a, b: float = 0.0) -> SmoothFn:
    """f(z) = a . z + b. Unbounded; for exact-identity checks and linear
    observables where boundedness does not matter."""
    a = np.asarray(a, dtype=float)

    def f(z):
        return np.asarray(z) @ a + b

    def grad(z):
        z = np.asarray(z)
        return np.broadcast_to(a, z.shape).copy()

    return SmoothFn(f=f, grad=grad, name="linear")


def make_poly_bump(c0: float, lin, quad) -> SmoothFn:
    """f(z) = (c0 + lin . z + sum_i quad_i z_i^2) * exp(-|z|^2 / 2)."""
    lin = np.asarray(lin, dtype=float)
    quad = np.asarray(quad, dtype=float)

    def f(z):
        p = c0 + z @ lin + (z * z) @ quad
        return p * np.exp(-0.5 * np.sum(z * z, axis=-1))

    def grad(z):
        e = np.exp(-0.5 * np.sum(z * z, axis=-1))
        p = c0 + z @ lin + (z * z) @ quad
        return e[..., None] * (lin + 2.0 * quad * z - p[..., None] * z)

    return SmoothFn(f=f, grad=grad, name="poly_bump")


@dataclass(eq=False)
class CylinderFunction:
    """f(l_1(x), ..., l_n(x)) with linear grid functionals l_i.

    `weights` has shape (n, N, d): one weight array per functional.
    """

    weights: np.ndarray
    fn: SmoothFn

    @property
    def n_args(self) -> int:
        return self.weights.shape[0]

    def z(self, values: np.ndarray) -> np.ndarray:
        """Functional values; accepts (N, d) or batched (M, N, d)."""
        return np.tensordot(values, self.weights, axes=([-2, -1], [1, 2]))

    def value(self, values: np.ndarray):
        return self.fn.f(self.z(values))

    def grad_coeffs(self, values: np.ndarray) -> np.ndarray:
        return self.fn.grad(self.z(values))


def random_cylinder(
    rng: np.random.Generator, grid: TimeGrid, d: int, n_args: int = 2
) -> CylinderFunction:
    """Random test function: a mix of coordinate and smoothed-weight
    functionals composed with a random bounded smooth map."""
    ws = []
    for _ in range(n_args):
        if rng.random() < 0.5:
            i = int(rng.integers(1, grid.n))
            c = int(rng.integers(0, d))
            ws.append(coordinate_functional(grid, d, i, c))
        else:
            w = rng.standard_normal((grid.n, d))
            w[0] = 0.0
            ws.append(w / (np.linalg.norm(w) * np.sqrt(grid.n)))
    weights = np.stack(ws)
    if rng.random() < 0.5:
        fn = make_tanh(rng.standard_normal(n_args), float(rng.standard_normal()))
    else:
        fn = make_poly_bump(
            float(rng.standard_normal()),
            rng.standard_normal(n_args),
            0.5 * rng.standard_normal(n_args),
        )
    return CylinderFunction(weights=weights, fn=fn)


def gradient_cylinder(fcn: CylinderFunction, shift: CMShift, values: np.ndarray):
    """Directional derivative of the cylinder function along the shift:
    sum_i d_i f(l(x)) * l_i(k). Exact by the chain rule (l_i are linear).

    Accepts (N, d) or batched (M, N, d) values.
    """
    zk = fcn.z(shift.k)
    g = fcn.grad_coeffs(np.asarray(values, dtype=float))
    return g @ zk


# ------------------------------------------------------------ Dirichlet form #


def dirichlet_form(
    f: CylinderFunction, h: CylinderFunction, ensemble: WeightedEnsemble
) -> tuple[float, float]:
    """Weighted estimate of E(f, h) = E_g[<grad f, grad h>_CM] with the full
    Cameron-Martin gradient. Returns (value, stderr).

    With sigma = C C^T, the CM inner product of the gradients of f and h at
    a path is v_f . v_h, where v_f = grad phi_f(z_f(x)) @ A_f and row i of
    A_f stacks C^T w_i[1:, c] over the components c (node 0 is pinned and
    carries no gradient). The per-path summand is formed identically for
    (f, h) and (h, f), so the estimate is symmetric to the bit; for f = h
    it is a weighted mean of squares and therefore nonnegative. C is the
    factor of the ensemble's own covariance.
    """

    def cm_gradient(fcn: CylinderFunction) -> np.ndarray:  # (M, (N-1) d)
        a = np.tensordot(fcn.weights[:, 1:, :], ensemble.cov.chol, axes=([1], [0]))
        return fcn.grad_coeffs(ensemble.values) @ a.reshape(fcn.n_args, -1)

    return ensemble.expectation(np.sum(cm_gradient(f) * cm_gradient(h), axis=1))
