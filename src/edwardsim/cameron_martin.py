"""Admissible path-space shifts and the Gaussian change-of-measure density.

A shift direction is a path k in the reproducing-kernel space of the fBm
covariance. On the grid a shift is represented by its samples k (with
k(t_0) = 0) together with the weight vector w solving sigma @ w = k[1:],
one weight column per component, and the GridCovariance it was solved on,
which fixes its (H, N, T): a path or params given beside a shift is checked
against it. The discrete energy w^T k plays the role of the squared
reproducing-kernel norm, and the density of the law of (X + u k) against
the law of X is

    exp(u * w^T x - 0.5 * u^2 * w^T k),

multiplied over the d independent components.

For H > 1/2 the kernel

    R_H(t, s) = C_H * s^{1/2 - H} * int_s^t (u - s)^{H - 3/2} u^{H - 1/2} du

with C_H = sqrt(H * (2H - 1) / beta(2 - 2H, H - 1/2)) factorizes the
covariance as cov(t, s) = int_0^{t^s} R_H(t, r) R_H(s, r) dr, and shifts can
alternatively be built from an L^2 control h via k(t) = int_0^t R_H(t,s) h(s) ds.
The grid constructor above is the primary route and works for every H,
including H <= 1/2 where this kernel formula has no real normalization.
The kernel route alone (c_h_norm, make_shift_from_h) imports scipy.special
and scipy.integrate, when called; grid shifts need neither.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .fbm import FbmPath, GridCovariance, _covariance_for
from .params import ModelParams, TimeGrid

__all__ = [
    "c_h_norm",
    "kernel_rh",
    "CMShift",
    "make_shift_from_target",
    "make_shift_from_h",
    "builtin_shift",
    "ShiftedPath",
    "log_gaussian_rn_density",
    "gaussian_rn_density",
]

# log-density threshold beyond which exp() leaves the double range
_LOG_OVERFLOW = 700.0
# Gauss-Legendre points of the kernel_rh quadrature
_N_QUAD = 64


def c_h_norm(H: float) -> float:
    """Normalization C_H = sqrt(H(2H-1)/beta(2-2H, H-1/2)); real for H > 1/2."""
    import scipy.special
    if H <= 0.5:
        raise ValueError(
            "C_H is real only for H > 1/2; for H <= 1/2 build shifts with "
            "make_shift_from_target"
        )
    if H >= 1.0:
        raise ValueError(f"H must lie in (1/2, 1), got H={H}")
    return float(
        np.sqrt(H * (2.0 * H - 1.0) / scipy.special.beta(2.0 - 2.0 * H, H - 0.5))
    )


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def kernel_rh(H: float, t: float, s: float) -> float:
    """Square-root kernel R_H(t, s) for H > 1/2; zero for t <= s.

    The endpoint singularity (u - s)^{H - 3/2} is removed by substituting
    u = s + tau^{1/(H - 1/2)}, after which the integrand is the smooth
    function (s + tau^{1/a})^a / a and _N_QUAD-point Gauss-Legendre applies.
    """
    c = c_h_norm(H)
    if s <= 0.0:
        raise ValueError("kernel_rh requires s > 0")
    if t <= s:
        return 0.0
    a = H - 0.5
    upper = (t - s) ** a
    nodes, weights = _gauss_legendre(_N_QUAD)
    tau = 0.5 * upper * (nodes + 1.0)
    integral = 0.5 * upper * np.sum(weights * (s + tau ** (1.0 / a)) ** a) / a
    return float(c * s ** (0.5 - H) * integral)


@dataclass(eq=False)
class CMShift:
    """Grid realization of a shift direction on the grid of `cov`.

    k has shape (N, d) with k[0] = 0; w has shape (N-1, d) and solves
    cov.sigma @ w[:, c] = k[1:, c] per component, so the shift belongs to
    the (H, N, T) that cov was built for; h is the generating control when
    the shift was built from one (None otherwise).
    """

    cov: GridCovariance
    k: np.ndarray
    w: np.ndarray
    h: np.ndarray | None = None

    @property
    def grid(self) -> TimeGrid:
        return self.cov.grid

    @property
    def d(self) -> int:
        return self.k.shape[1]

    @property
    def energy(self) -> float:
        """Discrete squared norm w^T k summed over components."""
        return float(np.sum(self.w * self.k[1:]))

    def check(self, tol: float = 1e-8) -> None:
        if np.any(self.k[0] != 0.0):
            raise AssertionError("shift must vanish at t_0")
        resid = self.cov.sigma @ self.w - self.k[1:]
        scale = max(np.linalg.norm(self.k[1:]), 1e-300)
        if np.linalg.norm(resid) / scale > tol:
            raise AssertionError("weights do not solve sigma @ w = k")
        if self.energy < 0.0:
            raise AssertionError("shift energy must be nonnegative")


def _as_columns(arr: np.ndarray, n: int, d: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        full = np.zeros((n, d))
        full[:, 0] = arr
        arr = full
    if arr.shape != (n, d):
        raise ValueError(f"{what} must have shape ({n},) or ({n}, {d})")
    return arr


def make_shift_from_target(
    params: ModelParams, k, *, cov: GridCovariance | None = None
) -> CMShift:
    """Shift from target samples: stores k and solves sigma @ w = k[1:].

    Valid for every H in (0, 1); this is the primary constructor. A 1-d k is
    placed in the first component. The shift lives on cov's grid; `cov`
    defaults to GridCovariance(params), and a given one must match params'
    (H, N, T).
    """
    cov = _covariance_for(params, cov)
    k = _as_columns(k, cov.grid.n, params.d, "k")
    if not np.all(np.abs(k[0]) <= 1e-12):
        raise ValueError("shift target must vanish at t_0")
    k = k.copy()
    k[0] = 0.0
    return CMShift(cov=cov, k=k, w=cov.solve(k[1:]))


def make_shift_from_h(
    params: ModelParams, h, *, cov: GridCovariance | None = None
) -> CMShift:
    """Shift from an L^2 control h via k(t) = int_0^t R_H(t, s) h(s) ds.

    Requires H > 1/2 (kernel route). h is given by its grid samples and
    interpolated linearly inside the quadrature. Kept as a consistency
    check against the grid constructor; the integrable s^{1/2-H} endpoint
    is handled by the adaptive integrator. `cov` is taken as in
    make_shift_from_target.
    """
    import scipy.integrate
    if params.H <= 0.5:
        raise ValueError(
            "make_shift_from_h needs H > 1/2; use make_shift_from_target"
        )
    cov = _covariance_for(params, cov)
    grid = cov.grid
    h = _as_columns(h, grid.n, params.d, "h")
    pts = grid.points
    k = np.zeros((grid.n, params.d))
    for c in range(params.d):
        if not np.any(h[:, c]):
            continue
        for i in range(1, grid.n):
            t = pts[i]

            def integrand(s: float) -> float:
                return kernel_rh(params.H, t, s) * np.interp(s, pts, h[:, c])

            val, _ = scipy.integrate.quad(
                integrand, 0.0, t, limit=200, epsabs=1e-10, epsrel=1e-8
            )
            k[i, c] = val
    return replace(make_shift_from_target(params, k, cov=cov), h=h)


def builtin_shift(
    name: str, params: ModelParams, *, cov: GridCovariance | None = None
) -> CMShift:
    """Named shifts: "linear" (t in component 1), "sine" (sin(pi t / T) in
    component 1), "covcol:j" (j-th covariance column in component 1,
    1-based). `cov` is taken as in make_shift_from_target. The covcol:j
    weights are e_j itself, exactly, so that shift needs no solve."""
    cov = _covariance_for(params, cov)
    grid = cov.grid
    t = grid.points
    if name == "linear":
        return make_shift_from_target(params, t, cov=cov)
    if name == "sine":
        return make_shift_from_target(params, np.sin(np.pi * t / grid.horizon), cov=cov)
    if name.startswith("covcol:"):
        j = int(name.split(":", 1)[1])
        if not 1 <= j <= grid.n - 1:
            raise ValueError(f"covcol index must lie in 1..{grid.n - 1}, got {j}")
        k = np.zeros((grid.n, params.d))
        w = np.zeros((grid.n - 1, params.d))
        k[1:, 0] = cov.sigma[:, j - 1]
        w[j - 1, 0] = 1.0
        return CMShift(cov=cov, k=k, w=w)
    raise ValueError(f"unknown shift name {name!r}")


@dataclass(eq=False)
class ShiftedPath:
    """base + u * k, materialized so downstream code sees plain values.
    The base path must be drawn for the (H, N, T) of the shift's cov."""

    base: FbmPath
    shift: CMShift
    u: float

    def __post_init__(self):
        _covariance_for(self.base.params, self.shift.cov)
        if self.shift.k.shape[1] != self.base.d:
            raise ValueError("path and shift must share the component count")
        self.values = self.base.values + self.u * self.shift.k

    @property
    def grid(self) -> TimeGrid:
        return self.base.grid

    @property
    def cov(self) -> GridCovariance:
        return self.base.cov

    @property
    def params(self) -> ModelParams:
        return self.base.params

    @property
    def d(self) -> int:
        return self.base.d


def _log_density(shift: CMShift, us: np.ndarray, values: np.ndarray, tilt=0.0, *, overflow=None):
    """(M, n_u) log density tilt + u * w^T x - 0.5 * u^2 * w^T k at each
    path x of `values` (M, N, d) and each u of `us`: the one Gaussian
    change-of-measure formula of single paths and batches. When `overflow`
    names the caller, a value beyond the double range of exp raises
    OverflowError naming it."""
    cm = np.tensordot(values[:, 1:, :], shift.w, axes=([1, 2], [0, 1]))
    log = tilt + (us * cm[:, None] - 0.5 * us * us * shift.energy)
    if overflow is not None and np.any(log > _LOG_OVERFLOW):
        raise OverflowError(
            f"{overflow} overflows the double range: log density {np.max(log):.3e}"
        )
    return log


def log_gaussian_rn_density(shift: CMShift, u: float, path) -> float:
    """log of the shift-u density: u * w^T x - 0.5 * u^2 * w^T k, summed
    over components. Affine in the path values. The path (any object with
    `params` and `values`) must be drawn for the (H, N, T) of the shift's
    cov."""
    _covariance_for(path.params, shift.cov)
    return float(_log_density(shift, np.array([u]), path.values[None])[0, 0])


def gaussian_rn_density(shift: CMShift, u: float, path) -> float:
    """Density of law(X + u k) against law(X) at the given path, which is
    checked as in log_gaussian_rn_density.

    Strictly positive; equal to 1 at u = 0. Raises OverflowError when the
    value leaves the double range instead of returning inf.
    """
    _covariance_for(path.params, shift.cov)
    log = _log_density(shift, np.array([u]), path.values[None], overflow="gaussian_rn_density")
    return float(np.exp(log[0, 0]))
