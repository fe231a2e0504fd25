"""Second-moment machinery for pairs of path increments.

For a quadruple (s, t, s', t') with s < t and s' < t', the two increments
(B_t - B_s) and (B_{t'} - B_{s'}) of one fBm component are jointly Gaussian
with covariance matrix

    Sigma = [[lam, mu], [mu, rho]],
    lam = |t - s|^{2H},  rho = |t' - s'|^{2H},
    mu  = 0.5 * (|t - s'|^{2H} + |t' - s|^{2H} - |t - t'|^{2H} - |s - s'|^{2H}),

so the characteristic function of the pair is exp(-0.5 * y^T Sigma y) per
component. Everything downstream of that identity lives here: the Gaussian
moment integral with its closed-form candidate, the L^2 modulus of the
centered SILT between two shift magnitudes, the Holder-slope report, and
the exact density of the shifted reweighted law with its continuity scan.
The last three take the SILT along the Cameron-Martin family x + u k, under
which that law is quasi-invariant, from one silt_raw_shifted call on a
shared base ensemble (common random numbers); u = 0 is the base. The grid,
and the law of the paths they draw, come from the shift's covariance. Only
the moment quadratures and the closed form import scipy.integrate and
scipy.special, when called; the CLI calls neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cameron_martin import CMShift, _log_density
from .fbm import _covariance_for, sample_fbm_batch
from .params import ModelParams
from .rng import stream
from .silt import silt_raw_shifted

__all__ = [
    "SigmaMatrix",
    "sigma_matrix",
    "MomentIntegral",
    "gaussian_moment_integral",
    "l2_difference_silt",
    "HolderReport",
    "holder_verify",
    "density_process",
    "density_process_batch",
    "ContinuityScan",
    "continuity_scan",
]

# stream seed of the d >= 3 Monte Carlo moment integral
_MC_SEED = 0
# Holder rate gamma of the L^2 modulus: slopes are compared against 1 + gamma
HOLDER_GAMMA = 0.5


@dataclass(frozen=True)
class SigmaMatrix:
    """Increment-pair covariance entries and the quadruple they came from."""

    lam: float
    rho: float
    mu: float
    quadruple: tuple[float, float, float, float]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.lam, self.mu], [self.mu, self.rho]])

    @property
    def det(self) -> float:
        return self.lam * self.rho - self.mu * self.mu

    def is_psd(self, tol: float = 1e-10) -> bool:
        return self.lam >= -tol and self.rho >= -tol and self.det >= -tol


def sigma_matrix(H: float, s: float, t: float, sp: float, tp: float) -> SigmaMatrix:
    """Covariance of the increment pair over (s, t) and (s', t').

    Requires 0 <= s < t and 0 <= s' < t' (the boundary s = 0 is allowed;
    it carries no measure in the simplex integrals).
    """
    if not (0.0 <= s < t):
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    if not (0.0 <= sp < tp):
        raise ValueError(f"need 0 <= s' < t', got s'={sp}, t'={tp}")
    two_h = 2.0 * H
    lam = abs(t - s) ** two_h
    rho = abs(tp - sp) ** two_h
    mu = 0.5 * (
        abs(t - sp) ** two_h
        + abs(tp - s) ** two_h
        - abs(t - tp) ** two_h
        - abs(s - sp) ** two_h
    )
    return SigmaMatrix(lam=float(lam), rho=float(rho), mu=float(mu), quadruple=(s, t, sp, tp))


# ------------------------------------------------- Gaussian moment integral #


@dataclass(frozen=True)
class MomentIntegral:
    """Numeric value of the moment integral next to the closed-form candidate.

    The candidate 2^{d(2a+1)} Gamma(a+1/2)^{2d} / det(Sigma+eps I)^{d/2+da}
    is exact for d = 1 with diagonal Sigma; off the diagonal the ratio is
    recorded, not asserted.
    """

    numeric: float
    closed_form: float
    method: str

    @property
    def ratio(self) -> float:
        return self.numeric / self.closed_form


def _closed_form(a: float, b: float, mu: float, alpha: float, d: int) -> float:
    import scipy.special
    det = a * b - mu * mu
    if det <= 0.0:
        raise ValueError("Sigma + eps*I must be positive definite")
    gam = scipy.special.gamma(alpha + 0.5)
    return float(2.0 ** (d * (2.0 * alpha + 1.0)) * gam ** (2 * d) / det ** (0.5 * d + d * alpha))


def _moment_quad_d1(a: float, b: float, r: float, alpha: float) -> float:
    """4 (ab)^{-(alpha+1/2)} * int_{[0,inf)^2} x^2a y^2a e^{-(x^2+y^2)/2} cosh(rxy)."""
    import scipy.integrate

    def f(y: float, x: float) -> float:
        base = -0.5 * (x * x + y * y)
        cross = r * x * y
        return (x * y) ** (2.0 * alpha) * 0.5 * (np.exp(base + cross) + np.exp(base - cross))

    lim = min(14.0 / np.sqrt(1.0 - abs(r)), 300.0)
    val, _ = scipy.integrate.dblquad(f, 0.0, lim, 0.0, lim, epsabs=1e-13, epsrel=1e-11)
    return 4.0 * (a * b) ** (-(alpha + 0.5)) * val


def _moment_quad_d2(a: float, b: float, r: float, alpha: float) -> float:
    """Polar reduction: (2 pi)^2 (ab)^{-(alpha+1)} *
    int_{[0,inf)^2} x^{2a+1} y^{2a+1} e^{-(x^2+y^2)/2} I_0(rxy)."""
    import scipy.integrate
    import scipy.special
    r = abs(r)

    def f(y: float, x: float) -> float:
        z = r * x * y
        expo = -0.5 * (x * x + y * y) + z
        return x ** (2.0 * alpha + 1.0) * y ** (2.0 * alpha + 1.0) * scipy.special.i0e(z) * np.exp(expo)

    lim = min(14.0 / np.sqrt(1.0 - r), 300.0)
    val, _ = scipy.integrate.dblquad(f, 0.0, lim, 0.0, lim, epsabs=1e-13, epsrel=1e-11)
    return (2.0 * np.pi) ** 2 * (a * b) ** (-(alpha + 1.0)) * val


def _moment_mc(a: float, b: float, mu: float, alpha: float, d: int, n: int, rng) -> float:
    """Importance sampling from N(0, (Sigma_eps kron I_d)^{-1}) with the
    control variate |y1|^2 |y2|^2, whose mean is exact by Wick's theorem."""
    sig = np.array([[a, mu], [mu, b]])
    det = a * b - mu * mu
    chol = np.linalg.cholesky(sig)
    v = np.linalg.inv(sig)  # 2x2 precision inverse = sampling covariance
    z = rng.standard_normal((n, 2, d))
    # y has per-coordinate-pair covariance sig^{-1}
    y = np.linalg.solve(chol.T[None], z)
    n1 = np.sum(y[:, 0, :] ** 2, axis=1)
    n2 = np.sum(y[:, 1, :] ** 2, axis=1)
    f = (n1 * n2) ** alpha
    h = n1 * n2
    h_mean = d * d * v[0, 0] * v[1, 1] + 2.0 * d * v[0, 1] ** 2
    cov_fh = np.mean((f - f.mean()) * (h - h.mean()))
    var_h = np.var(h)
    beta = cov_fh / var_h if var_h > 0 else 0.0
    est = f.mean() - beta * (h.mean() - h_mean)
    norm = (2.0 * np.pi) ** d / det ** (0.5 * d)
    return float(norm * est)


def gaussian_moment_integral(
    sigma: SigmaMatrix,
    eps: float,
    alpha: float,
    d: int,
    *,
    mc_samples: int = 1_000_000,
) -> MomentIntegral:
    """Moment integral int exp(-0.5 (y^T (Sigma kron I_d) y + eps |y|^2))
    (|y1| |y2|)^{2 alpha} dy over R^{2d}, with its closed-form candidate.

    Deterministic quadrature for d <= 2 (the angular parts reduce exactly
    to cosh and a Bessel factor); Monte Carlo with a control variate for
    d >= 3. Requires alpha in [1/2, 1) and eps >= 0 with Sigma + eps I
    positive definite.
    """
    if not 0.5 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [1/2, 1), got {alpha}")
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    a = sigma.lam + eps
    b = sigma.rho + eps
    mu = sigma.mu
    if a <= 0.0 or b <= 0.0 or a * b - mu * mu <= 0.0:
        raise ValueError("Sigma + eps*I must be positive definite")
    closed = _closed_form(a, b, mu, alpha, d)
    r = mu / np.sqrt(a * b)
    if d == 1:
        numeric = _moment_quad_d1(a, b, r, alpha)
        method = "quad-cosh"
    elif d == 2:
        numeric = _moment_quad_d2(a, b, r, alpha)
        method = "quad-bessel"
    else:
        numeric = _moment_mc(a, b, mu, alpha, d, mc_samples, stream(_MC_SEED, 0))
        method = "mc-control-variate"
    return MomentIntegral(numeric=float(numeric), closed_form=closed, method=method)


# ----------------------------------------------------- L^2 Holder machinery #


def _shifted_silt(who, params: ModelParams, shift: CMShift, us, epsilons, m: int, threads: int):
    """Raw SILT (m, n_u, n_eps) of the family x + u k on m base paths drawn
    with sample_fbm_batch(params, m, cov=shift.cov), shared by every u and
    eps (common random numbers). params must have the shift's (H, N, T);
    m >= 2, since the callers report a standard error."""
    if m < 2:
        raise ValueError(f"{who} needs at least 2 paths for a standard error, got m={m}")
    cov = _covariance_for(params, shift.cov)
    values = sample_fbm_batch(params, m, cov=cov)
    return silt_raw_shifted(values, cov.grid, shift.k, us, epsilons, threads=threads)


def l2_difference_silt(
    params: ModelParams, shift: CMShift, eps: float, u: float, v: float, m: int, *, threads: int = 1
) -> tuple[float, float]:
    """Monte Carlo estimate of E[(L_eps,c(u k) - L_eps,c(v k))^2] over m
    paths drawn with the shift's covariance, whose (H, N, T) params must
    share.

    Common random numbers: both shift magnitudes are applied to the same
    base paths, so u = v gives exactly zero and the estimate is symmetric
    in (u, v) to the bit. The centering terms cancel in the difference.
    Returns (estimate, stderr); needs at least 2 paths for the stderr.
    """
    raw = _shifted_silt("l2_difference_silt", params, shift, [u, v], [eps], m, threads)[:, :, 0]
    dsq = (raw[:, 0] - raw[:, 1]) ** 2
    return float(np.mean(dsq)), float(np.std(dsq, ddof=1) / np.sqrt(m))


def _wls_loglog(x: np.ndarray, y: np.ndarray, y_se: np.ndarray):
    """Weighted least squares of log y on log x; returns slope, intercept,
    slope stderr propagated from the relative errors of y."""
    lx = np.log(x)
    ly = np.log(y)
    var = (y_se / y) ** 2
    var = np.maximum(var, 1e-12)
    w = 1.0 / var
    design = np.column_stack([np.ones_like(lx), lx])
    a = design.T @ (w[:, None] * design)
    b = design.T @ (w * ly)
    coef = np.linalg.solve(a, b)
    cov = np.linalg.inv(a)
    return float(coef[1]), float(coef[0]), float(np.sqrt(cov[1, 1]))


@dataclass(eq=False)
class HolderReport:
    """L^2 modulus of the centered SILT along a shift family.

    estimates[k, p] is the squared-difference estimate at epsilons[k] and
    pair (deltas[p], 0); slopes are per-eps log-log regression slopes with
    stderr. The smallest eps is the operative row; `target_exponent` is the
    1 + gamma rate the modulus is compared against.
    """

    epsilons: np.ndarray
    deltas: np.ndarray
    pairs: list
    estimates: np.ndarray
    stderrs: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    slope_stderrs: np.ndarray
    gamma: float
    m: int

    @property
    def target_exponent(self) -> float:
        return 1.0 + self.gamma

    @property
    def slope(self) -> float:
        """Slope at the smallest eps."""
        return float(self.slopes[-1])

    @property
    def slope_lower95(self) -> float:
        """One-sided 95 percent lower confidence bound at the smallest eps."""
        return float(self.slopes[-1] - 1.645 * self.slope_stderrs[-1])

    @property
    def slope_ci95(self) -> tuple[float, float]:
        half = 1.96 * self.slope_stderrs[-1]
        return (float(self.slopes[-1] - half), float(self.slopes[-1] + half))


def holder_verify(
    params: ModelParams, shift: CMShift, epsilons, deltas, m: int, *, threads: int = 1
) -> HolderReport:
    """Estimate E[(L_eps,c(delta k) - L_eps,c(0))^2] on a delta schedule for
    each eps and fit the log-log slope, sharing one base ensemble of m
    paths, drawn with the shift's covariance, across every cell (common
    random numbers). params must share the shift's (H, N, T)."""
    epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if np.any(deltas <= 0.0):
        raise ValueError("delta schedule must be positive")
    raw = _shifted_silt("holder_verify", params, shift, [0.0, *deltas], epsilons, m, threads)
    # row 0 of the family is the base; est[k, p] is at eps k and delta p
    dsq = (raw[:, 1:] - raw[:, :1]) ** 2
    est = dsq.mean(axis=0).T
    se = dsq.std(axis=0, ddof=1).T / np.sqrt(m)
    fits = np.array([_wls_loglog(deltas, e, s) for e, s in zip(est, se)])
    slopes, inters, slope_ses = fits.T
    return HolderReport(
        epsilons=epsilons,
        deltas=deltas,
        pairs=[(float(dl), 0.0) for dl in deltas],
        estimates=est,
        stderrs=se,
        slopes=slopes,
        intercepts=inters,
        slope_stderrs=slope_ses,
        gamma=HOLDER_GAMMA,
        m=m,
    )


# --------------------------------------------------------- density process #


def density_process(shift: CMShift, u: float, path, eps: float, *, g: float | None = None) -> float:
    """Density of the reweighted path law under the shift u*k at this path:
    exp(-g * [L_eps(x - u k) - L_eps(x)]) times the Gaussian factor of
    gaussian_rn_density.

    This is the exact finite-dimensional density of the shifted reweighted
    law against itself, and integrates to 1 under the reweighted ensemble
    for every eps and g. At u = 0 the value is exactly 1; at g = 0 it equals
    gaussian_rn_density to the bit (one formula). g defaults to
    path.params.g; the path must be drawn for the (H, N, T) of the shift's
    cov.
    """
    _covariance_for(path.params, shift.cov)
    g = path.params.g if g is None else g
    return float(density_process_batch(shift, u, path.values[None], eps, g=g)[0])


def density_process_batch(
    shift: CMShift, u: float, values: np.ndarray, eps: float, *, g: float, threads: int = 1
) -> np.ndarray:
    """Vectorized density process over a batch of paths (M, N, d) on the
    shift's grid; that the paths follow the law of the shift's covariance is
    the caller's to ensure."""
    log_a = _log_densities(shift, np.array([float(u)]), values, eps, g, threads)
    return np.exp(log_a[:, 0])


def _log_densities(shift: CMShift, us, values, eps: float, g: float, threads: int):
    """(M, n_u) log density process at each u of `us`, from one shifted
    family at -us. The unshifted SILT is the family's u = 0 row when `us`
    holds 0, and a row of its own in front otherwise. values must have the
    shift's N and d."""
    n, d = shift.grid.n, shift.k.shape[1]
    if values.ndim != 3 or values.shape[1:] != (n, d):
        raise ValueError(
            f"values of shape {values.shape} do not match the shift's grid: "
            f"need (M, N, d) = (M, {n}, {d})"
        )
    zero = np.flatnonzero(us == 0.0)
    family = -us if zero.size else np.append(0.0, -us)
    raw = silt_raw_shifted(values, shift.grid, shift.k, family, [eps], threads=threads)[:, :, 0]
    base = raw[:, zero[0] if zero.size else 0]
    delta = raw[:, family.size - us.size :] - base[:, None]
    return _log_density(shift, us, values, -g * delta, overflow="density_process")


@dataclass(eq=False)
class ContinuityScan:
    """Density process evaluated on a u grid for a fixed path set.

    log_densities[m, i] is path m's log density at u_grid[i]; it stays
    finite where the density underflows to 0. jumps[m, i] is the relative
    jump |a_{i+1} - a_i| / max(a_i, a_{i+1}) between adjacent u values,
    computed from the log-densities as 1 - exp(-|log a_{i+1} - log a_i|).
    max_jump is its maximum per path and q95 the 95th percentile of that
    over paths. Halving the u step should about halve q95 when the density
    is continuous in u.
    """

    u_grid: np.ndarray
    log_densities: np.ndarray

    @property
    def densities(self) -> np.ndarray:
        return np.exp(self.log_densities)

    @property
    def jumps(self) -> np.ndarray:
        return -np.expm1(-np.abs(np.diff(self.log_densities, axis=1)))

    @property
    def max_jump(self) -> np.ndarray:
        return self.jumps.max(axis=1)

    @property
    def q95(self) -> float:
        return float(np.quantile(self.max_jump, 0.95))

    def per_u_stats(self) -> np.ndarray:
        """Rows (u, a_min, a_max, max_jump_into_u, log_a_min, log_a_max)."""
        a, log_a = self.densities, self.log_densities
        out = np.zeros((self.u_grid.size, 6))
        out[:, 0] = self.u_grid
        out[:, 1] = a.min(axis=0)
        out[:, 2] = a.max(axis=0)
        out[1:, 3] = self.jumps.max(axis=0)
        out[:, 4] = log_a.min(axis=0)
        out[:, 5] = log_a.max(axis=0)
        return out


def continuity_scan(
    shift: CMShift, u_grid, values: np.ndarray, eps: float, *, g: float, threads: int = 1
) -> ContinuityScan:
    """Evaluate the density process on a u grid for each path in `values`
    (M, N, d), taken on the shift's grid as in density_process_batch."""
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if u_grid.size < 3:
        raise ValueError("u grid needs at least 3 points")
    log_dens = _log_densities(shift, u_grid, values, eps, g, threads)
    return ContinuityScan(u_grid=u_grid, log_densities=log_dens)
