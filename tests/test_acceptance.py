"""Desk-scale verification battery: H = 1/2, d = 2, T = 1, N = 256, M = 10^4.

Each test checks one numbered end-to-end property of the stack and appends
a one-line verdict to the report printed after the run. The battery shares
one reweighted ensemble (session fixture), so the whole file stays inside
a few minutes of wall clock.
"""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.integrate
from scipy import stats

from conftest import ACCEPTANCE_LINES
from edwardsim import (
    CylinderFunction,
    WeightedEnsemble,
    batch_means_stderr,
    brownian_plane_expectation,
    builtin_shift,
    continuity_scan,
    coordinate_functional,
    cov_h,
    density_process_batch,
    dirichlet_form,
    gaussian_moment_integral,
    gaussian_rn_density,
    gradient_cylinder,
    holder_verify,
    kernel_rh,
    make_linear,
    random_cylinder,
    run_mala,
    sigma_matrix,
    silt_expectation,
    silt_expectation_grid,
    silt_raw_batch,
)
from edwardsim.mala import _Target, _make_state


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[PRIMARY {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_01_covariance_fidelity(desk_params, desk_cov, desk_ensemble):
    vals = desk_ensemble.values
    m = vals.shape[0]
    t = desk_cov.grid.points
    rng = np.random.default_rng(101)
    worst_z = 0.0
    for _ in range(20):
        i, j = (int(k) for k in rng.integers(1, desk_cov.grid.n, size=2))
        prod = np.mean(vals[:, i, :] * vals[:, j, :], axis=1)
        se = prod.std(ddof=1) / np.sqrt(m)
        z = abs(prod.mean() - cov_h(desk_params.H, t[i], t[j])) / se
        worst_z = max(worst_z, z)

    worst_rel = 0.0
    for _ in range(10):
        a, b = np.sort(0.1 + 0.9 * rng.random(2))
        val, _ = scipy.integrate.quad(
            lambda r: kernel_rh(0.7, b, r) * kernel_rh(0.7, a, r), 0.0, a, limit=200
        )
        worst_rel = max(worst_rel, abs(val / cov_h(0.7, b, a) - 1.0))

    _report(
        1,
        worst_z <= 5.0 and worst_rel <= 1e-3,
        f"path covariance at 20 grid pairs within 5 SE (max |z| = {worst_z:.2f}); "
        f"kernel factorization at H = 0.7 within 1e-3 (max rel err {worst_rel:.1e})",
    )


def test_criterion_02_centering(desk_params, desk_cov, desk_ensemble):
    eps_list = [0.1, 0.01, 0.001]
    raw = silt_raw_batch(desk_ensemble.values, desk_cov.grid, eps_list)
    m = raw.shape[0]
    zs = []
    for col, eps in enumerate(eps_list):
        centered = raw[:, col] - silt_expectation_grid(desk_params, desk_cov.grid, eps)
        zs.append(abs(centered.mean()) / (centered.std(ddof=1) / np.sqrt(m)))
    worst_z = max(zs)

    worst_rel = 0.0
    for eps in (1.0, 0.1, 0.01):
        quad = silt_expectation(desk_params, eps)
        closed = brownian_plane_expectation(desk_params.T, eps)
        worst_rel = max(worst_rel, abs(quad / closed - 1.0))

    _report(
        2,
        worst_z <= 5.0 and worst_rel <= 1e-8,
        f"centered local time mean within 5 SE of 0 at eps = 0.1/0.01/0.001 "
        f"(max |z| = {worst_z:.2f}); expectation quadrature vs closed form "
        f"within 1e-8 (max rel err {worst_rel:.1e})",
    )


def test_criterion_03_characteristic_function(desk_params, desk_cov, desk_ensemble):
    vals = desk_ensemble.values
    m = vals.shape[0]
    t = desk_cov.grid.points
    rng = np.random.default_rng(103)
    worst_z = 0.0
    for _ in range(10):
        a, b = np.sort(rng.choice(np.arange(1, 256), size=2, replace=False))
        c, e = np.sort(rng.choice(np.arange(1, 256), size=2, replace=False))
        y1, y2 = 0.9 * rng.standard_normal((2, desk_params.d))
        sig = sigma_matrix(desk_params.H, t[a], t[b], t[c], t[e])
        phase = (vals[:, b, :] - vals[:, a, :]) @ y1 + (vals[:, e, :] - vals[:, c, :]) @ y2
        q = sig.lam * y1 @ y1 + 2.0 * sig.mu * y1 @ y2 + sig.rho * y2 @ y2
        target = np.exp(-0.5 * q)
        for part, ref in ((np.cos(phase), target), (np.sin(phase), 0.0)):
            z = abs(part.mean() - ref) / (part.std(ddof=1) / np.sqrt(m))
            worst_z = max(worst_z, z)
    _report(
        3,
        worst_z <= 5.0,
        "empirical characteristic function of increment pairs matches "
        f"exp(-y'Sy/2) within 5 SE at 10 random test points (max |z| = {worst_z:.2f})",
    )


def test_criterion_04_moment_integral():
    diag = sigma_matrix(0.5, 0.0, 0.5, 1.0, 1.8)
    worst_rel = 0.0
    for alpha in (0.5, 0.75):
        res = gaussian_moment_integral(diag, 0.0, alpha, 1)
        worst_rel = max(worst_rel, abs(res.numeric / res.closed_form - 1.0))

    off = sigma_matrix(0.5, 0.0, 0.6, 0.3, 1.0)
    ratios = [gaussian_moment_integral(off, 0.0, a, 1).ratio for a in (0.5, 0.75)]
    _report(
        4,
        worst_rel <= 1e-6,
        f"moment integral numeric vs closed form within 1e-6 on diagonal "
        f"correlation (d = 1, alpha = 1/2 and 3/4; max rel err {worst_rel:.1e}); "
        f"off-diagonal numeric/closed ratio {ratios[0]:.6f} (alpha = 1/2), "
        f"{ratios[1]:.6f} (alpha = 3/4)",
    )


def test_criterion_05_holder_exponent(desk_params, desk_cov, desk_ladder):
    shift = builtin_shift("sine", desk_params, cov=desk_cov)
    eps = desk_ladder.epsilons[[1, 3, 4]]  # down to the smallest rung
    report = holder_verify(
        desk_params, shift, eps, [0.05, 0.1, 0.2, 0.4], 4000
    )
    _report(
        5,
        report.slope_lower95 >= 1.5,
        f"squared L2 shift-difference log-log slope at the smallest ladder eps "
        f"is {report.slope:.3f} with one-sided 95% lower bound "
        f"{report.slope_lower95:.3f} >= 1.5 (common random numbers, m = 4000)",
    )


def test_criterion_06_rn_normalization(desk_params, desk_cov, desk_ensemble):
    shift = builtin_shift("sine", desk_params, cov=desk_cov)
    vals = desk_ensemble.values
    grid = desk_cov.grid
    m = vals.shape[0]
    zs = {}
    for u in (0.5, 1.0):
        rn = np.array(
            [
                gaussian_rn_density(shift, u, SimpleNamespace(values=v, params=desk_params))
                for v in vals
            ]
        )
        zs[f"gauss u={u}"] = abs(rn.mean() - 1.0) / (rn.std(ddof=1) / np.sqrt(m))

        dens = density_process_batch(
            shift, u, vals, desk_ensemble.eps, g=desk_params.g
        )
        mean, se = desk_ensemble.expectation(dens)
        zs[f"full u={u}"] = abs(mean - 1.0) / se

    w = coordinate_functional(grid, desk_params.d, 192, 0)

    def test_f(x):
        return np.tanh(0.8 * np.tensordot(x, w, axes=([1, 2], [0, 1])) - 0.5)

    u = 1.0
    rn = np.exp(
        u * np.tensordot(vals[:, 1:, :], shift.w, axes=([1, 2], [0, 1]))
        - 0.5 * u * u * shift.energy
    )
    paired = test_f(vals + u * shift.k) - test_f(vals) * rn
    zs["change-of-var"] = abs(paired.mean()) / (paired.std(ddof=1) / np.sqrt(m))

    worst = max(zs.values())
    _report(
        6,
        worst <= 5.0,
        "Gaussian and reweighted shift densities integrate to 1 and the "
        f"change-of-variables identity holds, all within 5 SE (max |z| = {worst:.2f} "
        f"over {len(zs)} checks, u in {{0.5, 1}})",
    )


def test_criterion_07_density_continuity(desk_params, desk_cov, desk_ensemble):
    # Smooth-in-u density: halving the u step should halve the worst jump.
    # The exact factor 1/2 is the smooth-scaling floor, approached from
    # above at finite step; 0.55 allows the finite-step correction while a
    # genuine discontinuity would hold the ratio near 1.
    shift = builtin_shift("linear", desk_params, cov=desk_cov)
    vals = desk_ensemble.values[:100]
    kwargs = dict(eps=0.02, g=desk_params.g)
    coarse = continuity_scan(
        shift, np.linspace(0.0, 1.0, 11), vals, **kwargs
    )
    fine = continuity_scan(
        shift, np.linspace(0.0, 1.0, 21), vals, **kwargs
    )
    ratio = fine.q95 / coarse.q95
    _report(
        7,
        ratio <= 0.55,
        f"halving the u-grid step scales the 95th-percentile density jump by "
        f"{ratio:.3f} <= 0.55 on 100 fixed paths (smooth-scaling floor 0.5)",
    )


def test_criterion_08_dirichlet_form(desk_params, desk_cov, desk_ensemble):
    grid = desk_cov.grid
    rng = np.random.default_rng(108)
    sym_ok = True
    nonneg_ok = True
    for _ in range(50):
        f = random_cylinder(rng, grid, desk_params.d)
        h = random_cylinder(rng, grid, desk_params.d)
        sym_ok &= dirichlet_form(f, h, desk_ensemble) == dirichlet_form(h, f, desk_ensemble)
        nonneg_ok &= dirichlet_form(f, f, desk_ensemble)[0] >= 0.0

    free = WeightedEnsemble(
        params=replace(desk_params, g=0.0),
        cov=desk_cov,
        values=desk_ensemble.values,
        lc=desk_ensemble.lc,
        weights=np.ones(desk_ensemble.m),
        eps=desk_ensemble.eps,
    )
    j, c = 171, 1
    lin = CylinderFunction(
        weights=coordinate_functional(grid, desk_params.d, j, c)[None],
        fn=make_linear([1.0]),
    )
    val, se = dirichlet_form(lin, lin, free)
    # |grad x_j|_CM^2 is the kernel diagonal K(t_j, t_j) = t_j^{2H}
    analytic = grid.points[j] ** (2.0 * desk_params.H)
    lin_err = abs(val - analytic)
    lin_ok = lin_err <= max(5.0 * se, 1e-10 * analytic)
    _report(
        8,
        sym_ok and nonneg_ok and lin_ok,
        "quadratic form bit-symmetric and nonnegative on 50 random cylinder "
        f"pairs; free-measure linear-functional value {val:.6f} matches "
        f"t_j^(2H) = {analytic:.6f} (|err| = {lin_err:.1e}, se = {se:.1e})",
    )


def test_criterion_09_gradient_checks(desk_params, desk_cov, desk_ensemble):
    grid = desk_cov.grid
    shift = builtin_shift("sine", desk_params, cov=desk_cov)
    vals = desk_ensemble.values[:20]
    delta = 1e-5
    worst_cyl = 0.0
    for s in range(5):
        fcn = random_cylinder(np.random.default_rng(s), grid, desk_params.d)
        analytic = gradient_cylinder(fcn, shift, vals)
        fd = (fcn.value(vals + delta * shift.k) - fcn.value(vals - delta * shift.k)) / (
            2.0 * delta
        )
        rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1e-8)
        worst_cyl = max(worst_cyl, float(rel.max()))

    target = _Target(desk_params, desk_cov, 0.00625)
    rng = np.random.default_rng(109)
    worst_mala = 0.0
    # the sampler's log target in its whitened coordinates z, x[1:] = L z
    for _ in range(20):
        z = rng.standard_normal((grid.n - 1, desk_params.d))
        st = _make_state(target, z)
        v = rng.standard_normal(z.shape)
        v /= np.linalg.norm(v)
        analytic = float(np.sum(st.glog * v))
        fd = (
            _make_state(target, z + delta * v).logpi
            - _make_state(target, z - delta * v).logpi
        ) / (2.0 * delta)
        worst_mala = max(worst_mala, abs(analytic - fd) / max(abs(analytic), 1e-10))

    _report(
        9,
        worst_cyl < 1e-5 and worst_mala < 1e-5,
        "analytic gradients match central finite differences, rel err "
        f"{worst_cyl:.1e} (cylinder directional, 20 paths x 5 functions) and "
        f"{worst_mala:.1e} (sampler log-target, 20 random states)",
    )


def test_criterion_10_sampler_invariance(desk_params, desk_cov, desk_ensemble):
    t_mid = desk_cov.grid.points[128]
    free_params = replace(desk_params, g=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        free = run_mala(
            free_params,
            eps=desk_ensemble.eps,
            n_iter=220_000,
            burn_in=20_000,
            cov=desk_cov,
            thin=20,
        )
    min_p = 1.0
    for comp in range(desk_params.d):
        ks = stats.kstest(
            free.traces["coord"][:, comp], "norm", args=(0.0, np.sqrt(t_mid))
        )
        min_p = min(min_p, ks.pvalue)
    ks_ok = min_p >= 0.01

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tilted = run_mala(
            desk_params,
            eps=desk_ensemble.eps,
            n_iter=60_000,
            burn_in=10_000,
            cov=desk_cov,
            thin=10,
        )
    worst_z = 0.0
    chain_obs = {
        "lc": tilted.traces["lc"],
        "end_sq": np.sum(tilted.traces["coord"] ** 2, axis=1),
    }
    ref_obs = {
        "lc": desk_ensemble.lc,
        "end_sq": np.sum(desk_ensemble.values[:, 128, :] ** 2, axis=1),
    }
    for key in chain_obs:
        ref_mean, ref_se = desk_ensemble.expectation(ref_obs[key])
        trace = chain_obs[key]
        z = abs(trace.mean() - ref_mean) / np.hypot(batch_means_stderr(trace), ref_se)
        worst_z = max(worst_z, z)
    mean_ok = worst_z <= 5.0

    _report(
        10,
        ks_ok and mean_ok,
        f"free chain marginal passes KS at 1% (min p = {min_p:.3f}, 10^4 thinned "
        f"draws); interacting chain means match the reweighted reference within "
        f"5 combined SE (max |z| = {worst_z:.2f})",
    )
