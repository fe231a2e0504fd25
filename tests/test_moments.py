from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

from edwardsim import (
    GridCovariance,
    ModelParams,
    builtin_shift,
    continuity_scan,
    density_process,
    density_process_batch,
    edwards_ensemble,
    gaussian_moment_integral,
    gaussian_rn_density,
    holder_verify,
    l2_difference_silt,
    log_gaussian_rn_density,
    make_shift_from_target,
    sample_fbm,
    sample_fbm_batch,
    sigma_matrix,
    silt_raw_batch,
    silt_raw_shifted,
)
from edwardsim.silt import LadderConfig


class TestSigmaMatrix:
    def test_frozen_disjoint_brownian(self):
        # Brownian increments over (0,1) and (2,3) are independent
        sig = sigma_matrix(0.5, 0.0, 1.0, 2.0, 3.0)
        assert sig.lam == 1.0
        assert sig.rho == 1.0
        assert sig.mu == 0.0
        assert sig.det == 1.0
        assert sig.quadruple == (0.0, 1.0, 2.0, 3.0)

    def test_coincident_intervals_are_degenerate(self):
        sig = sigma_matrix(0.5, 0.0, 1.0, 0.0, 1.0)
        assert sig.lam == sig.rho == sig.mu == 1.0
        assert sig.det == 0.0
        assert sig.is_psd()

    def test_variances_match_increment_law(self):
        sig = sigma_matrix(0.7, 0.2, 0.6, 0.1, 0.9)
        assert abs(sig.lam - 0.4**1.4) < 1e-15
        assert abs(sig.rho - 0.8**1.4) < 1e-15

    def test_always_psd(self, rng):
        for H in (0.3, 0.5, 0.7):
            for _ in range(50):
                s, t = np.sort(rng.uniform(0.0, 1.0, 2))
                sp_, tp = np.sort(rng.uniform(0.0, 1.0, 2))
                if t <= s or tp <= sp_:
                    continue
                assert sigma_matrix(H, s, t, sp_, tp).is_psd()

    def test_matrix_property(self):
        sig = sigma_matrix(0.5, 0.0, 0.5, 0.25, 1.0)
        m = sig.matrix
        assert m.shape == (2, 2)
        assert m[0, 0] == sig.lam and m[1, 1] == sig.rho
        assert m[0, 1] == m[1, 0] == sig.mu

    @pytest.mark.parametrize(
        "quad",
        [
            (-0.1, 1.0, 0.0, 1.0),
            (0.5, 0.5, 0.0, 1.0),
            (0.0, 1.0, -0.2, 0.5),
            (0.0, 1.0, 0.7, 0.7),
        ],
    )
    def test_domain(self, quad):
        with pytest.raises(ValueError):
            sigma_matrix(0.5, *quad)


class TestMomentIntegral:
    def test_identity_sigma_alpha_half(self):
        # Sigma + eps I = I, d = 1: integral is (int x^2 gauss)^2 * 2 pi = 4
        sig = sigma_matrix(0.5, 0.0, 1.0, 2.0, 3.0)
        mi = gaussian_moment_integral(sig, 0.0, 0.5, 1)
        assert mi.closed_form == 4.0
        assert abs(mi.numeric / 4.0 - 1.0) < 1e-6
        assert mi.method == "quad-cosh"

    @pytest.mark.parametrize("alpha", [0.5, 0.75])
    def test_closed_form_exact_on_diagonal_d1(self, alpha):
        # disjoint Brownian increments give mu = 0; the closed-form candidate
        # is exact for d = 1 diagonal
        sig = sigma_matrix(0.5, 0.0, 0.25, 0.5, 1.5)
        assert sig.mu == 0.0
        mi = gaussian_moment_integral(sig, 0.05, alpha, 1)
        expected = (
            2.0 ** (2.0 * alpha + 1.0)
            * scipy.special.gamma(alpha + 0.5) ** 2
            / ((0.25 + 0.05) * (1.0 + 0.05)) ** (0.5 + alpha)
        )
        assert abs(mi.closed_form / expected - 1.0) < 1e-14
        assert abs(mi.numeric / mi.closed_form - 1.0) < 1e-6

    def test_off_diagonal_ratio_recorded_not_asserted(self):
        sig = sigma_matrix(0.5, 0.0, 1.0, 0.5, 1.5)
        assert sig.mu != 0.0
        mi = gaussian_moment_integral(sig, 0.1, 0.5, 1)
        assert mi.numeric > 0.0
        assert np.isfinite(mi.ratio)

    def test_planar_bessel_route(self):
        sig = sigma_matrix(0.5, 0.0, 1.0, 0.5, 1.5)
        mi = gaussian_moment_integral(sig, 0.1, 0.5, 2)
        assert mi.method == "quad-bessel"
        assert mi.numeric > 0.0 and np.isfinite(mi.numeric)

    def test_monte_carlo_route_against_product_formula(self):
        # diagonal Sigma factorizes into two radial moments computable in
        # closed form; validates the d >= 3 Monte Carlo branch
        sig = sigma_matrix(0.5, 0.0, 1.0, 2.0, 3.0)
        mi = gaussian_moment_integral(sig, 0.0, 0.5, 3, mc_samples=400_000)
        assert mi.method == "mc-control-variate"
        d, alpha = 3, 0.5
        block = (
            (2.0 * np.pi) ** (d / 2)
            * 2.0**alpha
            * scipy.special.gamma(d / 2 + alpha)
            / scipy.special.gamma(d / 2)
        )
        assert abs(mi.numeric / block**2 - 1.0) < 0.01

    def test_validation(self):
        sig = sigma_matrix(0.5, 0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="alpha"):
            gaussian_moment_integral(sig, 0.1, 0.4, 1)
        with pytest.raises(ValueError, match="alpha"):
            gaussian_moment_integral(sig, 0.1, 1.0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_moment_integral(sig, -0.1, 0.5, 1)
        degenerate = sigma_matrix(0.5, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive definite"):
            gaussian_moment_integral(degenerate, 0.0, 0.5, 1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), -1e-3])
    def test_rejects_non_finite_or_negative_eps(self, eps):
        # NaN passed `eps < 0` and returned NaN for both values; inf returned 0.0
        sig = sigma_matrix(0.5, 0.0, 1.0, 0.5, 1.5)
        with pytest.raises(ValueError, match=f"eps must be finite and nonnegative, got {eps}"):
            gaussian_moment_integral(sig, eps, 0.5, 1)


class TestL2Difference:
    def test_zero_at_equal_shifts(self, small_params, small_cov):
        sh = builtin_shift("linear", small_params, cov=small_cov)
        est, se = l2_difference_silt(small_params, sh, 0.05, 0.4, 0.4, 64)
        assert est == 0.0
        assert se == 0.0

    def test_symmetric_in_uv(self, small_params, small_cov):
        sh = builtin_shift("linear", small_params, cov=small_cov)
        a, _ = l2_difference_silt(small_params, sh, 0.05, 0.1, 0.5, 64)
        b, _ = l2_difference_silt(small_params, sh, 0.05, 0.5, 0.1, 64)
        assert a == b
        assert a > 0.0

    def test_doubling_shift_equals_doubling_magnitude(
        self, small_params, small_cov
    ):
        # u * (2k) and (2u) * k are the same perturbation bit for bit
        t = small_cov.grid.points
        sh = make_shift_from_target(small_params, k=t, cov=small_cov)
        sh2 = make_shift_from_target(small_params, k=2.0 * t, cov=small_cov)
        a, sa = l2_difference_silt(small_params, sh, 0.05, 0.6, 0.0, 64)
        b, sb = l2_difference_silt(small_params, sh2, 0.05, 0.3, 0.0, 64)
        assert a == b and sa == sb

    def test_seed_comes_from_params(self, small_params, small_cov):
        # a shift built at one seed serves params of another
        sh = builtin_shift("linear", small_params, cov=small_cov)
        seed9 = replace(small_params, seed=9)
        a = l2_difference_silt(seed9, sh, 0.05, 0.4, 0.0, 32)
        assert a == l2_difference_silt(seed9, builtin_shift("linear", seed9), 0.05, 0.4, 0.0, 32)
        assert a != l2_difference_silt(small_params, sh, 0.05, 0.4, 0.0, 32)

    def test_rejects_single_sampled_path(self, small_params, small_cov):
        # one path has no standard error
        sh = builtin_shift("linear", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="at least 2 paths"):
            l2_difference_silt(small_params, sh, 0.05, 0.4, 0.0, 1)


class TestHolderVerify:
    def test_seed_comes_from_params(self, small_params, small_cov):
        # a shift built at one seed serves params of another
        sh = builtin_shift("sine", small_params, cov=small_cov)
        args = ([0.1, 0.05], [0.1, 0.2, 0.4], 32)
        seed9 = replace(small_params, seed=9)
        a = holder_verify(seed9, sh, *args)
        b = holder_verify(seed9, builtin_shift("sine", seed9), *args)
        for key in ("estimates", "stderrs", "slopes", "intercepts", "slope_stderrs"):
            assert np.array_equal(getattr(a, key), getattr(b, key))
        assert not np.array_equal(
            a.estimates, holder_verify(small_params, sh, *args).estimates
        )

    def test_report_structure(self, small_params, small_cov):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        rep = holder_verify(
            replace(small_params, seed=7),
            sh,
            [0.1, 0.05],
            [0.1, 0.2, 0.4],
            64,
        )
        assert rep.estimates.shape == (2, 3)
        assert rep.stderrs.shape == (2, 3)
        assert rep.slopes.shape == (2,)
        assert np.all(rep.estimates >= 0.0)
        assert rep.pairs == [(0.1, 0.0), (0.2, 0.0), (0.4, 0.0)]
        assert rep.target_exponent == 1.5
        assert rep.slope == rep.slopes[-1]
        assert rep.slope_lower95 < rep.slope
        lo, hi = rep.slope_ci95
        assert lo < rep.slope < hi
        assert rep.m == 64

    def test_slope_is_superlinear_even_at_small_scale(
        self, small_params, small_cov
    ):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        rep = holder_verify(
            replace(small_params, seed=3),
            sh,
            [0.05, 0.025],
            [0.1, 0.2, 0.4],
            256,
        )
        assert rep.slope > 1.0

    def test_rejects_bad_deltas(self, small_params, small_cov):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="delta"):
            holder_verify(
                small_params, sh, [0.05], [0.1, 0.0], 16
            )

    def test_rejects_single_path(self, small_params, small_cov):
        # one path has no standard error; the slopes would all be nan
        sh = builtin_shift("sine", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="at least 2 paths"):
            holder_verify(small_params, sh, [0.05], [0.1, 0.2], 1)


class TestDensityProcess:
    def test_unit_at_zero_shift(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        assert density_process(sh, 0.0, path, 0.05) == 1.0

    def test_reduces_to_gaussian_density_at_zero_coupling(
        self, small_params, small_cov
    ):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("sine", small_params, cov=small_cov)
        a = density_process(sh, 0.7, path, 0.05, g=0.0)
        b = gaussian_rn_density(sh, 0.7, path)
        # one log-density formula for the path and the batch
        assert a == b

    def test_overflow_raises(self, small_params, small_cov):
        sh = builtin_shift("linear", small_params, cov=small_cov)
        big = SimpleNamespace(values=100.0 * sh.k, params=small_params)
        with pytest.raises(OverflowError, match="density_process"):
            density_process(sh, 50.0, big, 0.05)

    def test_large_factors_that_cancel_stay_finite(self):
        # exp(-g delta) alone overflows, the Gaussian factor alone is tiny,
        # and their product, exp(log_weight), is a finite double
        p = ModelParams(N=48, seed=13)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 1, cov=cov)
        sh = builtin_shift("linear", p, cov=cov)
        u, eps = 12.0, 0.05
        raw = silt_raw_batch(np.concatenate([vals, vals - u * sh.k]), cov.grid, [eps])[:, 0]
        g = -720.0 / (raw[1] - raw[0])
        a = density_process_batch(sh, u, vals, eps, g=g)[0]
        path = SimpleNamespace(params=p, values=vals[0])
        log_weight = 720.0 + log_gaussian_rn_density(sh, u, path)
        assert 600.0 < log_weight < 700.0
        assert np.isfinite(a)
        assert abs(a / np.exp(log_weight) - 1.0) < 1e-10

    def test_values_of_another_grid_are_named(self, small_params, small_cov):
        # a shift at N = 64 and paths at N = 32: the error names the values'
        # shape and the shift's N, not the shift's k
        sh = builtin_shift("sine", small_params, cov=small_cov)
        vals = np.zeros((3, 32, 2))
        for run in (
            lambda: density_process_batch(sh, 0.5, vals, 0.05, g=0.1),
            lambda: continuity_scan(sh, [0.0, 0.5, 1.0], vals, 0.05, g=0.1),
        ):
            with pytest.raises(ValueError, match=r"values of shape \(3, 32, 2\).*\(M, 64, 2\)"):
                run()

    def test_normalized_under_reweighted_ensemble(self, small_params, small_cov):
        # E_nu[a(u, .)] = 1 is an algebraic identity; 5 SE at MC resolution
        ens = edwards_ensemble(
            small_params, 2000, LadderConfig(eps0=0.1, levels=4), cov=small_cov
        )
        sh = builtin_shift("linear", small_params, cov=small_cov)
        for u in (0.5, 1.0):
            a = density_process_batch(
                sh, u, ens.values, ens.eps, g=small_params.g
            )
            est, se = ens.expectation(a)
            assert abs(est - 1.0) <= 5.0 * se


class TestContinuityScan:
    def test_structure(self, small_params, small_cov):
        vals = sample_fbm_batch(small_params, 20, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        u_grid = np.linspace(0.0, 1.0, 6)
        scan = continuity_scan(sh, u_grid, vals, 0.05, g=0.1)
        assert scan.densities.shape == (20, 6)
        assert np.array_equal(scan.densities[:, 0], np.ones(20))
        assert scan.max_jump.shape == (20,)
        assert np.all(scan.max_jump >= 0.0)
        stats = scan.per_u_stats()
        assert stats.shape == (6, 6)
        assert stats[0, 3] == 0.0
        assert np.all(stats[:, 1] <= stats[:, 2])
        assert np.array_equal(stats[:, 4], scan.log_densities.min(axis=0))
        assert np.array_equal(stats[:, 5], scan.log_densities.max(axis=0))
        assert np.array_equal(scan.densities, np.exp(scan.log_densities))
        # the log-density form of the relative jump between adjacent u; the
        # difference of densities near 1 carries an absolute rounding error
        a = scan.densities
        direct = np.abs(np.diff(a, axis=1)) / np.maximum(a[:, 1:], a[:, :-1])
        assert np.allclose(scan.jumps, direct, rtol=1e-12, atol=1e-14)
        assert np.array_equal(stats[1:, 3], scan.jumps.max(axis=0))
        assert np.array_equal(scan.max_jump, scan.jumps.max(axis=1))

    def test_jumps_stay_finite_where_densities_underflow(self, small_params, small_cov):
        # far along the shift adjacent densities are both 0 in double
        # precision; the relative jump must not become 0/0
        vals = sample_fbm_batch(small_params, 8, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        scan = continuity_scan(
            sh, np.linspace(0.0, 60.0, 21), vals, 0.02, g=small_params.g
        )
        a = scan.densities
        assert np.any((a[:, 1:] == 0.0) & (a[:, :-1] == 0.0))
        assert np.all(np.isfinite(scan.jumps))
        assert np.all((scan.jumps >= 0.0) & (scan.jumps <= 1.0))
        assert np.all(np.isfinite(scan.per_u_stats())) and np.isfinite(scan.q95)

    def test_unshifted_silt_runs_once(self, small_params, small_cov, monkeypatch):
        # the u = 0 entry of the grid doubles as the unshifted base row
        import edwardsim.moments as moments

        families = []

        def spy(values, grid, k, us, epsilons, *, threads=1):
            families.append(np.asarray(us, dtype=float).copy())
            return silt_raw_shifted(values, grid, k, us, epsilons, threads=threads)

        monkeypatch.setattr(moments, "silt_raw_shifted", spy)
        vals = sample_fbm_batch(small_params, 6, cov=small_cov)
        sh = builtin_shift("sine", small_params, cov=small_cov)
        u_grid = np.linspace(0.0, 1.0, 6)
        scan = continuity_scan(sh, u_grid, vals, 0.05, g=0.1)
        assert len(families) == 1 and families[0].size == u_grid.size
        assert np.array_equal(scan.densities[:, 0], np.ones(6))
        # a grid without 0 puts the base row in front of the family
        density_process_batch(sh, 0.5, vals, 0.05, g=0.1)
        assert families[1].tolist() == [0.0, -0.5]

    def test_densities_match_density_process_batch(self, small_params, small_cov):
        # the scan computes the unshifted SILT once; the values must not move
        vals = sample_fbm_batch(small_params, 12, cov=small_cov)
        sh = builtin_shift("sine", small_params, cov=small_cov)
        u_grid = np.linspace(0.0, 1.5, 5)
        scan = continuity_scan(sh, u_grid, vals, 0.05, g=0.1)
        each = [density_process_batch(sh, u, vals, 0.05, g=0.1) for u in u_grid]
        assert np.array_equal(scan.densities, np.stack(each, axis=1))

    def test_needs_three_points(self, small_params, small_cov):
        vals = sample_fbm_batch(small_params, 4, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="3 points"):
            continuity_scan(sh, [0.0, 1.0], vals, 0.05, g=0.1)

    def test_refining_u_grid_shrinks_jumps(self):
        p = ModelParams(N=64, g=0.1, seed=31)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 40, cov=cov)
        sh = builtin_shift("linear", p, cov=cov)
        coarse = continuity_scan(
            sh, np.linspace(0.0, 1.0, 11), vals, 0.05, g=0.1
        )
        fine = continuity_scan(
            sh, np.linspace(0.0, 1.0, 21), vals, 0.05, g=0.1
        )
        assert fine.q95 <= 0.7 * coarse.q95
