from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate

from edwardsim import (
    GridCovariance,
    ModelParams,
    ShiftedPath,
    builtin_shift,
    c_h_norm,
    cov_h,
    gaussian_rn_density,
    kernel_rh,
    log_gaussian_rn_density,
    make_shift_from_h,
    make_shift_from_target,
    sample_fbm,
    sample_fbm_batch,
    stream,
)


class TestKernel:
    def test_c_h_norm_frozen(self):
        assert abs(c_h_norm(0.7) - 0.2183618261767825) < 1e-13

    def test_c_h_norm_domain(self):
        for H in (0.5, 0.3):
            with pytest.raises(ValueError, match="make_shift_from_target"):
                c_h_norm(H)
        with pytest.raises(ValueError):
            c_h_norm(1.0)

    def test_vanishes_for_t_at_most_s(self):
        assert kernel_rh(0.7, 0.3, 0.5) == 0.0
        assert kernel_rh(0.7, 1.0, 1.0) == 0.0

    def test_requires_positive_s(self):
        with pytest.raises(ValueError, match="s > 0"):
            kernel_rh(0.7, 0.5, 0.0)

    def test_factorizes_covariance(self):
        # int_0^{t^s} R(t,r) R(s,r) dr = cov_h(t, s) for H > 1/2
        for t, s in [(0.9, 0.4), (0.5, 0.5), (1.0, 0.2), (0.7, 0.65)]:
            val, _ = scipy.integrate.quad(
                lambda r: kernel_rh(0.7, t, r) * kernel_rh(0.7, s, r),
                0.0,
                min(t, s),
                limit=200,
            )
            assert abs(val / cov_h(0.7, t, s) - 1.0) < 1e-3


class TestShiftConstruction:
    def test_covariance_column_gives_unit_weight(self, desk_params, desk_cov):
        # w = e_j exactly, with no solve, and k[1:] is column j of sigma
        for j in (1, 5, 100, 255):
            sh = builtin_shift(f"covcol:{j}", desk_params, cov=desk_cov)
            expect = np.zeros((desk_params.N - 1, desk_params.d))
            expect[j - 1, 0] = 1.0
            assert np.array_equal(sh.w, expect)
            assert np.array_equal(sh.k[1:, 0], desk_cov.sigma[:, j - 1])
            assert np.all(sh.k[0] == 0.0) and np.all(sh.k[:, 1:] == 0.0)
            assert sh.energy == desk_cov.sigma[j - 1, j - 1]
            sh.check()

    def test_zero_target(self, small_params, small_cov):
        sh = make_shift_from_target(small_params, k=np.zeros(64), cov=small_cov)
        assert np.all(sh.w == 0.0)
        assert sh.energy == 0.0

    def test_brownian_linear_energy_exact(self, desk_params, desk_cov):
        # at H = 1/2 the discrete energy of k(t) = t telescopes to exactly T
        sh = builtin_shift("linear", desk_params, cov=desk_cov)
        assert abs(sh.energy - desk_params.T) < 1e-8

    def test_brownian_sine_energy(self, desk_params, desk_cov):
        # continuum Cameron-Martin norm of sin(pi t / T) is pi^2 / (2 T)
        sh = builtin_shift("sine", desk_params, cov=desk_cov)
        assert abs(sh.energy / (np.pi**2 / 2.0) - 1.0) < 1e-3

    def test_nonzero_start_rejected(self, small_params, small_cov):
        k = np.ones(64)
        with pytest.raises(ValueError, match="t_0"):
            make_shift_from_target(small_params, k=k, cov=small_cov)

    @pytest.mark.parametrize("node", [0, 1, 63])
    def test_non_finite_target_rejected(self, small_params, small_cov, node):
        k = small_cov.grid.points.copy()
        k[node] = np.nan
        with pytest.raises(ValueError):
            make_shift_from_target(small_params, k=k, cov=small_cov)

    def test_one_dimensional_target_goes_to_first_component(
        self, small_params, small_cov
    ):
        t = small_cov.grid.points
        sh = make_shift_from_target(small_params, k=t, cov=small_cov)
        assert np.array_equal(sh.k[:, 0], t)
        assert np.all(sh.k[:, 1] == 0.0)
        assert np.all(sh.w[:, 1] == 0.0)

    def test_shape_mismatch(self, small_params, small_cov):
        with pytest.raises(ValueError, match="shape"):
            make_shift_from_target(
                small_params, k=np.zeros((10, 2)), cov=small_cov
            )

    def test_weights_solve_system(self, small_params, small_cov):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        sh.check()

    def test_builtin_names(self, small_params, small_cov):
        t = small_cov.grid.points
        lin = builtin_shift("linear", small_params, cov=small_cov)
        sine = builtin_shift("sine", small_params, cov=small_cov)
        assert np.array_equal(lin.k[:, 0], t)
        assert np.allclose(sine.k[:, 0], np.sin(np.pi * t / 1.0), atol=1e-15)
        with pytest.raises(ValueError, match="unknown shift"):
            builtin_shift("cubic", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="covcol"):
            builtin_shift("covcol:64", small_params, cov=small_cov)

    def test_kernel_route_energy_isometry(self):
        # k = K_H h makes the discrete energy approximate ||h||_{L^2}^2
        p = ModelParams(H=0.7, d=1, N=64)
        cov = GridCovariance(p)
        sh = make_shift_from_h(p, h=np.ones(64), cov=cov)
        assert abs(sh.energy - 1.0) < 0.02
        assert sh.h is not None

    def test_kernel_route_requires_large_hurst(self, small_params, small_cov):
        with pytest.raises(ValueError, match="make_shift_from_target"):
            make_shift_from_h(small_params, h=np.ones(64), cov=small_cov)


class TestShiftedPath:
    def test_values(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        sp = ShiftedPath(path, sh, 0.7)
        assert np.array_equal(sp.values, path.values + 0.7 * sh.k)
        assert sp.grid is path.grid

    def test_grid_mismatch(self, small_params, small_cov):
        other = ModelParams(N=32)
        path = sample_fbm(other, cov=GridCovariance(other))
        sh = builtin_shift("linear", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="grid"):
            ShiftedPath(path, sh, 1.0)


class TestDensity:
    def test_unit_at_zero_shift(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        assert gaussian_rn_density(sh, 0.0, path) == 1.0

    def test_log_density_affine_in_path(self, small_params, small_cov):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        x = sample_fbm(small_params, cov=small_cov, rng=stream(1, 0))
        y = sample_fbm(small_params, cov=small_cov, rng=stream(2, 0))
        mid = SimpleNamespace(params=small_params, values=0.5 * (x.values + y.values))
        lx = log_gaussian_rn_density(sh, 0.8, x)
        ly = log_gaussian_rn_density(sh, 0.8, y)
        lm = log_gaussian_rn_density(sh, 0.8, mid)
        assert abs(2.0 * lm - (lx + ly)) < 1e-12 * max(1.0, abs(lx + ly))

    def test_cocycle(self, small_params, small_cov):
        # d_{u+v}(x) = d_u(x) * d_v(x - u k)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        path = sample_fbm(small_params, cov=small_cov, rng=stream(7, 0))
        u, v = 0.6, -0.3
        lhs = gaussian_rn_density(sh, u + v, path)
        moved = SimpleNamespace(params=small_params, values=path.values - u * sh.k)
        rhs = gaussian_rn_density(sh, u, path) * gaussian_rn_density(sh, v, moved)
        assert abs(lhs / rhs - 1.0) < 1e-10

    def test_mean_one(self, small_params, small_cov):
        # E[dd(law(X+uk))/d(law(X))] = 1 under the base law
        m = 4000
        vals = sample_fbm_batch(small_params, m, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        u = 0.7
        log_rn = u * np.tensordot(vals[:, 1:, :], sh.w, axes=([1, 2], [0, 1]))
        log_rn -= 0.5 * u * u * sh.energy
        rn = np.exp(log_rn)
        se = rn.std(ddof=1) / np.sqrt(m)
        assert abs(rn.mean() - 1.0) <= 5.0 * se

    def test_change_of_variables(self, small_params, small_cov):
        # E[F(X + u k)] = E[F(X) rn_u(X)], paired on common draws
        m = 4000
        vals = sample_fbm_batch(small_params, m, cov=small_cov)
        sh = builtin_shift("sine", small_params, cov=small_cov)
        u = 0.5

        def functional(v):
            return np.tanh(v[:, -1, 0] + 0.5 * v[:, 32, 1])

        shifted = functional(vals + u * sh.k)
        log_rn = u * np.tensordot(vals[:, 1:, :], sh.w, axes=([1, 2], [0, 1]))
        log_rn -= 0.5 * u * u * sh.energy
        weighted = functional(vals) * np.exp(log_rn)
        diff = shifted - weighted
        se = diff.std(ddof=1) / np.sqrt(m)
        assert abs(diff.mean()) <= 5.0 * se

    def test_overflow_raises(self, small_params, small_cov):
        sh = builtin_shift("linear", small_params, cov=small_cov)
        big = SimpleNamespace(params=small_params, values=100.0 * sh.k)
        # maximizing u of the log density gives (w.x)^2 / (2 E) = 5000 E
        with pytest.raises(OverflowError, match="log density"):
            gaussian_rn_density(sh, 50.0, big)

    def test_grid_mismatch(self, small_params, small_cov):
        other = ModelParams(N=32)
        path = sample_fbm(other, cov=GridCovariance(other))
        sh = builtin_shift("linear", small_params, cov=small_cov)
        with pytest.raises(ValueError, match="grid"):
            log_gaussian_rn_density(sh, 1.0, path)
