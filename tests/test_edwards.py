from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import edwardsim.silt
from edwardsim import (
    CylinderFunction,
    GridCovariance,
    LadderConfig,
    ModelParams,
    builtin_shift,
    centered_ladder,
    coordinate_functional,
    dirichlet_form,
    edwards_ensemble,
    gradient_cylinder,
    make_linear,
    make_poly_bump,
    make_shift_from_target,
    make_tanh,
    random_cylinder,
    silt_raw_batch,
)


@pytest.fixture(scope="module")
def small_ensemble(small_params, small_cov):
    return edwards_ensemble(
        small_params, 2000, LadderConfig(eps0=0.1, levels=4), cov=small_cov
    )


class TestEnsemble:
    def test_shapes_and_ladder(self, small_ensemble, small_params, small_cov):
        ens = small_ensemble
        assert ens.values.shape == (2000, 64, 2)
        assert ens.lc.shape == ens.weights.shape == (2000,)
        assert ens.eps == 0.0125
        assert ens.m == 2000
        # lc is the bottom rung of the ladder on the same paths: one exp at
        # the working eps against squarings down the ladder, with the same
        # expectation subtracted, so they differ by rounding of the raw value
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        raw, _, centered = centered_ladder(ens.values, small_params, small_cov.grid, eps)
        assert np.all(np.abs(ens.lc - centered[:, -1]) <= 1e-12 * np.abs(raw[:, -1]))

    def test_kernel_runs_at_the_working_eps_alone(self, small_params, small_cov, monkeypatch):
        calls = []

        def counting(values, grid, epsilons, **kwargs):
            calls.append(np.asarray(epsilons, dtype=float).tolist())
            return silt_raw_batch(values, grid, epsilons, **kwargs)

        monkeypatch.setattr(edwardsim.silt, "silt_raw_batch", counting)
        ens = edwards_ensemble(small_params, 8, LadderConfig(eps0=0.1, levels=5), cov=small_cov)
        assert calls == [[0.1 * 0.5**4]]
        assert ens.eps == 0.00625

    def test_unit_weights_at_zero_coupling(self, small_cov):
        p = ModelParams(N=64, g=0.0, seed=0)
        ens = edwards_ensemble(p, 128, LadderConfig(0.1, 4), cov=small_cov)
        assert np.all(ens.weights == 1.0)
        assert ens.ess == 128.0
        est, _ = ens.expectation(ens.lc)
        assert abs(est - ens.lc.mean()) < 1e-13 * max(1.0, abs(ens.lc.mean()))

    def test_normalized_weights_sum_to_one(self, small_ensemble):
        assert abs(small_ensemble.normalized_weights.sum() - 1.0) < 1e-12

    def test_stream_offset_subset(self, small_params, small_cov):
        a = edwards_ensemble(
            small_params, 8, LadderConfig(0.1, 4), cov=small_cov
        )
        b = edwards_ensemble(
            small_params, 5, LadderConfig(0.1, 4), cov=small_cov, stream_offset=3
        )
        assert np.array_equal(a.values[3:], b.values)
        # pair sums run through a different batch height; ulp-level only
        assert np.allclose(a.lc[3:], b.lc, rtol=1e-12, atol=1e-15)

    def test_exponential_tilting_lowers_the_mean(self, small_ensemble):
        # reweighting by exp(-g lc) must shift mass toward small lc
        ens = small_ensemble
        wm, _ = ens.expectation(ens.lc)
        um = ens.lc.mean()
        wn = ens.normalized_weights
        infl = wn * (ens.lc - wm) - (ens.lc - um) / ens.m
        se = float(np.sqrt(np.sum(infl**2)))
        assert wm < um - 5.0 * se

    def test_expectation_matches_formula(self, small_ensemble):
        ens = small_ensemble
        a = ens.values[:, -1, 0]
        est, se = ens.expectation(a)
        wn = ens.normalized_weights
        assert est == float(np.dot(wn, a))
        assert se == float(np.sqrt(np.sum(wn**2 * (a - est) ** 2)))

    def test_diagnostics(self, small_ensemble):
        ens = small_ensemble
        assert abs(np.exp(ens.mgf_diagnostic()) / np.mean(ens.weights**2) - 1.0) < 1e-12
        tail = ens.weight_tail()
        assert tail.shape == (4,)
        assert np.all(np.diff(tail) >= 0.0)
        assert tail[-1] == ens.weights.max()

    def test_degeneracy_warning(self, small_cov):
        p = ModelParams(N=64, g=500.0, seed=0)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            ens = edwards_ensemble(p, 256, LadderConfig(0.1, 4), cov=small_cov)
        assert ens.ess < 0.01 * 256

    def test_ess_of_weights_near_the_double_limit(self):
        # the largest log-weight, 584, squares past the double range; the
        # ess is scale-free and still flags the degeneracy
        p = ModelParams(H=0.5, d=2, g=-1000.0, N=64, seed=1)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            ens = edwards_ensemble(p, 128)
        assert np.max(-p.g * ens.lc) > 354.9
        assert np.array_equal(ens.weights, np.exp(-p.g * ens.lc))
        assert np.isfinite(ens.ess) and 1.0 <= ens.ess <= 128
        # log E[w^2] stays finite where w^2 overflows
        log_w2 = -2.0 * p.g * ens.lc
        ref = float(scipy.special.logsumexp(log_w2) - np.log(ens.m))
        assert abs(ens.mgf_diagnostic() - ref) <= 1e-12 * abs(ref)

    def test_nonfinite_weights_abort(self, small_cov):
        p = ModelParams(N=64, g=-1e8, seed=0)
        with pytest.raises(FloatingPointError, match="admissible"):
            edwards_ensemble(p, 64, LadderConfig(0.1, 4), cov=small_cov)


class TestFunctionals:
    def test_coordinate_functional(self, small_cov):
        w = coordinate_functional(small_cov.grid, 2, 5, 1)
        assert w.shape == (64, 2)
        assert w[5, 1] == 1.0
        assert w.sum() == 1.0
        with pytest.raises(ValueError, match="index"):
            coordinate_functional(small_cov.grid, 2, 64, 0)

    def test_smooth_fn_gradients_match_finite_differences(self, rng):
        fns = [
            make_tanh([0.7, -0.3], 0.2),
            make_linear([1.5, -2.0], 0.4),
            make_poly_bump(0.3, [0.5, -0.1], [0.2, 0.8]),
        ]
        z = rng.standard_normal((7, 2))
        delta = 1e-6
        for fn in fns:
            grad = fn.grad(z)
            assert grad.shape == z.shape
            for j in range(2):
                zp = z.copy()
                zp[:, j] += delta
                zm = z.copy()
                zm[:, j] -= delta
                fd = (fn.f(zp) - fn.f(zm)) / (2.0 * delta)
                assert np.allclose(grad[:, j], fd, rtol=1e-6, atol=1e-8)

    def test_make_linear_is_exact(self):
        f = make_linear([2.0, -1.0], 3.0)
        z = np.array([[1.0, 1.0], [0.5, 2.0]])
        assert np.array_equal(f.f(z), z @ np.array([2.0, -1.0]) + 3.0)
        assert np.array_equal(f.grad(z), np.tile([2.0, -1.0], (2, 1)))

    def test_cylinder_batched_consistency(self, small_cov, small_ensemble):
        fcn = random_cylinder(np.random.default_rng(4), small_cov.grid, 2)
        vals = small_ensemble.values[:10]
        batched = fcn.value(vals)
        single = np.array([fcn.value(v) for v in vals])
        assert np.allclose(batched, single, rtol=1e-14, atol=0.0)
        assert fcn.z(vals).shape == (10, fcn.n_args)
        assert fcn.grad_coeffs(vals).shape == (10, fcn.n_args)

    def test_random_cylinder_ignores_pinned_origin(self, small_cov):
        for s in range(5):
            fcn = random_cylinder(np.random.default_rng(s), small_cov.grid, 2, n_args=3)
            assert np.all(fcn.weights[:, 0, :] == 0.0)


class TestGradientCylinder:
    def test_linear_coordinate_is_exact(self, small_params, small_cov, small_ensemble):
        # f(x) = x(t_j)[c] differentiates along k to exactly k(t_j)[c]
        sh = builtin_shift("sine", small_params, cov=small_cov)
        j, c = 17, 0
        fcn = CylinderFunction(
            weights=coordinate_functional(small_cov.grid, 2, j, c)[None],
            fn=make_linear([1.0]),
        )
        out = gradient_cylinder(fcn, sh, small_ensemble.values[:50])
        assert np.all(out == sh.k[j, c])

    def test_zero_shift_gives_zero(self, small_params, small_cov, small_ensemble):
        zero = make_shift_from_target(small_params, k=np.zeros(64), cov=small_cov)
        fcn = random_cylinder(np.random.default_rng(0), small_cov.grid, 2)
        out = gradient_cylinder(fcn, zero, small_ensemble.values[:10])
        assert np.all(out == 0.0)

    def test_against_finite_differences(self, small_params, small_cov, small_ensemble):
        sh = builtin_shift("sine", small_params, cov=small_cov)
        vals = small_ensemble.values[:20]
        delta = 1e-5
        for s in range(5):
            fcn = random_cylinder(np.random.default_rng(s), small_cov.grid, 2)
            analytic = gradient_cylinder(fcn, sh, vals)
            fd = (fcn.value(vals + delta * sh.k) - fcn.value(vals - delta * sh.k)) / (
                2.0 * delta
            )
            scale = np.maximum(np.abs(analytic), 1e-8)
            assert np.all(np.abs(analytic - fd) / scale < 1e-6)


class TestDirichletForm:
    def test_symmetry_is_bitwise(self, small_cov, small_ensemble):
        for s in range(6):
            r = np.random.default_rng(s)
            f = random_cylinder(r, small_cov.grid, 2)
            h = random_cylinder(r, small_cov.grid, 2)
            vfh = dirichlet_form(f, h, small_ensemble)
            vhf = dirichlet_form(h, f, small_ensemble)
            assert vfh == vhf

    def test_nonnegative_on_diagonal(self, small_cov, small_ensemble):
        for s in range(6):
            f = random_cylinder(np.random.default_rng(s), small_cov.grid, 2)
            val, _ = dirichlet_form(f, f, small_ensemble)
            assert val >= 0.0

    def test_constant_function_gives_zero(self, small_cov, small_ensemble):
        const = CylinderFunction(
            weights=coordinate_functional(small_cov.grid, 2, 9, 0)[None],
            fn=make_linear([0.0], 3.0),
        )
        other = random_cylinder(np.random.default_rng(1), small_cov.grid, 2)
        val, se = dirichlet_form(const, other, small_ensemble)
        assert val == 0.0 and se == 0.0

    def test_bilinear_in_linear_arguments(self, small_cov, small_ensemble):
        w = np.stack(
            [
                coordinate_functional(small_cov.grid, 2, 20, 0),
                coordinate_functional(small_cov.grid, 2, 40, 1),
            ]
        )
        a1, a2 = np.array([0.7, -0.2]), np.array([-0.4, 1.1])
        h = random_cylinder(np.random.default_rng(2), small_cov.grid, 2)
        f1 = CylinderFunction(weights=w, fn=make_linear(a1))
        f2 = CylinderFunction(weights=w, fn=make_linear(a2))
        f12 = CylinderFunction(weights=w, fn=make_linear(a1 + a2))
        v1, _ = dirichlet_form(f1, h, small_ensemble)
        v2, _ = dirichlet_form(f2, h, small_ensemble)
        v12, _ = dirichlet_form(f12, h, small_ensemble)
        assert abs(v12 - (v1 + v2)) < 1e-10 * max(1.0, abs(v1 + v2))

    def test_linear_functional_value_is_exact(self):
        # for linear f the summand is path-independent: |grad f|_CM^2 is the
        # kernel diagonal K(t_j, t_j) = t_j^{2H} no matter the weights
        for H in (0.5, 0.7):
            p = ModelParams(H=H, d=1, N=9, g=0.1, seed=2)
            cov = GridCovariance(p)
            ens = edwards_ensemble(p, 64, LadderConfig(0.1, 4), cov=cov)
            for j in range(1, 9):
                fcn = CylinderFunction(
                    weights=coordinate_functional(cov.grid, 1, j, 0)[None],
                    fn=make_linear([1.0]),
                )
                val, se = dirichlet_form(fcn, fcn, ens)
                assert abs(val - cov.grid.points[j] ** (2 * H)) < 1e-12
                assert se < 1e-12

    def test_default_cov_and_grid_check(self, small_params, small_cov, small_ensemble):
        # the form uses the ensemble's own covariance, which must fit its params
        f = random_cylinder(np.random.default_rng(3), small_cov.grid, 2)
        assert small_ensemble.cov is small_cov
        fresh = replace(small_ensemble, cov=GridCovariance(small_params))
        assert dirichlet_form(f, f, small_ensemble) == dirichlet_form(f, f, fresh)
        other = GridCovariance(replace(small_params, T=2.0))
        with pytest.raises(ValueError, match="grid"):
            replace(small_ensemble, cov=other)


def _reference_form(f, h, ens, cov):
    """Per path grad phi_f^T (W_f^T sigma W_h) grad phi_h, from sigma itself
    rather than its factor."""
    gram = np.einsum("ijc,jk,lkc->il", f.weights[:, 1:], cov.sigma, h.weights[:, 1:])
    per_path = np.einsum(
        "mi,il,ml->m", f.grad_coeffs(ens.values), gram, h.grad_coeffs(ens.values)
    )
    return ens.expectation(per_path)[0]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    H=st.floats(0.05, 0.95),
    d=st.integers(1, 3),
    n=st.integers(3, 40),
    seed=st.integers(0, 2**16),
)
def test_form_properties(H, d, n, seed):
    p = ModelParams(H=H, d=d, N=n, g=0.1, seed=seed)
    cov = GridCovariance(p)
    ens = edwards_ensemble(p, 16, LadderConfig(0.1, 4), cov=cov)
    rng = np.random.default_rng(seed)
    f = random_cylinder(rng, cov.grid, d, n_args=int(rng.integers(1, 4)))
    h = random_cylinder(rng, cov.grid, d, n_args=int(rng.integers(1, 4)))
    fh = dirichlet_form(f, h, ens)
    assert fh == dirichlet_form(h, f, ens)
    ff, _ = dirichlet_form(f, f, ens)
    hh, _ = dirichlet_form(h, h, ens)
    assert ff >= 0.0 and hh >= 0.0
    # relative to the Cauchy-Schwarz bound sqrt(E(f, f) E(h, h)) of |E(f, h)|
    scale = np.sqrt(ff * hh)
    assert abs(fh[0] - _reference_form(f, h, ens, cov)) <= 1e-12 * scale
    assert abs(ff - _reference_form(f, f, ens, cov)) <= 1e-12 * ff
    const = CylinderFunction(weights=f.weights, fn=make_linear(np.zeros(f.n_args), 1.5))
    assert dirichlet_form(const, h, ens) == (0.0, 0.0)
