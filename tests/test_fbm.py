import warnings
from dataclasses import replace

import numpy as np
import pytest

from edwardsim import (
    GridCovariance,
    ModelParams,
    ShiftedPath,
    WeightedEnsemble,
    builtin_shift,
    cov_h,
    density_process,
    dirichlet_form,
    edwards_ensemble,
    gaussian_rn_density,
    holder_verify,
    l2_difference_silt,
    log_gaussian_rn_density,
    make_grid,
    make_shift_from_h,
    make_shift_from_target,
    random_cylinder,
    read_shift_csv,
    run_mala,
    sample_fbm,
    sample_fbm_batch,
    stream,
    write_shift_csv,
)
from edwardsim.fbm import _CIRCULANT_MIN_N, _cholesky_with_jitter, build_covariance

# patched to a small N, this sends every grid to the circulant route
CIRCULANT_MIN_N = "edwardsim.fbm._CIRCULANT_MIN_N"


class TestCovH:
    def test_frozen_values(self):
        assert cov_h(0.5, 1.0, 2.0) == 1.0
        assert cov_h(0.5, 0.25, 0.25) == 0.25
        assert abs(cov_h(0.25, 2.0, 1.0) - 2.0**-0.5) < 1e-15
        assert cov_h(0.7, 3.0, 0.0) == 0.0

    def test_variance_on_diagonal(self):
        for H in (0.3, 0.5, 0.8):
            for t in (0.2, 1.0, 2.5):
                assert abs(cov_h(H, t, t) - t ** (2 * H)) < 1e-14 * t ** (2 * H)

    def test_symmetry_exact(self, rng):
        t = rng.uniform(0.0, 3.0, size=50)
        s = rng.uniform(0.0, 3.0, size=50)
        for H in (0.3, 0.5, 0.7):
            assert np.array_equal(cov_h(H, t, s), cov_h(H, s, t))

    def test_self_similarity(self, rng):
        # cov(a t, a s) = a^2H cov(t, s)
        t = rng.uniform(0.1, 2.0, size=20)
        s = rng.uniform(0.1, 2.0, size=20)
        for H in (0.3, 0.5, 0.7):
            for a in (0.5, 2.0, 3.7):
                lhs = cov_h(H, a * t, a * s)
                rhs = a ** (2 * H) * cov_h(H, t, s)
                assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)

    def test_rejects_bad_hurst(self):
        for H in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="H"):
                cov_h(H, 1.0, 1.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cov_h(0.5, -1.0, 1.0)

    def test_broadcasting(self):
        t = np.linspace(0.0, 1.0, 5)
        out = cov_h(0.5, t[:, None], t[None, :])
        assert out.shape == (5, 5)


class TestGridCovariance:
    def test_entries_match_cov_h(self):
        p = ModelParams(H=0.7, N=12)
        grid = make_grid(p)
        sigma = build_covariance(p, grid)
        pts = grid.points[1:]
        for i in range(11):
            for j in range(11):
                assert sigma[i, j] == cov_h(0.7, pts[i], pts[j])

    def test_symmetric_positive_definite(self):
        for H in (0.3, 0.5, 0.7):
            sigma = build_covariance(ModelParams(H=H, N=64), make_grid(ModelParams(N=64)))
            assert np.array_equal(sigma, sigma.T)
            np.linalg.cholesky(sigma)  # raises if not PD

    def test_factor_identity(self):
        # L L^T must reproduce sigma to 1e-8 relative Frobenius error
        for H in (0.3, 0.5, 0.7):
            cov = GridCovariance(ModelParams(H=H, N=256))
            assert cov.factor_residual() < 1e-8
            assert not cov.jittered

    def test_solve(self, small_cov):
        b = np.arange(1.0, small_cov.sigma.shape[0] + 1.0)
        x = small_cov.solve(b)
        assert np.allclose(small_cov.sigma @ x, b, rtol=1e-9, atol=1e-12)

    @staticmethod
    def assert_backward_stable(cov, b):
        # |L L^T x - b| on the scale of the factor and of x
        x = cov.solve(b)
        assert x.shape == b.shape
        chol = cov.chol
        scale = cov.grid.n * np.max(np.abs(chol)) ** 2 * np.max(np.abs(x))
        assert np.max(np.abs(chol @ (chol.T @ x) - b)) <= 1e-13 * scale

    @pytest.mark.parametrize("n", [129, 300, 1024])
    @pytest.mark.parametrize("h", [0.05, 0.5, 0.95])
    def test_blocked_solve(self, n, h):
        # the property tests stay inside one block; here N - 1 = 128 rows
        # fill whole blocks, and 299 and 1023 rows end in a partial one
        cov = GridCovariance(ModelParams(H=h, N=n))
        assert cov.chol.flags.f_contiguous
        b = np.random.default_rng(n).standard_normal((n - 1, 2))
        self.assert_backward_stable(cov, b)
        self.assert_backward_stable(cov, b[:, 1])

    def test_blocked_solve_on_jittered_factor(self):
        # a rank-deficient sigma, factored only after the jitter retry
        cov = GridCovariance(ModelParams(N=300))
        v = np.random.default_rng(1).standard_normal((299, 150))
        cov.sigma = v @ v.T
        with pytest.warns(RuntimeWarning, match="jitter"):
            assert cov.jittered
        assert cov.chol.flags.f_contiguous
        self.assert_backward_stable(cov, v[:, :3])

    def test_solve_rejects_wrong_row_count(self, small_cov):
        with pytest.raises(ValueError, match="rows"):
            small_cov.solve(np.ones(small_cov.sigma.shape[0] + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_rejects_non_finite_rhs(self, small_cov, bad):
        b = np.ones((small_cov.sigma.shape[0], 2))
        b[3, 1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            small_cov.solve(b)

    def test_factor_built_once_on_first_use(self, monkeypatch):
        calls = []

        def counting(sigma):
            calls.append(sigma.shape)
            return _cholesky_with_jitter(sigma)

        monkeypatch.setattr("edwardsim.fbm._cholesky_with_jitter", counting)
        cov = GridCovariance(ModelParams(N=32))
        assert calls == [] and "sigma" not in vars(cov)
        cov.solve(np.ones(31))
        assert not cov.jittered and cov.chol.shape == (31, 31)
        assert calls == [(31, 31)]

    def test_grid_comes_from_params(self):
        # params is the covariance's only input: a second grid is refused
        p = ModelParams(N=16, T=2.0)
        assert np.array_equal(GridCovariance(p).grid.points, make_grid(p).points)
        with pytest.raises(TypeError):
            GridCovariance(p, make_grid(ModelParams(N=16)))

    def test_jitter_retry_on_singular(self):
        # rank-2 PSD matrix: plain factorization fails, the single jitter
        # retry succeeds and warns
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.0, 1.0, -1.0, 0.5])
        a = np.outer(v, v) + np.outer(w, w)
        with pytest.warns(RuntimeWarning, match="jitter"):
            chol, jittered = _cholesky_with_jitter(a)
        assert jittered
        jit = 1e-12 * np.trace(a) / 4
        assert np.allclose(chol @ chol.T, a + jit * np.eye(4), rtol=0.0, atol=1e-10)

    def test_jitter_fails_on_indefinite(self):
        a = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="leading minor"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _cholesky_with_jitter(a)

    def test_failing_minor_found_by_bisection(self):
        for order in (1, 4, 7):
            a = np.eye(9)
            a[order - 1, order - 1] = -1.0
            with pytest.raises(np.linalg.LinAlgError, match=f"leading minor {order} "):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _cholesky_with_jitter(a)


class TestSampleFbm:
    def test_shape_and_pinning(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        assert path.values.shape == (64, 2)
        assert np.all(path.values[0] == 0.0)
        path.check()

    def test_deterministic(self, small_params, small_cov):
        a = sample_fbm(small_params, cov=small_cov, rng=stream(small_params.seed, 0))
        b = sample_fbm(small_params, cov=small_cov, rng=stream(small_params.seed, 0))
        assert np.array_equal(a.values, b.values)

    def test_davies_harte_shape_and_determinism(self, monkeypatch):
        monkeypatch.setattr(CIRCULANT_MIN_N, 2)
        p = ModelParams(H=0.7, N=33, d=2, seed=5)
        a = sample_fbm(p, rng=stream(5, 0))
        b = sample_fbm(p, rng=stream(5, 0))
        assert a.values.shape == (33, 2)
        assert np.all(a.values[0] == 0.0)
        assert np.array_equal(a.values, b.values)


class TestSampleBatch:
    def test_subset_reproducibility(self):
        # replica i is keyed by (seed, offset + i): any sub-batch matches
        # the corresponding rows of the larger batch bit for bit
        p = ModelParams(N=17, d=2, seed=99)
        cov = GridCovariance(p)
        full = sample_fbm_batch(p, 7, cov=cov)
        part = sample_fbm_batch(p, 4, cov=cov, stream_offset=3)
        assert np.array_equal(full[3:], part)
        # at d = 1 a chunk of one replica is a single column of normals
        p = ModelParams(N=64, d=1, seed=99)
        cov = GridCovariance(p)
        full = sample_fbm_batch(p, 300, cov=cov)
        one = sample_fbm_batch(p, 1, cov=cov, stream_offset=5)
        assert np.array_equal(full[5], one[0])
        assert np.array_equal(full[256], sample_fbm_batch(p, 257, cov=cov)[256])
        # a chunk whose column count P*d is not a multiple of 8 gets the same
        # bits as a full chunk, also where BLAS would take a tail kernel
        p = ModelParams(N=256, d=2, seed=99)
        cov = GridCovariance(p)
        full = sample_fbm_batch(p, 300, cov=cov)
        assert np.array_equal(full[96], sample_fbm_batch(p, 97, cov=cov)[96])
        p = ModelParams(N=256, d=3, seed=99)
        cov = GridCovariance(p)
        full = sample_fbm_batch(p, 300, cov=cov)
        for m in (1, 3, 5, 7, 97, 257):
            assert np.array_equal(full[:m], sample_fbm_batch(p, m, cov=cov)), m

    def test_matches_single_path_sampler(self, monkeypatch):
        for d in (1, 2, 3):
            p = ModelParams(H=0.7, N=33, d=d, seed=99)
            cov = GridCovariance(p)
            for min_n in (_CIRCULANT_MIN_N, 2):
                monkeypatch.setattr(CIRCULANT_MIN_N, min_n)
                batch = sample_fbm_batch(p, 3, cov=cov)
                for i in range(3):
                    one = sample_fbm(p, cov=cov, rng=stream(p.seed, i))
                    assert np.array_equal(batch[i], one.values), (d, min_n, i)

    def test_davies_harte_batch(self, monkeypatch):
        monkeypatch.setattr(CIRCULANT_MIN_N, 2)
        p = ModelParams(H=0.3, N=33, d=1, seed=11)
        a = sample_fbm_batch(p, 5)
        b = sample_fbm_batch(p, 3, stream_offset=2)
        assert a.shape == (5, 33, 1)
        assert np.array_equal(a[2:], b)

    def test_davies_harte_builds_no_factor(self, monkeypatch):
        # from the real threshold upward nothing builds sigma or its factor
        def refuse(*args):
            raise AssertionError("circulant sampling must not build the covariance")

        monkeypatch.setattr("edwardsim.fbm.build_covariance", refuse)
        monkeypatch.setattr("edwardsim.fbm._cholesky_with_jitter", refuse)
        p = ModelParams(H=0.7, N=_CIRCULANT_MIN_N, d=2, seed=4)
        GridCovariance(p)
        assert np.all(sample_fbm(p).values[0] == 0.0)
        cov = GridCovariance(p)
        path = sample_fbm(p, cov=cov)
        # the path check on this route skips the factor residual
        path.check()
        assert "_factor" not in cov.__dict__
        x = sample_fbm_batch(p, 3)
        assert x.shape == (3, _CIRCULANT_MIN_N, 2)
        assert np.all(x[:, 0] == 0.0)


class TestSamplerStatistics:
    M = 6000

    def test_empirical_covariance(self):
        p = ModelParams(H=0.5, N=33, d=2, seed=12345)
        cov = GridCovariance(p)
        x = sample_fbm_batch(p, self.M, cov=cov)
        t = cov.grid.points
        r = np.random.default_rng(0)
        for _ in range(10):
            i, j = sorted(r.integers(1, 33, size=2))
            prod = x[:, i, :] * x[:, j, :]  # (M, d)
            est = prod.mean(axis=0)
            se = prod.std(axis=0, ddof=1) / np.sqrt(self.M)
            assert np.all(np.abs(est - cov_h(0.5, t[i], t[j])) <= 5.0 * se)

    def test_mean_zero(self):
        p = ModelParams(H=0.5, N=33, d=2, seed=999)
        x = sample_fbm_batch(p, self.M, cov=GridCovariance(p))
        end = x[:, -1, :]
        se = end.std(axis=0, ddof=1) / np.sqrt(self.M)
        assert np.all(np.abs(end.mean(axis=0)) <= 5.0 * se)

    def test_stationary_increments(self):
        # E[(B_t - B_s)^2] = |t - s|^{2H} per component
        p = ModelParams(H=0.7, N=33, d=2, seed=777)
        cov = GridCovariance(p)
        x = sample_fbm_batch(p, self.M, cov=cov)
        t = cov.grid.points
        r = np.random.default_rng(1)
        for _ in range(10):
            i, j = sorted(r.integers(0, 33, size=2))
            if i == j:
                continue
            sq = (x[:, j, :] - x[:, i, :]) ** 2
            est = sq.mean(axis=0)
            se = sq.std(axis=0, ddof=1) / np.sqrt(self.M)
            assert np.all(np.abs(est - (t[j] - t[i]) ** 1.4) <= 5.0 * se)

    def test_brownian_disjoint_increments_uncorrelated(self):
        p = ModelParams(H=0.5, N=33, d=1, seed=31337)
        x = sample_fbm_batch(p, self.M, cov=GridCovariance(p))
        inc1 = x[:, 8, 0] - x[:, 0, 0]
        inc2 = x[:, 24, 0] - x[:, 16, 0]
        prod = inc1 * inc2
        se = prod.std(ddof=1) / np.sqrt(self.M)
        assert abs(prod.mean()) <= 5.0 * se

    def test_davies_harte_matches_cholesky_law(self, monkeypatch):
        # same covariance structure from both backends, checked at 3 pairs,
        # for anti- and positively correlated increments and for H near 0 and 1
        monkeypatch.setattr(CIRCULANT_MIN_N, 2)
        for H, seed in ((0.05, 7), (0.3, 2024), (0.7, 11), (0.95, 5)):
            p = ModelParams(H=H, N=33, d=1, seed=seed)
            cov = GridCovariance(p)
            x = sample_fbm_batch(p, self.M, cov=cov)
            t = cov.grid.points
            for i, j in [(32, 32), (8, 24), (16, 32)]:
                prod = x[:, i, 0] * x[:, j, 0]
                se = prod.std(ddof=1) / np.sqrt(self.M)
                assert abs(prod.mean() - cov_h(H, t[i], t[j])) <= 5.0 * se


def _shift_file(p, tmp_path):
    dest = tmp_path / "shift.csv"
    write_shift_csv(dest, builtin_shift("linear", p))
    return dest


def _shift(cov):
    return builtin_shift("linear", cov.params, cov=cov)


def _ensemble(p, cov):
    return WeightedEnsemble(
        params=p,
        cov=cov,
        values=np.zeros((1, p.N, p.d)),
        lc=np.zeros(1),
        weights=np.ones(1),
        eps=0.1,
    )


def _dirichlet(p, cov):
    f = random_cylinder(stream(1, 0), make_grid(p), p.d)
    return dirichlet_form(f, f, _ensemble(p, cov))


# every entry point that takes a `cov`, or a shift or ensemble that carries
# one, called with the model p and a `cov` (or a shift or ensemble built on it)
COV_ENTRY_POINTS = {
    "sample_fbm": lambda p, cov, tmp: sample_fbm(p, cov=cov),
    "sample_fbm_batch": lambda p, cov, tmp: sample_fbm_batch(p, 2, cov=cov),
    "make_shift_from_target": lambda p, cov, tmp: make_shift_from_target(
        p, k=np.zeros(p.N), cov=cov
    ),
    "make_shift_from_h": lambda p, cov, tmp: make_shift_from_h(p, h=np.ones(p.N), cov=cov),
    "builtin_shift": lambda p, cov, tmp: builtin_shift("linear", p, cov=cov),
    "l2_difference_silt": lambda p, cov, tmp: l2_difference_silt(
        p, _shift(cov), 0.1, 0.5, 0.0, 2
    ),
    "holder_verify": lambda p, cov, tmp: holder_verify(p, _shift(cov), [0.1], [0.1, 0.2], 2),
    "density_process": lambda p, cov, tmp: density_process(_shift(cov), 0.5, sample_fbm(p), 0.1),
    "log_gaussian_rn_density": lambda p, cov, tmp: log_gaussian_rn_density(
        _shift(cov), 0.5, sample_fbm(p)
    ),
    "gaussian_rn_density": lambda p, cov, tmp: gaussian_rn_density(
        _shift(cov), 0.5, sample_fbm(p)
    ),
    "ShiftedPath": lambda p, cov, tmp: ShiftedPath(sample_fbm(p), _shift(cov), 0.5),
    "edwards_ensemble": lambda p, cov, tmp: edwards_ensemble(p, 2, cov=cov),
    "WeightedEnsemble": lambda p, cov, tmp: _ensemble(p, cov),
    "run_mala": lambda p, cov, tmp: run_mala(p, eps=0.1, n_iter=1, burn_in=0, thin=1, cov=cov),
    "read_shift_csv": lambda p, cov, tmp: read_shift_csv(_shift_file(p, tmp), p, cov=cov),
    "dirichlet_form": lambda p, cov, tmp: _dirichlet(p, cov),
}


@pytest.mark.parametrize("change", [{"H": 0.6}, {"N": 12}, {"T": 2.0}], ids=["H", "N", "T"])
@pytest.mark.parametrize("entry", COV_ENTRY_POINTS)
def test_cov_of_another_model_is_rejected(entry, change, tmp_path):
    # H > 1/2 so that make_shift_from_h gets as far as its covariance
    p = ModelParams(H=0.7, d=1, N=16)
    other = GridCovariance(replace(p, **change))
    with pytest.raises(ValueError, match=r"built for \(H, N, T\) = .* params with \(H, N, T\) = "):
        COV_ENTRY_POINTS[entry](p, other, tmp_path)


def test_cov_may_differ_in_seed_d_and_g():
    p = ModelParams(H=0.7, d=1, N=16, g=0.1, seed=0)
    q = replace(p, d=3, g=-2.0, seed=5)
    cov = GridCovariance(p)
    assert np.array_equal(sample_fbm_batch(q, 3, cov=cov), sample_fbm_batch(q, 3))

