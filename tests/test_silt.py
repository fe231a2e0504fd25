import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edwardsim import (
    GridCovariance,
    LadderConfig,
    ModelParams,
    ShiftedPath,
    TimeGrid,
    brownian_plane_expectation,
    builtin_shift,
    centered_ladder,
    heat_kernel,
    make_grid,
    sample_fbm,
    sample_fbm_batch,
    silt_centered,
    silt_expectation,
    silt_expectation_grid,
    silt_limit,
    silt_raw,
    silt_raw_batch,
    silt_raw_shifted,
)
from edwardsim.mala import _Target
from edwardsim.silt import _GRAM_RTOL, _assemble_ladder, _gram_sums
from pair_reference import pair_cache, pair_kernel_sum, pair_silt_and_grad

NOT_POSITIVE = [float("nan"), float("inf"), float("-inf"), 0.0]


class TestHeatKernel:
    def test_frozen_values(self):
        assert abs(heat_kernel(1.0 / (2.0 * np.pi), np.zeros(2)) - 1.0) < 1e-14
        assert abs(heat_kernel(1.0, np.zeros(2)) - 1.0 / (2.0 * np.pi)) < 1e-16
        # scalar input means d = 1
        assert abs(heat_kernel(0.5, 0.0) - np.pi**-0.5) < 1e-15

    def test_positive_eps_required(self):
        with pytest.raises(ValueError, match="positive"):
            heat_kernel(0.0, np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            heat_kernel(-1.0, np.zeros(2))

    def test_normalization(self):
        # integrates to 1 over a grid covering +-8 sqrt(eps)
        eps = 0.3
        half = 8.0 * np.sqrt(eps)
        xs = np.linspace(-half, half, 1201)
        grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
        vals = heat_kernel(eps, np.stack([grid_x, grid_y], axis=-1))
        total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs)
        assert abs(total - 1.0) < 1e-6

    def test_broadcasting(self):
        out = heat_kernel(0.2, np.zeros((7, 5, 2)))
        assert out.shape == (7, 5)

    def test_monotone_in_distance(self):
        x = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]])
        v = heat_kernel(0.2, x)
        assert v[0] > v[1] > v[2] > 0.0


class TestEpsValidation:
    # NaN passes `eps <= 0` and inf gave 0.0 or NaN rows; every entry point
    # that takes an eps names the value instead
    @pytest.mark.parametrize("eps", NOT_POSITIVE, ids=["nan", "inf", "-inf", "0"])
    def test_every_entry_point_names_the_value(self, eps, small_params, small_cov):
        grid = small_cov.grid
        vals = np.zeros((2, grid.n, 2))
        calls = [
            lambda: heat_kernel(eps, np.zeros(2)),
            lambda: silt_raw_batch(vals, grid, [0.1, eps]),
            lambda: silt_raw_shifted(vals, grid, np.zeros((grid.n, 2)), [0.5], [eps]),
            lambda: silt_expectation(small_params, eps),
            lambda: brownian_plane_expectation(1.0, eps),
            lambda: silt_expectation_grid(small_params, grid, eps),
            lambda: LadderConfig(eps0=eps),
            lambda: _Target(small_params, small_cov, eps),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"finite and positive, got {eps}"):
                call()


class TestSiltRaw:
    def test_quadrature_weights_exact(self):
        # constant path isolates the trapezoid weights: the value must be
        # spacing^2 * sum(c) * (2 pi eps)^{-d/2}
        n, eps = 64, 0.37
        grid = make_grid(ModelParams(N=n))
        path = SimpleNamespace(values=np.zeros((n, 2)), grid=grid)
        _, _, c = pair_cache(n)
        expect = grid.spacing**2 * c.sum() * (2.0 * np.pi * eps) ** -1.0
        assert abs(silt_raw(path, eps) / expect - 1.0) < 1e-12

    def test_constant_path_approaches_half_t_squared(self):
        # triangle area T^2/2 appears in the eps-flat limit; the trapezoid
        # deficit is 1/n - 1/(2 n^2), below 1e-3 at N = 1025
        grid = make_grid(ModelParams(N=1025))
        path = SimpleNamespace(values=np.zeros((1025, 2)), grid=grid)
        eps = 0.37
        target = 0.5 * (2.0 * np.pi * eps) ** -1.0
        assert abs(silt_raw(path, eps) / target - 1.0) < 1e-3

    def test_flat_kernel_limit_on_real_path(self):
        # eps >> T^{2H} makes the kernel constant across pair distances
        p = ModelParams(N=1025, d=2, seed=42)
        cov = GridCovariance(p)
        path = sample_fbm(p, cov=cov)
        eps = 1e6
        target = 0.5 * p.T**2 * (2.0 * np.pi * eps) ** -1.0
        assert abs(silt_raw(path, eps) / target - 1.0) < 1e-3

    def test_positive(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        assert silt_raw(path, 0.01) > 0.0

    def test_rejects_bad_eps(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        with pytest.raises(ValueError, match="positive"):
            silt_raw(path, 0.0)

    def test_shift_enters_through_values_only(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("sine", small_params, cov=small_cov)
        sp = ShiftedPath(path, sh, 0.8)
        manual = SimpleNamespace(
            values=path.values + 0.8 * sh.k, grid=path.grid
        )
        assert silt_raw(sp, 0.05) == silt_raw(manual, 0.05)


class TestSiltBatch:
    def test_matches_single_path(self, small_params, small_cov):
        vals = sample_fbm_batch(small_params, 6, cov=small_cov)
        eps = np.array([0.1, 0.01])
        out = silt_raw_batch(vals, small_cov.grid, eps)
        assert out.shape == (6, 2)
        for i in range(6):
            path = SimpleNamespace(values=vals[i], grid=small_cov.grid)
            for k in range(2):
                assert abs(out[i, k] / silt_raw(path, eps[k]) - 1.0) < 1e-12

    def test_thread_count_invariance(self):
        # 700 paths leave a partial last chunk of the fixed 256-path chunking
        p = ModelParams(N=128, d=2, seed=5)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 700, cov=cov)
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        a = silt_raw_batch(vals, cov.grid, eps, threads=1)
        for threads in (2, 3):
            assert np.array_equal(a, silt_raw_batch(vals, cov.grid, eps, threads=threads))

    @pytest.mark.parametrize("m", [1, 257])
    def test_one_path_chunks_match_single_path(self, m):
        # one path alone, and a 1-path last chunk after a full one: node
        # blocks over a sub-batch of one path; against the single-path call
        # and the enumerated pair sum
        p = ModelParams(N=64, d=2, seed=9)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, m, cov=cov)
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        out = silt_raw_batch(vals, cov.grid, eps, threads=1)
        for threads in (2, 3):
            assert np.array_equal(out, silt_raw_batch(vals, cov.grid, eps, threads=threads))
        for i in {0, m - 1}:
            path = SimpleNamespace(values=vals[i], grid=cov.grid)
            for got, e in zip(out[i], eps):
                for ref in (silt_raw(path, e), pair_silt_and_grad(vals[i], cov.grid.spacing, e)[0]):
                    assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize(
        "d, n, eps",
        [
            (1, 24, [0.2, 0.01]),
            (2, 24, [0.2, 0.01]),
            (3, 24, [0.2, 0.01]),
            # N = 2 is the corner pair alone at weight 1/4; N = 3 has two lags
            (2, 2, [0.1]),
            (2, 3, [0.1]),
            # (0.05, 0.02) is no dyadic step, so each rung takes its own exp
            (2, 25, [0.05, 0.02]),
        ],
        ids=["1", "2", "3", "N2", "N3", "N25-non-dyadic"],
    )
    def test_matches_direct_pair_sum(self, d, n, eps):
        p = ModelParams(H=1.0 / d if d > 1 else 0.5, d=d, N=n, seed=4)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 3, cov=cov)
        out = silt_raw_batch(vals, cov.grid, eps)
        h = cov.grid.spacing
        for m in range(3):
            for k, e in enumerate(eps):
                ref = 0.0
                for j in range(1, n):
                    for i in range(j):
                        w = (0.5 if j == n - 1 else 1.0) * (0.5 if i == 0 else 1.0)
                        ref += w * heat_kernel(e, vals[m, j] - vals[m, i])
                assert abs(out[m, k] / (h * h * ref) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dyadic_ladder_matches_single_eps(self, d):
        # rungs past the first are squares of the previous rung; each must
        # agree with its own exp
        p = ModelParams(H=1.0 / d if d > 1 else 0.5, d=d, N=64, seed=6)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 5, cov=cov)
        eps = LadderConfig(eps0=0.1, levels=5).epsilons
        ladder = silt_raw_batch(vals, cov.grid, eps)
        for k, e in enumerate(eps):
            single = silt_raw_batch(vals, cov.grid, [e])[:, 0]
            assert np.max(np.abs(ladder[:, k] / single - 1.0)) < 1e-13

    @pytest.mark.parametrize("m, n", [(4, 512), (3, 511), (300, 64), (5, 2), (5, 3), (4, 65)])
    def test_lag_blocks_match_pair_weights(self, m, n):
        # the pair weights of the node blocks, several with a partial last
        # one (N = 511, 65), and of a partial last path chunk, against the
        # trapezoid pair weights summed directly; the rows of the shifted
        # family against the same sums on x + u k
        p = ModelParams(H=0.5, d=2, N=n, seed=11)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, m, cov=cov)
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        k = np.sin(np.pi * cov.grid.points)[:, None] * np.array([1.0, -0.5])
        us = [0.0, -0.7, 1.5]
        out = silt_raw_batch(vals, cov.grid, eps)
        shifted = silt_raw_shifted(vals, cov.grid, k, us, eps)
        i_idx, j_idx, c = pair_cache(n)
        for got, u in [(out, 0.0)] + [(shifted[:, i], u) for i, u in enumerate(us)]:
            x = vals + u * k
            sq = np.sum((x[:, j_idx] - x[:, i_idx]) ** 2, axis=2)
            for k_eps, e in enumerate(eps):
                ref = cov.grid.spacing**2 * (2.0 * np.pi * e) ** -1.0 * (np.exp(-sq / (2.0 * e)) @ c)
                assert np.max(np.abs(got[:, k_eps] / ref - 1.0)) < 1e-12

    def test_memory_stays_linear_in_paths_and_grid(self):
        # the O(M N^2) pair temporaries would be hundreds of MB at N = 4096
        # (Brownian paths by cumulative sums, to skip the O(N^3) factor); 64
        # paths are 4 MB of values, and the node blocks and path
        # sub-batches stay near _GRAM_ELEMENTS whether the family is
        # shifted or not (one rung there: the ladder adds no buffer)
        grid = make_grid(ModelParams(H=0.5, d=2, N=4096))
        steps = np.random.default_rng(2).standard_normal((64, 4095, 2)) * np.sqrt(grid.spacing)
        vals = np.concatenate([np.zeros((64, 1, 2)), np.cumsum(steps, axis=1)], axis=1)
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        k = np.zeros((4096, 2))
        k[:, 0] = np.sin(np.pi * grid.points)
        cases = [
            (lambda: silt_raw_batch(vals[:4], grid, eps), 32),
            (lambda: silt_raw_batch(vals, grid, eps[:1]), 24),
            (lambda: silt_raw_shifted(vals, grid, k, [0.5], eps[:1]), 24),
            # several u at two rates that are not a dyadic ladder: the
            # weights of each (u, rate) stay the size of a pair block
            # without its paths axis
            (lambda: silt_raw_shifted(vals[:4], grid, k, [0, 0.25, -0.5, 1, 2], [0.1, 0.03]), 24),
        ]
        for run, bound_mb in cases:
            tracemalloc.start()
            try:
                out = run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.all(np.isfinite(out)) and np.all(out > 0.0)
            assert peak < bound_mb * 2**20

    def test_validation(self, small_cov):
        vals = np.zeros((3, 64, 2))
        with pytest.raises(ValueError, match="positive"):
            silt_raw_batch(vals, small_cov.grid, [0.1, -0.1])
        with pytest.raises(ValueError, match="N"):
            silt_raw_batch(np.zeros((3, 32, 2)), small_cov.grid, [0.1])


class TestSiltShifted:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_row_is_the_batch_kernel_on_the_shifted_paths(self, d):
        # 300 paths span two chunks; the first eps list is a dyadic
        # ladder, whose rungs are squared, the second is not. Every row is
        # the batch kernel on the shifted paths and its one-u call, to the
        # bit
        p = ModelParams(H=1.0 / d if d > 1 else 0.5, d=d, N=40, seed=8)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 300, cov=cov)
        t = cov.grid.points
        k = np.sin(np.pi * t)[:, None] * np.arange(1.0, d + 1.0)
        us = [0.0, -0.7, 0.3, 1.5]
        for eps in ([0.1, 0.05, 0.025], [0.05, 0.02]):
            ref = np.stack([silt_raw_batch(vals + u * k, cov.grid, eps) for u in us], axis=1)
            for threads in (1, 2, 3):
                out = silt_raw_shifted(vals, cov.grid, k, us, eps, threads=threads)
                assert out.shape == (300, 4, len(eps))
                assert np.array_equal(out[:, 0], silt_raw_batch(vals, cov.grid, eps))
                for i, u in enumerate(us):
                    one = silt_raw_shifted(vals, cov.grid, k, [u], eps, threads=threads)
                    assert np.array_equal(out[:, i], one[:, 0])
                assert np.array_equal(out, ref)

    def test_rows_of_large_shifts(self):
        # k = t along the first component, so |u dk|^2 reaches 9 at |u| = 3
        # (the pair of the two ends), and exp(rate |u dk|^2) = e^-720 there
        # at eps 0.00625. 300 paths span two chunks; the last two are -3 k
        # and 3 k, whose rows at u = 3 and u = -3 are the constant path, and
        # whose rows at u = -3 and u = 3 are -6 k and 6 k, where the pairs
        # more than half of T apart underflow
        p = ModelParams(H=0.5, d=2, N=64, seed=21)
        cov = GridCovariance(p)
        k = cov.grid.points[:, None] * np.array([1.0, 0.0])
        vals = np.concatenate([sample_fbm_batch(p, 298, cov=cov), [-3.0 * k, 3.0 * k]])
        eps, us = 0.00625, [0.0, 0.5, -3.0, 3.0]
        out = silt_raw_shifted(vals, cov.grid, k, us, [eps])
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[:, 0], silt_raw_batch(vals, cov.grid, [eps]))
        for i, u in enumerate(us):
            assert np.array_equal(out[:, i], silt_raw_batch(vals + u * k, cov.grid, [eps]))
            assert np.array_equal(out[:, i], silt_raw_shifted(vals, cov.grid, k, [u], [eps])[:, 0])

    def test_rejects_misshaped_direction(self, small_cov):
        vals = np.zeros((3, 64, 2))
        for k in (np.ones((64, 1)), np.ones((63, 2)), np.ones(64)):
            with pytest.raises(ValueError, match=r"\(N, d\) = \(64, 2\)"):
                silt_raw_shifted(vals, small_cov.grid, k, [0.5], [0.1])


class TestGramCertificate:
    # A Gram row keeps its value only when its certified bound on the
    # exponent's rounding is at most _GRAM_RTOL; the difference form sums
    # every other row. exp, the squares of a ladder and the sums round apart from
    # the certificate: at most 2^j 4 + 2 (32 + N / 32) + 4 units of 2^-53
    # at rung j, below 2e-14 at the N and ladders here
    ROUNDING = 2e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("hurst", [0.05, 0.5, 0.95])
    def test_gram_rows_lie_within_their_bound(self, hurst, d):
        # rows of x + offset + u k along a random-walk k, each eps alone and
        # a dyadic ladder, against the enumerated pair sum in extended
        # precision. Every row is silt_raw_batch's on the shifted paths, a
        # kept row is the Gram sum, and a row above the tolerance, which
        # the difference form sums, agrees with the reference within 1e-12
        kept = 0
        for n in (2, 3, 31, 64, 257):
            p = ModelParams(H=hurst, d=d, N=n, seed=17 * n + d)
            cov = GridCovariance(p)
            r = np.random.default_rng(p.seed)
            k = np.vstack([np.zeros((1, d)), np.cumsum(r.standard_normal((n - 1, d)), axis=0) / np.sqrt(n)])
            for offset in (0.0, 1e3):
                vals = sample_fbm_batch(p, 2, cov=cov) + offset
                for eps in ([1e-3], [6.25e-3], [0.1], [1.0], 0.1 * 0.5 ** np.arange(5)):
                    rates = -0.5 / np.asarray(eps)
                    squares = np.concatenate([[False], rates[1:] == 2.0 * rates[:-1]])
                    factor = cov.grid.spacing**2 * (2.0 * np.pi * np.asarray(eps)) ** (-0.5 * d)
                    out = silt_raw_shifted(vals, cov.grid, k, [0.0, 3.0, -3.0], eps)
                    for i, u in enumerate([0.0, 3.0, -3.0]):
                        x = vals + u * k
                        assert np.array_equal(out[:, i], silt_raw_batch(x, cov.grid, eps))
                        sums, bounds = _gram_sums(vals, k, u, rates, squares)
                        for m in range(2):
                            ref = np.array([pair_kernel_sum(x[m], e) for e in eps])
                            if np.all(bounds[m] <= _GRAM_RTOL):
                                kept += 1
                                assert np.array_equal(out[m, i], sums[m] * factor)
                                assert np.all(np.abs(sums[m] - ref) <= (bounds[m] + self.ROUNDING) * ref)
                            else:
                                assert np.all(np.abs(out[m, i] - ref * factor) <= 1e-12 * ref * factor)
        assert kept > 0

    @pytest.mark.filterwarnings("error")
    def test_named_fallback_rows(self):
        # N = 14, d = 3, H = 0.16, eps = 1.1e-3, u = 2.73: the bound of path
        # 3 is about 8e-11, and its Gram value was 3.5e-12 off the extended
        # reference on x86-64 with OpenBLAS; the row is the difference
        # form's. Warnings are errors: no case here may print one
        p = ModelParams(H=0.16, d=3, N=14, seed=220)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 4, cov=cov)
        r = np.random.default_rng(p.seed)
        k = np.vstack([np.zeros((1, 3)), np.cumsum(r.standard_normal((13, 3)), axis=0) / np.sqrt(14)])
        eps, u = 1.1e-3, 2.73
        _, bounds = _gram_sums(vals, k, u, np.array([-0.5 / eps]), np.array([False]))
        assert bounds[3, 0] > _GRAM_RTOL
        out = silt_raw_shifted(vals, cov.grid, k, [u], [eps])[:, 0, 0]
        ref = silt_raw_batch(vals + u * k, cov.grid, [eps])[:, 0]
        assert out[3] == ref[3]
        exact = cov.grid.spacing**2 * (2.0 * np.pi * eps) ** -1.5 * pair_kernel_sum(vals[3] + u * k, eps)
        assert abs(out[3] - exact) <= 1e-12 * exact
        # a path whose every pair term underflows: the bound is NaN, and the
        # difference form's row is 0 both ways
        far = np.arange(14.0)[:, None] * np.array([10.0, 0.0, 0.0])
        sums, bounds = _gram_sums(far[None], k, u, np.array([-0.5 / eps]), np.array([False]))
        assert sums[0, 0] == 0.0 and np.isnan(bounds[0, 0])
        out = silt_raw_shifted(far[None], cov.grid, k, [u], [eps])[0, 0, 0]
        assert out == silt_raw_batch(far[None] + u * k, cov.grid, [eps])[0, 0] == 0.0
        # nodes 1e160 apart: |y|^2 overflows and the Gram exponent is NaN,
        # while the difference form keeps the one pair at distance 0, weight
        # 1/2, and its |dx|^2 of the others overflows to a term exp(-inf) = 0
        grid = make_grid(ModelParams(H=0.5, d=1, N=3))
        wide = np.array([[[0.0], [0.0], [1e160]]])
        _, bounds = _gram_sums(wide, np.zeros((3, 1)), 0.0, np.array([-0.5 / eps]), np.array([False]))
        assert np.isnan(bounds[0, 0])
        expect = grid.spacing**2 * (2.0 * np.pi * eps) ** -0.5 * 0.5
        assert abs(silt_raw_batch(wide, grid, [eps])[0, 0] - expect) <= 1e-15 * expect

    def test_gram_row_is_the_same_alone_and_in_a_batch(self, desk_params, desk_cov):
        # the default ensemble: 1000 paths at N = 256, eps 0.00625, two
        # threads; a Gram row in the fourth chunk against the path alone
        vals = sample_fbm_batch(desk_params, 1000, cov=desk_cov)
        eps = 0.00625
        _, bounds = _gram_sums(vals[900:901], np.zeros((256, 2)), 0.0, np.array([-0.5 / eps]), np.array([False]))
        assert bounds[0, 0] <= _GRAM_RTOL
        batch = silt_raw_batch(vals, desk_cov.grid, [eps], threads=2)
        assert batch[900, 0] == silt_raw_batch(vals[900:901], desk_cov.grid, [eps])[0, 0]


class TestExpectation:
    def test_closed_form_frozen(self):
        # (2 ln 2 - 1) / (2 pi) at T = eps = 1
        assert abs(brownian_plane_expectation(1.0, 1.0) - 0.0614806571) < 1e-9

    def test_quadrature_matches_closed_form(self):
        p = ModelParams(H=0.5, d=2, T=1.0)
        for eps in (1.0, 0.1, 0.01):
            quad = silt_expectation(p, eps)
            closed = brownian_plane_expectation(1.0, eps)
            assert abs(quad / closed - 1.0) < 1e-8

    def test_monotone_in_eps(self):
        p = ModelParams(H=0.5, d=2)
        assert (
            silt_expectation(p, 0.01)
            > silt_expectation(p, 0.1)
            > silt_expectation(p, 1.0)
        )

    def test_flat_kernel_limit(self):
        p = ModelParams(H=0.5, d=2, T=1.0)
        eps = 1e9
        val = silt_expectation(p, eps) * (2.0 * np.pi * eps)
        assert abs(val - 0.5) < 1e-3

    def test_rejects_bad_eps(self):
        p = ModelParams()
        for fn in (silt_expectation, brownian_plane_expectation):
            with pytest.raises(ValueError, match="positive"):
                (fn(p, -0.1) if fn is silt_expectation else fn(1.0, -0.1))

    def test_pair_expectation_against_direct_mc(self):
        # E p_eps(X_t - X_s) = (2 pi)^{-d/2} (eps + |t-s|^{2H})^{-d/2} is the
        # kernel under the lag-grouped grid expectation; check it by drawing
        # the increment distribution directly
        rng = np.random.default_rng(8)
        lag, eps, H = 0.42, 0.05, 0.5
        z = rng.standard_normal((200_000, 2)) * lag**H
        vals = heat_kernel(eps, z)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        analytic = (2.0 * np.pi) ** -1.0 * (eps + lag ** (2 * H)) ** -1.0
        assert abs(vals.mean() - analytic) <= 5.0 * se


class TestGridExpectation:
    def test_centers_the_discrete_estimator(self, small_params, small_cov):
        # mean of raw - grid expectation sits within 5 SE of zero
        m = 3000
        vals = sample_fbm_batch(small_params, m, cov=small_cov)
        for eps in (0.1, 0.01):
            raw = silt_raw_batch(vals, small_cov.grid, [eps])[:, 0]
            centered = raw - silt_expectation_grid(small_params, small_cov.grid, eps)
            se = centered.std(ddof=1) / np.sqrt(m)
            assert abs(centered.mean()) <= 5.0 * se

    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    def test_lag_weights_match_pair_weights(self, n):
        # the closed-form lag weights are the pair weights summed per lag
        p = ModelParams(H=0.3, d=2, N=n)
        grid = make_grid(p)
        i_idx, j_idx, c = pair_cache(n)
        w = np.bincount(j_idx - i_idx, weights=c, minlength=n)
        lags = np.arange(n) * grid.spacing
        q = (2.0 * np.pi) ** (-0.5 * p.d) * (0.02 + lags ** (2.0 * p.H)) ** (-0.5 * p.d)
        expect = grid.spacing**2 * np.dot(w[1:], q[1:])
        assert silt_expectation_grid(p, grid, 0.02) == expect

    def test_deterministic_distance_to_continuum(self):
        # the diagonal-exclusion deficit is O(spacing * T * (2 pi eps)^{-d/2})
        p = ModelParams(N=256)
        grid = make_grid(p)
        for eps in (0.1, 0.01, 0.001):
            gap = abs(
                silt_expectation_grid(p, grid, eps) - silt_expectation(p, eps)
            )
            bound = 1.25 * 0.5 * grid.spacing * p.T / (2.0 * np.pi * eps)
            assert gap <= bound

    def test_converges_to_continuum(self):
        p0 = ModelParams(H=0.5, d=2)
        eps = 0.05
        cont = silt_expectation(p0, eps)
        gaps = []
        for n in (64, 128, 256, 512):
            p = ModelParams(H=0.5, d=2, N=n)
            gaps.append(abs(silt_expectation_grid(p, make_grid(p), eps) - cont))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1] and gaps[3] < gaps[2]

    def test_mean_raw_against_continuum_with_allowance(self, small_params, small_cov):
        # combined statistical + deterministic-deficit window
        m = 3000
        eps = 0.05
        vals = sample_fbm_batch(small_params, m, cov=small_cov)
        raw = silt_raw_batch(vals, small_cov.grid, [eps])[:, 0]
        se = raw.std(ddof=1) / np.sqrt(m)
        allowance = 1.25 * 0.5 * small_cov.grid.spacing / (2.0 * np.pi * eps)
        gap = abs(raw.mean() - silt_expectation(small_params, eps))
        assert gap <= 5.0 * se + allowance


class TestCentered:
    def test_exact_decomposition(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        est = silt_centered(path, 0.02)
        assert est.centered == est.raw - est.expectation
        assert est.epsilon == 0.02
        assert est.expectation == silt_expectation_grid(
            small_params, small_cov.grid, 0.02
        )

    def test_centered_ladder_is_exact(self, small_params, small_cov):
        vals = sample_fbm_batch(small_params, 5, cov=small_cov)
        eps = LadderConfig(eps0=0.1, levels=4).epsilons
        raw, expect, centered = centered_ladder(vals, small_params, small_cov.grid, eps)
        assert np.array_equal(raw, silt_raw_batch(vals, small_cov.grid, eps))
        assert np.array_equal(
            expect, [silt_expectation_grid(small_params, small_cov.grid, e) for e in eps]
        )
        assert np.array_equal(centered, raw - expect[None, :])

    def test_shifted_path_keeps_unshifted_centering(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        sh = builtin_shift("linear", small_params, cov=small_cov)
        base = silt_centered(path, 0.02)
        moved = silt_centered(ShiftedPath(path, sh, 0.9), 0.02)
        assert moved.expectation == base.expectation
        assert moved.raw != base.raw


class TestLadder:
    def test_config(self):
        cfg = LadderConfig(eps0=0.1, levels=5)
        assert np.allclose(
            cfg.epsilons, [0.1, 0.05, 0.025, 0.0125, 0.00625], rtol=1e-15
        )
        with pytest.raises(ValueError, match="levels"):
            LadderConfig(levels=3)
        with pytest.raises(ValueError, match="positive"):
            LadderConfig(eps0=0.0)

    def test_ladder_fields(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        lad = silt_limit(path, LadderConfig(eps0=0.1, levels=5))
        assert lad.epsilons.shape == (5,)
        assert lad.raw.shape == (5,)
        assert lad.diffs.shape == (4,)
        assert lad.ratios.shape == (3,)
        assert lad.limit == lad.centered[-1]
        assert np.isfinite(lad.extrapolated)
        for k, eps in enumerate(lad.epsilons):
            assert abs(lad.raw[k] / silt_raw(path, eps) - 1.0) < 1e-12
            assert lad.expectation[k] == silt_expectation_grid(
                small_params, small_cov.grid, eps
            )

    def test_under_resolved_flag(self, small_params, small_cov):
        path = sample_fbm(small_params, cov=small_cov)
        # floor is 0.1 * spacing^{2H} = 0.1/63 here; eps0 2^{-8} drops below
        coarse = silt_limit(path, LadderConfig(eps0=0.1, levels=4))
        deep = silt_limit(path, LadderConfig(eps0=0.1, levels=9))
        assert not coarse.under_resolved
        assert deep.under_resolved

    def test_convergence_flag_mechanism(self, small_params):
        grid = make_grid(small_params)
        eps = LadderConfig(eps0=0.1, levels=5).epsilons
        geometric = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        lad = _assemble_ladder(
            small_params, grid, eps, geometric, np.zeros(5), geometric
        )
        assert lad.converged
        # Aitken extrapolation of an exact geometric tail hits its limit 0
        assert abs(lad.extrapolated) < 1e-15
        flat = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        lad2 = _assemble_ladder(small_params, grid, eps, flat, np.zeros(5), flat)
        assert not lad2.converged


class TestGridRefinement:
    def test_discretization_error_decreases(self):
        # one continuum path viewed at N = 129 / 257 / 513 (nested grids)
        p = ModelParams(N=513, d=2, seed=0)
        cov = GridCovariance(p)
        vals = sample_fbm_batch(p, 5, cov=cov)
        g513 = cov.grid
        g257 = TimeGrid(g513.points[::2])
        g129 = TimeGrid(g513.points[::4])
        eps = 0.05
        for s in range(5):
            fine = silt_raw(SimpleNamespace(values=vals[s], grid=g513), eps)
            mid = silt_raw(SimpleNamespace(values=vals[s][::2], grid=g257), eps)
            coarse = silt_raw(SimpleNamespace(values=vals[s][::4], grid=g129), eps)
            assert abs(fine - mid) < abs(mid - coarse)
