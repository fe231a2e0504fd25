import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from edwardsim import (
    GridCovariance,
    ModelParams,
    batch_means_stderr,
    build_covariance,
    load_checkpoint,
    run_mala,
    save_checkpoint,
    silt_raw,
    silt_raw_batch,
    sokal_iat,
)
from edwardsim.mala import IAT_MIN, _Target, _full, _make_state, _propose
from pair_reference import pair_silt_and_grad


@pytest.fixture(scope="module")
def chain_setup():
    p = ModelParams(H=0.5, d=2, T=1.0, g=0.1, N=32, seed=0)
    return p, GridCovariance(p)


def _random_free_coords(cov, rng):
    return cov.chol @ rng.standard_normal((cov.grid.n - 1, cov.params.d))


class TestTarget:
    def test_raw_matches_silt(self, chain_setup, rng):
        p, cov = chain_setup
        target = _Target(p, cov, 0.05)
        for _ in range(5):
            xr = _random_free_coords(cov, rng)
            x = _full(xr)
            path = SimpleNamespace(values=x, grid=cov.grid)
            assert abs(target.raw(x) / silt_raw(path, 0.05) - 1.0) < 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("eps", [0.02, 0.00625])
    def test_raw_matches_silt_at_benchmark_scale(self, eps, offset):
        # the chain config (N = 256, d = 2, eps 0.02) and the desk grid's eps
        p = ModelParams(H=0.5, d=2, T=1.0, g=0.1, N=256, seed=0)
        cov = GridCovariance(p)
        target = _Target(p, cov, eps)
        rng = np.random.default_rng(256)
        xs = np.stack([_full(_random_free_coords(cov, rng)) for _ in range(3)]) + offset
        batch = silt_raw_batch(xs, cov.grid, [eps])[:, 0]
        for x, ref in zip(xs, batch):
            assert abs(target.raw(x) / ref - 1.0) < 1e-12
            assert abs(target.raw_and_grad(x)[0] / ref - 1.0) < 1e-12

    def test_gradient_survives_later_calls(self, chain_setup, rng):
        # the chain keeps the current state's gradient while it evaluates
        # the proposal, so no returned gradient may alias a reused buffer
        p, cov = chain_setup
        target = _Target(p, cov, 0.05)
        x1 = _full(_random_free_coords(cov, rng))
        x2 = _full(_random_free_coords(cov, rng))
        _, grad1 = target.raw_and_grad(x1)
        kept = grad1.copy()
        target.raw_and_grad(x2)
        target.raw(x2)
        assert np.array_equal(grad1, kept)
        assert np.array_equal(grad1, _Target(p, cov, 0.05).raw_and_grad(x1)[1])

    def test_rejects_bad_eps(self, chain_setup):
        p, cov = chain_setup
        with pytest.raises(ValueError, match="eps"):
            _Target(p, cov, 0.0)

    def test_silt_gradient_against_finite_differences(self, chain_setup, rng):
        p, cov = chain_setup
        target = _Target(p, cov, 0.05)
        delta = 1e-6
        for _ in range(20):
            xr = _random_free_coords(cov, rng)
            _, grad = target.raw_and_grad(_full(xr))
            v = rng.standard_normal(xr.shape)
            v /= np.linalg.norm(v)
            analytic = float(np.sum(grad * v))
            fd = (
                target.raw(_full(xr + delta * v)) - target.raw(_full(xr - delta * v))
            ) / (2.0 * delta)
            assert abs(analytic - fd) / max(abs(analytic), 1e-10) < 1e-5

    def test_silt_gradient_per_coordinate(self, rng):
        # single coordinates, where a wrong small entry cannot hide in a
        # directional sum
        p = ModelParams(H=0.5, d=2, N=32, g=0.2, seed=23)
        cov = GridCovariance(p)
        target = _Target(p, cov, 0.05)
        xr = _random_free_coords(cov, rng)
        _, grad = target.raw_and_grad(_full(xr))
        delta = 1e-6
        for i in range(0, p.N - 1, 3):
            for c in range(p.d):
                e = np.zeros_like(xr)
                e[i, c] = delta
                fd = (target.raw(_full(xr + e)) - target.raw(_full(xr - e))) / (2.0 * delta)
                assert abs(fd - grad[i, c]) / max(abs(fd), 1e-12) < 1e-4

    def test_log_target_gradient_against_finite_differences(
        self, chain_setup, rng
    ):
        # grad log pi in the whitened coordinates z, where x[1:] = L z
        p, cov = chain_setup
        target = _Target(p, cov, 0.05)
        delta = 1e-5
        for _ in range(20):
            z = rng.standard_normal((cov.grid.n - 1, p.d))
            st = _make_state(target, z)
            v = rng.standard_normal(z.shape)
            v /= np.linalg.norm(v)
            analytic = float(np.sum(st.glog * v))
            up = _make_state(target, z + delta * v).logpi
            dn = _make_state(target, z - delta * v).logpi
            fd = (up - dn) / (2.0 * delta)
            assert abs(analytic - fd) / max(abs(analytic), 1e-10) < 1e-5

    def test_state_identities(self, chain_setup, rng):
        # the whitened state is the x-space state seen through x[1:] = L z:
        # grad_z log pi = L^T grad_x log pi, with grad_x from an explicit solve
        p, cov = chain_setup
        target = _Target(p, cov, 0.05)
        z = rng.standard_normal((cov.grid.n - 1, p.d))
        st = _make_state(target, z)
        xr = cov.chol @ z
        raw, graw = target.raw_and_grad(_full(xr))
        assert st.raw == raw
        assert st.logpi == -0.5 * float(np.vdot(z, z)) - p.g * raw
        glog_x = -cov.solve(xr) - p.g * graw
        assert np.allclose(st.glog, cov.chol.T @ glog_x, rtol=1e-10, atol=1e-12)

    def test_gaussian_fast_path(self, rng):
        p = ModelParams(H=0.5, d=2, N=32, g=0.0, seed=0)
        cov = GridCovariance(p)
        target = _Target(p, cov, 0.05)
        z = rng.standard_normal((cov.grid.n - 1, p.d))
        st = _make_state(target, z)
        assert st.raw is None
        assert np.array_equal(st.glog, -z)
        assert st.logpi == -0.5 * float(np.vdot(z, z))


def _x_space_terms(target, xr):
    """log pi in the path coordinates x[1:] and what the x-space accept
    ratio reuses, each from an explicit solve against Sigma."""
    cov, g = target.cov, target.params.g
    prec = cov.solve(xr)
    raw, graw = target.raw_and_grad(_full(xr))
    return SimpleNamespace(
        xr=xr,
        prec=prec,
        glog=-prec - g * graw,
        drift=-xr - g * (cov.sigma @ graw),
        logpi=-0.5 * float(np.sum(xr * prec)) - g * raw,
    )


def _x_space_step(target, xr, s, xi):
    """Reference: the Sigma-preconditioned Langevin step in x,
    y = x + (s^2 / 2) Sigma grad log pi(x) + s L xi, and its log
    Metropolis-Hastings ratio with Sigma^{-1}-weighted residuals."""
    half = 0.5 * s * s
    cur = _x_space_terms(target, xr)
    prop = _x_space_terms(target, xr + half * cur.drift + s * (target.cov.chol @ xi))

    def log_q(frm, to):
        r = to.xr - (frm.xr + half * frm.drift)
        prec_r = to.prec - frm.prec - half * frm.glog
        return -0.5 / (s * s) * float(np.sum(r * prec_r))

    log_alpha = prop.logpi - cur.logpi + log_q(prop, cur) - log_q(cur, prop)
    return cur, prop, log_alpha


class TestWhitenedStep:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [32, 256])
    @pytest.mark.parametrize("g", [0.0, 0.1, 5.0])
    def test_log_alpha_matches_x_space_chain(self, g, n, d):
        # the step in z is the x-space step written in x[1:] = L z: the same
        # proposal and the same log alpha, up to rounding of size |log pi|
        p = ModelParams(H=0.5, d=d, N=n, g=g, seed=1)
        cov = GridCovariance(p)
        target = _Target(p, cov, 0.05)
        rng = np.random.default_rng(1000 * n + 10 * d + int(10 * g))
        for _ in range(5):
            z = rng.standard_normal((n - 1, d))
            xi = rng.standard_normal((n - 1, d))
            s = float(rng.uniform(0.05, 1.5))
            prop, log_alpha = _propose(target, _make_state(target, z), s, xi)
            cur_x, prop_x, ref = _x_space_step(target, cov.chol @ z, s, xi)
            tol = 1e-12 * (abs(cur_x.logpi) + abs(prop_x.logpi))
            assert abs(log_alpha - ref) <= tol
            assert abs(prop.logpi - prop_x.logpi) <= tol
            xr = cov.chol @ prop.z
            assert np.max(np.abs(xr - prop_x.xr)) <= 1e-12 * np.max(np.abs(prop_x.xr))


class TestGramKernel:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, H",
        [pytest.param(n, 0.5, id=str(n)) for n in (2, 3, 32, 255, 256)]
        + [pytest.param(n, H, id=f"{n}-H{H}") for n in (32, 256) for H in (0.05, 0.95)],
    )
    def test_matches_enumerated_pairs(self, n, H, d):
        # a constant offset is where |x_i|^2 + |x_j|^2 - 2 x_i . x_j would
        # cancel without the centering
        p = ModelParams(H=H, d=d, N=n, g=0.1, seed=n)
        cov = GridCovariance(p)
        target = _Target(p, cov, 0.05)
        x = _full(_random_free_coords(cov, np.random.default_rng(10 * n + d)))
        for offset in (0.0, 1e3):
            y = x + offset
            ref_raw, ref_grad = pair_silt_and_grad(y, cov.grid.spacing, 0.05)
            raw, grad = target.raw_and_grad(y)
            assert abs(raw / ref_raw - 1.0) < 1e-12
            assert abs(target.raw(y) / ref_raw - 1.0) < 1e-12
            ref_grad = ref_grad[1:]
            assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize(
        "n, d",
        [(3, 1), (64, 2), (255, 3), (256, 2), (257, 2), (1024, 2), (256, 1)]
        # sizes off the BLAS tile widths, where a BLAS product's edge tiles
        # round an entry and its mirror differently
        + [(n, d) for n in (5, 13, 127, 129, 383, 513) for d in (1, 2, 3)]
        + [(n, d) for n in (1000, 1023, 1025) for d in (1, 2, 3, 4)]
        + [(n, 4) for n in (3, 64, 129, 256, 513)],
    )
    def test_kernel_is_bit_symmetric(self, n, d):
        # the einsum must add K_ij's and K_ji's terms in one order, norm rows
        # first; at eps = 1e-4 the norms |y|^2 run into the thousands
        p = ModelParams(H=0.5, d=d, N=n, g=0.1, seed=1)
        cov = GridCovariance(p)
        x = _full(_random_free_coords(cov, np.random.default_rng(n)))
        for eps in (0.05, 1e-4):
            target = _Target(p, cov, eps)
            for offset in (0.0, 1e3):
                k, _ = target._kernel(x + offset)
                assert np.array_equal(k, k.T)
                assert np.all(np.diag(k) == 0.0)


class TestRunMala:
    def test_trace_shapes_and_determinism(self, chain_setup):
        p, cov = chain_setup
        kwargs = dict(
            eps=0.05, n_iter=800, burn_in=200, cov=cov, step=0.5, thin=20
        )
        a = run_mala(p, **kwargs)
        b = run_mala(p, **kwargs)
        n_rec = (800 - 200) // 20
        assert a.traces["lc"].shape == (n_rec,)
        assert a.traces["coord"].shape == (n_rec, 2)
        assert a.traces["logpi"].shape == (n_rec,)
        assert 0.0 < a.acceptance_rate <= 1.0
        for key in ("lc", "coord", "logpi"):
            assert np.array_equal(a.traces[key], b.traces[key])
        assert np.array_equal(a.state.xr, b.state.xr)

    def test_zero_coupling_chain(self, chain_setup):
        p, cov = chain_setup
        p0 = ModelParams(H=0.5, d=2, N=32, g=0.0, seed=1)
        res = run_mala(p0, eps=0.05, n_iter=1500, burn_in=500, cov=cov, step=0.8)
        assert np.all(np.isfinite(res.traces["lc"]))
        assert res.traces["lc"].size == 50

    def test_vanishing_step_accepts_everything(self, chain_setup):
        p, cov = chain_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_mala(
                p,
                eps=0.05,
                n_iter=400,
                burn_in=0,
                cov=cov,
                step=1e-6,
            )
        assert res.acceptance_rate >= 0.99

    def test_acceptance_warning_when_step_is_huge(self, chain_setup):
        p, cov = chain_setup
        with pytest.warns(RuntimeWarning, match="acceptance rate"):
            run_mala(
                p,
                eps=0.05,
                n_iter=300,
                burn_in=0,
                cov=cov,
                step=80.0,
            )

    def test_validation(self, chain_setup):
        p, cov = chain_setup
        with pytest.raises(ValueError, match="n_iter"):
            run_mala(p, eps=0.05, n_iter=0, burn_in=0, cov=cov)

    def test_rejects_chain_that_records_nothing(self, chain_setup):
        p, cov = chain_setup
        with pytest.raises(ValueError, match="records no sample"):
            run_mala(p, eps=0.05, n_iter=100, burn_in=200, cov=cov)
        with pytest.raises(ValueError, match="records no sample"):
            run_mala(p, eps=0.05, n_iter=100, burn_in=0, cov=cov, thin=101)

    def test_resume_counts_samples_without_burn_in(self, chain_setup):
        # a resume skips burn-in, so a burn-in longer than the run is fine
        # there and the sample count is checked after it is zeroed
        p, cov = chain_setup
        first = run_mala(p, eps=0.05, n_iter=200, burn_in=100, cov=cov, step=0.5, thin=20)
        second = run_mala(
            p, eps=0.05, n_iter=100, burn_in=200, cov=cov, thin=20, resume=first.state
        )
        assert second.burn_in == 0 and second.traces["lc"].size == 5
        with pytest.raises(ValueError, match="records no sample"):
            run_mala(p, eps=0.05, n_iter=10, burn_in=0, cov=cov, thin=20, resume=first.state)

    def test_gaussian_marginal_moments(self):
        # g = 0 target is the exact path law: the recorded coordinate has
        # mean 0 and variance t^{2H} up to Monte Carlo error
        p = ModelParams(H=0.5, d=2, N=32, g=0.0, seed=3)
        cov = GridCovariance(p)
        res = run_mala(
            p, eps=0.05, n_iter=24_000, burn_in=4_000, cov=cov, step=0.8, thin=10
        )
        x = res.traces["coord"][:, 0]
        t_mid = cov.grid.points[16]
        assert abs(x.mean()) <= 5.0 * batch_means_stderr(x)
        sq = x * x
        assert abs(sq.mean() - t_mid) <= 5.0 * batch_means_stderr(sq)


class TestCheckpoint:
    def test_resume_reproduces_uninterrupted_chain(self, chain_setup, tmp_path):
        p, cov = chain_setup
        kwargs = dict(eps=0.05, cov=cov, step=0.5, thin=20)
        full = run_mala(p, n_iter=1000, burn_in=200, **kwargs)
        first = run_mala(p, n_iter=600, burn_in=200, **kwargs)
        ck = tmp_path / "chain.npz"
        save_checkpoint(ck, first.state)
        state = load_checkpoint(ck)
        second = run_mala(p, n_iter=400, burn_in=0, resume=state, **kwargs)
        assert second.burn_in == 0
        for key in ("lc", "logpi"):
            joined = np.concatenate([first.traces[key], second.traces[key]])
            assert np.array_equal(joined, full.traces[key])
        joined_coord = np.vstack([first.traces["coord"], second.traces["coord"]])
        assert np.array_equal(joined_coord, full.traces["coord"])
        assert np.array_equal(second.state.xr, full.state.xr)
        assert np.array_equal(second.state.z, full.state.z)
        assert second.state.iteration == 1000

    def test_checkpoint_round_trip_fields(self, chain_setup, tmp_path):
        p, cov = chain_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_mala(p, eps=0.05, n_iter=100, burn_in=0, cov=cov, step=0.4)
        ck = tmp_path / "state.npz"
        save_checkpoint(ck, res.state)
        back = load_checkpoint(ck)
        assert np.array_equal(back.xr, res.state.xr)
        assert np.array_equal(back.z, res.state.z)
        assert np.allclose(back.xr, cov.chol @ back.z, rtol=0.0, atol=1e-13)
        assert back.step == res.state.step
        assert back.iteration == res.state.iteration == 100
        assert back.seed == res.state.seed == p.seed

    def test_checkpoint_holds_plain_arrays(self, chain_setup, tmp_path):
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=100, burn_in=50, cov=cov, step=0.8, thin=10)
        ck = tmp_path / "state.npz"
        save_checkpoint(ck, res.state)
        with np.load(ck) as f:
            assert set(f.files) == {"xr", "z", "step", "iteration", "seed"}
            assert all(f[k].dtype != object for k in f.files)

    def test_rejects_partial_checkpoint_naming_every_missing_field(self, tmp_path):
        ck = tmp_path / "partial.npz"
        np.savez(ck, z=np.zeros((3, 2)), seed=np.uint64(0), xr=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="checkpoint lacks step, iteration$"):
            load_checkpoint(ck)

    def test_rejects_foreign_checkpoint(self, tmp_path):
        ck = tmp_path / "bad.npz"
        np.savez(ck, paths=np.zeros((2, 3, 1)), weights=np.ones(2))
        with pytest.raises(ValueError, match="sampler"):
            load_checkpoint(ck)

    def test_rejects_checkpoint_without_seed(self, chain_setup, tmp_path):
        # the layout written before chain steps were keyed: a generator state, no seed
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=100, burn_in=50, cov=cov, step=0.8, thin=10)
        old = tmp_path / "old.npz"
        np.savez(
            old,
            xr=res.state.xr,
            z=res.state.z,
            step=np.float64(res.state.step),
            iteration=np.int64(res.state.iteration),
            rng_json=np.bytes_(b'{"bit_generator": "Philox"}'),
        )
        with pytest.raises(ValueError, match="no seed"):
            load_checkpoint(old)

    def test_rejects_resume_under_another_seed(self, chain_setup):
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=100, burn_in=50, cov=cov, step=0.8, thin=10)
        with pytest.raises(ValueError, match="seed 0, this chain has seed 7"):
            run_mala(replace(p, seed=7), eps=0.05, n_iter=100, burn_in=0, cov=cov,
                     thin=10, resume=res.state)

    def test_rejects_state_of_another_grid(self, chain_setup):
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=100, burn_in=50, cov=cov, step=0.8, thin=10)
        for other in (replace(p, d=3), replace(p, N=64)):
            with pytest.raises(ValueError, match="checkpoint state has shape"):
                run_mala(other, eps=0.05, n_iter=100, burn_in=0, thin=10, resume=res.state)

    def test_rejects_checkpoint_without_whitened_state(self, chain_setup, tmp_path):
        p, cov = chain_setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_mala(p, eps=0.05, n_iter=40, burn_in=0, cov=cov, thin=10)
        ck = tmp_path / "state.npz"
        save_checkpoint(ck, res.state)
        with np.load(ck) as f:
            fields = {k: f[k] for k in f.files if k != "z"}
        old = tmp_path / "old.npz"
        np.savez(old, **fields)
        with pytest.raises(ValueError, match="whitened coordinates z"):
            load_checkpoint(old)


class TestNoSolve:
    """The whitened chain never touches Sigma: no solve, no read of
    `cov.sigma`; at g = 0 the pair sum runs only for recorded samples."""

    @pytest.mark.parametrize("g", [0.0, 0.1])
    def test_fresh_and_resumed_chain(self, g, monkeypatch, tmp_path):
        p = ModelParams(H=0.5, d=2, N=32, g=g, seed=4)
        cov = GridCovariance(p)
        cov.chol  # the factor reads sigma once, before counting starts
        calls = dict.fromkeys(("solve", "sigma", "raw", "raw_and_grad"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GridCovariance, "solve", counted("solve", GridCovariance.solve))
        monkeypatch.setattr(
            GridCovariance,
            "sigma",
            property(counted("sigma", lambda self: build_covariance(self.params, self.grid))),
        )
        monkeypatch.setattr(_Target, "raw", counted("raw", _Target.raw))
        monkeypatch.setattr(_Target, "raw_and_grad", counted("raw_and_grad", _Target.raw_and_grad))

        kwargs = dict(eps=0.05, cov=cov, step=0.5, thin=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            first = run_mala(p, n_iter=400, burn_in=100, **kwargs)
            ck = tmp_path / "chain.npz"
            save_checkpoint(ck, first.state)
            counts = [dict(calls)]
            second = run_mala(p, n_iter=200, burn_in=0, resume=load_checkpoint(ck), **kwargs)
        counts.append({k: calls[k] - counts[0][k] for k in calls})
        for res, n_iter, count in zip((first, second), (400, 200), counts):
            assert count["solve"] == 0 and count["sigma"] == 0
            lc = res.traces["lc"]
            if g == 0.0:
                # one pair sum per recorded sample whose state is new
                assert count["raw_and_grad"] == 0
                assert count["raw"] == 1 + np.count_nonzero(np.diff(lc))
            else:
                # the starting state and one proposal per iteration
                assert count["raw"] == 0
                assert count["raw_and_grad"] == n_iter + 1


class TestBatchMeans:
    def test_iid_scale(self):
        x = np.random.default_rng(0).standard_normal(4096)
        se = batch_means_stderr(x)
        iid = 1.0 / np.sqrt(4096)
        assert 0.5 * iid < se < 2.0 * iid

    def test_too_short(self):
        with pytest.raises(ValueError, match="short"):
            batch_means_stderr(np.ones(3))

    def test_result_stderr_accessor(self, chain_setup):
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=600, burn_in=100, cov=cov, step=0.5, thin=5)
        assert res.stderr("lc") >= 0.0
        assert res.stderr("logpi") >= 0.0

    def test_coordinate_trace_is_rejected_by_name(self, chain_setup):
        # the (n, d) coordinate trace holds n d values; batch means of its
        # flat values would mix the components
        p, cov = chain_setup
        res = run_mala(p, eps=0.05, n_iter=100, burn_in=0, cov=cov, step=0.8, thin=1)
        assert res.traces["coord"].shape == (100, p.d)
        with pytest.raises(ValueError, match=r"1-D trace, got shape \(100, 2\)"):
            res.stderr("coord")


class TestSokalIat:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_ar1_trace(self, rho):
        # an AR(1) trace has integrated autocorrelation time (1 + rho) / (1 - rho)
        n = 2**18
        e = np.random.default_rng(5).standard_normal(n)
        x = np.empty(n)
        x[0] = e[0] / np.sqrt(1.0 - rho * rho)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + e[i]
        expected = (1.0 + rho) / (1.0 - rho)
        assert abs(sokal_iat(x) / expected - 1.0) < 0.1

    def test_rejects_degenerate_traces(self):
        with pytest.raises(ValueError, match="1-D trace"):
            sokal_iat(np.ones(1))
        with pytest.raises(ValueError, match="1-D trace"):
            sokal_iat(np.ones((10, 2)))
        # shorter than IAT_MIN: estimates there fell below the floor of 1
        with pytest.raises(ValueError, match=f"at least IAT_MIN = {IAT_MIN} samples"):
            sokal_iat(np.random.default_rng(1).standard_normal(IAT_MIN - 1))
        assert np.isfinite(sokal_iat(np.random.default_rng(1).standard_normal(IAT_MIN)))
        # constant traces, also ones whose mean does not round back to the value
        for trace in (np.ones(IAT_MIN), np.full(50, 0.1), np.full(300, 7.7)):
            with pytest.raises(ValueError, match="constant"):
                sokal_iat(trace)
