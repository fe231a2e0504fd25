"""Property tests over (H, d, N): replica reproducibility on both sampler
routes, single-path against batch SILT, the shifted SILT family against
the batch kernel on shifted paths, the chain's Gram kernel against the
enumerated pairs, the covariance solve by its backward error and against
scipy's cho_solve, exact centering of the grid expectation, and the cocycle
of the Cameron-Martin log density."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from edwardsim import (
    GridCovariance,
    ModelParams,
    log_gaussian_rn_density,
    make_grid,
    make_shift_from_target,
    sample_fbm_batch,
    silt_expectation_grid,
    silt_raw,
    silt_raw_batch,
    silt_raw_shifted,
)
from edwardsim.mala import _Target, _full
from pair_reference import pair_cache, pair_silt_and_grad

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100)
MODELS = st.builds(
    ModelParams,
    H=st.floats(0.05, 0.95),
    d=st.integers(1, 3),
    N=st.integers(3, 64),
    seed=st.integers(0, 2**16),
)
MODELS_FROM_2 = st.builds(
    ModelParams,
    H=st.floats(0.05, 0.95),
    d=st.integers(1, 3),
    N=st.integers(2, 64),
    seed=st.integers(0, 2**16),
)
EPS = st.floats(1e-3, 1.0)


@PROPERTY
@given(
    p=MODELS,
    circulant=st.booleans(),
    m=st.integers(1, 600),
    bounds=st.tuples(st.integers(0, 600), st.integers(0, 600)),
)
def test_sub_batch_equals_rows_of_larger_batch(p, circulant, m, bounds):
    lo, hi = sorted(b % (m + 1) for b in bounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("edwardsim.fbm._CIRCULANT_MIN_N", 2 if circulant else p.N + 1)
        cov = GridCovariance(p)
        full = sample_fbm_batch(p, m, cov=cov)
        part = sample_fbm_batch(p, hi - lo, cov=cov, stream_offset=lo)
    assert np.array_equal(full[lo:hi], part)


@PROPERTY
@given(p=MODELS, m=st.integers(1, 20), row=st.integers(0, 19), eps=EPS)
def test_single_path_silt_equals_its_batch_row(p, m, row, eps):
    cov = GridCovariance(p)
    values = sample_fbm_batch(p, m, cov=cov)
    i = row % m
    batch = silt_raw_batch(values, cov.grid, [eps])[i, 0]
    single = silt_raw(SimpleNamespace(values=values[i], grid=cov.grid), eps)
    assert abs(single - batch) <= 1e-12 * abs(batch)


@PROPERTY
@given(
    p=MODELS_FROM_2,
    m=st.integers(1, 20),
    us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    still=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    eps=EPS,
)
def test_shifted_family_rows(p, m, us, still, eps):
    # N = 2 has no lag block, only the end correction; components flagged
    # in `still` do not move, so b and c skip them
    cov = GridCovariance(p)
    values = sample_fbm_batch(p, m, cov=cov)
    r = np.random.default_rng(p.seed)
    steps = r.standard_normal((p.N - 1, p.d)) / np.sqrt(p.N)
    k = np.vstack([np.zeros((1, p.d)), steps.cumsum(axis=0)])
    k[:, list(still[: p.d])] = 0.0
    us = [0.0, *us]
    out = silt_raw_shifted(values, cov.grid, k, us, [eps])[:, :, 0]
    assert np.array_equal(out[:, 0], silt_raw_batch(values, cov.grid, [eps])[:, 0])
    for i, u in enumerate(us):
        assert np.array_equal(out[:, i], silt_raw_shifted(values, cov.grid, k, [u], [eps])[:, 0, 0])
        ref = silt_raw_batch(values + u * k, cov.grid, [eps])[:, 0]
        assert np.all(np.abs(out[:, i] - ref) <= 1e-12 * np.abs(ref))


@PROPERTY
@given(p=MODELS_FROM_2, offset=st.sampled_from([0.0, 1e3]))
def test_gram_kernel_and_factor_solve(p, offset):
    # the offset is where |x_i|^2 + |x_j|^2 - 2 x_i . x_j would cancel
    # without the centering
    cov = GridCovariance(p)
    xr = cov.chol @ np.random.default_rng(p.seed).standard_normal((p.N - 1, p.d))
    x = _full(xr) + offset
    target = _Target(p, cov, 0.05)
    ref_raw, ref_grad = pair_silt_and_grad(x, cov.grid.spacing, 0.05)
    raw, grad = target.raw_and_grad(x)
    assert abs(raw / ref_raw - 1.0) < 1e-12
    assert abs(target.raw(x) / ref_raw - 1.0) < 1e-12
    assert np.max(np.abs(grad - ref_grad[1:])) <= 1e-10 * np.max(np.abs(ref_grad[1:]))
    k, _ = target._kernel(x)
    assert np.array_equal(k, k.T)
    assert np.all(np.diag(k) == 0.0)
    # the solve does not call potrs, so it is held to a scaled backward error
    # and to potrs (through cho_solve) within rounding, not to its bits
    sol = cov.solve(xr)
    chol = cov.chol
    scale = p.N * np.max(np.abs(chol)) ** 2 * np.max(np.abs(sol))
    assert np.max(np.abs(chol @ (chol.T @ sol) - xr)) <= 1e-13 * scale
    ref = scipy.linalg.cho_solve((chol, True), xr)
    assert np.max(np.abs(sol - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(p=MODELS, eps=EPS)
def test_grid_expectation_is_the_pair_sum(p, eps):
    # E exp(-|dX|^2 / 2 eps) (2 pi eps)^{-d/2} = (2 pi (eps + |t - s|^{2H}))^{-d/2}
    grid = make_grid(p)
    i_idx, j_idx, c = pair_cache(p.N)
    var = (grid.points[j_idx] - grid.points[i_idx]) ** (2.0 * p.H)
    ref = grid.spacing**2 * np.sum(c * (2.0 * np.pi * (eps + var)) ** (-0.5 * p.d))
    assert abs(silt_expectation_grid(p, grid, eps) - ref) <= 1e-12 * ref


# a shift times a path value below the smallest normal double rounds at the
# absolute step 2^-1074, which no relative bound covers: at u = v = 5e-324
# the two sides of the cocycle are u w^T x rounded to 0 or one step
SHIFT = st.floats(-3.0, 3.0, allow_subnormal=False)


@PROPERTY
@given(p=MODELS, u=SHIFT, v=SHIFT)
def test_log_density_cocycle(p, u, v):
    # log rho_{u+v}(x) = log rho_u(x - v k) + log rho_v(x)
    cov = GridCovariance(p)
    r = np.random.default_rng(p.seed)
    k = np.vstack([np.zeros((1, p.d)), r.standard_normal((p.N - 1, p.d))])
    shift = make_shift_from_target(p, k=k, cov=cov)
    x = np.vstack([np.zeros((1, p.d)), r.standard_normal((p.N - 1, p.d))])
    path = SimpleNamespace(values=x, params=p)
    moved = SimpleNamespace(values=x - v * shift.k, params=p)
    lhs = log_gaussian_rn_density(shift, u + v, path)
    rhs = log_gaussian_rn_density(shift, u, moved) + log_gaussian_rn_density(shift, v, path)
    size = abs(u) + abs(v)
    scale = size * (np.sum(np.abs(shift.w * x[1:])) + size * np.sum(np.abs(shift.w * shift.k[1:])))
    assert abs(lhs - rhs) <= 1e-12 * scale
