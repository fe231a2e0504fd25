"""Draw fractional Brownian paths on a grid and round-trip them to disk.

Shows the two sampling routes, which the grid size picks (a dense Cholesky
factor on small grids, circulant embedding with no factor on large ones),
counter-based reproducibility, and the CSV / packed-binary path formats.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from edwardsim import (
    GridCovariance,
    ModelParams,
    cov_h,
    read_path_binary,
    read_path_csv,
    sample_fbm,
    sample_fbm_batch,
    stream,
    write_path_binary,
    write_path_csv,
)

params = ModelParams(H=0.5, d=2, T=1.0, N=128, seed=42)
cov = GridCovariance(params)
print(f"model: H={params.H} d={params.d} T={params.T} N={params.N}")
print(f"covariance factor residual: {cov.factor_residual():.2e}")

# one path per replica stream; stream (seed, i) never collides with (seed, j)
path = sample_fbm(params, rng=stream(params.seed, 0), cov=cov)
again = sample_fbm(params, rng=stream(params.seed, 0), cov=cov)
print("resampling the same stream is bit-identical:", np.array_equal(path.values, again.values))

# batch sampling chunks replicas but each replica keeps its own stream,
# so a sub-batch starting at offset 2 reproduces rows 2..4 exactly
batch = sample_fbm_batch(params, 5, cov=cov)
sub = sample_fbm_batch(params, 3, cov=cov, stream_offset=2)
print("sub-batch equals rows of full batch:", np.array_equal(batch[2:], sub))

# empirical vs analytic covariance at a pair of grid times
m = 4000
vals = sample_fbm_batch(params, m, cov=cov)
i, j = 32, 96
t, s = cov.grid.points[i], cov.grid.points[j]
emp = np.mean(vals[:, i, :] * vals[:, j, :])
exact = cov_h(params.H, t, s)
print(f"cov({t:.3f},{s:.3f}): empirical {emp:.4f}  analytic {exact:.4f}")

# a large grid takes circulant embedding: the same law, and the covariance
# and its O(N^3) factor are never built
big = ModelParams(H=0.5, d=2, T=1.0, N=4096, seed=42)
big_cov = GridCovariance(big)
start = time.perf_counter()
dh = sample_fbm_batch(big, 500, cov=big_cov)
print(f"N={big.N}: 500 circulant paths in {time.perf_counter() - start:.2f} s, "
      f"covariance built: {'sigma' in vars(big_cov)}")
print(f"endpoint variance: N={params.N} cholesky {np.var(vals[:, -1, 0]):.4f}  "
      f"N={big.N} circulant {np.var(dh[:, -1, 0]):.4f}  exact {cov_h(params.H, 1.0, 1.0):.4f}")

with tempfile.TemporaryDirectory() as tmp:
    csv = Path(tmp) / "path.csv"
    bin_ = Path(tmp) / "path.fbmp"
    write_path_csv(csv, path)
    write_path_binary(bin_, path)
    back_csv = read_path_csv(csv, params)
    back_bin = read_path_binary(bin_, params)
    print("CSV round-trip exact:", np.array_equal(back_csv.values, path.values))
    print("binary round-trip exact:", np.array_equal(back_bin.values, path.values))
    print(f"file sizes: csv {csv.stat().st_size} B, binary {bin_.stat().st_size} B")
