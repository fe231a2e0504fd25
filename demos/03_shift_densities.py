"""Cameron-Martin shifts and the Gaussian change-of-measure density.

A shift direction k with finite energy leaves the path law quasi-invariant;
the density of the shifted law is log-affine in the path. The script builds
shifts three ways, checks the algebra, and verifies E[density] = 1 by
Monte Carlo.
"""

import numpy as np

from edwardsim import (
    GridCovariance,
    ModelParams,
    ShiftedPath,
    builtin_shift,
    gaussian_rn_density,
    log_gaussian_rn_density,
    make_shift_from_h,
    make_shift_from_target,
    sample_fbm,
    sample_fbm_batch,
    stream,
)

params = ModelParams(H=0.5, d=2, T=1.0, N=256, seed=11)
cov = GridCovariance(params)

# named shifts on the grid of cov: linear and sine targets are solved
# through the covariance; covcol:j has the unit weight vector e_j itself
for name in ("linear", "sine", "covcol:64"):
    sh = builtin_shift(name, params, cov=cov)
    print(f"{name:<9} energy {sh.energy:.6f}")

# a custom target: reach (1, -1) smoothly by time T
target = np.stack([cov.grid.points, -cov.grid.points], axis=1) ** 2
custom = make_shift_from_target(params, k=target, cov=cov)
custom.check()
print(f"custom    energy {custom.energy:.6f}")

# for H > 1/2 a density h in L2 generates a shift through the kernel;
# the shift energy equals the L2 norm of h (isometry)
p7 = ModelParams(H=0.7, d=1, T=1.0, N=128, seed=11)
cov7 = GridCovariance(p7)
sh7 = make_shift_from_h(p7, h=np.ones(128), cov=cov7)
print(f"\nkernel shift from h==1 at H=0.7: energy {sh7.energy:.6f} (L2 norm of h is 1)")

shift = builtin_shift("sine", params, cov=cov)
path = sample_fbm(params, rng=stream(params.seed, 0), cov=cov)

# the density composes under consecutive shifts (cocycle identity)
u, v = 0.6, -0.3
lhs = gaussian_rn_density(shift, u + v, path)
moved = ShiftedPath(base=path, shift=shift, u=-u)
rhs = gaussian_rn_density(shift, u, path) * gaussian_rn_density(shift, v, moved)
print(f"\ncocycle: d_(u+v) = {lhs:.8f}  d_u * d_v(shifted) = {rhs:.8f}")
print(f"log density at u=1: {log_gaussian_rn_density(shift, 1.0, path):+.6f}")

# normalization: the density integrates to 1 under the path law
m = 20000
vals = sample_fbm_batch(params, m, cov=cov)
x = vals[:, 1:, :]
for u in (0.5, 1.0):
    log_rn = u * np.tensordot(x, shift.w, axes=([1, 2], [0, 1])) - 0.5 * u * u * shift.energy
    rn = np.exp(log_rn)
    se = rn.std(ddof=1) / np.sqrt(m)
    print(f"u={u}: E[density] = {rn.mean():.4f} (se {se:.4f})")
