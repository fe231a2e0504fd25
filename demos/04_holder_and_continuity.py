"""L2 regularity of the centered local time along shift directions.

Two views of the same smoothness: the log-log slope of the squared L2
difference E[(L(x + u k) - L(x))^2] against u, and the decay of adjacent
jumps of the density process when the u grid is refined.
"""

import numpy as np

from edwardsim import (
    GridCovariance,
    ModelParams,
    builtin_shift,
    continuity_scan,
    holder_verify,
    l2_difference_silt,
    sample_fbm_batch,
)

params = ModelParams(H=0.5, d=2, T=1.0, N=128, g=0.1, seed=3)
cov = GridCovariance(params)
shift = builtin_shift("sine", params, cov=cov)

# one cell of the estimate by hand: common random numbers, u = 0.3 vs v = 0;
# the paths are drawn with the covariance the shift carries
est, se = l2_difference_silt(params, shift, 0.02, 0.3, 0.0, 512)
print(f"E[(L(x+0.3k) - L(x))^2] at eps=0.02: {est:.6f} (se {se:.6f})")

# the full report fits the slope across a delta schedule for each eps
report = holder_verify(
    params,
    shift,
    epsilons=[0.05, 0.02, 0.01],
    deltas=np.geomspace(0.05, 0.8, 6),
    m=1000,
)
print(f"\ntarget exponent: {report.target_exponent}")
for eps, slope, sse in zip(report.epsilons, report.slopes, report.slope_stderrs):
    print(f"eps={eps:<5} slope {slope:.3f} +/- {sse:.3f}")
lo, hi = report.slope_ci95
print(f"smallest eps: slope {report.slope:.3f}, 95% CI [{lo:.3f}, {hi:.3f}]")

# continuity in u: refine the u grid and watch the worst adjacent jump
# of the density process shrink proportionally (a jump would not shrink)
vals = sample_fbm_batch(params, 100, cov=cov)
coarse = continuity_scan(shift, np.linspace(0, 1, 11), vals, 0.02, g=params.g)
fine = continuity_scan(shift, np.linspace(0, 1, 21), vals, 0.02, g=params.g)
print(f"\nq95 adjacent jump, step 0.1 : {coarse.q95:.5f}")
print(f"q95 adjacent jump, step 0.05: {fine.q95:.5f}")
print(f"ratio {fine.q95 / coarse.q95:.3f} (smooth scaling floor is 0.5)")
