"""Path-space MALA for the reweighted measure, with checkpoint resume.

The chain proposes Langevin moves preconditioned by the path covariance,
so one step size works across grid resolutions. Invariance is checked
against the importance-sampling estimate of the same observable.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np

from edwardsim import (
    GridCovariance,
    LadderConfig,
    ModelParams,
    batch_means_stderr,
    edwards_ensemble,
    load_checkpoint,
    run_mala,
    save_checkpoint,
)

params = ModelParams(H=0.5, d=2, T=1.0, N=128, g=0.3, seed=5)
cov = GridCovariance(params)
eps = 0.0125

res = run_mala(params, eps=eps, n_iter=12000, burn_in=2000, cov=cov, thin=10)
lc = res.traces["lc"]
print(f"acceptance {res.acceptance_rate:.3f} (target 0.574), adapted step {res.step:.3f}")
print(f"recorded {lc.size} samples of {sorted(res.traces)}")
print(f"chain E[L_c] = {lc.mean():+.4f} (batch-means se {batch_means_stderr(lc):.4f})")

# reference for the same observable from independent reweighted draws
ens = edwards_ensemble(params, 4000, LadderConfig(eps0=0.1, levels=4), cov=cov)
ref, ref_se = ens.expectation(ens.lc)
z = (lc.mean() - ref) / np.hypot(batch_means_stderr(lc), ref_se)
print(f"importance reference {ref:+.4f} (se {ref_se:.4f}), z = {z:+.2f}")

# interrupting and resuming reproduces the uninterrupted chain exactly:
# the checkpoint carries the path, the step, the iteration and the seed,
# and every step draws from a stream keyed by (seed, step)
with tempfile.TemporaryDirectory() as tmp:
    ck = Path(tmp) / "chain.npz"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first = run_mala(params, eps=eps, n_iter=3000, burn_in=1000, cov=cov, thin=10)
        save_checkpoint(ck, first.state)
        second = run_mala(
            params, eps=eps, n_iter=2000, burn_in=0, cov=cov, thin=10,
            resume=load_checkpoint(ck),
        )
        full = run_mala(params, eps=eps, n_iter=5000, burn_in=1000, cov=cov, thin=10)
    joined = np.concatenate([first.traces["lc"], second.traces["lc"]])
    print(f"\nresume check: {ck.name} written at iteration {first.state.iteration}")
    print("concatenated traces equal the uninterrupted run:",
          np.array_equal(joined, full.traces["lc"]))

# a too-large fixed step collapses the acceptance rate and warns
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    run_mala(params, eps=eps, n_iter=300, burn_in=0, cov=cov, step=50.0)
print(f"\noversized step warns: {caught[0].message}")
