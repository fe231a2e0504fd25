"""The four benchmark workloads: their CLI ops and the checks on each op.

An op is one ``edwardsim`` subcommand invocation. A workload cycles
through its ops in a fixed rotation; op ``i`` of a run uses seed
``<workload seed> + i``. Every check reads what the op wrote and raises
``CheckError`` on a wrong output; checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from edwardsim import (
    FbmPath,
    GridCovariance,
    LadderConfig,
    ModelParams,
    load_checkpoint,
    sample_fbm_batch,
    silt_expectation_grid,
    silt_raw_batch,
)
from edwardsim.mala import ACCEPT_TARGET
from edwardsim.silt import silt_raw

NPROC = len(os.sched_getaffinity(0))
# defaults of the CLI model, restated so the checks can rebuild its inputs
H, D, G = 0.5, 2, 0.1
KERNEL_RTOL = 1e-12


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    """One subcommand with fixed flags, its work units and its check."""

    subcommand: str
    flags: tuple[str, ...]
    work: int  # paths through the ladder, base paths, or chain iterations
    check: Callable[["Context", Path, int], dict]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.subcommand, *self.flags, "--seed", str(seed), "--out", str(out)]

    def verify(self, ctx: "Context", out: Path, seed: int) -> dict:
        """Manifest and op-specific checks; returns what they measured."""
        size = check_manifest(out)
        return {**self.check(ctx, out, seed), "bytes": size}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # grid points of every op
    threads: int
    ops: tuple[Op, ...]
    work_unit: str
    # small versions of the ops (subcommand and flags) that a set-up probe
    # runs: the real op's set-up with a few paths or chain iterations
    probe: tuple[tuple[str, ...], ...]

    def probe_argvs(self, seed: int, out: Path) -> list[list[str]]:
        return [[*op, "--seed", str(seed), "--out", str(out)] for op in self.probe]


class Context:
    """Covariance factor shared by the checks of one run."""

    def __init__(self, workload: Workload):
        self.params = ModelParams(H=H, d=D, g=G, N=workload.n)
        self.cov = GridCovariance(self.params)

    def model(self, seed: int) -> ModelParams:
        return ModelParams(H=H, d=D, g=G, N=self.params.N, seed=seed)

    def path(self, seed: int, index: int) -> FbmPath:
        """Replica ``index`` of the batch an op drew with ``seed``."""
        values = sample_fbm_batch(self.model(seed), 1, cov=self.cov, stream_offset=index)
        return FbmPath(grid=self.cov.grid, values=values[0], cov=self.cov)


# ------------------------------------------------------------------ checks #


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _table(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def check_manifest(out: Path) -> int:
    """Every manifest checksum matches its file; returns bytes in ``out``."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    _require(bool(manifest["outputs"]), "manifest lists no outputs")
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        _require(actual == digest, f"sha256 of {name} does not match the manifest")
    return sum(f.stat().st_size for f in out.iterdir() if f.is_file())


def _check_kernel(path: FbmPath, index: int, eps, batch_raw) -> None:
    """Single-path silt_raw on a regenerated path against batch values."""
    for e, b in zip(eps, batch_raw):
        single = silt_raw(path, float(e))
        _require(
            abs(b - single) <= KERNEL_RTOL * abs(single),
            f"path {index} eps {e}: batch {b!r} vs single-path {single!r}",
        )


def check_ensemble(ctx: Context, out: Path, seed: int) -> dict:
    rows = _table(out / "edwards_weights.csv")
    lc, weight = rows[:, 1], rows[:, 2]
    _require(np.array_equal(weight, np.exp(-G * lc)), "weight != exp(-g lc)")
    summary = json.loads((out / "edwards_summary.json").read_text(encoding="utf-8"))
    paths = summary["paths"]
    _require(paths == rows.shape[0], "summary and weight table disagree on paths")
    _require(0.0 < summary["ess"] <= paths, f"ess {summary['ess']} outside (0, {paths}]")
    eps = LadderConfig().epsilons
    expect = silt_expectation_grid(ctx.params, ctx.cov.grid, eps[-1])
    for index in (0, paths - 1):
        path = ctx.path(seed, index)
        batch = silt_raw_batch(path.values[None], ctx.cov.grid, eps)[0]
        _check_kernel(path, index, eps, batch)
        _require(
            abs(lc[index] - (batch[-1] - expect)) <= KERNEL_RTOL * abs(batch[-1]),
            f"path {index}: written lc differs from the regenerated path",
        )
    return {"ess_fraction": summary["ess"] / paths}


def check_density_scan(ctx: Context, out: Path, seed: int) -> dict:
    rows = _table(out / "density_scan.csv")
    _require(rows.shape[0] == 21, f"{rows.shape[0]} u values, expected 21")
    _require(rows[0, 0] == 0.0 and rows[0, 1] == 1.0 and rows[0, 2] == 1.0,
             "density at u = 0 is not exactly 1")
    _require(bool(np.all(np.isfinite(rows))), "non-finite density")
    return {}


def check_holder(ctx: Context, out: Path, seed: int) -> dict:
    report = _table(out / "holder_report.csv")
    _require(report.shape[0] == 2, "expected one slope per holder eps")
    _require(bool(np.all(np.isfinite(report[:, 1:3]))), "non-finite Holder slope")
    _require(bool(np.all(np.isfinite(_table(out / "holder_pairs.csv")))),
             "non-finite squared difference")
    return {}


CHAIN_ITERATIONS, CHAIN_BURN_IN = 4000, 1000


def check_chain(ctx: Context, out: Path, seed: int) -> dict:
    trace = _table(out / "mala_trace.csv")
    expected = CHAIN_ITERATIONS - CHAIN_BURN_IN
    _require(trace.shape[0] == expected, f"{trace.shape[0]} samples, expected {expected}")
    _require(bool(np.all(np.isfinite(trace))), "non-finite chain trace")
    summary = json.loads((out / "mala_summary.json").read_text(encoding="utf-8"))
    _require(summary["samples"] == expected, "summary sample count is wrong")
    acc = summary["acceptance"]
    _require(0.1 <= acc <= 0.9, f"acceptance {acc} outside the warning band [0.1, 0.9]")
    state = load_checkpoint(out / "mala_checkpoint.npz")
    _require(state.iteration == CHAIN_ITERATIONS, "checkpoint iteration is wrong")
    _require(state.xr.shape == (ctx.params.N - 1, D) and bool(np.all(np.isfinite(state.xr))),
             "checkpoint state is malformed")
    lc = trace[:, 1]
    return {
        "accept_gap": abs(acc - ACCEPT_TARGET),
        "step": summary["step"],
        "lc_sq_jumps": float(np.sum(np.diff(lc) ** 2)),
        "lc_iat": sokal_iat(lc),
    }


def check_large_silt(ctx: Context, out: Path, seed: int) -> dict:
    rows = _table(out / "silt.csv")
    eps = LadderConfig(levels=4).epsilons
    _require(rows.shape[0] == 4 * eps.size, "silt table has the wrong row count")
    raw, expect, centered = rows[:, 2], rows[:, 3], rows[:, 4]
    _require(np.array_equal(centered, raw - expect), "centered != raw - expectation")
    grid_expect = np.array([silt_expectation_grid(ctx.params, ctx.cov.grid, e) for e in eps])
    _require(np.array_equal(expect, np.tile(grid_expect, 4)),
             "expectation != silt_expectation_grid")
    # the smallest rung of the first and last path only: one N=4096
    # single-path call costs ~0.5 s
    k = eps.size - 1
    for index in (0, 3):
        path = ctx.path(seed, index)
        _check_kernel(path, index, eps[k:], [raw[index * eps.size + k]])
    return {}


def sokal_iat(x: np.ndarray, c: float = 5.0) -> float:
    """Integrated autocorrelation time with Sokal's automatic window:
    tau(M) = 1 + 2 sum_{t<=M} rho_t at the first M >= c tau(M)."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = x.size
    f = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n]
    rho = acf / acf[0]
    tau = 2.0 * np.cumsum(rho) - 1.0
    window = np.arange(n) >= c * tau
    m = int(np.argmax(window)) if window.any() else n - 1
    return float(tau[m])


# --------------------------------------------------------------- workloads #

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble",
            n=256,
            threads=NPROC,
            ops=(
                Op("edwards-estimate", ("--paths", "1000", "--threads", str(NPROC)),
                   1000, check_ensemble),
            ),
            work_unit="paths",
            probe=(("edwards-estimate", "--paths", "8", "--threads", str(NPROC)),),
        ),
        Workload(
            name="shift-scan",
            n=256,
            threads=1,
            ops=(
                Op("density-scan", ("--paths", "64", "--threads", "1"), 64, check_density_scan),
                Op("holder-check", ("--paths", "256", "--shift", "sine", "--threads", "1"),
                   256, check_holder),
            ),
            work_unit="base paths",
            probe=(
                ("density-scan", "--paths", "2", "--threads", "1"),
                ("holder-check", "--paths", "2", "--shift", "sine", "--threads", "1"),
            ),
        ),
        Workload(
            name="chain",
            n=256,
            threads=1,
            ops=(
                Op("quantize-run",
                   ("--iterations", str(CHAIN_ITERATIONS), "--burn-in", str(CHAIN_BURN_IN),
                    "--thin", "1", "--threads", "1"),
                   CHAIN_ITERATIONS, check_chain),
            ),
            work_unit="chain iterations",
            probe=(("quantize-run", "--iterations", "40", "--burn-in", "20", "--thin", "1",
                    "--threads", "1"),),
        ),
        Workload(
            name="large-grid",
            n=4096,
            threads=1,
            ops=(
                Op("silt", ("--n", "4096", "--paths", "4", "--levels", "4", "--threads", "1"),
                   4, check_large_silt),
            ),
            work_unit="paths",
            probe=(("silt", "--n", "4096", "--paths", "1", "--levels", "4", "--threads", "1"),),
        ),
    )
}
