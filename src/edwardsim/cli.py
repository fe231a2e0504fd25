"""Command-line front end: orchestration and persistence.

Every run resolves a RunConfig (file plus flag overrides), writes its
outputs under <outdir>/<subcommand>/, copies the config next to them, and
finishes with manifest.json carrying a sha256 for every output file, so a
run can be diffed or reproduced by checksum alone.

Each subcommand is one _COMMANDS entry: its help, its handler and the
RunConfig fields it takes flags for beside _COMMON. A flag is --<INI key>
with "-" for "_" (--burn-in sets [mala] burn_in), except the _ALIASES.

Exit codes: 0 success, 1 config error, 2 numeric failure. The output
directory resolves, in order: EDWARDSIM_OUTDIR environment variable, --out
flag, config outdir.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import zipfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .cameron_martin import builtin_shift
from .config import _KEYS, _PARSERS, ConfigError, RunConfig, _read_file, config_hash, dump_config
from .edwards import edwards_ensemble
from .fbm import FbmPath, GridCovariance, sample_fbm_batch
from .mala import (
    BATCH_MEANS_MIN,
    IAT_MIN,
    ChainState,
    batch_means_stderr,
    load_checkpoint,
    run_mala,
    save_checkpoint,
    sokal_iat,
)
from .moments import continuity_scan, holder_verify
from .params import ModelParams
from .pathio import read_shift_csv, write_path_binary, write_path_csv
from .silt import LadderConfig, centered_ladder

OUTDIR_ENV = "EDWARDSIM_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_shift(name: str, params: ModelParams, cov: GridCovariance):
    """Built-in shift name or a CSV file path."""
    if name in ("linear", "sine") or name.startswith("covcol:"):
        return builtin_shift(name, params, cov=cov)
    p = Path(name)
    if p.suffix == ".csv" or p.exists():
        return read_shift_csv(p, params, cov=cov)
    raise ConfigError(
        f"unknown shift {name!r}; use linear, sine, covcol:<j>, or a CSV file"
    )


def _write_csv(path: Path, header: list[str], rows: np.ndarray, fmt) -> None:
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=",".join(header), comments="")


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# ------------------------------------------------------------- subcommands #


def _cmd_sample_fbm(cfg, args, params, cov, outdir) -> list[Path]:
    values = sample_fbm_batch(params, cfg.paths, cov=cov)
    written = []
    for i in range(cfg.paths):
        path = FbmPath(grid=cov.grid, values=values[i], cov=cov)
        csv = outdir / f"path_{i:05d}.csv"
        bin_ = outdir / f"path_{i:05d}.fbmp"
        write_path_csv(csv, path)
        write_path_binary(bin_, path)
        written += [csv, bin_]
    return written


def _cmd_silt(cfg, args, params, cov, outdir) -> list[Path]:
    if cfg.paths < 2:
        raise ValueError(f"silt needs at least 2 paths for a standard error, got {cfg.paths}")
    ladder = LadderConfig(eps0=cfg.eps0, levels=cfg.levels)
    eps = ladder.epsilons
    values = sample_fbm_batch(params, cfg.paths, cov=cov)
    raw, expect, centered = centered_ladder(values, params, cov.grid, eps, threads=cfg.threads)

    m, k = raw.shape
    rows = np.zeros((m * k, 5))
    rows[:, 0] = np.repeat(np.arange(m), k)
    rows[:, 1] = np.tile(eps, m)
    rows[:, 2] = raw.ravel()
    rows[:, 3] = np.tile(expect, m)
    rows[:, 4] = centered.ravel()
    table = outdir / "silt.csv"
    _write_csv(
        table,
        ["path_id", "eps", "raw", "expectation", "centered"],
        rows,
        ["%d"] + ["%.17g"] * 4,
    )

    summary = np.column_stack(
        [
            eps,
            raw.mean(axis=0),
            expect,
            centered.mean(axis=0),
            centered.std(axis=0, ddof=1) / np.sqrt(m),
        ]
    )
    stable = outdir / "silt_summary.csv"
    _write_csv(
        stable,
        ["eps", "mean_raw", "expectation", "mean_centered", "stderr_centered"],
        summary,
        "%.17g",
    )
    return [table, stable]


def _cmd_holder_check(cfg, args, params, cov, outdir) -> list[Path]:
    shift = _resolve_shift(cfg.shift, params, cov)
    deltas = np.geomspace(cfg.delta_min, cfg.delta_max, cfg.n_deltas)
    report = holder_verify(
        params, shift, cfg.holder_epsilons, deltas, cfg.paths, threads=cfg.threads
    )
    # operative rows at the smallest eps: pairs (u, 0)
    pairs = np.column_stack(
        [
            report.deltas,
            np.zeros_like(report.deltas),
            report.estimates[-1],
            report.stderrs[-1],
        ]
    )
    ptable = outdir / "holder_pairs.csv"
    _write_csv(ptable, ["u", "v", "sq_diff", "stderr"], pairs, "%.17g")

    rep = np.column_stack(
        [
            report.epsilons,
            report.slopes,
            report.slope_stderrs,
            report.intercepts,
            report.slopes - 1.645 * report.slope_stderrs,
            np.full_like(report.epsilons, report.target_exponent),
        ]
    )
    rtable = outdir / "holder_report.csv"
    _write_csv(
        rtable,
        ["eps", "slope", "slope_stderr", "intercept", "slope_lower95", "target_exponent"],
        rep,
        "%.17g",
    )
    return [ptable, rtable]


def _cmd_density_scan(cfg, args, params, cov, outdir) -> list[Path]:
    shift = _resolve_shift(cfg.shift, params, cov)
    values = sample_fbm_batch(params, cfg.paths, cov=cov)
    u_grid = np.linspace(0.0, cfg.u_max, cfg.n_u)
    scan = continuity_scan(
        shift, u_grid, values, cfg.density_eps, g=params.g, threads=cfg.threads
    )
    table = outdir / "density_scan.csv"
    _write_csv(
        table,
        ["u", "a_min", "a_max", "max_jump", "log_a_min", "log_a_max"],
        scan.per_u_stats(),
        "%.17g",
    )
    summary = outdir / "density_scan.json"
    _json_dump(
        summary,
        {
            "eps": cfg.density_eps,
            "paths": int(values.shape[0]),
            "u_max": cfg.u_max,
            "n_u": cfg.n_u,
            "q95_max_jump": scan.q95,
        },
    )
    return [table, summary]


def _cmd_edwards_estimate(cfg, args, params, cov, outdir) -> list[Path]:
    ladder = LadderConfig(eps0=cfg.eps0, levels=cfg.levels)
    ens = edwards_ensemble(params, cfg.paths, ladder, cov=cov, threads=cfg.threads)

    end_sq = np.sum(ens.values[:, -1, :] ** 2, axis=1)
    end_1 = ens.values[:, -1, 0]
    means = {
        "lc": ens.expectation(ens.lc),
        "end_sq": ens.expectation(end_sq),
        "end_1": ens.expectation(end_1),
    }
    wtable = outdir / "edwards_weights.csv"
    rows = np.column_stack([np.arange(ens.m), ens.lc, ens.weights])
    _write_csv(wtable, ["path_id", "lc", "weight"], rows, ["%d", "%.17g", "%.17g"])

    summary = outdir / "edwards_summary.json"
    _json_dump(
        summary,
        {
            "paths": ens.m,
            "g": params.g,
            "eps": ens.eps,
            "ess": ens.ess,
            "log_mgf2": ens.mgf_diagnostic(),
            "weight_tail_q50_q90_q99_max": ens.weight_tail().tolist(),
            "means": {k: {"mean": v[0], "stderr": v[1]} for k, v in means.items()},
        },
    )
    return [wtable, summary]


def _iat(trace: np.ndarray) -> float | None:
    """Sokal IAT of one chain trace; None for one shorter than IAT_MIN and
    for one that no accepted step moved."""
    return None if trace.size < IAT_MIN or np.all(trace == trace[0]) else sokal_iat(trace)


def _stderr(trace: np.ndarray) -> float | None:
    """Batch-means stderr of one chain trace; None below BATCH_MEANS_MIN samples."""
    return None if trace.size < BATCH_MEANS_MIN else batch_means_stderr(trace)


def _read_resume(path: str) -> ChainState:
    """The checkpoint named by --resume. A file that cannot be read, is not
    an npz archive or lacks a checkpoint field is a config error naming it;
    whether the chain may continue from it is run_mala's to decide."""
    try:
        with open(path, "rb") as fh:
            if not zipfile.is_zipfile(fh):
                raise ValueError("it is not an npz archive")
        return load_checkpoint(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{path} is not a quantize-run checkpoint: {exc}") from exc


def _cmd_quantize_run(cfg, args, params, cov, outdir) -> list[Path]:
    resume = _read_resume(args.resume) if args.resume else None
    result = run_mala(
        params,
        eps=cfg.mala_eps,
        n_iter=cfg.iterations,
        burn_in=cfg.burn_in,
        cov=cov,
        step=cfg.step,
        thin=cfg.thin,
        resume=resume,
    )
    lc = result.traces["lc"]
    coord = result.traces["coord"]
    logpi = result.traces["logpi"]
    n = lc.size
    first = result.state.iteration - result.n_iter + result.burn_in
    sample_idx = first + (np.arange(n) + 1) * result.thin
    rows = np.column_stack([sample_idx, lc, coord, logpi])
    header = ["iteration", "lc"] + [f"coord_{c + 1}" for c in range(params.d)] + ["logpi"]
    ttable = outdir / "mala_trace.csv"
    _write_csv(ttable, header, rows, ["%d"] + ["%.17g"] * (params.d + 2))

    ckpt = outdir / "mala_checkpoint.npz"
    save_checkpoint(ckpt, result.state)

    summary = outdir / "mala_summary.json"
    _json_dump(
        summary,
        {
            "eps": result.eps,
            "iterations": result.n_iter,
            "burn_in": result.burn_in,
            "thin": result.thin,
            "samples": int(n),
            "acceptance": result.acceptance_rate,
            "step": result.step,
            "resumed_from": str(args.resume) if args.resume else None,
            "lc_iat": _iat(lc),
            "coord_iat": [_iat(c) for c in coord.T],
            "logpi_iat": _iat(logpi),
            "means": {
                "lc": {"mean": float(lc.mean()), "stderr": _stderr(lc)},
                "logpi": {"mean": float(logpi.mean()), "stderr": _stderr(logpi)},
            },
        },
    )
    return [ttable, ckpt, summary]


# ------------------------------------------------------------------ driver #

class _Command(NamedTuple):
    help: str
    run: Callable  # (cfg, args, params, cov, outdir) -> output files
    flags: tuple[str, ...]  # RunConfig fields it takes flags for, beside _COMMON
    defaults: dict = {}  # RunConfig defaults of its own, under the file and flags


_COMMON = ("outdir", "seed", "threads", "N", "H", "d", "T", "g")
_ALIASES = {"H": "--hurst", "d": "--dim", "T": "--horizon", "g": "--coupling", "outdir": "--out"}
_COMMANDS = {
    "sample-fbm": _Command(
        "draw paths and write CSV + packed binary", _cmd_sample_fbm, ("paths",), {"paths": 1}
    ),
    "silt": _Command(
        "per-path eps-ladder table of the local time", _cmd_silt, ("paths", "eps0", "levels")
    ),
    "holder-check": _Command(
        "L2 modulus of the centered local time", _cmd_holder_check, ("paths", "shift")
    ),
    "density-scan": _Command(
        "density process on a shift-magnitude grid",
        _cmd_density_scan,
        ("paths", "shift", "density_eps", "u_max", "n_u"),
    ),
    "edwards-estimate": _Command(
        "reweighted ensemble estimates", _cmd_edwards_estimate, ("paths", "eps0", "levels")
    ),
    "quantize-run": _Command(
        "path-space MALA chain for the reweighted law",
        _cmd_quantize_run,
        ("mala_eps", "step", "iterations", "burn_in", "thin"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    """Each flag that overrides the config stores under the name of its
    RunConfig field, so _effective_config copies it by name."""
    top = argparse.ArgumentParser(
        prog="edwardsim",
        description="Fractional Brownian paths, self-intersection local time, "
        "and Edwards-measure reweighting on a grid.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="cmd", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="INI config file")
        defaults = RunConfig(**command.defaults)
        for field in _COMMON + command.flags:
            section, key = _KEYS[field]
            flag = _ALIASES.get(field, "--" + key.replace("_", "-"))
            text = f"[{section}] {key} (default {getattr(defaults, field)})"
            p.add_argument(flag, dest=field, type=_PARSERS[field], help=text)
        if name == "quantize-run":
            p.add_argument("--resume", help="checkpoint to continue")
    return top


def _effective_config(args) -> RunConfig:
    """The command's defaults, then the config file, then flags, then
    EDWARDSIM_OUTDIR, validated once."""
    command = _COMMANDS[args.cmd]
    cfg = RunConfig(**command.defaults)
    if args.config:
        cfg = _read_file(args.config, cfg)
    for field in _COMMON + command.flags:
        if getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    env = os.environ.get(OUTDIR_ENV)
    if env:
        cfg.outdir = env
    cfg.validate()
    return cfg


def _prepare_outdir(cfg: RunConfig, args, subcommand: str) -> Path:
    outdir = Path(cfg.outdir) / subcommand
    outdir.mkdir(parents=True, exist_ok=True)
    if args.config:
        shutil.copyfile(args.config, outdir / "config.ini")
    else:
        (outdir / "config.ini").write_text(dump_config(cfg), encoding="utf-8")
    (outdir / "config_effective.ini").write_text(dump_config(cfg), encoding="utf-8")
    return outdir


def _numpy_blas() -> dict | None:
    """Name and version of the BLAS numpy was built against, from its build
    config; None where numpy cannot report it as a dict (before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        return None


def _environment() -> dict:
    """Versions and thread settings of the run; imports scipy's top level only."""
    import scipy
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _numpy_blas(),
        "scipy": scipy.__version__,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_manifest(outdir: Path, subcommand: str, cfg: RunConfig, outputs: list[Path], wall: float) -> None:
    files = list(outputs) + [outdir / "config.ini", outdir / "config_effective.ini"]
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config_sha256": config_hash(cfg),
        "wall_clock_s": round(wall, 3),
        "environment": _environment(),
        "outputs": {f.name: _sha256(f) for f in files},
    }
    _json_dump(outdir / "manifest.json", manifest)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except ConfigError as exc:
        print(f"edwardsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        params = cfg.model_params()
        cov = GridCovariance(params)
        outdir = _prepare_outdir(cfg, args, args.cmd)
        t0 = time.perf_counter()
        outputs = _COMMANDS[args.cmd].run(cfg, args, params, cov, outdir)
        _write_manifest(outdir, args.cmd, cfg, outputs, time.perf_counter() - t0)
    except ConfigError as exc:
        print(f"edwardsim: {args.cmd}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"edwardsim: {args.cmd}: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"edwardsim: {args.cmd}: wrote {len(outputs)} outputs to {outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
