"""End-to-end and per-layer benchmark of the edwardsim command line.

One run drives one workload in this process through
``edwardsim.cli.main(argv)``, the path a user's ``edwardsim ...`` takes,
as a closed loop: one client, the next op starts when the previous one
returns, until ``--seconds`` have passed (a run stops only at the end of
a full op rotation). Op ``i`` uses seed ``--seed + i``. After every op,
outside the timed region, its outputs are checked; an op that exits
non-zero, raises, or fails a check counts as failed. The first rotation
is a warm-up that the op timings leave out (see ``Runner.loop``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced op rotations after the warm-up and prints the per-layer metrics from
the traced ones, plus the tracing overhead (traced minus untraced
``op_s_p50``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run it from the repository root; it reads the package from ``src/`` and
writes op outputs and spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ensemble", "shift-scan", "chain", "large-grid")
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_NAMES = ("fbm", "silt", "cameron_martin", "moments", "edwards", "mala", "cli")
PER_LAYER = {
    "fbm.factor_s": "s",
    "fbm.factor_calls": "count",
    "fbm.sample_ns_per_value": "ns",
    "silt.kernel_ns_per_pair_eps": "ns",
    "silt.pair_eps_evals": "count",
    "silt.raw_batch_calls": "count",
    "silt.peak_temp_mb": "MB",
    "silt.expectation_s": "s",
    "silt.expectation_calls": "count",
    "moments.self_s": "s",
    "moments.silt_useful_ratio": "ratio",
    "cameron_martin.shift_s": "s",
    "edwards.self_s": "s",
    "edwards.ess_fraction": "ratio",
    "mala.iter_us": "us",
    "mala.accept_gap": "ratio",
    "mala.step": "step",
    "mala.lc_iat": "steps",
    "mala.lc_esjd_per_s": "lc2/s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.first_op_s": "s",
    **{f"{layer}.self_share": "ratio" for layer in LAYER_NAMES},
    "trace.overhead_s": "s",
}


def _log(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------- set-up #


def measure_setup(workload, seed: int, out: Path) -> float:
    """One cold set-up in a fresh interpreter (see setup_probe.py)."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--src", str(SRC),
           "--ops", json.dumps(workload.probe_argvs(seed, out))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def pin_malloc() -> dict:
    """Fix glibc's adaptive mmap and trim thresholds for this process.

    Left dynamic, the mmap threshold rises only when a large mmapped chunk
    is freed, and until it has, the trim threshold stays low enough that
    the chain op's ~260 KB temporaries churn the heap top: a fresh process
    runs the op 30-45% slower, and a long-running one may stay in that
    state for a whole run or leave it after the first op. Pinning both
    thresholds at the values the dynamic rule can reach (32 MiB and twice
    that) makes every op of a run see one allocator state. The arenas are
    left as users get them. Returns the settings for the env block."""
    m_trim_threshold, m_mmap_threshold = -1, -3
    mmap_bytes = 32 << 20
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return {"pinned": False}
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    ok = (mallopt(m_mmap_threshold, mmap_bytes) == 1
          and mallopt(m_trim_threshold, 2 * mmap_bytes) == 1)
    return {"pinned": ok, "mmap_threshold": mmap_bytes, "trim_threshold": 2 * mmap_bytes}


def blas_libraries() -> list[dict]:
    """Version string and thread count of every OpenBLAS this process loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = int(get_threads())
                    break
            if "config" in entry:
                break
        found.append(entry)
    return found


# -------------------------------------------------------------------- ops #


class Runner:
    """Runs and checks the ops of one workload, optionally traced."""

    def __init__(self, workload, ctx, tracer, seed: int):
        import edwardsim.cli

        self.workload = workload
        self.ctx = ctx
        self.tracer = tracer
        self.seed = seed
        self.out = OUT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.entry = edwardsim.cli.main
        if tracer is not None:
            tracer.install()
            self.entry = tracer.wrap_root(self.entry)
        self.records: list[dict] = []

    def run_op(self, i: int, traced: bool, warmup: bool) -> dict:
        op = self.workload.ops[i % len(self.workload.ops)]
        seed = self.seed + i
        op_dir = self.out / op.subcommand
        shutil.rmtree(op_dir, ignore_errors=True)
        argv = op.argv(seed, self.out)
        error = None
        if traced:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.entry(argv)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.op = None
        info = {}
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                info = op.verify(self.ctx, op_dir, seed)
            except Exception as exc:  # noqa: BLE001 - a broken output is a failed op
                error = f"check failed: {exc}"
        rec = {"i": i, "op": op, "seconds": seconds, "traced": traced, "warmup": warmup,
               "error": error, "info": info}
        status = "ok" if error is None else f"FAILED {error}"
        _log(f"op {i} {op.subcommand} seed {seed} {seconds:.4f} s"
             f"{' traced' if traced else ''}{' warm-up' if warmup else ''} {status}")
        return rec

    def loop(self, seconds: float, trace: bool, probes: int) -> list[float]:
        """Ops in whole rotations until ``seconds`` have passed, and the
        set-up probes spread evenly over that time (taken between
        rotations, so no op runs beside one). The first rotation is a
        warm-up with the allocator as users get it: it is checked and
        timed as the first op of a CLI process, but left out of the op
        timings, and after it the allocator is pinned (``pin_malloc``).
        Then, when tracing, untraced and traced rotations alternate. At
        least one such block runs. Returns the probe times."""
        rotation = len(self.workload.ops)
        block = rotation * (2 if trace else 1)
        setup: list[float] = []

        def probe() -> None:
            seed = self.seed + len(setup)
            setup.append(measure_setup(self.workload, seed, self.out / "setup"))
            _log(f"setup probe seed {seed} {setup[-1]:.4f} s")

        start = time.perf_counter()
        i = 0
        while (i < rotation + block or (i - rotation) % block
               or time.perf_counter() - start < seconds):
            if i % rotation == 0:
                due = 1 + int(probes * (time.perf_counter() - start) / seconds)
                while len(setup) < min(due, probes):
                    probe()
            r = i // rotation
            if i == rotation:
                _log("malloc " + json.dumps(pin_malloc()))
            self.records.append(self.run_op(i, traced=trace and r > 0 and r % 2 == 0,
                                            warmup=r == 0))
            i += 1
        while len(setup) < probes:
            probe()
        return setup


def op_time_stats(records: list[dict]) -> tuple[float, float, dict[str, int]]:
    """(p50, tail, ops per subcommand) of op seconds: per subcommand, then
    averaged over the rotation so a run's figure does not depend on which
    op it ended on. The tail is the maximum; a run has too few ops for any
    percentile with ten samples beyond it."""
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["op"].subcommand, []).append(r["seconds"])
    p50 = statistics.fmean(statistics.median(v) for v in kinds.values())
    tail = statistics.fmean(max(v) for v in kinds.values())
    return p50, tail, {k: len(v) for k, v in kinds.items()}


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    recs = [r for r in runner.records if not r["warmup"]]
    p50, tail, samples = op_time_stats(recs)
    _log("op samples " + ", ".join(f"{k} {n}" for k, n in samples.items())
         + " after the warm-up rotation (op_s_p50 is their median, op_s_tail their maximum)")
    work = sum(r["op"].work for r in recs)
    busy = sum(r["seconds"] for r in recs)
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": p50,
        "op_s_tail": tail,
        "work_per_s": work / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner) -> dict:
    tracer = runner.tracer
    traced = [r for r in runner.records if r["traced"]]
    plain = [r for r in runner.records if not r["traced"] and not r["warmup"]]
    n = len(traced)
    tot: dict = {}
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    by_name: dict[str, float] = {}
    for r in traced:
        summary = tracer.op_summary(r["i"])
        for layer, v in summary.pop("self_s").items():
            self_s[layer] += v
        for name, v in summary.pop("self_by_name").items():
            by_name[name] = by_name.get(name, 0.0) + v
        for key, v in summary.items():
            tot[key] = max(tot.get(key, 0), v) if key == "peak_temp_bytes" else tot.get(key, 0) + v

    def mean_info(key: str, recs=runner.records) -> float:
        vals = [r["info"][key] for r in recs if key in r["info"]]
        return statistics.fmean(vals) if vals else 0.0

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0

    chain_iters = sum(r["op"].work for r in traced if r["op"].subcommand == "quantize-run")
    plain_chain = [r for r in plain if "lc_sq_jumps" in r["info"]]
    metrics = {
        "fbm.factor_s": tot["factor_s"] / n,
        "fbm.factor_calls": tot["factor_calls"] / n,
        "fbm.sample_ns_per_value": ratio(tot["sample_s"], tot["sample_values"], 1e9),
        "silt.kernel_ns_per_pair_eps": ratio(tot["kernel_s"], tot["pair_eps"], 1e9),
        "silt.pair_eps_evals": tot["pair_eps"] / n,
        "silt.raw_batch_calls": tot["kernel_calls"] / n,
        "silt.peak_temp_mb": tot["peak_temp_bytes"] / 2**20,
        "silt.expectation_s": tot["expectation_s"] / n,
        "silt.expectation_calls": tot["expectation_calls"] / n,
        "moments.self_s": self_s["moments"] / n,
        "moments.silt_useful_ratio": ratio(tot["moments_silt_distinct"], tot["moments_silt_calls"]),
        "cameron_martin.shift_s": self_s["cameron_martin"] / n,
        "edwards.self_s": self_s["edwards"] / n,
        "edwards.ess_fraction": mean_info("ess_fraction"),
        "mala.iter_us": ratio(by_name.get("run_mala", 0.0), chain_iters, 1e6),
        "mala.accept_gap": mean_info("accept_gap"),
        "mala.step": mean_info("step"),
        "mala.lc_iat": mean_info("lc_iat"),
        "mala.lc_esjd_per_s": ratio(sum(r["info"]["lc_sq_jumps"] for r in plain_chain),
                                    sum(r["seconds"] for r in plain_chain)),
        "cli.self_s": self_s["cli"] / n,
        "cli.bytes_written": mean_info("bytes", traced),
        "cli.first_op_s": statistics.fmean(r["seconds"] for r in runner.records if r["warmup"]),
        **{f"{layer}.self_share": self_s[layer] / tot["wall_s"] for layer in LAYER_NAMES},
        "trace.overhead_s": op_time_stats(traced)[0] - op_time_stats(plain)[0],
    }
    for layer in sorted(LAYER_NAMES, key=lambda k: -self_s[k]):
        _log(f"share {layer} {self_s[layer] / tot['wall_s']:.4f} of traced op time")
    return metrics


# ------------------------------------------------------------------ main #


def run_one(args) -> int:
    os.environ.pop("EDWARDSIM_OUTDIR", None)  # op outputs stay under OUT
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import edwardsim
    import workloads as wl
    from spans import Tracer

    if Path(edwardsim.__file__).resolve().parent != SRC / "edwardsim":
        print(f"perfbench: imported edwardsim from {edwardsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    ctx = wl.Context(workload)
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": wl.NPROC,
        # BLAS threading is left as users get it; the allocator is pinned
        # after the warm-up rotation (pin_malloc)
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "malloc_env": {k: v for k, v in os.environ.items()
                       if k.startswith(("MALLOC_", "GLIBC_TUNABLES"))},
        "workload": workload.name,
        "threads": workload.threads,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    _log("env " + json.dumps(env))

    tracer = Tracer() if args.trace else None
    runner = Runner(workload, ctx, tracer, args.seed)
    try:
        # set-up is an end-to-end metric; a traced run takes no probes
        setup = runner.loop(args.seconds, bool(args.trace),
                            probes=0 if args.trace else SETUP_REPEATS)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = sum(r["error"] is not None for r in runner.records)
    attempted = len(runner.records)
    _log(f"fail_ratio {failed}/{attempted} ops ({workload.work_unit} per op: "
         + ", ".join(f"{o.subcommand} {o.work}" for o in workload.ops) + ")")
    if tracer is not None:
        metrics = per_layer(runner)
        spans_file = runner.out / f"spans-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        _log(f"spans {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics = end_to_end(runner, setup)
        units = END_TO_END
    for name, value in metrics.items():
        _log(f"metric {name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            _log(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "edwardsim" / "__init__.py").is_file():
        print(f"perfbench: no edwardsim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
