import argparse
import hashlib
import importlib.util
import json
import os
import platform
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from edwardsim import (
    ConfigError,
    RunConfig,
    config_hash,
    dump_config,
    load_config,
    parse_config,
    sokal_iat,
)
from edwardsim.cli import _COMMANDS, _build_parser, _effective_config, main
from edwardsim.config import _KEYS, _SECTIONS
from edwardsim.mala import IAT_MIN


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert (cfg.H, cfg.d, cfg.T, cfg.g, cfg.N) == (0.5, 2, 1.0, 0.1, 256)
        assert cfg.holder_epsilons == (0.05, 0.02)

    def test_every_section_parses(self):
        text = """
[model]
h = 0.25
d = 4
t = 2.0
g = 0.3
n = 128

[run]
seed = 11
paths = 5000
threads = 2
outdir = elsewhere

[silt]
eps0 = 0.2
levels = 6

[holder]
epsilons = 0.1, 0.05, 0.025
delta_min = 0.01
delta_max = 0.5
n_deltas = 4

[density]
eps = 0.03
u_max = 2.0
n_u = 11
shift = sine

[mala]
eps = 0.04
step = 0.25
burn_in = 100
iterations = 1000
thin = 5
"""
        cfg = parse_config(text)
        assert (cfg.H, cfg.d, cfg.T, cfg.g, cfg.N) == (0.25, 4, 2.0, 0.3, 128)
        assert (cfg.seed, cfg.paths, cfg.threads, cfg.outdir) == (11, 5000, 2, "elsewhere")
        assert (cfg.eps0, cfg.levels) == (0.2, 6)
        assert cfg.holder_epsilons == (0.1, 0.05, 0.025)
        assert (cfg.delta_min, cfg.delta_max, cfg.n_deltas) == (0.01, 0.5, 4)
        assert (cfg.density_eps, cfg.u_max, cfg.n_u) == (0.03, 2.0, 11)
        assert cfg.shift == "sine"
        assert (cfg.mala_eps, cfg.step, cfg.burn_in, cfg.iterations, cfg.thin) == (
            0.04,
            0.25,
            100,
            1000,
            5,
        )

    def test_unknown_section_is_named(self):
        with pytest.raises(ConfigError, match=r"unknown section \[modle\]"):
            parse_config("[modle]\nh = 0.5\n")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown key 'pahts'"):
            parse_config("[run]\npahts = 3\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value for model.n"):
            parse_config("[model]\nn = many\n")

    def test_bad_float_list(self):
        with pytest.raises(ConfigError, match="float list"):
            parse_config("[holder]\nepsilons = a b\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("h = 0.5\n")

    def test_off_critical_warns(self):
        with pytest.warns(RuntimeWarning, match="critical line"):
            parse_config("[model]\nh = 0.3\n")

    def test_critical_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config("[model]\nh = 0.25\nd = 4\n")

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[run]\npaths = 0\n", "paths"),
            ("[run]\nthreads = 0\n", "threads"),
            ("[silt]\neps0 = -1\n", "eps0"),
            ("[silt]\nlevels = 3\n", "levels"),
            ("[holder]\nepsilons = -0.1\n", "positive"),
            ("[holder]\ndelta_min = 0.9\n", "delta_min"),
            ("[holder]\nn_deltas = 1\n", "n_deltas"),
            ("[density]\neps = 0\n", "eps"),
            ("[density]\nn_u = 2\n", "n_u"),
            ("[density]\nmode = wild\n", "mode"),
            ("[mala]\nstep = 0\n", "step"),
            ("[mala]\nthin = 0\n", "iteration counts"),
            ("[model]\nh = 2.0\n", "H"),
        ],
    )
    def test_validation_rejects(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_dump_round_trips(self):
        cfg = parse_config("[model]\nh = 0.25\nd = 4\n[holder]\nepsilons = 0.1 0.04\n")
        assert parse_config(dump_config(cfg)) == cfg

    def test_hash_tracks_content(self):
        a = RunConfig()
        b = RunConfig(seed=1)
        assert config_hash(a) == config_hash(RunConfig())
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 64

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("EDWARDSIM_OUTDIR", raising=False)
    return tmp_path


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(argv)


class TestCliSampleFbm:
    def test_outputs_and_determinism(self, outdir):
        a, b = outdir / "a", outdir / "b"
        argv = ["sample-fbm", "--n", "16", "--seed", "7", "--paths", "2"]
        assert _run(argv + ["--out", str(a)]) == 0
        assert _run(argv + ["--out", str(b)]) == 0
        for name in ("path_00000.csv", "path_00000.fbmp", "path_00001.csv"):
            assert (a / "sample-fbm" / name).read_bytes() == (
                b / "sample-fbm" / name
            ).read_bytes()
        first = (a / "sample-fbm" / "path_00000.csv").read_text().splitlines()[0]
        assert first == "t,x_1,x_2"

    def test_manifest_checksums(self, outdir):
        out = outdir / "run"
        assert _run(["sample-fbm", "--n", "16", "--out", str(out)]) == 0
        sub = out / "sample-fbm"
        manifest = json.loads((sub / "manifest.json").read_text())
        assert manifest["subcommand"] == "sample-fbm"
        assert set(manifest["outputs"]) == {
            "path_00000.csv",
            "path_00000.fbmp",
            "config.ini",
            "config_effective.ini",
        }
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((sub / name).read_bytes()).hexdigest() == digest
        eff = parse_config((sub / "config_effective.ini").read_text())
        assert manifest["config_sha256"] == config_hash(eff)

    def test_manifest_environment(self, outdir, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        out = outdir / "run"
        assert _run(["sample-fbm", "--n", "16", "--out", str(out)]) == 0
        env = json.loads((out / "sample-fbm" / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert 1 <= env["nproc"] <= os.cpu_count()
        assert env["OMP_NUM_THREADS"] == "1"
        assert env["OPENBLAS_NUM_THREADS"] is None
        # numpy before 1.26 has no show_config(mode=...): the entry is null
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert _run(["sample-fbm", "--n", "16", "--out", str(out)]) == 0
        env = json.loads((out / "sample-fbm" / "manifest.json").read_text())["environment"]
        assert env["blas"] is None

    def test_env_var_overrides_flag(self, outdir, monkeypatch):
        envdir = outdir / "from_env"
        monkeypatch.setenv("EDWARDSIM_OUTDIR", str(envdir))
        assert _run(["sample-fbm", "--n", "16", "--out", str(outdir / "ignored")]) == 0
        assert (envdir / "sample-fbm" / "path_00000.csv").exists()
        assert not (outdir / "ignored").exists()

    def test_config_file_copied_verbatim(self, outdir):
        ini = outdir / "my.ini"
        ini.write_text("# pinned run\n[model]\nn = 16\n\n[run]\nseed = 3\n")
        out = outdir / "run"
        assert _run(["sample-fbm", "--config", str(ini), "--out", str(out)]) == 0
        sub = out / "sample-fbm"
        assert (sub / "config.ini").read_bytes() == ini.read_bytes()
        eff = parse_config((sub / "config_effective.ini").read_text())
        assert eff.N == 16 and eff.seed == 3 and eff.outdir == str(out)


    @pytest.mark.parametrize(
        "ini, flags, count",
        [("", [], 1), ("[run]\npaths = 3\n", [], 3), ("[run]\npaths = 3\n", ["--paths", "2"], 2)],
        ids=["default", "file", "flag"],
    )
    def test_path_count_and_its_record(self, outdir, ini, flags, count):
        # the flag if given, else the file's key, else 1; the record says what was written
        cfg = outdir / "run.ini"
        cfg.write_text("[model]\nn = 16\n" + ini)
        out = outdir / "run"
        assert _run(["sample-fbm", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        sub = out / "sample-fbm"
        assert len(list(sub.glob("path_*.csv"))) == count
        assert parse_config((sub / "config_effective.ini").read_text()).paths == count


class TestCliAnalyses:
    def test_silt_tables(self, outdir):
        out = outdir / "run"
        argv = [
            "silt", "--n", "32", "--paths", "8", "--levels", "4",
            "--eps0", "0.1", "--out", str(out),
        ]
        assert _run(argv) == 0
        sub = out / "silt"
        lines = (sub / "silt.csv").read_text().splitlines()
        assert lines[0] == "path_id,eps,raw,expectation,centered"
        assert len(lines) == 1 + 8 * 4
        table = np.loadtxt(sub / "silt.csv", delimiter=",", skiprows=1)
        assert np.allclose(table[:, 4], table[:, 2] - table[:, 3], rtol=1e-15)
        summary = np.loadtxt(sub / "silt_summary.csv", delimiter=",", skiprows=1)
        assert summary.shape == (4, 5)
        assert np.allclose(summary[:, 0], 0.1 * 0.5 ** np.arange(4))

    def test_holder_tables(self, outdir):
        out = outdir / "run"
        argv = ["holder-check", "--n", "32", "--paths", "32", "--out", str(out)]
        assert _run(argv) == 0
        sub = out / "holder-check"
        pairs = (sub / "holder_pairs.csv").read_text().splitlines()
        assert pairs[0] == "u,v,sq_diff,stderr"
        assert len(pairs) == 1 + 6
        report = np.loadtxt(sub / "holder_report.csv", delimiter=",", skiprows=1)
        assert report.shape == (2, 6)
        assert np.all(report[:, 5] == 1.5)

    def test_density_scan_outputs(self, outdir):
        out = outdir / "run"
        argv = [
            "density-scan", "--n", "32", "--paths", "16", "--n-u", "5",
            "--u-max", "0.5", "--eps", "0.05", "--out", str(out),
        ]
        assert _run(argv) == 0
        sub = out / "density-scan"
        table = np.loadtxt(sub / "density_scan.csv", delimiter=",", skiprows=1)
        assert table.shape == (5, 6)
        assert table[0, 0] == 0.0 and table[0, 3] == 0.0
        assert table[0, 4] == 0.0 and table[0, 5] == 0.0
        assert np.allclose(table[:, 0], np.linspace(0.0, 0.5, 5))
        summary = json.loads((sub / "density_scan.json").read_text())
        assert summary["n_u"] == 5 and summary["paths"] == 16
        assert summary["q95_max_jump"] >= 0.0

    def test_edwards_estimate_outputs(self, outdir):
        out = outdir / "run"
        argv = [
            "edwards-estimate", "--n", "32", "--paths", "64",
            "--levels", "4", "--out", str(out),
        ]
        assert _run(argv) == 0
        sub = out / "edwards-estimate"
        rows = np.loadtxt(sub / "edwards_weights.csv", delimiter=",", skiprows=1)
        assert rows.shape == (64, 3)
        assert np.all(rows[:, 2] > 0.0)
        summary = json.loads((sub / "edwards_summary.json").read_text())
        assert summary["paths"] == 64
        assert 0.0 < summary["ess"] <= 64.0
        assert set(summary["means"]) == {"lc", "end_sq", "end_1"}
        for entry in summary["means"].values():
            assert np.isfinite(entry["mean"]) and entry["stderr"] >= 0.0


class TestCliMala:
    def test_run_and_resume(self, outdir):
        out1 = outdir / "leg1"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "300",
            "--burn-in", "100", "--thin", "10", "--out", str(out1),
        ]
        assert _run(argv) == 0
        sub1 = out1 / "quantize-run"
        trace = np.loadtxt(sub1 / "mala_trace.csv", delimiter=",", skiprows=1)
        assert trace.shape == (20, 5)
        assert trace[0, 0] == 110.0 and trace[-1, 0] == 300.0
        summary = json.loads((sub1 / "mala_summary.json").read_text())
        assert 0.0 < summary["acceptance"] <= 1.0
        assert summary["resumed_from"] is None

        out2 = outdir / "leg2"
        argv2 = [
            "quantize-run", "--n", "32", "--iterations", "100",
            "--burn-in", "0", "--thin", "10",
            "--resume", str(sub1 / "mala_checkpoint.npz"), "--out", str(out2),
        ]
        assert _run(argv2) == 0
        sub2 = out2 / "quantize-run"
        trace2 = np.loadtxt(sub2 / "mala_trace.csv", delimiter=",", skiprows=1)
        assert trace2.shape == (10, 5)
        assert trace2[0, 0] == 310.0 and trace2[-1, 0] == 400.0
        summary2 = json.loads((sub2 / "mala_summary.json").read_text())
        assert summary2["resumed_from"].endswith("mala_checkpoint.npz")

    def test_summary_carries_lc_iat(self, outdir):
        out = outdir / "run"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "300",
            "--burn-in", "100", "--thin", "1", "--out", str(out),
        ]
        assert _run(argv) == 0
        sub = out / "quantize-run"
        trace = np.loadtxt(sub / "mala_trace.csv", delimiter=",", skiprows=1)
        summary = json.loads((sub / "mala_summary.json").read_text())
        assert summary["lc_iat"] == sokal_iat(trace[:, 1])
        assert summary["lc_iat"] >= 1.0
        assert summary["coord_iat"] == [sokal_iat(trace[:, c]) for c in (2, 3)]
        assert summary["logpi_iat"] == sokal_iat(trace[:, 4])

    def test_chain_that_never_moves_writes_null_iats(self, outdir):
        # a step this large accepts nothing, so every trace is constant
        out = outdir / "run"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "50", "--burn-in", "0",
            "--thin", "1", "--step", "1000", "--out", str(out),
        ]
        assert _run(argv) == 0
        summary = json.loads((out / "quantize-run" / "mala_summary.json").read_text())
        assert summary["acceptance"] == 0.0
        assert summary["lc_iat"] is None
        assert summary["coord_iat"] == [None, None]
        assert summary["logpi_iat"] is None

    def test_short_chain_writes_null_stderrs_and_a_manifest(self, outdir):
        # three samples are too few for batch means, and for an IAT
        out = outdir / "run"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "3", "--burn-in", "0",
            "--thin", "1", "--out", str(out),
        ]
        assert _run(argv) == 0
        sub = out / "quantize-run"
        summary = json.loads((sub / "mala_summary.json").read_text())
        assert summary["samples"] == 3
        assert summary["means"]["lc"]["stderr"] is None
        assert summary["means"]["logpi"]["stderr"] is None
        assert summary["lc_iat"] is None
        assert summary["coord_iat"] == [None, None]
        assert summary["logpi_iat"] is None
        manifest = json.loads((sub / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {
            "mala_trace.csv",
            "mala_checkpoint.npz",
            "mala_summary.json",
            "config.ini",
            "config_effective.ini",
        }

    def test_four_samples_write_stderrs_and_null_iats(self, outdir):
        # enough samples for batch means, too few for an autocorrelation time
        out = outdir / "run"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "4", "--burn-in", "0",
            "--thin", "1", "--out", str(out),
        ]
        assert _run(argv) == 0
        summary = json.loads((out / "quantize-run" / "mala_summary.json").read_text())
        assert summary["samples"] == 4
        assert all(isinstance(summary["means"][k]["stderr"], float) for k in ("lc", "logpi"))
        assert summary["lc_iat"] is None
        assert summary["coord_iat"] == [None, None]
        assert summary["logpi_iat"] is None

    def test_iat_min_samples_write_numbers(self, outdir):
        out = outdir / "run"
        argv = [
            "quantize-run", "--n", "32", "--iterations", str(IAT_MIN), "--burn-in", "0",
            "--thin", "1", "--out", str(out),
        ]
        assert _run(argv) == 0
        summary = json.loads((out / "quantize-run" / "mala_summary.json").read_text())
        assert summary["samples"] == IAT_MIN
        stats = [summary["lc_iat"], *summary["coord_iat"], summary["logpi_iat"]]
        stats += [summary["means"][k]["stderr"] for k in ("lc", "logpi")]
        assert all(isinstance(x, float) for x in stats)

    def test_two_legs_match_one(self, outdir):
        # every step is keyed by (seed, step), so a resumed run continues the chain
        common = ["quantize-run", "--n", "32", "--burn-in", "50", "--thin", "5"]
        assert _run(common + ["--iterations", "200", "--out", str(outdir / "one")]) == 0
        assert _run(common + ["--iterations", "120", "--out", str(outdir / "leg1")]) == 0
        ck = outdir / "leg1" / "quantize-run" / "mala_checkpoint.npz"
        argv = common + ["--iterations", "80", "--resume", str(ck), "--out", str(outdir / "leg2")]
        assert _run(argv) == 0
        rows = {
            name: (outdir / name / "quantize-run" / "mala_trace.csv").read_text().splitlines()
            for name in ("one", "leg1", "leg2")
        }
        assert rows["leg1"] + rows["leg2"][1:] == rows["one"]
        z = [np.load(outdir / name / "quantize-run" / "mala_checkpoint.npz")["z"]
             for name in ("one", "leg2")]
        assert np.array_equal(z[0], z[1])

    def test_resume_under_another_seed_exits_2(self, outdir, capsys):
        out1 = outdir / "leg1"
        argv = ["quantize-run", "--n", "32", "--iterations", "40", "--burn-in", "0",
                "--thin", "10", "--seed", "3", "--out", str(out1)]
        assert _run(argv) == 0
        ck = out1 / "quantize-run" / "mala_checkpoint.npz"
        argv2 = ["quantize-run", "--n", "32", "--iterations", "40", "--burn-in", "0",
                 "--thin", "10", "--seed", "4", "--resume", str(ck), "--out", str(outdir / "leg2")]
        assert _run(argv2) == 2
        assert "seed 3, this chain has seed 4" in capsys.readouterr().err

    def test_resume_from_a_missing_file_exits_1(self, outdir, capsys):
        missing = outdir / "nope.npz"
        argv = ["quantize-run", "--n", "32", "--iterations", "40", "--burn-in", "0",
                "--thin", "10", "--resume", str(missing), "--out", str(outdir)]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert f"quantize-run: config error: cannot read checkpoint {missing}" in err
        assert "No such file or directory" in err

    def test_resume_from_a_partial_checkpoint_exits_1(self, outdir, capsys):
        partial = outdir / "partial.npz"
        np.savez(partial, z=np.zeros(31), seed=0, xr=np.zeros(2))
        argv = ["quantize-run", "--n", "32", "--iterations", "40", "--burn-in", "0",
                "--thin", "10", "--resume", str(partial), "--out", str(outdir)]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert (f"quantize-run: config error: {partial} is not a quantize-run checkpoint: "
                "checkpoint lacks step, iteration") in err

    def test_resume_from_a_file_that_is_not_npz_exits_1(self, outdir, capsys):
        text = outdir / "notes.txt"
        text.write_text("not a checkpoint\n")
        argv = ["quantize-run", "--n", "32", "--iterations", "40", "--burn-in", "0",
                "--thin", "10", "--resume", str(text), "--out", str(outdir)]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert (f"quantize-run: config error: {text} is not a quantize-run checkpoint: "
                "it is not an npz archive") in err
        assert "pickle" not in err

    def test_resume_accepts_a_burn_in_longer_than_the_run(self, outdir):
        # a resume skips burn-in, so --burn-in only matters on a fresh run
        out1 = outdir / "leg1"
        argv = [
            "quantize-run", "--n", "32", "--iterations", "100",
            "--burn-in", "50", "--thin", "10", "--out", str(out1),
        ]
        assert _run(argv) == 0
        ck = out1 / "quantize-run" / "mala_checkpoint.npz"
        out2 = outdir / "leg2"
        argv2 = [
            "quantize-run", "--n", "32", "--iterations", "50", "--burn-in", "200",
            "--thin", "10", "--resume", str(ck), "--out", str(out2),
        ]
        assert _run(argv2) == 0
        trace = np.loadtxt(out2 / "quantize-run" / "mala_trace.csv", delimiter=",", skiprows=1)
        assert trace.shape == (5, 5)


class TestCliFailures:
    def test_bad_config_key_exits_1(self, outdir, capsys):
        ini = outdir / "bad.ini"
        ini.write_text("[run]\npahts = 3\n")
        assert _run(["silt", "--config", str(ini)]) == 1
        assert "pahts" in capsys.readouterr().err

    def test_missing_config_exits_1(self, outdir):
        assert _run(["silt", "--config", str(outdir / "absent.ini")]) == 1

    def test_invalid_value_exits_1(self, outdir):
        assert _run(["silt", "--n", "1", "--out", str(outdir / "x")]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field",
        ["eps0", "holder_epsilons", "delta_min", "delta_max", "density_eps", "u_max", "step",
         "mala_eps", "H", "T", "g"],
    )
    def test_non_finite_floats_exit_1_naming_the_field(self, outdir, capsys, field, value):
        # NaN passes an `x <= 0` range check, and inf runs on to NaN outputs
        section, key = _KEYS[field]
        ini = outdir / "bad.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert _run(["sample-fbm", "--config", str(ini), "--out", str(outdir)]) == 1
        assert f"{field} ([{section}] {key}) must be finite" in capsys.readouterr().err

    def test_numeric_failure_exits_2(self, outdir, capsys):
        argv = [
            "edwards-estimate", "--n", "16", "--paths", "8", "--levels", "4",
            "--coupling=-1e7", "--out", str(outdir / "x"),
        ]
        assert _run(argv) == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_holder_check_single_path_exits_2(self, outdir, capsys):
        argv = ["holder-check", "--n", "16", "--paths", "1", "--out", str(outdir / "x")]
        assert _run(argv) == 2
        assert "at least 2 paths" in capsys.readouterr().err

    def test_silt_single_path_exits_2(self, outdir, capsys):
        # one path has no standard error; stderr_centered would be nan
        argv = ["silt", "--n", "16", "--paths", "1", "--out", str(outdir / "x")]
        assert _run(argv) == 2
        assert "at least 2 paths" in capsys.readouterr().err

    def test_density_scan_far_shift_writes_no_nan(self, outdir):
        # the densities underflow to 0 far along the shift; every relative
        # jump must still be a number
        out = outdir / "x"
        argv = ["density-scan", "--n", "64", "--paths", "8", "--u-max", "60", "--out", str(out)]
        assert _run(argv) == 0
        sub = out / "density-scan"
        table = np.loadtxt(sub / "density_scan.csv", delimiter=",", skiprows=1)
        assert np.any(table[:, 2] == 0.0)
        assert np.all(np.isfinite(table))
        assert np.isfinite(json.loads((sub / "density_scan.json").read_text())["q95_max_jump"])

    def test_density_scan_reports_log_densities_past_underflow(self, outdir):
        # where a_min underflows to 0, log_a_min still says how small it is
        out = outdir / "x"
        argv = ["density-scan", "--n", "64", "--paths", "8", "--u-max", "60", "--out", str(out)]
        assert _run(argv) == 0
        path = out / "density-scan" / "density_scan.csv"
        header = path.read_text().splitlines()[0]
        assert header == "u,a_min,a_max,max_jump,log_a_min,log_a_max"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        gone = table[:, 1] == 0.0
        assert np.any(gone)
        assert np.all(np.isfinite(table[:, 4:]))
        assert np.all(table[gone, 4] < -745.0)
        assert np.array_equal(np.exp(table[:, 4:]), table[:, 1:3])

    def test_chain_that_records_nothing_exits_2(self, outdir, capsys):
        argv = [
            "quantize-run", "--n", "16", "--iterations", "100", "--burn-in", "200",
            "--out", str(outdir / "x"),
        ]
        assert _run(argv) == 2
        assert "records no sample" in capsys.readouterr().err

    def test_large_coupling_summary_is_valid_json(self, outdir):
        # w^2 overflows here; the summary carries log E[w^2] instead
        out = outdir / "x"
        argv = [
            "edwards-estimate", "--coupling=-1000", "--n", "64", "--paths", "128",
            "--seed", "1", "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _run(argv) == 0
        text = (out / "edwards-estimate" / "edwards_summary.json").read_text()

        def reject(name):
            raise ValueError(f"summary holds {name}")

        summary = json.loads(text, parse_constant=reject)
        assert summary["log_mgf2"] > 709.0

    def test_unknown_shift_exits_1(self, outdir):
        argv = [
            "density-scan", "--n", "16", "--paths", "4",
            "--shift", "mystery", "--out", str(outdir / "x"),
        ]
        assert _run(argv) == 1


class TestCliOffCritical:
    @pytest.mark.parametrize(
        "ini, flags, count",
        [
            ("", ["--hurst", "0.7"], 1),
            ("", ["--dim", "3"], 1),
            ("[model]\nh = 0.7\n", [], 1),
            ("[model]\nh = 0.7\n", ["--hurst", "0.5"], 0),
            ("[model]\nh = 0.25\nd = 4\n", [], 0),
        ],
        ids=["flag-h", "flag-d", "file-h", "file-undone-by-flag", "critical"],
    )
    def test_warns_once_off_the_critical_line(self, outdir, ini, flags, count):
        cfg = outdir / "run.ini"
        cfg.write_text(ini)
        argv = ["sample-fbm", "--config", str(cfg), "--n", "16", *flags, "--out", str(outdir / "x")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert sum("critical line" in str(w.message) for w in caught) == count


COMMON_OPTIONS = {
    "-h", "--help", "--config", "--out", "--seed", "--threads",
    "--n", "--hurst", "--dim", "--horizon", "--coupling",
}
# every subcommand's option strings; perfbench/workloads.py passes a subset
OPTIONS = {
    "sample-fbm": COMMON_OPTIONS | {"--paths"},
    "silt": COMMON_OPTIONS | {"--paths", "--eps0", "--levels"},
    "holder-check": COMMON_OPTIONS | {"--paths", "--shift"},
    "density-scan": COMMON_OPTIONS | {"--paths", "--shift", "--eps", "--u-max", "--n-u"},
    "edwards-estimate": COMMON_OPTIONS | {"--paths", "--eps0", "--levels"},
    "quantize-run": COMMON_OPTIONS
    | {"--eps", "--step", "--iterations", "--burn-in", "--thin", "--resume"},
}
# a valid value other than the default for every RunConfig field
NON_DEFAULT = {
    "H": 0.25, "d": 4, "T": 2.0, "g": 0.3, "N": 128,
    "seed": 11, "paths": 5000, "threads": 2, "outdir": "elsewhere",
    "eps0": 0.2, "levels": 6,
    "holder_epsilons": (0.1, 0.05, 0.025), "delta_min": 0.01, "delta_max": 0.5, "n_deltas": 4,
    "density_eps": 0.03, "u_max": 2.0, "n_u": 11, "shift": "sine",
    "mala_eps": 0.04, "step": 0.25, "burn_in": 100, "iterations": 1000, "thin": 5,
}


def _subparsers() -> dict:
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestCliContract:
    def test_option_strings(self):
        assert {name: set(p._option_string_actions) for name, p in _subparsers().items()} == OPTIONS

    def test_perfbench_flags_are_options(self, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        argvs = [op.argv(0, Path("x")) for w in workloads.WORKLOADS.values() for op in w.ops]
        argvs += [[*probe, "--seed", "0"] for w in workloads.WORKLOADS.values() for probe in w.probe]
        for cmd, *rest in argvs:
            assert {a for a in rest if a.startswith("--")} <= OPTIONS[cmd], cmd

    def test_every_field_has_one_section(self):
        listed = [name for names in _SECTIONS.values() for name in names]
        assert sorted(listed) == sorted(f.name for f in fields(RunConfig))

    def test_every_field_round_trips_through_the_file(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(RunConfig)}
        for name, value in NON_DEFAULT.items():
            cfg = replace(RunConfig(), **{name: value})
            assert getattr(cfg, name) != getattr(RunConfig(), name), name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert parse_config(dump_config(cfg)) == cfg, name

    def test_every_flag_round_trips(self, monkeypatch):
        monkeypatch.delenv("EDWARDSIM_OUTDIR", raising=False)
        parser = _build_parser()
        for cmd, sub in _subparsers().items():
            base = RunConfig(**_COMMANDS[cmd].defaults)
            for action in sub._actions:
                if action.dest not in NON_DEFAULT:
                    continue
                value = NON_DEFAULT[action.dest]
                args = parser.parse_args([cmd, action.option_strings[0], str(value)])
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    cfg = _effective_config(args)
                assert cfg == replace(base, **{action.dest: value}), (cmd, action.dest)
