"""The import contract: a run loads only the scipy submodules it calls.

scipy.integrate and scipy.special serve only the continuum quadrature
references, which no CLI subcommand calls; scipy.linalg serves the
covariance factor and solve, which a circulant-embedding grid never builds.
The manifest's environment block is written by every run below, so it too
is held to the contract. Every check runs in a fresh interpreter, since this
session has long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from edwardsim import (
    ModelParams,
    c_h_norm,
    gaussian_moment_integral,
    make_shift_from_h,
    sigma_matrix,
    silt_expectation,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def quadrature_values() -> list[str]:
    """The quadrature references at a few arguments, as float.hex strings."""
    sig = sigma_matrix(0.5, 0.0, 1.0, 0.5, 1.5)
    d1 = gaussian_moment_integral(sig, 0.1, 0.5, 1)
    d2 = gaussian_moment_integral(sig, 0.1, 0.75, 2)
    shift = make_shift_from_h(ModelParams(H=0.7, d=1, N=16), h=np.linspace(1.0, 2.0, 16))
    values = [
        silt_expectation(ModelParams(H=0.5, d=2), 0.01),
        silt_expectation(ModelParams(H=0.3, d=3, T=2.0), 0.05),
        c_h_norm(0.7),
        d1.numeric,
        d1.closed_form,
        d2.numeric,
        d2.closed_form,
        *shift.k.ravel(),
    ]
    return [float(v).hex() for v in values]


def run_fresh(body: str):
    """Run `body` in a new interpreter with the package and the tests first
    on its path; it leaves its answer in RESULT, which comes back as JSON."""
    code = (
        f"import json, sys\nsys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]\n"
        f"{body}\nprint(json.dumps(RESULT))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(argvs: list[list[str]]) -> set[str]:
    """scipy modules loaded once the CLI has run every argv in turn."""
    body = (
        "from edwardsim.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "RESULT = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
    )
    return set(run_fresh(body))


def test_subcommands_load_no_quadrature_stack(tmp_path):
    small = ["--n", "64", "--seed", "3", "--out", str(tmp_path)]
    loaded = scipy_modules_after(
        [
            ["sample-fbm", "--paths", "2", *small],
            ["silt", "--paths", "2", "--levels", "4", *small],
            ["holder-check", "--paths", "4", *small],
            ["density-scan", "--paths", "4", "--n-u", "3", *small],
            ["edwards-estimate", "--paths", "8", "--levels", "4", *small],
            ["quantize-run", "--iterations", "20", "--burn-in", "0", "--thin", "1", *small],
        ]
    )
    assert "scipy.linalg" in loaded  # the factor at N = 64 is built
    assert "scipy.integrate" not in loaded
    assert "scipy.special" not in loaded


def test_circulant_grid_runs_load_no_scipy_submodule(tmp_path):
    large = ["--n", "3072", "--paths", "2", "--out", str(tmp_path)]
    loaded = scipy_modules_after([["sample-fbm", *large], ["silt", "--levels", "4", *large]])
    assert not {"scipy.linalg", "scipy.integrate", "scipy.special"} & loaded


def test_quadratures_match_in_process_bit_for_bit():
    fresh = run_fresh("from test_imports import quadrature_values\nRESULT = quadrature_values()")
    assert fresh == quadrature_values()
