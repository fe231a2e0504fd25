"""The import contract: a run loads only the scipy submodules it calls.

scipy.integrate and scipy.special serve only the continuum quadrature
references, which no CLI subcommand calls, and no module imports
scipy.linalg: the covariance factor and solve use numpy's LAPACK and the
MALA target's Gram kernel is one numpy einsum. So no subcommand loads a
scipy submodule, and every run, `quantize-run` included, maps numpy's
OpenBLAS and no second one. The manifest's environment block is written by
every run below, so it too is held to the contract. Every check runs in a
fresh interpreter, since this session has long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def loaded_after(argv_groups: list[list[list[str]]]) -> list[dict]:
    """Run the CLI on every argv in turn, and after each group note the scipy
    modules loaded and the number of OpenBLAS libraries mapped (None where
    /proc/self/maps is absent)."""
    body = (
        "import os\n"
        "from edwardsim.cli import main\n"
        "RESULT = []\n"
        f"for group in {argv_groups!r}:\n"
        "    for argv in group:\n"
        "        assert main(argv) == 0, argv\n"
        "    blas = None\n"
        "    if os.path.exists('/proc/self/maps'):\n"
        "        with open('/proc/self/maps') as fh:\n"
        "            blas = len({ln.split()[-1] for ln in fh if 'openblas' in ln.lower()})\n"
        "    scipy = sorted(m for m in sys.modules if m.startswith('scipy.'))\n"
        "    RESULT.append({'scipy': scipy, 'openblas': blas})\n"
    )
    return [{"scipy": set(r["scipy"]), "openblas": r["openblas"]} for r in run_fresh(body)]


@pytest.fixture(scope="module")
def non_chain_then_chain(tmp_path_factory):
    """What the five subcommands that build no chain load at N = 64, and
    then what a short chain adds, in one fresh interpreter."""
    small = ["--n", "64", "--seed", "3", "--out", str(tmp_path_factory.mktemp("imports"))]
    return loaded_after(
        [
            [
                ["sample-fbm", "--paths", "2", *small],
                ["silt", "--paths", "2", "--levels", "4", *small],
                ["holder-check", "--paths", "4", *small],
                ["density-scan", "--paths", "4", "--n-u", "3", *small],
                ["edwards-estimate", "--paths", "8", "--levels", "4", *small],
            ],
            [["quantize-run", "--iterations", "20", "--burn-in", "0", "--thin", "1", *small]],
        ]
    )


def test_non_chain_subcommands_load_no_scipy_submodule(non_chain_then_chain):
    # each of them builds the N = 64 factor; holder-check and density-scan
    # also solve with it
    assert not {"scipy.linalg", "scipy.integrate", "scipy.special"} & non_chain_then_chain[0]["scipy"]


def assert_one_openblas(group: dict) -> None:
    if group["openblas"] is None:
        pytest.skip("no /proc/self/maps to count mapped libraries")
    assert group["openblas"] == 1


def test_non_chain_subcommands_map_one_openblas(non_chain_then_chain):
    assert_one_openblas(non_chain_then_chain[0])


def test_chain_maps_one_openblas(non_chain_then_chain):
    # the MALA target's kernel and gradient product run on numpy alone
    assert_one_openblas(non_chain_then_chain[1])


def test_subcommands_load_no_quadrature_stack(non_chain_then_chain):
    # quantize-run, after the other five, loads no scipy submodule either
    assert not {"scipy.linalg", "scipy.integrate", "scipy.special"} & non_chain_then_chain[1]["scipy"]


def test_circulant_grid_runs_load_no_scipy_submodule(tmp_path):
    large = ["--n", "3072", "--paths", "2", "--out", str(tmp_path)]
    loaded = loaded_after([[["sample-fbm", *large], ["silt", "--levels", "4", *large]]])[0]["scipy"]
    assert not {"scipy.linalg", "scipy.integrate", "scipy.special"} & loaded


def test_quadratures_match_in_process_bit_for_bit():
    fresh = run_fresh("from test_imports import quadrature_values\nRESULT = quadrature_values()")
    assert fresh == quadrature_values()
