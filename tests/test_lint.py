"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edwardsim"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# callables that build a generator; only rng.py, which owns the key policy, calls them
GENERATOR_CONSTRUCTORS = {"Philox", "Generator", "default_rng"}
# scripts whose imports are linted alongside the package modules
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.

    A name counts as read when it appears as a bare name (attribute chains
    start with one, so `np.exp` reads `np`) or is listed in `__all__`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def private_definitions(source: str) -> dict[str, int]:
    """Module-level private names (a `_`-prefixed def, class or assignment
    target, dunders aside) and their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def names_read(source: str) -> set[str]:
    """Names a module reads: bare names loaded, attribute names, and names
    imported from another module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of any module that no module reads."""
    read = set().union(*(names_read(s) for s in sources.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    )


def imports_package(source: str, package: str) -> bool:
    """Whether the source imports `package` or any of its submodules; a
    dotted `package` matches itself and its own submodules."""
    depth = package.count(".") + 1
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(".".join(name.split(".")[:depth]) == package for name in names):
            return True
    return False


def public_functions_taking(source: str, *params: str) -> list[str]:
    """Public functions and methods, constructors included, that have every
    one of `params`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "__init__" or not node.name.startswith("_"):
            args = node.args
            names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            if set(params) <= names:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def generator_constructions(source: str) -> list[str]:
    """Calls that build a numpy bit generator or Generator, by attribute
    (`np.random.Philox(...)`) or by imported name (`default_rng(...)`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in GENERATOR_CONSTRUCTORS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_finds_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = os.sep\n"
    assert unused_imports(source) == ["field (line 2)"]


def test_modules_are_found():
    assert {"silt.py", "fbm.py", "mala.py"} <= {p.name for p in MODULES}
    assert {"test_lint.py", "01_sample_paths.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports_in_scripts(path):
    assert unused_imports(path.read_text()) == []


def test_finds_package_imports():
    assert imports_package("from concurrent.futures import ThreadPoolExecutor\n", "concurrent")
    assert imports_package("import concurrent.futures as cf\n", "concurrent")
    assert not imports_package("from .concurrent import x\nimport threading\n", "concurrent")
    assert imports_package("from scipy.linalg.blas import dgemm\n", "scipy.linalg")
    assert imports_package("def f():\n    import scipy.linalg as sl\n", "scipy.linalg")
    assert imports_package("from scipy import linalg\n", "scipy.linalg")
    assert not imports_package("import scipy.special\nfrom scipy import integrate\n", "scipy.linalg")


def test_only_silt_imports_a_thread_pool():
    # the SILT kernel's chunk pool is the package's only thread pool
    importers = [p.name for p in SOURCES if imports_package(p.read_text(), "concurrent")]
    assert importers == ["silt.py"]


def test_no_module_imports_scipy_linalg():
    # numpy's LAPACK factors and solves, and the chain's kernel is a numpy
    # einsum: scipy.linalg would map a second OpenBLAS into every chain
    assert [p.name for p in SOURCES if imports_package(p.read_text(), "scipy.linalg")] == []


def test_finds_a_function_taking_grid_and_cov():
    source = "def a(grid, *, cov=None):\n    pass\n\ndef _b(grid, cov):\n    pass\n\ndef c(cov):\n    pass\n"
    assert public_functions_taking(source, "grid", "cov") == ["a (line 1)"]
    source = "class A:\n    def __init__(self, params, grid=None):\n        pass\n"
    assert public_functions_taking(source, "params", "grid") == ["__init__ (line 2)"]


def test_no_public_function_takes_grid_and_cov():
    # a grid beside a covariance would be a second, unchecked source of the grid
    assert [f for p in SOURCES for f in public_functions_taking(p.read_text(), "grid", "cov")] == []


def carriers_beside_grid_or_cov(source: str) -> list[str]:
    """Public functions that take a shift or an ensemble, which carries its
    covariance, together with a `grid` or a `cov`."""
    pairs = [(a, b) for a in ("shift", "ensemble") for b in ("grid", "cov")]
    return sorted({f for pair in pairs for f in public_functions_taking(source, *pair)})


def test_finds_a_shift_or_ensemble_beside_grid_or_cov():
    source = (
        "def a(params, shift, *, cov=None):\n    pass\n\n"
        "def b(shift, values, grid):\n    pass\n\n"
        "def c(f, ensemble, *, cov=None):\n    pass\n\n"
        "def _d(shift, grid):\n    pass\n\n"
        "def e(shift, values):\n    pass\n"
    )
    assert carriers_beside_grid_or_cov(source) == ["a (line 1)", "b (line 4)", "c (line 7)"]


def test_no_public_function_takes_a_shift_or_ensemble_beside_grid_or_cov():
    # a shift or an ensemble carries its covariance; a second one beside it
    # would be an unchecked source of the law and the grid
    assert [f for p in SOURCES for f in carriers_beside_grid_or_cov(p.read_text())] == []


def test_no_constructor_takes_params_and_grid():
    # params fixes the grid; a constructor taking both would hold two grids
    found = [f for p in SOURCES for f in public_functions_taking(p.read_text(), "params", "grid")]
    assert [f for f in found if f.startswith("__init__")] == []


def test_finds_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _helper\n\nx = _helper()\n",
    }
    assert unread_private_names(sources) == ["a.py: _DEAD (line 2)", "a.py: _Gone (line 7)"]


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in SOURCES}) == []


def test_finds_generator_constructions():
    source = (
        "import numpy as np\nfrom numpy.random import default_rng\n\n"
        "g = np.random.Generator(np.random.Philox(key=k))\n"
        "h = default_rng(3)\nt: np.random.Generator = g\nx = g.standard_normal(3)\n"
    )
    assert sorted(generator_constructions(source)) == [
        "Generator (line 4)", "Philox (line 4)", "default_rng (line 5)"
    ]


def test_only_rng_constructs_generators():
    # every draw is keyed by (seed, index) in one place
    assert [p.name for p in SOURCES if generator_constructions(p.read_text())] == ["rng.py"]


def eps_sign_tests(source: str) -> list[str]:
    """Sign tests of an eps-named value (a name with a `_`-separated part
    starting with `eps`) against 0: positivity tests (`eps <= 0.0`,
    `self.eps0 > 0`, `0 < eps`, `np.any(density_epsilons <= 0)`), which
    belong in silt._check_eps, and the nonnegativity tests that NaN passes
    (`eps < 0`, `0 > eps`). `eps >= 0` and `0 <= eps`, which NaN fails,
    are not reported."""

    def names_eps(node) -> bool:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return any(part.startswith("eps") for part in name.lower().split("_"))

    def zero(node) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for left, op, right in zip(operands, node.ops, operands[1:]):
            if (isinstance(op, (ast.LtE, ast.Gt, ast.Lt)) and names_eps(left) and zero(right)) or (
                isinstance(op, (ast.Lt, ast.GtE, ast.Gt)) and zero(left) and names_eps(right)
            ):
                found.append(node.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_finds_eps_sign_tests():
    source = (
        "def f(eps, self, epsilons, steps):\n"
        "    a = eps <= 0.0\n    b = self.eps0 > 0\n    c = 0.0 < eps < 1.0\n"
        "    d = np.any(epsilons <= 0.0)\n    e = eps < 0.0\n    f = steps <= 0.0\n    g = eps <= 1.0\n"
        "    h = 0 > eps\n    i = eps >= 0.0\n    j = 0.0 <= eps\n"
    )
    assert eps_sign_tests(source) == ["line 2", "line 3", "line 4", "line 5", "line 6", "line 9"]


def test_eps_is_checked_in_one_place():
    # every eps goes through silt._check_eps, which compares a `value`: NaN
    # fails every comparison, so an `eps <= 0` test elsewhere would let it
    # through
    assert {p.name: eps_sign_tests(p.read_text()) for p in SOURCES if eps_sign_tests(p.read_text())} == {}
