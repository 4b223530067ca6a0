"""Source hygiene: no module of the package imports a name it never uses,
the package imports exactly the dependencies pyproject.toml lists (click
not among them), none imports scipy, only the front ends import the
oracles, only green.py decides what a boundary condition means and forms a
determinant from M's entries, no route imports determinants.py, one pivot
loop reads a lattice's rows, one function forms the Magnus layer's 2x2
products, two entries (one operator, one family) run the Magnus step
doubling and hand back what it finds, only profiles.py's make_* functions
build a profile, and the amplitude-phase route names none of the main path's
endpoint data, nor the Magnus integrator's module any of that route's."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flucdet
from flucdet import cli, dop853, ermakov, green, odesolve, oracle

ALL_SOURCES = sorted(Path(flucdet.__file__).parent.glob("*.py"))
SOURCES = [path for path in ALL_SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_detects_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, List\nx: List[int]\n") == [
        "os", "Optional"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports at any depth, less the
    standard library and flucdet itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"flucdet"}


def test_detects_third_party_imports():
    source = ("from __future__ import annotations\nimport argparse, numpy as np\n"
              "import numpy.linalg\nfrom flucdet.green import F\nfrom . import click\n"
              "def f():\n    import scipy.integrate  # imported on first use\n"
              "    from click import echo\n")
    assert third_party_imports(source) == {"numpy", "scipy", "click"}


def test_imports_are_the_listed_dependencies():
    """The package imports what pyproject.toml's dependencies list, and
    nothing it lists goes unimported: numpy alone."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    names = {re.match(r"[\w.-]+", req).group(0).lower().replace("-", "_")
             for req in re.findall(r'"([^"]+)"', listed)}
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in ALL_SOURCES))
    assert imported == names == {"numpy"}


def test_cli_import_loads_no_click():
    """The command line parses with argparse: a cold import of the CLI
    module loads no click module."""
    code = ("import sys, flucdet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
    env = dict(os.environ, PYTHONPATH=str(Path(flucdet.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def scipy_imports(source: str) -> list:
    """Imports of scipy or of anything under it, at any depth, by the dotted
    name each binds."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "scipy"):
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


def test_detects_scipy_integrate_import():
    source = ("import scipy.integrate\nimport scipy.optimize\nimport scipyx, numpy\n"
              "from .scipy import odesolve\n"
              "def f():\n    from scipy.integrate import solve_ivp\n"
              "    from scipy import integrate, linalg\n"
              "    from scipy.integrate._ivp import rk\n"
              "    from scipy.interpolate import CubicSpline\n"
              "    from scipy.optimize import brentq  # imported on first use\n"
              "    import scipy\n")
    assert scipy_imports(source) == [
        "scipy.integrate", "scipy.optimize", "scipy.integrate.solve_ivp", "scipy.integrate",
        "scipy.linalg", "scipy.integrate._ivp.rk", "scipy.interpolate.CubicSpline",
        "scipy.optimize.brentq", "scipy"]


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[path.name for path in ALL_SOURCES])
def test_no_scipy_integrate_import(path):
    """No module of the package imports scipy, scipy.integrate included."""
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


NUMPY_AVOIDED = ("unique", "polynomial", "ma")


def numpy_avoided(source: str) -> list:
    """Reads of np.unique, np.polynomial and np.ma (numpy. alike) and
    imports of them or of anything under the last two, by dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and node.attr in NUMPY_AVOIDED:
                found.append(f"numpy.{node.attr}")
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [".".join(name.split(".")[:2]) for name in names
                  if name.split(".")[0] == "numpy" and name.split(".")[1:2] in (
                      [word] for word in NUMPY_AVOIDED)]
    return found


def test_detects_numpy_avoided():
    source = ("import numpy as np\nimport numpy.ma\nimport numpy.linalg\n"
              "from numpy.polynomial import legendre\nfrom numpy import unique, sort\n"
              "def f(x):\n    np.unique(x)\n    numpy.ma.is_masked(x)\n"
              "    return np.polynomial.legendre.leggauss(4), np.sort(x), np.ma\n")
    assert sorted(numpy_avoided(source)) == ["numpy.ma"] * 3 + ["numpy.polynomial"] * 2 + [
        "numpy.unique"] * 2


@pytest.mark.parametrize("path", ALL_SOURCES, ids=[path.name for path in ALL_SOURCES])
def test_no_numpy_unique_polynomial_or_ma(path):
    """np.unique imports numpy.ma (10-15 ms) to check for masked arrays and
    np.polynomial costs 3-7 ms to import, so no module calls or reaches
    them."""
    assert numpy_avoided(path.read_text(encoding="utf-8")) == []


def module_imports(source: str, target: str) -> list:
    """Imports of the module target (say flucdet.oracle), absolute or
    relative, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["flucdet" if node.level else None, node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return [name for name in names if name == target]


def test_detects_oracle_import():
    source = ("from .oracle import lattice_ratio\nimport flucdet.oracle\n"
              "from . import green, odesolve\nfrom .oracles import x\nimport oracle\n"
              "def f():\n    from . import oracle  # imported on first use\n"
              "    from flucdet import oracle as o\n    from flucdet.oracle import gflow_ratio\n")
    assert module_imports(source, "flucdet.oracle") == ["flucdet.oracle"] * 5


ORACLE_READERS = ("oracle.py", "cli.py", "__init__.py")
MAIN_PATH = [path for path in ALL_SOURCES if path.name not in ORACLE_READERS]


@pytest.mark.parametrize("path", MAIN_PATH, ids=[path.name for path in MAIN_PATH])
def test_main_path_does_not_import_oracle(path):
    """The oracles check the main path, so no main-path module reads them."""
    assert module_imports(path.read_text(encoding="utf-8"), "flucdet.oracle") == []


def test_one_boundary_condition_check():
    """One module refuses an unknown boundary condition."""
    refusing = [path.name for path in ALL_SOURCES
                if "unsupported boundary condition" in path.read_text(encoding="utf-8")]
    assert refusing == ["green.py"]


@pytest.mark.parametrize("module", [ermakov, oracle], ids=["ermakov", "oracle"])
def test_routes_do_not_import_determinants(module):
    """The pq route and the oracles read F's reference and zero verdict from
    green.py; determinants.py assembles the endpoint route's records."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert module_imports(source, "flucdet.determinants") == []


ROW_NAMES = {"gap", "diag"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def row_loops(source: str) -> list:
    """The module-level functions with a loop (for, while or a comprehension)
    that reads a lattice's rows, its gaps or its diagonal 2 - gap (a name or
    attribute gap or diag), in its iterable, condition or body."""
    def reads_rows(loop) -> bool:
        return any((isinstance(node, ast.Name) and node.id in ROW_NAMES)
                   or (isinstance(node, ast.Attribute) and node.attr in ROW_NAMES)
                   for node in ast.walk(loop))

    return [top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)
            and any(isinstance(node, LOOPS) and reads_rows(node) for node in ast.walk(top))]


def test_detects_row_loops():
    source = ("def _pivots(op):\n    for g in op.gap.tolist():\n        pass\n"
              "def _count(op, mu):\n    gap, k = op.gap + mu, 0\n"
              "    while k < len(gap):\n        k += 1\n"
              "def _dense(op):\n    return [op.diag[k] for k in range(3)]\n"
              "def _slope(op, piv):\n    for w, p in zip(op.weight, piv):\n        pass\n"
              "    return op.gap\n")
    assert row_loops(source) == ["_pivots", "_count", "_dense"]


def test_one_pivot_loop():
    """_pivots is the one loop over a lattice's rows: every determinant,
    zero verdict and Sturm count of the lattice oracles reads its pivots,
    and the slope pass of _sweep runs over those pivots and the weights."""
    assert row_loops(Path(oracle.__file__).read_text(encoding="utf-8")) == ["_pivots"]


def forms_f(source: str) -> list:
    """Line numbers where F is formed from M's entries: 2 plus or minus a
    sum or a trace, or a multiple of one (2 - sigma (M11 + M22))."""
    def sum_or_trace(node) -> bool:
        return ((isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add))
                or (isinstance(node, ast.Call) and "trace" in ast.unparse(node.func)))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.left, ast.Constant) and node.left.value == 2):
            right = node.right
            if sum_or_trace(right) or (isinstance(right, ast.BinOp)
                                       and isinstance(right.op, ast.Mult)
                                       and (sum_or_trace(right.left) or sum_or_trace(right.right))):
                lines.append(node.lineno)
    return sorted(lines)


def test_detects_forming_f():
    source = ("f = 2.0 - sigma * (a + d) if sigma else b\ng = 2 + (m[0, 0] + m[1, 1])\n"
              "h = 2.0 - np.trace(m) * s\nk = 2.0 - trace\nz = 2.0 - gap[-1] - y @ z\n"
              "w = abs(2.0 - gap) + 2.0\nroot = (2.0 - trace) * (2.0 + trace)\n")
    assert forms_f(source) == [1, 2, 3]
    # _read_transfer, the one float read of M
    assert len(forms_f(Path(green.__file__).read_text(encoding="utf-8"))) == 1


NOT_GREEN = [path for path in SOURCES if path.name != "green.py"]


@pytest.mark.parametrize("path", NOT_GREEN, ids=[path.name for path in NOT_GREEN])
def test_only_green_forms_f(path):
    """F = M12 or 2 - sigma tr M is formed from M's entries in green.py alone."""
    assert forms_f(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("command", ["det", "green", "sweep"])
def test_cli_bc_choices_are_greens(capsys, command):
    """Each command's --bc choices, as its parser lists them, are green.py's
    conditions in green.py's order."""
    assert cli.main([command, "--help"]) == 0
    choices = re.findall(r"--bc \{(.*?)\}", capsys.readouterr().out)
    assert choices and all(found.split(",") == list(green._SIGMA) for found in choices)


MAIN_PATH_NAMES = {"make_basis", "_magnus", "_MagnusGrid", "_family", "_read_transfer"}


def names_read(tree) -> set:
    """Every identifier a syntax tree names: variables, attributes and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names |= {node.name, node.asname}
    return names


def test_detects_main_path_names():
    source = "from .odesolve import make_basis as mb\ndef f(x):\n    return odesolve._magnus(x)\n"
    assert names_read(ast.parse(source)) & MAIN_PATH_NAMES == {"make_basis", "_magnus"}


def test_pq_route_reads_its_own_solve():
    """The amplitude-phase route checks the Magnus product, so neither its
    module nor its solver names the main path's endpoint data."""
    for module in (ermakov, dop853):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        assert names_read(tree) & MAIN_PATH_NAMES == set()


PQ_NAMES = {"ermakov", "solve_ermakov", "ErmakovSolution", "_pinney_start", "_superposition",
            "SHOOTING_TOL", "DEFAULT_RTOL", "DEFAULT_ATOL", "dop853"}


def pq_names(source: str) -> set:
    """The amplitude-phase route's names that a module defines, imports or
    reads outside its module-level __getattr__ (a PEP 562 re-export)."""
    names = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "__getattr__":
            continue
        names |= names_read(top)
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names & PQ_NAMES


def test_detects_pq_names():
    source = ("from .dop853 import solve\nSHOOTING_TOL = 1e-8\n"
              "class ErmakovSolution:\n    pass\n"
              "def _pinney_start(sol):\n    return sol.DEFAULT_RTOL\n"
              "def __getattr__(name):\n    from .ermakov import solve_ermakov\n"
              "    return solve_ermakov\n")
    assert pq_names(source) == {"dop853", "SHOOTING_TOL", "ErmakovSolution", "_pinney_start",
                                "DEFAULT_RTOL"}


def matrix_products(source: str) -> list:
    """The functions that form 2x2 products: those that call einsum, and
    those that return a tuple holding a sum or difference of two products
    (b[0] * a[0] + b[1] * a[2], an entry of b @ a)."""
    def sum_of_products(node) -> bool:
        return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and all(isinstance(x, ast.BinOp) and isinstance(x.op, ast.Mult)
                        for x in (node.left, node.right)))

    names = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef):
            nodes = list(ast.walk(fn))
            einsum = any(isinstance(n, ast.Attribute) and n.attr == "einsum"
                         or isinstance(n, ast.Name) and n.id == "einsum" for n in nodes)
            entries = any(isinstance(n, ast.Return) and isinstance(n.value, ast.Tuple)
                          and any(map(sum_of_products, n.value.elts)) for n in nodes)
            if einsum or entries:
                names.append(fn.name)
    return sorted(names)


def test_detects_matrix_products():
    source = ("def mul(b, a):\n    return (b[0] * a[0] + b[1] * a[2], b[0] * a[1])\n"
              "def prod(b, a):\n    return np.einsum('ij,jk->ik', b, a)\n"
              "def ein(b, a):\n    return einsum('ij,jk->ik', b, a)\n"
              "def det(y):\n    return y[0] * y[3] - y[1] * y[2]\n"
              "def pair(x, y):\n    return x + y, x * y\n")
    assert matrix_products(source) == ["ein", "mul", "prod"]


def test_one_matrix_product():
    """odesolve.py forms 2x2 products in _product alone: the step kernel,
    the pairwise reductions, the scans and the frames share one (2, 2, ...)
    layout, with no second, entrywise product."""
    assert matrix_products(Path(odesolve.__file__).read_text(encoding="utf-8")) == ["_product"]


def callers(source: str, name: str) -> set:
    """The innermost functions, by name, that call name(...) or x.name(...),
    with '<module>' for a call outside every function."""
    found = set()

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        elif isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_callers():
    source = ("def f():\n    return _magnus(1)\n"
              "def g():\n    def h():\n        return odesolve._magnus(2)\n    return h\n"
              "x = FrequencyProfile(_magnus)\n")
    assert callers(source, "_magnus") == {"f", "h"}
    assert callers(source, "FrequencyProfile") == {"<module>"}


def all_callers(name: str) -> set:
    """(module file, function) of every call of name in the package."""
    return {(path.name, fn) for path in ALL_SOURCES
            for fn in callers(path.read_text(encoding="utf-8"), name)}


def test_two_magnus_entries():
    """The step doubling runs under _solve, one operator c0 + c1 Omega^2 on
    Python floats, and _family, members on an axis, alone."""
    assert all_callers("_magnus") == {("odesolve.py", "_solve"), ("odesolve.py", "_family")}


def test_profiles_built_by_make_functions():
    """FrequencyProfile(...) is built in profiles.py's public make_*
    functions alone: a shifted or scaled Omega^2 is a Magnus member (c0,
    c1), not a wrapped profile."""
    found = all_callers("FrequencyProfile")
    assert found and all(module == "profiles.py" and fn.startswith("make_")
                         for module, fn in found)


def test_results_handed_back(modulated_profile):
    """The solves return the coarsest level next to M, so no grid carries
    it; a basis holds the M it is built with as a field, and no module
    writes into an object's __dict__."""
    grids = [odesolve._solve(modulated_profile, 0.0, 1.0)[0]] + [
        group[1] for group in odesolve._family(modulated_profile, [0.0, 0.0], [1.0, 0.5])]
    assert not any(hasattr(grid, "coarsest") for grid in grids)
    assert "m" in {f.name for f in dataclasses.fields(odesolve.HomogeneousBasis)}
    for path in ALL_SOURCES:
        assert "__dict__" not in {node.attr for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}


def test_odesolve_is_the_magnus_integrator_alone():
    """odesolve.py defines, imports and reads none of the amplitude-phase
    route's names; only its __getattr__ resolves solve_ermakov."""
    assert pq_names(Path(odesolve.__file__).read_text(encoding="utf-8")) == set()


PUBLIC_NAMES = [
    "ConfigError", "DegenerateOperatorError", "DetResult", "ErmakovSolution", "FlucdetError",
    "FrequencyProfile", "GreenKernel", "HomogeneousBasis", "IntegrationError", "Interval",
    "ProfileError", "ShootingError", "SpectrumReport", "SyntheticZeroModeSpec",
    "VerificationError", "ZeroModeReport", "basis_from_pq", "builtin_zero_mode_spec",
    "det_antiperiodic", "det_dirichlet", "det_dirichlet_regularized", "det_periodic",
    "det_periodic_regularized", "det_ratio_dirichlet_pq", "det_ratio_periodic_pq",
    "determinant", "free_reference", "gflow_ratio", "lattice_ratio",
    "lattice_ratio_richardson", "make_basis", "make_constant_profile",
    "make_modulated_profile", "make_user_profile", "make_zero_mode_profile",
    "profile_from_config", "pseudo_det_ratio", "solve_ermakov", "trace_omega_sq",
    "van_vleck_check",
]
PRIVATE_NAMES = ["det_from_transfer", "build_lattice", "LatticeOperator", "shifted_profile",
                 "profile_to_config", "mix_basis", "trace_identity_residual"]


def test_public_names():
    """The package's public surface is these 40 names, so a change to it
    edits this list; the names that went private to their modules do not
    resolve on the package."""
    assert sorted(flucdet.__all__) == PUBLIC_NAMES
    for name in PRIVATE_NAMES:
        with pytest.raises(AttributeError):
            getattr(flucdet, name)
