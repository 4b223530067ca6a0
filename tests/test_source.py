"""Source hygiene: no module of the package imports a name it never uses,
none imports scipy, only the front ends import the oracles, only green.py
decides what a boundary condition means, and the amplitude-phase route
names none of the main path's endpoint data."""

import ast
from pathlib import Path

import pytest

import flucdet
from flucdet import cli, ermakov, green, odesolve

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


def oracle_imports(source: str) -> list:
    """Imports of flucdet.oracle, absolute or relative, at any depth."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["flucdet" if node.level else None, node.module]))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return [name for name in names if name == "flucdet.oracle"]


def test_detects_oracle_import():
    source = ("from .oracle import lattice_ratio\nimport flucdet.oracle\n"
              "from . import green, odesolve\nfrom .oracles import x\nimport oracle\n"
              "def f():\n    from . import oracle  # imported on first use\n"
              "    from flucdet import oracle as o\n    from flucdet.oracle import gflow_ratio\n")
    assert oracle_imports(source) == ["flucdet.oracle"] * 5


ORACLE_READERS = ("oracle.py", "cli.py", "__init__.py")
MAIN_PATH = [path for path in ALL_SOURCES if path.name not in ORACLE_READERS]


@pytest.mark.parametrize("path", MAIN_PATH, ids=[path.name for path in MAIN_PATH])
def test_main_path_does_not_import_oracle(path):
    """The oracles check the main path, so no main-path module reads them."""
    assert oracle_imports(path.read_text(encoding="utf-8")) == []


def test_one_boundary_condition_check():
    """One module refuses an unknown boundary condition."""
    refusing = [path.name for path in ALL_SOURCES
                if "unsupported boundary condition" in path.read_text(encoding="utf-8")]
    assert refusing == ["green.py"]


@pytest.mark.parametrize("command", [cli.det_command, cli.green_command, cli.sweep_command],
                         ids=["det", "green", "sweep"])
def test_cli_bc_choices_are_greens(command):
    (bc,) = [param for param in command.params if param.name == "bc"]
    assert list(bc.type.choices) == list(green._SIGMA)


MAIN_PATH_NAMES = {"make_basis", "_magnus", "_MagnusGrid", "_family", "det_from_transfer"}


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
    odesolve_tree = ast.parse(Path(odesolve.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in odesolve_tree.body
                 if isinstance(node, ast.FunctionDef)}
    trees = [ast.parse(Path(ermakov.__file__).read_text(encoding="utf-8"))] + [
        functions[name] for name in ("solve_ermakov", "_integrate_ermakov", "_pinney_start")]
    for tree in trees:
        assert names_read(tree) & MAIN_PATH_NAMES == set()
