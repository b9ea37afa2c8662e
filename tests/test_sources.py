"""Source rules of the package: one single-trajectory integrator, no scalar
quadrature, no sampled orbits in the Melnikov projections, one projection
route for the pendulum, and experiments kept apart from the command line.

Single trajectories go through ``dynamics._dop853`` and orbit integrals
through array rules; SciPy's ``solve_ivp`` and ``quad`` stay in the tests
as reference oracles only.  ``melnikov`` reads each orbit's Fourier
coefficients in closed form, so it neither evaluates orbits nor takes an
FFT; the sampled projection is an oracle of the tests too.  ``pendulum``
projects its forcing only through ``bifurcation.predicted_curves``, so it
uses none of the projection's building blocks, and it reduces only through
``normalform``, so it takes no square root for a scaling of its own.  The
``verify`` experiments live in ``experiments``, which knows nothing of
argument parsing, and ``cli`` defines none of them.  Every function a
module lists in its ``__all__`` has a consumer outside the tests: a call
from its own module, or an import or attribute read in another module of
the package or of the benchmark.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import doublezero

BANNED = {"solve_ivp", "quad"}
#: Names banned in one module on top of ``BANNED``.
MODULE_BANNED = {
    "melnikov.py": {"evaluate", "fft"},
    "pendulum.py": {
        "complete_K", "sinh", "cosh", "fourier_weight_het", "fourier_weight_hom",
        "_velocity_spectrum", "sqrt",
    },
}
MODULES = sorted(Path(doublezero.__file__).parent.glob("*.py"))


def banned_names(tree: ast.AST, banned: set[str] = BANNED) -> list[str]:
    """Imports of a banned name or from a banned module, and attribute uses
    such as ``integrate.quad``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found += [p for p in node.module.split(".") if p in banned]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.rsplit(".", 1)[-1] in banned]
        elif isinstance(node, ast.Attribute) and node.attr in banned:
            found.append(node.attr)
    return found


def test_the_rule_sees_imports_and_attribute_uses() -> None:
    source = "from scipy.integrate import quad\nimport scipy.integrate\nscipy.integrate.solve_ivp\n"
    assert banned_names(ast.parse(source)) == ["quad", "solve_ivp"]
    assert {"dynamics.py", "orbits.py", "cli.py"} <= {p.name for p in MODULES}


def test_the_rule_sees_fft_modules_and_orbit_evaluation() -> None:
    source = (
        "from numpy.fft import rfft\nfrom .orbits import evaluate, period\n"
        "import scipy.fft\nnp.fft.rfft(z)\norbits.evaluate(fam, k, t)\n"
    )
    assert sorted(banned_names(ast.parse(source), MODULE_BANNED["melnikov.py"])) == [
        "evaluate", "evaluate", "fft", "fft", "scipy.fft"
    ]
    assert set(MODULE_BANNED) <= {p.name for p in MODULES}


def test_the_rule_sees_the_projection_building_blocks() -> None:
    source = (
        "from .elliptic import complete_K\nfrom .melnikov import fourier_weight_het\n"
        "from .orbits import _velocity_spectrum\nmath.sinh(x)\nnp.cosh(y)\n"
        "melnikov.fourier_weight_hom(chi)\nfrom math import sqrt\nnp.sqrt(z)\n"
    )
    assert sorted(banned_names(ast.parse(source), MODULE_BANNED["pendulum.py"])) == [
        "_velocity_spectrum", "complete_K", "cosh", "fourier_weight_het",
        "fourier_weight_hom", "sinh", "sqrt", "sqrt",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_neither_solve_ivp_nor_quad(path: Path) -> None:
    assert banned_names(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("name", sorted(MODULE_BANNED))
def test_module_uses_none_of_its_own_banned_names(name: str) -> None:
    path = Path(doublezero.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    assert banned_names(tree, MODULE_BANNED[name]) == []


def boundary_faults(experiments: ast.AST, cli: ast.AST) -> list[str]:
    """Imports of ``cli`` or ``argparse`` in ``experiments``, and
    ``experiment_*`` functions defined in ``cli``."""
    found = []
    for node in ast.walk(experiments):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [n for n in names if n.rsplit(".", 1)[-1] in ("cli", "argparse")]
    for node in ast.walk(cli):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("experiment_"):
            found.append(node.name)
    return found


def test_the_boundary_rule_sees_imports_and_definitions() -> None:
    experiments = ast.parse("import argparse\nfrom . import cli\nfrom .cli import main\n")
    cli = ast.parse("def experiment_hhat():\n    pass\n")
    assert boundary_faults(experiments, cli) == ["argparse", "cli", "cli", "experiment_hhat"]


def test_experiments_stay_apart_from_the_command_line() -> None:
    root = Path(doublezero.__file__).parent
    trees = [ast.parse((root / name).read_text()) for name in ("experiments.py", "cli.py")]
    assert boundary_faults(*trees) == []


def public_functions(tree: ast.Module) -> list[str]:
    """Module-level functions that the module lists in its ``__all__``."""
    listed: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = ast.literal_eval(node.value)
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return [name for name in listed if name in defined]


def imported_or_read(tree: ast.AST) -> set[str]:
    """Names a module imports with ``from ... import`` or reads as attributes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def own_uses(tree: ast.Module) -> set[str]:
    """Names a module reads, each outside the body of the function it names."""
    return {
        node.id
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name)
        and not (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and top.name == node.id)
    }


def unconsumed(package: dict[str, ast.Module], consumers: list[ast.AST]) -> list[str]:
    """``module.function`` for each public function of a package module that
    neither its own module nor any other module of ``package`` or
    ``consumers`` uses."""
    found = []
    for name, tree in package.items():
        used = own_uses(tree).union(
            *(imported_or_read(t) for other, t in package.items() if other != name),
            *(imported_or_read(t) for t in consumers),
        )
        found += [f"{name}.{f}" for f in public_functions(tree) if f not in used]
    return found


def test_the_consumer_rule_sees_imports_attributes_and_own_callers() -> None:
    package = {
        "a": ast.parse(
            "__all__ = ['imported', 'read', 'called', 'recursive', 'unused', 'Kind']\n"
            "def imported(): pass\ndef read(): pass\ndef called(): pass\n"
            "def recursive(): return recursive()\ndef unused(): pass\n"
            "def helper(): return called()\nclass Kind: pass\n"
        ),
        "b": ast.parse("from .a import imported\nfrom . import a\na.read()\n"),
    }
    assert unconsumed(package, []) == ["a.recursive", "a.unused"]
    bench = ast.parse("from doublezero import recursive, unused\n")
    assert unconsumed(package, [bench]) == []


def test_every_public_function_has_a_consumer_outside_the_tests() -> None:
    # The package's ``__init__`` only re-exports, so it consumes nothing;
    # the benchmark's own tests do not count either.
    package = {p.stem: ast.parse(p.read_text()) for p in MODULES if p.name != "__init__.py"}
    root = Path(__file__).resolve().parents[1] / "perfbench"
    bench = [
        ast.parse(p.read_text())
        for p in sorted(root.rglob("*.py"))
        if "tests" not in p.relative_to(root).parts
    ]
    assert bench and {"dynamics", "experiments", "cli"} <= set(package)
    assert unconsumed(package, bench) == []
