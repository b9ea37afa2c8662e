"""Source rules of the package: one single-trajectory integrator, no scalar quadrature.

Single trajectories go through ``dynamics._dop853`` and orbit integrals
through array rules; SciPy's ``solve_ivp`` and ``quad`` stay in the tests
as reference oracles only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import doublezero

BANNED = {"solve_ivp", "quad"}
MODULES = sorted(Path(doublezero.__file__).parent.glob("*.py"))


def banned_names(tree: ast.AST) -> list[str]:
    """Imports of a banned name and attribute uses such as ``integrate.quad``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [a.name for a in node.names if a.name.rsplit(".", 1)[-1] in BANNED]
        elif isinstance(node, ast.Attribute) and node.attr in BANNED:
            found.append(node.attr)
    return found


def test_the_rule_sees_imports_and_attribute_uses() -> None:
    source = "from scipy.integrate import quad\nimport scipy.integrate\nscipy.integrate.solve_ivp\n"
    assert banned_names(ast.parse(source)) == ["quad", "solve_ivp"]
    assert {"dynamics.py", "orbits.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_neither_solve_ivp_nor_quad(path: Path) -> None:
    assert banned_names(ast.parse(path.read_text(), filename=str(path))) == []
