"""Coefficient types are asked about in scalars.py only.

The engine modules reach a coefficient's kind through the helpers of
scalars.py (``as_eta_scalar``, ``rational_value``, ``rational_vec``) and
through ``ScalarMode``; an ``isinstance`` test naming a scalar type anywhere
else is a second place making that decision.
"""

import ast
from pathlib import Path

import pytest

import matsuo

PACKAGE = Path(matsuo.__file__).parent
MODULES = ("closure.py", "algebra.py", "axial.py", "flips.py", "classify.py", "cli.py")
SCALAR_TYPES = frozenset({"int", "Fraction", "EtaPoly", "EtaScalar"})


def type_probes(source: str) -> list[tuple[int, list[str]]]:
    """(line, scalar type names) of each isinstance call naming a scalar type."""
    probes = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        names = set()
        for n in ast.walk(node.args[1]):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        if names & SCALAR_TYPES:
            probes.append((node.lineno, sorted(names & SCALAR_TYPES)))
    return probes


def test_detector_finds_probes():
    source = (
        "isinstance(v, (int, Fraction))\n"
        "isinstance(v, scalars.EtaScalar)\n"
        "isinstance(other, ScalarMode)\n"
    )
    assert type_probes(source) == [(1, ["Fraction", "int"]), (2, ["EtaScalar"])]


@pytest.mark.parametrize("module", MODULES)
def test_no_scalar_type_probes_outside_scalars(module):
    assert type_probes((PACKAGE / module).read_text()) == []
