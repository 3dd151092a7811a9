"""The benchmark's hold on the engine: every matsuo name it reaches exists.

perfbench/ reaches the engine by name: ``spans.TRACED`` lists the
(module, function) pairs a traced pass wraps, and the benchmark scripts call
``m.<module>.<name>`` on freshly imported modules.  A rename or removal in
src/ breaks ``perfbench/run.py`` only at benchmark time; these tests read the
scripts with ``ast`` (they import and change nothing under perfbench/) and
resolve each name here.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = ("spans.py", "workloads.py", "run.py")


def parse(script: str) -> ast.Module:
    return ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))


def resolve(chain: list[str]):
    """The object named by m.<chain>, m holding the matsuo modules by name."""
    head, *rest = chain
    obj = importlib.import_module(f"matsuo.{head}")
    for name in rest:
        obj = getattr(obj, name)
    return obj


def traced_pairs() -> list[tuple[str, str]]:
    for node in parse("spans.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TRACED")


def module_chains(tree: ast.AST) -> list[list[str]]:
    """Each longest attribute chain m.a.b... in the tree, as [a, b, ...]."""
    chains = []
    inner = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        names = []
        value = node
        while isinstance(value, ast.Attribute):
            inner.add(id(value.value))
            names.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id == "m":
            chains.append(names[::-1])
    return chains


def test_traced_functions_resolve():
    pairs = traced_pairs()
    assert pairs
    for module, function in pairs:
        assert callable(resolve([module, function])), (module, function)


@pytest.mark.parametrize("script", SCRIPTS)
def test_module_chains_resolve(script):
    chains = module_chains(parse(script))
    assert chains
    for chain in chains:
        resolve(chain)


def test_chain_reader_finds_longest_chains():
    source = "m.closure.ScalarMode.symbolic()\nx = m.algebra.vec_product\ny = n.cli.main\n"
    assert sorted(module_chains(ast.parse(source))) == [
        ["algebra", "vec_product"],
        ["closure", "ScalarMode", "symbolic"],
    ]
