"""Nothing in the engine is kept alive by nothing.

A module-level import that its module never reads, or a private function or
class that nothing in the package calls, is code left behind when a decision
moved elsewhere (an import of ``vec_product`` outlived the only function in
flips.py that multiplied).  A ``Subalgebra`` with a product count skips
the closure walk at construction, so only ``closure.close``, whose run
proved closure, builds one.  A ``FischerSpace`` is its third-point table
and does no group arithmetic, so that a subspace is a space as well; the
wreath table is filled by ``build_wreath_space``.  These tests read
src/matsuo with ``ast``.
"""

import ast
from pathlib import Path

import pytest

import matsuo

PACKAGE = Path(matsuo.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def read_names(tree: ast.AST) -> set[str]:
    """Names a module reads: each Name node, and each name inside a quoted
    annotation."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    used = read_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    return unused


def unreferenced_private(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each private function or class that no module of
    the package names: no Name, attribute or import of it."""
    defined = []
    referenced = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [(module, name) for module, name in defined if name not in referenced]


def subalgebra_constructions(sources: dict[str, str]) -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of each call of ``Subalgebra``,
    by name or attribute; the function is "" at module level."""
    found = []

    def visit(node: ast.AST, module: str, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Subalgebra":
                    found.append((module, function, child.lineno))
            visit(child, module, function)

    for module, source in sources.items():
        visit(ast.parse(source), module, "")
    return found


def test_detector_finds_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .algebra import Vec, vec_product\n"
        "def _used(v: 'Vec') -> str:\n"
        "    return os.path.sep\n"
        "def _dead():\n"
        "    pass\n"
        "class _Dead:\n"
        "    def __init__(self):\n"
        "        self._helper = _used\n"
        "    def _unread(self):\n"
        "        pass\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "vec_product")]
    assert unreferenced_private({"m.py": source}) == [
        ("m.py", "_dead"), ("m.py", "_Dead"), ("m.py", "_unread")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_no_unreferenced_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def test_detector_finds_subalgebra_constructions():
    source = (
        "from . import closure\n"
        "from .closure import Subalgebra\n"
        "TRIVIAL = Subalgebra(None, None, [], None)\n"
        "def close(sp, gens, mode):\n"
        "    return Subalgebra(sp, mode, gens, None, 1)\n"
        "def rebuilt(alg):\n"
        "    return closure.Subalgebra(alg.space, alg.mode, [], alg.basis)\n"
        "def annotated(alg: Subalgebra) -> Subalgebra:\n"
        "    return alg\n"
    )
    assert subalgebra_constructions({"m.py": source}) == [
        ("m.py", "", 3), ("m.py", "close", 5), ("m.py", "rebuilt", 7)
    ]


def test_only_close_constructs_subalgebras():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    found = subalgebra_constructions(sources)
    assert found and all(where[:2] == ("closure.py", "close") for where in found), found


GROUP_ARITHMETIC = frozenset({"table", "inv", "mul", "element_order", "validate_orders"})


def group_arithmetic(source: str, cls: str) -> list[tuple[int, str]]:
    """(line, name) of each read of a group-arithmetic name, as a name or
    an attribute, in the body of the class cls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for part in ast.walk(node):
                if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load):
                    found.append((part.lineno, part.col_offset, part.id))
                elif isinstance(part, ast.Attribute) and isinstance(part.ctx, ast.Load):
                    found.append((part.lineno, part.col_offset, part.attr))
    return [(line, name) for line, _, name in sorted(found) if name in GROUP_ARITHMETIC]


def test_detector_finds_group_arithmetic():
    source = (
        "class FischerSpace:\n"
        "    def __init__(self, base, third):\n"
        "        mul, inv = base.table, base.inv\n"
        "        self.order = [base.element_order(t) for t in range(3)]\n"
        "        self.third = [[mul[a][inv[b]] for b in range(3)] for a in range(3)]\n"
        "        self.ok = validate_orders(base)\n"
        "        self.table = third\n"
        "def build(base):\n"
        "    return base.table\n"
    )
    assert group_arithmetic(source, "FischerSpace") == [
        (3, "table"), (3, "inv"), (4, "element_order"), (5, "mul"), (5, "inv"),
        (6, "validate_orders"),
    ]


def test_fischer_space_does_no_group_arithmetic():
    assert group_arithmetic((PACKAGE / "fischer.py").read_text(), "FischerSpace") == []
