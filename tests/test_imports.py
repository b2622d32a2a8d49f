"""Source hygiene: every top-level import of a package module or a test
file is used, every function the package defines is read by the package
or the bench, and a package module reads a private member only of a class
it defines.
Re-exporting a name from ``__init__.py`` does not count as reading it."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skeinkit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    # `mod.attr` reads the Name `mod`, so attribute access counts as a use
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_modules_found():
    assert "verify.py" in MODULES and "__init__.py" not in MODULES


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os\nos.sep\n"
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("test_file", TEST_FILES)
def test_every_test_import_is_used(test_file):
    assert unused_imports((TESTS / test_file).read_text()) == []


# ----------------------------------------------------------------------
# every function is read: a name that only tests call belongs in the tests

ROOT = PACKAGE.parent.parent
READERS = [PACKAGE / module for module in MODULES] + sorted((ROOT / "bench").rglob("*.py"))


def read_names(source: str) -> set[str]:
    """Every name a module reads: Name ids, attribute names and imported names.

    A read inside a function of the same name does not count, so neither
    recursion nor a wrapper that delegates to a same-named method reads
    the function it sits in.
    """
    read = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name):
            read.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            read.update({node.attr} - enclosing)
        elif isinstance(node, ast.alias):
            read.update({node.name.split(".")[-1]} - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return read


def unread_functions(source: str, namespace: dict, read: set[str]) -> list[str]:
    """Qualified names of the functions and methods a module defines that
    are not in `read`, dunders and overrides of an inherited attribute left
    out.  `namespace` is the module's, where its classes are looked up to see
    what they inherit."""
    unread = []
    for top in ast.parse(source).body:
        is_class = isinstance(top, ast.ClassDef)
        bases = namespace[top.name].__mro__[1:] if is_class else ()
        for node in ast.walk(top):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name in read or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(hasattr(base, name) for base in bases):
                unread.append(f"{top.name}.{name}" if is_class else name)
    return unread


def test_detects_an_unread_function():
    source = (
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"  # overrides a base attribute
        "        pass\n"
        "    def __repr__(self):\n"
        "        return helper()\n"
        "    def shout(self):\n"
        "        pass\n"
        "def helper():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "def unused():\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.inner = Inner()\n"
        "    def grow(self):\n"  # a wrapper that only delegates to a same-named method
        "        return self.inner.grow()\n"
        "class Inner:\n"
        "    def grow(self):\n"
        "        pass\n"
        "def countdown(n):\n"  # read by itself alone
        "    return countdown(n - 1) if n else 0\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    assert unread_functions(source, namespace, read_names(source)) == [
        "Parser.shout", "unused", "Box.grow", "Inner.grow", "countdown",
    ]


def test_every_function_is_read():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    unread = []
    for module in MODULES:
        namespace = vars(importlib.import_module(f"skeinkit.{module[:-3]}"))
        unread += unread_functions((PACKAGE / module).read_text(), namespace, read)
    assert unread == []


# ----------------------------------------------------------------------
# a private member is read only by the module whose class defines it


def class_members(tree: ast.Module) -> set[str]:
    """Names the module's classes define: methods, class attributes,
    `__slots__` entries and `self._name` assignments."""
    members = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for stmt in cls.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    members.add(target.id)
                    if target.id == "__slots__":
                        members.update(ast.literal_eval(stmt.value))
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(node.name)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                members.add(node.attr)
    return members


def foreign_private_reads(source: str) -> list[int]:
    """Lines that read `x._name`, the receiver not `self`, `cls` or
    `super()`, where no class of the same module defines `_name`."""
    tree = ast.parse(source)
    members = class_members(tree)
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        name, receiver = node.attr, node.value
        if not name.startswith("_") or name.endswith("__") or name in members:
            continue
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            continue
        if isinstance(receiver, ast.Call) and getattr(receiver.func, "id", None) == "super":
            continue
        lines.append(node.lineno)
    return sorted(lines)


def test_detects_a_foreign_private_read():
    source = (
        "import other\n"
        "class Box:\n"
        "    __slots__ = ('_items',)\n"
        "    _limit = 3\n"
        "    def __init__(self):\n"
        "        self._count = 0\n"
        "        self._hidden()\n"  # a read through self is the class's own
        "    def _grow(self):\n"
        "        return super()._grow()\n"
        "def use(box, thing):\n"
        "    box._items, box._limit, box._count, box._grow()\n"  # members of Box
        "    box.__class__\n"  # a dunder is not private
        "    thing._secret = 1\n"  # a write, not a read
        "    return thing._secret, other._helper()\n"
    )
    assert foreign_private_reads(source) == [14, 14]


@pytest.mark.parametrize("module", MODULES)
def test_private_reads_stay_in_their_module(module):
    assert foreign_private_reads((PACKAGE / module).read_text()) == []
