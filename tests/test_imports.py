"""Source hygiene: every top-level import of a package module or a test
file is used, every function the package defines is read by the package
or the bench and runs under program traffic, and a package module reads a
private member only of a class it defines and imports no private name from
another package module.  Re-exporting a name from ``__init__.py`` does not
count as reading it."""

import ast
import importlib
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

import pytest

from skeinkit import cli, skein_eval

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
# every function runs: program traffic through the CLI calls each function
# the package defines, dunders included


def defined_functions(code: CodeType, prefix: str = "") -> list[tuple[str, CodeType]]:
    """(dotted name, code object) of every def under a compiled module or
    body, nested defs included; class bodies, lambdas and comprehensions
    are not functions.  Code objects compare by first line and body as
    well as by name, so two methods that share a name are told apart."""
    found = []
    for const in code.co_consts:
        if isinstance(const, CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & CO_OPTIMIZED:  # a def, not a class body
                found.append((name, const))
            found += defined_functions(const, name + ".")
    return found


def codes_run(traffic) -> set[CodeType]:
    """The code objects of every Python function `traffic()` calls."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        traffic()
    finally:
        sys.setprofile(previous)
    return ran


def test_detects_a_function_that_never_runs():
    source = (
        "class Poly:\n"
        "    def __add__(self, other):\n"
        "        return self\n"
        "class Elem:\n"
        "    def __add__(self, other):\n"  # shares its name with one that runs
        "        return self\n"
        "    def __radd__(self, other):\n"
        "        return self\n"
        "def helper():\n"
        "    def inner():\n"
        "        pass\n"
        "    return [lambda: inner for _ in ()]\n"
    )
    code = compile(source, "<control>", "exec")
    namespace: dict = {}
    exec(code, namespace)
    ran = codes_run(lambda: (namespace["Poly"]() + 1, namespace["helper"]()))
    assert [name for name, c in defined_functions(code) if c not in ran] == [
        "Elem.__add__", "Elem.__radd__", "helper.inner",
    ]


# what the traffic below leaves uncalled, each with its reason
NOT_RUN = {
    **{f"{cls}.__setattr__": "an immutability guard: it runs only on a write, to refuse it"
       for cls in ("annulus.AnnulusVecK", "diagram.LinkDiagram", "ring.LaurentPoly", "ring.RingElem")},
    **{f"{cls}.__repr__": "for a reader at a prompt or a failed assertion; output never reprs"
       for cls in ("annulus.AnnulusVecK", "diagram.LinkDiagram", "partition.Partition",
                   "ring.LaurentPoly", "ring.RingElem")},
    **{f"ring.{cls}.__str__": "output calls render() directly" for cls in ("LaurentPoly", "RingElem")},
    "diagram.LinkDiagram.writhe": "only LinkDiagram.__repr__ reads it",
    "cli.main": "the console script: it prints what cli.run returns",
}


def test_every_function_runs(tmp_path):
    # earlier tests may have warmed the engine's memo and the parser
    skein_eval.clear_caches()
    cli._parser.cache_clear()
    link = tmp_path / "trefoil.json"

    def traffic():
        link.write_text(cli.run(["corpus", "show", "trefoil"])[1])
        for argv in (
            ["acceptance", "run"],
            ["skein", "homfly", str(link), "--max-crossings", "8"],
            ["skein", "kauffman", "corpus:hopf_plus"],
            ["skein", "adjoint", "corpus:unknot"],
            ["eigen", "c", "--partition", "2,1"],
            ["eigen", "s", "--forward", "1", "--reverse", "1"],
            ["eigen", "adjoint", "--forward", "1", "--reverse", "0"],
            ["eigen", "table", "--max-size", "3", "--check-distinct"],
            ["expand", "--partition", "2,1"],
            ["verify", "rudolph", "corpus:unknot", "--json"],
            ["verify", "main", "corpus:unknot", "--component", "1", "--partition", "2"],
            ["verify", "eigen-consistency"],
            ["corpus", "list"],
            ["corpus", "show", "nope"],
            ["--help"],
        ):
            cli.run(argv)
        skein_eval.clear_caches()  # the bench's reset between runs

    ran = codes_run(traffic)
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "skeinkit" if path.stem == "__init__" else f"skeinkit.{path.stem}"
        code = importlib.import_module(name).__spec__.loader.get_code(name)
        defined += [(f"{path.stem}.{fn}", c) for fn, c in defined_functions(code)]
    assert set(NOT_RUN) <= {fn for fn, _ in defined}
    assert [fn for fn, c in defined if c not in ran and fn not in NOT_RUN] == []


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
    `super()`, where no class of the same module defines `_name`, and lines
    that import a `_name` from another package module (`from .m import _name`)."""
    tree = ast.parse(source)
    members = class_members(tree)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            lines += [node.lineno for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
            continue
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
        "from os import _exit\n"  # not a package module
        "from .engine import public as _public, _helper\n"  # only the imported name counts
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
    assert foreign_private_reads(source) == [3, 16, 16]


@pytest.mark.parametrize("module", MODULES)
def test_private_reads_stay_in_their_module(module):
    assert foreign_private_reads((PACKAGE / module).read_text()) == []
