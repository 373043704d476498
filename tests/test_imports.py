"""Every name a module of the package imports is used in that module,
every parameter of its functions is read, and every function, class and
method it defines is read somewhere in the package (or by perfbench),
and so is every attribute its classes write."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fogbisim"
PERFBENCH = SRC.parent.parent / "perfbench"


def unused_imports(source):
    """(line, name) for each imported name that no expression reads;
    `from __future__` imports are compiler directives and are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .grammar import Grammar, SinkTable\n"
              "def f(g: Grammar):\n"
              "    return os.path.join\n")
    assert unused_imports(source) == [(3, "SinkTable")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_params(source):
    """(line, function, parameter) for each parameter its function's body
    never reads; `self` and `cls` are exempt."""
    tree = ast.parse(source)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [(fn.lineno, name, p.arg) for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(out)


def test_scanner_flags_an_unread_parameter():
    source = ("class C:\n"
              "    def m(self, a, *rest, b=1, **kw):\n"
              "        b = a\n"
              "        return kw\n"
              "def f(g, x=lambda y: 0):\n"
              "    def inner(z):\n"
              "        return g + z\n"
              "    return inner\n")
    assert unread_params(source) == [
        (2, "m", "b"), (2, "m", "rest"), (5, "<lambda>", "y"), (5, "f", "x")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_params(path.read_text()) == []


def mentioned_names(source):
    """Every identifier a module reads, imports or spells out as a
    (dotted) string constant, such as perfbench's tracer TARGETS."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and all(p.isidentifier() for p in n.value.split(".")):
            out.update(n.value.split("."))
    return out


def unreferenced_definitions(sources, exempt=frozenset()):
    """(module, line, name) for each top-level function or class and each
    method in `sources` (module name -> source) whose name no ast.Name or
    ast.Attribute load in `sources` outside its own body reads; `cmd_*`
    entry points, dunders and the names in `exempt` are skipped."""
    reads = {}  # name -> [(module, line)]
    defs = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, []).append((module, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.attr, []).append((module, n.lineno))
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for d in tree.body:
            if isinstance(d, kinds):
                defs.append((module, d))
            if isinstance(d, ast.ClassDef):
                defs += [(module, m) for m in d.body if isinstance(m, kinds)]
    return sorted(
        (module, d.lineno, d.name) for module, d in defs
        if not (d.name.startswith("cmd_") or d.name in exempt
                or (d.name.startswith("__") and d.name.endswith("__")))
        and all(m == module and d.lineno <= line <= d.end_lineno
                for m, line in reads.get(d.name, ())))


def test_scanner_flags_an_unreferenced_definition():
    sources = {
        "a.py": ("def used():\n"
                 "    return 1\n"
                 "def unused():\n"
                 "    return used()\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "def cmd_run(args):\n"
                 "    return 0\n"
                 "def traced():\n"
                 "    pass\n"),
        "b.py": ("from .a import used\n"
                 "class Solo:\n"
                 "    def __init__(self):\n"
                 "        self.read = self.method()\n"
                 "    def method(self):\n"
                 "        return Solo, used\n"
                 "    def never(self, other):\n"
                 "        other.never = 1\n"
                 "        return other.read\n"),
    }
    assert unreferenced_definitions(sources, {"traced"}) == [
        ("a.py", 3, "unused"), ("a.py", 5, "recursive"),
        ("b.py", 2, "Solo"), ("b.py", 7, "never")]


def test_no_unreferenced_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    exempt = set()
    for p in PERFBENCH.glob("*.py"):
        exempt |= mentioned_names(p.read_text())
    assert unreferenced_definitions(sources, exempt) == []


def write_only_attributes(sources, readers=()):
    """(module, line, name) for each `self.X` a class in `sources`
    (module name -> source) writes, by assignment or augmented
    assignment, while no `.X` load in `sources` or in the `readers`
    sources reads X."""
    reads = set()
    for source in [*sources.values(), *readers]:
        reads |= {n.attr for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load)}
    out = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                out += [(module, n.lineno, n.attr) for n in ast.walk(cls)
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self" and n.attr not in reads]
    return sorted(set(out))


def test_scanner_flags_a_write_only_attribute():
    sources = {
        "a.py": ("class C:\n"
                 "    def __init__(self, other):\n"
                 "        self.read = 1\n"
                 "        self.unread: int = 2\n"
                 "        self.bumped = 0\n"
                 "        other.elsewhere = 3\n"
                 "    def bump(self):\n"
                 "        self.bumped += 1\n"
                 "        self.traced, self.pair = self.read, 4\n"),
        "b.py": ("def f(c):\n"
                 "    return c.pair\n"),
    }
    assert write_only_attributes(sources, ["def g(c):\n    c.traced\n"]) == [
        ("a.py", 4, "unread"), ("a.py", 5, "bumped"), ("a.py", 8, "bumped")]


def test_no_write_only_attributes():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for p in sorted(PERFBENCH.glob("*.py"))]
    assert write_only_attributes(sources, readers) == []
