"""Every name a module of the package imports is used in that module,
and every parameter of its functions is read."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fogbisim"


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
