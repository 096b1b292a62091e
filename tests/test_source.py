"""Source checks over the `hopfgal` package that need no import of it."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "hopfgal")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = FUNCTIONS + (ast.Lambda, ast.ClassDef)


def _own_scope(fn):
    """The nodes of fn's own scope: its body without the bodies of the
    functions, lambdas and classes nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source):
    """[(line, function, name)] for each local name a function assigns and
    nothing in it reads, its nested functions and lambdas included.

    `_` is the name for a value thrown away on purpose, and a name the
    function declares `global` or `nonlocal` belongs to another scope.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        outer = set()
        stores = {}
        for node in _own_scope(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stores.setdefault(node.name, node.lineno)
        for name, line in stores.items():
            if name != "_" and name not in read and name not in outer:
                found.append((line, fn.name, name))
    return sorted(found)


def test_unread_locals_are_found():
    source = (
        "def f(x):\n"
        "    idPP = x\n"
        "    E2, i2 = x\n"
        "    _, y = x\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return i2\n"
        "def g(x):\n"
        "    k = 0\n"
        "    seen = []\n"
        "    def inner():\n"
        "        nonlocal k\n"
        "        k += 1\n"
        "        t = seen\n"
        "    return lambda: (k, inner)\n")
    assert unread_locals(source) == [
        (2, "f", "idPP"), (3, "f", "E2"), (4, "f", "y"), (7, "f", "exc"),
        (16, "inner", "t")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unread_locals(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unread_locals(fh.read()) == []
