"""Source checks over the `hopfgal` package and its tests that need no
import of either."""

import ast
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "hopfgal")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
TEST_MODULES = sorted(name for name in os.listdir(TESTS)
                      if name.endswith(".py"))
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


def unread_imports(source):
    """[(line, name)] for each name a module's imports bind and nothing in
    it reads.

    A name is read when it is loaded anywhere in the module; `from
    __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append((node.lineno, name))
    return sorted(found)


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import pytest\n"
        "from a import (b, c as d,\n"
        "               e)\n"
        "def f():\n"
        "    import json\n"
        "    return os.sep, d, e\n")
    assert unread_imports(source) == [(4, "pytest"), (5, "b"), (8, "json")]


# bench/tracer.py rebinds `compose` in every module that holds it, and its
# self-test checks bundle.py's binding, which bundle.py itself never reads
IMPORT_EXCEPTIONS = {("src/hopfgal/bundle.py", "compose")}
SOURCES = (["src/hopfgal/" + name for name in MODULES]
           + ["tests/" + name for name in TEST_MODULES])


@pytest.mark.parametrize("path", SOURCES)
def test_no_unread_imports(path):
    with open(os.path.join(os.path.dirname(TESTS), path),
              encoding="utf-8") as fh:
        found = unread_imports(fh.read())
    assert [(line, name) for line, name in found
            if (path, name) not in IMPORT_EXCEPTIONS] == []


def unnamed_functions(sources):
    """[(module, line, name)] for each function or method defined in
    `sources` (module name -> source) that no code in them names outside
    the function's own def.

    A name counts where it is loaded as a variable or read as an attribute,
    in any of the modules; the language itself calls dunder methods.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, FUNCTIONS) or (
                    fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            if not any(m != module or not fn.lineno <= line <= fn.end_lineno
                       for m, line in uses.get(fn.name, ())):
                found.append((module, fn.lineno, fn.name))
    return sorted(found)


def test_unnamed_functions_are_found():
    sources = {
        "a.py": ("def f():\n"
                 "    return f()\n"
                 "def g():\n"
                 "    return h\n"
                 "class C:\n"
                 "    def __eq__(self, other):\n"
                 "        return False\n"
                 "    def m(self):\n"
                 "        pass\n"
                 "    def n(self):\n"
                 "        pass\n"),
        "b.py": "from a import g\ndef h():\n    return C().n\n",
    }
    assert unnamed_functions(sources) == [("a.py", 1, "f"), ("a.py", 3, "g"),
                                          ("a.py", 8, "m")]


# functions that no program code names, each with the reason it stays
ENTRY_POINTS = {
    ("descent.py", "counit_Psi"): "a traced span of bench/run.py and "
                                  "bench/tracer.py",
    ("linalg.py", "kernel_basis"): "a traced span of bench/run.py and "
                                   "bench/tracer.py",
    ("fields.py", "from_int"): "bench/gen_inputs.py builds a braided line "
                               "with it",
    ("dsl.py", "evaluate"): "the entry point the expression tests drive",
    ("corpus.py", "corpus_commands"): "the entry point the corpus tests "
                                      "drive",
}


def test_every_program_function_is_named_in_the_program():
    # a function that only tests reach belongs with the tests
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    found = unnamed_functions(sources)
    assert sorted((module, name) for module, _, name in found) == sorted(
        ENTRY_POINTS)
