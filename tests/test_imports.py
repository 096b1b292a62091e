"""Every module imports first in a fresh interpreter, so no import cycle
hides behind the order in which other modules happen to load it."""

import os
import pkgutil
import subprocess
import sys

import pytest

import hopfgal

SRC = os.path.dirname(os.path.dirname(hopfgal.__file__))
MODULES = sorted("hopfgal." + m.name
                 for m in pkgutil.iter_modules(hopfgal.__path__))


def test_every_module_is_listed():
    assert "hopfgal.bundle" in MODULES and "hopfgal.descent" in MODULES


def run_fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = run_fresh("import " + module)
    assert proc.returncode == 0, proc.stderr


def test_cli_does_not_import_dataclasses():
    """Each import of the program leaves its code objects as garbage when a
    caller re-imports it; `dataclasses` would add the code it generates
    per class, and `inspect`, `ast`, `dis` and `tokenize` with it."""
    proc = run_fresh("import sys, hopfgal.cli; "
                     "print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
