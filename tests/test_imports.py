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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", "import " + module],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
