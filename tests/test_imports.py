"""Every module imports on its own in a fresh interpreter.

The test session imports the modules in one fixed order, and a module that
only imports because another one was loaded first would pass there; a
fresh interpreter per module shows such an import cycle.  A star import of
each module also resolves every name its __all__ lists."""
import os
import pkgutil
import subprocess
import sys

import pytest

import ode3geom

MODULES = ["ode3geom"] + sorted(
    m.name for m in pkgutil.walk_packages(ode3geom.__path__, "ode3geom."))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ode3geom.__file__)))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c",
                           f"import {module}\nfrom {module} import *"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
