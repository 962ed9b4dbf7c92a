import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import elastinet

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = [m.name for m in pkgutil.iter_modules(elastinet.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_listed_name(module):
    # a name left in __all__ after its definition is gone makes ``import *`` raise
    namespace = {}
    exec(f"from elastinet.{module} import *", namespace)
    assert set(getattr(importlib.import_module(f"elastinet.{module}"), "__all__", ())) <= set(namespace)


def test_package_exports_names_its_modules_list():
    namespace = {}
    exec("from elastinet import *", namespace)
    exported = {name for name, value in namespace.items() if not isinstance(value, types.ModuleType)}
    listed = set().union(*(getattr(importlib.import_module(f"elastinet.{m}"), "__all__", ()) for m in MODULES))
    assert exported - {"__builtins__"} <= listed


def test_library_and_cli_load_no_scipy():
    # the library needs numpy only; a fresh interpreter shows what importing it loads
    code = "import sys, elastinet, elastinet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_crossing_audit_does_not_load_numpy_ma():
    # np.median imports numpy.ma (about 16 ms) on its first call in a process
    code = (
        "import sys\n"
        "from elastinet.injectivity import injectivity_report\n"
        "from elastinet.networks import make_standard_double_bubble, make_teardrop\n"
        "for net in (make_standard_double_bubble(1.0, 40), make_teardrop(41)):\n"
        "    injectivity_report(net)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
