import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
