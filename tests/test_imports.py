"""The import graph: the package loads numpy and scipy.linalg and no other
scipy subpackage."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

UNUSED = [
    "scipy.integrate",
    "scipy.fft",
    "scipy.special",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.signal",
    "scipy.interpolate",
    "scipy.constants",
    "scipy.sparse",
    "scipy.sparse.linalg",
]


def test_import_loads_no_unused_scipy_subpackage():
    code = (
        "import json, sys\n"
        "import kslyap, kslyap.cli\n"
        f"print(json.dumps(sorted(m for m in {UNUSED!r} if m in sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
