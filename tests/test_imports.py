"""The import graph: the package loads numpy only. Galerkin matrices from
constructed profiles are solved with numpy alone at every size. scipy.linalg
(LAPACK's packed Cholesky routines) is imported on the first raw array, or
matrix without a low-rank window, above the dense crossover, and no other
scipy subpackage is ever loaded."""

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

# one shift-invert solve: the first matrix above the dense crossover
LARGE_SOLVE = "from kslyap.coercivity import min_eigenvalue\nimport numpy as np\nmin_eigenvalue(np.diag(np.arange(1.0, 513.0)))\n"


def _fresh(code):
    """Run code in a fresh interpreter and return its last line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_dense_run_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import kslyap, kslyap.cli\n"
        "from kslyap.coercivity import certify\n"
        "from kslyap.potential import build_profile\n"
        "assert max(certify(build_profile(64.0)).N_sequence) <= 384\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert _fresh(code) == []


def test_structured_eigensolves_load_no_scipy():
    code = (
        "import json, sys\n"
        "from kslyap.coercivity import assemble, certify, min_eigenvalue\n"
        "from kslyap.potential import build_profile\n"
        "assert max(certify(build_profile(512.0)).N_sequence) >= 512\n"
        "min_eigenvalue(assemble(build_profile(128.0), 2048))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert _fresh(code) == []


def test_first_large_matrix_loads_scipy_linalg():
    code = (
        "import json, sys\n"
        "import kslyap\n"
        "before = 'scipy.linalg' in sys.modules\n"
        f"{LARGE_SOLVE}"
        "print(json.dumps([before, 'scipy.linalg' in sys.modules]))\n"
    )
    assert _fresh(code) == [False, True]


def test_import_loads_no_unused_scipy_subpackage():
    code = (
        "import json, sys\n"
        "import kslyap, kslyap.cli\n"
        f"{LARGE_SOLVE}"
        f"print(json.dumps(sorted(m for m in {UNUSED!r} if m in sys.modules)))\n"
    )
    assert _fresh(code) == []


def test_first_lapack_use_inside_worker_threads():
    # certify reaches N = 512 at L = 512 only, inside the pool; that level
    # takes the numpy-only structured path, so the rows must not depend on
    # the thread that computes them, whatever the pool runs first
    code = (
        "import dataclasses, json, sys\n"
        "from kslyap import study\n"
        "rows = [study.sweep([256.0, 512.0], workers=w) for w in (2, 1)]\n"
        "print(json.dumps([[dataclasses.asdict(r) for r in rs] for rs in rows]))\n"
    )
    threaded, serial = _fresh(code)
    assert [r["L"] for r in threaded] == [r["L"] for r in serial] == [256.0, 512.0]
    for row, ref in zip(threaded, serial):
        assert row["error"] is None and ref["error"] is None
        for name, value in ref.items():
            if isinstance(value, float):
                assert abs(row[name] - value) <= 1e-12 * abs(value), name
