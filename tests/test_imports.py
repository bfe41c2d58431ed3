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


def test_ensemble_run_loads_no_random_or_thread_modules():
    # the solver path draws its initial data from the package's splitmix64
    # stream: numpy.random would pull in secrets, hashlib and OpenSSL (about
    # 6 MB), and sweeps run without a thread pool
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from kslyap import attractor, coercivity, potential, solver, study\n"
        "for L in (16.0 * np.pi, 32.0 * np.pi):\n"
        "    profile = potential.build_profile(L)\n"
        "    report = coercivity.certify(profile)\n"
        "    constants = attractor.LyapunovConstants(report.delta_margin, attractor.forcing_constant(profile))\n"
        "    cfg = solver.SolveConfig(t_end=2.0, transient=1.0, record_every=5, odd_only=True)\n"
        "    initial = solver.random_initial(L, solver.default_grid(L), seed=1, odd_only=True)\n"
        "    attractor.monitor(solver.simulate(initial, cfg), profile, constants)\n"
        "assert len(study.sweep([32.0, 64.0, 128.0, 256.0, 512.0])) == 5\n"
        "names = ['numpy.random', 'secrets', 'hashlib', 'concurrent.futures']\n"
        "print(json.dumps([m for m in sys.modules if m in names or m.split('.')[0] == 'scipy']))\n"
    )
    assert _fresh(code) == []
