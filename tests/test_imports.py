"""The import graph: the package needs numpy only. No path loads scipy:
Galerkin matrices take the secular eigensolve or numpy's ``eigh``, and
a fresh interpreter with scipy blocked runs the library and the CLI; the
tests themselves use scipy only for independent references."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import dense_phi_x

SRC = Path(__file__).resolve().parent.parent / "src"

# one dense 512 x 512 solve: a sampled profile, whose whole-grid window the
# secular step does not take
DENSE_SOLVE = (
    "import numpy as np\n"
    "from kslyap.coercivity import assemble, min_eigenvalue\n"
    "from kslyap.potential import PotentialProfile\n"
    "x = np.linspace(-8.0, 8.0, 2048, endpoint=False)\n"
    "sampled = PotentialProfile.from_samples(8.0, 3.0 + np.cos(np.pi * x / 8.0))\n"
    "m = assemble(sampled, 512)\n"
    "assert m._window.compressed is None\n"
    "min_eigenvalue(m)\n"
)


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


def test_import_loads_no_unused_scipy_subpackage():
    code = (
        "import json, sys\n"
        "import kslyap, kslyap.cli\n"
        f"{DENSE_SOLVE}"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert _fresh(code) == []


def test_runs_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes any import of scipy raise: a dense
    # 512 x 512 solve, a from_samples profile's certificate, and verify
    # (with --profile on a build-potential output), sweep and simulate
    # --check-lyapunov through the CLI entry point
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from kslyap.cli import main\n"
        "from kslyap.coercivity import certify\n"
        "from kslyap.potential import PotentialProfile, build_profile\n"
        f"{DENSE_SOLVE}"
        f"{inspect.getsource(dense_phi_x)}"
        "p = build_profile(32.0)\n"
        "assert certify(PotentialProfile.from_samples(32.0, dense_phi_x(p))).certified\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [\n"
        "    main(['verify', '--L', '64', '--out', out]),\n"
        "    main(['build-potential', '--L', '2', '--out', out]),\n"
        "    main(['verify', '--profile', out + '/profile_L2.json', '--out', out]),\n"
        "    main(['sweep', '--L-list', '32,64,128,256,512', '--out', out]),\n"
        "    main(['simulate', '--L', '50', '--odd', '--t-end', '20', '--transient', '10', '--check-lyapunov', '--out', out]),\n"
        "]\n"
        "print(json.dumps(codes))\n"
    )
    assert _fresh(code) == [0, 0, 0, 0, 0]


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
