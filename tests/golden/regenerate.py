"""Rewrite the golden CLI outputs in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each golden file holds the bytes the CLI writes for one command: the sweep
CSV at L = 32..512, ``verify --json`` at L = 64, 512 and 4096, the profile
JSON of ``build-potential`` at L = 64 and 4096, ``exponents --json``,
``bound --json`` at L = 512, and the CSV of a seeded odd ``simulate`` at
L = 50 with ``--check-lyapunov``, which holds the monitor's residuals.
``recorded.json`` names the numpy version and the CPU features its SIMD
kernels dispatch to on the machine that wrote them; ``tests/test_golden.py``
compares bytes where both match, and numbers to a stated tolerance elsewhere.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from kslyap.cli import main

HERE = Path(__file__).resolve().parent

# golden file -> (CLI arguments, the file the command writes under --out,
# or None for what it prints)
OUTPUTS = {
    "sweep_L32-512.csv": (["sweep", "--L-list", "32,64,128,256,512"], "sweep.csv"),
    "verify_L64.json": (["verify", "--L", "64", "--json"], None),
    "verify_L512.json": (["verify", "--L", "512", "--json"], None),
    "verify_L4096.json": (["verify", "--L", "4096", "--json"], None),
    "profile_L64.json": (["build-potential", "--L", "64"], "profile_L64.json"),
    "profile_L4096.json": (["build-potential", "--L", "4096"], "profile_L4096.json"),
    "exponents.json": (["exponents", "--json"], None),
    "bound_L512.json": (["bound", "--L", "512", "--json"], None),
    "simulate_L50.csv": (
        ["simulate", "--L", "50", "--odd", "--seed", "3", "--t-end", "20", "--transient", "10", "--check-lyapunov"],
        "simulate_L50.csv",
    ),
}


def platform_key():
    """The numpy version and the CPU features that numpy's SIMD kernels
    dispatch to (None where numpy does not say): the same numpy can round
    exp and cos differently under different vector extensions."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        cpu = None
    else:
        cpu = sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    return {"numpy": np.__version__, "cpu": cpu}


def render(name):
    """The bytes the CLI writes for golden file ``name``."""
    argv, written = OUTPUTS[name]
    with tempfile.TemporaryDirectory() as out:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([*argv, "--out", out])
        if code != 0:
            raise RuntimeError(f"kslyap {' '.join(argv)} exited {code}")
        return (Path(out) / written).read_bytes() if written else printed.getvalue().encode()


if __name__ == "__main__":
    for name in OUTPUTS:
        (HERE / name).write_bytes(render(name))
    (HERE / "recorded.json").write_text(json.dumps(platform_key(), indent=2) + "\n")
