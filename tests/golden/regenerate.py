"""Rewrite the golden CLI outputs in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

With ``--diff`` it writes nothing and prints, for each golden file, the
largest absolute and relative change of any of its numbers between what the
CLI writes now and the committed file.

Each golden file holds the bytes the CLI writes for one command: the sweep
CSV at L = 32..512, ``verify --json`` at L = 64, 512 and 4096, the profile
JSON of ``build-potential`` at L = 64 and 4096, ``exponents --json``,
``bound --json`` at L = 512, and the CSV of a seeded odd ``simulate`` at
L = 50 with ``--check-lyapunov``, which holds the monitor's residuals.
``recorded.json`` names the numpy version and the CPU features its SIMD
kernels dispatch to on the machine that wrote them; ``tests/test_golden.py``
compares bytes where both match, and numbers to a stated tolerance elsewhere.
"""

import argparse
import contextlib
import io
import json
import re
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


_NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))")
_KEY = re.compile(r'"(\w+)":')

# A pair gap rho - lambda (``verify --json``) is the difference of two
# numbers near the form's smallest eigenvalue lambda, and a build rounds
# each to about 1e-13 |lambda|; a gap of 1e-11 can move by 1e-3 of itself.
# It is compared in units of GAP_UNIT |lambda|, lambda the same report's
# lambda_min for the form's gap and delta_margin for the shifted form's.
GAP_UNIT = 1e-13
_GAP_LAMBDAS = ("lambda_min", "delta_margin")


def largest_changes(got, want):
    """Between the numbers of two texts whose other characters are equal:
    the largest absolute and the largest relative difference, pair gaps
    aside, and the largest difference of a pair gap in units of
    ``GAP_UNIT`` |lambda|, lambda read from want. None where the other
    characters differ."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts) or got_parts[::2] != want_parts[::2]:
        return None
    key, keys = None, []  # the JSON key each number falls under
    for text in want_parts[:-1:2]:
        key = (_KEY.findall(text) or [key])[-1]
        keys.append(key)
    wanted = list(map(float, want_parts[1::2]))
    named = dict(zip(keys, wanted))
    absolute = relative = gap = 0.0
    gaps = iter(_GAP_LAMBDAS)
    for key, a, b in zip(keys, map(float, got_parts[1::2]), wanted):
        if key == "pair_gaps":
            gap = max(gap, abs(a - b) / (GAP_UNIT * abs(named[next(gaps)])))
        elif a != b:
            absolute = max(absolute, abs(a - b))
            relative = max(relative, abs(a - b) / max(abs(a), abs(b)))
    return absolute, relative, gap


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
    parser = argparse.ArgumentParser(description="Rewrite the golden CLI outputs, or with --diff compare them.")
    parser.add_argument("--diff", action="store_true", help="write nothing; print each file's largest change")
    if parser.parse_args().diff:
        print(f"against {json.loads((HERE / 'recorded.json').read_text())}, here {platform_key()}")
        for name in OUTPUTS:
            got, want = render(name), (HERE / name).read_bytes()
            changes = largest_changes(got.decode(), want.decode())
            if changes is None:
                print(f"{name}: text other than numbers differs")
            elif got == want:
                print(f"{name}: byte-equal")
            else:
                print(
                    f"{name}: largest change {changes[0]:.3g} absolute, {changes[1]:.3g} relative,"
                    f" pair gaps {changes[2]:.3g} x {GAP_UNIT:g} |lambda|"
                )
    else:
        for name in OUTPUTS:
            (HERE / name).write_bytes(render(name))
        (HERE / "recorded.json").write_text(json.dumps(platform_key(), indent=2) + "\n")
