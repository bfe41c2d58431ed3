"""The CLI's outputs against the golden files in ``tests/golden``, which
``tests/golden/regenerate.py`` rewrites: byte for byte on the numpy version
and CPU features that recorded them, and number by number elsewhere, where
numpy's FFT, LAPACK and SIMD kernels may round otherwise: to ``RTOL``, and
each pair gap to ``GAP_MULTIPLE`` units of ``GAP_UNIT`` |lambda|."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.regenerate import GAP_UNIT, HERE, OUTPUTS, largest_changes, platform_key, render

# a change of build moves the eigensolves' and transforms' rounding, about
# 1e-13 relative on the margins; the eigensolver tests hold 1e-9 against
# their references
RTOL = 1e-9
# a pair gap is the difference of two numbers that each move by about
# GAP_UNIT |lambda|
GAP_MULTIPLE = 2.0

# numpy's dispatch targets above X86_V3 on an x86 host; names a host lacks
# are ignored
OFF_RECORDING = "AVX512_ICL AVX512_SPR X86_V4"


def _matches(got, want, exact):
    """Whether the CLI output got matches the golden bytes want: every byte
    when exact, else every number to its tolerance."""
    if exact:
        return got == want
    changes = largest_changes(got.decode(), want.decode())
    print(f"largest changes {changes}")
    return changes is not None and changes[1] <= RTOL and changes[2] <= GAP_MULTIPLE


def _recording():
    return platform_key() == json.loads((HERE / "recorded.json").read_text())


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_cli_output_matches_golden(name):
    assert _matches(render(name), (HERE / name).read_bytes(), _recording())


# run by test_numbers_match_off_the_recording_cpu_features in a child process
_CHILD = """
import sys
from golden.regenerate import HERE, OUTPUTS, render
from test_golden import _matches
failed = [name for name in OUTPUTS if not _matches(render(name), (HERE / name).read_bytes(), exact=False)]
print("failed:", failed)
sys.exit(1 if failed else 0)
"""


def test_numbers_match_off_the_recording_cpu_features():
    # the comparison that hosts other than the recording one make, run
    # under numpy's dispatch with the AVX-512 kernels switched off: there,
    # exp, cos and the eigensolves round otherwise, and the three verify
    # reports' pair gaps move by up to 4.3e-3 of themselves
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": OFF_RECORDING, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr


def _moved(text, field, value):
    """The golden text with the number of field replaced by value."""
    old = repr(json.loads(text)[field])
    assert text.count(old.encode()) == 1
    return text.replace(old.encode(), repr(value).encode())


@pytest.mark.parametrize("field", ["lambda_min", "delta_margin"])
def test_one_ulp_margin_change_fails_on_the_recording_platform(field):
    want = (HERE / "verify_L4096.json").read_bytes()
    value = json.loads(want)[field]
    one_ulp = _moved(want, field, math.nextafter(value, math.inf))
    assert not _matches(one_ulp, want, exact=True)
    # elsewhere a one-ulp move is rounding, and 1e-8 relative is not
    assert _matches(one_ulp, want, exact=False)
    assert not _matches(_moved(want, field, value * (1.0 + 1e-8)), want, exact=False)


@pytest.mark.parametrize("form, lam", enumerate(["lambda_min", "delta_margin"]))
def test_pair_gaps_are_held_to_their_forms_rounding(form, lam):
    # at L = 4096 the gaps are 3e-10 and 1e-11 against lambda near 70: each
    # may move by GAP_MULTIPLE units of GAP_UNIT |lambda| of its own form
    want = (HERE / "verify_L4096.json").read_bytes()
    report = json.loads(want)
    bound = GAP_MULTIPLE * GAP_UNIT * abs(report[lam])
    for scale, ok in ((0.9, True), (1.1, False)):
        gaps = list(report["pair_gaps"])
        gaps[form] += scale * bound
        got = json.dumps({**report, "pair_gaps": gaps}, indent=2).encode() + b"\n"
        assert _matches(got, want, exact=False) is ok
