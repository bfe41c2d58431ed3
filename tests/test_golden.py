"""The CLI's outputs against the golden files in ``tests/golden``, which
``tests/golden/regenerate.py`` rewrites: byte for byte on the numpy version
and CPU features that recorded them, and number by number to ``RTOL``
elsewhere, where numpy's FFT, LAPACK and SIMD kernels may round otherwise."""

import json
import re

import pytest

from golden.regenerate import HERE, OUTPUTS, platform_key, render

# a change of build moves the eigensolves' and transforms' rounding, about
# 1e-13 relative on the margins; the eigensolver tests hold 1e-9 against
# their references
RTOL = 1e-9

_NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan))")


def _largest_difference(got, want):
    """The largest relative difference between the numbers of two texts
    whose other characters are equal; None where those differ."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts) or got_parts[::2] != want_parts[::2]:
        return None
    worst = 0.0
    for a, b in zip(map(float, got_parts[1::2]), map(float, want_parts[1::2])):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_cli_output_matches_golden(name):
    want = (HERE / name).read_bytes()
    got = render(name)
    if platform_key() == json.loads((HERE / "recorded.json").read_text()):
        assert got == want
        return
    worst = _largest_difference(got.decode(), want.decode())
    print(f"{name}: largest relative difference {worst}")
    assert worst is not None and worst <= RTOL
