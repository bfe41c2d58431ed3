"""The CLI's outputs against the golden files in ``tests/golden``, which
``tests/golden/regenerate.py`` rewrites: byte for byte on the numpy version
and CPU features that recorded them, and number by number to ``RTOL``
elsewhere, where numpy's FFT, LAPACK and SIMD kernels may round otherwise."""

import json

import pytest

from golden.regenerate import HERE, OUTPUTS, largest_changes, platform_key, render

# a change of build moves the eigensolves' and transforms' rounding, about
# 1e-13 relative on the margins; the eigensolver tests hold 1e-9 against
# their references
RTOL = 1e-9


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_cli_output_matches_golden(name):
    want = (HERE / name).read_bytes()
    got = render(name)
    if platform_key() == json.loads((HERE / "recorded.json").read_text()):
        assert got == want
        return
    changes = largest_changes(got.decode(), want.decode())
    print(f"{name}: largest changes {changes}")
    assert changes is not None and changes[1] <= RTOL
