"""Shared fixtures: expensive objects built once per session."""

import numpy as np
import pytest

from kslyap.exponents import OperatorOrder, solve_critical_exponents
from kslyap.potential import PiecewiseParams, PotentialProfile, build_profile, smooth


def dense_phi_x(profile):
    """phi_x on the profile's whole n-point grid: phi_x_off everywhere, plus
    the window on [j0, j0 + W). The package never builds this array; tests
    use it as the reference the window must reproduce, and to hand the same
    samples to ``PotentialProfile.from_samples``."""
    out = np.full(profile.n, profile.phi_x_off)
    out[profile.j0 : profile.j0 + profile.window.size] += profile.window
    return out


@pytest.fixture(scope="session")
def critical_pair():
    return solve_critical_exponents(OperatorOrder.FOURTH).pair


@pytest.fixture(scope="session")
def default_sp():
    """Smoothed default step potential (a=1, q0=1/2, q1=2, delta=1/64)."""
    return smooth(PiecewiseParams())


@pytest.fixture(scope="session")
def profile32():
    """Constructed potential profile at L = 32 with the default parameters."""
    return build_profile(32.0)


@pytest.fixture()
def make_flat_profile():
    """Factory for profiles with constant phi_x (phi_x = 0 gives the free operator)."""

    def make(L=64.0, n=16384, slope=0.0):
        return PotentialProfile.from_samples(L, np.full(n, float(slope)))

    return make
