"""Exact exponent optimization and the two families of quadratic-form probes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kslyap.exponents import (
    ExponentPair,
    OperatorOrder,
    PotentialClass,
    classify,
    delocalized_test_value,
    localized_test_value,
    solve_critical_exponents,
)
from kslyap.potential import PiecewiseParams, smooth


def test_fourth_order_optimum_exact():
    res = solve_critical_exponents(OperatorOrder.FOURTH)
    assert res.pair.c1 == Fraction(1, 3)
    assert res.pair.c2 == Fraction(4, 3)
    assert res.objective == Fraction(3, 2)
    assert classify(res.pair) is PotentialClass.CRITICAL


def test_second_order_optimum_exact():
    res = solve_critical_exponents(OperatorOrder.SECOND)
    assert res.pair.c1 == Fraction(1)
    assert res.pair.c2 == Fraction(2)
    assert res.objective == Fraction(5, 2)
    assert classify(res.pair) is PotentialClass.WEAK


def test_optimum_sits_on_both_constraints():
    for order in OperatorOrder:
        res = solve_critical_exponents(order)
        assert res.pair.c2 - res.pair.c1 == 1
        assert res.pair.c2 == order.kinetic_slope * res.pair.c1


def test_random_feasible_points_are_no_better():
    rng = np.random.default_rng(11)
    for order in OperatorOrder:
        res = solve_critical_exponents(order)
        m = order.kinetic_slope
        for _ in range(200):
            # c2 in [c1+1, m*c1] is nonempty once c1 >= 1/(m-1)
            c1 = Fraction(1, m - 1) + Fraction(int(rng.integers(0, 4000)), 997)
            lo, hi = c1 + 1, m * c1
            c2 = lo + (hi - lo) * Fraction(int(rng.integers(0, 1001)), 1000)
            assert ExponentPair(c1, c2).objective() >= res.objective


def test_classify_examples():
    assert classify(ExponentPair(1, 2)) is PotentialClass.WEAK
    assert classify(ExponentPair(Fraction(2, 5), Fraction(7, 5))) is PotentialClass.WEAK
    assert classify(ExponentPair(Fraction(1, 3), Fraction(4, 3))) is PotentialClass.CRITICAL
    assert classify(ExponentPair(1, 5)) is PotentialClass.STRONG


def test_pair_rejects_nonpositive_exponents():
    with pytest.raises(ValueError):
        ExponentPair(0, 1)
    with pytest.raises(ValueError):
        ExponentPair(Fraction(1, 3), Fraction(-4, 3))


def test_pair_coerces_to_exact_rationals():
    pair = ExponentPair("1/3", 2)
    assert pair.c1 == Fraction(1, 3)
    assert isinstance(pair.c2, Fraction)
    assert pair.objective() == Fraction(13, 6)


def test_delocalized_gamma_enters_additively_at_critical_pair(critical_pair, default_sp):
    # c2 - c1 - 1 = 0, so the mean term is gamma itself at every L
    for L in (8.0, 512.0):
        v0 = delocalized_test_value(critical_pair, 0.0, L, 4, default_sp)
        v1 = delocalized_test_value(critical_pair, 0.7, L, 4, default_sp)
        assert np.isclose(v1 - v0, 0.7, rtol=1e-12)


def test_delocalized_positive_below_threshold(critical_pair, default_sp):
    # L = pi/2 keeps every admitted mode stable; no probe goes negative
    L = np.pi / 2.0
    for k in range(1, 51):
        assert delocalized_test_value(critical_pair, 1.0, L, k, sp=default_sp) > 0.0


def test_delocalized_profile_quadrature_converged(critical_pair, default_sp):
    L, k = 64.0, 3
    val = delocalized_test_value(critical_pair, 1.0, L, k, sp=default_sp)
    half = default_sp.support_halfwidth
    y = np.linspace(-half, half, (1 << 20) + 1)
    arg = np.pi * k * L ** float(-1 - critical_pair.c1)
    integral = np.trapezoid(default_sp.qtilde(y) * np.sin(arg * y) ** 2, y)
    kappa = k * np.pi / L
    ref = kappa**4 - kappa**2 + 1.0
    ref += L ** float(critical_pair.c2 - 1 - critical_pair.c1) * integral
    assert abs(val - ref) <= 1e-8 * (1.0 + abs(ref))


def test_delocalized_rejects_bad_arguments(critical_pair, default_sp):
    with pytest.raises(ValueError):
        delocalized_test_value(critical_pair, 0.0, -4.0, 1, default_sp)
    with pytest.raises(ValueError):
        delocalized_test_value(critical_pair, 0.0, 8.0, 0, default_sp)
    with pytest.raises(ValueError):
        delocalized_test_value(critical_pair, 0.0, 8.0, 1.5, default_sp)


def test_localized_bump_placement(critical_pair, default_sp):
    b = localized_test_value(critical_pair, 32.0, default_sp)
    assert b.bump_center == 0.0
    # qtilde turns positive inside the mollified ramp ending at a/2
    a, d = default_sp.params.a, default_sp.smoothing.delta
    assert (a / 2.0 - d) / 2.0 < b.bump_halfwidth <= a / 4.0


def test_localized_budget_sign_structure(critical_pair, default_sp):
    b = localized_test_value(critical_pair, 32.0, default_sp)
    assert b.potential_term < 0.0
    assert b.kinetic_fourth > 0.0
    assert b.kinetic_second < 0.0
    assert b.mean_term > 0.0
    total = b.potential_term + b.kinetic_fourth + b.kinetic_second + b.mean_term
    assert np.isclose(b.total, total, rtol=1e-14)


def test_localized_strong_pair_goes_negative(default_sp):
    b = localized_test_value(ExponentPair(1, 5), 1e4, default_sp)
    assert b.total < 0.0
    assert b.potential_term < b.kinetic_fourth  # the well wins at this scale


def test_localized_critical_pair_scales_evenly(critical_pair, default_sp):
    # at the optimizer both leading terms carry the same power of L
    b1 = localized_test_value(critical_pair, 100.0, default_sp)
    b2 = localized_test_value(critical_pair, 200.0, default_sp)
    assert np.isclose(b2.potential_term / b1.potential_term, 2.0, rtol=1e-12)
    assert np.isclose(b2.kinetic_fourth / b1.kinetic_fourth, 2.0, rtol=1e-12)
    assert abs(b2.kinetic_second / b1.kinetic_second) < 1.5
    assert abs(b2.mean_term / b1.mean_term) < 1.0


@pytest.mark.parametrize("params", [PiecewiseParams(), PiecewiseParams(a=0.8, q0=1.0, q1=3.0)])
def test_localized_edge_matches_bisection(critical_pair, params):
    # the default bump spans the well |y| < y*, and the closed-form y* is
    # one of the two adjacent floats between which qtilde changes sign
    sp = smooth(params)
    lo, hi = params.a / 2.0 - sp.smoothing.delta, params.a / 2.0
    assert sp.qtilde(lo) < 0.0 < sp.qtilde(hi)
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if sp.qtilde(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    b = localized_test_value(critical_pair, 32.0, sp)
    assert 2.0 * b.bump_halfwidth in (lo, hi)


@pytest.mark.parametrize("probe", ["delocalized", "localized"])
def test_test_values_refuse_a_profile_typed(critical_pair, profile32, probe):
    # both probes read the smoothed potential; a profile built from it once
    # failed with an AttributeError deep in the quadrature
    calls = {
        "delocalized": lambda sp: delocalized_test_value(critical_pair, 1.0, 32.0, 3, sp=sp),
        "localized": lambda sp: localized_test_value(critical_pair, 32.0, sp=sp),
    }
    for wrong in (profile32, None):
        with pytest.raises(TypeError, match="sp must be a SmoothedPotential"):
            calls[probe](wrong)
