"""Scaling-exponent optimization and the two test-function negativity checks.

The potential ansatz is phi_x(x) = gamma_prefactor * L^{c2-c1-1} + L^{c2} *
qtilde(x * L^{c1}) for a fixed compactly supported shape qtilde. The admissible
(c1, c2) region is cut out by two linear constraints; the radius exponent
c2 + c1/2 is minimized exactly over rationals. The delocalized and localized
test values reproduce, by quadrature, the arguments showing which exponent
pairs cannot give a coercive operator.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np


class ResolutionFaultError(RuntimeError):
    """Quadrature refinement exhausted without convergence."""


class OperatorOrder(Enum):
    """Order of the kinetic term: fourth for K = d4 - d2 + phi_x, second for
    the Schrodinger-type comparison form."""

    FOURTH = "fourth"
    SECOND = "second"

    @property
    def kinetic_slope(self) -> Fraction:
        # upper constraint c2 <= slope * c1 from the uncertainty-principle budget
        return Fraction(4) if self is OperatorOrder.FOURTH else Fraction(2)


class PotentialClass(Enum):
    WEAK = "weak"
    CRITICAL = "critical"
    STRONG = "strong"


@dataclass(frozen=True)
class ExponentPair:
    """Pair of positive rational exponents, stored exactly."""

    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("exponents must be positive")

    def objective(self) -> Fraction:
        return self.c2 + self.c1 / 2


@dataclass(frozen=True)
class CriticalExponents:
    pair: ExponentPair
    objective: Fraction
    order: OperatorOrder


def solve_critical_exponents(order: OperatorOrder) -> CriticalExponents:
    """Minimize c2 + c1/2 subject to c2 >= c1 + 1 and c2 <= slope*c1, exactly.

    The feasible region is a wedge with a single vertex, where both
    constraints bind: c1 = 1/(slope - 1), c2 = slope/(slope - 1). The
    objective grows along both of its boundary rays, so the vertex is the
    minimum. Everything is Fraction arithmetic.
    """
    slope = order.kinetic_slope
    best = ExponentPair(1 / (slope - 1), slope / (slope - 1))
    return CriticalExponents(pair=best, objective=best.objective(), order=order)


def classify(pair: ExponentPair) -> PotentialClass:
    """Classify by the exact sign of c2 - 4*c1."""
    gap = pair.c2 - 4 * pair.c1
    if gap < 0:
        return PotentialClass.WEAK
    if gap == 0:
        return PotentialClass.CRITICAL
    return PotentialClass.STRONG


def _refining_quadrature(func, lo, hi, rtol=1e-12, n0=4096, max_levels=12):
    """Trapezoid with grid doubling; integrands here vanish smoothly at the
    endpoints, so convergence is fast once features are resolved."""
    prev = None
    n = n0
    for _ in range(max_levels):
        y = np.linspace(lo, hi, n + 1)
        val = np.trapezoid(func(y), y)
        if prev is not None and abs(val - prev) <= rtol * (1.0 + abs(val)):
            return val
        prev = val
        n *= 2
    raise ResolutionFaultError(
        f"quadrature on [{lo}, {hi}] did not converge within {max_levels} refinements"
    )


def _check_smoothed(sp):
    from .potential import SmoothedPotential  # potential imports this module

    if not isinstance(sp, SmoothedPotential):
        raise TypeError(f"sp must be a SmoothedPotential, not {type(sp).__name__}")


def delocalized_test_value(pair, gamma_prefactor, L, k, sp):
    """<u, K u> for u = L^{-1/2} sin(k pi x / L) against the scaled ansatz
    built on the smoothed potential ``sp``; TypeError for anything else."""
    _check_smoothed(sp)
    if L <= 0:
        raise ValueError("L must be positive")
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer mode index")
    kappa = k * np.pi / L
    value = kappa**4 - kappa**2
    mean_exp = float(pair.c2 - pair.c1 - 1)
    value += gamma_prefactor * L**mean_exp
    half = sp.support_halfwidth
    arg_scale = np.pi * k * L ** float(-1 - pair.c1)

    def integrand(y):
        return sp.qtilde(y) * np.sin(arg_scale * y) ** 2

    integral = _refining_quadrature(integrand, -half, half)
    value += L ** float(pair.c2 - 1 - pair.c1) * integral
    return value


def _bump(t):
    out = np.zeros_like(t, dtype=float)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def _bump_d1(t):
    out = np.zeros_like(t, dtype=float)
    m = np.abs(t) < 1.0
    s = 1.0 - t[m] ** 2
    out[m] = np.exp(-1.0 / s) * (-2.0 * t[m] / s**2)
    return out


def _bump_d2(t):
    out = np.zeros_like(t, dtype=float)
    m = np.abs(t) < 1.0
    tm = t[m]
    s = 1.0 - tm**2
    out[m] = np.exp(-1.0 / s) * (4.0 * tm**2 / s**4 - 2.0 / s**2 - 8.0 * tm**2 / s**3)
    return out


@dataclass(frozen=True)
class LocalizedBudget:
    """Total quadratic-form value for the localized bump and its four pieces."""

    total: float
    potential_term: float
    kinetic_fourth: float
    kinetic_second: float
    mean_term: float
    bump_center: float
    bump_halfwidth: float


def localized_test_value(pair, L, sp):
    """<u, K u> for a smooth bump u placed where the scaled potential is negative.

    The bump is the standard compactly supported exponential bump scaled to the
    middle half of the smoothed potential's well |y| < y*, where qtilde < 0.
    The edge y* = a/2 - delta + delta t* is where the mollified ramp from -q0
    to q1 crosses zero, f(t*) = q0/(q0 + q1): t* = 2/(kappa + 2 +
    sqrt(kappa^2 + 4)) with kappa = ln(q1/q0). Its half-width
    (a/2 - delta (1 - t*))/2 exceeds a/8, since delta < a/4. The mean term
    carries the unit prefactor. Returns the total and the four scaling
    contributions. ``sp`` is the smoothed potential; TypeError for anything
    else.
    """
    _check_smoothed(sp)
    p, delta = sp.params, sp.smoothing.delta
    kappa = math.log(p.q1 / p.q0)
    t_edge = 2.0 / (kappa + 2.0 + math.sqrt(kappa * kappa + 4.0))
    halfwidth = 0.5 * (p.a / 2.0 - delta + delta * t_edge)

    t = np.linspace(-1.0, 1.0, 20001)
    b2 = np.trapezoid(_bump(t) ** 2, t)
    b1sq = np.trapezoid(_bump_d1(t) ** 2, t)
    b2sq = np.trapezoid(_bump_d2(t) ** 2, t)
    qb = np.trapezoid(sp.qtilde(halfwidth * t) * _bump(t) ** 2, t)

    c1f, c2f = float(pair.c1), float(pair.c2)
    potential_term = L ** (c2f - c1f) * halfwidth * qb
    kinetic_fourth = L ** (3 * c1f) * b2sq / halfwidth**3
    kinetic_second = -(L**c1f) * b1sq / halfwidth
    mean_term = L ** (c2f - 2 * c1f - 1) * halfwidth * b2
    total = potential_term + kinetic_fourth + kinetic_second + mean_term
    return LocalizedBudget(
        total=total,
        potential_term=potential_term,
        kinetic_fourth=kinetic_fourth,
        kinetic_second=kinetic_second,
        mean_term=mean_term,
        bump_center=0.0,
        bump_halfwidth=halfwidth,
    )
