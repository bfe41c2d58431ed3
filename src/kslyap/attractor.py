"""Attracting-ball constants: the decay/forcing pair (lambda, M^2) behind the
differential inequality d/dt |u - phi|_2^2 <= -lambda |u|_2^2 + M^2, the two
ball radii it implies, and a residual monitor that checks the inequality along
simulated trajectories.

The forcing constant uses the weighted-norm bookkeeping constants of the
rescaled estimate: M^2 = 16 |phi_x|_2^2 + 2*16^3 |phi_xx|_2^2, with both
weights named constants. lambda is taken from the certified coercivity
margin, the only computable instantiation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coercivity import CoercivityReport
from .potential import PotentialProfile, norms
from .solver import Trajectory, _power

#: the weights in M^2 = GRAD_COEFF*|phi_x|^2 + HESS_COEFF*|phi_xx|^2;
#: GRAD_COEFF is the amplitude rescale factor, HESS_COEFF = 2*rescale^3
GRAD_COEFF = 16.0
HESS_COEFF = 2.0 * 16.0**3


class NotCertifiedError(ValueError):
    """Operation requires a positive certified coercivity margin."""


class InsufficientDataError(ValueError):
    """Too few trajectory samples for a centered-difference residual."""


class OddSubspaceError(ValueError):
    """The coercivity certificate holds on the odd subspace only, and the
    trajectory was not run on it."""


@dataclass(frozen=True)
class LyapunovConstants:
    """Decay rate lambda and forcing constant M^2 of the differential
    inequality d/dt |u - phi|_2^2 <= -lambda |u|_2^2 + M^2."""

    lam: float
    M2: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.M2 < 0:
            raise ValueError("M2 must be nonnegative")


@dataclass(frozen=True)
class AttractorBound:
    """r_star: ball radius about phi; r_star_star: ball radius about 0."""

    r_star: float
    r_star_star: float


def radius(phi_norm: float, M2: float, lam: float) -> AttractorBound:
    """r_star^2 = |phi|^2 + 2 M^2/lambda and
    r_star_star = sqrt(2 |phi|^2 + 2 M^2/lambda) + |phi|."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if M2 < 0 or phi_norm < 0:
        raise ValueError("phi_norm and M2 must be nonnegative")
    r_star = math.sqrt(phi_norm**2 + 2.0 * M2 / lam)
    r_star_star = math.sqrt(2.0 * phi_norm**2 + 2.0 * M2 / lam) + phi_norm
    return AttractorBound(r_star=r_star, r_star_star=r_star_star)


def forcing_constant(profile: PotentialProfile) -> float:
    """M^2 = GRAD_COEFF * |phi_x|_2^2 + HESS_COEFF * |phi_xx|_2^2."""
    nrm = norms(profile)
    return GRAD_COEFF * nrm.phi_x**2 + HESS_COEFF * nrm.phi_xx**2


@dataclass(frozen=True)
class HeadlineBound:
    """Final ball radius for one profile, with the L^{3/2}-scaled value."""

    L: float
    lam: float
    M2: float
    phi_norm: float
    h2_norm: float
    r_star: float
    r_star_star: float
    r_scaled: float

    @property
    def constants(self) -> LyapunovConstants:
        """The (lambda, M^2) pair behind the radii, for ``monitor``."""
        return LyapunovConstants(lam=self.lam, M2=self.M2)


def headline_bound(profile: PotentialProfile, report: CoercivityReport) -> HeadlineBound:
    """Combine the forcing constant with lambda = report.delta_margin into
    the ball radius; r_scaled = R**/L^{3/2}. The one step from a
    certificate to the ball: a report that is not ``certified`` raises
    ``NotCertifiedError``."""
    if not report.certified:
        raise NotCertifiedError(
            f"coercivity is not certified (margin {report.delta_margin:.6g}, converged {report.converged})"
        )
    nrm = norms(profile)
    M2 = forcing_constant(profile)
    bound = radius(nrm.phi, M2, report.delta_margin)
    return HeadlineBound(
        L=profile.L,
        lam=report.delta_margin,
        M2=M2,
        phi_norm=nrm.phi,
        h2_norm=nrm.h2,
        r_star=bound.r_star,
        r_star_star=bound.r_star_star,
        r_scaled=bound.r_star_star / profile.L**1.5,
    )


@dataclass(frozen=True, eq=False)
class MonitorReport:
    """Centered-difference residual statistics for the ball inequality."""

    violations: int
    max_residual: float
    tolerance: float
    n_samples: int
    residuals: np.ndarray


# samples per block of _distance2: a block's difference from phi takes
# 64 (N/2 + 1) complex numbers (264 KB at N = 512), and a trajectory of up to
# 64 samples is one block
_DISTANCE_BLOCK = 64


def _distance2(trajectory: Trajectory, profile: PotentialProfile) -> np.ndarray:
    """|u - phi|_2^2 on the solver grid at every sample, by Parseval on the
    half spectrum, one block of ``_DISTANCE_BLOCK`` samples at a time."""
    phi_hat = np.fft.rfft(profile.phi_nodes(trajectory.N), norm="forward")
    half = trajectory.half
    out = np.empty(half.shape[0])
    for i in range(0, half.shape[0], _DISTANCE_BLOCK):
        out[i : i + _DISTANCE_BLOCK] = np.sum(_power(half[i : i + _DISTANCE_BLOCK] - phi_hat), axis=1)
    return 2.0 * trajectory.L * out


def monitor(trajectory: Trajectory, profile: PotentialProfile, constants: LyapunovConstants) -> MonitorReport:
    """Residual r(t) = d/dt |u - phi|_2^2 + lam |u|_2^2 - M2 along the sampled
    trajectory, d/dt by centered differences on the native sampling. Counts
    samples with r above 1e-6 * (1 + M2). The certificate behind lam holds
    on odd functions only, so a trajectory not run with ``odd_only`` raises
    ``OddSubspaceError``."""
    if not trajectory.config.odd_only:
        raise OddSubspaceError("the coercivity certificate holds on the odd subspace only; run the trajectory with odd_only")
    t = trajectory.t
    if t.size < 3:
        raise InsufficientDataError("need at least 3 samples for centered differences")
    dts = np.diff(t)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise ValueError("trajectory sampling must be uniform")
    dist2 = _distance2(trajectory, profile)
    ddt = (dist2[2:] - dist2[:-2]) / (2.0 * dts[0])
    residuals = ddt + constants.lam * trajectory.l2[1:-1] ** 2 - constants.M2
    tolerance = 1e-6 * (1.0 + constants.M2)
    violations = int(np.sum(residuals > tolerance))
    return MonitorReport(
        violations=violations,
        max_residual=float(np.max(residuals)),
        tolerance=tolerance,
        n_samples=t.size,
        residuals=residuals,
    )
