"""Lyapunov potentials and attracting-ball bounds for the 1D Kuramoto-Sivashinsky equation.

The package builds a compactly supported well-and-barrier potential, rescales it
critically with the domain half-length L, certifies coercivity of the associated
fourth-order quadratic form on odd periodic functions by spectral Galerkin
eigenvalue computation, assembles the resulting attracting-ball radius (which
scales like L^{3/2}), and checks the Lyapunov differential inequality against a
dealiased pseudospectral ETDRK4 simulation of KS and its destabilized variant.
"""

from .exponents import (
    ExponentPair,
    OperatorOrder,
    PotentialClass,
    classify,
    delocalized_test_value,
    localized_test_value,
    solve_critical_exponents,
)
from .potential import (
    BSConfig,
    PiecewiseParams,
    PotentialProfile,
    SmoothedPotential,
    SmoothingParams,
    bs_optimal_potential,
    build_piecewise,
    build_profile,
    check_admissible,
    mollifier,
    norms,
    scaled_profile,
    smooth,
)
from .coercivity import (
    CoercivityReport,
    QuadFormMatrix,
    assemble,
    certify,
    hardy_check,
    min_eigenvalue,
    reduced_form_check,
)
from .attractor import (
    AttractorBound,
    LyapunovConstants,
    forcing_constant,
    headline_bound,
    monitor,
    radius,
)
from .solver import (
    SolveConfig,
    SpectralState,
    Trajectory,
    linear_symbol,
    random_initial,
    simulate,
    simulate_many,
    step,
)
from .study import (
    PowerLawFit,
    SweepRecord,
    fit_power_law,
    molinet,
    sweep,
)

__version__ = "0.1.0"
