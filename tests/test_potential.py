"""Step potential admissibility, mollification, domain scaling, profile
assembly, file round trip, and the quartic descent construction."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, simpson

from kslyap import coercivity, potential
from kslyap._accel import gram_from_cosine, splitmix53
from kslyap.coercivity import assemble, certify
from kslyap.exponents import ExponentPair
from kslyap.potential import (
    AdmissibilityError,
    BSConfig,
    DescentFailureError,
    DomainTooSmallError,
    InfeasibleSmoothingError,
    MeanConditionError,
    PiecewiseParams,
    PotentialProfile,
    SmoothedPotential,
    SmoothingParams,
    UnderResolvedGridError,
    bs_functional_and_gradient,
    bs_optimal_potential,
    build_piecewise,
    build_profile,
    check_admissible,
    mollifier,
    norms,
    read_profile,
    scaled_profile,
    smooth,
    write_profile,
)

from conftest import dense_phi_x


def _support_grid(sp):
    """2^14 uniform intervals across the support [-(a + delta), a + delta]."""
    s = sp.support_halfwidth
    return np.linspace(-s, s, (1 << 14) + 1)


def test_default_minors():
    report = check_admissible(PiecewiseParams())
    assert report.passed
    assert report.failures == ()
    assert np.allclose(report.minors, (1.0, 0.25, 0.125), atol=1e-12)


def test_admissibility_matches_eigenvalue_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        params = PiecewiseParams(
            a=float(rng.uniform(0.3, 2.5)),
            q0=float(rng.uniform(0.05, 3.0)),
            q1=float(rng.uniform(0.05, 5.0)),
        )
        report = check_admissible(params)
        definite = bool(np.all(np.linalg.eigvalsh(report.matrix) > 0.0))
        assert report.passed == definite


def test_admissibility_failures_name_the_inequalities():
    report = check_admissible(PiecewiseParams(a=1.0, q0=2.0, q1=3.0))
    assert not report.passed
    assert "q0*a^2 < 1" in report.failures
    # boundary case: q1 - q0 - a^2 q0 q1 = 0 is not admissible
    report = check_admissible(PiecewiseParams(a=1.0, q0=0.5, q1=1.0))
    assert not report.passed
    assert "q1 - q0 - a^2*q0*q1 > 0" in report.failures


def test_step_potential_branch_values():
    Q = build_piecewise(PiecewiseParams())
    assert Q(0.0) == -0.5
    assert Q(0.5) == -0.5  # boundary takes the left-closed branch
    assert Q(0.75) == 2.0
    assert Q(1.0) == 2.0
    assert Q(1.000001) == 0.0
    assert Q(5.0) == 0.0
    assert Q(-0.75) == 2.0  # even extension
    vals = Q(np.array([0.0, 0.6, 3.0]))
    assert vals.shape == (3,)
    assert np.array_equal(vals, [-0.5, 2.0, 0.0])


def test_step_potential_rejects_inadmissible():
    with pytest.raises(AdmissibilityError):
        build_piecewise(PiecewiseParams(a=1.0, q0=2.0, q1=3.0))


def test_params_require_positive_entries():
    with pytest.raises(ValueError):
        PiecewiseParams(a=-1.0)
    with pytest.raises(ValueError):
        PiecewiseParams(q0=0.0)


def test_mollifier_wrapper():
    assert mollifier(0.5) == 0.5
    assert isinstance(mollifier(0.5), float)
    assert mollifier(-2.0) == 0.0
    assert mollifier(3.0) == 1.0
    assert mollifier(1e-3) < 1e-100  # flat to all orders at 0
    out = mollifier(np.array([[0.0, 1.0], [0.5, 0.25]]))
    assert out.shape == (2, 2)


def test_smooth_default_invariants(default_sp):
    sp = default_sp
    # its parameters and the cached integrals only: no sampled grid
    assert vars(sp).keys() == {"params", "smoothing", "_norm_integrals"}
    assert sp.smoothing.delta == 1.0 / 64.0  # no shrink needed at defaults
    assert sp.support_halfwidth == 1.0 + 1.0 / 64.0
    assert sp.mean_qtilde <= -0.75
    assert sp.qtilde(0.0) == 0.0
    assert sp.Qtilde(0.3) == -0.5  # flat branch is exact
    assert sp.Qtilde(0.75) == 2.0
    Qt = sp.Qtilde(_support_grid(sp))
    assert Qt[0] == Qt[-1] == 0.0  # the support's ends
    assert np.array_equal(Qt, Qt[::-1])


@pytest.mark.parametrize("a, q0, q1", [(1.0, 0.5, 2.0), (0.8, 1.0, 3.0), (1.2, 0.3, 0.9)])
def test_smoothed_dominates_step_exactly(a, q0, q1):
    # Qtilde >= Q with no slack: at every branch boundary, at the floats on
    # either side of it, and at 10^5 points of the seeded stream
    params = PiecewiseParams(a, q0, q1)
    sp = smooth(params)
    Q = build_piecewise(params)
    d = sp.smoothing.delta
    edges = np.array([d, a / 2.0 - d, a / 2.0, a, a + d])
    around = np.concatenate(([0.0], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
    spread = 1.25 * (a + d) * (splitmix53(7, 0, 100_000) * 2.0**-52 - 1.0)  # uniform on the support and past it
    for y in (around, -around, spread):
        assert np.all(sp.Qtilde(y) >= Q(y))


def test_smooth_refuses_inadmissible_before_quadrature(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(potential.SmoothedPotential, "_norm_integrals_half", no_quadrature)
    with pytest.raises(AdmissibilityError):
        smooth(PiecewiseParams(a=1.0, q0=2.0, q1=3.0))


def test_smooth_mean_value(default_sp):
    # frozen value confirmed by two independent quadratures of qtilde
    assert np.isclose(default_sp.mean_qtilde, -140.44584128179335, rtol=1e-10)


def _reference_integrals(sp):
    """mean_qtilde and ``_norm_integrals`` (int qtilde^2, int qtilde_y^2,
    I1, I2, m) by scipy's Simpson rules, written from the step potential
    and the mollifier's definition: piece by piece, with the branch ends as
    breakpoints, 2^16 intervals per shoulder and 2^18 per flat piece. I1
    and I2 integrate G(y) = int_0^y qtilde, run by cumulative Simpson."""
    a, q0, q1 = sp.params.a, sp.params.q0, sp.params.q1
    d = sp.smoothing.delta

    def f(t):  # e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)}) and its slope on [0, 1]
        t = np.clip(t, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ea, eb = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
            slope = ea * eb / (ea + eb) ** 2 * (1.0 / t**2 + 1.0 / (1.0 - t) ** 2)
        return ea / (ea + eb), np.where((t > 0.0) & (t < 1.0), slope, 0.0)

    def shoulder(c0, c1, t_of_y, dt_dy):  # c0 + (c1 - c0) f(t(y)), and d/dy
        def Q(y):
            v, dv = f(t_of_y(y))
            return c0 + (c1 - c0) * v, (c1 - c0) * dv * dt_dy
        return Q, 1 << 16

    def flat(c):
        return (lambda y: (np.full_like(y, c), np.zeros_like(y))), 1 << 18

    pieces = [
        (0.0, d, shoulder(0.0, -q0, lambda y: y / d, 1.0 / d)),
        (d, a / 2 - d, flat(-q0)),
        (a / 2 - d, a / 2, shoulder(-q0, q1, lambda y: (y - (a / 2 - d)) / d, 1.0 / d)),
        (a / 2, a, flat(q1)),
        (a, a + d, shoulder(0.0, q1, lambda y: (a + d - y) / d, -1.0 / d)),
    ]
    G_end, mean, q2, qy2, runs = 0.0, 0.0, 0.0, 0.0, []
    for lo, hi, (Q_of, n) in pieces:
        y = np.linspace(lo, hi, n + 1)
        Q, dQ = Q_of(y)
        r = np.divide(1.0, y, out=np.zeros_like(y), where=y > 0.0)  # Q and dQ vanish at 0
        q, qy = Q * r**2, dQ * r**2 - 2.0 * Q * r**3
        mean += 2.0 * simpson(q, x=y)
        q2 += 2.0 * simpson(q * q, x=y)
        qy2 += 2.0 * simpson(qy * qy, x=y)
        G = G_end + cumulative_simpson(q, x=y, initial=0.0)
        runs.append((y, G))
        G_end = G[-1]
    m = G_end
    I1 = sum(simpson(G * G - m * m, x=y) for y, G in runs)
    I2 = sum(simpson(y * (G - m), x=y) for y, G in runs)
    return mean, (q2, qy2, I1, I2, m)


@pytest.mark.parametrize(
    "params, mu", [((1.0, 0.5, 2.0), 0.75), ((0.8, 1.0, 3.0), 0.75), ((1.2, 0.3, 0.9), 0.75), ((1.0, 0.5, 2.0), 250.0)]
)
def test_qtilde_integrals_match_references(params, mu):
    # mu = 250 halves delta twice, to a/256. The largest relative gap is
    # 3.3e-13 (I1, whose G^2 - m^2 cancels), then 1.1e-13 (I2) and at most
    # 2.5e-14 on the rest: the reference's own error, for with 2^16
    # intervals on the flat pieces it was 6e-12 at delta = a/256. 1e-11
    # leaves a factor 30
    sp = smooth(PiecewiseParams(*params), SmoothingParams(delta=params[0] / 64.0, mu=mu))
    assert sp.smoothing.delta == params[0] / (64.0 if mu < 1.0 else 256.0)
    mean, ref = _reference_integrals(sp)
    assert abs(sp.mean_qtilde - mean) <= 1e-11 * abs(mean)
    for got, want in zip(sp._norm_integrals, ref):
        assert abs(got - want) <= 1e-11 * abs(want)


def test_smooth_second_difference_bounded(default_sp):
    y = _support_grid(default_sp)
    h = y[1] - y[0]
    Qt = default_sp.Qtilde(y)
    d2 = (Qt[2:] - 2.0 * Qt[1:-1] + Qt[:-2]) / h**2
    assert np.all(np.isfinite(d2))
    assert np.max(np.abs(d2)) < 1e7


def test_smooth_deep_well_mean():
    # for delta <= a/100 the origin shoulder alone forces mean <= -q0/(2 delta)
    sp = smooth(PiecewiseParams(), SmoothingParams(delta=1.0 / 128.0, mu=0.75))
    assert sp.mean_qtilde <= -0.5 * 128.0 / 2.0


def test_smooth_shrinks_delta_to_meet_mu():
    sp = smooth(PiecewiseParams(), SmoothingParams(delta=1.0 / 64.0, mu=500.0))
    assert sp.smoothing.delta < 1.0 / 64.0
    assert sp.mean_qtilde / 2.0 <= -500.0


def test_smooth_delta_floor_error():
    with pytest.raises(InfeasibleSmoothingError):
        smooth(PiecewiseParams(), SmoothingParams(delta=1.0 / 8.0, mu=1e9))


def test_smooth_rejects_wide_delta():
    with pytest.raises(ValueError):
        smooth(PiecewiseParams(), SmoothingParams(delta=0.3, mu=0.75))


def test_smoothed_potential_requires_delta_below_a_quarter():
    # the type itself refuses overlapping smoothing pieces, at delta = a/4
    # already; smooth reports it before the admissibility of the step
    for params in (PiecewiseParams(), PiecewiseParams(a=0.8, q0=1.0, q1=3.0)):
        with pytest.raises(ValueError, match="below a/4"):
            SmoothedPotential(params, SmoothingParams(delta=params.a / 4.0, mu=0.75))
    inadmissible = PiecewiseParams(q0=2.0)
    with pytest.raises(ValueError, match="below a/4"):
        smooth(inadmissible, SmoothingParams(delta=0.25, mu=0.75))
    with pytest.raises(AdmissibilityError):
        smooth(inadmissible, SmoothingParams(delta=0.2, mu=0.75))


def test_scale_to_domain_samples(default_sp, profile32):
    # the scaled potential q on the whole grid: the profile's window of
    # nonzero samples, zero elsewhere
    L = 32.0
    n = profile32.n
    q = np.zeros(n)
    q[profile32.j0 : profile32.j0 + profile32.window.size] = profile32.window
    assert n == 1 << 19
    assert q[n // 2] == 0.0  # x = 0
    # even about the origin, bit-exact because the kernel sees |y|
    assert np.array_equal(q[n // 2 + 1 :], q[1 : n // 2][::-1])
    sup = np.max(np.abs(q))
    assert np.isclose(sup, L ** (4.0 / 3.0) * np.max(np.abs(default_sp.qtilde(_support_grid(default_sp)))), rtol=0.05)
    # support half-width (a + delta) L^{-1/3} up to one grid cell
    dx = 2.0 * L / n
    x = -L + dx * np.arange(n)
    extent = np.max(np.abs(x[q != 0.0]))
    bound = default_sp.support_halfwidth * L ** (-1.0 / 3.0)
    assert extent <= bound + dx
    assert extent >= bound - 2.0 * dx


def test_scale_to_domain_rejects_small_L():
    with pytest.raises(DomainTooSmallError):
        build_profile(0.5)


def test_build_profile_rejects_small_L():
    with pytest.raises(DomainTooSmallError):
        build_profile(0.9)


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0, -5.0])
def test_build_profile_rejects_non_finite_and_non_positive_L(L):
    # refused before the grid size, which an infinite L divides by zero and
    # a NaN L cannot convert to an integer
    with pytest.raises(ValueError, match="finite and positive"):
        build_profile(L)


def test_profile_fields(profile32, critical_pair):
    p = profile32
    assert p.phi_nodes(2)[1] == 0.0  # phi is zero at x = 0
    assert abs(float(np.mean(dense_phi_x(p)))) < 1e-8
    assert p.mean_q <= -0.75
    assert np.isclose(p.mean_q, -70.22292042792031, rtol=1e-10)
    assert p.mean_q == -p.phi_x_off
    assert potential.CRITICAL_PAIR == critical_pair


def test_profile_norms_resolution_independent(default_sp, critical_pair):
    L = 16.0
    p = build_profile(L)
    n2 = 2 * p.n
    dx2 = 2.0 * L / n2
    x2 = -L + dx2 * np.arange(n2)
    c1, c2 = float(critical_pair.c1), float(critical_pair.c2)
    q2 = L**c2 * default_sp.qtilde(x2 * L**c1)
    mean = float(np.sum(q2)) / n2
    p2 = PotentialProfile.from_samples(L, q2 - mean)
    for coarse, fine in zip(norms(p), norms(p2)):
        assert abs(coarse - fine) <= 1e-6 * abs(fine)


def _dense_reference(p):
    """Moments, norms and phi from the materialized dense arrays: one rfft of
    phi_x, its spectral derivative phi_xx (Nyquist mode dropped) and plain
    sums. phi is accumulated in long double, because a float64 cumulative
    trapezoid over 2^20 points drifts by ~7e-12 of max|phi|."""
    n, dx = p.n, p.dx
    phi_x = dense_phi_x(p)
    m = np.arange(8193)
    spectrum = np.fft.rfft(phi_x)
    moments = dx * np.where(m % 2, -1.0, 1.0) * spectrum[:8193].real
    kd = (np.pi / p.L) * np.arange(n // 2 + 1)
    kd[-1] = 0.0
    phi_xx = np.fft.irfft(1j * kd * spectrum, n)
    px = phi_x.astype(np.longdouble)
    phi = np.concatenate(([0.0], np.cumsum(0.5 * np.longdouble(dx) * (px[:-1] + px[1:]))))
    phi = (phi - phi[n // 2]).astype(float)
    nrm = [np.sqrt(dx * np.sum(f**2)) for f in (phi, phi_x, phi_xx)]
    return moments, nrm, phi


def _dense_margin(moments, L, N):
    kp = (np.pi / L) * np.arange(1, N + 1)
    A = gram_from_cosine(moments, N) / L
    A[np.diag_indices(N)] += 0.75 * kp**4 - kp**2 - 0.25
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[0])


@pytest.mark.parametrize("dense", [False, True], ids=["window", "dense"])
@pytest.mark.parametrize("L", [32.0, 64.0])
def test_profile_matches_dense_reference(L, dense):
    p = build_profile(L)
    assert p.window.size < 8000 < p.n
    if dense:
        # the caller-supplied form of the same samples: a window as long as
        # the grid, whose levels take the dense step
        p = PotentialProfile.from_samples(L, dense_phi_x(p))
    moments, ref_norms, phi = _dense_reference(p)
    # phi_x's moments: the window's, plus the constant's 2 L phi_x_off in C_0
    c = p._window_moments(8193).copy()
    c[0] += 2.0 * p.L * p.phi_x_off
    assert np.max(np.abs(c - moments)) <= 1e-9 * np.max(np.abs(moments))
    if dense:
        # a constructed profile's norms are the continuum's, which
        # test_constructed_norms_match_a_refined_grid checks
        for value, ref in zip(norms(p)[:3], ref_norms):
            assert abs(value - ref) <= 1e-10 * ref
    # a window as long as the grid has the float64 running-sum drift of phi
    phi_tol = 1e-11 if dense else 1e-12
    for N in (64, 512):
        nodes = phi[:: p.n // N]
        assert np.max(np.abs(p.phi_nodes(N) - nodes)) <= phi_tol * np.max(np.abs(phi))
    report = certify(p)
    assert abs(report.delta_margin - _dense_margin(moments, L, report.N_sequence[-1])) <= 1e-8


def _refined_grid_norms(p, r):
    """|phi|, |phi_x|, |phi_xx| of a constructed profile's scaled potential
    sampled on the grid r times finer than its own, from the dense arrays:
    phi_x = q - mean(q), phi its trapezoid integral, zero at x = 0, and
    phi_xx by Parseval from phi_x's spectrum with the Nyquist mode dropped."""
    L, n = p.L, r * p.n
    dx = 2.0 * L / n
    c1, c2 = float(potential.CRITICAL_PAIR.c1), float(potential.CRITICAL_PAIR.c2)
    # q vanishes a coarse cell or more outside the coarse window
    j = np.arange(max(r * (p.j0 - 1), 0), min(r * (p.j0 + p.window.size + 1), n))
    phi_x = np.zeros(n)
    phi_x[j] = L**c2 * p.source.qtilde((-L + dx * j) * L**c1)
    phi_x -= np.sum(phi_x) / n
    phi = np.concatenate(([0.0], np.cumsum(0.5 * dx * (phi_x[:-1] + phi_x[1:]))))
    phi -= phi[n // 2]
    k = (np.pi / L) * np.arange(n // 2 + 1)
    k[-1] = 0.0
    hess2 = 2.0 / n * float(np.sum(k**2 * np.abs(np.fft.rfft(phi_x)) ** 2))
    # np.sum adds pairwise; a float64 dot over 2^22 terms rounds to ~1e-12
    return [np.sqrt(dx * s) for s in (np.sum(phi * phi), np.sum(phi_x * phi_x), hess2)]


@pytest.mark.parametrize("L", [32.0, 64.0])
def test_constructed_norms_match_a_refined_grid(L):
    # norms(build_profile(L)) are the continuum norms, in closed form. On
    # the grid 4x finer than the profile's (128 points across the scaled
    # smoothing width), the trapezoid and spectral sums of phi_x and phi_xx
    # have converged: they agree to 7e-16 at L = 32 and 64. phi is a
    # running trapezoid integral, second order in dx: its gap is 1.5e-8,
    # 3.0e-9, 7.6e-10 and 1.9e-10 relative on grids 1x, 2x, 4x and 8x as
    # fine at L = 32, falling 4x per halving, so 2e-9 leaves a factor 2.6
    p = build_profile(L)
    ref = _refined_grid_norms(p, 4)
    got = norms(p)
    assert abs(got.phi - ref[0]) <= 2e-9 * ref[0]
    for value, want in zip(got[1:3], ref[1:]):
        assert abs(value - want) <= 1e-12 * want


def _counted_ffts(monkeypatch):
    """Patch numpy's FFT calls to record each one's name."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    return calls


def test_constructed_norms_scale_exactly(monkeypatch):
    # |phi_xx|^2 = L^3 int qtilde_y^2 at every L, from one set of L-free
    # integrals, with no window transform and no FFT of any length; nor is
    # phi's running integral over the window, which phi_nodes reads, built
    transforms = _counted_window_dfts(monkeypatch)
    ffts = _counted_ffts(monkeypatch)
    ratios = []
    for L in (8.0, 64.0, 4096.0, 1e6):
        p = build_profile(L)
        nrm = norms(p)
        ratios.append(nrm.phi_xx**2 / L**3)
        assert np.isclose(nrm.h2**2, nrm.phi**2 + nrm.phi_x**2 + nrm.phi_xx**2, rtol=1e-14)
        assert "_window_integral" not in vars(p)
    assert transforms == [] and ffts == []
    assert max(ratios) - min(ratios) <= 1e-12 * ratios[0]


@pytest.mark.parametrize("n", [1 << 14, 1 << 19])
def test_sampled_norms_match_parseval(n):
    # a sampled window spans the grid, so |phi_xx|^2 is its n-point spectrum
    # summed directly. For phi_x = c + sum a_m cos(pi m x / L + t_m), m < n/2,
    # Parseval gives |phi_x|^2 = 2 L c^2 + L sum a_m^2 and
    # |phi_xx|^2 = L sum a_m^2 (pi m / L)^2, here in long double. The
    # constant makes a Toeplitz form of the window cancel: its entries reach
    # (pi/L)^2 n^2 / 12
    L, c = 8.0, 2.5
    modes = {1: (1.0, 0.3), 3: (-0.5, 1.1), 17: (0.25, 2.0), n // 4: (1e-3, 0.7), n // 2 - 1: (1e-6, 0.0)}
    x = -L + (2.0 * L / n) * np.arange(n)
    phi_x = c + sum(a * np.cos(np.pi * m * x / L + t) for m, (a, t) in modes.items())
    got = norms(PotentialProfile.from_samples(L, phi_x))
    k = np.pi * np.array(list(modes), dtype=np.longdouble) / L
    a2 = np.array([a for a, _ in modes.values()], dtype=np.longdouble) ** 2
    want_x = np.sqrt(2 * L * np.longdouble(c) ** 2 + L * np.sum(a2))
    want_xx = np.sqrt(L * np.sum(a2 * k**2))
    assert abs(got.phi_x - want_x) <= 1e-12 * want_x
    assert abs(got.phi_xx - want_xx) <= 1e-12 * want_xx


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _counted_window_dfts(monkeypatch):
    """Patch the chirp-z transform to record the moment count of each call."""
    counts = []
    window_dft = potential._window_dft

    def counted(v, n, count):
        counts.append(count)
        return window_dft(v, n, count)

    monkeypatch.setattr(potential, "_window_dft", counted)
    return counts


def test_moments_computed_on_demand(monkeypatch):
    calls = _counted_window_dfts(monkeypatch)
    built = [build_profile(L) for L in (32.0, 512.0)]
    PotentialProfile.from_samples(64.0, np.linspace(-1.0, 1.0, 4096))
    assert calls == []
    counts = [129, 1025, 4097, 8193]
    for p in built:
        # a fresh copy's first request takes the transform length that
        # 8193 moments need
        ref = replace(p)._window_moments(8193)
        tol = 1e-12 * np.max(np.abs(ref))
        calls.clear()
        for c in counts:
            assert np.max(np.abs(p._window_moments(c) - ref[:c])) <= tol
        rising = len(calls)
        assert 1 <= rising <= len(counts)
        for c in counts[::-1]:
            got = p._window_moments(c)
            assert got.size == c and np.max(np.abs(got - ref[:c])) <= tol
        assert len(calls) == rising  # smaller requests reuse the kept moments


def _moments_as_before(p, count):
    """phi_x's first count cosine moments, of a profile whose moments are
    not yet kept, in one piece: the window's transform at the length that
    count takes, with 2 L phi_x_off added to C_0. The reference for
    ``_window_moments``, which keeps the window's moments and leaves the
    constant out."""
    W = p.window.size
    total = min(potential._pow2(W + count - 1) - W + 1, p.n // 2 + 1)
    m = np.arange(total, dtype=np.int64)
    phase = np.exp(-1j * np.pi * ((m * (2 * p.j0 - p.n)) % (2 * p.n)) / p.n)
    c = p.dx * (phase * potential._window_dft(p.window, p.n, total)).real
    c[0] += 2.0 * p.L * p.phi_x_off
    return c[:count]


@pytest.mark.parametrize("count", [129, 1025])
def test_cosine_moments_keep_their_bits(count):
    # on a constructed profile (phi_x_off != 0) and on sampled ones
    # (phi_x_off = 0); each profile is fresh, so the moments are computed at
    # the transform length of this count. Moment 0 takes the constant's
    # 2 L phi_x_off on top of the window's
    built = build_profile(32.0)
    samples = PotentialProfile.from_samples(32.0, dense_phi_x(built))
    x = np.linspace(-1.0, 1.0, 4096)
    for p in (built, samples, PotentialProfile.from_samples(64.0, x)):
        got, want = p._window_moments(count), _moments_as_before(p, count)
        assert np.array_equal(_bits(got[1:]), _bits(want[1:]))
        assert _bits(got[0] + 2.0 * p.L * p.phi_x_off) == _bits(want[0])
    assert built.phi_x_off != 0.0


def test_window_moments_stop_at_the_grid_resolution():
    # n points resolve moments 0..n/2: one more raises, naming n and the count
    p = PotentialProfile.from_samples(8.0, np.linspace(-1.0, 1.0, 64))
    assert p._window_moments(33).size == 33
    with pytest.raises(UnderResolvedGridError, match=r"\b64 points\b.*\bnot 34$"):
        p._window_moments(34)
    assert issubclass(UnderResolvedGridError, ValueError)
    assert coercivity.UnderResolvedGridError is UnderResolvedGridError


def test_assemble_under_resolved_transforms_nothing(monkeypatch):
    # moment 2N of an N-mode matrix needs n >= 4N: a fresh profile refuses
    # N = n/2 before any window transform
    calls = _counted_window_dfts(monkeypatch)
    p = build_profile(32.0)
    with pytest.raises(UnderResolvedGridError, match=f"{p.n} points.*{p.n + 1}"):
        assemble(p, p.n // 2)
    assert calls == []


@pytest.mark.parametrize("L", [2048.0, 1e4])
def test_profile_memory_flat_in_L(L):
    tracemalloc.start()
    try:
        p = build_profile(L)
        nrm = norms(p)
        c = p._window_moments(8193)
        p.phi_nodes(512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.n >= 1 << 27  # 1 GB per dense float64 array at L = 2048
    assert not {"phi", "phi_x", "phi_xx"} & vars(p).keys()
    assert np.isfinite(nrm.h2) and np.all(np.isfinite(c))
    assert peak < 64 * 2**20


def test_profile_sup_grows_linearly(profile32):
    p64 = build_profile(64.0)
    sup = [float(np.max(np.abs(p.phi_nodes(p.n)))) for p in (p64, profile32)]
    ratio = sup[0] / sup[1]
    assert 1.8 < ratio < 2.2


def test_assemble_rejects_weak_mean():
    # delta = 0.22 leaves the profile's mean, half the integral of qtilde,
    # at -0.54: past smooth's mu = 0.5, but above the -3/4 that
    # scaled_profile requires
    sp = smooth(PiecewiseParams(), SmoothingParams(delta=0.22, mu=0.5))
    assert sp.smoothing.delta == 0.22
    with pytest.raises(MeanConditionError, match="-0.54"):
        scaled_profile(sp, 4.0)


def test_assemble_rejects_bad_shape():
    with pytest.raises(ValueError):
        PotentialProfile.from_samples(4.0, np.zeros(15))
    with pytest.raises(ValueError):
        PotentialProfile.from_samples(4.0, np.zeros(2))


def test_profile_round_trip(tmp_path):
    # the file holds the parameters, and reading it rebuilds the profile
    # bit for bit
    for L in (2.0, 64.0, 4096.0):
        p = build_profile(L)
        path = tmp_path / f"profile_L{L:g}.json"
        write_profile(p, path)
        assert path.stat().st_size < 2048
        meta = json.loads(path.read_text())
        assert meta["n"] == p.n
        assert meta["params"] == {"a": 1.0, "q0": 0.5, "q1": 2.0}
        assert meta["smoothing"] == {"delta": 1.0 / 64.0, "mu": 0.75}
        assert meta["norms"] == norms(p)._asdict()
        back = read_profile(path)
        assert (back.L, back.n, back.j0) == (p.L, p.n, p.j0)
        assert meta["exponents"] == {"c1": "1/3", "c2": "4/3"}
        assert np.array_equal(_bits(back.window), _bits(p.window))
        assert _bits(back.phi_x_off) == _bits(p.phi_x_off)
        assert _bits(back.mean_q) == _bits(p.mean_q)


def test_profile_file_is_checked(tmp_path, default_sp):
    p = build_profile(2.0)
    path = tmp_path / "profile.json"
    write_profile(p, path)
    meta = json.loads(path.read_text())
    edited = dict(meta, mean_q=float(np.nextafter(meta["mean_q"], 0.0)))  # one ulp
    path.write_text(json.dumps(edited))
    with pytest.raises(ValueError, match="mean_q"):
        read_profile(path)
    path.write_text(json.dumps({k: v for k, v in meta.items() if k != "params"}))
    with pytest.raises(ValueError, match="params"):
        read_profile(path)
    # a profile from samples has no parameters that rebuild it: writing it
    # fails, and leaves no file for read_profile to reject; nor can it be
    # handed a source that claims otherwise
    sampled = PotentialProfile.from_samples(2.0, dense_phi_x(p))
    with pytest.raises(ValueError, match="from_samples"):
        write_profile(sampled, tmp_path / "sampled.json")
    assert not (tmp_path / "sampled.json").exists()
    with pytest.raises(TypeError):
        PotentialProfile.from_samples(2.0, dense_phi_x(p), source=default_sp)


def test_profiles_are_critical(critical_pair):
    # build_profile keeps its pair keyword for callers that pass the
    # critical pair, which changes nothing, and refuses any other
    with pytest.raises(ValueError, match="critical pair"):
        build_profile(64.0, pair=ExponentPair(1, 2))
    p, q = build_profile(2.0), build_profile(2.0, pair=critical_pair)
    assert (p.n, p.j0, _bits(p.phi_x_off)) == (q.n, q.j0, _bits(q.phi_x_off))
    assert np.array_equal(_bits(p.window), _bits(q.window))


def test_profile_file_must_be_critical(tmp_path):
    path = tmp_path / "profile.json"
    write_profile(build_profile(2.0), path)
    meta = json.loads(path.read_text())
    path.write_text(json.dumps(dict(meta, exponents={"c1": "1", "c2": "2"})))
    with pytest.raises(ValueError, match="exponents"):
        read_profile(path)


def test_bs_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    L, mu, n = np.pi, 1.0, 64
    dx = 2.0 * L / n
    for _ in range(3):
        u = rng.standard_normal(n)
        u -= u.mean()
        _, g = bs_functional_and_gradient(u, L, mu)
        h = 1e-6
        g_fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            jp, _ = bs_functional_and_gradient(u + e, L, mu)
            jm, _ = bs_functional_and_gradient(u - e, L, mu)
            g_fd[i] = (jp - jm) / (2.0 * h * dx)
        g_fd -= g_fd.mean()  # same mean-free projection as the analytic gradient
        assert np.linalg.norm(g_fd - g) <= 1e-6 * np.linalg.norm(g)


def test_bs_zero_state_is_critical():
    J, g = bs_functional_and_gradient(np.zeros(64), np.pi, 1.0)
    assert J == 0.0
    assert np.array_equal(g, np.zeros(64))


def test_bs_descent_reaches_stationary_point():
    result = bs_optimal_potential()
    assert result.grad_norm < 1e-8
    assert result.iterations > 0
    assert np.all(np.diff(result.values) <= 0.0)
    assert result.value < 1e-12
    assert abs(float(np.mean(result.phi_x))) < 1e-12
    # at mu = 1 the minimizer flattens out: the induced potential is trivial
    assert float(np.max(np.abs(result.phi_x))) < 1e-6


def test_bs_descent_iteration_cap():
    with pytest.raises(DescentFailureError):
        bs_optimal_potential(BSConfig(max_iter=3, tol=1e-14))


def test_bs_config_validation():
    with pytest.raises(ValueError):
        BSConfig(n=63)
    with pytest.raises(ValueError):
        BSConfig(n=4)
