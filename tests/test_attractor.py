"""Ball radii from the (lambda, M^2) pair and the trajectory residual monitor."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from kslyap.attractor import (
    GRAD_COEFF,
    HESS_COEFF,
    AttractorBound,
    InsufficientDataError,
    LyapunovConstants,
    NotCertifiedError,
    OddSubspaceError,
    _distance2,
    forcing_constant,
    headline_bound,
    monitor,
    radius,
)
from kslyap.coercivity import CoercivityReport, certify
from kslyap.potential import PotentialProfile, build_profile, norms
from kslyap.solver import SolveConfig, SpectralState, default_grid, random_initial, simulate


def test_radius_examples():
    b = radius(0.0, 0.0, 5.0)
    assert b == AttractorBound(0.0, 0.0)
    b = radius(3.0, 16.0, 4.0)
    assert np.isclose(b.r_star, math.sqrt(17.0), rtol=1e-15)
    assert np.isclose(b.r_star_star, math.sqrt(26.0) + 3.0, rtol=1e-15)


def test_radius_dominates_center_offset():
    # r_star_star >= r_star + 0 and both grow with each forcing ingredient
    rng = np.random.default_rng(12)
    for _ in range(200):
        phi, m2, lam = rng.uniform(0.0, 10.0), rng.uniform(0.0, 50.0), rng.uniform(0.1, 20.0)
        b = radius(phi, m2, lam)
        assert b.r_star_star >= b.r_star
        assert radius(phi + 1.0, m2, lam).r_star >= b.r_star
        assert radius(phi, m2 + 1.0, lam).r_star_star >= b.r_star_star
        assert radius(phi, m2, lam + 1.0).r_star_star <= b.r_star_star
        # triangle inequality form: ball about 0 contains the ball about phi
        assert b.r_star_star >= b.r_star - phi


def test_radius_validation():
    with pytest.raises(ValueError):
        radius(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        radius(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        radius(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        radius(1.0, -1.0, 1.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        LyapunovConstants(lam=0.0, M2=1.0)
    with pytest.raises(ValueError):
        LyapunovConstants(lam=1.0, M2=-1.0)


def test_forcing_zero_profile(make_flat_profile):
    assert forcing_constant(make_flat_profile(slope=0.0)) == 0.0


def test_forcing_constant_sine_profile():
    # phi = -cos x on [-pi, pi): |phi_x|^2 = |phi_xx|^2 = pi exactly
    n = 1024
    L = np.pi
    x = -L + (2.0 * L / n) * np.arange(n)
    prof = PotentialProfile.from_samples(L, np.sin(x))
    expect = GRAD_COEFF * np.pi + HESS_COEFF * np.pi
    assert np.isclose(forcing_constant(prof), expect, rtol=1e-12)
    assert np.isclose(norms(prof).phi_x**2, np.pi, rtol=1e-12)
    assert HESS_COEFF == 2.0 * GRAD_COEFF**3


def _report(margin, converged=True):
    return CoercivityReport(lambda_min=1.0, delta_margin=margin, N_sequence=(64, 128), converged=converged)


def test_headline_requires_positive_margin(profile32):
    # headline_bound refuses every report that is not certified
    with pytest.raises(NotCertifiedError):
        headline_bound(profile32, _report(0.0))
    with pytest.raises(NotCertifiedError):
        headline_bound(profile32, _report(-3.0))
    with pytest.raises(NotCertifiedError):
        headline_bound(profile32, _report(2.5, converged=False))


def test_headline_field_consistency(profile32):
    hb = headline_bound(profile32, _report(2.5))
    nrm = norms(profile32)
    assert hb.L == 32.0
    assert hb.lam == 2.5
    assert hb.M2 == forcing_constant(profile32)
    assert hb.phi_norm == nrm.phi
    assert hb.h2_norm == nrm.h2
    want = radius(nrm.phi, hb.M2, 2.5)
    assert hb.r_star == want.r_star
    assert hb.r_star_star == want.r_star_star
    assert np.isclose(hb.r_scaled, hb.r_star_star / 32.0**1.5, rtol=1e-15)
    assert hb.constants == LyapunovConstants(lam=2.5, M2=hb.M2)


def test_headline_from_certified_margin(profile32):
    report = certify(profile32)
    hb = headline_bound(profile32, report)
    assert hb.lam == report.delta_margin
    assert hb.lam > 0
    assert np.isfinite(hb.r_scaled) and hb.r_scaled > 0.0
    assert hb.r_star_star > hb.r_star > hb.phi_norm


def _zero_state(L, N):
    return SpectralState(L=L, N=N, half=np.zeros(N // 2 + 1, dtype=complex))


def test_monitor_zero_trajectory(make_flat_profile):
    traj = simulate(_zero_state(8.0, 64), SolveConfig(dt=0.1, t_end=2.0, record_every=1, transient=0.5, odd_only=True))
    prof = make_flat_profile(L=8.0, n=4096, slope=0.0)
    rep = monitor(traj, prof, LyapunovConstants(lam=1.0, M2=0.0))
    assert rep.violations == 0
    assert rep.max_residual == 0.0
    assert rep.n_samples == 21
    assert rep.residuals.shape == (19,)
    assert rep.tolerance == 1e-6


def test_monitor_needs_three_samples(make_flat_profile):
    traj = simulate(_zero_state(8.0, 64), SolveConfig(dt=0.1, t_end=0.1, record_every=1, transient=0.0, odd_only=True))
    with pytest.raises(InsufficientDataError):
        monitor(traj, make_flat_profile(L=8.0, n=4096), LyapunovConstants(lam=1.0, M2=0.0))


def test_monitor_grid_must_divide(make_flat_profile):
    traj = simulate(_zero_state(2.0, 64), SolveConfig(dt=0.1, t_end=1.0, record_every=1, transient=0.0, odd_only=True))
    prof = make_flat_profile(L=2.0, n=4112)  # 4112 = 64*64 + 16
    with pytest.raises(ValueError, match="divide"):
        monitor(traj, prof, LyapunovConstants(lam=1.0, M2=0.0))


def test_monitor_requires_uniform_sampling(make_flat_profile):
    traj = simulate(_zero_state(2.0, 64), SolveConfig(dt=0.1, t_end=1.0, record_every=1, transient=0.0, odd_only=True))
    warped = dataclasses.replace(traj, t=traj.t**1.5 + traj.t)
    with pytest.raises(ValueError, match="uniform"):
        monitor(warped, make_flat_profile(L=2.0, n=4096), LyapunovConstants(lam=1.0, M2=0.0))


def test_monitor_flags_inflated_decay_rate(make_flat_profile):
    # on L = 2 every mode decays at rate <= -3.6, so d/dt |u|^2 ~ -7.2 |u|^2;
    # claiming lambda = 10 with M2 = 0 must be caught
    st = random_initial(2.0, 64, seed=1, amplitude=1.0, odd_only=True)
    traj = simulate(st, SolveConfig(dt=0.01, t_end=2.0, record_every=1, transient=0.1, odd_only=True))
    prof = make_flat_profile(L=2.0, n=4096, slope=0.0)
    rep = monitor(traj, prof, LyapunovConstants(lam=10.0, M2=0.0))
    assert rep.violations > 0
    assert rep.max_residual > rep.tolerance


def test_monitor_accepts_true_decay_rate(make_flat_profile):
    st = random_initial(2.0, 64, seed=1, amplitude=0.5, odd_only=True)
    traj = simulate(st, SolveConfig(dt=0.01, t_end=2.0, record_every=1, transient=0.1, odd_only=True))
    prof = make_flat_profile(L=2.0, n=4096, slope=0.0)
    rep = monitor(traj, prof, LyapunovConstants(lam=0.1, M2=0.0))
    assert rep.violations == 0
    assert rep.max_residual < rep.tolerance
    # with phi = 0 the distance is |u|^2 itself and it contracts monotonically
    assert np.all(np.diff(traj.l2) < 0)


def test_monitor_refuses_a_trajectory_off_the_odd_subspace(make_flat_profile):
    # the certificate holds on odd functions only: general data off that
    # subspace make the form indefinite, so monitor refuses the run
    traj = simulate(random_initial(2.0, 64, seed=1), SolveConfig(dt=0.01, t_end=0.5, record_every=1))
    with pytest.raises(OddSubspaceError, match="odd subspace"):
        monitor(traj, make_flat_profile(L=2.0, n=4096), LyapunovConstants(lam=1.0, M2=0.0))


def test_monitor_refuses_a_profile_on_another_domain():
    # an L = 16 pi run against the L = 64 profile reported 0 violations and
    # a max residual of -1.9e19
    L = 16.0 * np.pi
    traj = simulate(random_initial(L, 256, seed=0, odd_only=True), SolveConfig(t_end=1.0, transient=0.0, odd_only=True))
    profile = build_profile(64.0)
    with pytest.raises(ValueError, match=r"L = 64\.0 differs from the trajectory's L = 50\.26"):
        monitor(traj, profile, LyapunovConstants(lam=1.0, M2=forcing_constant(profile)))


def _grid_distance(traj, profile):
    """|u - phi|_2^2 per sample from the fields on the grid: the reference
    for monitor's Parseval sum on the half spectrum."""
    u = np.fft.irfft(traj.half, n=traj.N, axis=1, norm="forward")
    return (2.0 * traj.L / traj.N) * np.sum((u - profile.phi_nodes(traj.N)) ** 2, axis=1)


def _reference_violations(traj, profile, constants):
    dist2 = _grid_distance(traj, profile)
    ddt = (dist2[2:] - dist2[:-2]) / (2.0 * (traj.t[1] - traj.t[0]))
    residuals = ddt + constants.lam * traj.l2[1:-1] ** 2 - constants.M2
    return int(np.sum(residuals > 1e-6 * (1.0 + constants.M2)))


@pytest.fixture(scope="module")
def monitored_runs():
    """Criterion-6-shaped runs on a shortened horizon: odd data at L = 16 pi
    and 32 pi, gamma 0 and 0.1, with the certified constants."""
    runs = []
    for L in (16.0 * np.pi, 32.0 * np.pi):
        profile = build_profile(L)
        constants = LyapunovConstants(lam=certify(profile).delta_margin, M2=forcing_constant(profile))
        for gamma in (0.0, 0.1):
            cfg = SolveConfig(gamma=gamma, t_end=20.0, transient=10.0, record_every=20, odd_only=True)
            traj = simulate(random_initial(L, default_grid(L), seed=0, odd_only=True), cfg)
            runs.append((traj, profile, constants))
    return runs


def test_monitor_parseval_distance_matches_the_grid_sum(monitored_runs):
    for traj, profile, _ in monitored_runs:
        ref = _grid_distance(traj, profile)
        assert np.abs(_distance2(traj, profile) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_monitor_violations_match_the_grid_sum(monitored_runs, make_flat_profile):
    cfg = SolveConfig(dt=0.01, t_end=2.0, record_every=1, transient=0.1, odd_only=True)
    decaying = simulate(random_initial(2.0, 64, seed=1, odd_only=True), cfg)
    inflated = (decaying, make_flat_profile(L=2.0, n=4096, slope=0.0), LyapunovConstants(lam=10.0, M2=0.0))
    counts = []
    for traj, profile, constants in monitored_runs + [inflated]:
        counts.append(monitor(traj, profile, constants).violations)
        assert counts[-1] == _reference_violations(traj, profile, constants)
        assert "states" not in vars(traj)
    assert counts[:-1] == [0, 0, 0, 0] and counts[-1] > 0


def test_simulate_and_monitor_peak_memory(monitored_runs):
    # 1001 samples at L = 32 pi, N = 512: the recorded half spectra take
    # 4.1 MB. With full mirrored spectra and the monitor's grid fields the
    # traced peak was 16.5 MB (4.0x); the half spectrum and the Parseval
    # distance took it to 12.4 MB (3.0x), and summing the distance in
    # blocks of samples leaves simulate's own peak, 8.3 MB (2.02x)
    _, profile, constants = monitored_runs[2]
    L, N = profile.L, default_grid(profile.L)
    initial = random_initial(L, N, seed=0, odd_only=True)
    cfg = SolveConfig(t_end=50.0, transient=10.0, record_every=1, odd_only=True)
    tracemalloc.start()
    try:
        traj = simulate(initial, cfg)
        monitor(traj, profile, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.half.nbytes == 1001 * (N // 2 + 1) * 16
    assert peak < 2.1 * traj.half.nbytes
