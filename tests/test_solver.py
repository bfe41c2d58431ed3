"""Pseudospectral ETDRK4 integrator: linear symbol, invariant subspaces,
convergence orders, and recording."""

import numpy as np
import pytest

from kslyap.solver import (
    BlowUpError,
    SolveConfig,
    SpectralState,
    _etdrk4_coeffs,
    _full,
    _nonlinear,
    default_grid,
    default_transient,
    linear_symbol,
    random_initial,
    simulate,
    step,
)


def test_linear_symbol_stability_split():
    sig = linear_symbol(2.0, 64)
    assert sig[0] == 0.0
    assert np.all(sig[1:] < 0.0)  # below L = pi everything decays
    sig = linear_symbol(10.0 * np.pi, 128)
    assert int(np.sum(sig[1 : 64] > 0.0)) == 9
    assert abs(sig[10]) < 1e-12  # mode 10 sits on the marginal wavenumber
    sig = linear_symbol(100.0 * np.pi, 2048)
    assert int(np.sum(sig[1 : 1024] > 0.0)) == 99


def test_linear_symbol_gamma_shift():
    base = linear_symbol(16.0, 64)
    assert np.array_equal(linear_symbol(16.0, 64, gamma=0.3), base + 0.3)


def test_default_grid_examples():
    assert default_grid(2.0) == 64  # floor
    assert default_grid(32.0) == 128
    assert default_grid(16.0 * np.pi) == 256
    assert default_grid(32.0 * np.pi) == 512


def test_default_transient():
    assert default_transient(2.0, 64) == 200.0  # nothing grows: floor applies
    sig = linear_symbol(32.0, 128)
    slowest = float(np.min(sig[1:64][sig[1:64] > 0]))
    assert default_transient(32.0, 128) == max(200.0, 10.0 / slowest)
    assert default_transient(32.0, 128, gamma=1.0) == 200.0


def test_zero_state_is_fixed_point():
    state = SpectralState(L=8.0, N=64, uhat=np.zeros(64, dtype=complex))
    out = step(state, SolveConfig(dt=0.1, t_end=1.0))
    assert np.array_equal(out.uhat, np.zeros(64))
    assert out.t == 0.1


def test_random_initial_deterministic():
    a = random_initial(32.0, 128, seed=4)
    b = random_initial(32.0, 128, seed=4)
    c = random_initial(32.0, 128, seed=5)
    assert np.array_equal(a.uhat, b.uhat)
    assert not np.array_equal(a.uhat, c.uhat)


def test_random_initial_normalization_and_band():
    st = random_initial(32.0, 128, seed=1, amplitude=2.0)
    assert np.isclose(st.norm_l2, 2.0, rtol=1e-12)
    active = np.nonzero(st.uhat)[0]
    m = np.fft.fftfreq(128, d=1.0 / 128)[active]
    assert np.max(np.abs(m)) <= int(32.0 / np.pi)
    assert st.uhat[0] == 0.0


def test_random_initial_odd_subspace():
    st = random_initial(32.0, 128, seed=2, odd_only=True)
    assert np.max(np.abs(st.uhat.real)) == 0.0
    u = st.u()
    mirrored = u[(-np.arange(128)) % 128]
    assert np.max(np.abs(u + mirrored)) < 1e-13


def test_random_initial_validation():
    with pytest.raises(ValueError):
        random_initial(8.0, 100)
    with pytest.raises(ValueError):
        random_initial(8.0, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolveConfig(transient=10.0, t_end=5.0)
    with pytest.raises(ValueError):
        SolveConfig(record_every=0)


def test_small_domain_decays():
    st = random_initial(2.0, 64, seed=0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=50.0, record_every=20))
    assert traj.l2[-1] < 1e-8
    assert np.isnan(traj.sup_norm)  # default transient exceeds t_end


def test_simulate_recording_layout():
    st = random_initial(8.0, 64, seed=3)
    traj = simulate(st, SolveConfig(dt=0.1, t_end=1.0, record_every=2, transient=0.3))
    assert traj.t.shape == (6,)
    assert traj.states.shape == (6, 64)
    assert traj.t[0] == 0.0
    assert np.allclose(np.diff(traj.t), 0.2, rtol=1e-12)
    assert np.isclose(traj.t[-1], 1.0, rtol=1e-12)
    # norm series matches the stored coefficients
    k = np.abs((np.pi / 8.0) * np.fft.fftfreq(64, d=1.0 / 64))
    for i in (0, 3, 5):
        p = np.abs(traj.states[i]) ** 2
        assert np.isclose(traj.l2[i], np.sqrt(16.0 * np.sum(p)), rtol=1e-12)
        assert np.isclose(traj.l2_grad[i], np.sqrt(16.0 * np.sum(k**2 * p)), rtol=1e-12)
    post = traj.l2[traj.t > 0.3]
    assert traj.sup_norm == float(np.max(post))
    assert np.isclose(np.linalg.norm(traj.u(0) - st.u()), 0.0, atol=1e-12)


def test_mean_and_reality_preserved():
    st = random_initial(16.0, 128, seed=7, amplitude=3.0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=5.0, record_every=10, transient=1.0))
    assert np.all(traj.states[:, 0] == 0.0)
    final = traj.states[-1]
    sym = final - np.conj(final[(-np.arange(128)) % 128])
    assert np.max(np.abs(sym)) < 1e-12


def test_odd_subspace_preserved_without_projection():
    # odd initial data stays odd under the flow itself; no odd_only flag here
    st = random_initial(16.0, 128, seed=11, amplitude=3.0, odd_only=True)
    state = st
    cfg = SolveConfig(dt=0.05, t_end=10.0)
    for _ in range(200):
        state = step(state, cfg)
    drift = float(np.max(np.abs(state.uhat.real)))
    assert drift < 1e-10 * max(1.0, float(np.max(np.abs(state.uhat))))


def test_temporal_order_at_least_three_and_a_half():
    L, N, T = 16.0, 64, 1.0
    st = random_initial(L, N, seed=0, amplitude=3.0)

    def integrate(dt):
        state = st
        cfg = SolveConfig(dt=dt, t_end=T)
        for _ in range(int(round(T / dt))):
            state = step(state, cfg)
        return state.uhat

    ref = integrate(1.0 / 2048.0)
    errs = [np.linalg.norm(integrate(dt) - ref) for dt in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 3.5


def test_spatially_resolved_beyond_128():
    # identical band-limited data on two grids: the coarse run is already
    # spectrally converged
    L, T = 16.0, 1.0
    a = simulate(random_initial(L, 128, seed=9, amplitude=3.0), SolveConfig(dt=0.05, t_end=T, record_every=20, transient=0.5))
    b = simulate(random_initial(L, 256, seed=9, amplitude=3.0), SolveConfig(dt=0.05, t_end=T, record_every=20, transient=0.5))
    assert abs(a.l2[-1] - b.l2[-1]) < 1e-8
    # mode-by-mode agreement on the shared band
    fine = b.states[-1]
    coarse = a.states[-1]
    for m in range(1, 22):
        assert abs(coarse[m] - fine[m]) < 1e-8
        assert abs(coarse[-m] - fine[-m]) < 1e-8


def test_nonlinearity_of_single_mode_is_exact():
    N, L = 64, 8.0
    g = _etdrk4_coeffs(L, N, 0.05, 0.0)[-1]
    w = np.zeros(N // 2 + 1, dtype=complex)
    w[3] = -0.5j  # u = sin(3 pi x / L), half spectrum
    out = _full(_nonlinear(w, g))
    # u u_x pumps only the doubled mode: +-6, amplitude 3 k0 / 4
    k0 = np.pi / L
    assert np.isclose(out[6], -0.75j * k0 * 1.0, rtol=1e-13)
    assert np.isclose(out[-6], 0.75j * k0 * 1.0, rtol=1e-13)
    rest = np.delete(out, [6, N - 6])
    assert np.max(np.abs(rest)) < 1e-15


def _reference_step(v, L, N, dt, gamma, odd_only):
    """Independent ETDRK4 step on the full complex spectrum (complex FFTs,
    Hermitian symmetrization as the reality projection)."""
    m = np.fft.fftfreq(N, d=1.0 / N)
    sig = linear_symbol(L, N, gamma)
    LR = dt * sig[:, None] + np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)[None, :]
    Q = dt * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1).real
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1).real
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (-2.0 + LR)) / LR**3, axis=1).real
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1).real
    E, E2 = np.exp(dt * sig), np.exp(0.5 * dt * sig)
    ikd = 0.5j * (np.pi / L) * m * (np.abs(m) <= N // 3)
    nl = lambda w: ikd * np.fft.fft(np.fft.ifft(w * N).real ** 2) / N  # noqa: E731
    Nv = nl(v)
    a = E2 * v + Q * Nv
    Na = nl(a)
    b = E2 * v + Q * Na
    Nb = nl(b)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    v = E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * nl(c)
    v = 0.5 * (v + np.conj(v[(-np.arange(N)) % N]))
    v = 1j * v.imag if odd_only else v
    v[0] = 0.0
    return v


@pytest.mark.parametrize("odd_only", [True, False])
def test_half_spectrum_kernel_matches_full_complex_reference(odd_only):
    L, N, n_steps = 16.0 * np.pi, 256, 400
    cfg = SolveConfig(gamma=0.1, dt=0.05, t_end=n_steps * 0.05, record_every=n_steps, odd_only=odd_only)
    st = random_initial(L, N, seed=3, odd_only=odd_only)
    ref = st.uhat.copy()
    state = st
    for _ in range(n_steps):
        ref = _reference_step(ref, L, N, cfg.dt, cfg.gamma, odd_only)
        state = step(state, cfg)
    scale = float(np.max(np.abs(ref)))
    assert scale > 1e-3  # the run saturated instead of decaying
    assert np.max(np.abs(state.uhat - ref)) <= 1e-12 * scale
    traj = simulate(st, cfg)
    assert np.array_equal(traj.states[-1], state.uhat)
    assert traj.t[-1] == n_steps * cfg.dt


def test_sample_at_transient_is_excluded():
    # 20 steps of 0.05 land on t = 1 exactly; summing dt would give 1 + 2e-16
    st = random_initial(2.0, 64, seed=0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=1.5, record_every=10, transient=1.0))
    assert np.array_equal(traj.t, 0.05 * np.arange(0, 31, 10))
    assert traj.t[2] == 1.0
    # everything decays at L = 2, so including t = 1 would change the sup
    assert traj.l2[2] > traj.l2[3]
    assert traj.sup_norm == traj.l2[3]


def _blow_up_config():
    return random_initial(10.0, 64, seed=0, amplitude=1e8), SolveConfig(dt=0.5, t_end=50.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_raises():
    st, cfg = _blow_up_config()
    with pytest.raises(BlowUpError) as info:
        traj_state = st
        for _ in range(100):
            last = traj_state
            traj_state = step(traj_state, cfg)
    exc = info.value
    assert exc.t == last.t + cfg.dt
    assert np.isfinite(exc.norm)
    assert np.isclose(exc.norm, last.norm_l2, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_raises_through_simulate():
    st, cfg = _blow_up_config()
    with pytest.raises(BlowUpError) as from_step:
        state = st
        for _ in range(100):
            state = step(state, cfg)
    with pytest.raises(BlowUpError) as from_simulate:
        simulate(st, cfg)
    assert np.isclose(from_simulate.value.t, from_step.value.t, rtol=1e-12)
    assert np.isfinite(from_simulate.value.norm)
    assert from_simulate.value.norm == from_step.value.norm
