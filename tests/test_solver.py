"""Pseudospectral ETDRK4 integrator: linear symbol, invariant subspaces,
convergence orders, and recording."""

import warnings

import numpy as np
import pytest

from kslyap import solver
from kslyap.solver import (
    BlowUpError,
    SolveConfig,
    SpectralState,
    _etdrk4_coeffs,
    _half_ddx,
    _normals,
    _power,
    _rfft_square,
    default_grid,
    default_transient,
    linear_symbol,
    random_initial,
    simulate,
    simulate_many,
    step,
)


def _mirrored(half, N):
    """Full FFT-ordered spectra (last axis) of half spectra: m >= 0 copied,
    m < 0 their conjugates, as real data requires."""
    full = np.empty(half.shape[:-1] + (N,), dtype=complex)
    full[..., : N // 2 + 1] = half
    full[..., N // 2 + 1 :] = np.conj(full[..., N // 2 - 1 : 0 : -1])
    return full


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
    state = SpectralState(L=8.0, N=64, half=np.zeros(33, dtype=complex))
    out = step(state, SolveConfig(dt=0.1, t_end=1.0))
    assert np.array_equal(out.half, np.zeros(33))
    assert out.t == 0.1


def test_random_initial_deterministic():
    a = random_initial(32.0, 128, seed=4)
    b = random_initial(32.0, 128, seed=4)
    c = random_initial(32.0, 128, seed=5)
    assert np.array_equal(a.half, b.half)
    assert not np.array_equal(a.half, c.half)


def test_random_initial_normalization_and_band():
    st = random_initial(32.0, 128, seed=1, amplitude=2.0)
    assert np.isclose(st.norm_l2, 2.0, rtol=1e-12)
    assert st.half.shape == (65,)
    assert np.max(np.nonzero(st.half)[0]) <= int(32.0 / np.pi)  # index = mode m
    assert st.half[0] == 0.0


def test_random_initial_odd_subspace():
    st = random_initial(32.0, 128, seed=2, odd_only=True)
    assert np.max(np.abs(st.half.real)) == 0.0
    u = st.u()
    mirrored = u[(-np.arange(128)) % 128]
    assert np.max(np.abs(u + mirrored)) < 1e-13


def test_state_fields_match_full_inverse_transform():
    # u() is an irfft of the m >= 0 half; the full complex ifft of the
    # mirrored spectrum is the oracle
    st = random_initial(16.0, 128, seed=4)
    ref = np.fft.ifft(_mirrored(st.half, 128) * 128).real
    assert np.abs(st.u() - ref).max() <= 1e-14 * np.abs(ref).max()
    traj = simulate(st, SolveConfig(dt=0.05, t_end=1.0, record_every=5, transient=0.5))
    for i in (0, traj.t.size - 1):
        ref = np.fft.ifft(_mirrored(traj.half[i], 128) * 128).real
        assert np.abs(traj.u(i) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_state_checks_the_half_spectrum_shape():
    st = SpectralState(L=16.0, N=64, half=np.zeros(33))
    assert st.half.dtype == complex and st.u().shape == (64,)
    # a full spectrum, one mode short, or a stack of states is refused
    for half in (np.zeros(64, dtype=complex), np.zeros(32, dtype=complex), np.zeros((1, 33), dtype=complex)):
        with pytest.raises(ValueError, match=r"N/2\+1 = 33 entries, got shape \(" + str(half.shape[0])):
            SpectralState(L=16.0, N=64, half=half)


@pytest.mark.parametrize("N", [2, 4, 9, 12, 100])
def test_state_refuses_an_n_that_is_not_a_power_of_two_from_8(N):
    # the kernel's transforms take the buffer lengths as given, so an odd or
    # non-power-of-two N is refused when the state is built
    with pytest.raises(ValueError, match=f"N must be a power of two >= 8, got N = {N}"):
        SpectralState(L=10.0, N=N, half=np.zeros(N // 2 + 1, dtype=complex))


def test_random_initial_validation():
    with pytest.raises(ValueError):
        random_initial(8.0, 100)
    with pytest.raises(ValueError):
        random_initial(8.0, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        random_initial(8.0, 64, seed=-1)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
def test_random_initial_refuses_non_finite_amplitude(amplitude):
    # a NaN amplitude reached the integrator, which blamed the step size
    with pytest.raises(ValueError, match="amplitude must be finite"):
        random_initial(8.0, 64, amplitude=amplitude)


def test_random_initial_refuses_negative_amplitude():
    # -2 ran with |u0|_2 = 2; zero stays the zero state
    with pytest.raises(ValueError, match="amplitude must be finite and nonnegative"):
        random_initial(8.0, 64, amplitude=-2.0)
    assert not np.any(random_initial(8.0, 64, amplitude=0.0).half)


def test_normals_are_standard():
    n = 4000
    z = _normals(0, n)
    assert z.shape == (n,)
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 0.05
    # an odd count is the prefix of the next even one
    assert np.array_equal(_normals(0, 7), _normals(0, 8)[:7])


@pytest.mark.parametrize("odd_only", [True, False])
def test_random_initial_seeds_give_distinct_data(odd_only):
    data = np.array([random_initial(32.0, 128, seed=s, odd_only=odd_only).half for s in range(100)])
    gaps = np.abs(data[:, None, :] - data[None, :, :]).max(axis=2)
    assert np.all(gaps[~np.eye(100, dtype=bool)] > 0.0)


def test_random_initial_seed_arithmetic_does_not_warn():
    # uint64 scalars warn on overflow; the stream's state wraps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 3, 2**63, 2**64 - 1, 2**64 + 3, np.int64(5)):
            assert np.isfinite(random_initial(50.0, 256, seed=seed, odd_only=True).half).all()
    # seeds wrap modulo 2^64
    assert np.array_equal(random_initial(50.0, 256, seed=2**64 + 3).half, random_initial(50.0, 256, seed=3).half)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolveConfig(transient=10.0, t_end=5.0)
    with pytest.raises(ValueError):
        SolveConfig(record_every=0)
    # t_end / dt rounds to zero steps (0.4, and 0.5 to even)
    for t_end in (0.02, 0.025):
        with pytest.raises(ValueError, match="zero steps"):
            SolveConfig(dt=0.05, t_end=t_end)
    assert SolveConfig(dt=0.05, t_end=0.03).t_end == 0.03  # rounds to one step


@pytest.mark.parametrize("field", ["gamma", "dt", "t_end", "transient"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_non_finite(field, value):
    # a NaN passes dt <= 0, an infinite t_end overflows the step count, and
    # a NaN gamma would run into a blow-up that blames dt
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SolveConfig(**{field: value})


def test_small_domain_decays():
    st = random_initial(2.0, 64, seed=0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=50.0, record_every=20))
    assert traj.l2[-1] < 1e-8
    assert np.isnan(traj.sup_norm)  # default transient exceeds t_end


def test_simulate_recording_layout():
    st = random_initial(8.0, 64, seed=3)
    traj = simulate(st, SolveConfig(dt=0.1, t_end=1.0, record_every=2, transient=0.3))
    assert traj.t.shape == (6,)
    assert traj.half.shape == (6, 33)
    assert traj.t[0] == 0.0
    assert np.allclose(np.diff(traj.t), 0.2, rtol=1e-12)
    assert np.isclose(traj.t[-1], 1.0, rtol=1e-12)
    # norm series matches the stored coefficients
    k = np.abs((np.pi / 8.0) * np.fft.fftfreq(64, d=1.0 / 64))
    for i in (0, 3, 5):
        p = np.abs(_mirrored(traj.half[i], 64)) ** 2
        assert np.isclose(traj.l2[i], np.sqrt(16.0 * np.sum(p)), rtol=1e-12)
        assert np.isclose(traj.l2_grad[i], np.sqrt(16.0 * np.sum(k**2 * p)), rtol=1e-12)
    post = traj.l2[traj.t > 0.3]
    assert traj.sup_norm == float(np.max(post))
    assert np.isclose(np.linalg.norm(traj.u(0) - st.u()), 0.0, atol=1e-12)


def test_mean_and_reality_preserved():
    st = random_initial(16.0, 128, seed=7, amplitude=3.0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=5.0, record_every=10, transient=1.0))
    assert np.all(traj.half[:, 0] == 0.0)
    assert np.all(traj.half[:, -1].imag == 0.0)
    # the recorded half is the spectrum of the real field it stands for
    final = traj.half[-1]
    back = np.fft.rfft(traj.u(traj.t.size - 1), norm="forward")
    assert np.max(np.abs(back - final)) < 1e-12 * np.max(np.abs(final))


def test_odd_subspace_preserved_without_projection():
    # odd initial data stays odd under the flow itself; no odd_only flag here
    st = random_initial(16.0, 128, seed=11, amplitude=3.0, odd_only=True)
    state = st
    cfg = SolveConfig(dt=0.05, t_end=10.0)
    for _ in range(200):
        state = step(state, cfg)
    drift = float(np.max(np.abs(state.half.real)))
    assert drift < 1e-10 * max(1.0, float(np.max(np.abs(state.half))))


def test_temporal_order_at_least_three_and_a_half():
    L, N, T = 16.0, 64, 1.0
    st = random_initial(L, N, seed=0, amplitude=3.0)

    def integrate(dt):
        state = st
        cfg = SolveConfig(dt=dt, t_end=T)
        for _ in range(int(round(T / dt))):
            state = step(state, cfg)
        return state.half

    # |.|_2 of the half-spectrum error, by Parseval
    ref = integrate(1.0 / 2048.0)
    errs = [np.sqrt(2.0 * L * np.sum(_power(integrate(dt) - ref))) for dt in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)]
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
    fine = b.half[-1]
    coarse = a.half[-1]
    for m in range(1, 22):
        assert abs(coarse[m] - fine[m]) < 1e-8


def test_nonlinearity_of_single_mode_is_exact():
    N, L = 64, 8.0
    w = np.zeros(N // 2 + 1, dtype=complex)
    w[3] = -0.5j  # u = sin(3 pi x / L), half spectrum
    nl = _rfft_square(w, np.empty(N), np.empty(N // 2 + 1, dtype=complex))
    out = _half_ddx(L, N) * nl
    # u u_x pumps only the doubled mode: 6 (and its conjugate -6), amplitude
    # 3 k0 / 4
    k0 = np.pi / L
    assert np.isclose(out[6], -0.75j * k0 * 1.0, rtol=1e-13)
    rest = np.delete(out, 6)
    assert np.max(np.abs(rest)) < 1e-15


def _public_rfft_square(w, u, out):
    """_rfft_square through numpy's public transforms, the reference."""
    out[...] = np.fft.rfft(np.fft.irfft(w, n=u.size, norm="forward") ** 2)
    return out


@pytest.mark.parametrize("N", [8, 64, 256, 512, 4096])
@pytest.mark.parametrize("odd_only", [True, False])
def test_rfft_square_equals_the_public_transforms(odd_only, N):
    # the kernel calls numpy's pocketfft gufuncs directly; they must give
    # what the public np.fft calls give, bit for bit
    for seed in range(3):
        w = random_initial(N / 12.0 * np.pi, N, seed=seed, amplitude=3.0, odd_only=odd_only).half
        got = _rfft_square(w, np.empty(N), np.empty(N // 2 + 1, dtype=complex))
        ref = _public_rfft_square(w, np.empty(N), np.empty(N // 2 + 1, dtype=complex))
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("L, N", [(16.0 * np.pi, 256), (32.0 * np.pi, 512)], ids=["16pi", "32pi"])
def test_simulate_equals_the_public_transform_run(monkeypatch, L, N, gamma):
    # 400 odd steps on each ensemble grid: the run is the same bit for bit
    # when every nonlinear term goes through the public np.fft calls
    cfg = SolveConfig(gamma=gamma, dt=0.05, t_end=20.0, record_every=20, transient=10.0, odd_only=True)
    st = random_initial(L, N, seed=3, odd_only=True)
    traj = simulate(st, cfg)
    monkeypatch.setattr(solver, "_rfft_square", _public_rfft_square)
    ref = simulate(st, cfg)
    assert traj.half.tobytes() == ref.half.tobytes()
    assert np.max(np.abs(ref.half[-1])) > 1e-3  # saturated, not decayed


def _contour_coeffs(sig, dt):
    """Q, f1, f2, f3 by the contour-mean formulas, each exponential and
    power evaluated where it appears."""
    LR = dt * sig[:, None] + np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)[None, :]
    Q = dt * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1).real
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1).real
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (-2.0 + LR)) / LR**3, axis=1).real
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1).real
    return Q, f1, f2, f3


def _reference_step(v, L, N, dt, gamma, odd_only):
    """Independent ETDRK4 step on the full complex spectrum (complex FFTs,
    Hermitian symmetrization as the reality projection)."""
    m = np.fft.fftfreq(N, d=1.0 / N)
    sig = linear_symbol(L, N, gamma)
    Q, f1, f2, f3 = _contour_coeffs(sig, dt)
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


@pytest.mark.parametrize(
    "L, N, dt, gamma",
    [(16.0 * np.pi, 256, 0.05, 0.1), (32.0 * np.pi, 512, 0.05, 0.0), (10.0, 64, 0.5, 0.0)],
    ids=["16pi", "32pi", "10"],
)
def test_coefficients_fold_the_dealiased_derivative(L, N, dt, gamma):
    # the cached phi-coefficients are the contour means times g, bit for bit
    sig = linear_symbol(L, N, gamma)[: N // 2 + 1]
    Q, f1, f2, f3 = _contour_coeffs(sig, dt)
    g = _half_ddx(L, N)
    E, E2, Qg, f1g, f2x2g, f3g = _etdrk4_coeffs(L, N, dt, gamma)
    assert np.array_equal(E, np.exp(dt * sig)) and np.array_equal(E2, np.exp(0.5 * dt * sig))
    for folded, plain in ((Qg, Q), (f1g, f1), (f2x2g, 2.0 * f2), (f3g, f3)):
        assert np.array_equal(folded, plain * g)
    # g is i k/(2N) on the 2/3-rule band and 0 above it
    m = np.arange(N // 2 + 1)
    assert np.all(g[m > N // 3] == 0.0)
    assert np.allclose(g[1 : N // 3 + 1], 0.5j * (np.pi / L) * m[1 : N // 3 + 1] / N, rtol=1e-15)


@pytest.mark.parametrize(
    "odd_only, gamma",
    [(True, 0.1), (False, 0.1), (True, 0.0), (False, 0.0)],
    ids=["True", "False", "True-gamma0", "False-gamma0"],
)
def test_half_spectrum_kernel_matches_full_complex_reference(odd_only, gamma):
    L, N, n_steps = 16.0 * np.pi, 256, 400
    cfg = SolveConfig(gamma=gamma, dt=0.05, t_end=n_steps * 0.05, record_every=n_steps, odd_only=odd_only)
    st = random_initial(L, N, seed=3, odd_only=odd_only)
    ref = _mirrored(st.half, N)
    state = st
    for _ in range(n_steps):
        ref = _reference_step(ref, L, N, cfg.dt, cfg.gamma, odd_only)
        state = step(state, cfg)
    scale = float(np.max(np.abs(ref)))
    assert scale > 1e-3  # the run saturated instead of decaying
    assert np.max(np.abs(_mirrored(state.half, N) - ref)) <= 1e-12 * scale
    traj = simulate(st, cfg)
    assert np.array_equal(traj.half[-1], state.half)
    assert traj.t[-1] == n_steps * cfg.dt


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("odd_only", [True, False])
def test_simulate_samples_equal_the_step_sequence(odd_only, N):
    # simulate alternates two state buffers; every sample must still be the
    # step sequence bit for bit, and no returned state may share a buffer
    L = N / 12.0 * np.pi  # default_grid(L) == N
    st = random_initial(L, N, seed=5, amplitude=2.0, odd_only=odd_only)
    cfg = SolveConfig(gamma=0.1, dt=0.05, t_end=30 * 0.05, record_every=1, transient=0.5, odd_only=odd_only)
    traj = simulate(st, cfg)
    state = st
    assert np.array_equal(traj.half[0], st.half)
    for i in range(1, traj.t.size):
        state = step(state, cfg)
        kept = state.half.copy()
        step(state, cfg)
        assert np.array_equal(state.half, kept)
        assert np.array_equal(traj.half[i], state.half)


def test_simulate_leaves_the_initial_spectrum_alone():
    # odd_only projects general data onto the sine modes in simulate's own
    # buffer: the caller's half spectrum stays as it was, bit for bit
    st = random_initial(16.0, 64, seed=8)
    kept = st.half.copy()
    assert np.max(np.abs(kept.real)) > 0.0  # not odd
    traj = simulate(st, SolveConfig(dt=0.05, t_end=0.5, record_every=1, transient=0.1, odd_only=True))
    assert st.half.tobytes() == kept.tobytes()
    assert np.array_equal(traj.half[0], 1j * kept.imag)  # kept's mean and Nyquist modes are 0
    assert np.max(np.abs(traj.half.real)) == 0.0


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("odd_only", [True, False])
def test_trajectory_states_rebuilt_from_the_half_spectrum(odd_only, N):
    L = N / 12.0 * np.pi
    st = random_initial(L, N, seed=6, amplitude=2.0, odd_only=odd_only)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=2.0, record_every=4, transient=0.5, odd_only=odd_only))
    assert traj.half.shape == (traj.t.size, N // 2 + 1)
    for i in (0, traj.t.size - 1):
        traj.u(i)
    assert "states" not in vars(traj)  # nothing above built the full array
    assert traj.states.shape == (traj.t.size, N)
    assert np.array_equal(traj.states, _mirrored(traj.half, N))
    assert traj.states is traj.states  # built once


def test_sample_at_transient_is_excluded():
    # 20 steps of 0.05 land on t = 1 exactly; summing dt would give 1 + 2e-16
    st = random_initial(2.0, 64, seed=0)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=1.5, record_every=10, transient=1.0))
    assert np.array_equal(traj.t, 0.05 * np.arange(0, 31, 10))
    assert traj.t[2] == 1.0
    # everything decays at L = 2, so including t = 1 would change the sup
    assert traj.l2[2] > traj.l2[3]
    assert traj.sup_norm == traj.l2[3]


def test_simulate_runs_only_recorded_steps(monkeypatch):
    # 27 steps to t_end = 1.35, of which the first 20 are recorded: the 7
    # after t = 1 are not run, and the samples are those of t_end = 1.0.
    # Every step, checked or not, goes through a step function of _stepper
    calls = []
    stepper = solver._stepper

    def counting(*args):
        advance = stepper(*args)

        def counted(v, out):
            calls.append(v.shape)
            return advance(v, out)

        return counted

    monkeypatch.setattr(solver, "_stepper", counting)
    monkeypatch.setattr(solver, "_COEFF_CACHE", {})
    st = random_initial(8.0, 64, seed=3)
    traj = simulate(st, SolveConfig(dt=0.05, t_end=1.35, record_every=10, transient=0.3))
    assert len(calls) == 20
    ref = simulate(st, SolveConfig(dt=0.05, t_end=1.0, record_every=10, transient=0.3))
    assert np.array_equal(traj.t, ref.t) and traj.t[-1] == 1.0
    assert np.array_equal(traj.half.view(np.float64), ref.half.view(np.float64))
    assert traj.sup_norm == ref.sup_norm
    # record_every past the 20 steps to t_end: no step would be recorded
    with pytest.raises(ValueError, match="none would be recorded"):
        simulate(st, SolveConfig(dt=0.05, t_end=1.0, record_every=100))


@pytest.mark.parametrize("odd_only", [True, False])
def test_step_reuses_one_kernel(monkeypatch, odd_only):
    # 100 steps at one setting build one kernel, and give the states that a
    # kernel built afresh for every step gives, bit for bit
    L, N = 8.0 * np.pi, 128
    cfg = SolveConfig(gamma=0.1, dt=0.05, odd_only=odd_only)
    st = random_initial(L, N, seed=4, amplitude=2.0, odd_only=odd_only)
    ref = [st.half]
    for i in range(1, 101):
        fresh = solver._Kernel(L, N, cfg.dt, cfg.gamma, odd_only)
        ref.append(fresh(ref[-1], np.empty_like(st.half), st.t + i * cfg.dt))
    built = []
    init = solver._Kernel.__init__
    monkeypatch.setattr(solver._Kernel, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(solver, "_COEFF_CACHE", {})
    state = st
    for want in ref[1:]:
        state = step(state, cfg)
        assert np.array_equal(state.half.view(np.float64), want.view(np.float64))
    assert built == [(L, N, cfg.dt, cfg.gamma, odd_only)]


def _blow_up_config():
    return random_initial(10.0, 64, seed=0, amplitude=1e8), SolveConfig(dt=0.5, t_end=50.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


@pytest.mark.filterwarnings("error")
def test_unstable_step_raises_quietly_and_names_dt():
    # kslyap simulate --L 50 --odd --gamma 2 --t-end 20 --transient 10: the
    # default step dt = 0.05 loses stability at t = 3.45, and the run raises
    # BlowUpError without a numpy overflow warning before it. The message
    # names the energy bound e^{(gamma + 1/4)(t - t0)} |u(t0)|_2 at t, which
    # the last norm passes: the step size failed, not the solution
    cfg = SolveConfig(gamma=2.0, t_end=20.0, transient=10.0, odd_only=True)
    initial = random_initial(50.0, default_grid(50.0), odd_only=True)
    with pytest.raises(BlowUpError, match=r"time step dt = 0\.05 lost stability at t = 3\.45 ") as info:
        simulate(initial, cfg)
    exc = info.value
    assert np.isclose(exc.t, 3.45, rtol=1e-12) and np.isfinite(exc.norm)
    assert np.isclose(exc.bound, np.exp(2.25 * 3.45) * initial.norm_l2, rtol=1e-12)
    assert np.isfinite(exc.bound) and exc.bound < exc.norm
    assert f"the energy bound e^((gamma + 1/4)(t - t0)) |u(t0)|_2 is {exc.bound:g})" in str(exc)


def _same_run(a, b):
    """Two trajectories equal bit for bit in every recorded field."""
    return (
        a.L == b.L
        and a.N == b.N
        and a.t.tobytes() == b.t.tobytes()
        and a.half.tobytes() == b.half.tobytes()
        and a.l2.tobytes() == b.l2.tobytes()
        and a.l2_grad.tobytes() == b.l2_grad.tobytes()
        and a.l2_hess.tobytes() == b.l2_hess.tobytes()
        and a.sup_norm == b.sup_norm
        and a.transient == b.transient
    )


def _same_error(a, b):
    return type(a) is type(b) is BlowUpError and (a.t, a.norm, a.bound, str(a)) == (b.t, b.norm, b.bound, str(b))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blow_up_between_samples_is_replayed_to_its_step():
    # finiteness is tested once per recorded sample: the step that failed at
    # t = 1.35, inside the first 50-step interval, is found by replaying
    # that interval with the checked step, which step() runs too
    L, N = 16.0 * np.pi, 256
    st = random_initial(L, N, seed=0, odd_only=True)
    cfg = SolveConfig(gamma=5.0, dt=0.05, t_end=5.0, record_every=50, odd_only=True)
    with pytest.raises(BlowUpError) as info:
        simulate(st, cfg)
    exc = info.value
    assert (exc.t, exc.norm, exc.bound) == (1.35, 1.120963329041517e97, 1196.9117776983835)
    with pytest.raises(BlowUpError) as stepped:
        state = st
        for _ in range(cfg.record_every):
            state = step(state, cfg)
    assert np.isclose(stepped.value.t, exc.t, rtol=1e-12) and stepped.value.norm == exc.norm


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("odd_only", [True, False])
@pytest.mark.parametrize("B", [1, 3])
def test_simulate_many_members_equal_their_simulate_runs(B, odd_only, gamma):
    # B members stepped as one stacked state: each is its own simulate run,
    # bit for bit, on both ensemble grids
    for L, N in ((16.0 * np.pi, 256), (32.0 * np.pi, 512)):
        cfg = SolveConfig(gamma=gamma, dt=0.05, t_end=10.0, record_every=20, transient=5.0, odd_only=odd_only)
        initials = [random_initial(L, N, seed=s, odd_only=odd_only) for s in range(B)]
        runs = simulate_many(initials, cfg)
        assert len(runs) == B
        for initial, run in zip(initials, runs):
            assert _same_run(run, simulate(initial, cfg))


def test_simulate_many_groups_members_by_grid(monkeypatch):
    # members on different (L, N), and with different start times, keep
    # their order; those that share a grid are stepped as one stack
    members = [
        random_initial(16.0, 64, seed=1),
        random_initial(8.0 * np.pi, 128, seed=2),
        SpectralState(L=16.0, N=64, half=random_initial(16.0, 64, seed=3).half, t=2.5),
    ]
    cfg = SolveConfig(gamma=0.1, dt=0.05, t_end=3.0, record_every=6, transient=1.0)
    shapes = []
    stepper = solver._stepper

    def recording(coeffs, odd_only, shape):
        shapes.append(shape)
        return stepper(coeffs, odd_only, shape)

    monkeypatch.setattr(solver, "_stepper", recording)
    monkeypatch.setattr(solver, "_COEFF_CACHE", {})
    runs = simulate_many(members, cfg)
    assert sorted(s for s in shapes if len(s) == 2) == [(1, 65), (2, 33)]
    for initial, run in zip(members, runs):
        assert _same_run(run, simulate(initial, cfg))
    assert runs[2].t[0] == 2.5
    with pytest.raises(ValueError, match="none would be recorded"):
        simulate_many(members, SolveConfig(dt=0.05, t_end=1.0, record_every=100))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_many_reports_blow_ups_per_member():
    # the middle member loses stability in the first interval; it gets the
    # error its simulate run raises, and its neighbours still finish, bit
    # for bit
    cfg = SolveConfig(dt=0.5, t_end=50.0, record_every=4, transient=10.0)
    members = [random_initial(10.0, 64, seed=s, amplitude=a) for s, a in ((0, 1.0), (1, 1e8), (2, 3.0))]
    runs = simulate_many(members, cfg)
    with pytest.raises(BlowUpError) as single:
        simulate(members[1], cfg)
    assert _same_error(runs[1], single.value) and runs[1].t == 1.0
    for i in (0, 2):
        assert _same_run(runs[i], simulate(members[i], cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_many_when_every_member_blows_up():
    # three members fail at t = 1.35, 2.7 and 4.1, in the first and second
    # 50-step intervals; each gets its own simulate run's error
    cfg = SolveConfig(gamma=5.0, dt=0.05, t_end=5.0, record_every=50, odd_only=True)
    members = [random_initial(16.0 * np.pi, 256, seed=0, amplitude=a, odd_only=True) for a in (1.0, 1e-3, 1e-6)]
    runs = simulate_many(members, cfg)
    assert [run.t for run in runs] == [27 * 0.05, 54 * 0.05, 82 * 0.05]
    for initial, run in zip(members, runs):
        with pytest.raises(BlowUpError) as single:
            simulate(initial, cfg)
        assert _same_error(run, single.value)


def test_state_refuses_a_non_finite_coefficient():
    # a NaN coefficient reached the kernel, whose blow-up blamed dt
    half = np.zeros(33, dtype=complex)
    half[3] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="half spectrum must be finite"):
        SpectralState(L=16.0, N=64, half=half)


@pytest.mark.parametrize("L", [np.nan, np.inf, -3.0, 0.0])
def test_state_refuses_a_half_length_that_is_not_finite_and_positive(L):
    # NaN was accepted, and -3 failed on |u|_2 with "math domain error"
    with pytest.raises(ValueError, match="L must be finite and positive"):
        SpectralState(L=L, N=64, half=np.zeros(33, dtype=complex))
    with pytest.raises(ValueError, match="L must be finite and positive"):
        random_initial(L, 64)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_state_refuses_a_non_finite_time(t):
    # a NaN start time ran silently: every sample time and sup_norm was NaN
    with pytest.raises(ValueError, match="t must be finite"):
        SpectralState(L=16.0, N=64, half=np.zeros(33, dtype=complex), t=t)


@pytest.mark.parametrize("record_every", [2.5, 2.0, "10", True])
def test_config_refuses_a_record_stride_that_is_not_an_integer(record_every):
    # 2.5 failed inside simulate, where a float is no range bound
    with pytest.raises(ValueError, match="record_every must be an integer"):
        SolveConfig(record_every=record_every)
    assert SolveConfig(record_every=np.int64(4)).record_every == 4
