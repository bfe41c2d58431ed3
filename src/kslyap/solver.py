"""Dealiased pseudospectral ETDRK4 integrator for the 1D periodic
Kuramoto-Sivashinsky equation u_t = -u_xxxx - u_xx + u u_x (+ gamma u for the
destabilized variant), on x in [-L, L) with zero-mean data.

Fourier coefficients are stored normalized, uhat = fft(u)/N, so Parseval reads
|u|_2^2 = 2L * sum |uhat|^2. States and trajectories hold the full spectrum;
time stepping runs on the real-FFT half spectrum m = 0..N/2, rfft(u)/N, so
one kernel serves `step` and `simulate`. The linear part is treated exactly;
the ETD phi-function coefficients are averaged over a complex contour to
avoid cancellation at small |sigma*dt| (Cox & Matthews 2002; Kassam &
Trefethen 2005).
"""

import math
from dataclasses import dataclass, replace

import numpy as np


class BlowUpError(RuntimeError):
    """Non-finite coefficients encountered during time stepping."""

    def __init__(self, t, norm):
        super().__init__(f"solution lost finiteness at t = {t:g} (last |u|_2 = {norm:g})")
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class SpectralState:
    """Normalized Fourier coefficients of u at one instant."""

    L: float
    N: int
    uhat: np.ndarray
    t: float = 0.0

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    @property
    def x(self) -> np.ndarray:
        return -self.L + (2.0 * self.L / self.N) * np.arange(self.N)

    def u(self) -> np.ndarray:
        return np.fft.ifft(self.uhat * self.N).real

    @property
    def norm_l2(self) -> float:
        return math.sqrt(2.0 * self.L * float(np.sum(np.abs(self.uhat) ** 2)))


@dataclass(frozen=True)
class SolveConfig:
    gamma: float = 0.0
    dt: float = 0.05
    t_end: float = 100.0
    transient: float | None = None
    record_every: int = 10
    seed: int = 0
    odd_only: bool = False

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.transient is not None and not self.transient < self.t_end:
            raise ValueError("transient must be below t_end")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


def linear_symbol(L: float, N: int, gamma: float = 0.0) -> np.ndarray:
    """Per-mode growth rate sigma(k) = k^2 - k^4 + gamma, k = pi*m/L, in FFT
    mode order m = 0..N/2-1, -N/2..-1."""
    m = np.fft.fftfreq(N, d=1.0 / N)
    k = (np.pi / L) * m
    return k**2 - k**4 + gamma


def default_grid(L: float) -> int:
    """Grid size whose dealiased band covers the linearly unstable
    wavenumbers with headroom for the quadratic cascade."""
    return 1 << max(6, math.ceil(math.log2(12.0 * L / math.pi)))


def default_transient(L, N, gamma=0.0):
    """Burn-in horizon: 200 time units or 10x the slowest linear growth
    timescale, whichever is larger."""
    sig = linear_symbol(L, N, gamma)
    growing = sig[1 : N // 2][sig[1 : N // 2] > 0]
    if growing.size == 0:
        return 200.0
    return max(200.0, 10.0 / float(np.min(growing)))


_COEFF_CACHE: dict = {}


def _etdrk4_coeffs(L, N, dt, gamma):
    """ETDRK4 coefficients on the half spectrum m = 0..N/2:
    (E, E2, Q, f1, 2*f2, f3, g), with g = i k/(2N) on the 2/3-rule band and
    0 above it (1/N normalizes the forward transform in _nonlinear). Stored
    complex so products with the state need no casting."""
    key = (L, N, dt, gamma)
    hit = _COEFF_CACHE.get(key)
    if hit is not None:
        return hit
    m = np.arange(N // 2 + 1)
    sig = linear_symbol(L, N, gamma)[: N // 2 + 1]
    E = np.exp(dt * sig)
    E2 = np.exp(0.5 * dt * sig)
    M = 32
    r = np.exp(1j * np.pi * (np.arange(M) + 0.5) / M)
    LR = dt * sig[:, None] + r[None, :]
    Q = dt * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1).real
    f1 = dt * np.mean((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3, axis=1).real
    f2 = dt * np.mean((2.0 + LR + np.exp(LR) * (-2.0 + LR)) / LR**3, axis=1).real
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3, axis=1).real
    g = 0.5j * (np.pi / L) * m * (m <= N // 3) / N
    coeffs = tuple(np.asarray(c, dtype=complex) for c in (E, E2, Q, f1, 2.0 * f2, f3, g))
    if len(_COEFF_CACHE) > 64:
        _COEFF_CACHE.clear()
    _COEFF_CACHE[key] = coeffs
    return coeffs


def _half(uhat):
    """Half spectrum (m = 0..N/2) of Re u from full FFT-ordered coefficients:
    the Hermitian part of uhat at m >= 0."""
    uhat = np.asarray(uhat, dtype=complex)
    N = uhat.shape[-1]
    return 0.5 * (uhat[..., : N // 2 + 1] + np.conj(uhat[..., -np.arange(N // 2 + 1) % N]))


def _mirror(full):
    """Fill modes m < 0 of FFT-ordered spectra (last axis) in place from
    m = 1..N/2-1, as real data requires."""
    N = full.shape[-1]
    full[..., N // 2 + 1 :] = np.conj(full[..., N // 2 - 1 : 0 : -1])
    return full


def _full(w):
    """Full FFT-ordered coefficients (last axis) from half spectra w."""
    h = w.shape[-1]
    out = np.empty(w.shape[:-1] + (2 * (h - 1),), dtype=complex)
    out[..., :h] = w
    return _mirror(out)


def _power(w):
    """Per-mode |uhat_m|^2 + |uhat_-m|^2 over the half spectrum, so that
    |u|_2^2 = 2L * sum(_power(w))."""
    p = 2.0 * (w.real**2 + w.imag**2)
    p[..., 0] *= 0.5
    p[..., -1] *= 0.5
    return p


def _nonlinear(w, g):
    """g * rfft(u^2) for u the real field of the half spectrum w; with g from
    _etdrk4_coeffs this is the normalized, dealiased (u^2/2)_x = u u_x."""
    u = np.fft.irfft(w, norm="forward")
    u *= u
    nl = np.fft.rfft(u)
    nl *= g
    return nl


def _project(v, odd_only):
    """In place: zero mean, real Nyquist mode and, with odd_only, the odd sine
    subspace. Reality needs no projection on a real-transform half spectrum."""
    v[0] = 0.0
    v.imag[-1] = 0.0
    if odd_only:
        v.real = 0.0
    return v


def _advance(v, coeffs, odd_only, L, t_new):
    """One projected ETDRK4 step of the half spectrum v into a new array.
    Raises BlowUpError, with the norm of v, when the new state is not
    finite."""
    E, E2, Q, f1, f2x2, f3, g = coeffs
    Nv = _nonlinear(v, g)
    E2v = E2 * v
    a = E2v + Q * Nv
    Na = _nonlinear(a, g)
    b = E2v + Q * Na
    Nb = _nonlinear(b, g)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = _nonlinear(c, g)
    out = _project(E * v + f1 * Nv + f2x2 * (Na + Nb) + f3 * Nc, odd_only)
    if not np.isfinite(out.view(np.float64)).all():
        raise BlowUpError(t_new, math.sqrt(2.0 * L * float(np.sum(_power(v)))))
    return out


def step(state: SpectralState, cfg: SolveConfig) -> SpectralState:
    """One ETDRK4 step of length cfg.dt."""
    coeffs = _etdrk4_coeffs(state.L, state.N, cfg.dt, cfg.gamma)
    t_new = state.t + cfg.dt
    v = _advance(_half(state.uhat), coeffs, cfg.odd_only, state.L, t_new)
    return replace(state, uhat=_full(v), t=t_new)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states and norm series from one simulation."""

    L: float
    N: int
    t: np.ndarray
    states: np.ndarray  # (n_samples, N) complex, normalized coefficients
    l2: np.ndarray
    l2_grad: np.ndarray
    l2_hess: np.ndarray
    sup_norm: float
    transient: float
    config: SolveConfig

    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def u(self, i: int) -> np.ndarray:
        return np.fft.ifft(self.states[i] * self.N).real


def simulate(initial: SpectralState, cfg: SolveConfig) -> Trajectory:
    """Integrate to cfg.t_end, recording every cfg.record_every steps (the
    initial state included). Sample i of the step count lies at
    initial.t + i*dt. sup_norm is the supremum of |u|_2 over samples with
    t > transient, the computable stand-in for the long-time limsup."""
    L, N = initial.L, initial.N
    transient = cfg.transient if cfg.transient is not None else default_transient(L, N, cfg.gamma)
    n_steps = int(round(cfg.t_end / cfg.dt))
    rec_idx = np.arange(0, n_steps + 1, cfg.record_every)
    coeffs = _etdrk4_coeffs(L, N, cfg.dt, cfg.gamma)
    states = np.empty((rec_idx.size, N), dtype=complex)
    half = states[:, : N // 2 + 1]  # recorded in the loop; m < 0 mirrored after it

    v = half[0] = _project(_half(initial.uhat), cfg.odd_only)
    for i in range(1, n_steps + 1):
        v = _advance(v, coeffs, cfg.odd_only, L, initial.t + i * cfg.dt)
        if i % cfg.record_every == 0:
            half[i // cfg.record_every] = v
    _mirror(states)

    t_out = initial.t + cfg.dt * rec_idx
    k2 = ((np.pi / L) * np.arange(N // 2 + 1)) ** 2
    p = 2.0 * L * _power(half)
    l2 = np.sqrt(np.sum(p, axis=1))
    l2_grad = np.sqrt(p @ k2)
    l2_hess = np.sqrt(p @ k2**2)
    post = l2[t_out > transient]
    sup_norm = float(np.max(post)) if post.size else float("nan")
    return Trajectory(
        L=L,
        N=N,
        t=t_out,
        states=states,
        l2=l2,
        l2_grad=l2_grad,
        l2_hess=l2_hess,
        sup_norm=sup_norm,
        transient=transient,
        config=cfg,
    )


def random_initial(L: float, N: int, seed: int = 0, amplitude: float = 1.0, odd_only: bool = False) -> SpectralState:
    """Band-limited random initial data on the lowest max(1, floor(L/pi))
    modes, zero mean, |u|_2 = amplitude, deterministic in the seed."""
    if N < 8 or N & (N - 1):
        raise ValueError("N must be a power of two >= 8")
    rng = np.random.default_rng(seed)
    n_modes = max(1, int(L / np.pi))
    n_modes = min(n_modes, N // 3)
    v = np.zeros(N, dtype=complex)
    for m in range(1, n_modes + 1):
        if odd_only:
            coeff = 1j * rng.standard_normal()
        else:
            coeff = rng.standard_normal() + 1j * rng.standard_normal()
        v[m] = coeff
        v[-m] = np.conj(coeff)
    norm = math.sqrt(2.0 * L * float(np.sum(np.abs(v) ** 2)))
    if norm > 0:
        v *= amplitude / norm
    return SpectralState(L=float(L), N=N, uhat=v, t=0.0)
