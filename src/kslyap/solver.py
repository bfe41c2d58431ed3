"""Dealiased pseudospectral ETDRK4 integrator for the 1D periodic
Kuramoto-Sivashinsky equation u_t = -u_xxxx - u_xx + u u_x (+ gamma u for the
destabilized variant), on x in [-L, L) with zero-mean data.

Fourier coefficients are stored normalized, uhat = fft(u)/N, so Parseval reads
|u|_2^2 = 2L * sum |uhat|^2. States and trajectories hold the real-FFT half
spectrum m = 0..N/2, rfft(u)/N (modes m < 0 are its conjugates), and one
kernel steps it for `step` and `simulate`. The kernel runs in buffers
allocated once per setting, with the dealiased derivative folded into
the ETDRK4 coefficients, so a step costs eight transforms and ~20 in-place
products and sums at numpy's per-call overhead. Its transforms call the
pocketfft gufuncs that `np.fft.irfft` and `np.fft.rfft` dispatch to
(`numpy.fft._pocketfft_umath`, numpy >= 2.0), with the scale factor 1 that
both public calls pass here, writing into the kernel's buffers: the results
are bit-identical (tests/test_solver.py keeps the public calls as the
reference), and the wrappers' Python argument handling, a third to a half
of each call at N = 256-512, drops out. The gufuncs do not check N against
the buffers, so a state's N must be a power of two >= 8. Transforms that
run once per state, trajectory or level use `np.fft`. The linear part is
treated exactly; the ETD phi-function coefficients are averaged over a
complex contour to avoid cancellation at small |sigma*dt| (Cox & Matthews
2002; Kassam & Trefethen 2005).
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from ._accel import splitmix53


class BlowUpError(RuntimeError):
    """The time step lost stability: a step's coefficients are not finite.
    The dealiased system's |u|_2 grows at most like e^{(gamma + 1/4) t}, so
    this is a failure of the step size, not a blow-up of the solution. The
    message names dt, t, the last finite |u|_2 (``norm``) and that energy
    bound at t from the initial state of the failed ``simulate`` or ``step``
    call (``bound``)."""

    def __init__(self, t, norm, dt, bound):
        super().__init__(
            f"time step dt = {dt:g} lost stability at t = {t:g} (last |u|_2 = {norm:g}; "
            f"the energy bound e^((gamma + 1/4)(t - t0)) |u(t0)|_2 is {bound:g})"
        )
        self.t = t
        self.norm = norm
        self.bound = bound


class _LostStability(Exception):
    """A kernel step whose output is not finite: the time it reached and
    the norm of its input. ``step`` and ``simulate`` raise it as
    ``BlowUpError``, adding the energy bound from their initial state."""

    def __init__(self, t, norm):
        self.t = t
        self.norm = norm

    def blow_up(self, t0, norm0, cfg) -> BlowUpError:
        """The error for a run that started at t0 with |u|_2 = norm0."""
        try:
            bound = norm0 * math.exp((cfg.gamma + 0.25) * (self.t - t0))
        except OverflowError:
            bound = math.inf
        return BlowUpError(self.t, self.norm, cfg.dt, bound)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Normalized Fourier coefficients of u at one instant, m = 0..N/2."""

    L: float
    N: int
    half: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got N = {self.N}")
        half = np.asarray(self.half, dtype=complex)
        if half.shape != (self.N // 2 + 1,):
            raise ValueError(f"half spectrum must have N/2+1 = {self.N // 2 + 1} entries, got shape {half.shape}")
        object.__setattr__(self, "half", half)

    def u(self) -> np.ndarray:
        return np.fft.irfft(self.half, n=self.N, norm="forward")

    @property
    def norm_l2(self) -> float:
        return _norm_l2(self.L, self.half)


@dataclass(frozen=True)
class SolveConfig:
    gamma: float = 0.0
    dt: float = 0.05
    t_end: float = 100.0
    transient: float | None = None
    record_every: int = 10
    odd_only: bool = False

    def __post_init__(self):
        for name in ("gamma", "dt", "t_end", "transient"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.transient is not None and not self.transient < self.t_end:
            raise ValueError("transient must be below t_end")
        if round(self.t_end / self.dt) < 1:
            raise ValueError("t_end must be at least one step dt (it rounds to zero steps)")
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


def _half_ddx(L, N):
    """g = i k/(2N) on the half spectrum m = 0..N/2, 0 above the 2/3-rule
    band: g * rfft(u^2) is the normalized, dealiased (u^2/2)_x = u u_x."""
    m = np.arange(N // 2 + 1)
    return 0.5j * (np.pi / L) * m * (m <= N // 3) / N


def _etdrk4_coeffs(L, N, dt, gamma):
    """ETDRK4 coefficients on the half spectrum m = 0..N/2:
    (E, E2, Q g, f1 g, 2 f2 g, f3 g) with g = _half_ddx(L, N) folded in, so a
    step multiplies them by rfft(u^2) directly. Stored complex so products
    with the state need no casting."""
    sig = linear_symbol(L, N, gamma)[: N // 2 + 1]
    E = np.exp(dt * sig)
    E2 = np.exp(0.5 * dt * sig)
    M = 32
    r = np.exp(1j * np.pi * (np.arange(M) + 0.5) / M)
    LR = dt * sig[:, None] + r[None, :]
    eLR, LR2, LR3 = np.exp(LR), LR**2, LR**3
    Q = dt * np.mean((np.exp(LR / 2) - 1.0) / LR, axis=1).real
    f1 = dt * np.mean((-4.0 - LR + eLR * (4.0 - 3.0 * LR + LR2)) / LR3, axis=1).real
    f2 = dt * np.mean((2.0 + LR + eLR * (-2.0 + LR)) / LR3, axis=1).real
    f3 = dt * np.mean((-4.0 - 3.0 * LR - LR2 + eLR * (4.0 - LR)) / LR3, axis=1).real
    g = _half_ddx(L, N)
    return (E.astype(complex), E2.astype(complex), Q * g, f1 * g, 2.0 * f2 * g, f3 * g)


def _full(w):
    """Full FFT-ordered coefficients (last axis) from half spectra w: modes
    m < 0 mirror m = 1..N/2-1, as real data requires."""
    h = w.shape[-1]
    out = np.empty(w.shape[:-1] + (2 * (h - 1),), dtype=complex)
    out[..., :h] = w
    out[..., h:] = np.conj(w[..., h - 2 : 0 : -1])
    return out


def _power(w):
    """Per-mode |uhat_m|^2 + |uhat_-m|^2 over the half spectrum, so that
    |u|_2^2 = 2L * sum(_power(w))."""
    p = 2.0 * (w.real**2 + w.imag**2)
    p[..., 0] *= 0.5
    p[..., -1] *= 0.5
    return p


def _norm_l2(L, w):
    """|u|_2 over [-L, L) for u the real field of the half spectrum w."""
    return math.sqrt(2.0 * L * float(np.sum(_power(w))))


def _rfft_square(w, u, out):
    """rfft(u^2) into out for u the real field of the half spectrum w,
    evaluated in the length-N buffer u: np.fft.rfft(np.fft.irfft(w, n=N,
    norm="forward") ** 2), bit for bit, without the public wrappers. N is
    even and w has N/2+1 entries, as SpectralState checks."""
    _pocketfft.irfft(w, 1.0, out=u)
    np.multiply(u, u, out=u)
    return _pocketfft.rfft_n_even(u, 1.0, out=out)


def _project(v, odd_only):
    """In place: zero mean, real Nyquist mode and, with odd_only, the odd sine
    subspace. Reality needs no projection on a real-transform half spectrum."""
    v[0] = 0.0
    v.imag[-1] = 0.0
    if odd_only:
        v.real = 0.0
    return v


class _Kernel:
    """Projected ETDRK4 steps of the half spectrum at one (L, N, dt, gamma),
    run in buffers allocated once: a call writes only its `out` argument and
    the kernel's own buffers, so no result aliases them."""

    def __init__(self, L, N, dt, gamma, odd_only):
        h = N // 2 + 1
        self.L = L
        self.dt = dt
        self.odd_only = odd_only
        self.coeffs = _etdrk4_coeffs(L, N, dt, gamma)
        self.u = np.empty(N)
        self.zero = np.zeros(2 * h)  # x . 0 is NaN exactly when x is not finite
        self.spectra = tuple(np.empty(h, dtype=complex) for _ in range(5))

    def __call__(self, v, out, t_new):
        """One step from v into out, a distinct array. Raises
        ``_LostStability``, with the norm of v, when out is not finite.
        Callers run it under ``np.errstate(over="ignore", invalid="ignore")``,
        so that a step that loses stability raises only that error."""
        E, E2, Qg, f1g, f2x2g, f3g = self.coeffs
        u = self.u
        Nv, Na, Nb, a, s = self.spectra
        _rfft_square(v, u, Nv)
        np.multiply(E2, v, out=s)  # E2 v
        np.multiply(Qg, Nv, out=a)
        a += s
        _rfft_square(a, u, Na)
        np.multiply(Qg, Na, out=out)  # b, held in out until Nb is known
        out += s
        _rfft_square(out, u, Nb)
        np.add(Nb, Nb, out=s)
        s -= Nv
        s *= Qg
        a *= E2
        a += s  # c
        _rfft_square(a, u, s)  # Nc
        np.multiply(E, v, out=out)
        Nv *= f1g
        out += Nv
        Na += Nb
        Na *= f2x2g
        out += Na
        s *= f3g
        out += s
        _project(out, self.odd_only)
        if not np.dot(out.view(np.float64), self.zero) == 0.0:
            raise _LostStability(t_new, _norm_l2(self.L, v))
        return out


# one kernel per (L, N, dt, gamma, odd_only), whose buffers every call at
# that setting shares (so stepping is not thread-safe); emptied past 64
_COEFF_CACHE: dict = {}


def _kernel(L, N, dt, gamma, odd_only):
    key = (L, N, dt, gamma, odd_only)
    if key not in _COEFF_CACHE:
        if len(_COEFF_CACHE) > 64:
            _COEFF_CACHE.clear()
        _COEFF_CACHE[key] = _Kernel(*key)
    return _COEFF_CACHE[key]


def step(state: SpectralState, cfg: SolveConfig) -> SpectralState:
    """One ETDRK4 step of length cfg.dt."""
    kernel = _kernel(state.L, state.N, cfg.dt, cfg.gamma, cfg.odd_only)
    t_new = state.t + cfg.dt
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            half = kernel(state.half, np.empty_like(state.half), t_new)
    except _LostStability as lost:
        raise lost.blow_up(state.t, state.norm_l2, cfg) from None
    return replace(state, half=half, t=t_new)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states and norm series from one simulation."""

    L: float
    N: int
    t: np.ndarray
    half: np.ndarray  # (n_samples, N/2+1) complex, normalized coefficients m = 0..N/2
    l2: np.ndarray
    l2_grad: np.ndarray
    l2_hess: np.ndarray
    sup_norm: float
    transient: float
    config: SolveConfig

    # kept only for the benchmark's solver.states_bytes layer metric
    @cached_property
    def states(self) -> np.ndarray:
        """(n_samples, N) complex: the full FFT-ordered spectra, built on
        first read."""
        return _full(self.half)

    def u(self, i: int) -> np.ndarray:
        return np.fft.irfft(self.half[i], n=self.N, norm="forward")


def simulate(initial: SpectralState, cfg: SolveConfig) -> Trajectory:
    """Integrate towards cfg.t_end, recording every cfg.record_every steps
    (the initial state included). The run stops at the last recorded
    sample, the largest multiple of record_every steps up to round(t_end/dt),
    so a blow-up in the unrecorded tail is not raised. Sample i of the
    step count lies at initial.t + i*dt. sup_norm is the supremum of |u|_2
    over samples with t > transient, the computable stand-in for the
    long-time limsup. Raises ValueError when no step would be recorded."""
    L, N = initial.L, initial.N
    transient = cfg.transient if cfg.transient is not None else default_transient(L, N, cfg.gamma)
    total = int(round(cfg.t_end / cfg.dt))
    n_steps = total - total % cfg.record_every
    if not n_steps:
        raise ValueError(
            f"record_every = {cfg.record_every} exceeds the {total} steps to t_end: none would be recorded"
        )
    rec_idx = np.arange(0, n_steps + 1, cfg.record_every)
    kernel = _kernel(L, N, cfg.dt, cfg.gamma, cfg.odd_only)
    half = np.empty((rec_idx.size, N // 2 + 1), dtype=complex)

    v = half[0] = _project(initial.half.copy(), cfg.odd_only)
    w = np.empty_like(v)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, n_steps + 1):
                kernel(v, w, initial.t + i * cfg.dt)
                v, w = w, v
                if i % cfg.record_every == 0:
                    half[i // cfg.record_every] = v
    except _LostStability as lost:
        raise lost.blow_up(initial.t, _norm_l2(L, half[0]), cfg) from None

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
        half=half,
        l2=l2,
        l2_grad=l2_grad,
        l2_hess=l2_hess,
        sup_norm=sup_norm,
        transient=transient,
        config=cfg,
    )


def _normals(seed, n):
    """n standard normals from the splitmix64 stream ``seed`` (a nonnegative
    integer), by Box-Muller: entries 2i and 2i+1 of the stream, as uniforms
    on (0, 1], give normals 2i and 2i+1."""
    pairs = (n + 1) // 2
    u = (splitmix53(seed, 0, 2 * pairs) + 1.0) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def random_initial(L: float, N: int, seed: int = 0, amplitude: float = 1.0, odd_only: bool = False) -> SpectralState:
    """Band-limited random initial data on the lowest max(1, floor(L/pi))
    modes, zero mean, |u|_2 = amplitude, deterministic in the seed (a
    nonnegative integer). For z the normals of the seed's stream (0-based),
    mode m = 1..n gets i z_(m-1) with odd_only, else z_(2m-2) + i z_(2m-1).
    A non-finite or negative amplitude: ValueError."""
    if not (math.isfinite(amplitude) and amplitude >= 0.0):
        raise ValueError(f"amplitude must be finite and nonnegative, not {amplitude!r}")
    n_modes = max(1, int(L / np.pi))
    n_modes = min(n_modes, N // 3)
    v = np.zeros(N // 2 + 1, dtype=complex)
    if odd_only:
        coeff = 1j * _normals(seed, n_modes)
    else:
        z = _normals(seed, 2 * n_modes)
        coeff = z[0::2] + 1j * z[1::2]
    v[1 : n_modes + 1] = coeff
    norm = _norm_l2(L, v)
    if norm > 0:
        v *= amplitude / norm
    return SpectralState(L=float(L), N=N, half=v)
