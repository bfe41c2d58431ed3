"""Dealiased pseudospectral ETDRK4 integrator for the 1D periodic
Kuramoto-Sivashinsky equation u_t = -u_xxxx - u_xx + u u_x (+ gamma u for the
destabilized variant), on x in [-L, L) with zero-mean data.

Fourier coefficients are stored normalized, uhat = fft(u)/N, so Parseval reads
|u|_2^2 = 2L * sum |uhat|^2. States and trajectories hold the real-FFT half
spectrum m = 0..N/2, rfft(u)/N (modes m < 0 are its conjugates). One step
function, a closure over the ETDRK4 coefficients and buffers allocated once,
steps a (N/2+1,) state or a stacked (B, N/2+1) batch of them: it projects
with ``...`` indexing, and the dealiased derivative is folded into the
coefficients, so a step costs eight transforms and 22 elementwise products
and sums, each with positional outputs, at numpy's per-call floor. Its
transforms call the pocketfft gufuncs that `np.fft.irfft` and `np.fft.rfft`
dispatch to (`numpy.fft._pocketfft_umath`, numpy >= 2.0), with the scale
factor 1 that both public calls pass here as a module-level 0-d array: the
results are bit-identical (tests/test_solver.py keeps the public calls as
the reference), the wrappers' Python argument handling drops out, and a
batch row is bit-identical to the same state stepped alone. The gufuncs do
not check N against the buffers, so a state's N must be a power of two
>= 8. Transforms that run once per state, trajectory or level use `np.fft`.

`step` checks every step for finiteness. `simulate` and `simulate_many`
check once per recorded sample: a state that is not finite stays so (each
transform spreads a NaN or inf to every mode the projection keeps), so a
non-finite sample means a step since the last one lost stability, and that
interval is replayed from the last sample with the checked step to name
the step that failed. `simulate_many` steps members that share (L, N) as
one stacked state and gives each the `Trajectory` or `BlowUpError` that
`simulate` gives it. The linear part is treated exactly; the ETD
phi-function coefficients are averaged over a complex contour to avoid
cancellation at small |sigma*dt| (Cox & Matthews 2002; Kassam & Trefethen
2005).
"""

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from ._accel import splitmix53


class BlowUpError(RuntimeError):
    """The time step lost stability: a step from finite coefficients gave
    coefficients that are not finite.
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
    """A checked step whose output is not finite: the time it reached and
    the norm of its input. ``step``, ``simulate`` and ``simulate_many``
    raise it as ``BlowUpError``, adding the energy bound from the initial
    state."""

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


def _check_half_length(L):
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be finite and positive, not {L!r}")


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Normalized Fourier coefficients of u at one instant, m = 0..N/2.
    L must be finite and positive, t finite and every coefficient finite;
    the stepping checks only what a step makes."""

    L: float
    N: int
    half: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        _check_half_length(self.L)
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, not {self.t!r}")
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError(f"N must be a power of two >= 8, got N = {self.N}")
        half = np.asarray(self.half, dtype=complex)
        if half.shape != (self.N // 2 + 1,):
            raise ValueError(f"half spectrum must have N/2+1 = {self.N // 2 + 1} entries, got shape {half.shape}")
        if not np.isfinite(half).all():
            raise ValueError("half spectrum must be finite")
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
        if isinstance(self.record_every, bool) or not isinstance(self.record_every, numbers.Integral):
            raise ValueError(f"record_every must be an integer, not {self.record_every!r}")
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


# the transforms' scale factor, 0-d so that no call converts a Python float
_ONE = np.array(1.0)


def _rfft_square(w, u, out):
    """rfft(u^2) into out for u the real field of the half spectra w (last
    axis), evaluated in the length-N buffer u: np.fft.rfft(np.fft.irfft(w,
    n=N, norm="forward") ** 2), bit for bit, without the public wrappers. N
    is even and w has N/2+1 entries, as SpectralState checks."""
    _pocketfft.irfft(w, _ONE, u)
    np.multiply(u, u, u)
    return _pocketfft.rfft_n_even(u, _ONE, out)


def _project(v, odd_only):
    """In place, on the last axis: zero mean, real Nyquist mode and, with
    odd_only, the odd sine subspace. Reality needs no projection on a
    real-transform half spectrum."""
    v[..., 0] = 0.0
    v.imag[..., -1] = 0.0
    if odd_only:
        v.real = 0.0
    return v


def _stepper(coeffs, odd_only, shape):
    """``advance(v, out)``: one unchecked, projected ETDRK4 step from the
    states v of ``shape``, (N/2+1,) or (B, N/2+1), into out, a distinct
    array, with the coefficients of _etdrk4_coeffs. It runs in buffers of
    its own: a call writes only out and them, so no result aliases them,
    and each row of a batch is what that state alone gives, bit for bit.
    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``."""
    E, E2, Qg, f1g, f2x2g, f3g = coeffs
    u = np.empty(shape[:-1] + (2 * (shape[-1] - 1),))
    Nv, Na, Nb, a, s = (np.empty(shape, dtype=complex) for _ in range(5))
    mul, add, sub = np.multiply, np.add, np.subtract

    def advance(v, out):
        _rfft_square(v, u, Nv)
        mul(E2, v, s)  # E2 v
        mul(Qg, Nv, a)
        add(a, s, a)
        _rfft_square(a, u, Na)
        mul(Qg, Na, out)  # b, held in out until Nb is known
        add(out, s, out)
        _rfft_square(out, u, Nb)
        add(Nb, Nb, s)
        sub(s, Nv, s)
        mul(s, Qg, s)
        mul(a, E2, a)
        add(a, s, a)  # c
        _rfft_square(a, u, s)  # Nc
        mul(E, v, out)
        mul(Nv, f1g, Nv)
        add(out, Nv, out)
        add(Na, Nb, Na)
        mul(Na, f2x2g, Na)
        add(out, Na, out)
        mul(s, f3g, s)
        add(out, s, out)
        return _project(out, odd_only)

    return advance


class _Kernel:
    """ETDRK4 steps of the half spectrum at one (L, N, dt, gamma, odd_only):
    the coefficients, the single-state step ``advance`` (see _stepper) and,
    as a call, that step checked for finiteness."""

    def __init__(self, L, N, dt, gamma, odd_only):
        self.L = L
        self.coeffs = _etdrk4_coeffs(L, N, dt, gamma)
        self.advance = _stepper(self.coeffs, odd_only, (N // 2 + 1,))
        self.zero = np.zeros(N + 2)  # x . 0 is NaN exactly when x is not finite

    def __call__(self, v, out, t_new):
        """One step from the state v into out, a distinct array. Raises
        ``_LostStability``, with the norm of v, when out is not finite."""
        self.advance(v, out)
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


def _replay(kernel, start, t0, k, cfg):
    """The ``_LostStability`` of the first checked step that fails in the
    record interval ending at sample k, replayed from ``start``, the
    member's sample k - 1, for a member whose run started at t0."""
    v, w = start.copy(), np.empty_like(start)
    for i in range((k - 1) * cfg.record_every + 1, k * cfg.record_every + 1):
        try:
            kernel(v, w, t0 + i * cfg.dt)
        except _LostStability as lost:
            return lost
        v, w = w, v
    raise AssertionError(f"sample {k} is not finite, but every step of its interval is")


def _run(kernel, advance, members, v, cfg):
    """Step v, the projected initial states of ``members`` ((N/2+1,) for
    one, (B, N/2+1) for B, as ``advance`` takes them), recording every
    record_every steps (the initial states included) and testing each
    sample for finiteness. Returns the samples, shape (members, samples,
    N/2+1), and the ``BlowUpError`` of each member whose run lost
    stability, by member index. A member that fails keeps stepping, not
    finite, beside the others. The run takes the largest multiple of
    record_every steps up to round(t_end/dt); ValueError when that is none."""
    total = int(round(cfg.t_end / cfg.dt))
    n_rec = total // cfg.record_every
    if not n_rec:
        raise ValueError(
            f"record_every = {cfg.record_every} exceeds the {total} steps to t_end: none would be recorded"
        )
    samples = np.empty((len(members), n_rec + 1, v.shape[-1]), dtype=complex)
    samples[:, 0] = v
    w = np.empty_like(v)
    failed = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_rec + 1):
            for _ in range(cfg.record_every):
                advance(v, w)
                v, w = w, v
            samples[:, k] = v
            for b in np.flatnonzero(~np.isfinite(samples[:, k]).all(axis=-1)).tolist():
                if b not in failed:
                    st = members[b]
                    lost = _replay(kernel, samples[b, k - 1], st.t, k, cfg)
                    failed[b] = lost.blow_up(st.t, _norm_l2(st.L, samples[b, 0]), cfg)
            if len(failed) == len(members):
                break
    return samples, failed


def _trajectory(initial, half, cfg):
    """The Trajectory of the samples ``half`` of a run from ``initial``."""
    L, N = initial.L, initial.N
    transient = cfg.transient if cfg.transient is not None else default_transient(L, N, cfg.gamma)
    t_out = initial.t + cfg.dt * (cfg.record_every * np.arange(half.shape[0]))
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


def simulate(initial: SpectralState, cfg: SolveConfig) -> Trajectory:
    """Integrate towards cfg.t_end, recording every cfg.record_every steps
    (the initial state included). The run stops at the last recorded
    sample, the largest multiple of record_every steps up to round(t_end/dt),
    so a blow-up in the unrecorded tail is not raised. Sample i of the
    step count lies at initial.t + i*dt. sup_norm is the supremum of |u|_2
    over samples with t > transient, the computable stand-in for the
    long-time limsup. Raises ValueError when no step would be recorded, and
    BlowUpError when a step loses stability."""
    kernel = _kernel(initial.L, initial.N, cfg.dt, cfg.gamma, cfg.odd_only)
    v = _project(initial.half.copy(), cfg.odd_only)
    samples, failed = _run(kernel, kernel.advance, [initial], v, cfg)
    if failed:
        raise failed[0]
    return _trajectory(initial, samples[0], cfg)


def simulate_many(initials, cfg: SolveConfig) -> list:
    """``simulate(initial, cfg)`` for each of ``initials``, in order: its
    Trajectory, or the BlowUpError it raises, returned in its place, each
    bit for bit what simulate gives. Members that share (L, N) are stepped
    as one stacked state; one that loses stability does not stop the
    others. Raises ValueError when no step would be recorded."""
    initials = list(initials)
    groups = {}
    for i, st in enumerate(initials):
        groups.setdefault((st.L, st.N), []).append(i)
    out = [None] * len(initials)
    for (L, N), idx in groups.items():
        kernel = _kernel(L, N, cfg.dt, cfg.gamma, cfg.odd_only)
        members = [initials[i] for i in idx]
        v = _project(np.array([st.half for st in members]), cfg.odd_only)
        samples, failed = _run(kernel, _stepper(kernel.coeffs, cfg.odd_only, v.shape), members, v, cfg)
        for b, i in enumerate(idx):
            out[i] = failed[b] if b in failed else _trajectory(members[b], samples[b], cfg)
    return out


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
    A non-finite or negative amplitude, or an L that is not finite and
    positive: ValueError."""
    _check_half_length(L)
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
