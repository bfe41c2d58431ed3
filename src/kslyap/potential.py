"""Background-profile construction pipeline.

Step potential -> mollified compactly supported potential -> sample on [-L, L)
rescaled by ``CRITICAL_PAIR`` -> mean-adjusted phi_x -> integrated phi with norms.
Also a small variational solver for the Burgers-Sivashinsky optimal potential,
used as a point of comparison for the constructed one.
"""

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._accel import _float_if_scalar, mollifier
from .exponents import ExponentPair, OperatorOrder, ResolutionFaultError, solve_critical_exponents

CRITICAL_PAIR = solve_critical_exponents(OperatorOrder.FOURTH).pair

#: the magnitude the profile's negative mean must reach: smooth's default mu,
#: the bound scaled_profile checks and the CLI's --mu default
MEAN_BOUND = Fraction(3, 4)


class AdmissibilityError(ValueError):
    """Step-potential parameters violate a positivity inequality."""


class InfeasibleSmoothingError(RuntimeError):
    """Mollification width hit its floor before the mean condition held."""


class DomainTooSmallError(ValueError):
    """Scaled potential support does not fit inside [-L, L]."""


class MeanConditionError(ValueError):
    """Rescaled potential mean is not negative enough for the shift step."""


class UnderResolvedGridError(ValueError):
    """Profile grid too coarse for the requested cosine moments."""


class DescentFailureError(RuntimeError):
    """Gradient descent did not reach the requested tolerance."""


@dataclass(frozen=True)
class PiecewiseParams:
    """Half-width and the two amplitudes of the step potential: well depth q0
    on |y| <= a/2, barrier height q1 on a/2 < |y| <= a, zero beyond."""

    a: float = 1.0
    q0: float = 0.5
    q1: float = 2.0

    def __post_init__(self):
        _floats(self)
        if not (self.a > 0 and self.q0 > 0 and self.q1 > 0):
            raise ValueError("a, q0, q1 must all be positive")


@dataclass(frozen=True)
class SmoothingParams:
    """Mollification width and required magnitude of the profile's negative mean."""

    delta: float
    mu: float

    def __post_init__(self):
        _floats(self)
        if not (self.delta > 0 and self.mu > 0):
            raise ValueError("delta and mu must be positive")


def _floats(params):
    """Store each field of a frozen parameter set as a float, so that equal
    sets (1 and 1.0) are also alike in what they print and save: ``smooth``
    returns one potential for all of them. TypeError for a field that is
    not a real number."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not isinstance(value, numbers.Real):
            raise TypeError(f"{f.name} must be a real number, not {value!r}")
        object.__setattr__(params, f.name, float(value))


@dataclass(frozen=True, eq=False)
class MinorsReport:
    """Leading principal minors of the admissibility matrix plus pass/fail."""

    matrix: np.ndarray
    minors: tuple
    passed: bool
    failures: tuple


def check_admissible(params: PiecewiseParams) -> MinorsReport:
    """Evaluate the 3x3 quadratic-form matrix of the step-potential positivity
    argument and its leading principal minors.

    Passing is equivalent to the two closed-form inequalities q0*a^2 < 1 and
    q1 - q0 - a^2*q0*q1 > 0 (the minors are positive exactly then).
    """
    a, q0, q1 = params.a, params.q0, params.q1
    A = np.array(
        [
            [1.0 / a, -1.0 / a, 0.0],
            [-1.0 / a, 1.5 / a - a * q0 / 2.0, -0.5 / a],
            [0.0, -0.5 / a, 0.5 / a + a * q1 / 2.0],
        ]
    )
    m1 = A[0, 0]
    m2 = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    m3 = float(np.linalg.det(A))
    failures = []
    if not q0 * a**2 < 1.0:
        failures.append("q0*a^2 < 1")
    if not q1 - q0 - a**2 * q0 * q1 > 0.0:
        failures.append("q1 - q0 - a^2*q0*q1 > 0")
    return MinorsReport(
        matrix=A, minors=(float(m1), float(m2), m3), passed=not failures, failures=tuple(failures)
    )


def _require_admissible(params: PiecewiseParams) -> None:
    """AdmissibilityError naming the inequalities ``check_admissible`` finds failing."""
    report = check_admissible(params)
    if not report.passed:
        raise AdmissibilityError("inadmissible parameters: " + ", ".join(report.failures))


def build_piecewise(params: PiecewiseParams):
    """Return the step potential Q(y) as a vectorized callable.

    Branch convention: -q0 on 0 <= |y| <= a/2, q1 on a/2 < |y| <= a, 0 beyond
    (boundary points take the left-closed branch).
    """
    _require_admissible(params)
    a, q0, q1 = params.a, params.q0, params.q1

    def Q(y):
        yy = np.abs(np.asarray(y, dtype=float))
        out = np.zeros_like(yy)
        out[yy <= a / 2] = -q0
        out[(yy > a / 2) & (yy <= a)] = q1
        return float(out) if out.ndim == 0 else out

    return Q


@dataclass(frozen=True, eq=False)
class SmoothedPotential:
    """Mollified potential, held by its parameters: Qtilde and qtilde =
    Qtilde/y^2 (extended by 0 at the origin) are evaluated pointwise from
    one table of Qtilde's pieces, which the integrals of qtilde also read.
    delta must be below a/4, so the smoothing pieces do not overlap
    (ValueError).

    Qtilde >= Q holds branch by branch, in floating point too, because the
    mollifier lies in [0, 1]: each mollified shoulder lies between the two
    step values it joins, the lower of which is Q's value there."""

    params: PiecewiseParams
    smoothing: SmoothingParams

    def __post_init__(self):
        if not self.smoothing.delta < self.params.a / 4.0:
            raise ValueError("delta must be below a/4 so the smoothing pieces do not overlap")

    @property
    def support_halfwidth(self) -> float:
        return self.params.a + self.smoothing.delta

    @property
    def _pieces(self):
        """Qtilde on [0, a + delta] as five pieces (lo, hi, base, jump,
        rising), in order: three mollified shoulders, where Qtilde = base +
        jump f(t) with t = (y - lo)/delta if rising and (hi - y)/delta if
        not, alternate with two flat pieces (jump 0), where Qtilde = base.
        A flat piece holds both its ends; a shoulder holds neither end at
        which f = 1, so the barrier top is closed at a/2 and at a."""
        a, q0, q1 = self.params.a, self.params.q0, self.params.q1
        d = self.smoothing.delta
        return (
            (0.0, d, -0.0, -q0, True),  # -0.0 + x is x, signed zeros too
            (d, a / 2.0 - d, -q0, 0.0, True),
            (a / 2.0 - d, a / 2.0, -q0, q0 + q1, True),
            (a / 2.0, a, q1, 0.0, True),
            (a, a + d, 0.0, q1, False),
        )

    def _values(self, y):
        """Qtilde at |y| as an array: evenly extended, zero past a + delta."""
        y = np.abs(np.asarray(y, dtype=float))
        out = np.zeros(y.shape)
        for lo, hi, base, jump, rising in self._pieces:
            if not jump:
                out[(y >= lo) & (y <= hi)] = base
                continue
            on = (y >= lo) & (y < hi) if rising else (y > lo) & (y <= hi)
            t = (y[on] - lo if rising else hi - y[on]) / self.smoothing.delta
            out[on] = base + jump * mollifier(t)
        return out

    def Qtilde(self, y):
        return _float_if_scalar(self._values(y))

    def qtilde(self, y):
        """Qtilde / y^2, and 0 where y^2 is 0: at the origin, where Qtilde
        vanishes to all orders, and where y^2 underflows."""
        y2 = np.asarray(y, dtype=float) ** 2
        return _float_if_scalar(np.divide(self._values(y), y2, out=np.zeros(y2.shape), where=y2 > 0.0))

    @property
    def mean_qtilde(self) -> float:
        """The integral of qtilde over the line, 2 m."""
        return 2.0 * self._norm_integrals[4]

    @cached_property
    def _norm_integrals(self):
        """The L-free integrals behind the mean and every profile norm:
        int qtilde^2 and int qtilde_y^2 over the line, I1 = int_0^s (G^2 -
        m^2) dy, I2 = int_0^s y (G - m) dy = -(1/2) int_0^s Qtilde dy and m,
        where G' = qtilde, G(0) = 0, m = G(s) and s is the support
        half-width. The shoulder quadrature runs at 4096 intervals, after
        each entry is checked against 2048 to 1e-8 relative
        (``ResolutionFaultError`` if not). I2 is exact: the mollifier's
        f(t) + f(1 - t) = 1 gives each shoulder of Qtilde the mean of the
        values it joins."""
        a, q0, q1 = self.params.a, self.params.q0, self.params.q1
        coarse, fine = (self._norm_integrals_half(n) for n in (2048, 4096))
        if np.any(np.abs(fine - coarse) > 1e-8 * (1.0 + np.abs(fine))):
            raise ResolutionFaultError("shoulder quadrature for the integrals of qtilde did not converge")
        q2, qy2, I1, m = map(float, fine)
        I2 = -0.5 * ((q1 - q0) * a / 2.0 + (q0 + q1) * self.smoothing.delta)
        return 2.0 * q2, 2.0 * qy2, I1, I2, m

    def _norm_integrals_half(self, n):
        """Over [0, s], s = a + delta: int qtilde^2, int qtilde_y^2,
        I1 = int (G^2 - m^2) and m = G(s), for G(y) = int_0^y qtilde. Each
        shoulder is sampled at the n + 1 points y = lo + delta k / n, and G
        runs through it by ``_running_simpson``; across a flat piece c,
        G is K - c/y, which integrates in closed form."""
        d = self.smoothing.delta
        h = d / n
        t = np.linspace(0.0, 1.0, n + 1)
        f = mollifier(t)
        # f' = f (1 - f) (1/t^2 + 1/(1 - t)^2), and 1 - f(t) = f(1 - t)
        df = np.zeros_like(t)
        df[1:-1] = f[1:-1] * f[-2:0:-1] * (1.0 / t[1:-1] ** 2 + 1.0 / (1.0 - t[1:-1]) ** 2)
        q2 = qy2 = G = G2 = 0.0
        for lo, hi, base, jump, rising in self._pieces:
            if not jump:
                K = G + base / lo
                q2 += base * base / 3.0 * (lo**-3 - hi**-3)
                qy2 += 4.0 * base * base / 5.0 * (lo**-5 - hi**-5)
                G2 += K * K * (hi - lo) - 2.0 * K * base * math.log(hi / lo) + base * base * (1.0 / lo - 1.0 / hi)
                G = K - base / hi
                continue
            y = lo + d * t
            r = np.divide(1.0, y, out=np.zeros_like(y), where=y * y > 0.0)
            Q = base + jump * (f if rising else f[::-1])
            dQ = jump / d * (df if rising else -df[::-1])
            q = Q * r * r
            qy = (dQ - 2.0 * Q * r) * r * r
            g = G + _running_simpson(q, h)
            q2 += _simpson(q * q, h)
            qy2 += _simpson(qy * qy, h)
            G2 += _simpson(g * g, h)
            G = float(g[-1])
        return np.array([q2, qy2, G2 - G * G * self.support_halfwidth, G])

    def scaled_norms(self, L: float) -> "ProfileNorms":
        """L2 norms over [-L, L] of phi, phi_x = q - mean(q) and phi_xx for
        the critically rescaled q(x) = L^{4/3} qtilde(x L^{1/3}), in O(1)
        from ``_norm_integrals``. q has the mean m at every L and
        phi(x) = L G(x L^{1/3}) - m x, so
        |phi_x|^2 = L^{7/3} int qtilde^2 - 2 L m^2,
        |phi_xx|^2 = L^3 int qtilde_y^2 and
        |phi|^2 = 2 (m^2 L^3 / 3 + L^{5/3} I1 - 2 m L^{1/3} I2).
        The support must fit the domain, s L^{-1/3} <= L, as
        ``scaled_profile`` checks."""
        q2, qy2, I1, I2, m = self._norm_integrals
        return ProfileNorms.from_squares(
            2.0 * (m * m * L**3 / 3.0 + L ** (5.0 / 3.0) * I1 - 2.0 * m * L ** (1.0 / 3.0) * I2),
            L ** (7.0 / 3.0) * q2 - 2.0 * L * m * m,
            L**3 * qy2,
        )


def _simpson(f, h):
    """Composite Simpson rule on an odd number of equispaced samples."""
    if f.size % 2 == 0:
        raise ValueError("Simpson rule needs an odd sample count")
    w = np.ones_like(f)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * float(np.sum(w * f))


def _running_simpson(f, h):
    """Running integral of equispaced samples f (odd count) from the first:
    Simpson's rule at even nodes, and at each odd node the even node before
    it plus h/12 (5 f_0 + 8 f_1 - f_2); both are fourth order."""
    out = np.zeros_like(f)
    out[2::2] = np.cumsum(h / 3.0 * (f[:-2:2] + 4.0 * f[1::2] + f[2::2]))
    out[1::2] = out[:-1:2] + h / 12.0 * (5.0 * f[:-2:2] + 8.0 * f[1::2] - f[2::2])
    return out


#: how many (params, smoothing) pairs ``smooth`` keeps; each entry is the
#: parameters and five floats
_SMOOTHED_MAX = 64


def smooth(params: PiecewiseParams, smoothing: SmoothingParams | None = None) -> SmoothedPotential:
    """Mollify the step potential into a C^2 compactly supported Qtilde and
    form qtilde = Qtilde / y^2.

    If the profile's mean, half the integral of qtilde, fails to reach -mu,
    delta is halved until it does; the floor delta >= 1e-6*a turns
    persistent failure into an error.
    Each delta tried runs the quadrature of qtilde's integrals once, and
    the potential returned keeps them for its norms.

    The result does not depend on L, and it is computed once per process
    per parameter set: smoothing defaults to delta = a/64 and mu =
    ``MEAN_BOUND``, and each (params, smoothing) pair then maps to one
    potential, kept in a table of the last ``_SMOOTHED_MAX`` pairs used, so
    ``smooth(p) is smooth(p, SmoothingParams(p.a / 64, 0.75))``. A call
    that raises keeps nothing, and its repeat raises again.
    """
    if smoothing is None:
        smoothing = SmoothingParams(delta=params.a / 64.0, mu=float(MEAN_BOUND))
    return _smoothed(params, smoothing)


@lru_cache(maxsize=_SMOOTHED_MAX)
def _smoothed(params: PiecewiseParams, smoothing: SmoothingParams) -> SmoothedPotential:
    """``smooth`` once its smoothing is resolved."""
    sp = SmoothedPotential(params, smoothing)
    _require_admissible(params)  # before any quadrature
    floor = 1e-6 * params.a
    while not sp.mean_qtilde / 2.0 <= -smoothing.mu:
        delta = sp.smoothing.delta / 2.0
        if delta < floor:
            raise InfeasibleSmoothingError(
                f"delta floor {floor:g} reached with the profile's mean {sp.mean_qtilde / 2:.6g}"
                f" > -mu = {-smoothing.mu:g}"
            )
        sp = SmoothedPotential(params, SmoothingParams(delta=delta, mu=smoothing.mu))
    return sp


@dataclass(frozen=True, eq=False)
class PotentialProfile:
    """phi_x on the uniform half-open grid of n points over [-L, L).

    phi_x takes the constant value phi_x_off everywhere except on the index
    window [j0, j0 + W), where it is phi_x_off + window. The constructed
    potential is compactly supported, so W stays near 5k samples however
    large n grows; caller-supplied samples (``from_samples``) are a window
    as long as the grid. Cosine moments and phi at solver nodes are
    computed from the window in O(W + N) memory, each when first read; no
    dense phi_x is ever built. Norms come from the source's L-free
    integrals in O(1) when there is a source, and from grid sums otherwise.
    L must be finite and positive and phi_x_off finite (ValueError).
    """

    L: float
    n: int
    j0: int
    window: np.ndarray
    phi_x_off: float
    # set by scaled_profile alone: the parameters that rebuild this profile
    source: SmoothedPotential | None = None

    def __post_init__(self):
        window = np.asarray(self.window, dtype=float)
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"L must be finite and positive, not {self.L!r}")
        if not math.isfinite(self.phi_x_off):
            raise ValueError(f"phi_x_off must be finite, not {self.phi_x_off!r}")
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size n must be even and >= 4")
        if window.ndim != 1 or not 0 <= self.j0 <= self.n - window.size:
            raise ValueError(f"window of {window.size} samples at {self.j0} does not fit the grid of {self.n}")
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "_moments", np.empty(0))

    @classmethod
    def from_samples(cls, L, phi_x) -> "PotentialProfile":
        """Profile from dense phi_x samples on the whole grid, which is its
        window, bit for bit: j0 = 0 and phi_x_off = 0. The window is a copy,
        so the caller's array may change afterwards."""
        phi_x = np.array(phi_x, dtype=float)
        return cls(L=float(L), n=phi_x.size, j0=0, window=phi_x, phi_x_off=0.0)

    @property
    def mean_q(self) -> float:
        """-phi_x_off: the mean of q for ``scaled_profile``, 0 for ``from_samples``."""
        return -self.phi_x_off

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @cached_property
    def _window_integral(self) -> np.ndarray:
        """Trapezoid integral of the window part from node 0 to node
        j0 - 1 + i (up to a constant when j0 = 0, which phi's zero at x = 0
        removes)."""
        edges = np.concatenate(([0.0], self.window, [0.0]))
        return np.concatenate(([0.0], np.cumsum(0.5 * self.dx * (edges[:-1] + edges[1:]))))

    def _phi_at(self, j) -> np.ndarray:
        """phi, the trapezoid integral of phi_x that is zero at x = 0 (index
        n/2), at grid indices j: affine off the window, where phi_x is
        constant, plus the window's trapezoid integral."""
        j = np.asarray(j)
        ramp = self._window_integral
        V = ramp[np.clip(j - self.j0 + 1, 0, ramp.size - 1)]
        V_mid = ramp[min(max(self.n // 2 - self.j0 + 1, 0), ramp.size - 1)]
        return self.phi_x_off * self.dx * (j - self.n // 2) + (V - V_mid)

    def phi_nodes(self, N: int) -> np.ndarray:
        """phi at the N solver nodes -L + 2 L s / N; N must divide n."""
        if self.n % N:
            raise ValueError(f"solver grid ({N}) must divide the profile grid ({self.n})")
        return self._phi_at(np.arange(N, dtype=np.int64) * (self.n // N))

    def _window_moments(self, count):
        """Trapezoid cosine moments w_m of the window, phi_x - phi_x_off,
        for m < count. The grid resolves count <= n/2 + 1 (moment 2N of N
        modes needs n >= 4N); past that: ``UnderResolvedGridError``.

        The kernel cos(m pi x / L) is even in x, so only the window's even
        part about x = 0 (index n/2) counts: with x_d = d dx,
        w_m = dx sum_d f_d cos(2 pi m d / n), where f_0 is the sample at
        x = 0 and f_d = v(x_d) + v(x_-d) for d > 0, each term where its
        sample lies in the window (a whole-grid window's x = -L sample,
        d = n/2, has no partner). A constructed window is symmetric, so f
        holds half its samples. The moments are computed on the first call,
        as many as that call's transform length yields at no extra cost (at
        most n/2 + 1); a larger count recomputes and keeps them."""
        if count > self.n // 2 + 1:
            raise UnderResolvedGridError(f"grid of {self.n} points resolves cosine moments up to {self.n // 2}, not {count}")
        if self._moments.size < count:
            d = np.abs(np.arange(self.window.size) + (self.j0 - self.n // 2))
            f = np.bincount(d, weights=self.window, minlength=1)
            m = min(_pow2(f.size + count - 1) - f.size + 1, self.n // 2 + 1)
            object.__setattr__(self, "_moments", self.dx * _window_dft(f, self.n, m).real)
        return self._moments[:count]

    @cached_property
    def _norms(self) -> "ProfileNorms":
        """From the source's L-free integrals when there is one; else
        periodic trapezoid sums over the n-point grid, with phi_xx the
        Nyquist-dropped spectral derivative, its n-point spectrum summed by
        Parseval."""
        if self.source is not None:
            return self.source.scaled_norms(self.L)
        n, c, v = self.n, self.phi_x_off, self.window
        grad2 = float(np.sum((c + v) ** 2)) + (n - v.size) * c * c
        phi2 = float(np.sum(self._phi_at(np.arange(n)) ** 2))
        k = np.arange(n // 2 + 1, dtype=float)
        k[-1] = 0.0
        hess2 = (np.pi / self.L) ** 2 * 2.0 / n * float(np.sum(k**2 * np.abs(np.fft.rfft(v, n)) ** 2))
        return ProfileNorms.from_squares(*(self.dx * s for s in (phi2, grad2, hess2)))


def _pow2(m):
    """Smallest power of two >= m (m >= 1): the FFT length for a linear
    convolution of m output samples."""
    return 1 << (m - 1).bit_length()


def _window_dft(v, n, count):
    """sum_i v_i exp(-2 pi i m i / n) for m < count, of W samples v starting
    at index 0 (``_window_moments`` passes the window folded about x = 0),
    by a chirp-z (Bluestein) transform: one ``numpy.fft`` convolution,
    zero-padded to the power of two at or above W + count - 1, instead of an
    n-point FFT. The chirp
    exp(-i pi k^2 / n) is reduced mod 2n in integers; raising w to the power
    k^2/2 in floating point, as ``scipy.signal.czt`` does, costs ~6e-10
    relative at n = 2^24."""
    W = v.size
    k = np.arange(max(W, count), dtype=np.int64)
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * n)) / n)
    nfft = _pow2(W + count - 1)
    kernel = np.conj(np.concatenate((chirp[W - 1 : 0 : -1], chirp[:count])))
    conv = np.fft.ifft(np.fft.fft(v * chirp[:W], nfft) * np.fft.fft(kernel, nfft))
    return conv[W - 1 : W - 1 + count] * chirp[:count]


def build_profile(
    L: float,
    pair: ExponentPair | None = None,
    params: PiecewiseParams | None = None,
    smoothing: SmoothingParams | None = None,
) -> PotentialProfile:
    """Full pipeline with defaults: step -> smoothed -> scaled -> profile,
    sampled only where nonzero; a pair other than ``CRITICAL_PAIR``: ValueError.
    The smoothing is computed once per process per parameter set
    (``smooth``), so profiles at many L of one parameter set share it."""
    if pair is not None and pair != CRITICAL_PAIR:
        raise ValueError(f"profiles are rescaled by the critical pair (1/3, 4/3), not ({pair.c1}, {pair.c2})")
    if params is None:
        params = PiecewiseParams()
    return scaled_profile(smooth(params, smoothing), L)


def scaled_profile(sp: SmoothedPotential, L: float) -> PotentialProfile:
    """Profile of the smoothed potential rescaled critically to [-L, L):
    q(x) = L^{c2} qtilde(x L^{c1}) at ``CRITICAL_PAIR``, on the uniform
    n-point grid (n >= 2^14, and at least 32 samples across the scaled
    mollification width), sampled only on the index window where it is
    nonzero, and phi_x = q - mean(q), whose mean must be at most
    -``MEAN_BOUND`` (``MeanConditionError``). The support, s L^{-1/3}, must
    fit the domain (``DomainTooSmallError``); nothing else bounds L below.
    The smoothed potential does not depend on L, so callers that build
    profiles at many L smooth once and rescale it for each. The profile
    keeps sp as its source, the parameters ``write_profile`` saves."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"L must be finite and positive, not {L!r}")
    c1, c2 = float(CRITICAL_PAIR.c1), float(CRITICAL_PAIR.c2)
    support_x = sp.support_halfwidth * L ** (-c1)
    if support_x > L:
        raise DomainTooSmallError(
            f"support half-width {support_x:g} exceeds domain half-length {L:g}"
        )
    delta_scaled = sp.smoothing.delta * L ** (-c1)
    n = 1 << math.ceil(math.log2(max(32.0 * 2.0 * L / delta_scaled, 16384.0)))
    dx = 2.0 * L / n
    j0 = max(0, int(math.floor((L - support_x) / dx)) - 1)
    j1 = min(n, int(math.ceil((L + support_x) / dx)) + 2)
    x = -L + dx * np.arange(j0, j1)
    q = L**c2 * sp.qtilde(x * L**c1)
    mean_q = float(np.sum(q)) / n
    if mean_q > -MEAN_BOUND:
        raise MeanConditionError(
            f"mean of q is {mean_q:.6g} > -{MEAN_BOUND}; use a smaller delta or a larger mu"
        )
    nonzero = np.flatnonzero(q)
    return PotentialProfile(
        L=float(L),
        n=n,
        j0=j0 + int(nonzero[0]),
        window=q[nonzero[0] : nonzero[-1] + 1].copy(),
        phi_x_off=-mean_q,
        source=sp,
    )


class ProfileNorms(NamedTuple):
    """L2 norms of phi, phi_x, phi_xx and the combined H2 norm."""

    phi: float
    phi_x: float
    phi_xx: float
    h2: float

    @classmethod
    def from_squares(cls, phi2, grad2, hess2) -> "ProfileNorms":
        """The norms whose squares are phi2, grad2 and hess2."""
        n0, n1, n2 = (math.sqrt(s) for s in (phi2, grad2, hess2))
        return cls(n0, n1, n2, math.sqrt(n0**2 + n1**2 + n2**2))


def norms(profile: PotentialProfile) -> ProfileNorms:
    """L2 norms of phi, phi_x, phi_xx and the H2 norm, computed once per
    profile: for a profile of ``scaled_profile`` (``build_profile``) the
    continuum norms in closed form (``SmoothedPotential.scaled_norms``), the
    limit of the grid sums as the grid refines; for any other the periodic
    trapezoid sums over its n-point grid."""
    return profile._norms


def write_profile(profile: PotentialProfile, path) -> None:
    """Save a constructed profile as the JSON parameters ``read_profile``
    rebuilds it from (L, exponents, the step potential and its final
    smoothing), with its n, mean_q and norms. Only ``scaled_profile`` (and
    so ``build_profile``) gives a profile such parameters; one from
    ``from_samples``: ValueError."""
    sp = profile.source
    if sp is None:
        raise ValueError("only scaled_profile gives a profile parameters to save, not from_samples")
    meta = {
        "L": profile.L,
        "n": profile.n,
        "mean_q": profile.mean_q,
        "exponents": {"c1": str(CRITICAL_PAIR.c1), "c2": str(CRITICAL_PAIR.c2)},
        "norms": norms(profile)._asdict(),
        "params": asdict(sp.params),
        "smoothing": asdict(sp.smoothing),
        "mean_qtilde": sp.mean_qtilde,
    }
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")


def read_profile(path) -> PotentialProfile:
    """Rebuild with ``build_profile`` the profile that ``write_profile``
    saved. Raises ValueError naming the key that is missing, or whose value
    differs from ``CRITICAL_PAIR`` (exponents) or from the rebuild (n, mean_q)."""
    meta = json.loads(Path(path).read_text())
    try:
        stored = {"n": meta["n"], "mean_q": meta["mean_q"]}
        pair = ExponentPair(meta["exponents"]["c1"], meta["exponents"]["c2"])
        params, smoothing = PiecewiseParams(**meta["params"]), SmoothingParams(**meta["smoothing"])
        L = float(meta["L"])
    except KeyError as exc:
        raise ValueError(f"profile file {path} has no key {exc.args[0]!r}") from None
    if pair != CRITICAL_PAIR:
        raise ValueError(f"profile file {path} stores exponents ({pair.c1}, {pair.c2}), not the critical pair")
    profile = build_profile(L, params=params, smoothing=smoothing)
    for key, value in stored.items():
        if getattr(profile, key) != value:
            raise ValueError(
                f"profile file {path} stores {key} = {value!r}, but its parameters rebuild {getattr(profile, key)!r}"
            )
    return profile


@dataclass(frozen=True)
class BSConfig:
    """Gradient-descent settings for the quartic variational problem."""

    mu_lagrange: float = 1.0
    L: float = math.pi
    n: int = 64
    tol: float = 1e-8
    max_iter: int = 200_000
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.mu_lagrange > 0 and self.L > 0 and self.n >= 8 and self.tol > 0):
            raise ValueError("mu_lagrange, L, tol must be positive and n >= 8")
        if self.n % 2:
            raise ValueError("n must be even")


def bs_functional_and_gradient(u: np.ndarray, L: float, mu: float):
    """J(u) = int u_x^2 + (1/4mu)(u^2 - s)^2 with s = |u|_2^2/(2L), and its
    L2 gradient projected onto mean-free functions.

    The derivative symbol drops the Nyquist mode so the discrete gradient is
    exactly adjoint to the discrete functional; the variation of s contributes
    nothing because u^2 - s integrates to zero.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    dx = 2.0 * L / n
    kd = (np.pi / L) * np.arange(n // 2 + 1)
    kd[-1] = 0.0
    uh = np.fft.rfft(u)
    ux = np.fft.irfft(1j * kd * uh, n)
    s = float(np.mean(u * u))
    w = u * u - s
    J = dx * float(np.sum(ux * ux)) + dx * float(np.sum(w * w)) / (4.0 * mu)
    g = 2.0 * np.fft.irfft(kd**2 * uh, n) + (w * u) / mu
    g -= g.mean()
    return J, g


@dataclass(frozen=True, eq=False)
class BSResult:
    u: np.ndarray
    phi_x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    values: np.ndarray | None = None  # J per accepted iterate, start included


def bs_optimal_potential(cfg: BSConfig = BSConfig()) -> BSResult:
    """Minimize the quartic functional from a single-mode start and return the
    minimizer with its induced potential phi_x = (u^2 - s)/(2 mu).

    Fixed steps sized by a Lipschitz estimate of the gradient, with halving as
    a safeguard; descent is monotone.
    """
    L, mu, n = cfg.L, cfg.mu_lagrange, cfg.n
    dx = 2.0 * L / n
    x = -L + dx * np.arange(n)
    u = cfg.amplitude * np.sin(np.pi * x / L)
    k_max = (np.pi / L) * (n // 2 - 1)
    J, g = bs_functional_and_gradient(u, L, mu)
    gnorm = math.sqrt(dx * float(np.sum(g * g)))
    history = [J]
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        if gnorm < cfg.tol:
            break
        s = float(np.mean(u * u))
        lip = 2.0 * k_max**2 + (3.0 * float(np.max(u * u)) + abs(s)) / mu
        step = 1.0 / lip
        g2 = dx * float(np.sum(g * g))
        for _ in range(60):
            trial = u - step * g
            Jt, gt = bs_functional_and_gradient(trial, L, mu)
            if Jt <= J - 1e-4 * step * g2:
                break
            step /= 2.0
        else:
            raise DescentFailureError(f"line search stalled at gradient norm {gnorm:.3e}")
        u, J, g = trial, Jt, gt
        history.append(J)
        gnorm = math.sqrt(dx * float(np.sum(g * g)))
    else:
        raise DescentFailureError(
            f"gradient norm {gnorm:.3e} above tolerance {cfg.tol:g} after {cfg.max_iter} iterations"
        )
    s = float(np.mean(u * u))
    phi_x_star = (u * u - s) / (2.0 * mu)
    return BSResult(
        u=u,
        phi_x=phi_x_star,
        value=J,
        grad_norm=gnorm,
        iterations=iterations,
        values=np.asarray(history),
    )
