"""Galerkin certification that the quadratic form int u_xx^2 - u_x^2 + phi_x u^2
is nonnegative on odd periodic functions, plus the supporting one-dimensional
inequality checks (a Hardy-type second-derivative bound and the reduced
first-order form with the smoothed potential).

The odd sine basis e_k = L^{-1/2} sin(k pi x / L) encodes periodicity together
with the single pinning condition u(0) = 0. A negative smallest eigenvalue at
finite mode count is conclusive (Rayleigh-Ritz gives upper bounds); a positive
one is accepted only after a mode-doubling convergence check, whose ladder
starts where the sine subspace holds the form's minimizing mode (``certify``).
Each step of the ladder solves one level N and bounds level N / 2 from above
by the Rayleigh quotient of level N's eigenvector cut to its first N / 2
modes.

``min_eigenvalue`` and ``certify`` take a matrix from ``assemble`` and one
of two steps, numpy only. Constructed profiles take the secular step;
sampled profiles take the dense step, up to ``_FILL_MAX``:

- Secular: A = Delta + G_w, a diagonal plus the Gram matrix of phi_x's
  departure from its constant off the window, which the critical scaling
  keeps at numerical rank r of one to a few dozen. A randomized range
  finder compresses G_w to U C U^T from one batched FFT product per pass.
  Haynsworth inertia counts of a small bordered secular matrix bracket
  lambda_min of that model, Newton's method closes the bracket, and the
  value returned is the Rayleigh quotient on A of the model's closed-form
  eigenvector: an upper bound on A's lambda_min. No N x N array.
- Dense: one ``numpy.linalg.eigh`` of the filled entries, which gives the
  eigenvector too. A sampled profile's window is the whole grid: its
  predicted rank is past the range finder's column cap, so no product is
  formed. What the secular step gives up on takes it too.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._accel import gram_from_cosine, splitmix53
from .potential import PotentialProfile, SmoothedPotential, UnderResolvedGridError, _simpson


class EigensolverError(RuntimeError):
    """Non-finite input, or the dense symmetric eigensolve failed to converge."""


class CertificationInconclusiveError(RuntimeError):
    """Mode-doubling cap reached without eigenvalue convergence (not a disproof)."""


# the range finder starts from ceil(N W / n) + 3 _OVERSAMPLE columns for a
# window of W of the grid's n points (the rank measured at most
# ceil(N W / n) + 7 over L = 8..8192, N = 64..2048) and doubles them until
# the trailing Ritz values of B, the model G_w ~ Q B Q^T solved from the
# one product per pass, are negligible, up to _RANK_MAX columns (and
# N / 4); past that cap the dense step runs
_RANK_MAX = 128
# columns beyond the numerical rank that a converged range finder must show
_OVERSAMPLE = 4
# a Ritz value of B is negligible below _RANK_TOL times the larger of the
# largest one and max|w| / 2L. Each entry of G_w is a difference of
# moments of size up to max|w| / 2L, and their rounding puts G_w's spectrum
# on a noise floor near 1e-14 of that (L = 8..8192, N = 512..2048). Where
# the window is narrow against the modes that floor is far above 1e-12 of
# the largest Ritz value: at L = 8192, N = 512 the largest is 0.026 and
# the floor 1e-12.
_RANK_TOL = 1e-12
# Newton's method on the secular eigenvalue stops once its step is below
# _SECULAR_TOL (1 + |sigma|), and gives up after _SECULAR_PROBES probes; 2-5
# were needed over L = 12..8192, N = 64..2048 and both forms, and along
# certify's ladders to L = 8192
_SECULAR_TOL = 1e-13
_SECULAR_PROBES = 16
# certify's least first level, its last level unless twice the first is
# higher, and the relative gap rho - lambda_N it accepts between level N
# and rho, its bound on level N / 2
_N_START = 64
_N_MAX = 4096
_RTOL = 1e-6
# a QuadFormMatrix above this order that takes the dense step raises
# instead of filling its N x N entries (134 MB at 4096; 34 GB at the
# N = 65536 a large-L ladder reaches)
_FILL_MAX = 4096


def _test_rows(start, stop, n):
    """Rows start..stop-1 of the range finder's fixed pseudo-random test
    matrix with n columns, uniform on [-1, 1): entries of splitmix64 stream
    0 in row order."""
    return splitmix53(0, start * n, stop * n).reshape(stop - start, n) * 2.0**-52 - 1.0


@dataclass(frozen=True, eq=False)
class _WindowGram:
    """G_w[j, k] = (w_|j-k| - w_(j+k)) / (2L) for j, k = 1..N, the Gram
    matrix of the potential's window, from its cosine moments w_0..w_2N.
    ``share`` is the window's fraction W / n of the grid, from which the
    range finder predicts the rank.

    Toeplitz minus Hankel in w is convolution with w's even extension of
    the odd extension of x (x_-k = -x_k), whose lags j - k run over
    -(N-1)..2N for outputs j = 1..N: 3N distinct residues, so G_w x is read
    off one circular convolution of length 3N that no wrap-around aliases.
    ``apply`` takes one such product for a batch of rows, and
    ``compressed`` needs one batch per range-finder pass.
    """

    moments: np.ndarray
    L: float
    N: int
    share: float

    @cached_property
    def _symbol(self):
        # h[r] = w_|d| for the lag d = r (mod 3N) in -(N-1)..2N
        n = self.N
        w = self.moments
        h = np.empty(3 * n)
        h[: 2 * n + 1] = w
        h[2 * n + 1 :] = w[n - 1 : 0 : -1]
        return np.fft.rfft(h) / (2.0 * self.L)

    def apply(self, X):
        """G_w applied to each row of X (k x N): one batched rfft and irfft,
        the inverse written back into the zero-padded input buffer, which
        holds x at 1..N and -x reversed at 2N..3N-1."""
        k, n = X.shape
        x = np.zeros((k, 3 * n))
        x[:, 1 : n + 1] = X
        x[:, 2 * n :] = -X[:, ::-1]
        spectrum = np.fft.rfft(x)
        spectrum *= self._symbol
        return np.fft.irfft(spectrum, 3 * n, out=x)[:, 1 : n + 1]

    @cached_property
    def compressed(self):
        """(U, C) with G_w ~ U diag(C) U^T, U orthonormal N x r, from one
        product Y = Omega G_w per pass of a randomized range finder on the
        test rows Omega (``_test_rows``); None past the column cap.

        With Q R = Y^T, the model G_w = Q B Q^T reproduces Y exactly when
        (Omega Q) B^T = R^T, so that k x k system gives B without a second
        product Q^T G_w Q (the single-pass range finder for a symmetric
        matrix; Halko, Martinsson and Tropp 2011, section 5.5). Rounding in
        an ill-conditioned Omega Q shows up as Ritz values of B above the
        tolerance, so the count check doubles the columns, as it does for a
        singular Omega Q, and past the cap the dense step answers."""
        floor = np.abs(self.moments).max() / (2.0 * self.L)
        cap = min(_RANK_MAX, self.N // 4)
        # the test rows Omega drawn so far and their products Y = Omega G_w
        Omega = Y = np.empty((0, self.N))
        k = math.ceil(self.N * self.share) + 3 * _OVERSAMPLE
        while k <= cap:
            rows = _test_rows(Y.shape[0], k, self.N)
            Omega = np.concatenate((Omega, rows))
            Y = np.concatenate((Y, self.apply(rows)))
            Q, R = np.linalg.qr(Y.T)
            try:
                B = np.linalg.solve(Omega @ Q, R.T)
            except np.linalg.LinAlgError:
                k *= 2
                continue
            theta, V = np.linalg.eigh(0.5 * (B + B.T))
            keep = np.abs(theta) > _RANK_TOL * max(np.abs(theta).max(), floor)
            if np.count_nonzero(keep) <= k - _OVERSAMPLE:
                return Q @ V[:, keep], theta[keep]
            k *= 2
        return None


@dataclass(frozen=True, eq=False)
class QuadFormMatrix:
    """Symmetric Galerkin matrix of the form on the first N sine modes,
    Delta + G_w: the diagonal Delta (``diagonal``) and the Gram matrix G_w
    of the potential's window, which ``min_eigenvalue`` applies and
    compresses from the window's moments. ``entries``, the dense N x N
    array, is built when first read.
    """

    L: float
    N: int
    diagonal: np.ndarray
    # G_w with its FFT symbol and compression, each built on first use;
    # dataclasses.replace passes it on, so a shifted copy shares them
    _window: _WindowGram = field(repr=False)

    @cached_property
    def entries(self) -> np.ndarray:
        A = gram_from_cosine(self._window.moments, self.N) / self.L
        A[np.diag_indices_from(A)] += self.diagonal
        return A


@dataclass(frozen=True)
class CoercivityReport:
    """Smallest eigenvalues of the form and of its shifted variant
    (the shift subtracts a quarter of the leading kinetic term and a quarter
    of the identity, so delta_margin >= 0 is the certified inequality).

    ``pair_gaps`` holds rho - lambda for the form and its shifted variant at
    the accepted pair (N / 2, N): rho, the Rayleigh quotient of level N's
    eigenvector cut to its first N / 2 modes, is at or above level N / 2's
    smallest eigenvalue, so each gap bounds how far the pair's two levels
    are apart."""

    lambda_min: float
    delta_margin: float
    N_sequence: tuple
    converged: bool
    pair_gaps: tuple = ()

    @property
    def certified(self) -> bool:
        """The one certification rule: converged with a positive margin."""
        return self.converged and self.delta_margin > 0


def _kinetic_diagonal(L, N):
    kp = (np.pi / L) * np.arange(1, N + 1)
    return kp**4 - kp**2


def assemble(profile: PotentialProfile, N: int) -> QuadFormMatrix:
    """Galerkin matrix Delta + G_w: the kinetic symbol plus phi_x's constant
    phi_x_off on the diagonal Delta, and the Gram matrix of the window.

    Its entries int (phi_x - phi_x_off) e_j e_k reduce by the product-to-sum
    identity to differences of the window's cosine moments, which the
    profile computes once. The matrix keeps them and builds its dense entries
    only when they are read. A grid too coarse for moment 2N raises
    ``UnderResolvedGridError`` before any transform.
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    moments = profile._window_moments(2 * N + 1)
    L = profile.L
    return QuadFormMatrix(
        L=L,
        N=N,
        diagonal=_kinetic_diagonal(L, N) + profile.phi_x_off,
        _window=_WindowGram(moments, L, N, profile.window.size / profile.n),
    )


class _Secular:
    """Inertia counts and Newton steps for lambda_min of the model
    M = diag(delta) + U diag(C) U^T. With W = U |C|^{1/2}, s = sign(C) and
    E = diag(delta_out) - sigma, the entries of delta in ``inner`` stay rows
    of the bordered secular matrix
    B = [[diag(delta_in) - sigma, W_in], [W_in^T, -diag(s) - W_out^T E^{-1} W_out]],
    the Schur complement of E in K = [[Delta - sigma, W], [W^T, -diag(s)]],
    whose other Schur complement is M - sigma I. By Haynsworth inertia
    additivity M has n = #{delta_out < sigma} + #{B < 0} - #{C > 0}
    eigenvalues below sigma. Where E > 0 no eigenvalue of B rises with
    sigma, so h, the one of index #{C > 0}, is >= 0 below lambda_min and
    < 0 above. For h's unit eigenvector [u; t], x = [u; -E^{-1} W_out t] has
    (M - sigma I) x = h ([u; 0] + W diag(s) t) and dh/dsigma = -|x|^2."""

    def __init__(self, delta, U, C, inner):
        W = U * np.sqrt(np.abs(C))
        self.size = delta.size
        self.in_idx, self.out_idx = np.flatnonzero(inner), np.flatnonzero(~inner)
        self.d_out = delta[self.out_idx]
        self.W_out = W[self.out_idx]
        self.positive = np.count_nonzero(C > 0)
        # the parts of B that do not depend on sigma: the border W_in, and
        # on the diagonal delta_in and -s, to which each probe adds -sigma
        # and the Schur block
        j = self.in_idx.size
        W_in = W[self.in_idx]
        self.border = np.zeros((j + C.size,) * 2)
        self.border[:j, j:] = W_in
        self.border[j:, :j] = W_in.T
        self.base = np.concatenate((delta[self.in_idx], -np.sign(C)))

    def probe(self, sigma):
        """(n, h, x) at sigma; None where E is singular."""
        E = self.d_out - sigma
        if not E.all():
            return None
        Y = self.W_out / E[:, None]
        j = self.in_idx.size
        B = self.border.copy()
        B[j:, j:] = -(self.W_out.T @ Y)
        diagonal = B.reshape(-1)[:: B.shape[0] + 1]
        diagonal += self.base
        diagonal[:j] -= sigma
        beta, V = np.linalg.eigh(B)
        n = np.count_nonzero(E < 0) + np.count_nonzero(beta < 0) - self.positive
        v = V[:, self.positive]
        x = np.empty(self.size)
        x[self.in_idx] = v[:j]
        x[self.out_idx] = -(Y @ v[j:])
        return n, beta[self.positive], x


def _secular_vector(m):
    """Unit eigenvector of lambda_min of the secular model of the matrix
    Delta + G_w from ``assemble``, without an N x N array; None past the
    compression cap, when n = 0 fails at the Weyl bound lo or when Newton
    does not converge in ``_SECULAR_PROBES`` probes. hi, the model's
    smallest diagonal entry, is a Rayleigh quotient, so at or above
    lambda_min; the entries of Delta up to hi are bordered rows, so h has no
    pole in [lo, hi]. Each probe moves lo (n = 0) or hi (n > 0) to itself,
    and a Newton step that leaves [lo, hi] goes to hi from lo, later to the
    midpoint."""
    if not (np.isfinite(m._window.moments).all() and np.isfinite(m.diagonal).all()):
        raise EigensolverError("matrix has a non-finite moment or diagonal entry")
    if m._window.compressed is None:
        return None
    U, C = m._window.compressed
    delta = m.diagonal
    weyl = delta.min() + min(0.0, C.min(initial=0.0))
    lo = weyl - 1e-8 * (1.0 + abs(weyl))
    hi = float(np.min(delta + (U * U) @ C))
    model = _Secular(delta, U, C, delta <= hi)
    found = model.probe(lo)
    if found is None or found[0] != 0:
        return None
    sigma = lo + found[1] / (found[2] @ found[2])
    if not lo < sigma < hi:
        sigma = hi
    for _ in range(_SECULAR_PROBES - 1):
        found = model.probe(sigma)
        if found is None:
            return None
        n, h, x = found
        lo, hi = (sigma, hi) if n == 0 else (lo, sigma)
        step = h / (x @ x)
        if abs(step) <= _SECULAR_TOL * (1.0 + abs(sigma)):
            return x / np.linalg.norm(x)
        sigma += step
        if not lo < sigma < hi:
            sigma = 0.5 * (lo + hi)
    return None


def _dense_min(m):
    """Smallest eigenvalue of the entries of a matrix from ``assemble``,
    with its unit eigenvector, from one ``eigh``; above order ``_FILL_MAX``
    ``EigensolverError`` instead of the fill."""
    if m.N > _FILL_MAX:
        raise EigensolverError(
            f"the dense eigensolve at N = {m.N} would fill an {m.N} x {m.N} array "
            f"({8 * m.N**2 / 2**30:.3g} GiB); it stops at N = {_FILL_MAX}"
        )
    try:
        w, V = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc
    return float(w[0]), V[:, 0]


def _minima(forms, cut=None):
    """(lambda, rho) for each of ``forms``, matrices from ``assemble`` that
    share one window. lambda is the smallest eigenvalue: each form the
    secular step gives up on takes the dense step, and a secular unit
    vector x closes as the Rayleigh quotient x^T A x. With ``cut``, rho is
    the Rayleigh quotient of that eigenvector cut to its first ``cut``
    modes, an upper bound on the smallest eigenvalue of the leading
    cut x cut block (infinite for a cut of norm zero); without, None.

    The secular vectors and their cuts close from one batched product
    G_w Z; a dense form reads its cut's quotient from its entries, so a
    sampled profile forms no product."""
    solved = []
    for A in forms:
        x = _secular_vector(A)
        solved.append((None, x) if x is not None else _dense_min(A))
    # each secular vector, followed with cut by its cut zero-padded to N
    Z = []
    for lam, x in solved:
        if lam is None:
            Z.append(x)
            if cut:
                Z.append(np.concatenate((x[:cut], np.zeros(x.size - cut))))
    products = zip(Z, forms[0]._window.apply(np.stack(Z))) if Z else iter(())
    out = []
    for A, (lam, x) in zip(forms, solved):
        secular = lam is None
        if secular:
            lam = _rayleigh(A, *next(products))
        rho = None
        if cut:
            z = x[:cut]
            num = _rayleigh(A, *next(products)) if secular else float(z @ A.entries[:cut, :cut] @ z)
            norm2 = float(z @ z)
            rho = num / norm2 if norm2 > 0.0 else math.inf
        out.append((lam, rho))
    return out


def _rayleigh(A, z, Gz):
    """z^T A z for A from ``assemble``, from z and its product G_w z."""
    return float(z @ (A.diagonal * z) + z @ Gz)


def min_eigenvalue(m: QuadFormMatrix) -> float:
    """Smallest eigenvalue of a matrix from ``assemble``, by the secular
    step (an upper bound: the Rayleigh quotient of the model's eigenvector)
    or by one dense ``eigh`` of its ``entries``: where the range finder's
    rank is past its column cap, as for a sampled profile's whole-grid
    window, or where the secular step gives up (a failed Weyl count, or
    Newton unconverged after ``_SECULAR_PROBES`` probes). Above order
    ``_FILL_MAX`` the dense step raises ``EigensolverError`` instead of
    filling the entries. A NaN or infinity in the moments or the diagonal
    raises ``EigensolverError`` before either step (LAPACK's can return a
    finite value for a NaN diagonal). An array raises ``TypeError``:
    ``numpy.linalg.eigvalsh`` is its eigensolve."""
    if not isinstance(m, QuadFormMatrix):
        raise TypeError("min_eigenvalue takes a QuadFormMatrix from assemble; for an array use numpy.linalg.eigvalsh")
    return _minima((m,))[0][0]


def _shifted(A: QuadFormMatrix) -> QuadFormMatrix:
    """The shifted variant of ``A``'s form, whose smallest eigenvalue is
    ``certify``'s margin: a quarter of the kinetic term k^4 and a quarter
    of the identity come off the diagonal. The copy shares A's window, with
    its compression."""
    kp = (np.pi / A.L) * np.arange(1, A.N + 1)
    return replace(A, diagonal=A.diagonal - (0.25 * kp**4 + 0.25))


def certify(profile: PotentialProfile) -> CoercivityReport:
    """Mode-doubling certification of the form and its shifted variant
    int (3/4) u_xx^2 - u_x^2 + (phi_x - 1/4) u^2, whose nonnegativity is the
    target inequality. Both smallest eigenvalues must be stable under
    doubling before the report is issued.

    The ladder starts at N_0 = max(_N_START, 2^ceil(log2(L / 2))): the form's
    minimizing mode sits near m = 0.26 L, which the sine subspace holds once
    N >= L / 4, and two levels below that would agree on values that miss
    it. The ladder stops at max(_N_MAX, 2 N_0) = max(4096, 2 N_0).

    Levels come in pairs (N / 2, N), and each step solves level N only.
    Cut level N's unit eigenvector x to its first N / 2 modes: its Rayleigh
    quotient rho is an upper bound on lambda_{N/2}, and the levels nest, so
    lambda_N <= lambda_{N/2} <= rho. The pair is accepted when
    rho - lambda_N < _RTOL (1 + |lambda_N|) for both forms, which bounds the
    agreement of the two levels instead of measuring it; a cut of norm zero
    fails the check. ``N_sequence`` lists every level visited, the first
    one bounded, not solved. Both forms of a level share one window
    compression and one closing product of their vectors and cuts. A
    constructed profile takes the secular step at every level; a sampled
    profile takes the dense step, one fill per form, up to ``_FILL_MAX``.
    """
    N = max(_N_START, 1 << max(0, math.ceil(math.log2(profile.L / 2.0))))
    cap = max(_N_MAX, 2 * N)
    used = [N]
    while 2 * N <= cap:
        A = assemble(profile, 2 * N)
        (lam, lam_cut), (margin, margin_cut) = _minima((A, _shifted(A)), N)
        used.append(2 * N)
        gaps = (lam_cut - lam, margin_cut - margin)
        if gaps[0] < _RTOL * (1.0 + abs(lam)) and gaps[1] < _RTOL * (1.0 + abs(margin)):
            return CoercivityReport(
                lambda_min=lam,
                delta_margin=margin,
                N_sequence=tuple(used),
                converged=True,
                pair_gaps=gaps,
            )
        N *= 2
    raise CertificationInconclusiveError(
        f"eigenvalues not converged at mode cap {cap} (last lambda_min {lam:.6g}, margin {margin:.6g}); not a disproof"
    )


def _fd1(u, h):
    """Fourth-order central first derivative, one-sided at the edges."""
    d = np.empty_like(u)
    d[2:-2] = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) / (12.0 * h)
    d[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    d[1] = (u[2] - u[0]) / (2.0 * h)
    d[-2] = (u[-1] - u[-3]) / (2.0 * h)
    d[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    return d


def _fd2(u, h):
    """Fourth-order central second derivative, one-sided at the edges."""
    d = np.empty_like(u)
    d[2:-2] = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * u[2:-2] + 16.0 * u[3:-1] - u[4:]) / (12.0 * h**2)
    d[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h**2
    d[1] = (u[0] - 2.0 * u[1] + u[2]) / h**2
    d[-2] = (u[-3] - 2.0 * u[-2] + u[-1]) / h**2
    d[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h**2
    return d


def hardy_check(u, n: int = 16385):
    """Check (1/4) int u_yy^2 >= (1/2) int (u/y)_y^2 on [-1, 1] for a
    callable u with u(0) = 0.

    u is sampled on the uniform grid linspace(-1, 1, n), n made odd so the
    origin is a sample. Derivatives are finite differences; integrals are
    Simpson. Returns (lhs, rhs, margin).
    """
    if n % 2 == 0:
        n += 1
    y = np.linspace(-1.0, 1.0, n)
    uu = np.asarray(u(y), dtype=float)
    h = 2.0 / (n - 1)
    mid = n // 2
    scale = float(np.max(np.abs(uu)))
    if abs(uu[mid]) > 1e-10 * (1.0 + scale):
        raise ValueError(f"u(0) = {uu[mid]:g} is not zero within tolerance")
    u_y = _fd1(uu, h)
    u_yy = _fd2(uu, h)
    v = np.empty_like(uu)
    nz = y != 0.0
    v[nz] = uu[nz] / y[nz]
    v[mid] = u_y[mid]  # removable singularity: v(0) = u'(0)
    v_y = _fd1(v, h)
    lhs = 0.25 * _simpson(u_yy**2, h)
    rhs = 0.5 * _simpson(v_y**2, h)
    return lhs, rhs, lhs - rhs


def reduced_form_check(sp: SmoothedPotential, v) -> float:
    """Value of int (1/2) v_y^2 + Qtilde v^2 over the support
    [-(a + delta), a + delta], for v a callable on y or a constant.

    The grid has 2^k uniform intervals, the fewest that put 64 across each
    smoothing shoulder, with k between 14 and 22. No boundary condition is
    imposed; the admissibility construction guarantees the value is
    nonnegative for every finite-energy v.
    """
    if not callable(v) and np.ndim(v) != 0:
        raise ValueError("v must be a callable on y or a constant, not an array")
    s, delta = sp.support_halfwidth, sp.smoothing.delta
    n = 1 << max(14, min(22, math.ceil(math.log2(64.0 * 2.0 * s / delta))))
    y = np.linspace(-s, s, n + 1)
    Qt = sp.Qtilde(y)
    vv = np.asarray(v(y) if callable(v) else v, dtype=float)
    if vv.ndim == 0:
        vv = np.full_like(y, float(vv))
    if vv.shape != y.shape:
        raise ValueError("v samples must match the grid")
    h = y[1] - y[0]
    v_y = _fd1(vv, h)
    integrand = 0.5 * v_y**2 + Qt * vv**2
    return float(np.trapezoid(integrand, dx=h))
