"""Galerkin certification that the quadratic form int u_xx^2 - u_x^2 + phi_x u^2
is nonnegative on odd periodic functions, plus the supporting one-dimensional
inequality checks (a Hardy-type second-derivative bound and the reduced
first-order form with the smoothed potential).

The odd sine basis e_k = L^{-1/2} sin(k pi x / L) encodes periodicity together
with the single pinning condition u(0) = 0. A negative smallest eigenvalue at
finite mode count is conclusive (Rayleigh-Ritz gives upper bounds); a positive
one is accepted only after a mode-doubling convergence check.

Small Galerkin matrices get a dense eigensolve. Above a measured crossover
the smallest eigenvalue comes from a shift-and-invert block Krylov method:
the nine smallest eigenvalues of the block centred on the smallest diagonal
entries (upper bounds by Cauchy interlacing), from a partial eigensolve of
that block, place a shift sigma below them, a
Cholesky factorization of A - sigma I in rectangular full packed storage
proves lambda_min > sigma, and Rayleigh-Ritz on a block Krylov space of the
inverse, one packed solve with eight right-hand sides per block, finds the
eigenvalue nearest sigma. When the factorization fails (lambda_min <= sigma)
or the iteration does not converge, the dense eigensolve runs instead. Only
that method needs LAPACK's packed routines, so scipy is imported on the
first matrix above the crossover and a run that never builds one loads
numpy only.
"""

from dataclasses import dataclass

import numpy as np

from ._accel import gram_from_cosine
from .exponents import OperatorOrder
from .potential import PotentialProfile, SmoothedPotential, _simpson


class UnderResolvedGridError(ValueError):
    """Profile grid too coarse for the requested mode count."""


class EigensolverError(RuntimeError):
    """Non-finite input, or the dense symmetric eigensolve failed to converge."""


class CertificationInconclusiveError(RuntimeError):
    """Mode-doubling cap reached without eigenvalue convergence (not a disproof)."""


@dataclass(frozen=True, eq=False)
class QuadFormMatrix:
    """Symmetric Galerkin matrix of the form on the first N sine modes."""

    L: float
    N: int
    order: OperatorOrder
    entries: np.ndarray


@dataclass(frozen=True)
class CoercivityReport:
    """Smallest eigenvalues of the form and of its shifted variant
    (the shift subtracts a quarter of the leading kinetic term and a quarter
    of the identity, so delta_margin >= 0 is the certified inequality)."""

    lambda_min: float
    delta_margin: float
    N_sequence: tuple
    converged: bool
    order: OperatorOrder = OperatorOrder.FOURTH

    @property
    def certified(self) -> bool:
        """The one certification rule: converged with a positive margin."""
        return self.converged and self.delta_margin > 0


def _kinetic_diagonal(L, N, order):
    kp = (np.pi / L) * np.arange(1, N + 1)
    if order is OperatorOrder.FOURTH:
        return kp**4 - kp**2
    return kp**2 - 1.0


def assemble(profile: PotentialProfile, N: int, order: OperatorOrder = OperatorOrder.FOURTH) -> QuadFormMatrix:
    """Galerkin matrix: diagonal kinetic symbol plus the potential Gram matrix.

    The Gram entries int phi_x e_j e_k reduce by the product-to-sum identity to
    differences of cosine moments of phi_x, which the profile computes once.
    Needs grid points >= 4N so moment 2N is resolved.
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    n = profile.n
    if n < 4 * N:
        raise UnderResolvedGridError(f"grid has {n} points, need >= {4 * N} for N = {N}")
    L = profile.L
    A = gram_from_cosine(profile.cosine_moments(2 * N + 1), N) / L
    A[np.diag_indices_from(A)] += _kinetic_diagonal(L, N, order)
    return QuadFormMatrix(L=L, N=N, order=order, entries=A)


# Orders up to this get the dense eigensolve; above it the packed Cholesky
# and block Krylov are cheaper (one BLAS thread: 10.5 vs 8-10 ms at n = 384,
# 22 vs 9-26 ms at 512, 1.2 s vs 0.14-0.24 s at 2048).
_DENSE_MAX = 384
# order of the block, centred on the smallest diagonal entries, whose
# eigenvalues place the shift
_BLOCK = 128
# right-hand sides per packed solve: one pass over the factor serves eight
# vectors in about 1.2 times the time of one (n = 2048, one BLAS thread)
_KRYLOV_BLOCK = 8
# Krylov blocks before the dense fallback; 3-10 were needed at L = 32..512
_KRYLOV_MAX_BLOCKS = 12
# stop once |r|^2 <= _RESIDUAL_TOL mu gap, gap = mu_1 - mu_2 floored at
# 1e-8 mu: the Ritz value mu is then within 1e-14 mu of an eigenvalue
_RESIDUAL_TOL = 1e-14
# a column whose part outside the basis is this small against its own norm
# is treated as lying in the basis
_DEFLATE_TOL = 1e-10


def _rfp_diagonal(n):
    """Positions of A[i, i] in the rectangular full packed array that
    ``dtrttf(transr="N", uplo="U")`` returns: with k = n // 2 and leading
    dimension n + 1 - n % 2, column j holds A[k+j, k+j] in row k + j and
    A[j, j] in row k + j + 1."""
    i = np.arange(n)
    k = n // 2
    lda = n + 1 - n % 2
    return np.where(i < k, i * lda + k + i + 1, (i - k) * lda + i)


def _orthogonalize(P, Q):
    """Remove from the columns of P their components in the orthonormal
    columns of Q (block Gram-Schmidt, two passes), in place."""
    for _ in range(2):
        P -= Q @ (Q.T @ P)


def _shift_invert_min(A):
    """Smallest eigenvalue of the square matrix A (lower triangle) by block
    Krylov Rayleigh-Ritz on the inverse of a packed Cholesky factor, or None
    when the shift is not below the spectrum or the iteration does not
    converge."""
    # imported here, not at the top: see the module docstring
    from scipy.linalg import lapack

    n = A.shape[0]
    b = _KRYLOV_BLOCK
    # the principal block of _BLOCK rows centred on the median row of the
    # nine smallest diagonal entries (the shift reads theta_0..theta_8),
    # clipped to [0, n): the minimizing mode sits there, and one outlying
    # entry cannot pull the block away from the rest of the low spectrum
    centre = int(np.sort(np.argpartition(np.diagonal(A), 8)[:9])[4])
    lo = min(max(centre - _BLOCK // 2, 0), n - _BLOCK)
    block = slice(lo, lo + _BLOCK)
    # only theta_0..theta_8 and the vectors of theta_0..theta_6 are read
    theta, vecs, _, _, info = lapack.dsyevr(A[block, block], range="I", il=1, iu=9, lower=1)
    if info != 0:
        return None
    sigma = theta[0] - max(0.5 * (theta[8] - theta[0]), 1e-8 * (1.0 + abs(theta[0])))
    if not np.isfinite(sigma):
        return None
    # the upper triangle of A.T (Fortran order, no copy) is A's lower triangle
    packed, _ = lapack.dtrttf(A.T, uplo="U")
    packed[_rfp_diagonal(n)] -= sigma
    chol, info = lapack.dpftrf(n, packed, uplo="U", overwrite_a=1)
    if info != 0:
        return None  # info > 0: A - sigma I is not positive definite

    rng = np.random.default_rng(0)
    # orthonormal basis Q, its products W = B Q with B = (A - sigma I)^{-1}
    # and, in the upper triangle that dsyevr reads, H = Q^T W; the start
    # block is theta_0..theta_6's block eigenvectors and a random column
    Q = np.zeros((n, b * _KRYLOV_MAX_BLOCKS), order="F")
    W = np.empty_like(Q)
    H = np.zeros((Q.shape[1], Q.shape[1]))
    Q[block, : b - 1] = vecs[:, : b - 1]
    Q[:, b - 1] = rng.standard_normal(n)
    Q[:, :b] = np.linalg.qr(Q[:, :b])[0]
    for j in range(_KRYLOV_MAX_BLOCKS):
        m = b * (j + 1)
        new = slice(m - b, m)
        W[:, new], info = lapack.dpftrs(n, chol, Q[:, new], uplo="U")
        if info != 0 or not np.isfinite(W[:, new]).all():
            return None
        H[:m, new] = Q[:, :m].T @ W[:, new]
        if j == 0:
            # start columns that are eigenvectors (A block diagonal) are locked:
            # their eigenvalues are exact, and their zero residuals must not
            # end the search of the rest of the basis for a larger one
            rq = np.diagonal(H)[:b]
            exact = np.linalg.norm(W[:, :b] - rq * Q[:, :b], axis=0) <= _DEFLATE_TOL * np.abs(rq)
            locked = rq[exact].max(initial=-np.inf)
            free = np.flatnonzero(~exact)
        else:
            # Rayleigh-Ritz on the unlocked basis: its two largest Ritz values
            # and the top Ritz vector x, with residual B x - mu x
            keep = np.r_[free, b:m]
            mu, y, _, _, info = lapack.dsyevr(H[np.ix_(keep, keep)], range="I", il=keep.size - 1, iu=keep.size)
            if info != 0:
                return None
            top = mu[1]
            x = np.zeros(m)
            x[keep] = y[:, 1]
            r = W[:, :m] @ x - top * (Q[:, :m] @ x)
            if r @ r <= _RESIDUAL_TOL * top * max(top - mu[0], 1e-8 * top):
                top = max(top, locked)
                lam = sigma + 1.0 / top
                return float(lam) if top > 0 and np.isfinite(lam) else None
        if m == Q.shape[1]:
            return None
        P = W[:, new].copy()
        _orthogonalize(P, Q[:, :m])
        Q[:, m : m + b], R = np.linalg.qr(P)
        dependent = np.abs(np.diagonal(R)) <= _DEFLATE_TOL * np.linalg.norm(W[:, new], axis=0)
        if dependent.any():
            # restart each product that lies in the basis from a random column
            P[:, dependent] = rng.standard_normal((n, int(dependent.sum())))
            _orthogonalize(P, Q[:, :m])
            Q[:, m : m + b], _ = np.linalg.qr(P)
    return None


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix, read from its lower triangle.

    Orders up to ``_DENSE_MAX`` use the dense eigensolve. Larger matrices take
    the eigenvalues theta_0 <= ... <= theta_8 of the ``_BLOCK`` block centred
    on the median row of the nine smallest diagonal entries (clipped to the
    matrix), from a partial eigensolve (LAPACK ``dsyevr``, nine eigenpairs
    of the block's lower triangle), upper bounds on
    lambda_min by Cauchy interlacing, and shift to
    sigma = theta_0 - max((theta_8 - theta_0) / 2, 1e-8 (1 + |theta_0|)).
    A successful Cholesky factorization of A - sigma I (in rectangular full
    packed storage, n(n+1)/2 doubles) proves lambda_min > sigma. A block
    Krylov Rayleigh-Ritz on (A - sigma I)^{-1} then finds its largest
    eigenvalue mu: it starts from theta_0..theta_6's block eigenvectors and
    one seeded random vector, and each step is one packed solve with
    ``_KRYLOV_BLOCK`` right-hand sides. A start vector that is an exact
    eigenvector (A block diagonal) keeps its eigenvalue as a candidate but is
    left out of the convergence test, and a product that falls inside the
    basis is replaced by a random column. lambda_min = sigma + 1/mu is still
    a Rayleigh-Ritz upper bound. A failed factorization (lambda_min <= sigma)
    or an iteration unconverged after ``_KRYLOV_MAX_BLOCKS`` blocks falls
    back to the dense eigensolve. The input is not modified.

    A NaN or infinity on the diagonal raises ``EigensolverError`` before any
    solve (LAPACK's dense eigensolve can return a finite value for a NaN
    diagonal). One in the strict lower triangle makes the packed
    factorization fail and raises before the dense solve, which alone pays
    the O(n^2) check. The strict upper triangle is never read.
    """
    entries = m.entries if isinstance(m, QuadFormMatrix) else np.asarray(m, dtype=float)
    if entries.ndim == 2 and not np.isfinite(np.diagonal(entries)).all():
        raise EigensolverError("matrix has a non-finite diagonal entry")
    if entries.ndim == 2 and entries.shape[0] == entries.shape[1] > _DENSE_MAX:
        lam = _shift_invert_min(entries)
        if lam is not None:
            return lam
    if entries.ndim == 2 and not np.isfinite(entries).all() and np.tril(~np.isfinite(entries)).any():
        raise EigensolverError("matrix has a non-finite entry in its lower triangle")
    try:
        return float(np.linalg.eigvalsh(entries)[0])
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(str(exc)) from exc


def certify(
    profile: PotentialProfile,
    order: OperatorOrder = OperatorOrder.FOURTH,
    n_start: int = 64,
    n_cap: int = 4096,
    rtol: float = 1e-6,
) -> CoercivityReport:
    """Mode-doubling certification of the form and its shifted variant.

    For the fourth-order form the shifted variant is
    int (3/4) u_xx^2 - u_x^2 + (phi_x - 1/4) u^2, whose nonnegativity is the
    target inequality; the second-order form shifts analogously. Both smallest
    eigenvalues must be stable under doubling before the report is issued.
    """
    lam_prev = shift_prev = None
    used = []
    N = n_start
    lam = shift = None
    while N <= n_cap:
        A = assemble(profile, N, order).entries
        kp = (np.pi / profile.L) * np.arange(1, N + 1)
        leading = kp**4 if order is OperatorOrder.FOURTH else kp**2
        lam = min_eigenvalue(A)
        A[np.diag_indices_from(A)] -= 0.25 * leading + 0.25  # A now holds the shifted form
        shift = min_eigenvalue(A)
        used.append(N)
        if (
            lam_prev is not None
            and abs(lam - lam_prev) < rtol * (1.0 + abs(lam))
            and abs(shift - shift_prev) < rtol * (1.0 + abs(shift))
        ):
            return CoercivityReport(
                lambda_min=lam,
                delta_margin=shift,
                N_sequence=tuple(used),
                converged=True,
                order=order,
            )
        lam_prev, shift_prev = lam, shift
        N *= 2
    raise CertificationInconclusiveError(
        f"eigenvalues not converged at mode cap {n_cap} (last lambda_min {lam:.6g}, "
        f"margin {shift:.6g}); not a disproof"
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


def hardy_check(u, a: float = 1.0, n: int = 16385):
    """Check (1/4) int u_yy^2 >= (1/2) int (u/y)_y^2 on [-a, a] for u(0) = 0.

    u may be a callable or an array of samples on the uniform grid
    linspace(-a, a, n) (n odd so the origin is a sample). Derivatives are
    finite differences; integrals are Simpson. Returns (lhs, rhs, margin).
    """
    if callable(u):
        if n % 2 == 0:
            n += 1
        y = np.linspace(-a, a, n)
        uu = np.asarray(u(y), dtype=float)
    else:
        uu = np.asarray(u, dtype=float)
        n = uu.size
        if n % 2 == 0:
            raise ValueError("sampled u needs an odd point count so y = 0 is on the grid")
        y = np.linspace(-a, a, n)
    h = 2.0 * a / (n - 1)
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


def reduced_form_check(sp: SmoothedPotential, v, y=None) -> float:
    """Value of int (1/2) v_y^2 + Qtilde v^2 over a uniform grid.

    By default the smoothed-potential grid is used; a custom uniform y may be
    supplied to probe v supported outside it. v may be a callable on y or an
    array matching the grid. No boundary condition is imposed; the
    admissibility construction guarantees the value is nonnegative for every
    finite-energy v.
    """
    if y is None:
        y = sp.grid_y
        Qt = sp.Qt_grid
    else:
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or y.size < 5:
            raise ValueError("y must be a 1d grid with at least 5 points")
        steps = np.diff(y)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("y must be uniformly spaced")
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
