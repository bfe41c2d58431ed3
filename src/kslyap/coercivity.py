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
entries (upper bounds by Cauchy interlacing) place a shift sigma below
them, a proof that A - sigma I is positive definite shows lambda_min >
sigma, and Rayleigh-Ritz on a block Krylov space of (A - sigma I)^{-1}, one
solve with eight right-hand sides per block, finds the eigenvalue nearest
sigma. Two factor-and-solve steps serve that loop.

- Structured: the matrix ``assemble`` builds from a constructed profile is
  a diagonal Delta (kinetic symbol plus phi_x's constant phi_x_off) plus
  the Gram matrix G_w of the potential's window. The critical scaling
  shrinks the window like L^{-1/3}, so G_w has numerical rank r of a few
  to a few dozen. G_w is applied from the window's cosine moments by FFT
  and compressed once to U C U^T by a randomized range finder; a
  Haynsworth inertia count proves Delta - sigma I + U C U^T positive
  definite, each solve is a Woodbury solve in O(N r) per column, and the
  value returned is the Rayleigh quotient of the final Ritz vector on A
  itself. No N x N array is built and only numpy is used.
- Packed: raw arrays, profiles without a window (``from_samples``) and
  windows whose rank exceeds the compression cap get a Cholesky
  factorization of A - sigma I in rectangular full packed storage and
  packed solves. Only this step needs LAPACK's packed routines, so scipy
  is imported on its first use and a run that never takes it loads numpy
  only.

When a step fails (no proof at the shift, or no convergence), the next one
runs: structured, then packed, then the dense eigensolve.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

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


# the range finder starts with this many random columns and doubles them
# until the trailing Ritz values of Q^T G_w Q are negligible, up to
# _RANK_MAX columns (and N / 4); past that cap the packed step runs
_RANK_START = 16
_RANK_MAX = 128
# columns beyond the numerical rank that a converged range finder must show
_OVERSAMPLE = 4
# a Ritz value of Q^T G_w Q is negligible below _RANK_TOL times the larger
# of the largest one and max|w| / 2L. Each entry of G_w is a difference of
# moments of size up to max|w| / 2L, and their rounding puts G_w's spectrum
# on a noise floor near 1e-14 of that (L = 8..8192, N = 512..2048). Where
# the window is narrow against the modes that floor is far above 1e-12 of
# the largest Ritz value: at L = 8192, N = 512 the largest is 0.026 and
# the floor 1e-12.
_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class _WindowGram:
    """G_w[j, k] = (w_|j-k| - w_(j+k)) / (2L) for j, k = 1..N, the Gram
    matrix of the potential's window, from its cosine moments
    w = c - 2 L phi_x_off delta_0 (c_0..c_2N).

    Toeplitz minus Hankel in w is convolution with w's even extension of
    the odd extension of x, so G_w x is read off one circular convolution
    of length 4N (indices 1..N, which no wrap-around reaches).
    """

    moments: np.ndarray
    phi_x_off: float
    L: float
    N: int

    @cached_property
    def _window_moments(self):
        w = self.moments[: 2 * self.N + 1].copy()
        w[0] -= 2.0 * self.L * self.phi_x_off
        return w

    @cached_property
    def _symbol(self):
        n = self.N
        w = self._window_moments
        h = np.zeros(4 * n)
        h[: 2 * n + 1] = w
        h[2 * n + 1 :] = w[2 * n - 1 : 0 : -1]
        # h is even, so its transform is real
        return np.fft.rfft(h).real / (2.0 * self.L)

    def apply(self, X):
        """G_w applied to each row of X (k x N): one batched rfft."""
        k, n = X.shape
        x = np.zeros((k, 4 * n))
        x[:, 1 : n + 1] = X
        x[:, 3 * n :] = -X[:, ::-1]
        return np.fft.irfft(np.fft.rfft(x) * self._symbol, 4 * n)[:, 1 : n + 1]

    @cached_property
    def compressed(self):
        """(U, C) with G_w ~ U diag(C) U^T, U orthonormal N x r, from a
        seeded randomized range finder; None past the column cap."""
        rng = np.random.default_rng(0)
        floor = np.abs(self._window_moments).max() / (2.0 * self.L)
        # products G_w Omega of the random columns drawn so far
        Y = np.empty((0, self.N))
        k = _RANK_START
        while k <= min(_RANK_MAX, self.N // 4):
            Y = np.concatenate((Y, self.apply(rng.standard_normal((k - Y.shape[0], self.N)))))
            Q = np.linalg.qr(Y.T)[0]
            B = self.apply(np.ascontiguousarray(Q.T)) @ Q
            theta, V = np.linalg.eigh(0.5 * (B + B.T))
            keep = np.abs(theta) > _RANK_TOL * max(np.abs(theta).max(), floor)
            if np.count_nonzero(keep) <= k - _OVERSAMPLE:
                return Q @ V[:, keep], theta[keep]
            k *= 2
        return None


@dataclass(frozen=True, eq=False)
class QuadFormMatrix:
    """Symmetric Galerkin matrix of the form on the first N sine modes: the
    Gram matrix of phi_x, G[j, k] = (c_|j-k| - c_(j+k)) / (2L) for its
    cosine moments c_0..c_2N, plus ``diagonal`` on the diagonal.

    ``phi_x_off`` is phi_x's constant value off the potential's window, or
    None for a profile without one (``from_samples``). With it, the matrix
    is Delta + G_w: the diagonal Delta = diagonal + phi_x_off and the
    window's Gram matrix, which ``min_eigenvalue`` applies and compresses
    from the moments. ``entries``, the dense N x N array, is built when
    first read.
    """

    L: float
    N: int
    order: OperatorOrder
    moments: np.ndarray
    diagonal: np.ndarray
    phi_x_off: float | None = None
    # G_w with its FFT symbol and compression, each built on first use;
    # dataclasses.replace passes it on, so a shifted copy shares them
    _window: _WindowGram | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._window is None and self.phi_x_off is not None:
            object.__setattr__(self, "_window", _WindowGram(self.moments, self.phi_x_off, self.L, self.N))

    @cached_property
    def entries(self) -> np.ndarray:
        A = gram_from_cosine(self.moments, self.N) / self.L
        A[np.diag_indices_from(A)] += self.diagonal
        return A

    def _shifted(self, shift):
        """This matrix minus diag(shift). It shares the window and takes
        over the dense entries if they were built, shifting them in place,
        so a level pays one fill for both of ``certify``'s forms."""
        out = replace(self, diagonal=self.diagonal - shift)
        entries = vars(self).pop("entries", None)
        if entries is not None:
            entries[np.diag_indices_from(entries)] -= shift
            vars(out)["entries"] = entries
        return out


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
    The matrix keeps the moments and builds its dense entries only when they
    are read. Needs grid points >= 4N so moment 2N is resolved.
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    n = profile.n
    if n < 4 * N:
        raise UnderResolvedGridError(f"grid has {n} points, need >= {4 * N} for N = {N}")
    L = profile.L
    windowed = profile.window.size < n
    return QuadFormMatrix(
        L=L,
        N=N,
        order=order,
        moments=profile.cosine_moments(2 * N + 1),
        diagonal=_kinetic_diagonal(L, N, order),
        phi_x_off=profile.phi_x_off if windowed else None,
    )


# Orders up to this get the dense eigensolve; above it the packed Cholesky
# and block Krylov are cheaper (one BLAS thread: 10.5 vs 8-10 ms at n = 384,
# 22 vs 9-26 ms at 512, 1.2 s vs 0.14-0.24 s at 2048).
_DENSE_MAX = 384
# order of the block, centred on the smallest diagonal entries, whose
# eigenvalues place the shift
_BLOCK = 128
# right-hand sides per solve: one pass over the packed factor serves eight
# vectors in about 1.2 times the time of one (n = 2048, one BLAS thread)
_KRYLOV_BLOCK = 8
# Krylov blocks before the fallback; 3-10 were needed at L = 32..512
_KRYLOV_MAX_BLOCKS = 12
# stop once |r|^2 <= _RESIDUAL_TOL mu gap + (eta mu)^2, gap = mu_1 - mu_2
# floored at 1e-8 mu: with exact solves the Ritz value mu is then within
# 1e-14 mu of an eigenvalue. eta bounds the relative error of one solve,
# under which the residual cannot fall: 0 for the packed solve (backward
# stable; its floor stays under the first term) and _WOODBURY_ETA for the
# Woodbury solve. Refined once, that solve's error measured at most 3e-12
# relative, and its backward error 4e-14, at the shifts the loop uses
# (L = 12..2048, N = 512..2048, both orders); unrefined, its backward error
# reached 2e-8. A residual at the floor leaves the Ritz value within
# 1e-12 mu of an eigenvalue even at the smallest gap.
_RESIDUAL_TOL = 1e-14
_PACKED_ETA = 0.0
_WOODBURY_ETA = 1e-10
# a column whose part outside the basis is this small against its own norm
# is treated as lying in the basis; a larger part is normalized, and its
# direction is then accurate to about 1e-16 / _DEFLATE_TOL. At 1e-10 that
# left 1e-6 of rounding in the basis from the start block's products, and
# the residual stalled above the stop rule: over L = 8..8192,
# N = 512..2048, both orders and both steps, 9 of 265 runs did not
# converge at 1e-10 and 2 at 1e-8 (second order at L = 8 and 100, where
# the packed factorization fails as well)
_DEFLATE_TOL = 1e-8


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


def _lapack_pairs(M, lo, hi, lower):
    """Eigenpairs lo..hi (ascending, 0-based) of the symmetric M from one
    triangle, by LAPACK ``dsyevr``; None when it fails."""
    from scipy.linalg import lapack

    theta, vecs, _, _, info = lapack.dsyevr(M, range="I", il=lo + 1, iu=hi + 1, lower=int(lower))
    return (theta, vecs) if info == 0 else None


def _numpy_pairs(M, lo, hi, lower):
    """As ``_lapack_pairs``, from numpy's full eigensolve."""
    theta, vecs = np.linalg.eigh(M, UPLO="L" if lower else "U")
    return theta[lo : hi + 1], vecs[:, lo : hi + 1]


def _shift_block(diagonal):
    """The principal block of _BLOCK rows centred on the median row of the
    nine smallest diagonal entries (the shift reads theta_0..theta_8),
    clipped to [0, n): the minimizing mode sits there, and one outlying
    entry cannot pull the block away from the rest of the low spectrum."""
    centre = int(np.sort(np.argpartition(diagonal, 8)[:9])[4])
    lo = min(max(centre - _BLOCK // 2, 0), diagonal.size - _BLOCK)
    return slice(lo, lo + _BLOCK)


def _shift(theta):
    """sigma below the block's theta_0 by half the spread of theta_0..theta_8."""
    return theta[0] - max(0.5 * (theta[8] - theta[0]), 1e-8 * (1.0 + abs(theta[0])))


def _block_krylov(n, solve, pairs, block, vecs, eta):
    """Block Krylov Rayleigh-Ritz for the largest eigenvalue mu of
    B = (A - sigma I)^{-1}, given ``solve(X) = B X``, the eigenpair routine
    ``pairs`` and the shift block's eigenvectors; returns (mu, x) with x
    the Ritz vector of mu, or None when it does not converge."""
    b = _KRYLOV_BLOCK
    rng = np.random.default_rng(0)
    # orthonormal basis Q, its products W = B Q and, in the upper triangle
    # that the Rayleigh-Ritz step reads, H = Q^T W; the start block is
    # theta_0..theta_6's block eigenvectors and a random column
    Q = np.zeros((n, b * _KRYLOV_MAX_BLOCKS), order="F")
    W = np.empty_like(Q)
    H = np.zeros((Q.shape[1], Q.shape[1]))
    Q[block, : b - 1] = vecs[:, : b - 1]
    Q[:, b - 1] = rng.standard_normal(n)
    Q[:, :b] = np.linalg.qr(Q[:, :b])[0]
    for j in range(_KRYLOV_MAX_BLOCKS):
        m = b * (j + 1)
        new = slice(m - b, m)
        product = solve(Q[:, new])
        if product is None or not np.isfinite(product).all():
            return None
        W[:, new] = product
        H[:m, new] = Q[:, :m].T @ W[:, new]
        if j == 0:
            # start columns that are eigenvectors (A block diagonal) are locked:
            # their eigenvalues are exact, and their zero residuals must not
            # end the search of the rest of the basis for a larger one
            rq = np.diagonal(H)[:b]
            exact = np.linalg.norm(W[:, :b] - rq * Q[:, :b], axis=0) <= _DEFLATE_TOL * np.abs(rq)
            locked = np.where(exact, rq, -np.inf)
            free = np.flatnonzero(~exact)
        else:
            # Rayleigh-Ritz on the unlocked basis: its two largest Ritz values
            # and the top Ritz vector x, with residual B x - mu x
            keep = np.r_[free, b:m]
            found = pairs(H[np.ix_(keep, keep)], keep.size - 2, keep.size - 1, False)
            if found is None:
                return None
            mu, y = found
            top = mu[1]
            x = np.zeros(m)
            x[keep] = y[:, 1]
            qx = Q[:, :m] @ x
            r = W[:, :m] @ x - top * qx
            if r @ r <= _RESIDUAL_TOL * top * max(top - mu[0], 1e-8 * top) + (eta * top) ** 2:
                best = int(np.argmax(locked))
                if locked[best] > top:
                    return locked[best], Q[:, best]
                return top, qx
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


def _packed_min(A):
    """Smallest eigenvalue of the square matrix A (lower triangle) by block
    Krylov on the inverse of a packed Cholesky factor of A - sigma I, or
    None when the shift is not below the spectrum or the iteration does not
    converge."""
    # imported here, not at the top: see the module docstring
    from scipy.linalg import lapack

    n = A.shape[0]
    block = _shift_block(np.diagonal(A))
    # only theta_0..theta_8 and the vectors of theta_0..theta_6 are read
    found = _lapack_pairs(A[block, block], 0, 8, True)
    if found is None:
        return None
    theta, vecs = found
    sigma = _shift(theta)
    if not np.isfinite(sigma):
        return None
    # the upper triangle of A.T (Fortran order, no copy) is A's lower triangle
    packed, _ = lapack.dtrttf(A.T, uplo="U")
    packed[_rfp_diagonal(n)] -= sigma
    chol, info = lapack.dpftrf(n, packed, uplo="U", overwrite_a=1)
    if info != 0:
        return None  # info > 0: A - sigma I is not positive definite

    def solve(X):
        out, info = lapack.dpftrs(n, chol, X, uplo="U")
        return out if info == 0 else None

    found = _block_krylov(n, solve, _lapack_pairs, block, vecs, _PACKED_ETA)
    if found is None:
        return None
    lam = sigma + 1.0 / found[0]
    return float(lam) if found[0] > 0 and np.isfinite(lam) else None


def _woodbury(delta, U, C, sigma):
    """(count, solve) for M = diag(delta) - sigma I + U diag(C) U^T.

    count is M's number of negative eigenvalues by Haynsworth inertia
    additivity: K = [[D, U], [U^T, -C^{-1}]] with D = diag(delta) - sigma I
    has the Schur complements M (of -C^{-1}) and -S (of D), where S is the
    capacitance matrix C^{-1} + U^T D^{-1} U, so
    In(M) + In(-C^{-1}) = In(D) + In(-S) and, for nonsingular S,
    count = #{delta < sigma} + #{C < 0} - #{S's negative eigenvalues}, and
    M is nonsingular. solve(X) = M^{-1} X by the Woodbury formula,
    D^{-1} X - D^{-1} U S^{-1} U^T D^{-1} X, refined once against M; each
    pass is O(N r) per column. None when D or S is singular.
    """
    D = delta - sigma
    if not D.all():
        return None
    DU = U / D[:, None]
    S = U.T @ DU
    S[np.diag_indices_from(S)] += 1.0 / C
    s, V = np.linalg.eigh(S)
    if not s.all():
        return None
    count = np.count_nonzero(D < 0) + np.count_nonzero(C < 0) - np.count_nonzero(s < 0)
    # D^{-1} U S^{-1} U^T D^{-1} = (DU V) s^{-1} (DU V)^T
    DUV = DU @ V

    def apply_inverse(X):
        return X / D[:, None] - DUV @ ((DUV.T @ X) / s[:, None])

    def solve(X):
        Y = apply_inverse(X)
        return Y + apply_inverse(X - D[:, None] * Y - U @ (C[:, None] * (U.T @ Y)))

    return count, solve


def _structured_min(m):
    """Smallest eigenvalue of the matrix Delta + G_w from ``assemble``,
    without an N x N array: block Krylov on the inverse of the compressed
    model Delta + U C U^T by Woodbury solves, then the Rayleigh quotient of
    its Ritz vector on A itself. None past the compression cap or when no
    shift is proved below the model's spectrum or Krylov does not converge."""
    if not (np.isfinite(m.moments).all() and np.isfinite(m.diagonal).all() and np.isfinite(m.phi_x_off)):
        raise EigensolverError("matrix has a non-finite moment or diagonal entry")
    low_rank = m._window.compressed
    if low_rank is None:
        return None
    U, C = low_rank
    n, L, c = m.N, m.L, m.moments
    # A's diagonal and shift block, with the same rounding as ``entries``
    i = np.arange(n)
    block = _shift_block((c[0] - c[2 * i + 2]) * 0.5 / L + m.diagonal)
    i = i[block]
    A_block = (c[np.abs(i[:, None] - i)] - c[i[:, None] + i + 2]) * 0.5 / L
    A_block[np.diag_indices_from(A_block)] += m.diagonal[block]
    theta, vecs = _numpy_pairs(A_block, 0, 8, True)
    delta = m.diagonal + m.phi_x_off
    # when the block's shift is not below the spectrum, Weyl's inequality
    # puts min Delta + min(0, lambda_min(C)) there
    weyl = delta.min() + min(0.0, C.min(initial=0.0))
    for sigma in (_shift(theta), weyl - 1e-8 * (1.0 + abs(weyl))):
        model = _woodbury(delta, U, C, sigma)
        if model is not None and model[0] == 0:
            break
    else:
        return None
    found = _block_krylov(n, model[1], _numpy_pairs, block, vecs, _WOODBURY_ETA)
    if found is None:
        return None
    x = found[1] / np.linalg.norm(found[1])
    return float(x @ (delta * x) + x @ m._window.apply(x[None, :])[0])


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix, read from its lower triangle.

    ``m`` is an array or a ``QuadFormMatrix``. Orders up to ``_DENSE_MAX``
    use the dense eigensolve. Larger matrices take the eigenvalues
    theta_0 <= ... <= theta_8 of the ``_BLOCK`` block centred on the median
    row of the nine smallest diagonal entries (clipped to the matrix), upper
    bounds on lambda_min by Cauchy interlacing, and shift to
    sigma = theta_0 - max((theta_8 - theta_0) / 2, 1e-8 (1 + |theta_0|)).
    A block Krylov Rayleigh-Ritz on (A - sigma I)^{-1} then finds its
    largest eigenvalue mu: it starts from theta_0..theta_6's block
    eigenvectors and one seeded random vector, and each step is one solve
    with ``_KRYLOV_BLOCK`` right-hand sides. A start vector that is an exact
    eigenvector (A block diagonal) keeps its eigenvalue as a candidate but
    is left out of the convergence test, and a product that falls inside
    the basis is replaced by a random column. The factor-and-solve step is
    one of two:

    - Structured, for a ``QuadFormMatrix`` with a window (``phi_x_off``
      set): A = Delta + G_w, G_w compressed to U C U^T (rank r) by a
      seeded randomized range finder whose columns double from
      ``_RANK_START`` until the trailing Ritz values of Q^T G_w Q fall
      below ``_RANK_TOL`` of the largest, up to ``_RANK_MAX`` columns. A
      zero Haynsworth inertia count of Delta - sigma I + U C U^T proves it
      positive definite; when it is not zero, the shift is retried once
      just below min Delta + min(0, lambda_min(C)), which Weyl's
      inequality puts below the model's spectrum. Each solve is a
      Woodbury solve refined once against the model, and the value
      returned is the Rayleigh quotient of the final Ritz vector on A,
      applied from the moments: still a Rayleigh-Ritz upper bound.
      The block eigenpairs come from numpy, so this step imports no scipy
      and builds no N x N array. A NaN or infinity in the moments, the
      diagonal or phi_x_off raises ``EigensolverError`` before any solve.
    - Packed, for arrays, windowless matrices (``from_samples`` profiles)
      and any matrix the structured step gives up on: a partial eigensolve
      of the block (LAPACK ``dsyevr``, nine eigenpairs) and a Cholesky
      factorization of A - sigma I in rectangular full packed storage
      (n(n+1)/2 doubles), whose success proves lambda_min > sigma; each
      solve is one packed solve, and lambda_min = sigma + 1/mu.

    A failed proof or an iteration unconverged after ``_KRYLOV_MAX_BLOCKS``
    blocks passes on to the next step, the packed and then the dense
    eigensolve. The input is not modified.

    For arrays, a NaN or infinity on the diagonal raises ``EigensolverError``
    before any solve (LAPACK's dense eigensolve can return a finite value
    for a NaN diagonal). One in the strict lower triangle makes the packed
    factorization fail and raises before the dense solve, which alone pays
    the O(n^2) check. The strict upper triangle is never read.
    """
    if isinstance(m, QuadFormMatrix):
        if m.N > _DENSE_MAX and m.phi_x_off is not None:
            lam = _structured_min(m)
            if lam is not None:
                return lam
        entries = m.entries
    else:
        entries = np.asarray(m, dtype=float)
    if entries.ndim == 2 and not np.isfinite(np.diagonal(entries)).all():
        raise EigensolverError("matrix has a non-finite diagonal entry")
    if entries.ndim == 2 and entries.shape[0] == entries.shape[1] > _DENSE_MAX:
        lam = _packed_min(entries)
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
    Each level assembles once; the shifted variant differs only in its
    diagonal and shares the dense fill or the window's compression.
    """
    lam_prev = shift_prev = None
    used = []
    N = n_start
    lam = shift = None
    while N <= n_cap:
        A = assemble(profile, N, order)
        kp = (np.pi / profile.L) * np.arange(1, N + 1)
        leading = kp**4 if order is OperatorOrder.FOURTH else kp**2
        lam = min_eigenvalue(A)
        shift = min_eigenvalue(A._shifted(0.25 * leading + 0.25))
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
