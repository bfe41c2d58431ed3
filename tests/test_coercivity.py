"""Galerkin assembly, eigenvalue certification, and the one-dimensional
inequality checks behind it."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lapack

from kslyap import coercivity
from kslyap._accel import gram_from_cosine
from kslyap.coercivity import (
    CertificationInconclusiveError,
    CoercivityReport,
    EigensolverError,
    UnderResolvedGridError,
    assemble,
    certify,
    hardy_check,
    min_eigenvalue,
    reduced_form_check,
)
from kslyap.exponents import OperatorOrder
from kslyap.potential import PotentialProfile, build_profile


def _symbol(L, N):
    kp = (np.pi / L) * np.arange(1, N + 1)
    return kp**4 - kp**2


def test_assemble_free_operator_is_diagonal(make_flat_profile):
    p = make_flat_profile(L=64.0, n=1024, slope=0.0)
    A = assemble(p, 16)
    assert np.allclose(A.entries, np.diag(_symbol(64.0, 16)), atol=1e-12)
    assert A.N == 16 and A.L == 64.0


def test_assemble_constant_potential_shifts_diagonal(make_flat_profile):
    p = make_flat_profile(L=64.0, n=1024, slope=1.0)
    A = assemble(p, 16)
    assert np.allclose(A.entries, np.diag(_symbol(64.0, 16) + 1.0), atol=1e-12)


def test_assemble_second_order_symbol(make_flat_profile):
    p = make_flat_profile(L=64.0, n=1024, slope=0.0)
    A = assemble(p, 16, order=OperatorOrder.SECOND)
    kp = (np.pi / 64.0) * np.arange(1, 17)
    assert np.allclose(A.entries, np.diag(kp**2 - 1.0), atol=1e-12)


def test_assemble_requires_resolved_grid(make_flat_profile):
    p = make_flat_profile(n=64)
    with pytest.raises(UnderResolvedGridError):
        assemble(p, 32)
    with pytest.raises(ValueError):
        assemble(p, 4)


def test_assemble_is_symmetric(profile32):
    A = assemble(profile32, 64).entries
    assert np.array_equal(A, A.T)


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.diag([3.0, -2.0, 7.0])) == -2.0
    assert np.isclose(min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])), -1.0, rtol=1e-14)


def test_min_eigenvalue_accepts_quadform(make_flat_profile):
    p = make_flat_profile(L=64.0, n=1024, slope=0.0)
    A = assemble(p, 16)
    assert min_eigenvalue(A) == min_eigenvalue(A.entries)


def test_min_eigenvalue_matches_power_iteration():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((50, 50))
    A = 0.5 * (A + A.T)
    lam = min_eigenvalue(A)
    # independent route: power iteration on c I - A with a Gershgorin shift
    c = float(np.max(np.sum(np.abs(A), axis=1)))
    B = c * np.eye(50) - A
    v = rng.standard_normal(50)
    for _ in range(3000):
        v = B @ v
        v /= np.linalg.norm(v)
    rho = float(v @ (B @ v))
    assert abs((c - rho) - lam) <= 1e-8 * (1.0 + abs(lam))


@pytest.fixture(scope="module")
def galerkin_1024(critical_pair):
    """Assembled and shifted Galerkin matrices at N = 1024 for L = 32, 128,
    512 and 1024; at L = 1024 the minimizing mode (m ~ 0.26 L) lies outside
    the leading block."""
    out = {}
    for L in (32.0, 128.0, 512.0, 1024.0):
        A = assemble(build_profile(L, pair=critical_pair), 1024).entries
        kp = (np.pi / L) * np.arange(1, 1025)
        shifted = A.copy()
        shifted[np.diag_indices_from(shifted)] -= 0.25 * kp**4 + 0.25
        out[L] = (A, shifted)
    return out


def _no_dense_eigensolve(monkeypatch):
    def refuse(a, UPLO="L"):
        raise AssertionError("dense eigensolve called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


@pytest.mark.parametrize("L", [32.0, 128.0, 512.0, 1024.0])
@pytest.mark.parametrize("N", [512, 1024])
def test_shift_invert_matches_dense(galerkin_1024, monkeypatch, L, N):
    # Galerkin matrices nest, so the N = 512 matrices are leading blocks
    mats = [M[:N, :N] for M in galerkin_1024[L]]
    dense = [float(np.linalg.eigvalsh(M)[0]) for M in mats]
    _no_dense_eigensolve(monkeypatch)
    for M, ref in zip(mats, dense):
        assert abs(min_eigenvalue(M) - ref) <= 1e-9 * (1.0 + abs(ref))


def test_rfp_diagonal_positions():
    for n in range(1, 41):
        packed, info = lapack.dtrttf(np.asfortranarray(np.diag(np.arange(1.0, n + 1))), uplo="U")
        assert info == 0
        assert np.array_equal(packed[coercivity._rfp_diagonal(n)], np.arange(1.0, n + 1))
        assert np.count_nonzero(packed) == n


def _coupled_tail(n, low):
    """diag(1, ..., n) with its last two rows coupled into a pair with
    eigenvalues low and 2n - low: the diagonal minimum stays at row 0, so
    the shift block is the leading one and low lies off the diagonal."""
    A = np.diag(np.arange(1.0, n + 1))
    A[-2:, -2:] = [[n, n - low], [n - low, n]]
    return A


def _counted_solves(monkeypatch):
    """Patch lapack.dpftrs to record the column count of each packed solve."""
    widths = []
    dpftrs = lapack.dpftrs

    def counted(n, chol, b, **kw):
        widths.append(b.shape[1])
        return dpftrs(n, chol, b, **kw)

    monkeypatch.setattr(lapack, "dpftrs", counted)
    return widths


@pytest.mark.parametrize("n", [600, 601])
def test_minimum_outside_leading_block_falls_back(monkeypatch, n):
    # the leading block sees 1, 2, ..., so the shift lands near -3 and the
    # Cholesky of A - sigma I fails on the last entry; the dense solve runs
    d = np.arange(1.0, n + 1)
    d[-1] = -5.0
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert min_eigenvalue(np.diag(d)) == -5.0
    assert calls == [(n, n)]


def test_minimum_orthogonal_to_start_vector_is_found(monkeypatch):
    # between the shift and the leading block: the factorization succeeds and
    # Lanczos must leave the start vector's invariant subspace to find it
    d = np.arange(1.0, 601.0)
    d[-1] = -2.0
    _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(np.diag(d)) + 2.0) < 1e-12


def test_minimum_just_above_start_eigenvalue_is_found(monkeypatch):
    # theta_0's block eigenvector is an exact eigenvector with a zero
    # residual; the minimum 1e-3 below it must still be found, not theta_0
    d = np.arange(1.0, 601.0)
    d[-1] = 0.999
    _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(np.diag(d)) - 0.999) < 1e-12


@pytest.mark.parametrize("n", [600, 601])
def test_coupled_minimum_below_shift_falls_back(monkeypatch, n):
    # as above with the minimum in an off-diagonal pair: the Cholesky of
    # A - sigma I fails on the pair and the dense solve runs once
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert abs(min_eigenvalue(_coupled_tail(n, -5.0)) + 5.0) < 1e-12
    assert calls == [(n, n)]


@pytest.mark.parametrize("low", [-2.0, 0.999])
def test_coupled_minimum_above_shift_is_found(monkeypatch, low):
    # the pair lies outside the shift block and off the diagonal: the
    # factorization succeeds and the Krylov search must find it
    _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(_coupled_tail(600, low)) - low) < 1e-12


def test_lone_diagonal_outlier_keeps_leading_shift_block(monkeypatch):
    # the block follows the nine smallest diagonal entries, not the outlier
    # alone, so sigma lands near -3 and the factorization fails before any
    # packed solve; a block around the outlier would put sigma ~240 below
    # -5 and stall on the clustered rest of the spectrum
    d = np.arange(1.0, 601.0)
    d[-1] = -5.0
    widths = _counted_solves(monkeypatch)
    assert min_eigenvalue(np.diag(d)) == -5.0
    assert widths == []


def test_degenerate_spectrum_needs_no_dense_solve(monkeypatch):
    # every product lies in the basis and every Ritz value is equal
    _no_dense_eigensolve(monkeypatch)
    assert min_eigenvalue(3.0 * np.eye(600)) == 3.0


def test_block_krylov_solves_few_blocks(galerkin_1024, monkeypatch):
    # one packed solve per Krylov block, each with _KRYLOV_BLOCK columns; at
    # L = 1024 the minimizing mode (m ~ 0.26 L) lies outside the leading
    # block, so only a shift block that follows it keeps the factorization
    mats = [galerkin_1024[128.0][0], *galerkin_1024[1024.0]]
    assert all(np.argmin(np.diagonal(A)) >= coercivity._BLOCK for A in mats[1:])
    refs = [float(np.linalg.eigvalsh(A)[0]) for A in mats]
    widths = _counted_solves(monkeypatch)
    _no_dense_eigensolve(monkeypatch)
    for A, ref in zip(mats, refs):
        widths.clear()
        assert abs(min_eigenvalue(A) - ref) <= 1e-9 * (1.0 + abs(ref))
        assert 2 <= len(widths) <= 6
        assert set(widths) == {coercivity._KRYLOV_BLOCK}


def test_shift_block_takes_partial_eigensolve(galerkin_1024, monkeypatch):
    # the shift reads theta_0..theta_8 only: nine eigenpairs of the block
    # come from a partial eigensolve, not a full eigh
    A = galerkin_1024[128.0][0]
    ref = float(np.linalg.eigvalsh(A)[0])

    def refuse(a, UPLO="L"):
        raise AssertionError("full block eigensolve called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    widths = _counted_solves(monkeypatch)
    _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(A) - ref) <= 1e-9 * (1.0 + abs(ref))
    assert 2 <= len(widths) <= 6


def test_block_cap_falls_back_to_dense_once(galerkin_1024, monkeypatch):
    A = galerkin_1024[128.0][0][:512, :512]
    block = min_eigenvalue(A)
    dense = float(np.linalg.eigvalsh(A)[0])
    monkeypatch.setattr(coercivity, "_KRYLOV_MAX_BLOCKS", 1)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert min_eigenvalue(A) == dense
    assert calls == [(512, 512)]
    assert abs(block - dense) <= 1e-9 * (1.0 + abs(dense))


@pytest.mark.parametrize("n", [64, 600])
def test_min_eigenvalue_leaves_input_unchanged(galerkin_1024, n):
    A = galerkin_1024[128.0][0][:n, :n].copy()
    before = A.copy()
    min_eigenvalue(A)
    assert np.array_equal(A, before)


@pytest.mark.parametrize("shape", [(3, 4), (600, 599), (600,)])
def test_min_eigenvalue_rejects_non_square(shape):
    with pytest.raises(EigensolverError):
        min_eigenvalue(np.zeros(shape))


@pytest.mark.parametrize("n", [256, 1024])
def test_min_eigenvalue_reads_lower_triangle(galerkin_1024, monkeypatch, n):
    # perturb only the strict upper triangle: both paths must ignore it
    A = galerkin_1024[128.0][0][:n, :n].copy()
    rng = np.random.default_rng(5)
    iu = np.triu_indices(n, 1)
    A[iu] += 0.05 * rng.standard_normal(iu[0].size)
    lower = float(np.linalg.eigvalsh(A, UPLO="L")[0])
    upper = float(np.linalg.eigvalsh(A, UPLO="U")[0])
    assert abs(lower - upper) > 1e-3
    if n > coercivity._DENSE_MAX:
        _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(A) - lower) <= 1e-9 * (1.0 + abs(lower))


def _non_finite_positions(n):
    # first and middle diagonal entries, a lower entry inside the leading
    # block and one outside it (the shift-invert path sees it only through
    # the packed factorization)
    return {
        "diag_first": (0, 0),
        "diag_mid": (n // 2, n // 2),
        "lower_near": (5, 2),
        "lower_far": (n - 3, n // 2),
    }


@pytest.mark.parametrize("n", [64, 600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diag_first", "diag_mid", "lower_near", "lower_far"])
def test_min_eigenvalue_rejects_non_finite(n, bad, where):
    A = np.diag(np.arange(1.0, n + 1))
    A[_non_finite_positions(n)[where]] = bad
    with pytest.raises(EigensolverError):
        min_eigenvalue(A)


@pytest.mark.parametrize("n", [64, 600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lower_triangle_raises_before_dense_solve(capfd, n, bad):
    # LAPACK's dense eigensolve would print a DLASCL error before failing
    A = np.diag(np.arange(1.0, n + 1))
    A[n - 3, n // 2] = bad
    with pytest.raises(EigensolverError, match="lower triangle"):
        min_eigenvalue(A)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("n", [64, 600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_min_eigenvalue_ignores_non_finite_upper_triangle(monkeypatch, n, bad):
    A = np.diag(np.arange(1.0, n + 1))
    A[2, 5] = A[n // 2, n - 3] = bad
    if n > coercivity._DENSE_MAX:
        _no_dense_eigensolve(monkeypatch)
    assert abs(min_eigenvalue(A) - 1.0) < 1e-12


def _refuse(monkeypatch, *names):
    """Make each named coercivity function, or np.linalg.eigvalsh, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    for name in names:
        monkeypatch.setattr(*((np.linalg, name) if name == "eigvalsh" else (coercivity, name)), refuse)


def _shifted(m):
    """certify's shifted variant: a quarter of the leading term and of the
    identity off the diagonal, sharing the window's compression."""
    kp = (np.pi / m.L) * np.arange(1, m.N + 1)
    leading = kp**4 if m.order is OperatorOrder.FOURTH else kp**2
    return m._shifted(0.25 * leading + 0.25)


@pytest.mark.parametrize("order", list(OperatorOrder))
@pytest.mark.parametrize("N", [64, 512])
def test_entries_are_the_gram_fill(profile32, order, N):
    # built on first read, bit for bit the moment fill plus the symbol
    kp = (np.pi / 32.0) * np.arange(1, N + 1)
    A = gram_from_cosine(profile32.cosine_moments(2 * N + 1), N) / 32.0
    A[np.diag_indices_from(A)] += _symbol(32.0, N) if order is OperatorOrder.FOURTH else kp**2 - 1.0
    m = assemble(profile32, N, order)
    assert "entries" not in vars(m)
    assert np.array_equal(m.entries, A)


@pytest.fixture(scope="module")
def structured(critical_pair):
    """assemble(build_profile(L), N) with its shifted variant, and both
    smallest eigenvalues from eigvalsh and from the packed path."""
    out = {}
    for L in (32.0, 128.0, 512.0, 1024.0):
        profile = build_profile(L, pair=critical_pair)
        for N in (512, 1024):
            mats = (assemble(profile, N), _shifted(assemble(profile, N)))
            # filled on copies, so the matrices under test hold no dense array
            fills = [replace(m).entries for m in mats]
            refs = [(float(np.linalg.eigvalsh(A)[0]), coercivity._packed_min(A)) for A in fills]
            out[L, N] = list(zip(mats, refs))
    return out


@pytest.mark.parametrize("L", [32.0, 128.0, 512.0, 1024.0])
@pytest.mark.parametrize("N", [512, 1024])
def test_structured_matches_dense_and_packed(structured, monkeypatch, L, N):
    _refuse(monkeypatch, "_packed_min", "eigvalsh")
    for m, refs in structured[L, N]:
        lam = min_eigenvalue(m)
        for ref in refs:
            assert abs(lam - ref) <= 1e-9 * (1.0 + abs(ref))


def test_structured_matches_packed_at_2048(critical_pair, monkeypatch):
    m = assemble(build_profile(128.0, pair=critical_pair), 2048)
    mats = (m, _shifted(m))
    refs = [coercivity._packed_min(replace(A).entries) for A in mats]
    _refuse(monkeypatch, "_packed_min", "eigvalsh")
    for A, ref in zip(mats, refs):
        assert abs(min_eigenvalue(A) - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("N", [512, 1024])
def test_structured_second_order(profile32, monkeypatch, N):
    # the well is supercritical here: lambda_min lies far below the shift
    # block's sigma, and the Weyl shift min Delta + min(0, lambda_min(C)) is
    # what the inertia count proves
    mats = [assemble(profile32, N, OperatorOrder.SECOND)]
    mats.append(_shifted(mats[0]))
    refs = [float(np.linalg.eigvalsh(m.entries)[0]) for m in mats]
    _refuse(monkeypatch, "_packed_min", "eigvalsh")
    for m, ref in zip(mats, refs):
        assert abs(min_eigenvalue(m) - ref) <= 1e-9 * (1.0 + abs(ref))


def test_shifted_variant_shares_compression(profile32):
    m = assemble(profile32, 512)
    s = _shifted(m)
    min_eigenvalue(m)
    assert s._window is m._window and "compressed" in vars(m._window)


def test_shifted_variant_takes_over_dense_fill(profile32):
    # certify's dense levels fill once: the shifted form is the filled
    # matrix with its diagonal lowered in place, as a fresh fill would be
    m = assemble(profile32, 128)
    A = m.entries.copy()
    shift = np.linspace(1.0, 2.0, 128)
    s = m._shifted(shift)
    assert "entries" not in vars(m) and "entries" in vars(s)
    assert np.array_equal(s.entries, A - np.diag(shift))
    assert np.array_equal(m.entries, A)


def test_profiles_without_window_take_packed_path(make_flat_profile, profile32, monkeypatch):
    # from_samples stores phi_x as one window over the whole grid: no low
    # rank part, so the array path runs and gives its value bit for bit
    samples = PotentialProfile.from_samples(
        32.0, profile32.phi_x, profile32.mean_q, profile32.exponents, source=profile32.source
    )
    mats = [assemble(samples, 512), assemble(make_flat_profile(L=64.0, n=16384, slope=0.0), 512)]
    values = [min_eigenvalue(m.entries) for m in mats]
    windowed = min_eigenvalue(assemble(profile32, 512))
    assert abs(values[0] - windowed) <= 1e-9 * (1.0 + abs(windowed))
    _refuse(monkeypatch, "_structured_min")
    assert all(m.phi_x_off is None for m in mats)
    assert [min_eigenvalue(m) for m in mats] == values


def test_rank_past_cap_takes_packed_path(profile32, monkeypatch):
    m = assemble(profile32, 512)
    value = min_eigenvalue(m.entries)
    monkeypatch.setattr(coercivity, "_RANK_MAX", 8)
    assert m._window.compressed is None
    assert min_eigenvalue(m) == value


def test_inertia_count_matches_model_spectrum(profile32):
    # #{Delta < sigma} + #{C < 0} - #{S < 0} against eigvalsh of the model,
    # below, between and above its eigenvalues and with one Delta < sigma;
    # the Woodbury solve is backward stable
    m = assemble(profile32, 512)
    U, C = m._window.compressed
    delta = m.diagonal + m.phi_x_off
    model = (U * C) @ U.T + np.diag(delta)
    spectrum = np.linalg.eigvalsh(model)
    X = np.random.default_rng(3).standard_normal((512, 8))
    for sigma in (spectrum[0] - 1.0, spectrum[0] + 1e-6, 0.5 * (spectrum[2] + spectrum[3]), delta.min() + 1e-9):
        count, solve = coercivity._woodbury(delta, U, C, sigma)
        assert count == np.count_nonzero(spectrum < sigma)
        Y = solve(X)
        M = model - sigma * np.eye(512)
        assert np.linalg.norm(M @ Y - X) <= 1e-14 * np.linalg.norm(M, 2) * np.linalg.norm(Y)


def test_structured_path_allocates_no_dense_matrix(critical_pair):
    profile = build_profile(128.0, pair=critical_pair)
    tracemalloc.start()
    try:
        min_eigenvalue(assemble(profile, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2048 x 2048 array alone is 32 MB
    assert peak < 8 * 2**20


# an infinite window sample makes the moment transform warn on inf - inf
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["window", "diagonal", "phi_x_off"])
def test_structured_rejects_non_finite_before_any_solve(profile32, monkeypatch, bad, where):
    if where == "window":
        window = profile32.window.copy()
        window[window.size // 3] = bad
        m = assemble(replace(profile32, window=window), 512)
    else:
        m = assemble(profile32, 512)
        m = replace(m, diagonal=np.where(np.arange(512) == 7, bad, m.diagonal)) if where == "diagonal" else m
        m = replace(m, phi_x_off=bad, _window=None) if where == "phi_x_off" else m
    _refuse(monkeypatch, "_woodbury", "_block_krylov", "_packed_min", "eigvalsh")
    with pytest.raises(EigensolverError):
        min_eigenvalue(m)


def test_certify_constructed_profile(profile32):
    report = certify(profile32)
    assert report.converged
    assert report.order is OperatorOrder.FOURTH
    assert report.N_sequence == (64, 128)
    assert report.delta_margin > 0.0
    # the potential's mean lifts the whole spectrum by about 70
    assert np.isclose(report.lambda_min, 69.97744573007638, rtol=1e-6)
    assert np.isclose(report.delta_margin, 69.64420135006026, rtol=1e-6)


def test_certified_requires_converged_positive_margin():
    def report(margin, converged=True):
        return CoercivityReport(lambda_min=1.0, delta_margin=margin, N_sequence=(64, 128), converged=converged)

    assert report(1e-3).certified
    assert not report(0.0).certified
    assert not report(-1e-3).certified
    assert not report(1.0, converged=False).certified


def test_certify_second_order_flat_profile(make_flat_profile):
    report = certify(make_flat_profile(L=64.0, n=16384, slope=3.0))
    kp1 = np.pi / 64.0
    # fourth order: minimum of the discrete symbol sits near kappa = 1/sqrt(2)
    assert abs(report.lambda_min - (3.0 - 0.25)) < 1e-3
    report = certify(make_flat_profile(L=64.0, n=16384, slope=3.0), order=OperatorOrder.SECOND)
    assert report.converged
    assert report.order is OperatorOrder.SECOND
    assert np.isclose(report.lambda_min, kp1**2 - 1.0 + 3.0, atol=1e-9)
    assert np.isclose(report.delta_margin, 0.75 * kp1**2 - 1.0 + 3.0 - 0.25, atol=1e-9)


def test_certify_second_order_diverges_on_scaled_well(profile32):
    # the inverse-square well is supercritical for the second-order form, so
    # mode doubling never stabilizes; the dual convergence check catches it
    with pytest.raises(CertificationInconclusiveError):
        certify(profile32, order=OperatorOrder.SECOND)


def test_certify_free_operator(make_flat_profile):
    # phi_x = 0 control: lambda_min is the discrete symbol minimum near -1/4,
    # and the shifted form loses (it needs the potential)
    report = certify(make_flat_profile(L=64.0, n=16384, slope=0.0))
    assert report.converged
    assert abs(report.lambda_min + 0.25) < 1e-3
    assert report.delta_margin < 0.0


def test_certify_constant_potential(make_flat_profile):
    report = certify(make_flat_profile(L=64.0, n=16384, slope=1.0))
    assert report.converged
    assert abs(report.lambda_min - 0.75) < 1e-3


def test_certify_free_operator_negative_beyond_pi(make_flat_profile):
    for L in (4.0, 10.0, 64.0):
        report = certify(make_flat_profile(L=L, n=16384, slope=0.0))
        assert report.lambda_min < 0.0


def test_certify_inconclusive_at_cap(profile32):
    with pytest.raises(CertificationInconclusiveError):
        certify(profile32, n_start=64, n_cap=64)


def test_rayleigh_ritz_monotone_in_mode_count(profile32):
    lams = [min_eigenvalue(assemble(profile32, N)) for N in (64, 128, 256, 512)]
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 1e-12


def test_brute_force_rayleigh_consistency(critical_pair):
    # N = 8 Galerkin matrix for a random smooth odd-form potential profile:
    # sampled Rayleigh quotients stay above lambda_min, and a short polish of
    # the best sample closes the gap
    rng = np.random.default_rng(23)
    L, n = 5.0, 512
    x = -L + (2.0 * L / n) * np.arange(n)
    phi_x = np.zeros(n)
    for m in range(1, 7):
        phi_x += rng.normal() * np.cos(np.pi * m * x / L)
        phi_x += rng.normal() * np.sin(np.pi * m * x / L)
    profile = PotentialProfile.from_samples(L, phi_x, mean_q=-1.0, exponents=critical_pair)
    A = assemble(profile, 8).entries
    lam = min_eigenvalue(A)
    C = rng.standard_normal((100_000, 8))
    quots = np.einsum("ij,jk,ik->i", C, A, C) / np.einsum("ij,ij->i", C, C)
    assert float(np.min(quots)) >= lam - 1e-9
    x0 = C[int(np.argmin(quots))]
    x0 /= np.linalg.norm(x0)
    # inverse iteration from the best sample; a Gershgorin shift sits below the
    # whole spectrum, which pins the iteration to the smallest eigenvalue
    shift = float(np.min(np.diag(A) - (np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))))) - 0.1
    M = A - shift * np.eye(8)
    for _ in range(200):
        x0 = np.linalg.solve(M, x0)
        x0 /= np.linalg.norm(x0)
    rho = float(x0 @ A @ x0)
    assert abs(rho - lam) < 1e-3


def test_hardy_linear_function_saturates():
    lhs, rhs, margin = hardy_check(lambda y: y)
    assert lhs == 0.0
    assert rhs == 0.0
    assert margin == 0.0


def test_hardy_quadratic_exact():
    lhs, rhs, margin = hardy_check(lambda y: y**2)
    assert np.isclose(lhs, 2.0, rtol=1e-12)
    assert np.isclose(rhs, 1.0, rtol=1e-12)
    assert np.isclose(margin, 1.0, rtol=1e-12)


def test_hardy_cubic_exact():
    lhs, rhs, margin = hardy_check(lambda y: y**3)
    assert np.isclose(lhs, 6.0, rtol=1e-10)
    assert np.isclose(rhs, 4.0 / 3.0, rtol=1e-10)
    assert np.isclose(margin, lhs - rhs, rtol=1e-12)


def test_hardy_random_odd_trig_margins():
    rng = np.random.default_rng(31)
    for _ in range(100):
        deg = int(rng.integers(1, 11))
        coeffs = rng.standard_normal(deg)

        def u(y, coeffs=coeffs):
            out = np.zeros_like(y)
            for j, cj in enumerate(coeffs, start=1):
                out += cj * np.sin(j * np.pi * y)
            return out

        _, _, margin = hardy_check(u, n=8193)
        assert margin >= -1e-10


def test_hardy_accepts_samples():
    y = np.linspace(-1.0, 1.0, 4097)
    by_samples = hardy_check(y**3, n=4097)
    by_callable = hardy_check(lambda t: t**3, n=4097)
    assert by_samples == by_callable


def test_hardy_preconditions():
    with pytest.raises(ValueError):
        hardy_check(lambda y: np.cos(y))  # u(0) != 0
    with pytest.raises(ValueError):
        hardy_check(np.ones(100))  # even sample count


def test_reduced_form_constant_v(default_sp):
    # v = 1 turns the form into the integral of Qtilde itself
    val = reduced_form_check(default_sp, 1.0)
    h = default_sp.grid_y[1] - default_sp.grid_y[0]
    assert val == float(np.trapezoid(default_sp.Qt_grid, dx=h))
    assert val > 0.0


def test_reduced_form_nonnegative_on_random_v(default_sp):
    rng = np.random.default_rng(41)
    y = default_sp.grid_y
    worst = np.inf
    for _ in range(100):
        width = float(rng.uniform(0.05, 1.0))
        center = float(rng.uniform(-1.0, 1.0))
        amp = float(rng.uniform(0.2, 3.0))
        v = amp * np.exp(-((y - center) ** 2) / (2.0 * width**2))
        v += rng.normal(scale=0.1) * np.cos(np.pi * y)
        worst = min(worst, reduced_form_check(default_sp, v))
    assert worst >= -1e-10


def test_reduced_form_custom_domain_off_support(default_sp):
    y = np.linspace(1.2, 3.2, 2001)
    v = np.zeros_like(y)
    inside = np.abs(y - 2.2) < 0.5
    v[inside] = np.exp(-1.0 / (1.0 - ((y[inside] - 2.2) / 0.5) ** 2))
    val = reduced_form_check(default_sp, v, y=y)
    grad_energy = 0.5 * np.trapezoid(np.gradient(v, y[1] - y[0]) ** 2, dx=y[1] - y[0])
    assert val > 0.0
    assert np.isclose(val, grad_energy, rtol=1e-3)


def test_reduced_form_rejects_bad_grids(default_sp):
    with pytest.raises(ValueError):
        reduced_form_check(default_sp, 1.0, y=np.array([0.0, 0.1, 0.3, 0.35, 0.4]))
    with pytest.raises(ValueError):
        reduced_form_check(default_sp, np.ones(7))
