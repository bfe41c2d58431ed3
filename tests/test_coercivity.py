"""Galerkin assembly, eigenvalue certification, and the one-dimensional
inequality checks behind it."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from kslyap import coercivity
from kslyap._accel import gram_from_cosine
from kslyap.coercivity import (
    CertificationInconclusiveError,
    CoercivityReport,
    EigensolverError,
    UnderResolvedGridError,
    _shifted,
    assemble,
    certify,
    hardy_check,
    min_eigenvalue,
    reduced_form_check,
)
from kslyap.exponents import OperatorOrder
from kslyap.potential import PiecewiseParams, PotentialProfile, build_profile, smooth

from conftest import dense_phi_x


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


def test_assemble_requires_resolved_grid(make_flat_profile):
    p = make_flat_profile(n=64)
    with pytest.raises(UnderResolvedGridError):
        assemble(p, 32)
    with pytest.raises(ValueError):
        assemble(p, 4)


def test_assemble_is_symmetric(profile32):
    A = assemble(profile32, 64).entries
    assert np.array_equal(A, A.T)


def test_min_eigenvalue_accepts_quadform(make_flat_profile):
    p = make_flat_profile(L=64.0, n=1024, slope=0.0)
    A = assemble(p, 16)
    assert min_eigenvalue(A) == _dense_value(A)


def test_min_eigenvalue_rejects_arrays():
    # an array has numpy's eigensolve, which the error message names
    with pytest.raises(TypeError, match="numpy.linalg.eigvalsh"):
        min_eigenvalue(np.eye(3))


def _reference_min(A):
    """lambda_min of the symmetric array A, accurate where eigvalsh's
    absolute error eps |A| is not: a Cholesky factorization of A - sigma I
    (scipy) proves sigma below the spectrum, and subspace iteration on its
    inverse from eight fixed random columns gives sigma + 1 / mu, for mu
    the largest Ritz value once it stops changing."""
    guess = float(np.linalg.eigvalsh(A)[0])
    gap = 1e-6 * (1.0 + abs(guess))
    while True:
        sigma = guess - gap
        try:
            factor = scipy.linalg.cho_factor(A - sigma * np.eye(A.shape[0]), lower=True)
            break
        except np.linalg.LinAlgError:
            gap *= 10.0
    X = np.linalg.qr(np.random.default_rng(0).standard_normal((A.shape[0], 8)))[0]
    mu = 0.0
    for _ in range(100):
        Y = scipy.linalg.cho_solve(factor, X)
        H = X.T @ Y
        top = float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])
        if abs(top - mu) <= 1e-15 * top:
            return sigma + 1.0 / top
        mu = top
        X = np.linalg.qr(Y)[0]
    raise AssertionError("reference subspace iteration did not converge")


def _refuse(monkeypatch, *names):
    """Make each named coercivity function, or np.linalg.eigvalsh, fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("refused call")

    for name in names:
        monkeypatch.setattr(*((np.linalg, name) if name == "eigvalsh" else (coercivity, name)), refuse)


@pytest.mark.parametrize("N", [64, 512])
def test_entries_are_the_gram_fill(profile32, N):
    # built on first read, bit for bit the window's moment fill plus the
    # symbol and phi_x's constant
    A = gram_from_cosine(profile32._window_moments(2 * N + 1), N) / 32.0
    A[np.diag_indices_from(A)] += _symbol(32.0, N) + profile32.phi_x_off
    m = assemble(profile32, N)
    assert "entries" not in vars(m)
    assert np.array_equal(m.entries, A)


def test_diagonal_is_the_symbol_plus_the_constant(profile32, make_flat_profile):
    # Delta = kinetic symbol + phi_x_off, bit for bit: the constant is added
    # once, in assemble, and the window's moments leave it out
    for p in (profile32, make_flat_profile(L=64.0, n=4096, slope=0.5)):
        m = assemble(p, 256)
        want = coercivity._kinetic_diagonal(p.L, 256) + p.phi_x_off
        assert np.array_equal(m.diagonal.view(np.int64), want.view(np.int64))
        assert np.array_equal(m._window.moments, p._window_moments(2 * 256 + 1))


@pytest.fixture(scope="module")
def structured():
    """assemble(build_profile(L), N) with its shifted variant, and both
    smallest eigenvalues from eigvalsh and from ``_reference_min``."""
    out = {}
    for L in (32.0, 128.0, 512.0, 1024.0):
        profile = build_profile(L)
        for N in (512, 1024):
            mats = (assemble(profile, N), _shifted(assemble(profile, N)))
            # filled on copies, so the matrices under test hold no dense array
            fills = [replace(m).entries for m in mats]
            refs = [(float(np.linalg.eigvalsh(A)[0]), _reference_min(A)) for A in fills]
            out[L, N] = list(zip(mats, refs))
    return out


@pytest.mark.parametrize("L", [32.0, 128.0, 512.0, 1024.0])
@pytest.mark.parametrize("N", [512, 1024])
def test_structured_matches_dense_and_reference(structured, monkeypatch, L, N):
    _refuse(monkeypatch, "eigvalsh")
    for m, refs in structured[L, N]:
        lam = min_eigenvalue(m)
        for ref in refs:
            assert abs(lam - ref) <= 1e-9 * (1.0 + abs(ref))


def test_structured_matches_reference_at_2048(monkeypatch):
    m = assemble(build_profile(128.0), 2048)
    mats = (m, _shifted(m))
    refs = [_reference_min(replace(A).entries) for A in mats]
    _refuse(monkeypatch, "eigvalsh")
    for A, ref in zip(mats, refs):
        assert abs(min_eigenvalue(A) - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("L", [32.0, 128.0, 512.0, 1024.0])
@pytest.mark.parametrize("N", [512, 1024])
def test_shift_invert_matches_dense(structured, monkeypatch, L, N):
    # the dense step, forced where the secular step would answer, must
    # match shift-and-invert iteration on a Cholesky factor (_reference_min);
    # each form is a fresh copy, so the fixture's hold no dense array
    monkeypatch.setattr(coercivity, "_secular_vector", lambda m: None)
    for m, (_, ref) in structured[L, N]:
        assert abs(min_eigenvalue(replace(m)) - ref) <= 1e-9 * (1.0 + abs(ref))


@pytest.mark.parametrize("n", [64, 600])
def test_min_eigenvalue_leaves_input_unchanged(profile32, n):
    # the form and its shifted copy share one window: neither solve may
    # write to its moments or to either diagonal
    m = assemble(profile32, n)
    s = _shifted(m)
    before = (m.diagonal.copy(), s.diagonal.copy(), m._window.moments.copy())
    min_eigenvalue(m)
    min_eigenvalue(s)
    for a, b in zip((m.diagonal, s.diagonal, m._window.moments), before):
        assert np.array_equal(a, b)


def _non_finite_positions(n):
    # first and middle diagonal entries, a lower entry near the corner and
    # one far from it
    return {
        "diag_first": (0, 0),
        "diag_mid": (n // 2, n // 2),
        "lower_near": (5, 2),
        "lower_far": (n - 3, n // 2),
    }


def _with_non_finite(m, where, bad):
    """m with ``bad`` at the named entry: in the diagonal, or in the moment
    w_(i+j+2) that the lower entry (i, j) = (w_(i-j) - w_(i+j+2)) / 2L reads."""
    i, j = _non_finite_positions(m.N)[where]
    if i == j:
        d = m.diagonal.copy()
        d[i] = bad
        out = replace(m, diagonal=d)
    else:
        w = m._window.moments.copy()
        w[i + j + 2] = bad
        out = replace(m, _window=replace(m._window, moments=w))
    assert not np.isfinite(replace(out).entries[i, j])
    return out


@pytest.mark.parametrize("n", [64, 600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["diag_first", "diag_mid", "lower_near", "lower_far"])
def test_min_eigenvalue_rejects_non_finite(profile32, make_flat_profile, n, bad, where):
    # a constructed profile's form takes the secular step, a sampled one's
    # the dense step: both check the moments and the diagonal first
    for p in (profile32, make_flat_profile(L=64.0, n=16384, slope=0.5)):
        with pytest.raises(EigensolverError, match="non-finite"):
            min_eigenvalue(_with_non_finite(assemble(p, n), where, bad))


@pytest.mark.parametrize("n", [64, 600])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lower_triangle_raises_before_dense_solve(capfd, monkeypatch, make_flat_profile, n, bad):
    # LAPACK's dense eigensolve would print a DLASCL error before failing;
    # a sampled profile's form raises before the dense step runs
    m = _with_non_finite(assemble(make_flat_profile(L=64.0, n=16384, slope=0.5), n), "lower_far", bad)
    _refuse(monkeypatch, "_dense_min")
    with pytest.raises(EigensolverError, match="non-finite moment"):
        min_eigenvalue(m)
    assert capfd.readouterr().err == ""


def _probes(monkeypatch):
    """Patch _Secular.probe to record the sigma of each probe."""
    sigmas = []
    probe = coercivity._Secular.probe
    monkeypatch.setattr(coercivity._Secular, "probe", lambda self, sigma: sigmas.append(sigma) or probe(self, sigma))
    return sigmas


def _second_order(profile, N):
    """The matrices of the second-order form int u_x^2 - u^2 + phi_x u^2 and
    of its shifted variant, built from the fourth-order assembly: its window
    under the diagonal k^2 - 1 + phi_x_off, and that less (k^2 + 1) / 4. The
    inverse-square well is supercritical against k^2, so lambda_min lies
    hundreds below min Delta. The form's own diagonal k^4 - k^2 does not
    reach that regime on the constructed profiles; under it, the L = 32
    window scaled by 40 does (lambda_min -1320 at N = 512), but Newton runs
    out of probes there."""
    kp = (np.pi / profile.L) * np.arange(1, N + 1)
    m = replace(assemble(profile, N), diagonal=kp**2 - 1.0 + profile.phi_x_off)
    return m, replace(m, diagonal=m.diagonal - (0.25 * kp**2 + 0.25))


@pytest.mark.parametrize("N", [256, 512, 1024])
def test_structured_second_order(profile32, monkeypatch, N):
    # lambda_min lies hundreds below min Delta, so the smallest entry of
    # Delta is a pole of the r-row secular matrix between lambda_min and
    # the bracket's upper end hi (the model's smallest diagonal entry),
    # which a Newton step from hi would cross; kept as a row of the
    # bordered matrix, it leaves no pole there
    mats = _second_order(profile32, N)
    refs = [float(np.linalg.eigvalsh(replace(m).entries)[0]) for m in mats]
    _refuse(monkeypatch, "eigvalsh")
    sigmas = _probes(monkeypatch)
    for m, ref in zip(mats, refs):
        sigmas.clear()
        assert abs(min_eigenvalue(m) - ref) <= 1e-9 * (1.0 + abs(ref))
        U, C = m._window.compressed
        delta = m.diagonal
        assert ref < delta.min() - 100.0 and delta.min() < np.min(delta + (U * U) @ C)
        assert len(sigmas) <= 12


@pytest.mark.parametrize("L", [12.0, 32.0, 128.0, 512.0, 2048.0, 8192.0])
def test_secular_matches_reference(monkeypatch, L):
    # every windowed matrix at N = 64..2048, both forms, in at most 12
    # probes; the reference is eigvalsh while |A| < 1e8 and _reference_min
    # above, where eigvalsh's backward error eps |A| is past the bound
    profile = build_profile(L)
    cases = []
    for N in (64, 128, 256, 512, 1024, 2048):
        m = assemble(profile, N)
        for A in (m, _shifted(m)):
            # filled on a copy, so the matrix under test holds no dense array
            fill = replace(A).entries
            dense = np.abs(np.diagonal(fill)).max() < 1e8
            cases.append((A, float(np.linalg.eigvalsh(fill)[0]) if dense else _reference_min(fill)))
    _refuse(monkeypatch, "eigvalsh")
    sigmas = _probes(monkeypatch)
    for A, ref in cases:
        sigmas.clear()
        assert abs(min_eigenvalue(A) - ref) <= 1e-9 * (1.0 + abs(ref))
        assert len(sigmas) <= 12


@pytest.mark.parametrize("N", [128, 256])
def test_small_windowed_levels_build_no_dense_matrix(profile32, monkeypatch, N):
    # at small N as well, both forms take the secular path: no fill and no
    # dense solve
    m = assemble(profile32, N)
    mats = (m, _shifted(m))
    _refuse(monkeypatch, "eigvalsh")
    for A in mats:
        min_eigenvalue(A)
    assert all("entries" not in vars(A) for A in mats)


def _dense_value(m):
    """The dense step's value for a matrix from ``assemble``: eigh's
    smallest eigenvalue of its entries, filled on a copy."""
    return float(np.linalg.eigh(replace(m).entries)[0][0])


def test_failed_count_falls_through_to_eigh(profile32, monkeypatch):
    # a count that never proves the Weyl bound: one dense eigh answers,
    # with the entries' value, and no eigvalsh runs (the secular step's
    # own small eigh calls are on its sketch and its bordered matrices)
    m = assemble(profile32, 512)
    value = _dense_value(m)
    probe = coercivity._Secular.probe
    monkeypatch.setattr(coercivity._Secular, "probe", lambda self, sigma: (1, *probe(self, sigma)[1:]))
    _refuse(monkeypatch, "eigvalsh")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    assert min_eigenvalue(m) == value
    assert calls.count((512, 512)) == 1 and max(calls) == (512, 512)


def _applied(monkeypatch):
    """Patch _WindowGram.apply to record the row count of each call."""
    rows = []
    apply = coercivity._WindowGram.apply
    monkeypatch.setattr(coercivity._WindowGram, "apply", lambda self, X: rows.append(X.shape[0]) or apply(self, X))
    return rows


def test_range_finder_gives_up_before_any_product(monkeypatch):
    # at L = 8, N = 2048 the window predicts rank ceil(N W / n) + 8 = 138,
    # past _RANK_MAX: no product is formed, and the dense solve answers
    # with the entries' value
    m = assemble(build_profile(8.0), 2048)
    value = _dense_value(m)
    rows = _applied(monkeypatch)
    assert min_eigenvalue(m) == value
    assert rows == []


@pytest.mark.parametrize("L", [12.0, 128.0, 8192.0])
@pytest.mark.parametrize("N", [64, 2048])
def test_range_finder_starts_from_predicted_rank(monkeypatch, L, N):
    # one pass of ceil(N W / n) + 3 _OVERSAMPLE columns finds the rank, and
    # the pass takes one product: the model is solved from it, not from a
    # second product Q^T G_w Q
    profile = build_profile(L)
    k = math.ceil(N * profile.window.size / profile.n) + 3 * coercivity._OVERSAMPLE
    rows = _applied(monkeypatch)
    U, C = assemble(profile, N)._window.compressed
    assert rows == [k]
    assert C.size <= k - coercivity._OVERSAMPLE


def test_singular_sketch_doubles_the_columns(profile32, monkeypatch):
    # a k x k system (Omega Q) B^T = R^T that cannot be solved is treated
    # as an unconverged pass: the columns double, and the value stays
    value = min_eigenvalue(assemble(profile32, 512))
    m = assemble(profile32, 512)
    solve = np.linalg.solve
    calls = []

    def fail_once(a, b):
        calls.append(a.shape[0])
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_once)
    rows = _applied(monkeypatch)
    assert abs(min_eigenvalue(m) - value) <= 1e-9 * (1.0 + abs(value))
    k = rows[0]
    assert rows == [k, k, 1] and calls == [k, 2 * k]


@pytest.mark.parametrize("L", [12.0, 32.0, 128.0, 512.0, 8192.0])
@pytest.mark.parametrize("N", [64, 2048])
def test_one_product_model_matches_two_sided_projection(L, N):
    # the model U C U^T solved from Y = Omega G_w against Q^T G_w Q formed
    # from a second product with the same basis Q: on fixed inputs the
    # one-product error is within 10 times the two-product one
    window = assemble(build_profile(L), N)._window
    U, C = window.compressed
    k = math.ceil(N * window.share) + 3 * coercivity._OVERSAMPLE
    Q = np.linalg.qr(window.apply(coercivity._test_rows(0, k, N)).T)[0]
    B = window.apply(np.ascontiguousarray(Q.T)) @ Q
    theta, V = np.linalg.eigh(0.5 * (B + B.T))
    keep = np.abs(theta) > coercivity._RANK_TOL * max(np.abs(theta).max(), np.abs(window.moments).max() / (2.0 * L))
    U2, C2 = Q @ V[:, keep], theta[keep]
    X = coercivity._test_rows(1000, 1004, N)
    exact = window.apply(X)

    def error(U, C):
        return np.abs(exact - ((X @ U) * C) @ U.T).max() / np.abs(exact).max()

    assert error(U, C) <= 10.0 * error(U2, C2)


def test_shifted_variant_shares_compression(profile32):
    m = assemble(profile32, 512)
    s = _shifted(m)
    min_eigenvalue(m)
    assert s._window is m._window and "compressed" in vars(m._window)


def test_sampled_profile_takes_the_dense_step(make_flat_profile, profile32, monkeypatch):
    # a sampled copy of the constructed profile keeps every sample as a
    # window as long as the grid: its predicted rank is past the range
    # finder's column cap, so no product is formed and every level takes
    # the dense step, which certifies what the secular step does
    p = profile32
    phi_x = dense_phi_x(p)
    sampled = PotentialProfile.from_samples(32.0, phi_x)
    assert (sampled.j0, sampled.phi_x_off) == (0, 0.0)
    assert np.array_equal(sampled.window.view(np.int64), phi_x.view(np.int64))
    assert not np.shares_memory(sampled.window, phi_x)
    want = certify(p)
    rows = _applied(monkeypatch)
    got = certify(sampled)
    assert rows == [] and assemble(sampled, 128)._window.compressed is None
    assert got.N_sequence == want.N_sequence
    assert abs(got.lambda_min - want.lambda_min) <= 1e-9
    assert abs(got.delta_margin - want.delta_margin) <= 1e-9
    # the flat control phi_x = 0: lambda_min is min Delta
    flat = assemble(make_flat_profile(L=64.0, n=16384, slope=0.0), 512)
    assert abs(min_eigenvalue(flat) - flat.diagonal.min()) <= 1e-12


def test_rank_past_cap_takes_eigh(profile32, monkeypatch):
    m = assemble(profile32, 512)
    value = _dense_value(m)
    monkeypatch.setattr(coercivity, "_RANK_MAX", 8)
    assert m._window.compressed is None
    assert min_eigenvalue(m) == value


def test_dense_fallback_fails_fast_above_the_fill_limit(profile32, monkeypatch):
    # a forced give-up at N = 8192: the fallback would fill 8 N^2 = 512 MiB,
    # so min_eigenvalue raises, naming N, before it allocates the array
    monkeypatch.setattr(coercivity, "_RANK_MAX", 8)
    N = 8192
    tracemalloc.start()
    try:
        m = assemble(profile32, N)
        with pytest.raises(EigensolverError, match=f"N = {N}"):
            min_eigenvalue(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "entries" not in vars(m)
    assert peak < 8 * N**2 / 64
    monkeypatch.setattr(coercivity, "_FILL_MAX", 64)
    with pytest.raises(EigensolverError, match="N = 128"):
        min_eigenvalue(assemble(profile32, 128))


def test_inertia_count_matches_model_spectrum(profile32):
    # #{Delta_out < sigma} + #{B < 0} - #{C > 0} against eigvalsh of the
    # model, below, between and above its eigenvalues and with one
    # Delta < sigma, for the plain r-row secular matrix (no row of Delta
    # kept) and for the bordered one the secular step uses
    m = assemble(profile32, 512)
    U, C = m._window.compressed
    delta = m.diagonal
    model = (U * C) @ U.T + np.diag(delta)
    spectrum = np.linalg.eigvalsh(model)
    for inner in (np.zeros(512, bool), delta <= np.diagonal(model).min()):
        secular = coercivity._Secular(delta, U, C, inner)
        for sigma in (spectrum[0] - 1.0, spectrum[0] + 1e-6, 0.5 * (spectrum[2] + spectrum[3]), delta.min() + 1e-9):
            assert secular.probe(sigma)[0] == np.count_nonzero(spectrum < sigma)


def _probe_oracle(delta, U, C, inner, sigma):
    """The bordered secular probe with boolean-mask gathers and its
    diagonal assembled per call: the reference for ``_Secular.probe``."""
    W = U * np.sqrt(np.abs(C))
    d_in, d_out = delta[inner], delta[~inner]
    W_in, W_out = W[inner], W[~inner]
    signs = np.sign(C)
    positive = np.count_nonzero(C > 0)
    E = d_out - sigma
    if not E.all():
        return None
    Y = W_out / E[:, None]
    j = d_in.size
    B = np.zeros((j + signs.size,) * 2)
    B[:j, j:] = W_in
    B[j:, :j] = W_in.T
    B[j:, j:] = -(W_out.T @ Y)
    B[np.diag_indices_from(B)] -= np.concatenate((sigma - d_in, signs))
    beta, V = np.linalg.eigh(B)
    n = np.count_nonzero(E < 0) + np.count_nonzero(beta < 0) - positive
    v = V[:, positive]
    x = np.empty(inner.size)
    x[inner] = v[:j]
    x[~inner] = -(Y @ v[j:])
    return n, beta[positive], x


@pytest.mark.parametrize("order", list(OperatorOrder))
def test_probe_matches_oracle_bit_for_bit(profile32, order):
    # the precomputed border and base diagonal give the same (n, h, x) as
    # the per-probe assembly, bit for bit, below, inside and above the
    # bracket and with entries of Delta below sigma
    m = assemble(profile32, 512) if order is OperatorOrder.FOURTH else _second_order(profile32, 512)[0]
    U, C = m._window.compressed
    delta = m.diagonal
    hi = float(np.min(delta + (U * U) @ C))
    inner = delta <= hi
    secular = coercivity._Secular(delta, U, C, inner)
    lam = min_eigenvalue(m)
    for sigma in (delta.min() - 10.0, lam - 1e-3, lam, lam + 1e-9, hi, hi + 1.0, np.sort(delta)[3] + 0.5):
        n, h, x = secular.probe(sigma)
        n_ref, h_ref, x_ref = _probe_oracle(delta, U, C, inner, sigma)
        assert n == n_ref and h == h_ref and np.array_equal(x, x_ref)
    pole = delta[~inner][0]
    assert secular.probe(pole) is None and _probe_oracle(delta, U, C, inner, pole) is None


def test_structured_path_allocates_no_dense_matrix():
    profile = build_profile(128.0)
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
    # a profile with a non-finite window sample or constant phi_x_off, and
    # a matrix with a non-finite diagonal entry
    if where == "window":
        window = profile32.window.copy()
        window[window.size // 3] = bad
        m = assemble(replace(profile32, window=window), 512)
    elif where == "phi_x_off":
        m = assemble(replace(profile32, phi_x_off=bad), 512)
    else:
        m = assemble(profile32, 512)
        m = replace(m, diagonal=np.where(np.arange(512) == 7, bad, m.diagonal))
    _refuse(monkeypatch, "_Secular", "eigvalsh")
    with pytest.raises(EigensolverError):
        min_eigenvalue(m)


def test_certify_constructed_profile(profile32):
    report = certify(profile32)
    assert report.converged
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


def test_certify_flat_profile(make_flat_profile):
    report = certify(make_flat_profile(L=64.0, n=16384, slope=3.0))
    # minimum of the discrete symbol sits near kappa = 1/sqrt(2)
    assert abs(report.lambda_min - (3.0 - 0.25)) < 1e-3


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


def test_certify_inconclusive_at_cap(profile32, monkeypatch):
    # at L = 32 the pair (64, 128) has gaps rho - lambda of 2.5e-6 and
    # 1.3e-6: past a tolerance of 1e-9 (1 + |lambda|), with the ladder
    # stopped at 128, the last lambda and margin are reported
    monkeypatch.setattr(coercivity, "_N_MAX", 128)
    monkeypatch.setattr(coercivity, "_RTOL", 1e-9)
    with pytest.raises(CertificationInconclusiveError, match="mode cap 128 \\(last lambda_min 69.97"):
        certify(profile32)


def test_certify_closes_at_a_level_whose_double_is_past_the_grid():
    # n = 1024 points resolve moment 2N up to N = 256, the last level the
    # ladder can solve. The potential's mode 100 couples the lowest modes
    # to mode 102, first held at N = 128, so the ladder closes at
    # (128, 256); its value is the dense step's, from the same eigh that
    # min_eigenvalue runs
    L, n = 8.0, 1024
    x = -L + (2.0 * L / n) * np.arange(n)
    p = PotentialProfile.from_samples(L, 3.0 + 1000.0 * np.cos(100.0 * np.pi * x / L))
    report = certify(p)
    assert report.converged and report.N_sequence == (64, 128, 256)
    assert report.lambda_min == min_eigenvalue(assemble(p, 256))
    with pytest.raises(UnderResolvedGridError):
        assemble(p, 512)


@pytest.mark.parametrize(
    "L, levels", [(32.0, (64, 128)), (64.0, (64, 128)), (128.0, (64, 128)), (256.0, (128, 256)), (512.0, (256, 512))]
)
def test_certify_lends_the_upper_compression(monkeypatch, L, levels):
    # the ladder starts at max(64, 2^ceil(log2(L/2))) and solves its second
    # level only: that level's compression serves the first as well, whose
    # bound is the second level's eigenvectors cut to their first half. One
    # range-finder pass, of level 2N, two secular solves (the form and its
    # shifted copy) and one closing product of four rows: the two vectors
    # and their two cuts
    profile = build_profile(L)
    rows = _applied(monkeypatch)
    solved = []
    vector = coercivity._secular_vector
    monkeypatch.setattr(coercivity, "_secular_vector", lambda m: solved.append(m.N) or vector(m))
    assert certify(profile).N_sequence == levels
    assert len(rows) == 2 and rows[1:] == [4]
    assert solved == [levels[1]] * 2


@pytest.mark.parametrize("L", [32.0, 64.0, 128.0, 256.0, 512.0, 8192.0])
def test_cut_bounds_the_lower_level(L):
    # the lower level of the accepted pair (N / 2, N), solved on its own,
    # lies between lambda_N and rho, the Rayleigh quotient of level N's
    # eigenvector cut to N / 2 modes, for both forms; and the two-level
    # rule the cut replaced (both levels solved, agreeing to _RTOL) accepts
    # the same pair and no earlier one
    profile = build_profile(L)
    report = certify(profile)
    seq = report.N_sequence
    top = assemble(profile, seq[-1])
    bounds = coercivity._minima((top, _shifted(top)), seq[-1] // 2)
    assert [lam for lam, _ in bounds] == [report.lambda_min, report.delta_margin]
    assert report.pair_gaps == tuple(rho - lam for lam, rho in bounds)
    levels = []
    for N in seq:
        m = assemble(profile, N)
        levels.append([min_eigenvalue(A) for A in (m, _shifted(m))])
    for (lam, rho), low in zip(bounds, levels[-2]):
        assert lam - 1e-12 * (1.0 + abs(lam)) <= low <= rho
    agree = [
        all(abs(b - a) < coercivity._RTOL * (1.0 + abs(b)) for a, b in zip(lower, upper))
        for lower, upper in zip(levels, levels[1:])
    ]
    assert agree == [False] * (len(agree) - 1) + [True]


def test_certify_moves_past_a_cut_of_norm_zero(make_flat_profile, monkeypatch):
    # a diagonal whose minimum is near mode 100 for the form and at mode 100
    # for its shifted variant: level 128's eigenvectors are unit vectors
    # past mode 64, so their cuts to 64 modes are zero, which fails the
    # check without a division, and level 256 closes the pair (128, 256)
    def kinetic(L, N):
        k = np.arange(1.0, N + 1)
        return (k - 100.0) ** 2 + 1.0 + 0.25 * ((np.pi / L) * k) ** 4 + 0.25

    monkeypatch.setattr(coercivity, "_kinetic_diagonal", kinetic)
    profile = make_flat_profile(L=64.0, n=16384, slope=0.0)
    m = assemble(profile, 128)
    assert np.argmin(m.diagonal) >= 64
    assert coercivity._minima((m, _shifted(m)), 64) == [(m.diagonal.min(), math.inf), (1.0, math.inf)]
    report = certify(profile)
    assert report.N_sequence == (64, 128, 256)
    assert report.delta_margin == 1.0 and report.pair_gaps == (0.0, 0.0)


def test_certify_level_with_one_form_past_the_secular_step(profile32, monkeypatch):
    # a form the secular step gives up on takes the dense step on its own
    # and reads its cut's quotient from its entries; the other keeps its
    # secular value and closes with a two-row product, its vector and its
    # cut
    report = certify(profile32)
    vector = coercivity._secular_vector
    forms = []

    def give_up_on_shifted(m):
        # each level asks for A's vector, then for its shifted copy's
        forms.append(m)
        return vector(m) if len(forms) % 2 else None

    monkeypatch.setattr(coercivity, "_secular_vector", give_up_on_shifted)
    rows = _applied(monkeypatch)
    again = certify(profile32)
    assert again.N_sequence == report.N_sequence and again.lambda_min == report.lambda_min
    assert abs(again.delta_margin - report.delta_margin) <= 1e-9 * report.delta_margin
    assert rows[1:] == [2] and len(forms) == 2 and all("entries" in vars(m) for m in forms[1::2])


def test_certify_reaches_the_minimizing_mode_at_large_L():
    # the form's minimizing mode sits near m = 0.26 L: two levels with
    # N < L / 4 miss it and agree on phi_x's constant part less 1/4, margin
    # 69.9729 at L = 65536. The references are single solves at N = 32768,
    # the first level that holds the mode
    assert certify(build_profile(8192.0)).certified
    report = certify(build_profile(65536.0))
    assert report.certified and report.N_sequence == (32768, 65536)
    assert abs(report.delta_margin - 69.63958732298403) <= 1e-6
    assert abs(report.lambda_min - 69.9729206563173) <= 1e-6


def test_rayleigh_ritz_monotone_in_mode_count(profile32):
    lams = [min_eigenvalue(assemble(profile32, N)) for N in (64, 128, 256, 512)]
    for a, b in zip(lams, lams[1:]):
        assert b <= a + 1e-12


def test_brute_force_rayleigh_consistency():
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
    profile = PotentialProfile.from_samples(L, phi_x)
    m = assemble(profile, 8)
    A = m.entries
    lam = min_eigenvalue(m)
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


def test_hardy_preconditions():
    with pytest.raises(ValueError):
        hardy_check(lambda y: np.cos(y))  # u(0) != 0


def test_reduced_form_constant_v():
    # v = 1 turns the form into the integral of Qtilde itself, which the
    # mollifier's symmetry gives in closed form: -4 I2
    for params in (PiecewiseParams(), PiecewiseParams(a=0.8, q0=1.0, q1=3.0)):
        sp = smooth(params)
        val = reduced_form_check(sp, 1.0)
        assert abs(val + 4.0 * sp._norm_integrals[3]) <= 1e-15 * val
        assert val > 0.0


def test_reduced_form_nonnegative_on_random_v(default_sp):
    rng = np.random.default_rng(41)
    worst = np.inf
    for _ in range(100):
        width = float(rng.uniform(0.05, 1.0))
        center = float(rng.uniform(-1.0, 1.0))
        amp = float(rng.uniform(0.2, 3.0))
        tilt = rng.normal(scale=0.1)

        def v(y, width=width, center=center, amp=amp, tilt=tilt):
            return amp * np.exp(-((y - center) ** 2) / (2.0 * width**2)) + tilt * np.cos(np.pi * y)

        worst = min(worst, reduced_form_check(default_sp, v))
    assert worst >= -1e-10


def test_reduced_form_rejects_bad_grids(default_sp):
    # v is a callable or a constant: an array, even one as long as the
    # grid, is refused, and so is a callable whose samples miss the grid
    for samples in (np.ones(7), np.ones((1 << 14) + 1)):
        with pytest.raises(ValueError, match="array"):
            reduced_form_check(default_sp, samples)
    with pytest.raises(ValueError, match="match the grid"):
        reduced_form_check(default_sp, lambda y: np.ones(7))
