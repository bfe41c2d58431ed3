"""The numpy kernels, and the smoothed potential's pointwise values, against
explicit reference formulas."""

import warnings

import numpy as np
import pytest
from scipy.linalg import hankel, toeplitz

from kslyap import _accel, coercivity
from kslyap.coercivity import assemble
from kslyap.potential import PiecewiseParams, SmoothedPotential, SmoothingParams


def test_mollifier_values():
    f = _accel.mollifier(np.array([-3.0, 0.0, 0.5, 1.0, 7.0]))
    assert f[0] == 0.0
    assert f[1] == 0.0
    assert f[2] == 0.5
    assert f[3] == 1.0
    assert f[4] == 1.0


def test_mollifier_monotone_symmetric():
    t = np.linspace(0.0, 1.0, 1001)
    f = _accel.mollifier(t)
    assert np.all(np.diff(f) >= 0.0)
    # symmetric ramp: f(t) + f(1 - t) = 1
    assert np.allclose(f + f[::-1], 1.0, atol=1e-12)


def test_mollifier_subnormal_arguments_do_not_warn(default_sp):
    # -1/t overflows to -inf for subnormal t, and exp(-inf) = 0 is the value
    tiny = np.nextafter(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _accel.mollifier(np.array([tiny, 1e-310, 2.0**-1022])).tolist() == [0.0, 0.0, 0.0]
        assert default_sp.Qtilde(tiny) == 0.0
        assert default_sp.qtilde(tiny) == 0.0  # tiny^2 underflows to 0


def test_qtilde_branch_values(default_sp):
    a, q0, q1, delta = 1.0, 0.5, 2.0, 1.0 / 64
    assert default_sp.smoothing.delta == delta
    # inside the flat branches Qtilde is exactly -q0 and q1
    flat, top = 0.3, 0.8
    v = default_sp.qtilde(np.array([flat, top, 0.0, a + delta, 2.0]))
    assert np.isclose(v[0], -q0 / flat**2, rtol=1e-14)
    assert np.isclose(v[1], q1 / top**2, rtol=1e-14)
    assert v[2] == 0.0
    assert v[3] == 0.0
    assert v[4] == 0.0


def test_qtilde_even_and_supported(default_sp):
    a, delta = 1.0, 1.0 / 64
    y = np.linspace(0.0, 1.2, 2001)
    qt_pos = default_sp.qtilde(y)
    qt_neg = default_sp.qtilde(-y)
    assert np.array_equal(qt_pos, qt_neg)
    assert np.all(qt_pos[y > a + delta] == 0.0)


def test_qtilde_is_Qtilde_over_y_squared():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = float(rng.uniform(0.4, 2.5))
        q0 = float(rng.uniform(0.05, 0.9)) / a**2
        q1 = float(rng.uniform(0.1, 4.0))
        delta = a / float(rng.uniform(8.0, 200.0))
        sp = SmoothedPotential(PiecewiseParams(a, q0, q1), SmoothingParams(delta=delta, mu=0.75))
        y = np.concatenate(
            [
                rng.uniform(-1.5 * (a + delta), 1.5 * (a + delta), size=400),
                [0.0, delta, a / 2.0, a, a + delta, -a, 1e-9, -1e-9, 1e-8, 1e-170, -5e-324],
            ]
        )
        qt = sp.qtilde(y)
        Qt = sp.Qtilde(y)
        safe = y * y > 0.0  # the origin, and where y^2 underflows, give 0
        assert np.array_equal(qt[safe], Qt[safe] / y[safe] ** 2)
        assert np.all(qt[~safe] == 0.0) and np.all(Qt[~safe] == 0.0)


def test_gram_matches_double_loop():
    rng = np.random.default_rng(3)
    for n in (4, 16, 64):
        c = rng.standard_normal(2 * n + 1)
        G = _accel.gram_from_cosine(c, n)
        ref = np.empty((n, n))
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                ref[j - 1, k - 1] = (c[abs(j - k)] - c[j + k]) / 2
        assert np.array_equal(G, ref)
        assert np.array_equal(G, G.T)


def test_gram_matches_scipy_toeplitz_minus_hankel(profile32):
    # the sliding-window fill gives the same bits as the dense scipy
    # construction, in one C-ordered array
    c = profile32._window_moments(2 * 512 + 1)
    for n in (1, 2, 7, 64, 512):
        G = _accel.gram_from_cosine(c, n)
        ref = 0.5 * (toeplitz(c[:n]) - hankel(c[2 : n + 2], c[n + 1 : 2 * n + 1]))
        assert np.array_equal(G, ref)
        assert G.flags.c_contiguous and G.flags.owndata


@pytest.mark.parametrize("N", [64, 512, 2048])
def test_assembled_matrix_exactly_symmetric(profile32, N):
    A = assemble(profile32, N).entries
    assert np.array_equal(A, A.T)


def test_scalar_in_float_out_and_shapes_kept(default_sp):
    y2 = np.array([[0.0, 0.3], [0.8, 1.2]])
    for f in (_accel.mollifier, default_sp.Qtilde, default_sp.qtilde):
        assert isinstance(f(0.5), float)
        out = f(y2)
        assert out.shape == (2, 2)
        assert np.array_equal(out.ravel(), f(y2.ravel()))
        assert np.array_equal(out[1], [f(0.8), f(1.2)])


def test_gram_needs_enough_coefficients():
    with pytest.raises(ValueError):
        _accel.gram_from_cosine(np.zeros(8), 8)


def _frozen_test_rows(start, stop, n):
    # the range finder's test rows as first written, before the hash moved
    # into the seeded stream
    z = np.arange(start * n + 1, stop * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> 31)) >> 11).astype(float).reshape(stop - start, n) * 2.0**-52 - 1.0


@pytest.mark.parametrize("start, stop, n", [(0, 1, 64), (0, 40, 512), (12, 76, 2048), (1000, 1004, 77)])
def test_stream_zero_is_the_frozen_test_rows(start, stop, n):
    rows = _accel.splitmix53(0, start * n, stop * n).reshape(stop - start, n) * 2.0**-52 - 1.0
    assert np.array_equal(rows, _frozen_test_rows(start, stop, n))
    assert np.array_equal(coercivity._test_rows(start, stop, n), rows)


def test_stream_values_and_seeds():
    k = _accel.splitmix53(5, 0, 10000)
    assert k.dtype == np.float64
    assert np.all(k == np.floor(k)) and k.min() >= 0.0 and k.max() < 2.0**53
    assert abs(k.mean() * 2.0**-53 - 0.5) < 0.01
    # stream s is stream 0 shifted in state by s: entry i of stream
    # 0x9E3779B97F4A7C15 is entry i + 1 of stream 0
    assert np.array_equal(_accel.splitmix53(0x9E3779B97F4A7C15, 0, 50), _accel.splitmix53(0, 1, 51))
    assert np.array_equal(_accel.splitmix53(5, 3, 9), k[3:9])
    with pytest.raises(ValueError, match="nonnegative"):
        _accel.splitmix53(-1, 0, 4)
    with pytest.raises(TypeError):
        _accel.splitmix53(1.5, 0, 4)
