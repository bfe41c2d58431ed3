"""The numerical kernels: the smoothstep mollifier, the smoothed potential
evaluated pointwise (on the smoothing grid and the profile window), and the
N x N potential Gram matrix filled from cosine coefficients.

The pointwise kernels take any array shape and return a float for scalar
input.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _float_if_scalar(out):
    return float(out) if out.ndim == 0 else out


def mollifier(y):
    """Smoothstep f: 0 for y <= 0, 1 for y >= 1, strictly increasing and
    infinitely differentiable in between, f(1/2) = 1/2."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape, dtype=float)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    t = y[mid]
    ea = np.exp(-1.0 / t)
    eb = np.exp(-1.0 / (1.0 - t))
    out[mid] = ea / (ea + eb)
    return _float_if_scalar(out)


def Qtilde_values(y, a, q0, q1, delta):
    """Five-branch smoothed step potential, evenly extended; zero beyond a + delta."""
    y = np.abs(np.asarray(y, dtype=float))
    out = np.zeros(y.shape, dtype=float)
    b1 = y < delta
    b2 = (y >= delta) & (y < a / 2.0 - delta)
    b3 = (y >= a / 2.0 - delta) & (y < a / 2.0)
    b4 = (y >= a / 2.0) & (y <= a)
    b5 = (y > a) & (y < a + delta)
    out[b1] = -q0 * mollifier(y[b1] / delta)
    out[b2] = -q0
    out[b3] = -q0 + (q0 + q1) * mollifier((y[b3] - (a / 2.0 - delta)) / delta)
    out[b4] = q1
    out[b5] = q1 * mollifier((a + delta - y[b5]) / delta)
    return _float_if_scalar(out)


def qtilde_values(y, a, q0, q1, delta):
    """q-tilde = Q-tilde / y^2 elementwise, zero for |y| < 1e-8."""
    y = np.abs(np.asarray(y, dtype=float))
    out = np.divide(Qtilde_values(y, a, q0, q1, delta), y**2, out=np.zeros(y.shape), where=y >= 1e-8)
    return _float_if_scalar(out)


def gram_from_cosine(c, n):
    """G[j,k] = (c[|j-k|] - c[j+k]) / 2 for 1-based j,k = 1..n: Toeplitz minus
    Hankel, exactly symmetric.

    c must hold cosine coefficients for indices 0..2n. The caller applies the
    1/L normalization.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[0] < 2 * n + 1:
        raise ValueError("need cosine coefficients up to index 2n")
    # zero-copy views: row j of the reversed windows of c[n-1..1, 0..n-1] is
    # c[|j-k|], row j of the windows of c[2..2n] is c[j+k+2] (0-based j, k);
    # the difference is the one n x n array the fill allocates
    toeplitz = sliding_window_view(np.concatenate((c[n - 1 : 0 : -1], c[:n])), n)[::-1]
    hankel = sliding_window_view(c[2 : 2 * n + 1], n)
    G = toeplitz - hankel
    G *= 0.5
    return G
