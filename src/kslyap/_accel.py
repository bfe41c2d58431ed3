"""Hot numerical kernels with numba acceleration and a pure-numpy fallback.

Two kernels live here: evaluating the smoothed potential pointwise (on the
smoothing grid and the profile window), and filling the N x N potential Gram
matrix from cosine coefficients.
Set KSLYAP_NUMBA=0 to force the numpy path (numba is used by default when it
imports). Both paths compute identical formulas; tests assert agreement.
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAS_NUMBA = False

USE_NUMBA = HAS_NUMBA and os.environ.get("KSLYAP_NUMBA", "1").lower() not in (
    "0",
    "false",
    "off",
)


def mollifier(y):
    """Smoothstep f with f = 0 for y <= 0, 1 for y >= 1, C-infinity in between."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape, dtype=float)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    t = y[mid]
    ea = np.exp(-1.0 / t)
    eb = np.exp(-1.0 / (1.0 - t))
    out[mid] = ea / (ea + eb)
    return out


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
    return out


def _qtilde_numpy(y, a, q0, q1, delta):
    y = np.asarray(y, dtype=float)
    out = Qtilde_values(y, a, q0, q1, delta)
    ay = np.abs(y)
    safe = ay >= 1e-8
    out[~safe] = 0.0
    out[safe] /= ay[safe] ** 2
    return out


if HAS_NUMBA:

    @njit(cache=True)
    def _mollifier_jit(t):
        if t <= 0.0:
            return 0.0
        if t >= 1.0:
            return 1.0
        ea = np.exp(-1.0 / t)
        eb = np.exp(-1.0 / (1.0 - t))
        return ea / (ea + eb)

    @njit(cache=True)
    def _qtilde_kernel(y, a, q0, q1, delta):
        out = np.empty(y.shape[0], dtype=np.float64)
        for i in range(y.shape[0]):
            yi = abs(y[i])
            if yi >= a + delta:
                out[i] = 0.0
            elif yi < delta:
                if yi < 1e-8:
                    out[i] = 0.0
                else:
                    out[i] = -q0 * _mollifier_jit(yi / delta) / (yi * yi)
            else:
                if yi < a / 2.0 - delta:
                    q = -q0
                elif yi < a / 2.0:
                    q = -q0 + (q0 + q1) * _mollifier_jit(
                        (yi - (a / 2.0 - delta)) / delta
                    )
                elif yi <= a:
                    q = q1
                else:
                    q = q1 * _mollifier_jit((a + delta - yi) / delta)
                out[i] = q / (yi * yi)
        return out

    @njit(cache=True)
    def _gram_kernel(c, n):
        out = np.empty((n, n), dtype=np.float64)
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                v = 0.5 * (c[k - j] - c[j + k])
                out[j - 1, k - 1] = v
                out[k - 1, j - 1] = v
        return out


def _gram_numpy(c, n):
    idx = np.arange(1, n + 1)
    diff = np.abs(idx[:, None] - idx[None, :])
    tot = idx[:, None] + idx[None, :]
    return 0.5 * (c[diff] - c[tot])


def qtilde_values(y, a, q0, q1, delta, force_numpy=False):
    """Evaluate q-tilde = Q-tilde / y^2 elementwise (zero at the origin)."""
    y = np.ascontiguousarray(y, dtype=float)
    if USE_NUMBA and not force_numpy:
        return _qtilde_kernel(y.ravel(), a, q0, q1, delta).reshape(y.shape)
    return _qtilde_numpy(y, a, q0, q1, delta)


def gram_from_cosine(c, n, force_numpy=False):
    """Fill G[j,k] = (c[|j-k|] - c[j+k]) / 2 for 1-based j,k = 1..n.

    c must hold cosine coefficients for indices 0..2n. The caller applies the
    1/L normalization.
    """
    c = np.ascontiguousarray(c, dtype=float)
    if c.shape[0] < 2 * n + 1:
        raise ValueError("need cosine coefficients up to index 2n")
    if USE_NUMBA and not force_numpy:
        return _gram_kernel(c, n)
    return _gram_numpy(c, n)
