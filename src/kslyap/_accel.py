"""The numerical kernels: the smoothstep mollifier, the N x N potential Gram
matrix filled from cosine coefficients, and the seeded splitmix64 stream
that every random draw in the package comes from.

The mollifier takes any array shape and returns a float for scalar input.
"""

import operator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# splitmix64's state increment (the golden ratio times 2^64) and its mixers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix53(seed, start, stop):
    """Entries start..stop-1 of the splitmix64 stream ``seed``, each as its
    top 53 bits: integers k in [0, 2^53), exact in float64, so k 2^-53 is
    uniform on [0, 1). Entry i hashes the state seed + (i + 1) 0x9E3779B97F4A7C15
    (mod 2^64); seeds of 2^64 and above wrap.

    The arithmetic runs on uint64 arrays, which wrap silently under every
    numpy promotion rule (uint64 scalars warn on overflow)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    z = np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return ((z ^ (z >> 31)) >> 11).astype(float)


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
    # -1/t overflows to -inf for subnormal t, and exp(-inf) = 0 is the value
    with np.errstate(over="ignore"):
        ea = np.exp(-1.0 / t)
    eb = np.exp(-1.0 / (1.0 - t))
    out[mid] = ea / (ea + eb)
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
