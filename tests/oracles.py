"""Reference routes the tests hold the program against, numpy only.

Each works on coefficient arrays and shares no code with ``muskat``:

* ``pointwise_product`` is the dealiased product of two half spectra on
  the 4N padded grid, through ``numpy.fft``;
* ``convolve_truncated`` is the same product as a literal truncated
  convolution of full spectra, with ``full_spectrum``/``half_spectrum``
  converting between the layouts.

Half spectra are ``c[k]``, k = 0..N, of a real field under the package's
symmetric convention; full spectra are ``f[m + N]``, m = -N..N.
"""

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def pointwise_product(a, b):
    """Half spectrum of the product of the fields with half spectra a, b.

    Both are sampled on the 4N grid, so the retained coefficients equal the
    exact truncated convolution; the mean mode is kept.
    """
    n = len(a) - 1
    m = 4 * n
    av = np.fft.irfft(a, n=m) * (m / SQRT_2PI)
    bv = np.fft.irfft(b, n=m) * (m / SQRT_2PI)
    return np.fft.rfft(av * bv)[: n + 1] * (SQRT_2PI / m)


def full_spectrum(half):
    """Half spectrum c[k], k=0..N (real field) -> full spectrum f[m+N], m=-N..N."""
    half = np.asarray(half, dtype=complex)
    neg = np.conj(half[1:][::-1])
    return np.concatenate([neg, half])


def half_spectrum(full):
    """Full spectrum f[m+N] -> half spectrum c[k], k=0..N."""
    n = (len(full) - 1) // 2
    return np.asarray(full[n:], dtype=complex).copy()


def convolve_truncated(af, bf):
    """Truncated convolution sum_m a(m) b(k-m) for |k|,|m|,|k-m| <= N.

    Unnormalized: the sqrt(2*pi) product convention is applied by callers.
    """
    af = np.ascontiguousarray(af, dtype=complex)
    bf = np.ascontiguousarray(bf, dtype=complex)
    # np.convolve gives modes -2N..2N at positions k+2N; keep |k| <= N
    n = (len(af) - 1) // 2
    return np.convolve(af, bf)[n : 3 * n + 1]
