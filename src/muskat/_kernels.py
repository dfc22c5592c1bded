"""Direct-summation test oracles.

The kernels here are the slow-but-transparent route for quadratic mode
interactions: they evaluate truncated convolutions and the sign/tanh
commutator split literally, term by term, in O(N^2).  No production path
calls them; they serve only as the independent oracle the tests hold the
FFT pipeline of :mod:`muskat.models` against (``check_operator_bounds``
uses ``models.commutator_sign_split``).  The module stays importable under
these names because the benchmark harness in ``perfbench/`` wraps
``sign_split_direct`` and reads ``KERNEL_LANE``, which every run also
records in its ``meta.json``.

All kernels work on full spectra ``f[m + N]`` for ``m in [-N, N]``.
Helpers convert from the half-spectrum storage used elsewhere.
"""

import numpy as np

__all__ = [
    "KERNEL_LANE",
    "convolve_truncated",
    "sign_split_direct",
    "full_spectrum",
    "half_spectrum",
]

KERNEL_LANE = "numpy"


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


def sign_split_direct(hf, vf, tanha):
    """Direct-sum evaluation of the commutator's sign part and tanh part.

    tanha[abs(k)] holds tanh(|k|) for the finite-depth symbol, or all ones
    for infinite depth.  Returns (I_A, I_B) as full spectra (unnormalized;
    callers apply the 1/sqrt(2*pi) product factor).  The double sum is
    vectorized over (k, m): bracket A = sgn(k)sgn(k-m) - 1, bracket
    B = 1 - tanh|k| tanh|k-m|, weight |k||k-m|^3, summed against
    h(m) v(k-m).
    """
    hf = np.ascontiguousarray(hf, dtype=complex)
    vf = np.ascontiguousarray(vf, dtype=complex)
    tanha = np.ascontiguousarray(tanha, dtype=float)
    n = (len(hf) - 1) // 2
    ks = np.arange(-n, n + 1)
    K = ks[:, None]
    M = ks[None, :]
    J = K - M
    valid = np.abs(J) <= n
    Jc = np.clip(J, -n, n)
    w = np.abs(K) * np.abs(Jc) ** 3
    sgn = np.sign(K) * np.sign(Jc)
    tt = tanha[np.abs(K)] * tanha[np.abs(Jc)]
    hv = hf[None, :] * np.where(valid, vf[Jc + n], 0.0)
    ia = ((sgn - 1.0) * w * hv).sum(axis=1)
    ib = ((1.0 - tt) * w * hv).sum(axis=1)
    return ia, ib
