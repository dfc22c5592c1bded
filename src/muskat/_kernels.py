"""Direct-summation test oracles, with a numba lane and a pure-numpy fallback.

The kernels here are the slow-but-transparent route for quadratic mode
interactions: they evaluate truncated convolutions and the sign/tanh
commutator split literally, term by term, in O(N^2).  No production path
calls them; they serve only as the independent oracle the tests hold the
FFT pipeline of :mod:`muskat.models` against (``check_operator_bounds``
uses ``models.commutator_sign_split``).  The module stays importable under
these names because the benchmark harness in ``perfbench/`` wraps
``sign_split_direct`` and reads ``KERNEL_LANE``, which every run also
records in its ``meta.json``.

Lane selection: the numba lane is used when numba imports successfully and
the environment variable ``MUSKAT_NO_NUMBA`` is unset/empty/"0".  Both lanes
compute the same sums; they may differ by roundoff (summation order).

All kernels work on full spectra ``f[m + N]`` for ``m in [-N, N]``.
Helpers convert from the half-spectrum storage used elsewhere.
"""

import os

import numpy as np

__all__ = [
    "KERNEL_LANE",
    "NUMBA_AVAILABLE",
    "convolve_truncated",
    "sign_split_direct",
    "full_spectrum",
    "half_spectrum",
]


def _env_disabled():
    return os.environ.get("MUSKAT_NO_NUMBA", "").strip() not in ("", "0")


NUMBA_AVAILABLE = False
if not _env_disabled():
    try:
        import numba

        NUMBA_AVAILABLE = True
    except ImportError:
        NUMBA_AVAILABLE = False

KERNEL_LANE = "numba" if NUMBA_AVAILABLE else "numpy"


def full_spectrum(half):
    """Half spectrum c[k], k=0..N (real field) -> full spectrum f[m+N], m=-N..N."""
    half = np.asarray(half, dtype=complex)
    neg = np.conj(half[1:][::-1])
    return np.concatenate([neg, half])


def half_spectrum(full):
    """Full spectrum f[m+N] -> half spectrum c[k], k=0..N."""
    n = (len(full) - 1) // 2
    return np.asarray(full[n:], dtype=complex).copy()


# ---------------------------------------------------------------------------
# pure-numpy lane
# ---------------------------------------------------------------------------

def _convolve_np(af, bf):
    # np.convolve gives modes -2N..2N at positions k+2N; keep |k| <= N
    n = (len(af) - 1) // 2
    out = np.convolve(af, bf)
    return out[n : 3 * n + 1]


def _sign_split_np(hf, vf, tanha):
    """I_A, I_B by the bracketed double sum, vectorized over (k, m).

    bracket A = sgn(k)sgn(k-m) - 1, bracket B = 1 - tanh|k| tanh|k-m|,
    weight |k||k-m|^3, summed against h(m) v(k-m).
    """
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


# ---------------------------------------------------------------------------
# numba lane
# ---------------------------------------------------------------------------

if NUMBA_AVAILABLE:

    @numba.njit(cache=True)
    def _convolve_nb(af, bf):
        n = (len(af) - 1) // 2
        out = np.zeros(2 * n + 1, np.complex128)
        for kk in range(-n, n + 1):
            s = 0.0 + 0.0j
            lo = max(-n, kk - n)
            hi = min(n, kk + n)
            for m in range(lo, hi + 1):
                s += af[m + n] * bf[kk - m + n]
            out[kk + n] = s
        return out

    @numba.njit(cache=True)
    def _sign_split_nb(hf, vf, tanha):
        n = (len(hf) - 1) // 2
        ia = np.zeros(2 * n + 1, np.complex128)
        ib = np.zeros(2 * n + 1, np.complex128)
        for kk in range(-n, n + 1):
            sa = 0.0 + 0.0j
            sb = 0.0 + 0.0j
            lo = max(-n, kk - n)
            hi = min(n, kk + n)
            for m in range(lo, hi + 1):
                j = kk - m
                w = abs(kk) * abs(j) ** 3
                if w == 0:
                    continue
                sk = 1.0 if kk > 0 else -1.0
                sj = 1.0 if j > 0 else -1.0
                hv = hf[m + n] * vf[j + n]
                sa += w * (sk * sj - 1.0) * hv
                sb += w * (1.0 - tanha[abs(kk)] * tanha[abs(j)]) * hv
            ia[kk + n] = sa
            ib[kk + n] = sb
        return ia, ib


def convolve_truncated(af, bf):
    """Truncated convolution sum_m a(m) b(k-m) for |k|,|m|,|k-m| <= N.

    Unnormalized: the sqrt(2*pi) product convention is applied by callers.
    """
    af = np.ascontiguousarray(af, dtype=complex)
    bf = np.ascontiguousarray(bf, dtype=complex)
    if NUMBA_AVAILABLE:
        return _convolve_nb(af, bf)
    return _convolve_np(af, bf)


def sign_split_direct(hf, vf, tanha):
    """Direct-sum evaluation of the commutator's sign part and tanh part.

    tanha[abs(k)] holds tanh(|k|) for the finite-depth symbol, or all ones
    for infinite depth.  Returns (I_A, I_B) as full spectra (unnormalized;
    callers apply the 1/sqrt(2*pi) product factor).
    """
    hf = np.ascontiguousarray(hf, dtype=complex)
    vf = np.ascontiguousarray(vf, dtype=complex)
    tanha = np.ascontiguousarray(tanha, dtype=float)
    if NUMBA_AVAILABLE:
        return _sign_split_nb(hf, vf, tanha)
    return _sign_split_np(hf, vf, tanha)
