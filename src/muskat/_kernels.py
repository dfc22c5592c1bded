"""Direct-summation test oracle of the commutator's sign/tanh split.

``sign_split_direct`` evaluates the split literally, term by term, in
O(N^2).  No production path calls it; it serves only as the independent
oracle the tests hold ``models.commutator_sign_split`` against (the other
direct sums live in ``tests/oracles.py``).  It stays in the package, with
``KERNEL_LANE``, because the benchmark harness in ``perfbench/`` wraps
``sign_split_direct`` and reads ``KERNEL_LANE`` under these names.

Spectra are full: ``f[m + N]`` for ``m in [-N, N]``.
"""

import numpy as np

__all__ = ["KERNEL_LANE", "sign_split_direct"]

KERNEL_LANE = "numpy"


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
