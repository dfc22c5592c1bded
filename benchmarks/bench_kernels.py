"""Benchmark the numba lane against the pure-numpy fallback.

Times the direct-summation kernels (truncated convolution, commutator
sign/tanh split) in both lanes, with the FFT product pipeline shown for
scale, then one right-hand-side evaluation (``integrate._rhs_raw``: forcing
plus fixed-point solve) per model at N = 64 and 256.  Run:

    python benchmarks/bench_kernels.py

Lane selection elsewhere in the package follows MUSKAT_NO_NUMBA; here both
implementations are timed side by side when numba is importable.
"""

import time

import numpy as np

from muskat import _kernels
from muskat.integrate import _rhs_raw
from muskat.models import _table
from muskat.params import ModelParams
from muskat.spectral import SpectralField, pointwise_product, tanh_clamped


def _timeit(fn, *args, repeat=20):
    fn(*args)  # warm-up / JIT
    t0 = time.perf_counter()
    for _ in range(repeat):
        fn(*args)
    return (time.perf_counter() - t0) / repeat


def _random_field(n, rng):
    c = np.zeros(n + 1, complex)
    k = np.arange(1, n + 1, dtype=float)
    c[1:] = k**-2 * np.exp(2j * np.pi * rng.random(n))
    return c


def _rhs_params(model):
    if model == "lubrication":
        return ModelParams.lubrication(lam=1.0, theta=1.0, delta=0.5,
                                       epsilon=0.1)
    return ModelParams(lam=1.0, theta=1.0, sigma=0.1, model=model)


def rhs_rows(rng, rounds=9):
    """Median over rounds of the mean time of one RHS evaluation.

    tol = 3e-7 as in acceptance criterion 2; the initial datum has
    |k|^-2 magnitudes at amplitude 1e-3, inside the contraction regime.
    """
    print(f"\n{'N':>6} {'rhs model':<12} {'median [us]':>12} {'iters':>6}")
    for model in ("wnl1", "wnl2", "lubrication"):
        p = _rhs_params(model)
        for n in (64, 256):
            tab = _table(n, p)
            c = 1e-3 * _random_field(n, rng)
            times = [_timeit(_rhs_raw, tab, c, 3e-7, 200, repeat=200)
                     for _ in range(rounds)]
            _, iters = _rhs_raw(tab, c, 3e-7, 200)
            print(f"{n:>6} {model:<12} {np.median(times) * 1e6:>12.1f} "
                  f"{iters:>6}")


def main():
    rng = np.random.default_rng(0)
    print(f"numba available: {_kernels.NUMBA_AVAILABLE} "
          f"(active lane: {_kernels.KERNEL_LANE})")
    header = f"{'N':>6} {'kernel':<12} {'numpy [ms]':>12} {'numba [ms]':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for n in (64, 128, 256, 512):
        a = _kernels.full_spectrum(_random_field(n, rng))
        b = _kernels.full_spectrum(_random_field(n, rng))
        tanha = tanh_clamped(np.arange(n + 1))
        rows = []
        t_np = _timeit(_kernels._convolve_np, a, b)
        t_nb = (_timeit(_kernels._convolve_nb, a, b)
                if _kernels.NUMBA_AVAILABLE else float("nan"))
        rows.append(("convolution", t_np, t_nb))
        t_np = _timeit(_kernels._sign_split_np, a, b, tanha)
        t_nb = (_timeit(_kernels._sign_split_nb, a, b, tanha)
                if _kernels.NUMBA_AVAILABLE else float("nan"))
        rows.append(("sign_split", t_np, t_nb))
        for name, tn, tb in rows:
            speed = tn / tb if tb == tb and tb > 0 else float("nan")
            print(f"{n:>6} {name:<12} {tn * 1e3:>12.3f} {tb * 1e3:>12.3f} "
                  f"{speed:>8.1f}x")
        # FFT product pipeline, for scale
        f = SpectralField(_random_field(n, rng))
        g = SpectralField(_random_field(n, rng))
        t_fft = _timeit(pointwise_product, f, g, repeat=200)
        print(f"{n:>6} {'fft product':<12} {t_fft * 1e3:>12.3f} "
              f"{'(scipy.fft both lanes)':>22}")
    # consistency spot check between lanes
    if _kernels.NUMBA_AVAILABLE:
        a = _kernels.full_spectrum(_random_field(128, rng))
        b = _kernels.full_spectrum(_random_field(128, rng))
        tanha = tanh_clamped(np.arange(129))
        c1 = _kernels._convolve_np(a, b)
        c2 = _kernels._convolve_nb(a, b)
        s1 = _kernels._sign_split_np(a, b, tanha)
        s2 = _kernels._sign_split_nb(a, b, tanha)
        err = max(
            np.abs(c1 - c2).max(),
            np.abs(s1[0] - s2[0]).max(),
            np.abs(s1[1] - s2[1]).max(),
        )
        print(f"\nmax lane disagreement at N=128: {err:.3e}")
    rhs_rows(rng)


if __name__ == "__main__":
    main()
