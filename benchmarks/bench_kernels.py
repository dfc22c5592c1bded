"""Benchmark the numba lane against the pure-numpy fallback, and the
ground-truth solvers against their oracles.

Times the direct-summation kernels (truncated convolution, commutator
sign/tanh split) in both lanes, with the FFT product pipeline shown for
scale, then one transform batch of the op table (``_OpTable.phys_stack``
with 3 rows, ``prods`` with 2 rows) next to the same ``numpy.fft`` call, and
one right-hand-side evaluation (``integrate._rhs_raw``: forcing plus
fixed-point solve) per model, both at N = 64 and 256, then the strip solve
(``strip.solve_strip``, preconditioned CG) next to a sparse LU of the same
system, and ``diagnostics.check_operator_bounds`` at 500 samples, N = 64.
Run:

    python benchmarks/bench_kernels.py

Lane selection elsewhere in the package follows MUSKAT_NO_NUMBA; here both
implementations are timed side by side when numba is importable.
"""

import time

import numpy as np
import scipy.sparse.linalg as spla

from muskat import _kernels, strip
from muskat.diagnostics import check_operator_bounds
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


def transform_rows(rng, rounds=9):
    """Per-call time of one op-table batch and of the same numpy.fft call,
    median over rounds that time the two in turn; both give the same bits
    (see test_properties)."""
    print(f"\n{'N':>6} {'batch':<18} {'op table [us]':>14} {'numpy.fft [us]':>15}")
    p = ModelParams(lam=1.0, theta=1.0, sigma=0.1)
    for n in (64, 256):
        tab = _table(n, p)
        spec = np.stack([_random_field(n, rng) for _ in range(3)])
        rows_phys = rng.standard_normal((2, 4 * n))
        hphys = rng.standard_normal(4 * n)
        cases = (
            ("phys_stack 3 rows", lambda: tab.phys_stack(spec),
             lambda: np.fft.irfft(spec, n=4 * n, axis=1)),
            ("prods 2 rows", lambda: tab.prods(hphys, rows_phys),
             lambda: np.fft.rfft(rows_phys * hphys, axis=1)[:, : n + 1]),
        )
        for name, ours, ref in cases:
            times = [(_timeit(ours, repeat=2000), _timeit(ref, repeat=2000))
                     for _ in range(rounds)]
            t_ours, t_ref = np.median(times, axis=0)
            print(f"{n:>6} {name:<18} {t_ours * 1e6:>14.1f} {t_ref * 1e6:>15.1f}")


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


def _lu_strip_solve(h, psi, grid, params):
    """The oracle: assemble the same system and solve it by sparse LU."""
    nx, nz = grid.n_x, grid.n_z
    A = strip.assemble_system(h, grid, params)
    idx = np.arange(nx * nz).reshape(nx, nz)
    u_ids, d_ids = idx[:, :-1].ravel(), idx[:, -1]
    rhs = -(A[u_ids][:, d_ids] @ psi.values(nx))
    return spla.splu(A[u_ids][:, u_ids].tocsc()).solve(rhs)


def _median_time(fn, *args, rounds=3):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def strip_rows():
    """solve_strip (assembly + CG) against assembly + LU, median of 3.

    256x65 flat is the size of `muskat verify flux`; 512x256 at sigma =
    0.05 and 0.2 are two of the solves of `muskat verify dtn`.
    """
    print(f"\n{'grid':>8} {'sigma':>6} {'cg [s]':>9} {'iters':>6} "
          f"{'residual':>10} {'splu [s]':>9} {'max |cg - lu|':>14}")
    cases = ((256, 65, 0.0), (512, 256, 0.05), (512, 256, 0.2))
    for nx, nz, sigma in cases:
        grid = strip.StripGrid(nx, nz)
        p = ModelParams(theta=1.0, sigma=sigma, delta=1.0, epsilon=sigma)
        h = (SpectralField.cosine(1, 1.0, 64) if sigma
             else SpectralField.zeros(64))
        psi = SpectralField.cosine(2, 1.0, 64)
        t_cg, sol = _median_time(strip.solve_strip, h, psi, grid, p)
        t_lu, phi_lu = _median_time(_lu_strip_solve, h, psi, grid, p)
        diff = np.abs(sol.phi[:, :-1].ravel() - phi_lu).max()
        print(f"{nx:>4}x{nz:<3} {sigma:>6.2f} {t_cg:>9.3f} "
              f"{sol.iterations:>6} {sol.residual_norm:>10.2e} {t_lu:>9.3f} "
              f"{diff:>14.2e}")


def bounds_row():
    p = ModelParams(lam=1.0, theta=1.0, sigma=0.1)
    t, rep = _median_time(check_operator_bounds, 500, p, 2024, 64)
    print(f"\ncheck_operator_bounds(500, N=64): {t:.3f} s "
          f"(passed={rep.passed})")


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
    transform_rows(rng)
    rhs_rows(rng)
    strip_rows()
    bounds_row()


if __name__ == "__main__":
    main()
