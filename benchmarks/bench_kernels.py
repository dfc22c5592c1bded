"""Benchmark the direct-sum oracles, the FFT pipeline and the ground-truth
solvers.

Times the direct-summation kernels (truncated convolution from
``tests/oracles.py``, commutator sign/tanh split) with the FFT product
oracle shown for scale, then one transform batch of the op table
(``_OpTable.phys_stack`` with 3 rows, ``prods`` with 2 rows) next to the
same ``numpy.fft`` call, one cold and one warm sweep (``models._sweep``,
wnl1, N = 64 and 256) and ``diagnostics.check_operator_bounds`` at 500
samples, N = 64, then one right-hand-side evaluation
(``integrate._rhs_raw``: forcing plus fixed-point solve) per model, and
one RK4 ``integrate.step`` (wnl1 at criterion 2's dt) next to the same
step with every stage started cold,
all at N = 64 and 256, the sweeps per RK4 stage of wnl1 at N = 256 and of
``configs/verify.cfg``'s trajectory, then the strip solve
(``strip.solve_strip``: stencil build plus preconditioned CG) next to the
sparse LU of the oracle's CSR matrix (``tests/oracles.py``), with the
stencil build (``strip.assemble_system``) alone and the ``tracemalloc``
peaks of the build and of the solve, and the
set-up and one application of its preconditioner
(``strip.flat_preconditioner``: DCT in z, rfft in x), the bytes
per record of a run's ``diagnostics.RecordTable`` and the ``tracemalloc``
peak of a ``wnl1_n256``-sized run (criterion 2 at t_end = 1, every step
recorded), the time per record of ``diagnostics.make_record`` at N = 64
and 256, and last
the wall time, peak RSS and loaded scipy modules of ``import muskat.cli``
in a fresh interpreter, the fixed cost every CLI call and sweep worker
pays.
Run it from any directory; it imports the package and the test oracles of
its own tree:

    python benchmarks/bench_kernels.py
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np

# this tree's package and test oracles, ahead of any installed copy (the
# imports below follow this on purpose)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import muskat
from muskat import _kernels, integrate, strip
from muskat.config import SolverConfig, load_config, make_initial_condition
from muskat.diagnostics import (RecordTable, check_operator_bounds,
                                make_record)
from muskat.integrate import IntegratorState, _rhs_raw, step
from muskat.models import _sweep, _table, linear_decay_rate
from muskat.params import ModelParams
from muskat.spectral import SpectralField, tanh_clamped
from oracles import (
    convolve_truncated,
    full_spectrum,
    lu_strip_solve,
    pointwise_product,
)


def _timeit(fn, *args, repeat=20):
    fn(*args)  # warm-up
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
        pad = np.zeros((3, 2 * n + 1), complex)
        pad[:, : n + 1] = spec
        rows_phys = rng.standard_normal((2, 4 * n))
        hphys = rng.standard_normal(4 * n)
        cases = (
            ("phys_stack 3 rows", lambda: tab.phys_stack(pad),
             lambda: np.fft.irfft(spec, n=4 * n, axis=1)),
            ("prods 2 rows", lambda: tab.prods(hphys, rows_phys),
             lambda: np.fft.rfft(rows_phys * hphys, axis=1)[:, : n + 1]),
        )
        for name, ours, ref in cases:
            times = [(_timeit(ours, repeat=2000), _timeit(ref, repeat=2000))
                     for _ in range(rounds)]
            t_ours, t_ref = np.median(times, axis=0)
            print(f"{n:>6} {name:<18} {t_ours * 1e6:>14.1f} {t_ref * 1e6:>15.1f}")


def sweep_layer_rows(rng, rounds=9):
    """The layers the traced benchmark cannot split: one sweep of wnl1
    (``models._sweep``) cold, transforming h with its batch (3 + 2 rows),
    and warm, from a known physical h (2 + 2 rows), median over rounds of
    2000 calls, and ``check_operator_bounds`` at 500 samples, N = 64,
    median of 9 calls."""
    print(f"\n{'N':>6} {'sweep':<6} {'median [us]':>12}")
    p = _rhs_params("wnl1")
    for n in (64, 256):
        tab = _table(n, p)
        c = 1e-3 * _random_field(n, rng)
        psi = tab.w * c
        _, hphys = _sweep(tab, c, None, psi)
        for name, args in (("cold", (c, None)), ("warm", (None, hphys))):
            times = [_timeit(_sweep, tab, *args, psi, repeat=2000)
                     for _ in range(rounds)]
            print(f"{n:>6} {name:<6} {np.median(times) * 1e6:>12.2f}")
    t, rep = _median_time(check_operator_bounds, 500, p, 2024, 64, rounds=9)
    print(f"check_operator_bounds(500, N=64): {t * 1e3:.1f} ms "
          f"(passed={rep.passed})")


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
            _, iters, _ = _rhs_raw(tab, c, 3e-7, 200)
            print(f"{n:>6} {model:<12} {np.median(times) * 1e6:>12.1f} "
                  f"{iters:>6}")


def _cold_step(tab, c, dt, tol):
    """One RK4 step whose four stages all start cold, at T(0)."""
    k1, _, tol = _rhs_raw(tab, c, tol, 200)
    k2, _, _ = _rhs_raw(tab, c + 0.5 * dt * k1, tol, 200)
    k3, _, _ = _rhs_raw(tab, c + 0.5 * dt * k2, tol, 200)
    k4, _, _ = _rhs_raw(tab, c + dt * k3, tol, 200)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rows(rng, rounds=9):
    """Median over rounds of the mean time of one accepted RK4 step, as
    ``integrate.step`` takes it (stages 2-4 warm) and with every stage
    cold.

    wnl1 as in acceptance criterion 2: dt = 2.7/m(N), tol = 3e-7, an
    initial datum of |k|^-2 magnitudes at amplitude 1e-3.
    """
    print(f"\n{'N':>6} {'rk4 step':<12} {'warm [us]':>10} {'cold [us]':>10} "
          f"{'iters':>6}")
    p = _rhs_params("wnl1")
    for n in (64, 256):
        h = SpectralField(1e-3 * _random_field(n, rng))
        dt = 2.7 / float(linear_decay_rate(n, p))
        state = IntegratorState(h, dt)
        tab = _table(n, p)
        times = [(_timeit(step, state, p, 3e-7, 200, repeat=100),
                  _timeit(_cold_step, tab, h.coeffs, dt, 3e-7, repeat=100))
                 for _ in range(rounds)]
        t_warm, t_cold = np.median(times, axis=0)
        _, _, iters = step(state, p, 3e-7, 200)
        print(f"{n:>6} {'wnl1':<12} {t_warm * 1e6:>10.1f} {t_cold * 1e6:>10.1f} "
              f"{iters:>6}")


def _stage_sweeps(h0, p, cfg):
    """Sweeps per stage of the run's RK4 steps: stage 1 (cold, T(0) and
    its iterations) and stages 2-4 (warm, one sweep per iteration)."""
    iters = []
    orig = integrate._solve_raw

    def counted(*args):
        out = orig(*args)
        iters.append(out[1])
        return out

    integrate._solve_raw = counted  # the stage solves; not the closing one
    try:
        integrate.run(h0, p, cfg)
    finally:
        integrate._solve_raw = orig
    per_step = np.array(iters).reshape(-1, 4)  # no step was rejected
    return 1.0 + per_step[:, 0].mean(), per_step[:, 1:].mean()


def sweep_rows():
    """Sweeps per RK4 stage: wnl1 at N = 256 with criterion 2's dt and
    tol from cos x at amplitude 1e-3 (first 500 steps), and the trajectory
    of ``configs/verify.cfg``."""
    print(f"\n{'run':<28} {'stage 1':>8} {'stages 2-4':>11}")
    p = _rhs_params("wnl1")
    n = 256
    dt = 2.7 / float(linear_decay_rate(n, p))
    h0 = SpectralField.cosine(1, 1e-3, n)
    cfg = SolverConfig(lam=1.0, theta=1.0, sigma=0.1, n_modes=n, dt=dt,
                       t_end=500 * dt, output_cadence=1000, tol=3e-7)
    rows = [("wnl1 N=256, criterion 2 dt", h0, p, cfg)]
    path = os.path.join(ROOT, "configs", "verify.cfg")
    vcfg, vp = load_config(path)
    vcfg.output_dir = ""
    rows.append(("configs/verify.cfg", make_initial_condition(vcfg), vp, vcfg))
    for name, h, params, c in rows:
        first, later = _stage_sweeps(h, params, c)
        print(f"{name:<28} {first:>8.2f} {later:>11.2f}")


# The peak RSS is the process's own VmHWM: ru_maxrss would carry over the
# high-water mark of the (larger) benchmark process that spawned it.
_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import muskat.cli
wall = time.perf_counter() - t0
import json, sys
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
print(json.dumps({"wall_s": wall, "n_modules": len(sys.modules),
                  "peak_rss_mb": hwm / 1024.0,
                  "scipy_modules": sum(m.split(".")[0] == "scipy"
                                       for m in sys.modules)}))
"""


def import_row(rounds=5):
    """``import muskat.cli`` in fresh interpreters: median wall time, peak
    RSS, module count and how many of the modules are scipy's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(muskat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
        capture_output=True, text=True).stdout) for _ in range(rounds)]
    wall = np.median([r["wall_s"] for r in runs])
    rss = np.median([r["peak_rss_mb"] for r in runs])
    print(f"\nimport muskat.cli (fresh process, median of {rounds}): "
          f"{wall:.3f} s, peak RSS {rss:.1f} MB, "
          f"{runs[0]['n_modules']} modules, "
          f"{runs[0]['scipy_modules']} of them scipy's")


def _median_time(fn, *args, rounds=3):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def _traced_peak_mib(fn, *args):
    """Peak of the memory ``tracemalloc`` sees allocated during fn(*args),
    in MiB (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def strip_rows():
    """solve_strip (stencil build + CG) against the oracle's CSR scatter +
    sparse LU, median of 3, with the stencil build (``assemble_system``,
    mean of 20) and the traced peaks of the build and of the solve.

    256x65 flat is the size of `muskat verify flux`; 512x256 at sigma =
    0.05 and 0.2 are two of the solves of `muskat verify dtn`.  Then the
    preconditioner's set-up and one application at both sizes, mean of 100.
    """
    print(f"\n{'grid':>8} {'sigma':>6} {'cg [s]':>9} {'iters':>6} "
          f"{'residual':>10} {'csr+lu [s]':>10} {'max |cg - lu|':>14} "
          f"{'asm [ms]':>9} {'asm peak [MiB]':>15} {'solve peak [MiB]':>17}")
    cases = ((256, 65, 0.0), (512, 256, 0.05), (512, 256, 0.2))
    for nx, nz, sigma in cases:
        grid = strip.StripGrid(nx, nz)
        p = ModelParams(theta=1.0, sigma=sigma, delta=1.0, epsilon=sigma)
        h = (SpectralField.cosine(1, 1.0, 64) if sigma
             else SpectralField.zeros(64))
        psi = SpectralField.cosine(2, 1.0, 64)
        t_cg, sol = _median_time(strip.solve_strip, h, psi, grid, p)
        t_lu, phi_lu = _median_time(lu_strip_solve, h, psi, grid, p)
        diff = np.abs(sol.phi[:, :-1] - phi_lu).max()
        t_asm = _timeit(strip.assemble_system, h, grid, p)
        asm_peak = _traced_peak_mib(strip.assemble_system, h, grid, p)
        solve_peak = _traced_peak_mib(strip.solve_strip, h, psi, grid, p)
        print(f"{nx:>4}x{nz:<3} {sigma:>6.2f} {t_cg:>9.3f} "
              f"{sol.iterations:>6} {sol.residual_norm:>10.2e} {t_lu:>10.3f} "
              f"{diff:>14.2e} {t_asm * 1e3:>9.2f} {asm_peak:>15.2f} "
              f"{solve_peak:>17.2f}")
    print(f"\n{'grid':>8} {'precond set-up [ms]':>20} {'apply [ms]':>11}")
    for nx, nz in ((256, 65), (512, 256)):
        grid = strip.StripGrid(nx, nz)
        r = np.random.default_rng(0).standard_normal(nx * (nz - 1))
        t_setup = _timeit(strip.flat_preconditioner, grid, 1.0, repeat=100)
        t_apply = _timeit(strip.flat_preconditioner(grid, 1.0), r, repeat=100)
        print(f"{nx:>4}x{nz:<3} {t_setup * 1e3:>20.3f} {t_apply * 1e3:>11.3f}")


def records_row():
    """The wnl1_n256 benchmark body's run (N = 256, dt = 2.7/m(N), t_end = 1,
    tol = 3e-7, a record every step) under tracemalloc: records kept, the
    bytes per record its RecordTable holds allocated, and the traced peak."""
    p = _rhs_params("wnl1")
    n = 256
    dt = 2.7 / float(linear_decay_rate(n, p))
    cfg = SolverConfig(lam=1.0, theta=1.0, sigma=0.1, n_modes=n, dt=dt,
                       t_end=1.0, output_cadence=1, tol=3e-7)
    h0 = SpectralField.cosine(1, 1e-3, n)
    integrate.run(h0, p, replace(cfg, t_end=10 * dt))  # tables and caches
    tracemalloc.start()
    try:
        records = integrate.run(h0, p, cfg).records
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(f"\nwnl1 N=256 run, t_end = 1: {len(records)} records, "
          f"{records.nbytes / len(records):.1f} B/record held, traced peak "
          f"{peak:.2f} MiB")


def make_record_rows(rng, rounds=9, repeat=2000):
    """Per-record time of ``diagnostics.make_record`` (wnl1: the A^0..A^5
    norms of h, its energy and the A^0 and A^3 norms of dh/dt), median over
    rounds of repeat records each appended to a new RecordTable."""
    p = _rhs_params("wnl1")
    print(f"\n{'N':>6} {'make_record [us]':>17}")
    for n in (64, 256):
        h, dth = (SpectralField(_random_field(n, rng)) for _ in range(2))
        times = [_timeit(make_record, RecordTable(), 0.0, h, dth, 1, p,
                         repeat=repeat) for _ in range(rounds)]
        print(f"{n:>6} {np.median(times) * 1e6:>17.2f}")


def main():
    rng = np.random.default_rng(0)
    header = f"{'N':>6} {'kernel':<12} {'numpy [ms]':>12}"
    print(header)
    print("-" * len(header))
    for n in (64, 128, 256, 512):
        a = full_spectrum(_random_field(n, rng))
        b = full_spectrum(_random_field(n, rng))
        tanha = tanh_clamped(np.arange(n + 1))
        rows = (
            ("convolution", _timeit(convolve_truncated, a, b)),
            ("sign_split", _timeit(_kernels.sign_split_direct, a, b, tanha)),
        )
        for name, t in rows:
            print(f"{n:>6} {name:<12} {t * 1e3:>12.3f}")
        # FFT product, for scale
        f = _random_field(n, rng)
        g = _random_field(n, rng)
        t_fft = _timeit(pointwise_product, f, g, repeat=200)
        print(f"{n:>6} {'fft product':<12} {t_fft * 1e3:>12.3f}")
    transform_rows(rng)
    sweep_layer_rows(rng)
    rhs_rows(rng)
    step_rows(rng)
    sweep_rows()
    strip_rows()
    records_row()
    make_record_rows(rng)
    import_row()


if __name__ == "__main__":
    main()
