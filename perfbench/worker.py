"""One workload body in a fresh process; the parent is run.py.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --result FILE [--trace] [--small]

Times the set-up (imports, config, initial data) from the first line of
this file and the body separately, times a fixed calibration loop right
before and right after the body, and writes them with the peak RSS, the
operation counts, the verdicts and, with --trace, the per-layer spans to
FILE as JSON.  Exits non-zero without writing FILE when the set-up fails,
for instance when the program's sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "src"))


def calibration_s():
    """Time a fixed loop of 1024-point FFTs and small array products.

    It runs no muskat code, so a change to the program leaves it alone; it
    shows how fast the machine runs this kind of work right now.  run.py
    scales the body's wall time by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    stack = rng.standard_normal((4, 257)) + 0j
    t0 = time.perf_counter()
    for _ in range(2500):
        phys = np.fft.irfft(stack * coeffs, n=1024, axis=1)
        prod = phys[0] * phys[1] + phys[2] * phys[3]
        sum(range(50))  # a little interpreter work, as in the program's steps
        float(np.abs(np.fft.rfft(prod)[:257]).max())
    return time.perf_counter() - t0


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy

    from muskat import _kernels

    body, nominal = workloads.prepare(args.workload, args.seed, args.out,
                                      args.small)
    setup_s = time.perf_counter() - T_START
    cal_s = calibration_s()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        res = body()
    except Exception as exc:  # a failed body is a measured outcome
        res = {"attempted": nominal, "failed": nominal, "verdicts": {},
               "error": f"{type(exc).__name__}: {exc}"}
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        res["trace"] = tracer.as_dict()
        res["restored"] = tracer.restored()
    cal_s += calibration_s()
    res.update(
        setup_s=setup_s,
        wall_s=wall_s,
        cal_s=cal_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        bytes_written=_bytes_under(args.out),
        env={"python": sys.version.split()[0], "numpy": numpy.__version__,
             "scipy": scipy.__version__, "kernel_lane": _kernels.KERNEL_LANE},
    )
    with open(args.result, "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
