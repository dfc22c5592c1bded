"""muskat benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs workload bodies one after another, each in a fresh worker process
(worker.py), as many as fit in S seconds but at least two, checks every
body's outputs, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
bodies, the body wall time scaled to the machine's reference speed).  With --trace 1 the run alternates untraced and traced bodies and
reports the per-layer metrics of the traced body with the median wall
time.  The line before the result records the environment.  Outputs go to
a temporary directory under the checkout that is removed afterwards.  The
workloads and their checks are in workloads.py, the spans in spans.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
TMP_ROOT = ROOT / ".perfbench_tmp"
REFERENCE = HERE / "reference.json"

# name -> (unit, better); what each value is is documented in README.md
END_TO_END = {
    "wall_ref_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

THREAD_ENV = {
    "MUSKAT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# Median calibration_s() of a body on the 2-CPU Xeon VM the benchmark was
# defined on; wall_ref_s is wall time at the speed that gives this value.
REFERENCE_CAL_S = 0.33
MIN_BODIES = 2  # two runs of one seed must write identical bytes
CHILD_TIMEOUT_S = 150
TOTAL_LIMIT_S = 165  # start no body that would likely end past this


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment():
    """What makes runs comparable: sources, CPUs and threads (the worker
    adds the Python, numpy and scipy versions and the kernel lane)."""
    commit = None  # an exported checkout is not a repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "muskat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
    }


def run_body(name, seed, out_dir, traced, small=False):
    """One body in a fresh process; returns the worker's result dict."""
    os.makedirs(out_dir)
    result = out_dir + ".json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--out", out_dir, "--result", result]
    cmd += ["--trace"] * traced + ["--small"] * small
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} body exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"{name} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result) as fh:
        return json.load(fh)


def _digest(out_dir, files):
    h = hashlib.sha256()
    for rel in files:
        path = os.path.join(out_dir, rel)
        h.update(rel.encode() + b"\0")
        if os.path.exists(path):
            h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace, tmp, small=False, reference=None):
    """Run bodies for ``seconds``; returns (bodies, problems).

    Each body is a worker result dict extended with ``traced``; problems
    lists every failed check, prefixed with the body index.
    """
    bodies, problems, digests, durations = [], [], set(), []
    start = time.perf_counter()
    while len(bodies) < MIN_BODIES or (
            # start no body that would likely end past `seconds`
            time.perf_counter() - start + statistics.median(durations) <= seconds
            and time.perf_counter() - start + max(durations) < TOTAL_LIMIT_S):
        t0 = time.perf_counter()
        traced = bool(trace) and len(bodies) % 2 == 1
        out_dir = os.path.join(tmp, f"body{len(bodies)}")
        res = run_body(name, seed, out_dir, traced, small)
        res["traced"] = traced
        found = workloads.check(name, out_dir, res, reference)
        if traced and not res["restored"]:
            found.append("a wrapped attribute was not restored")
        if "error" in res:
            found.append(res["error"])
        problems += [f"body {len(bodies)}: {p}" for p in found]
        digests.add(_digest(out_dir, workloads.fingerprint_files(name)))
        shutil.rmtree(out_dir)
        bodies.append(res)
        durations.append(time.perf_counter() - t0)
    if len(digests) > 1:
        problems.append("outputs differ between bodies of the same seed")
    return bodies, problems


def speed_factor(bodies):
    """How many times longer than at the reference speed the run's
    calibration loops took: the mean over all bodies of the run, since the
    machine's speed drifts over seconds to minutes."""
    return statistics.fmean(b["cal_s"] for b in bodies) / REFERENCE_CAL_S


def end_to_end_metrics(bodies, attempted, failed):
    wall_s = statistics.median(b["wall_s"] for b in bodies)
    return {
        "wall_ref_s": wall_s / speed_factor(bodies),
        "setup_s": statistics.median(b["setup_s"] for b in bodies),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in bodies),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer_metrics(bodies):
    import spans

    traced = sorted((b for b in bodies if b["traced"]), key=lambda b: b["wall_s"])
    body = traced[(len(traced) - 1) // 2]  # the median traced body
    untraced = statistics.median(b["wall_s"] for b in bodies if not b["traced"])
    return spans.layer_metrics(body["trace"], body["wall_s"], untraced,
                               body["bytes_written"])


def metric_units(trace):
    if trace:
        import spans

        return spans.units()
    return END_TO_END


def measure(name, seed, seconds, trace, small=False, reference=None):
    """Run one workload and build the result line's object."""
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            bodies, problems = run_workload(name, seed, seconds, trace, tmp,
                                            small, reference)
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(b["attempted"] for b in bodies)
    correct = not problems
    failed = sum(b["failed"] for b in bodies) if correct else attempted
    values = (per_layer_metrics(bodies) if trace
              else end_to_end_metrics(bodies, attempted, failed))
    units = metric_units(trace)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units},
    }
    env = dict(environment(), **bodies[0]["env"], workload=name, seed=seed,
               seconds=seconds, trace=int(trace), bodies=len(bodies),
               wall_s=statistics.median(b["wall_s"] for b in bodies),
               speed_factor=speed_factor(bodies))
    return result, problems, env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "muskat", workloads.VERIFY_CFG):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    try:
        result, problems, env = measure(args.workload, args.seed, args.seconds,
                                        args.trace, reference=reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"(median wall_s {env['wall_s']:.6g} s, speed factor "
          f"{env['speed_factor']:.4g})")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
