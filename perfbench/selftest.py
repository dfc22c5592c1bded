"""Small-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on shrunken workloads (about half a minute in all):

1. every workload prints, untraced and traced, exactly the metric names,
   units and directions listed in BENCHMARK.json, and the traced layer self
   times plus trace.unattributed_s add up to trace.wall_s;
2. the correctness check rejects a non-monotone energy series and a
   perturbed final state, and accepts the unmodified output;
3. after a traced body every wrapped attribute is the original object.

Exits 0 when all pass, 1 otherwise.
"""

import json
import math
import os
import shutil
import sys
import tempfile

import run
import spans
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"


def check_metric_names(spec):
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.NAMES):
        problems.append(f"workloads {names} != {list(workloads.NAMES)}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        units = run.metric_units(trace)
        if {k: tuple(v) for k, v in units.items()} != listed:
            problems.append(f"{key} in BENCHMARK.json differs from the code")
        for name in workloads.NAMES:
            result, _, _ = run.measure(name, 1, 0, trace, small=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != {k: u for k, (u, _) in listed.items()}:
                problems.append(f"{name} trace={trace}: printed {sorted(got)}")
            if trace:
                problems += _check_layer_sum(name, result["metrics"])
    return problems


def _check_layer_sum(name, metrics):
    self_s = [m["value"] for k, m in metrics.items()
              if k.endswith("self_s") or k == "diagnostics.bounds.direct_sum_s"]
    total = sum(self_s) + metrics["trace.unattributed_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    if len(self_s) != len(spans.LAYERS) or not math.isclose(total, wall,
                                                             rel_tol=1e-9):
        return [f"{name}: layer self times + unattributed = {total}, "
                f"wall = {wall}"]
    return []


def _edit_energy_csv(out_dir, row, column, factor):
    path = os.path.join(out_dir, "energy.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def check_rejections(tmp):
    name = "wnl1_n256"
    good = os.path.join(tmp, "good")
    res = run.run_body(name, 1, good, traced=False, small=True)
    final = workloads.read_energy_rows(os.path.join(good, "energy.csv"))[-1]
    reference = {"final_a0": final["a0"], "final_energy": final["energy"],
                 "rtol": 1e-6}
    problems = []
    if workloads.check(name, good, res, reference):
        problems.append("the unmodified small run failed its checks")
    for label, row, column, factor in (
            ("energy rising at record 5", 6, "energy", 1.01),
            ("final A0 off by 1e-4", -1, "a0", 1.0 + 1e-4)):
        bad = os.path.join(tmp, label.replace(" ", "_"))
        shutil.copytree(good, bad)
        _edit_energy_csv(bad, row, column, factor)
        if not workloads.check(name, bad, res, reference):
            problems.append(f"{label}: the check did not fail")
    return problems


def check_restored(tmp):
    sys.path.insert(0, str(run.ROOT / "src"))
    originals = [(owner, attr, spans._get(owner, attr))
                 for owner, attr, _, _ in spans.targets()]
    body, _ = workloads.prepare("wnl1_n256", 1, os.path.join(tmp, "traced"),
                                small=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = all(spans._get(o, a) is not f for o, a, f in originals)
        body()
    finally:
        tracer.uninstall()
    problems = []
    if not wrapped or tracer.stats["elliptic.solve"]["calls"] == 0:
        problems.append("the tracer did not wrap the layer boundaries")
    if not tracer.restored() or any(spans._get(o, a) is not f
                                    for o, a, f in originals):
        problems.append("a wrapped attribute is not the original object")
    return problems


def main():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    run.TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        results = {
            "metric names and units": check_metric_names(spec),
            "correctness check rejects bad output": check_rejections(tmp),
            "wrapped attributes restored": check_restored(tmp),
        }
    finally:
        shutil.rmtree(tmp)
        try:
            run.TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    for label, problems in results.items():
        print(f"[{'FAIL' if problems else 'PASS'}] {label}")
        for p in problems:
            print(f"    {p}")
    return 1 if any(results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
