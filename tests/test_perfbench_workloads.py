"""The benchmark's workloads against the current program.

``perfbench/workloads.py`` drives the program through ``SolverConfig``,
``integrate.run``, the returned trajectory and ``cli.main``; a change to
any of them that breaks a workload would otherwise show only when the
benchmark runs.  The file is loaded read-only (compiled from its source, so
no bytecode is written next to it) and each workload runs at the small
size of the benchmark's self-test, its outputs checked by the benchmark's
own checks.
"""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    mod = types.ModuleType("perfbench_workloads")
    mod.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize("name", ["wnl1_n256", "verify_suite"])
def test_workload_runs_and_passes_its_checks(tmp_path, monkeypatch, name):
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    workloads = load_workloads()
    assert name in workloads.NAMES
    body, nominal = workloads.prepare(name, 1, str(tmp_path), small=True)
    result = body()
    assert result["failed"] == 0 and result["attempted"] > 0
    assert workloads.check(name, str(tmp_path), result, None) == []
