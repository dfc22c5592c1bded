"""The benchmark's tracer against the current program.

``perfbench/spans.py`` measures layers by wrapping module attributes by
name, so a refactor that renames or drops one of them breaks traced runs
only.  These tests load that file read-only (compiled from its source, so
no bytecode is written next to it) and check that every name it wraps
resolves and that a traced trajectory still counts the stepping path.
"""

import types
from pathlib import Path

from muskat import integrate
from muskat.config import SolverConfig
from muskat.params import ModelParams
from muskat.spectral import SpectralField

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    mod = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def test_every_traced_name_resolves():
    spans = load_spans()
    for owner, attr, layer, _counter in spans.targets():
        assert callable(spans._get(owner, attr)), (owner, attr)
        assert layer in spans.LAYERS


def test_traced_run_counts_forcing_per_stage(tmp_path):
    # wnl1, RK4, tol 1e-11 (the default at this size): the traced forcing
    # is the sweep, 3 + 2 rows with h in its batch and 2 + 2 without.  Per
    # step, stage 1 starts cold: T(0) and two iterations (3 sweeps, 13
    # rows); the warm stages take 2, 1 and 2 sweeps (first increments
    # about 2e-11, 6e-15 and 2e-11), 9 + 5 + 9 rows.  So 8 sweeps, 16
    # calls and 36 rows per step, 7 iterations.  The closing solve adds
    # its loop's 2 sweeps (9 rows) and 2 iterations; its forcing (5 rows)
    # and residual (5 rows) are sweeps inside models, which the tracer does
    # not wrap, so they count as transforms only.
    steps, dt, n = 5, 1e-3, 32
    p = ModelParams(chi=1, lam=1.0, theta=1.0, sigma=0.1)
    cfg = SolverConfig(chi=1, lam=1.0, theta=1.0, sigma=0.1, n_modes=n,
                       dt=dt, t_end=steps * dt, output_cadence=1,
                       output_dir=str(tmp_path))
    h0 = SpectralField.cosine(1, 1e-3, n)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        integrate.run(h0, p, cfg)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    stats = tracer.as_dict()
    assert stats["integrate.step"]["accepted"] == steps
    assert stats["models.forcing"]["calls"] == 8 * steps + 2
    assert stats["elliptic.solve"]["calls"] == 4 * steps + 1
    assert stats["elliptic.solve"]["iterations"] == 7 * steps + 2
    # every batch counted once: phys, phys_stack and prods never call each
    # other, so no traced call nests inside another
    assert stats["models.transform"]["calls"] == 2 * (8 * steps + 2) + 4
    assert stats["models.transform"]["rows"] == 36 * steps + 19
