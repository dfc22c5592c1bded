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
    # wnl1, RK4: four right-hand sides per accepted step, each through the
    # traced forcing; the closing evaluation may count once more
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
    assert stats["models.forcing"]["calls"] in (4 * steps, 4 * steps + 1)
    assert stats["elliptic.solve"]["calls"] > 0
    # every batch counted once: phys, phys_stack and prods never call each
    # other, so no traced call nests inside another
    assert stats["models.transform"]["calls"] == 130
    assert stats["models.transform"]["rows"] == 279
