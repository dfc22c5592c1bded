"""Per-layer spans around muskat's layer boundaries, installed from outside.

``Tracer.install`` replaces each boundary function by a timing wrapper at
every module attribute that refers to it (so names bound at import, such
as ``integrate._solve_raw``, are covered too) and ``uninstall`` puts the
originals back.  Spans are aggregated in memory per layer: calls, total
time, self time (total minus the time of nested spans) and the counters
below.  Untraced runs never import this module.
"""

import sys
import time
from collections import defaultdict

# Every wrapped function belongs to exactly one layer, so the layers' self
# times plus the unattributed remainder add up to the traced wall time.
LAYERS = (
    "models.transform", "models.forcing", "models.perturb", "elliptic.solve",
    "integrate.step", "integrate.run", "diagnostics.record",
    "diagnostics.checks", "diagnostics.bounds", "io.snapshot",
    "strip.assemble", "strip.factor", "strip.solve",
)

# per-layer metric -> (unit, better, layer, statistic)
METRICS = {
    "models.transform.calls": ("count", "lower", "models.transform", "calls"),
    "models.transform.rows": ("count", "lower", "models.transform", "rows"),
    "models.transform.self_s": ("s", "lower", "models.transform", "self_s"),
    "models.transform.bytes_computed": ("bytes", "lower", "models.transform", "bytes"),
    "models.forcing.calls": ("count", "lower", "models.forcing", "calls"),
    "models.forcing.self_s": ("s", "lower", "models.forcing", "self_s"),
    "models.perturb.calls": ("count", "lower", "models.perturb", "calls"),
    "models.perturb.self_s": ("s", "lower", "models.perturb", "self_s"),
    "elliptic.solve.calls": ("count", "lower", "elliptic.solve", "calls"),
    "elliptic.solve.self_s": ("s", "lower", "elliptic.solve", "self_s"),
    "elliptic.iterations": ("count", "lower", "elliptic.solve", "iterations"),
    "elliptic.contraction_max": ("ratio", "lower", "elliptic.solve", "contraction_max"),
    "elliptic.failures": ("count", "lower", "elliptic.solve", "errors"),
    "integrate.steps": ("count", "lower", "integrate.step", "accepted"),
    "integrate.rejected": ("count", "lower", "integrate.step", "rejected"),
    "integrate.step.self_s": ("s", "lower", "integrate.step", "self_s"),
    "integrate.run.self_s": ("s", "lower", "integrate.run", "self_s"),
    "diagnostics.record.calls": ("count", "lower", "diagnostics.record", "calls"),
    "diagnostics.record.self_s": ("s", "lower", "diagnostics.record", "self_s"),
    "diagnostics.checks.self_s": ("s", "lower", "diagnostics.checks", "self_s"),
    "diagnostics.bounds.samples": ("count", "higher", "diagnostics.checks", "samples"),
    "diagnostics.bounds.direct_sum_s": ("s", "lower", "diagnostics.bounds", "self_s"),
    "io.snapshot.calls": ("count", "lower", "io.snapshot", "calls"),
    "io.snapshot.self_s": ("s", "lower", "io.snapshot", "self_s"),
    "strip.assemble.calls": ("count", "lower", "strip.assemble", "calls"),
    "strip.assemble.self_s": ("s", "lower", "strip.assemble", "self_s"),
    "strip.factor.calls": ("count", "lower", "strip.factor", "calls"),
    "strip.factor.self_s": ("s", "lower", "strip.factor", "self_s"),
    "strip.factor.nnz": ("count", "lower", "strip.factor", "nnz"),
    "strip.solve.self_s": ("s", "lower", "strip.solve", "self_s"),
    "strip.unknowns": ("count", "lower", "strip.factor", "unknowns"),
    "strip.residual_max": ("norm", "lower", "strip.solve", "residual_max"),
}
# Metrics derived from several layers or from the untraced runs.
DERIVED = {
    "integrate.accept_ratio": ("ratio", "higher"),
    "io.bytes_written": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _array_bytes(values):
    return sum(getattr(v, "nbytes", 0) for v in values)


def _count_transform(st, args, out):
    data = args[1:]  # args[0] is the _OpTable
    st["rows"] += data[-1].shape[0] if data[-1].ndim == 2 else 1
    st["bytes"] += _array_bytes(data) + out.nbytes


def _count_solve(st, args, out):
    _, iters, increments = out
    st["iterations"] += iters
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0.0]
    st["contraction_max"] = max([st["contraction_max"]] + ratios)


def _count_step(st, args, out):
    st["accepted"] += 1
    st["rejected"] += out[0].rejected_steps - args[0].rejected_steps


def _count_bounds(st, args, out):
    st["samples"] += args[0]


def _count_factor(st, args, out):
    st["unknowns"] += args[0].shape[0]
    st["nnz"] += out.L.nnz + out.U.nnz


def _count_strip_solve(st, args, out):
    st["residual_max"] = max(st["residual_max"], out.residual_norm)


def targets():
    """(owner, attribute, layer, counter) for every wrapped boundary."""
    import scipy.sparse.linalg as spla

    from muskat import _kernels, diagnostics, integrate, models, spectral, strip

    table = models._OpTable
    return [
        (table, "phys", "models.transform", _count_transform),
        (table, "phys_stack", "models.transform", _count_transform),
        (table, "prods", "models.transform", _count_transform),
        (models, "_forcing_wnl_with_h", "models.forcing", None),
        (models, "_forcing_wnl_raw", "models.forcing", None),
        (models, "_forcing_lub_raw", "models.forcing", None),
        (models, "_commutator_raw", "models.perturb", None),
        (models, "_lub_perturb_raw", "models.perturb", None),
        (integrate, "_solve_raw", "elliptic.solve", _count_solve),
        (integrate, "step", "integrate.step", _count_step),
        (integrate, "run", "integrate.run", None),
        (diagnostics, "make_record", "diagnostics.record", None),
        (diagnostics, "check_monotone_decay", "diagnostics.checks", None),
        (diagnostics, "check_exponential_decay", "diagnostics.checks", None),
        (diagnostics, "check_a0_dyadic_trend", "diagnostics.checks", None),
        (diagnostics, "append_checks_to_meta", "diagnostics.checks", None),
        (diagnostics, "check_operator_bounds", "diagnostics.checks", _count_bounds),
        (_kernels, "sign_split_direct", "diagnostics.bounds", None),
        (spectral, "save_spectrum_csv", "io.snapshot", None),
        (strip, "assemble_system", "strip.assemble", None),
        (spla, "splu", "strip.factor", _count_factor),
        (strip, "solve_strip", "strip.solve", _count_strip_solve),
    ]


def _get(owner, attr):
    # class attributes are read from __dict__ so a method compares as the
    # plain function that was replaced
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.stats = {layer: defaultdict(float) for layer in LAYERS}
        self._open = [0.0]  # nested-span time of each open span
        self.patched = []  # (owner, attribute, original)

    def _wrap(self, fn, layer, counter):
        st = self.stats[layer]
        clock = time.perf_counter
        open_spans = self._open

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                st["errors"] += 1
                raise
            finally:
                dt = clock() - t0
                nested = open_spans.pop()
                open_spans[-1] += dt
                st["calls"] += 1
                st["total_s"] += dt
                st["self_s"] += dt - nested
            if counter is not None:
                counter(st, args, out)
            return out

        return span

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "muskat" or n.startswith("muskat.")]
        for owner, attr, layer, counter in targets():
            orig = _get(owner, attr)
            wrapper = self._wrap(orig, layer, counter)
            holders = [(owner, attr)]
            for mod in modules:
                holders += [(mod, name) for name, val in vars(mod).items()
                            if val is orig and mod is not owner]
            for holder, name in holders:
                setattr(holder, name, wrapper)
                self.patched.append((holder, name, orig))

    def uninstall(self):
        for holder, name, orig in reversed(self.patched):
            setattr(holder, name, orig)

    def restored(self):
        """True when every patched attribute is the original object again."""
        return all(_get(holder, name) is orig
                   for holder, name, orig in self.patched)

    def as_dict(self):
        return {layer: dict(st) for layer, st in self.stats.items()}


def layer_metrics(stats, wall_s, untraced_wall_s, bytes_written):
    """Every per-layer metric from one traced body's statistics."""
    out = {name: float(stats[layer].get(stat, 0.0))
           for name, (_u, _b, layer, stat) in METRICS.items()}
    step = stats["integrate.step"]
    attempts = step.get("accepted", 0.0) + step.get("rejected", 0.0)
    # 0 when the workload takes no steps
    out["integrate.accept_ratio"] = step.get("accepted", 0.0) / attempts if attempts else 0.0
    out["io.bytes_written"] = float(bytes_written)
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    out["trace.unattributed_s"] = wall_s - sum(
        st.get("self_s", 0.0) for st in stats.values())
    return out


def units():
    """Per-layer metric -> (unit, better), in reporting order."""
    u = {name: spec[:2] for name, spec in METRICS.items()}
    u.update(DERIVED)
    return u
