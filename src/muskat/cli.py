"""Command-line surface: simulate / verify / plot.

Exit codes: 0 success, 1 usage or configuration errors, 2 numerical
failures (solver breakdown, grid-limited verification, failed checks).
Sweep cells run in a worker pool capped by the MUSKAT_THREADS environment
variable; every cell writes only inside its own directory, and a cell that
fails for any reason keeps its partial output while the other cells run
on (exit code 2).
"""

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import diagnostics, integrate, strip
from .config import (
    ConfigError,
    load_config,
    make_initial_condition,
    parse_config_text,
    parse_value,
    verify_settings,
)
from .elliptic import SolverError
from .plots import svg_line_chart
from .spectral import SpectralField, load_spectrum_csv
from .strip import LinearSolveError, StripGrid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


def _workers(n_jobs):
    cap = os.environ.get("MUSKAT_THREADS")
    if cap is not None:
        try:
            cap = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"MUSKAT_THREADS must be an integer, got {cap!r}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_jobs, cap))


def _sweep_cells(specs):
    """--sweep KEY=V1,V2,... specs -> [(overrides, directory name)]: the
    cross product of at most two keys, named k1=a__k2=b; no specs give one
    unnamed cell.  A repeated key or value, which would run one cell twice
    or into one directory, is rejected; values compare as ``config``
    parses them, so dt=1e-3,0.001 repeats a value."""
    axes = {}  # key -> its values
    for spec in specs or []:
        if "=" not in spec:
            raise ConfigError(f"--sweep expects KEY=V1,V2,..., got {spec!r}")
        key, vals = spec.split("=", 1)
        key = key.strip()
        values = [v.strip() for v in vals.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"--sweep {key}: no values")
        if key in axes:
            raise ConfigError(f"--sweep {key}: key given twice")
        parsed = [parse_value(key, v) for v in values]
        if any(v in parsed[:i] for i, v in enumerate(parsed)):
            raise ConfigError(f"--sweep {key}: a value given twice")
        axes[key] = values
    if len(axes) > 2:
        raise ConfigError("--sweep supports at most 2 keys")
    cells = itertools.product(*([(k, v) for v in vals]
                                for k, vals in axes.items()))
    return [(dict(cell), "__".join(f"{k}={v}" for k, v in cell))
            for cell in cells]


def _prepare_cell(source, out_dir, seed):
    """(h0, params, config) of a sweep cell or `verify decay`'s run."""
    config, params = load_config(source)
    if seed is not None:
        config.rng_seed = seed
    config.output_dir = out_dir
    return make_initial_condition(config), params, config


def _run_cell(h0, params, config):
    """Run one cell; returns None, or a line naming its failure.

    Any exception is caught here, inside the worker, so one failing cell
    never loses the results of the others; ``integrate.run`` has already
    written that cell's partial output.
    """
    try:
        integrate.run(h0, params, config)
    except SolverError as exc:
        return f"solver failure: {config.output_dir}: {exc}"
    except Exception as exc:
        return f"error: {config.output_dir}: {type(exc).__name__}: {exc}"
    return None


def cmd_simulate(args):
    with open(args.config) as fh:
        raw = parse_config_text(fh.read())
    config, _params = load_config(dict(raw))  # validate before spawning work
    base_out = args.out or config.output_dir
    if not base_out:
        raise ConfigError("no output directory (set output_dir or pass --out)")
    # every cell is validated and set up before the first one starts
    jobs = [
        _prepare_cell({**raw, **overrides},
                      os.path.join(base_out, name) if name else base_out,
                      args.seed)
        for overrides, name in _sweep_cells(args.sweep)
    ]
    workers = _workers(len(jobs))
    if workers == 1 or len(jobs) == 1:
        results = [_run_cell(*j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, *zip(*jobs)))
    failures = [r for r in results if r]
    for f in failures:
        print(f"{f} (partial output retained)", file=sys.stderr)
    return EXIT_NUMERICAL if failures else EXIT_OK


def _write_report(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)  # only once there is a report
    path = os.path.join(out_dir, name)
    diagnostics.write_json(path, payload)
    return path


def cmd_verify(args):
    config, params = load_config(args.config)
    out_dir = args.out or config.output_dir or "."
    if args.kind == "decay":  # run the configured trajectory, then check it
        h0, params, config = _prepare_cell(
            args.config, os.path.join(out_dir, "trajectory"), args.seed)
        try:
            traj = integrate.run(h0, params, config)
        except SolverError as exc:
            print(f"solver failure: {exc} (partial output retained)", file=sys.stderr)
            return EXIT_NUMERICAL
        checks = diagnostics.decay_checks(traj.records, params)
        ok = all(c["passed"] for c in checks.values())
        diagnostics.append_checks_to_meta(config.output_dir, checks)
        path = _write_report(out_dir, "decay_report.json", checks)
        print(f"decay report: {path} passed={ok}")
        return EXIT_OK if ok else EXIT_NUMERICAL

    s = verify_settings(config.verify, args.kind)
    if args.kind == "bounds":
        seed = args.seed if args.seed is not None else config.rng_seed
        rep = diagnostics.check_operator_bounds(s["samples"], params, seed,
                                                s["n_modes"])
        path = _write_report(out_dir, "bounds_report.json", rep.as_dict())
        print(f"bounds report: {path} passed={rep.passed}")
        return EXIT_OK if rep.passed else EXIT_NUMERICAL

    grid = StripGrid(s["n_x"], s["n_z"])
    n_modes = s["n_modes"]
    if n_modes is None:
        n_modes = min(64, s["n_x"] // 2 - 1)

    if args.kind == "dtn":
        h = SpectralField.cosine(s["h_mode"], s["h_amplitude"], n_modes)
        psi = SpectralField.cosine(s["psi_mode"], s["psi_amplitude"], n_modes)
        p = replace(params, delta=1.0, sigma=params.epsilon * 1.0)
        rep = strip.verify_dtn_expansion(h, psi, s["sigmas"], grid, p)
        path = _write_report(out_dir, "dtn_report.json", rep.as_dict())
        if rep.grid_limited:
            print(f"dtn report: {path} grid-limited (discretization floor "
                  f"{rep.floor:.3g} exceeds 10% of the smallest remainder); "
                  "refine n_x/n_z", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"dtn report: {path} slope={rep.slope:.3f} passed={rep.passed}")
        return EXIT_OK if rep.passed else EXIT_NUMERICAL

    f = SpectralField.cosine(s["f_mode"], s["f_amplitude"], n_modes)
    if s["h_mode"] is None:
        h = SpectralField.zeros(n_modes)
    else:
        h = SpectralField.cosine(s["h_mode"], s["h_amplitude"], n_modes)
    flux_rep, phi_rep = strip.verify_lub_flux(h, f, s["deltas"], grid, params)
    payload = {"flux": flux_rep.as_dict(), "phi": phi_rep.as_dict()}
    path = _write_report(out_dir, "flux_report.json", payload)
    ok = flux_rep.passed and phi_rep.passed
    print(f"flux report: {path} flux_slope={flux_rep.slope:.3f} "
          f"phi_slope={phi_rep.slope:.3f} passed={ok}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _snapshot_indices(out_dir):
    """meta.json's "snapshots" list; ConfigError if missing or ill-typed."""
    name = diagnostics.META_FILE
    try:
        meta = diagnostics.read_meta(out_dir)
    except ValueError as exc:
        raise ConfigError(f"corrupt {name}: {exc}")
    if not isinstance(meta, dict) or "snapshots" not in meta:
        raise ConfigError(f'corrupt {name}: no "snapshots" entry')
    snaps = meta["snapshots"]
    if not (isinstance(snaps, list)
            and all(type(i) is int and i >= 0 for i in snaps)):
        raise ConfigError(f'corrupt {name}: "snapshots" is {snaps!r}, not a '
                          "list of record indices")
    return snaps


def _load_profile(out_dir, idx):
    """(label, x, h(x)) of snapshot idx; ConfigError if missing or corrupt."""
    path = diagnostics.snapshot_path(out_dir, idx)
    if not os.path.isfile(path):
        raise ConfigError(f"missing snapshot {path}")
    try:
        h = load_spectrum_csv(path)
    except ValueError as exc:
        raise ConfigError(f"corrupt snapshot {path}: {exc}")
    vals = h.values(max(4 * h.n_modes, 64))
    x = np.linspace(0.0, 2.0 * math.pi, len(vals), endpoint=False)
    label = os.path.basename(path).removesuffix(".csv")
    return label, list(x), list(vals)


def cmd_plot(args):
    out_dir = args.trajectory
    energy_path = os.path.join(out_dir, diagnostics.ENERGY_FILE)
    if not os.path.isfile(energy_path):
        raise ConfigError(f"missing {energy_path}")
    try:
        records = diagnostics.read_energy_csv(energy_path)
    except ValueError as exc:
        raise ConfigError(f"corrupt {diagnostics.ENERGY_FILE}: {exc}")
    if not records:
        raise ConfigError(f"{energy_path}: no records")
    # the snapshot list and every profile drawn are read before any chart
    snaps = _snapshot_indices(out_dir)
    profiles = [_load_profile(out_dir, idx)
                for idx in ((snaps[0], snaps[-1]) if len(snaps) > 1 else snaps)]
    t = [r.t for r in records]
    series = [("energy", t, [r.energy for r in records])]
    for s in range(4):
        series.append((f"A{s}", t, [r.norms[s] for r in records]))
    annotations = []
    a0 = [r.norms[0] for r in records]
    if args.log:
        if any(v <= 0 for v in a0):
            series = [(lbl, xs, ys) for lbl, xs, ys in series
                      if all(y > 0 for y in ys)]
        if len(records) >= diagnostics.MIN_FIT_RECORDS and all(v > 0 for v in a0):
            rate = -np.polyfit(t, np.log(a0), 1)[0]
            annotations.append(f"fitted A0 decay rate: {rate:.4f}")
        if not series:
            raise ConfigError("log scale requested but no positive series")
    norms_path = os.path.join(out_dir, "norms.svg")
    svg_line_chart(series, norms_path, title="Wiener norms and energy",
                   xlabel="t", ylabel="norm", logy=args.log,
                   annotations=annotations)
    written = [norms_path]

    if profiles:
        prof_path = os.path.join(out_dir, "profiles.svg")
        svg_line_chart(profiles, prof_path, title="Interface profiles",
                       xlabel="x", ylabel="h")
        written.append(prof_path)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="muskat",
        description="Pseudo-spectral simulation and verification suite for "
                    "elastic porous-media interface models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory or a sweep")
    sim.add_argument("--config", required=True, help="config file path")
    sim.add_argument("--out", help="output directory (overrides output_dir)")
    sim.add_argument("--seed", type=int, help="override rng_seed")
    sim.add_argument("--sweep", action="append", metavar="K=V1,V2",
                     help="sweep a config key (max 2 keys, cross product)")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("kind", choices=["dtn", "flux", "bounds", "decay"])
    ver.add_argument("--config", required=True)
    ver.add_argument("--out", help="report directory")
    ver.add_argument("--seed", type=int, help="override rng_seed")

    plo = sub.add_parser("plot", help="emit SVG charts for a trajectory dir")
    plo.add_argument("trajectory", help="trajectory directory")
    plo.add_argument("--log", action="store_true", help="log-scale norms chart")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_plot(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LinearSolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
