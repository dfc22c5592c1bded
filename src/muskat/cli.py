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
    VERIFY_DEFAULTS,
    ConfigError,
    _as_float,
    _as_float_list,
    _as_int,
    load_config,
    make_initial_condition,
    parse_config_text,
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
    unnamed cell."""
    axes = []
    for spec in specs or []:
        if "=" not in spec:
            raise ConfigError(f"--sweep expects KEY=V1,V2,..., got {spec!r}")
        key, vals = spec.split("=", 1)
        values = [v.strip() for v in vals.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"--sweep {key}: no values")
        axes.append([(key.strip(), v) for v in values])
    if len(axes) > 2:
        raise ConfigError("--sweep supports at most 2 keys")
    return [(dict(cell), "__".join(f"{k}={v}" for k, v in cell))
            for cell in itertools.product(*axes)]


def _prepare_cell(cell_raw, out_dir, seed):
    """(h0, params, config) of one cell; raises ConfigError if invalid."""
    config, params = load_config(cell_raw)
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
    path = os.path.join(out_dir, name)
    diagnostics.write_json(path, payload)
    return path


def cmd_verify(args):
    config, params = load_config(args.config)
    out_dir = args.out or config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    v = config.verify

    def vget(key, parse=_as_float, derived=None):  # ConfigError if bad
        value = v.get(f"{args.kind}.{key}", VERIFY_DEFAULTS[args.kind][key])
        return parse(f"verify.{args.kind}.{key}",
                     derived if value is None else value)

    if args.kind == "bounds":
        samples = vget("samples", _as_int)
        n_modes = vget("n_modes", _as_int)
        seed = args.seed if args.seed is not None else config.rng_seed
        rep = diagnostics.check_operator_bounds(samples, params, seed, n_modes)
        path = _write_report(out_dir, "bounds_report.json", rep.as_dict())
        print(f"bounds report: {path} passed={rep.passed}")
        return EXIT_OK if rep.passed else EXIT_NUMERICAL

    if args.kind in ("dtn", "flux"):
        n_x = vget("n_x", _as_int)
        grid = StripGrid(n_x, vget("n_z", _as_int))
        n_modes = vget("n_modes", _as_int, min(64, n_x // 2 - 1))

    if args.kind == "dtn":
        sigmas = vget("sigmas", _as_float_list)
        h = SpectralField.cosine(vget("h_mode", _as_int),
                                 vget("h_amplitude"), n_modes)
        psi = SpectralField.cosine(vget("psi_mode", _as_int),
                                   vget("psi_amplitude"), n_modes)
        p = replace(params, delta=1.0, sigma=params.epsilon * 1.0)
        rep = strip.verify_dtn_expansion(h, psi, sigmas, grid, p)
        path = _write_report(out_dir, "dtn_report.json", rep.as_dict())
        if rep.grid_limited:
            print(f"dtn report: {path} grid-limited (discretization floor "
                  f"{rep.floor:.3g} exceeds 10% of the smallest remainder); "
                  "refine n_x/n_z", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"dtn report: {path} slope={rep.slope:.3f} passed={rep.passed}")
        return EXIT_OK if rep.passed else EXIT_NUMERICAL

    if args.kind == "flux":
        deltas = vget("deltas", _as_float_list)
        f = SpectralField.cosine(vget("f_mode", _as_int),
                                 vget("f_amplitude"), n_modes)
        if v.get("flux.h_mode") is None:
            h = SpectralField.zeros(n_modes)
        else:
            h = SpectralField.cosine(vget("h_mode", _as_int),
                                     vget("h_amplitude"), n_modes)
        flux_rep, phi_rep = strip.verify_lub_flux(h, f, deltas, grid, params)
        payload = {"flux": flux_rep.as_dict(), "phi": phi_rep.as_dict()}
        path = _write_report(out_dir, "flux_report.json", payload)
        ok = flux_rep.passed and phi_rep.passed
        print(f"flux report: {path} flux_slope={flux_rep.slope:.3f} "
              f"phi_slope={phi_rep.slope:.3f} passed={ok}")
        return EXIT_OK if ok else EXIT_NUMERICAL

    # decay: run the configured trajectory, then check it
    config.output_dir = os.path.join(out_dir, "trajectory")
    if args.seed is not None:
        config.rng_seed = args.seed
    h0 = make_initial_condition(config)
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

    snap_dir = os.path.join(out_dir, diagnostics.SNAPSHOT_DIR)
    snaps = sorted(os.listdir(snap_dir)) if os.path.isdir(snap_dir) else []
    if snaps:
        profiles = []
        for name in (snaps[0], snaps[-1]) if len(snaps) > 1 else (snaps[0],):
            h = load_spectrum_csv(os.path.join(snap_dir, name))
            vals = h.values(max(4 * h.n_modes, 64))
            x = np.linspace(0.0, 2.0 * math.pi, len(vals), endpoint=False)
            profiles.append((name.replace(".csv", ""), list(x), list(vals)))
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
