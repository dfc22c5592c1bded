"""Command-line surface: simulate / verify / plot.

Exit codes: 0 success, 1 usage or configuration errors, 2 numerical
failures (a solver breakdown, always an ``elliptic.SolverError``;
grid-limited verification; failed checks).  Every cell of a sweep is
loaded by ``config.load_config``, set up and given its directory before
the first one runs; a cell whose run reads what an earlier cell's run
reads (``integrate.run_inputs``) is rejected.  The cells run in a worker
pool capped by the MUSKAT_THREADS environment variable; every cell writes
only inside its own directory, and from then on a cell that fails for any
reason keeps its partial output while the other cells run on (exit code
2).  ``--seed`` is the config's rng_seed, set before a command reads it.
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
from .config import (ConfigError, load_config, make_initial_condition,
                     read_config, verify_settings)
from .elliptic import SolverError
from .plots import svg_line_chart
from .spectral import SpectralField
from .strip import StripGrid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


def _workers(n_jobs):
    cap = os.environ.get("MUSKAT_THREADS")
    try:
        cap = (os.cpu_count() or 1) if cap is None else int(cap)
    except ValueError:
        raise ConfigError(f"MUSKAT_THREADS must be an integer, got {cap!r}")
    return max(1, min(n_jobs, cap))


def _sweep_cells(specs):
    """--sweep KEY=V1,V2,... specs -> [(overrides, directory name)]: the
    cross product of at most two keys, named k1=a__k2=b; no specs give one
    unnamed cell.  A repeated key, which would run every cell at its last
    value, is rejected; a repeated value, or a key the run does not read
    (output_dir, verify.*), is left to ``cmd_simulate``, which compares
    the inputs of the cells' runs."""
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
        axes[key] = values
    if len(axes) > 2:
        raise ConfigError("--sweep supports at most 2 keys")
    cells = itertools.product(*([(k, v) for v in vals]
                                for k, vals in axes.items()))
    return [(dict(cell), "__".join(f"{k}={v}" for k, v in cell))
            for cell in cells]


def _prepare_cell(config, params, out_dir):
    """(h0, params, config) of a loaded sweep cell or `verify decay`'s run,
    its config now writing into out_dir; ConfigError for a dt past the
    scheme's stability limit."""
    config.output_dir = out_dir
    h0 = make_initial_condition(config)
    integrate.check_step_size(h0, params, config.dt, config.scheme)
    return h0, params, config


def _run_cell(h0, params, config):
    """Run one cell; returns None, or a line naming its failure.

    Any exception is caught here, inside the worker, so one failing cell
    never loses the results of the others, and a line returns where the
    exception might not unpickle; ``integrate.run`` has already written
    that cell's partial output.
    """
    try:
        integrate.run(h0, params, config)
    except SolverError as exc:
        return f"solver failure: {config.output_dir}: {exc}"
    except Exception as exc:
        return f"error: {config.output_dir}: {type(exc).__name__}: {exc}"
    return None


def cmd_simulate(args):
    raw = read_config(args.config)
    if args.seed is not None:
        raw["rng_seed"] = args.seed
    config, _params = load_config(raw)  # validate before spawning work
    base_out = args.out or config.output_dir
    if not base_out:
        raise ConfigError("no output directory (set output_dir or pass --out)")
    cells = _sweep_cells(args.sweep)
    if args.seed is not None and any("rng_seed" in o for o, _ in cells):
        raise ConfigError("--seed would override --sweep rng_seed in every cell")
    # every cell is set up and compared before any directory is made
    jobs = [_prepare_cell(*load_config({**raw, **overrides}),
                          os.path.join(base_out, name) if name else base_out)
            for overrides, name in cells]
    inputs = [integrate.run_inputs(*job) for job in jobs]
    for i, key in enumerate(inputs):
        if (j := inputs.index(key)) < i:
            raise ConfigError(f"--sweep {cells[i][1]}: repeats the run of "
                              f"{cells[j][1]} (a value given twice, or a key "
                              "the run does not read)")
    for _, _, config in jobs:
        os.makedirs(os.path.join(config.output_dir, diagnostics.SNAPSHOT_DIR),
                    exist_ok=True)
    workers = _workers(len(jobs))
    if workers == 1:
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
    if args.seed is not None:
        config.rng_seed = args.seed
    out_dir = args.out or config.output_dir or "."
    if args.kind == "decay":  # run the configured trajectory, then check it
        h0, params, config = _prepare_cell(
            config, params, os.path.join(out_dir, "trajectory"))
        traj = integrate.run(h0, params, config)
        checks = diagnostics.decay_checks(traj.records, params)
        ok = all(c["passed"] for c in checks.values())
        diagnostics.append_checks_to_meta(config.output_dir, checks)
        path = _write_report(out_dir, "decay_report.json", checks)
        print(f"decay report: {path} passed={ok}")
        return EXIT_OK if ok else EXIT_NUMERICAL

    s = verify_settings(config.verify, args.kind)
    if args.kind == "bounds":
        rep = diagnostics.check_operator_bounds(s["samples"], params,
                                                config.rng_seed, s["n_modes"])
        path = _write_report(out_dir, "bounds_report.json", rep.as_dict())
        print(f"bounds report: {path} passed={rep.passed}")
        return EXIT_OK if rep.passed else EXIT_NUMERICAL

    grid = StripGrid(s["n_x"], s["n_z"])
    # flux: every mode the grid resolves; dtn truncates B, by default at 64
    n_modes = s["n_x"] // 2 - 1
    # amplitude 1: sigmas and epsilon scale h, and each check is linear in
    # its datum (psi, f)
    if args.kind == "dtn":
        n_modes = min(64, n_modes) if s["n_modes"] is None else s["n_modes"]
        h = SpectralField.cosine(s["h_mode"], 1.0, n_modes)
        psi = SpectralField.cosine(s["psi_mode"], 1.0, n_modes)
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

    f = SpectralField.cosine(s["f_mode"], 1.0, n_modes)
    if s["h_mode"] is None:
        h = SpectralField.zeros(n_modes)
    else:
        h = SpectralField.cosine(s["h_mode"], 1.0, n_modes)
    flux_rep, phi_rep = strip.verify_lub_flux(h, f, s["deltas"], grid, params)
    payload = {"flux": flux_rep.as_dict(), "phi": phi_rep.as_dict()}
    path = _write_report(out_dir, "flux_report.json", payload)
    ok = flux_rep.passed and phi_rep.passed
    print(f"flux report: {path} flux_slope={flux_rep.slope:.3f} "
          f"phi_slope={phi_rep.slope:.3f} passed={ok}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _load_profile(out_dir, idx):
    """(label, x, h(x)) of snapshot idx; ConfigError if missing or corrupt."""
    h = diagnostics.read_snapshot(out_dir, idx)
    vals = h.values(max(4 * h.n_modes, 64))
    x = np.linspace(0.0, 2.0 * math.pi, len(vals), endpoint=False)
    label = os.path.basename(diagnostics.snapshot_path(out_dir, idx))
    return label.removesuffix(".csv"), list(x), list(vals)


def cmd_plot(args):
    out_dir = args.trajectory
    # the run and every profile drawn are read before any chart
    meta, records = diagnostics.read_run(out_dir)
    if not records:
        raise ConfigError(f"{out_dir}: no records")
    snaps = meta["snapshots"]
    profiles = [_load_profile(out_dir, idx)
                for idx in ((snaps[0], snaps[-1]) if len(snaps) > 1 else snaps)]
    t = records.column("t").tolist()
    series = [("energy", t, records.column("energy").tolist())]
    series += [(f"A{s}", t, records.column(f"a{s}").tolist()) for s in range(4)]
    annotations = []
    a0 = records.column("a0")
    if args.log:
        if (a0 <= 0).any():
            series = [(lbl, xs, ys) for lbl, xs, ys in series
                      if all(y > 0 for y in ys)]
        if len(records) >= diagnostics.MIN_FIT_RECORDS and (a0 > 0).all():
            rate = diagnostics.fitted_decay_rate(t, a0)
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
    ver.add_argument("--seed", type=int,
                     help="override rng_seed (read by bounds and decay only; "
                          "dtn and flux are deterministic)")

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
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
