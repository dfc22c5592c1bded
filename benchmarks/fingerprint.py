"""Digest every output file of a fixed command set, to compare two trees.

Runs, into a temporary directory, the ``muskat`` commands whose outputs a
refactor must leave byte-identical:

* ``simulate`` of configs/{decay,lubrication,verify}.cfg, and ``plot`` of
  those runs (``--log`` for decay); ``simulate --seed 5`` of
  configs/lubrication.cfg; ``simulate`` of configs/verify.cfg with
  ``initial_condition = from_file``, reading a spectrum file written into
  the run root;
* ``verify bounds|flux|dtn|decay`` on configs/verify.cfg, ``verify bounds
  --seed 7`` and ``verify flux`` with ``verify.flux.h_mode = 1`` (the
  mobility path) on it, ``verify decay`` on configs/lubrication.cfg, and
  ``verify decay`` of configs/verify.cfg with ``lambda = 0``, whose run has
  no decay rate, so its one rate verdict is the A0 trend over dyadic
  windows (``a0_dyadic_trend``);
* the sweeps ``model=wnl1,wnl2``, ``model=wnl1,wnl2`` x ``sigma=0,0.1``,
  ``depth=infinite`` x ``sigma=0,0.3`` and ``scheme=euler,rk4`` at
  ``dt=1.5e-3`` on configs/verify.cfg, and ``epsilon=0,0.2`` on
  configs/lubrication.cfg;
* the sweeps ``rng_seed=1,2`` and ``epsilon=0.1,0.2`` on configs/verify.cfg
  at ``t_end = 0.1``, keys its single_mode wnl1 run does not read: each
  exits 1 and writes nothing;
* ``simulate`` and ``verify decay`` of configs/verify.cfg with ``sigma =
  1.0``, ``initial_condition.k = 3`` and ``initial_condition.amplitude =
  5``, whose first step's stage-1 solve raises ``NotContractingError``:
  both exit 2 and keep their partial output;
* ``simulate`` of configs/verify.cfg with ``initial_condition.amplitude =
  1e200`` and ``t_end = 0.01``, whose first increment overflows
  (``NonFiniteError``): it exits 2, its ``meta.json`` naming the failure;
* the body of the benchmark's ``wnl1_n256`` workload at seed 0;
* ``diagnostics.verify_trajectory_dir`` of every ``simulate_*`` run, its
  result written as sorted-key JSON to ``reverify_<run>.json`` in the run
  root.

Prints one ``sha256  relative/path`` line per output file, sorted by path,
then one line per command with its exit code.  Each file is hashed as
written, with the run root's path replaced by ``<root>``: a ``meta.json``
names it in its ``config.output_dir`` and ``initial_condition.path``, the
derived from_file config in its ``initial_condition.path``.  Each tree's
copy imports that tree's ``src/``.  Run it in each tree and diff the two
outputs:

    python benchmarks/fingerprint.py > digests.txt

Sweep cells run one at a time (``MUSKAT_THREADS`` defaults to 1 here); the
whole set took about 15 s on a 2-CPU VM.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "src"))  # this tree's package, not another


def _derived(root, name, text, changes):
    """Write text, each whole line old replaced by new for (old, new) in
    changes, to root/name.cfg; returns its path."""
    for line, new in changes:
        assert f"\n{line}\n" in text
        text = text.replace(f"\n{line}\n", f"\n{new}\n")
    path = os.path.join(root, f"{name}.cfg")
    Path(path).write_text(text)
    return path


def commands(root):
    """[(name, argv)] of the CLI command set; each name is its output
    directory under the run root.  Writes the derived configs into root."""
    decay, lub, ver = (str(CONFIGS / f"{n}.cfg")
                       for n in ("decay", "lubrication", "verify"))
    ver_text = Path(ver).read_text()
    flux_h1 = os.path.join(root, "verify_flux_h1.cfg")
    Path(flux_h1).write_text(ver_text + "verify.flux.h_mode = 1\n")
    # a |k|^-3 spectrum of configs/verify.cfg's 64 modes, with a mean the
    # reader drops, as the initial condition of a derived config
    spectrum = os.path.join(root, "h0.csv")
    Path(spectrum).write_text("k,re,im\n0,0.25,0\n" + "".join(
        f"{k},{1e-3 / k**3!r},{-5e-4 / k**3!r}\n" for k in range(1, 65)))
    single = ("initial_condition = single_mode\ninitial_condition.k = 1\n"
              "initial_condition.amplitude = 1e-3\n")
    assert single in ver_text
    from_file = os.path.join(root, "verify_from_file.cfg")
    Path(from_file).write_text(ver_text.replace(single, (
        "initial_condition = from_file\n"
        f"initial_condition.path = {spectrum}\n")))
    # outside the contraction regime: the first solve fails
    steep = _derived(root, "verify_steep", ver_text, (
        ("sigma = 0.1", "sigma = 1.0"),
        ("initial_condition.k = 1", "initial_condition.k = 3"),
        ("initial_condition.amplitude = 1e-3",
         "initial_condition.amplitude = 5")))
    # so far outside it that the first increment overflows to inf
    overflow = _derived(root, "verify_overflow", ver_text, (
        ("initial_condition.amplitude = 1e-3",
         "initial_condition.amplitude = 1e200"),
        ("t_end = 5.0", "t_end = 0.01")))
    # sweeps of a key the run does not read, at a t_end short enough to run
    # both cells where they are not refused
    short = _derived(root, "verify_short", ver_text,
                     (("t_end = 5.0", "t_end = 0.1"),))
    # no bending: no decay rate to fit
    lambda0 = _derived(root, "verify_lambda0", ver_text,
                       (("lambda = 1.0", "lambda = 0"),))
    cmds = [(f"simulate_{Path(c).stem}", ["simulate", "--config", c])
            for c in (decay, lub, ver)]
    cmds.append(("simulate_lubrication_seed5",
                 ["simulate", "--config", lub, "--seed", "5"]))
    cmds.append(("simulate_from_file", ["simulate", "--config", from_file]))
    cmds += [(f"verify_{kind}", ["verify", kind, "--config", ver])
             for kind in ("bounds", "flux", "dtn", "decay")]
    cmds.append(("verify_bounds_seed7",
                 ["verify", "bounds", "--config", ver, "--seed", "7"]))
    cmds.append(("verify_flux_h1", ["verify", "flux", "--config", flux_h1]))
    cmds.append(("verify_decay_lubrication", ["verify", "decay", "--config", lub]))
    cmds.append(("verify_decay_lambda0",
                 ["verify", "decay", "--config", lambda0]))
    cmds.append(("steep_simulate", ["simulate", "--config", steep]))
    cmds.append(("steep_verify_decay", ["verify", "decay", "--config", steep]))
    cmds.append(("nonfinite_simulate", ["simulate", "--config", overflow]))
    sweeps = {
        "sweep_model": (ver, ["model=wnl1,wnl2"]),
        "sweep_model_sigma": (ver, ["model=wnl1,wnl2", "sigma=0,0.1"]),
        "sweep_depth_sigma": (ver, ["depth=infinite", "sigma=0,0.3"]),
        "sweep_scheme": (ver, ["scheme=euler,rk4", "dt=1.5e-3"]),
        "sweep_epsilon": (lub, ["epsilon=0,0.2"]),
        "sweep_unread_rng_seed": (short, ["rng_seed=1,2"]),
        "sweep_unread_epsilon": (short, ["epsilon=0.1,0.2"]),
    }
    for name, (cfg, specs) in sweeps.items():
        argv = ["simulate", "--config", cfg]
        for spec in specs:
            argv += ["--sweep", spec]
        cmds.append((name, argv))
    return cmds


def run_all(root):
    """Run the command set under root; returns [(name, exit code)]."""
    from muskat import cli, diagnostics

    codes = []
    cmds = commands(root)
    for name, argv in cmds:
        out = os.path.join(root, name)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append((name, cli.main(argv + ["--out", out])))
    for name, _ in cmds:
        if name.startswith("simulate_"):
            diagnostics.write_json(
                os.path.join(root, f"reverify_{name}.json"),
                diagnostics.verify_trajectory_dir(os.path.join(root, name)))
    for name, extra in (("simulate_decay", ["--log"]),
                        ("simulate_lubrication", [])):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append((f"plot_{name}",
                          cli.main(["plot", os.path.join(root, name)] + extra)))

    # the workload body, read from the benchmark without writing bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = os.path.join(root, "wnl1_n256")
    os.makedirs(out)
    body, _ = workloads.prepare("wnl1_n256", 0, out)
    res = body()
    codes.append(("wnl1_n256", 0 if not res["failed"] else 2))
    return codes


def digest(path, root):
    data = path.read_bytes().replace(str(root).encode(), b"<root>")
    return hashlib.sha256(data).hexdigest()


def main():
    os.environ.setdefault("MUSKAT_THREADS", "1")
    with tempfile.TemporaryDirectory() as root:
        codes = run_all(root)
        base = Path(root)
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            print(f"{digest(path, root)}  {path.relative_to(base)}")
    for name, code in codes:
        print(f"exit {code}  {name}")


if __name__ == "__main__":
    main()
