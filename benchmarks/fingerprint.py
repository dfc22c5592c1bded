"""Digest every output file of a fixed command set, to compare two trees.

Runs, into a temporary directory, the ``muskat`` commands whose outputs a
refactor must leave byte-identical:

* ``simulate`` of configs/{decay,lubrication,verify}.cfg, and ``plot`` of
  those runs (``--log`` for decay);
* ``verify bounds|flux|dtn|decay`` on configs/verify.cfg, ``verify
  flux`` on it with ``verify.flux.h_mode = 1`` (the mobility path; a
  derived config written into the run root) and ``verify decay`` on
  configs/lubrication.cfg;
* the sweeps ``model=wnl1,wnl2``, ``model=wnl1,wnl2`` x ``sigma=0,0.1``,
  ``depth=infinite`` x ``sigma=0,0.3`` and ``scheme=euler,rk4`` at
  ``dt=1.5e-3`` on configs/verify.cfg, and ``epsilon=0,0.2`` on
  configs/lubrication.cfg;
* the body of the benchmark's ``wnl1_n256`` workload at seed 0.

Prints one ``sha256  relative/path`` line per output file, sorted by path,
then one line per command with its exit code.  A ``meta.json`` is hashed
as written, with the run root's path (written in its ``config.output_dir``)
replaced by ``<root>``.  Run it in each tree and diff the two outputs:

    PYTHONPATH=src python benchmarks/fingerprint.py > digests.txt

Sweep cells run one at a time (``MUSKAT_THREADS`` defaults to 1 here); the
whole set took about 16 s on a 2-CPU VM.
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


def commands(root):
    """[(name, argv)] of the CLI command set; each name is its output
    directory under the run root.  Writes the derived configs into root."""
    decay, lub, ver = (str(CONFIGS / f"{n}.cfg")
                       for n in ("decay", "lubrication", "verify"))
    flux_h1 = os.path.join(root, "verify_flux_h1.cfg")
    Path(flux_h1).write_text(Path(ver).read_text() + "verify.flux.h_mode = 1\n")
    cmds = [(f"simulate_{Path(c).stem}", ["simulate", "--config", c])
            for c in (decay, lub, ver)]
    cmds += [(f"verify_{kind}", ["verify", kind, "--config", ver])
             for kind in ("bounds", "flux", "dtn", "decay")]
    cmds.append(("verify_flux_h1", ["verify", "flux", "--config", flux_h1]))
    cmds.append(("verify_decay_lubrication", ["verify", "decay", "--config", lub]))
    sweeps = {
        "sweep_model": (ver, ["model=wnl1,wnl2"]),
        "sweep_model_sigma": (ver, ["model=wnl1,wnl2", "sigma=0,0.1"]),
        "sweep_depth_sigma": (ver, ["depth=infinite", "sigma=0,0.3"]),
        "sweep_scheme": (ver, ["scheme=euler,rk4", "dt=1.5e-3"]),
        "sweep_epsilon": (lub, ["epsilon=0,0.2"]),
    }
    for name, (cfg, specs) in sweeps.items():
        argv = ["simulate", "--config", cfg]
        for spec in specs:
            argv += ["--sweep", spec]
        cmds.append((name, argv))
    return cmds


def run_all(root):
    """Run the command set under root; returns [(name, exit code)]."""
    from muskat import cli

    codes = []
    for name, argv in commands(root):
        out = os.path.join(root, name)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append((name, cli.main(argv + ["--out", out])))
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
    data = path.read_bytes()
    if path.name == "meta.json":
        data = data.replace(str(root).encode(), b"<root>")
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
