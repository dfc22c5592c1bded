import json
import math
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskat.cli import main
from muskat.config import (
    _IC_KINDS,
    _KNOWN_TOP,
    VERIFY_DEFAULTS,
    ConfigError,
    SolverConfig,
    _as_float_list,
    load_config,
    make_initial_condition,
    parse_config_text,
)
from muskat.params import ModelParams, nondimensionalize
from muskat.spectral import load_spectrum_csv, save_spectrum_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_CFG = """
# comment line
model = wnl1
depth = finite
chi = 1
lambda = 1.0
theta = 1.0
sigma = 0.1
n_modes = 32
dt = 0.002
t_end = {t_end}
output_cadence = 5
snapshot_cadence = 2
rng_seed = 7
output_dir = {out}
initial_condition = single_mode
initial_condition.k = 1
initial_condition.amplitude = 1e-3
"""


def write_cfg(tmp_path, name="run.cfg", t_end=0.05, out=None, extra=""):
    out = out or str(tmp_path / "traj")
    path = tmp_path / name
    path.write_text(BASE_CFG.format(t_end=t_end, out=out) + extra)
    return str(path), out


def test_parse_config_text_errors():
    assert parse_config_text("a = 1\n# c\n\nb.c = 2") == {"a": "1", "b.c": "2"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("nonsense")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")


def test_load_config_round_trip(tmp_path):
    path, out = write_cfg(tmp_path)
    cfg, params = load_config(path)
    assert cfg.n_modes == 32 and params.lam == 1.0 and params.sigma == 0.1
    # meta-style dict round trip preserves everything
    cfg2, params2 = load_config(cfg.as_dict())
    assert cfg2.as_dict() == cfg.as_dict()
    assert params2 == params


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("thetaa = 1.0\n")
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(p))


def test_load_config_rejects_bad_n_modes(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n_modes = 48\n")
    with pytest.raises(ConfigError, match="power of two"):
        load_config(str(p))


def test_lubrication_sigma_derived(tmp_path):
    p = tmp_path / "lub.cfg"
    p.write_text("model = lubrication\ndelta = 0.04\nepsilon = 0.5\n")
    _cfg, params = load_config(str(p))
    assert params.sigma == pytest.approx(0.5 * math.sqrt(0.04), abs=1e-15)
    p2 = tmp_path / "lub2.cfg"
    p2.write_text("model = lubrication\ndelta = 0.04\nepsilon = 0.5\nsigma = 0.3\n")
    with pytest.raises(ConfigError, match="sigma"):
        load_config(str(p2))


def test_initial_condition_presets(tmp_path):
    path, _ = write_cfg(tmp_path)
    cfg, _ = load_config(path)
    h = make_initial_condition(cfg)
    assert abs(h.coeffs[1]) == pytest.approx(1e-3 * math.sqrt(math.pi / 2))

    p = tmp_path / "rand.cfg"
    p.write_text("initial_condition = random_decay\ninitial_condition.p = 3\n"
                 "initial_condition.amplitude = 0.01\nrng_seed = 5\n")
    cfg2, _ = load_config(str(p))
    h2 = make_initial_condition(cfg2)
    h2b = make_initial_condition(cfg2)
    assert np.all(h2.coeffs == h2b.coeffs)
    assert h2.coeffs[0] == 0.0

    snap = tmp_path / "ic.csv"
    save_spectrum_csv(h2, snap)
    p3 = tmp_path / "file.cfg"
    p3.write_text(f"initial_condition = from_file\n"
                  f"initial_condition.path = {snap}\n")
    cfg3, _ = load_config(str(p3))
    h3 = make_initial_condition(cfg3)
    assert np.all(h3.coeffs == h2.coeffs)


def test_nondimensionalize():
    params, tscale = nondimensionalize(
        mu=2.0, kappa=0.5, rho=1000.0, G=9.8, gamma=0.0, tau=3.0,
        d=0.1, L=1.0, H=0.01,
    )
    assert params.delta == pytest.approx(0.01)
    assert params.epsilon == pytest.approx(0.1)
    assert params.sigma == pytest.approx(0.01)
    assert params.lam == 0.0
    assert params.theta == pytest.approx(3.0 * 0.5 / 2.0)
    assert tscale == pytest.approx(2.0 * 1.0 / (1000.0 * 0.5 * 9.8))
    # d = L = H collapses every ratio to 1
    p2, _ = nondimensionalize(mu=1, kappa=1, rho=1, G=1, gamma=1, tau=1,
                              d=2.0, L=2.0, H=2.0)
    assert (p2.delta, p2.epsilon, p2.sigma) == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        nondimensionalize(mu=0, kappa=1, rho=1, G=1, gamma=0, tau=1,
                          d=1, L=1, H=1)


@pytest.mark.parametrize("kw", [{"theta": math.nan}, {"lam": math.nan},
                                {"delta": math.nan}, {"sigma": math.inf},
                                {"epsilon": math.inf}])
def test_model_params_reject_non_finite(kw):
    # nan fails every sign check silently (each comparison is false)
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**kw)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_simulate_t_end_zero(tmp_path):
    path, out = write_cfg(tmp_path, t_end=0.0)
    assert main(["simulate", "--config", path]) == 0
    assert os.path.isfile(os.path.join(out, "meta.json"))
    records = (tmp_path / "traj" / "energy.csv").read_text().strip().splitlines()
    assert len(records) == 2  # header + initial record


def _steep_cfg(tmp_path):
    # sigma = 1 and amplitude 5: outside the contraction regime
    text = BASE_CFG.format(t_end=0.0, out=str(tmp_path / "traj"))
    for a, b in (("sigma = 0.1", "sigma = 1.0"),
                 ("initial_condition.k = 1", "initial_condition.k = 3"),
                 ("amplitude = 1e-3", "amplitude = 5")):
        text = text.replace(a, b)
    path = tmp_path / "steep.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", [["simulate"], ["verify", "decay"]])
def test_final_evaluation_failure_exit_2(tmp_path, capsys, command):
    # t_end = 0: the only solve is the closing evaluation, and it fails
    path = _steep_cfg(tmp_path)
    out = tmp_path / "res"
    assert main(command + ["--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "not contracting" in err
    traj = out if command == ["simulate"] else out / "trajectory"
    meta = json.loads((traj / "meta.json").read_text())
    assert "not contracting" in meta["failed"]
    if command != ["simulate"]:  # main reports it, as any SolverError
        assert err == f"solver failure: {meta['failed']}\n"
    assert meta["records"] == 0
    assert (traj / "energy.csv").read_text().startswith("t,a0")


def test_simulate_theta_zero_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("theta = 0\noutput_dir = x\n")
    assert main(["simulate", "--config", str(p)]) == 1
    assert "theta must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["n_modes = inf", "dt = nan"])
def test_simulate_non_finite_number_exit_1(tmp_path, capsys, line):
    # a config error, not a traceback or a run that fails in the integrator
    p = tmp_path / "bad.cfg"
    p.write_text(f"{line}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(p)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0.2,inf", [0.2, float("nan")]])
def test_float_list_rejects_non_finite(value):
    with pytest.raises(ConfigError, match="finite"):
        _as_float_list("verify.dtn.sigmas", value)


@pytest.mark.parametrize("key", ["seed = 5", "p = 2", "path = x.csv"])
def test_initial_condition_key_of_another_kind_rejected(tmp_path, key):
    # a key that only another kind reads, or none, is rejected, not ignored
    p = tmp_path / "ic.cfg"
    p.write_text(f"initial_condition = single_mode\ninitial_condition.{key}\n")
    with pytest.raises(ConfigError, match="single_mode"):
        load_config(str(p))


def test_simulate_reproducible_bytes(tmp_path):
    path, _ = write_cfg(tmp_path)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "energy.csv").read_bytes() == \
        (tmp_path / "r2" / "energy.csv").read_bytes()
    m1 = json.loads((tmp_path / "r1" / "meta.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "meta.json").read_text())
    m1["config"].pop("output_dir")
    m2["config"].pop("output_dir")
    assert m1 == m2
    # a rerun into the same directory is byte-identical everywhere
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "r1")]) == 0
    m1b = (tmp_path / "r1" / "meta.json").read_bytes()
    assert json.loads(m1b)["config"]["output_dir"].endswith("r1")


def test_simulate_sweep_cells(tmp_path, monkeypatch):
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["simulate", "--config", path, "--out", out,
                 "--sweep", "sigma=0.05,0.1", "--sweep", "lambda=0.5,1.0"]) == 0
    cells = sorted(os.listdir(out))
    assert cells == [
        "sigma=0.05__lambda=0.5",
        "sigma=0.05__lambda=1.0",
        "sigma=0.1__lambda=0.5",
        "sigma=0.1__lambda=1.0",
    ]
    for cell in cells:
        meta = json.loads((tmp_path / "sweep" / cell / "meta.json").read_text())
        assert str(meta["config"]["sigma"]) in cell


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("sweep", ["sigma=0.1,abc,0.2",
                                   "initial_condition.k=1,64,2",
                                   "sigma", "sigma=", "sigma=,"])
def test_sweep_bad_value_runs_no_cell(tmp_path, monkeypatch, threads, sweep):
    # every cell is validated, initial condition included, before the first
    # cell starts
    monkeypatch.setenv("MUSKAT_THREADS", threads)
    path, _ = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["simulate", "--config", path, "--out", str(out),
               "--sweep", sweep])
    assert rc == 1
    assert not out.exists() or os.listdir(out) == []


REPEATS = "(a value given twice, or a key the run does not read)"


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "output_dir=x,y"],
     f"--sweep output_dir=y: repeats the run of output_dir=x {REPEATS}"),
    (["--seed", "3", "--sweep", "rng_seed=1,2"], "--seed would override"),
    (["--sweep", "verify.dtn.sigmas=0.1,1e-1"],
     "--sweep verify.dtn.sigmas=1e-1: repeats the run of "
     f"verify.dtn.sigmas=0.1 {REPEATS}"),
    (["--sweep", "verify.bounds.samples=100,200"],
     "--sweep verify.bounds.samples=200: repeats the run of "
     f"verify.bounds.samples=100 {REPEATS}"),
], ids=["output_dir", "seed_and_rng_seed", "verify_dtn_sigmas",
        "verify_bounds_samples"])
def test_sweep_of_an_overridden_key_runs_no_cell(tmp_path, monkeypatch,
                                                 capsys, argv, message):
    # the sweep names each cell's directory, --seed sets every cell's
    # rng_seed, and a run reads no verify.* key: sweeping any of them
    # would write identical cells
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    path, _ = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", path, "--out", str(out)] + argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, sweep", [
    ("verify", "rng_seed=1,2"), ("verify", "epsilon=0.1,0.2"),
    ("lubrication", "depth=finite,infinite"),
], ids=["single_mode_rng_seed", "wnl1_epsilon", "lubrication_depth"])
def test_sweep_of_a_key_the_run_does_not_read_runs_no_cell(
        tmp_path, monkeypatch, capsys, config, sweep):
    # a single_mode run draws nothing from rng_seed, the small-slope
    # models read no epsilon, and the thin film reads no depth: each pair
    # of cells would write one trajectory twice
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    text = open(os.path.join(REPO, "configs", f"{config}.cfg")).read()
    path = tmp_path / "run.cfg"
    path.write_text(re.sub(r"\nt_end = \S+\n", "\nt_end = 0.1\n", text))
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", str(path), "--out", str(out),
                 "--sweep", sweep]) == 1
    key, values = sweep.split("=")
    first, second = values.split(",")
    assert (f"error: --sweep {key}={second}: repeats the run of "
            f"{key}={first} {REPEATS}") in capsys.readouterr().err
    assert not out.exists()


def test_seed_draws_the_random_initial_condition(tmp_path, monkeypatch):
    # rng_seed, set by --seed or swept, is the seed of random_decay
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    text = open(os.path.join(REPO, "configs", "lubrication.cfg")).read()
    assert "t_end = 24.0" in text
    path = tmp_path / "lub.cfg"
    path.write_text(text.replace("t_end = 24.0", "t_end = 0.1"))

    def simulate(out, *extra):
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / out), *extra]) == 0
        return tmp_path / out

    def energy(run_dir):
        return (run_dir / "energy.csv").read_bytes()

    assert (energy(simulate("s0", "--seed", "0"))
            != energy(simulate("s5", "--seed", "5")))
    sweep = simulate("sweep", "--sweep", "rng_seed=1,2")
    assert energy(sweep / "rng_seed=1") != energy(sweep / "rng_seed=2")
    # the shipped config's own seed is rng_seed = 1
    assert energy(simulate("plain")) == energy(sweep / "rng_seed=1")


RETIRED_KEYS = ["initial_condition.seed = 1", "verify.dtn.h_amplitude = 2",
                "verify.dtn.psi_amplitude = 2", "verify.flux.f_amplitude = 2",
                "verify.flux.h_amplitude = 2", "verify.flux.n_modes = 8"]


@pytest.mark.parametrize("command", [["simulate"], ["verify", "bounds"],
                                     ["verify", "dtn"], ["verify", "flux"],
                                     ["verify", "decay"]],
                         ids=["simulate", "bounds", "dtn", "flux", "decay"])
@pytest.mark.parametrize("line", RETIRED_KEYS)
def test_retired_keys_exit_1(tmp_path, capsys, command, line):
    # rng_seed seeds random_decay, sigmas / epsilon with a linear datum
    # cover the amplitudes of the strip checks' cosines, and verify flux
    # takes every mode its n_x resolves
    text = open(os.path.join(REPO, "configs", "verify.cfg")).read()
    single = "initial_condition = single_mode\ninitial_condition.k = 1\n"
    assert single in text
    text = text.replace(single, "initial_condition = random_decay\n")
    load_config(parse_config_text(text))
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(f"{text}\n{line}\n")
    out = tmp_path / "res"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    key = line.split(" ")[0]
    # verify.* keys are named in full, initial_condition.* ones by their
    # last part
    assert "unknown" in err
    assert (key if key.startswith("verify.") else key.rpartition(".")[2]) in err
    assert not out.exists()


def test_readme_names_every_config_key():
    # README's config section names every key load_config accepts
    readme = open(os.path.join(REPO, "README.md")).read()
    section = readme.split("### Config format", 1)[1].split("\n## ", 1)[0]
    section = section.split("\n### ", 1)[0]
    keys = set(_KNOWN_TOP)
    keys |= {f"initial_condition.{key}" for keys_of_kind in _IC_KINDS.values()
             for key in keys_of_kind}
    keys |= {f"verify.{suite}.{key}" for suite, suite_keys
             in VERIFY_DEFAULTS.items() for key in suite_keys}
    missing = {key for key in keys
               if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w.])",
                                section)}
    assert not missing, sorted(missing)


def test_sweep_too_many_keys(tmp_path, capsys):
    path, _ = write_cfg(tmp_path)
    rc = main(["simulate", "--config", path, "--sweep", "a=1", "--sweep", "b=2",
               "--sweep", "c=3"])
    assert rc == 1


@pytest.mark.parametrize("sweeps", [["dt=1e-3,2e-3", "dt=5e-4"],
                                    ["dt=1e-3,1e-3"], ["dt=1e-3,0.001"],
                                    ["initial_condition.k=2,02"],
                                    ["dt=1e-3,2e-3", "sigma=0.1,1e-1"],
                                    ["dt=1e-3,0.001", "sigma=0,0.1"]])
def test_sweep_repeated_key_or_value_runs_no_cell(tmp_path, monkeypatch,
                                                  capsys, sweeps):
    # a key swept twice would run every cell at its last value, a value
    # swept twice (also as another spelling of one number) would run two
    # cells into one directory or one cell twice
    monkeypatch.setenv("MUSKAT_THREADS", "1")
    path, _ = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    argv = ["simulate", "--config", path, "--out", str(out)]
    for spec in sweeps:
        argv += ["--sweep", spec]
    assert main(argv) == 1
    assert "given twice" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bounds_cli(tmp_path):
    p = tmp_path / "b.cfg"
    p.write_text("theta = 1.0\nlambda = 1.0\nsigma = 1.0\n"
                 "verify.bounds.samples = 30\nverify.bounds.n_modes = 32\n")
    out = str(tmp_path / "rep")
    assert main(["verify", "bounds", "--config", str(p), "--out", out]) == 0
    rep = json.loads((tmp_path / "rep" / "bounds_report.json").read_text())
    assert rep["passed"]


def _seeded_reports(tmp_path, kind, text, seed, *names):
    """The bytes of names under kind's report directory, three ways: the
    config text (whose rng_seed is not seed) as given, run with --seed
    seed, and with rng_seed = seed written into it."""
    assert "rng_seed" not in text
    cfg = tmp_path / "plain.cfg"
    cfg.write_text(text + "rng_seed = 0\n")
    seeded = tmp_path / "seeded.cfg"
    seeded.write_text(text + f"rng_seed = {seed}\n")
    runs = [(cfg, []), (cfg, ["--seed", str(seed)]), (seeded, [])]
    reports = []
    for path, extra in runs:
        out = tmp_path / "rep"  # one directory: meta.json names it
        assert main(["verify", kind, "--config", str(path), "--out", str(out),
                     *extra]) == 0
        reports.append([(out / name).read_bytes() for name in names])
        shutil.rmtree(out)
    return reports


def test_verify_bounds_seed_is_rng_seed(tmp_path):
    plain, flag, config = _seeded_reports(
        tmp_path, "bounds", "theta = 1.0\nlambda = 1.0\nsigma = 1.0\n"
        "verify.bounds.samples = 30\nverify.bounds.n_modes = 32\n", 7,
        "bounds_report.json")
    assert flag == config != plain


def test_verify_decay_seed_is_rng_seed(tmp_path):
    text = BASE_CFG.format(t_end=0.1, out="unused").replace(
        "rng_seed = 7\n", "").replace(
        "initial_condition = single_mode\ninitial_condition.k = 1\n",
        "initial_condition = random_decay\n")
    plain, flag, config = _seeded_reports(
        tmp_path, "decay", text, 5, "decay_report.json",
        "trajectory/energy.csv", "trajectory/meta.json")
    assert flag == config
    assert plain[1] != config[1]


@pytest.mark.parametrize("n_modes", [0, -3])
def test_verify_bounds_without_modes_exit_1(tmp_path, n_modes):
    # a usage error, not a division by zero or numpy's empty-array error
    import subprocess
    import sys

    import muskat

    p = tmp_path / "b.cfg"
    p.write_text(f"theta = 1.0\nverify.bounds.n_modes = {n_modes}\n")
    out = tmp_path / "rep"
    src = os.path.dirname(os.path.dirname(os.path.abspath(muskat.__file__)))
    res = subprocess.run(
        [sys.executable, "-m", "muskat.cli", "verify", "bounds", "--config",
         str(p), "--out", str(out)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert res.returncode == 1
    assert "n_modes" in res.stderr and "Traceback" not in res.stderr
    assert not (out / "bounds_report.json").exists()


def test_verify_dtn_grid_limited_exit_2(tmp_path, capsys):
    p = tmp_path / "d.cfg"
    p.write_text("theta = 1.0\nverify.dtn.n_x = 64\nverify.dtn.n_z = 20\n"
                 "verify.dtn.n_modes = 16\nverify.dtn.sigmas = 0.2,0.1,0.05\n")
    rc = main(["verify", "dtn", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "grid-limited" in capsys.readouterr().err


def test_verify_dtn_single_sigma_is_a_config_error(tmp_path, capsys):
    # one steepness fits no slope: a usage error before any solve, not a
    # numerical failure
    p = tmp_path / "d.cfg"
    p.write_text("theta = 1.0\nverify.dtn.n_x = 64\nverify.dtn.n_z = 20\n"
                 "verify.dtn.n_modes = 16\nverify.dtn.sigmas = 0.1\n")
    rc = main(["verify", "dtn", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error: sigmas" in capsys.readouterr().err
    assert not (tmp_path / "o" / "dtn_report.json").exists()


def test_verify_dtn_modes_past_n_modes_exit_1(tmp_path, capsys):
    # modes 40 + 30 exceed the 64 modes the model's B(h, psi) carries
    p = tmp_path / "d.cfg"
    p.write_text("theta = 1.0\nverify.dtn.h_mode = 40\n"
                 "verify.dtn.psi_mode = 30\n")
    out = tmp_path / "o"
    assert main(["verify", "dtn", "--config", str(p), "--out", str(out)]) == 1
    assert "exceeds n_modes" in capsys.readouterr().err
    assert not (out / "dtn_report.json").exists()


def test_euler_past_its_stability_limit_exit_1(tmp_path, capsys):
    # configs/verify.cfg's dt is set for RK4 (dt * max_k rate(k) = 2.66 <
    # 2.785); Euler's limit is 2, so the sweep stops before any cell runs
    # and names dt, the largest rate and the limit
    cfg = os.path.join(REPO, "configs", "verify.cfg")
    out = tmp_path / "sweep"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--sweep", "scheme=euler,rk4"]) == 1
    err = capsys.readouterr().err
    assert ("dt = 0.0026 is past the euler stability limit: dt * max_k "
            "rate(k) = 2.662 > 2.0 (largest rate 1024, so dt <= 0.00195313)"
            in err)
    assert not out.exists()


def test_verify_dtn_passes_on_a_fine_grid(tmp_path, capsys):
    # the default sigmas on a 256 x 128 strip: the quadratic remainder stands
    # clear of the discretization floor, and its slope is 2
    p = tmp_path / "d.cfg"
    p.write_text("theta = 1.0\nverify.dtn.n_x = 256\nverify.dtn.n_z = 128\n")
    out = tmp_path / "o"
    assert main(["verify", "dtn", "--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "dtn_report.json").read_text())
    assert not rep["grid_limited"]
    assert rep["slope"] == pytest.approx(2.0, abs=0.3)
    assert "passed=True" in capsys.readouterr().out


def test_verify_flux_h_mode_reaches_the_check(tmp_path, capsys):
    # verify.flux.h_mode = 1 checks the flux over a wavy interface, which
    # changes the remainders the flat interface gives
    base = ("theta = 1.0\nepsilon = 0.1\nverify.flux.n_x = 64\n"
            "verify.flux.n_z = 17\n")
    reports = {}
    for name, extra in (("flat", ""), ("wavy", "verify.flux.h_mode = 1\n")):
        p = tmp_path / f"{name}.cfg"
        p.write_text(base + extra)
        out = tmp_path / name
        assert main(["verify", "flux", "--config", str(p), "--out",
                     str(out)]) == 0
        assert "passed=True" in capsys.readouterr().out
        reports[name] = json.loads((out / "flux_report.json").read_text())
    wavy, flat = reports["wavy"], reports["flat"]
    assert wavy["flux"]["remainders"] != flat["flux"]["remainders"]
    assert wavy["phi"]["remainders"] != flat["phi"]["remainders"]


@pytest.mark.parametrize("command", [["simulate"], ["verify", "bounds"],
                                     ["verify", "dtn"]])
def test_malformed_verify_value_exit_1_for_every_command(tmp_path, capsys,
                                                         command):
    # every verify.* value is parsed at load, whichever command reads it
    path, _ = write_cfg(tmp_path, extra=(
        "verify.dtn.n_x = abc\nverify.bounds.samples = 10\n"
        "verify.bounds.n_modes = 32\n"))
    out = tmp_path / "res"
    assert main(command + ["--config", path, "--out", str(out)]) == 1
    assert "error: verify.dtn.n_x: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, lines, message", [
    ("flux", "verify.flux.n_x = 6.5", "verify.flux.n_x"),
    ("flux", "verify.flux.n_z = 8", "n_z"),
    ("dtn", "verify.dtn.n_x = 64\nverify.dtn.n_z = 20\nverify.dtn.sigmas = 0.1",
     "sigmas"),
    ("bounds", "verify.bounds.samples = 1", "sample_count"),
    ("decay", "initial_condition.k = 100", "initial_condition.k"),
], ids=["bad_value", "thin_strip", "single_sigma", "one_sample",
        "ic_out_of_range"])
def test_rejected_verify_config_creates_no_out_dir(tmp_path, capsys, kind,
                                                   lines, message):
    # the report directory is made only once there is a report to write
    p = tmp_path / "v.cfg"
    p.write_text(f"theta = 1.0\nlambda = 1.0\n{lines}\n")
    out = tmp_path / "rep"
    assert main(["verify", kind, "--config", str(p), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_flux_solve_failure_exit_2(tmp_path, monkeypatch, capsys):
    # a strip solve failure is a SolverError, which main maps to exit 2,
    # in either strip check
    import muskat.strip as strip_mod

    monkeypatch.setattr(strip_mod, "CG_MAXITER", 0)
    p = tmp_path / "f.cfg"
    p.write_text("theta = 1.0\nepsilon = 0.1\nverify.flux.n_x = 32\n"
                 "verify.flux.n_z = 17\nverify.dtn.n_x = 32\n"
                 "verify.dtn.n_z = 17\n")
    for kind in ("flux", "dtn"):
        out = tmp_path / kind
        assert main(["verify", kind, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("solver failure: strip CG solve failed"), kind
        assert not out.exists()


def test_verify_decay_cli(tmp_path):
    path, _ = write_cfg(tmp_path, t_end=0.4)
    out = str(tmp_path / "dec")
    assert main(["verify", "decay", "--config", path, "--out", out]) == 0
    rep = json.loads((tmp_path / "dec" / "decay_report.json").read_text())
    assert rep["monotone_energy"]["passed"]
    assert rep["exponential_decay"]["passed"]
    meta = json.loads(
        (tmp_path / "dec" / "trajectory" / "meta.json").read_text())
    assert "checks" in meta


def test_verify_decay_cli_rateless_regime(tmp_path):
    # lambda = 0: the report carries the dyadic-window trend instead of a
    # fitted rate
    p = tmp_path / "nolam.cfg"
    p.write_text(BASE_CFG.format(t_end=0.4, out=str(tmp_path / "t")).replace(
        "lambda = 1.0", "lambda = 0.0"))
    out = str(tmp_path / "dec0")
    assert main(["verify", "decay", "--config", str(p), "--out", out]) == 0
    rep = json.loads((tmp_path / "dec0" / "decay_report.json").read_text())
    assert rep["a0_dyadic_trend"]["passed"]
    assert "exponential_decay" not in rep


def test_verify_decay_report_matches_recomputed_checks(tmp_path):
    # the CLI's report and the checks recomputed from the run directory's
    # files take the same branch: rate fit (wnl1, lambda > 0), dyadic trend
    # (wnl1, lambda = 0), rate fit through the thin film where rate(1) is a
    # lower bound (lambda/4 >= sqrt(delta)*theta) and dyadic trend where it
    # is not (lambda = 0)
    from muskat.diagnostics import verify_trajectory_dir

    thin = {"model = wnl1": "model = lubrication",
            "sigma = 0.1": "delta = 0.01\nepsilon = 0.1"}
    cases = {
        "rate": ({}, "exponential_decay"),
        "trend": ({"lambda = 1.0": "lambda = 0.0"}, "a0_dyadic_trend"),
        "thin_film": (thin, "exponential_decay"),
        "thin_film_lam0": ({**thin, "lambda = 1.0": "lambda = 0.0"},
                           "a0_dyadic_trend"),
    }
    for name, (edits, branch) in cases.items():
        text = BASE_CFG.format(t_end=0.4, out=str(tmp_path / f"{name}_sim"))
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        code = main(["verify", "decay", "--config", str(cfg), "--out", str(out)])
        rep = json.loads((out / "decay_report.json").read_text())
        recomputed = verify_trajectory_dir(str(out / "trajectory"))
        assert recomputed.pop("energy_consistency")["passed"]
        assert recomputed.pop("run_complete")["passed"]
        assert rep == json.loads(json.dumps(recomputed)), name
        assert branch in rep, name
        assert code == (0 if all(c["passed"] for c in rep.values()) else 2)


def test_plot_outputs(tmp_path):
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    assert main(["plot", out]) == 0
    svg = (tmp_path / "traj" / "norms.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert os.path.isfile(os.path.join(out, "profiles.svg"))
    assert main(["plot", out, "--log"]) == 0


def test_rerun_into_one_directory_leaves_no_stale_snapshots(tmp_path):
    # the second run deletes the first run's snapshot files it does not
    # rewrite, and nothing else; plot draws the profiles meta.json lists
    path, out = write_cfg(tmp_path, t_end=0.04)
    text = open(path).read().replace("snapshot_cadence = 2",
                                     "snapshot_cadence = 5")
    snap_dir = tmp_path / "traj" / "snapshots"

    def simulate(cadence):
        with open(path, "w") as fh:
            fh.write(text.replace("output_cadence = 5",
                                  f"output_cadence = {cadence}"))
        assert main(["simulate", "--config", path]) == 0

    simulate(1)
    assert len(os.listdir(snap_dir)) == 5
    (snap_dir / "notes.txt").write_text("not a snapshot\n")
    simulate(4)
    meta = json.loads((tmp_path / "traj" / "meta.json").read_text())
    assert meta["snapshots"] == [0, 5]
    assert sorted(os.listdir(snap_dir)) == ["notes.txt", "t_000000.csv",
                                            "t_000005.csv"]
    assert main(["plot", out]) == 0
    svg = (tmp_path / "traj" / "profiles.svg").read_text()
    assert "t_000005" in svg and "t_000020" not in svg


def test_plot_log_chart_annotates_fitted_rate(tmp_path):
    # 200 steps at cadence 5 gives 41 records, enough for the rate fit
    path, out = write_cfg(tmp_path, t_end=0.4)
    assert main(["simulate", "--config", path]) == 0
    assert main(["plot", out, "--log"]) == 0
    svg = (tmp_path / "traj" / "norms.svg").read_text()
    assert "fitted A0 decay rate" in svg


@pytest.mark.parametrize("sweep", [[], ["--sweep", "sigma=0.05,0.1"]],
                         ids=["single", "two_cells"])
def test_uncreatable_output_dir_exit_1_before_any_cell(tmp_path, monkeypatch,
                                                       capsys, sweep):
    # every cell's directory is made before the first cell runs, so a path
    # under a regular file is a usage error, not a failure of each cell
    monkeypatch.setenv("MUSKAT_THREADS", "2")
    path, _ = write_cfg(tmp_path)
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "res")
    for command in (["simulate", *sweep], ["verify", "decay"]):
        assert main(command + ["--config", path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert "partial output retained" not in err
        assert "Traceback" not in err


def test_sweep_process_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("MUSKAT_THREADS", "2")
    path, _ = write_cfg(tmp_path)
    out = str(tmp_path / "pool")
    assert main(["simulate", "--config", path, "--out", out,
                 "--sweep", "sigma=0.05,0.1"]) == 0
    assert sorted(os.listdir(out)) == ["sigma=0.05", "sigma=0.1"]
    for cell in os.listdir(out):
        assert os.path.isfile(os.path.join(out, cell, "energy.csv"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_cell_error_keeps_every_cell(tmp_path, monkeypatch, capsys,
                                           threads):
    # a non-solver exception in one of two cells: that cell reports it and
    # keeps its partial output, the other completes, the sweep exits 2
    from muskat import diagnostics

    monkeypatch.setenv("MUSKAT_THREADS", threads)
    real = diagnostics.make_record

    def broken(table, t, h, dth, iters, params):
        if params.sigma == 0.1 and t > 0.015:
            raise KeyError("injected")
        return real(table, t, h, dth, iters, params)

    monkeypatch.setattr(diagnostics, "make_record", broken)
    path, _ = write_cfg(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["simulate", "--config", path, "--out", str(out),
               "--sweep", "sigma=0.05,0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "sigma=0.1: KeyError: 'injected'" in err
    assert "sigma=0.05" not in err
    good = json.loads((out / "sigma=0.05" / "meta.json").read_text())
    assert "failed" not in good and good["records"] == 6
    bad = json.loads((out / "sigma=0.1" / "meta.json").read_text())
    assert "injected" in bad["failed"] and bad["records"] == 2
    rows = (out / "sigma=0.1" / "energy.csv").read_text().splitlines()
    assert len(rows) == 1 + 2


def test_verify_decay_thin_film_config_passes(tmp_path):
    # configs/lubrication.cfg decays at about its slowest linear rate,
    # rate(1) = 0.114; held to the small-slope bound 0.331 it could not pass
    text = open(os.path.join(REPO, "configs", "lubrication.cfg")).read()
    assert "t_end = 24.0" in text
    cfg = tmp_path / "lub.cfg"
    cfg.write_text(text.replace("t_end = 24.0", "t_end = 4.8"))
    out = tmp_path / "rep"
    assert main(["verify", "decay", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "decay_report.json").read_text())["exponential_decay"]
    assert rep["passed"]
    assert 0.102 < rep["rate_bound"] < 0.103 < 0.114 < rep["fitted_rate"] < 0.331


def _fresh_interpreter(code):
    """stdout of ``code`` run in a new interpreter that finds the package."""
    import subprocess
    import sys

    import muskat

    src = os.path.dirname(os.path.dirname(os.path.abspath(muskat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.strip()


def test_import_loads_no_scipy_module():
    # start-up cost: the package and its CLI load numpy and numpy.random
    # (which the seeded runs use) and no scipy module, checked in a fresh
    # interpreter, as every CLI call and sweep worker starts
    out = _fresh_interpreter(
        "import sys, muskat, muskat.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy'), 'numpy.random' in sys.modules)")
    assert out == "[] True"


def test_scipy_fft_imports_after_the_package():
    # scipy.fft finds the binding the package loaded and transforms as usual
    out = _fresh_interpreter(
        "import numpy as np, muskat, scipy.fft; x = np.arange(8.0);"
        " print(np.array_equal(scipy.fft.rfft(x), muskat.spectral.rfft(x)),"
        " scipy.fft._pocketfft.basic.pfft is muskat.spectral.pocketfft)")
    assert out == "True True"


def test_meta_contains_final_solve_report(tmp_path):
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    meta = json.loads((tmp_path / "traj" / "meta.json").read_text())
    rep = meta["final_solve"]
    assert rep["converged"] is True
    assert rep["iterations"] >= 1
    assert rep["contraction_estimate"] < 1.0
    assert rep["norm_order"] == 3


def test_plot_single_point_chart(tmp_path):
    path, out = write_cfg(tmp_path, t_end=0.0)
    assert main(["simulate", "--config", path]) == 0
    assert main(["plot", out]) == 0
    assert "circle" in (tmp_path / "traj" / "norms.svg").read_text()


def test_plot_corrupt_csv_names_row(tmp_path, capsys):
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    energy = tmp_path / "traj" / "energy.csv"
    lines = energy.read_text().splitlines()
    damages = {
        "could not convert": lines[3].replace(",", ",bogus_", 1),
        "expected 11 columns, got 12": lines[3] + ",1",
    }
    for reason, bad in damages.items():
        energy.write_text("\n".join(lines[:3] + [bad] + lines[4:]) + "\n")
        rc = main(["plot", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"corrupt energy.csv: {energy}, line 4: {reason}" in err


def test_plot_missing_dir(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "nope")]) == 1


@pytest.mark.parametrize("edit", [
    lambda meta: meta.pop("snapshots"),
    lambda meta: meta.update(snapshots=3),
    lambda meta: meta.update(snapshots=["t_000000"]),
], ids=["missing", "not_a_list", "not_indices"])
def test_plot_corrupt_meta_writes_no_chart(tmp_path, capsys, edit):
    # meta.json is read, and its snapshot list checked, before any chart
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    meta_path = tmp_path / "traj" / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    assert main(["plot", out]) == 1
    assert "error: corrupt meta.json: " in capsys.readouterr().err
    assert not (tmp_path / "traj" / "norms.svg").exists()


@pytest.mark.parametrize("damage", ["delete", "corrupt"])
def test_plot_bad_snapshot_writes_no_chart(tmp_path, capsys, damage):
    # every profile drawn is loaded before any chart is written
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    snaps = sorted((tmp_path / "traj" / "snapshots").iterdir())
    assert len(snaps) > 1
    if damage == "delete":
        snaps[-1].unlink()
    else:
        snaps[-1].write_text("k,re,im\n0,zero,0\n")
    assert main(["plot", out]) == 1
    err = capsys.readouterr().err
    assert str(snaps[-1]) in err
    assert ("missing snapshot" if damage == "delete" else "corrupt snapshot") in err
    assert not (tmp_path / "traj" / "norms.svg").exists()
    assert not (tmp_path / "traj" / "profiles.svg").exists()


def _edit_meta(edit):
    def damage(run):
        meta = json.loads((run / "meta.json").read_text())
        edit(meta)
        (run / "meta.json").write_text(json.dumps(meta))
    return damage


def _last_snapshot(run):
    return sorted((run / "snapshots").iterdir())[-1]


def _break_row(run):
    lines = (run / "energy.csv").read_text().splitlines(True)
    (run / "energy.csv").write_text("".join(lines[:3] + ["0.1,bogus\n"]
                                            + lines[4:]))


def _append_bytes(path, data):
    with open(path, "ab") as fh:
        fh.write(data)


RUN_DAMAGES = {
    "no_energy_csv": lambda run: (run / "energy.csv").unlink(),
    "unparsable_row": _break_row,
    "energy_bad_byte": lambda run: _append_bytes(run / "energy.csv",
                                                 b"\xff\xfe"),
    "meta_not_json": lambda run: (run / "meta.json").write_text("{not json"),
    "no_params": _edit_meta(lambda m: m.pop("params")),
    "params_not_dict": _edit_meta(lambda m: m.update(params=[0.1])),
    "no_records": _edit_meta(lambda m: m.pop("records")),
    "records_not_int": _edit_meta(lambda m: m.update(records="11")),
    "no_snapshots": _edit_meta(lambda m: m.pop("snapshots")),
    "snapshots_not_list": _edit_meta(lambda m: m.update(snapshots=3)),
    "corrupt_snapshot": lambda run: _last_snapshot(run).write_text(
        "k,re,im\n0,zero,0\n"),
    "snapshot_bad_byte": lambda run: _append_bytes(_last_snapshot(run),
                                                   b"\xff\xfe"),
}


@pytest.mark.parametrize("damage", RUN_DAMAGES.values(), ids=RUN_DAMAGES)
def test_plot_and_reverification_refuse_a_damaged_run_alike(
        tmp_path, capsys, damage):
    # plot and verify_trajectory_dir read a run through the same readers,
    # so each damage gives one message, and plot writes no chart
    from muskat.diagnostics import verify_trajectory_dir

    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    damage(tmp_path / "traj")
    with pytest.raises(ValueError) as exc:
        verify_trajectory_dir(out)
    assert main(["plot", out]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not list((tmp_path / "traj").glob("*.svg"))


@pytest.mark.parametrize("name", ["energy.csv", "snapshot"])
def test_plot_names_the_file_and_row_of_a_bad_byte(tmp_path, capsys, name):
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    run = tmp_path / "traj"
    bad = run / "energy.csv" if name == "energy.csv" else _last_snapshot(run)
    n_lines = len(bad.read_text().splitlines())
    _append_bytes(bad, b"\xff\xfe")
    assert main(["plot", out]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert re.search(rf"(line|row) {n_lines + 1}: expected \d+ columns", err)


@pytest.mark.parametrize("damage", ["missing", "malformed_line", "bad_byte"])
def test_simulate_and_verify_refuse_a_bad_config_alike(tmp_path, capsys,
                                                       damage):
    # both commands read the file through config.read_config
    cfg = tmp_path / "bad.cfg"
    reason = {"missing": "No such file or directory",
              "malformed_line": "line 2: expected 'key = value', got "
                                "'bogus line'",
              "bad_byte": "'utf-8' codec can't decode byte 0xff"}[damage]
    if damage != "missing":
        cfg.write_bytes(b"model = wnl1\n" + (b"bogus line\n"
                        if damage == "malformed_line" else b"\xff\n"))
    errs = []
    for argv in (["simulate"], ["verify", "bounds"]):
        assert main(argv + ["--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: cannot read config {cfg}: ")
    assert reason in errs[0] and "Traceback" not in errs[0]
    assert not (tmp_path / "out").exists()


def test_snapshot_mean_mode_zero_in_files(tmp_path):
    path, out = write_cfg(tmp_path, t_end=0.05)
    assert main(["simulate", "--config", path]) == 0
    snap_dir = tmp_path / "traj" / "snapshots"
    for name in os.listdir(snap_dir):
        h = load_spectrum_csv(snap_dir / name)
        assert h.coeffs[0] == 0.0


def test_from_file_round_trip_through_cli(tmp_path):
    # write a snapshot, feed it back as the initial condition
    path, out = write_cfg(tmp_path, t_end=0.01)
    assert main(["simulate", "--config", path]) == 0
    snap = sorted((tmp_path / "traj" / "snapshots").iterdir())[-1]
    cfg2 = tmp_path / "follow.cfg"
    cfg2.write_text(
        f"n_modes = 32\ndt = 0.002\nt_end = 0.002\ntheta = 1.0\n"
        f"output_dir = {tmp_path / 'follow'}\n"
        f"initial_condition = from_file\ninitial_condition.path = {snap}\n")
    assert main(["simulate", "--config", str(cfg2)]) == 0
    first = load_spectrum_csv(tmp_path / "follow" / "snapshots" / "t_000000.csv")
    orig = load_spectrum_csv(snap)
    assert np.all(first.coeffs == orig.coeffs)


@pytest.mark.parametrize("rows, where", [
    ("0,0,0\n1,abc,0\n", "row 3: could not convert"),
    ("0,0,0\n1,0.5,nan\n", "row 3: non-finite"),
    ("0,0,0\n1,0.5,inf\n", "row 3: non-finite"),
    ("0,0,0\n1.0,0.5,0\n", "row 3: invalid literal"),
    ("", "0 rows"),
    ("0,0,0\n", "1 rows"),
], ids=["unparsable", "nan", "inf", "mode_not_int", "no_rows", "one_row"])
def test_from_file_damage_names_file_and_row(tmp_path, capsys, rows, where):
    spectrum = tmp_path / "h0.csv"
    spectrum.write_text("k,re,im\n" + rows)
    cfg = tmp_path / "follow.cfg"
    cfg.write_text(
        f"n_modes = 32\ntheta = 1.0\noutput_dir = {tmp_path / 'follow'}\n"
        "initial_condition = from_file\n"
        f"initial_condition.path = {spectrum}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert f"error: {spectrum}: {where}" in capsys.readouterr().err
    assert not (tmp_path / "follow").exists()


@pytest.mark.parametrize("key, value, message", [
    ("verify.flux.n_x = 256", "verify.flux.n_x = 256.5", "verify.flux.n_x"),
    ("verify.flux.n_z = 65", "verify.flux.n_z = 8", "n_z"),
])
def test_verify_keys_rejected_not_truncated(tmp_path, capsys, key, value,
                                            message):
    # a non-integer grid size and a strip too thin for the flux check stop
    # the run with exit code 1 instead of running a truncated or clamped grid
    text = open(os.path.join(REPO, "configs", "verify.cfg")).read()
    assert key in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(key, value))
    out = tmp_path / "rep"
    assert main(["verify", "flux", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "flux_report.json").exists()


def test_verify_decay_thin_film_without_rate_checks_trend(tmp_path):
    # lambda = 0: the short waves of the thin film decay more slowly than
    # mode 1, so rate(1) bounds nothing and the rateless dyadic trend is
    # checked; the fit would find 0.026 against a bound of 0.082
    cfg = tmp_path / "lam0.cfg"
    cfg.write_text(
        "model = lubrication\nchi = 1\nlambda = 0\ntheta = 1.0\n"
        "delta = 0.01\nepsilon = 0.1\nn_modes = 32\ndt = 0.02\nt_end = 40\n"
        "output_cadence = 10\ninitial_condition = random_decay\n"
        "initial_condition.p = 1\nrng_seed = 1\n")
    out = tmp_path / "rep"
    assert main(["verify", "decay", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "decay_report.json").read_text())
    assert set(rep) == {"monotone_energy", "a0_dyadic_trend"}
    assert rep["a0_dyadic_trend"]["passed"]


@pytest.mark.parametrize("key, value, message", [
    ("verify.flux.n_x = 256", "verify.flux.nx = 64", "verify.flux.nx"),
    ("initial_condition.amplitude = 1e-3", "initial_condition.amplitud = 1e-3",
     "amplitud"),
])
def test_misspelled_section_keys_exit_1(tmp_path, capsys, key, value,
                                        message):
    # a misspelled verify.* or initial_condition.* key stops the run, as a
    # misspelled top-level key does, instead of running at the default
    text = open(os.path.join(REPO, "configs", "verify.cfg")).read()
    assert key in text
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text.replace(key, value))
    with pytest.raises(ConfigError, match="unknown"):
        load_config(str(cfg))
    out = tmp_path / "rep"
    assert main(["verify", "flux", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "flux_report.json").exists()


def test_shipped_configs_and_meta_round_trip_load(tmp_path):
    # every shipped config loads, and so does its run's meta.json "config"
    for name in ("decay", "lubrication", "verify"):
        cfg, params = load_config(os.path.join(REPO, "configs", f"{name}.cfg"))
        assert load_config(json.loads(json.dumps(cfg.as_dict()))) == (cfg,
                                                                     params)


def test_library_run_reverifies_with_the_params_it_used(tmp_path):
    # README's library example (at N = 32): the config leaves lambda and
    # sigma at their defaults, the params set them; the run directory must
    # re-verify with the params the run used
    from muskat import ModelParams, SolverConfig, SpectralField, run
    from muskat.diagnostics import decay_checks, verify_trajectory_dir

    p = ModelParams(chi=1, lam=1.0, theta=1.0, sigma=0.1, model="wnl1")
    h0 = SpectralField.cosine(1, 1e-3, 32)
    cfg = SolverConfig(n_modes=32, dt=2e-3, t_end=0.1, output_cadence=1,
                       output_dir=str(tmp_path / "decay"))
    traj = run(h0, p, cfg)
    meta = json.loads((tmp_path / "decay" / "meta.json").read_text())
    assert {k: meta["config"][k] for k in meta["params"]} == meta["params"]
    expected = decay_checks(traj.records, p)
    recomputed = verify_trajectory_dir(str(tmp_path / "decay"))
    assert recomputed.pop("energy_consistency")["passed"]
    assert recomputed.pop("run_complete")["passed"]
    assert sorted(recomputed) == sorted(expected) == ["exponential_decay",
                                                      "monotone_energy"]
    assert all(recomputed[name]["passed"] == expected[name]["passed"]
               for name in expected)


def test_output_key_sets(tmp_path):
    # the keys of meta.json and of the four reports, as the files carry them
    meta_top = {"checks", "config", "final_solve", "params", "records",
                "rejected_steps", "snapshots", "version"}
    params_keys = {"chi", "delta", "depth", "epsilon", "lambda", "model",
                   "sigma", "theta"}
    config_keys = params_keys | {
        "dt", "initial_condition", "max_iter", "n_modes", "output_cadence",
        "output_dir", "rng_seed", "scheme", "snapshot_cadence", "t_end", "tol",
        "verify"}
    solve_keys = {"contraction_estimate", "converged", "final_residual",
                  "increments", "iterations", "norm_order", "tol"}
    order_keys = {"correlation", "discretization_floor", "expected_slope",
                  "grid_limited", "parameter", "remainders", "slope", "values"}
    verdict_keys = {"first_violation", "max_relative_uptick", "passed",
                    "records"}
    rate_keys = {"degenerate", "fitted_rate", "half_rates", "passed",
                 "rate_bound"}

    path, _ = write_cfg(tmp_path, t_end=0.4, extra=(
        "verify.bounds.samples = 10\nverify.bounds.n_modes = 32\n"
        "verify.dtn.n_x = 64\nverify.dtn.n_z = 20\nverify.dtn.n_modes = 16\n"
        "verify.flux.n_x = 32\nverify.flux.n_z = 17\n"))
    out = tmp_path / "rep"
    for kind in ("bounds", "dtn", "flux", "decay"):
        main(["verify", kind, "--config", path, "--out", str(out)])

    def keys(name):
        return json.loads((out / name).read_text())

    meta = keys("trajectory/meta.json")
    assert set(meta) == meta_top
    assert set(meta["config"]) == config_keys
    assert set(meta["config"]["initial_condition"]) == {"amplitude", "k",
                                                         "kind"}
    assert set(meta["params"]) == params_keys
    assert set(meta["final_solve"]) == solve_keys
    bounds = keys("bounds_report.json")
    assert set(bounds) == {"checks", "passed"}
    assert set(bounds["checks"]) == {"base_symbol_inverse", "commutator_ratio",
                                     "damped_high_mode",
                                     "sign_part_factor_two"}
    assert set(keys("dtn_report.json")) == order_keys | {"first_order_errors"}
    flux = keys("flux_report.json")
    assert set(flux) == {"flux", "phi"}
    assert set(flux["flux"]) == set(flux["phi"]) == order_keys
    decay = keys("decay_report.json")
    assert set(decay) == {"exponential_decay", "monotone_energy"}
    assert set(decay["monotone_energy"]) == verdict_keys
    assert set(decay["exponential_decay"]) == rate_keys
    assert meta["checks"] == decay


# ---------------------------------------------------------------------------
# round trips of random valid configs
# ---------------------------------------------------------------------------

_positive = st.floats(1e-6, 1e3)
_nonnegative = st.floats(0.0, 1e3)
_words = st.text("abc_-./0123456789", max_size=12)


@st.composite
def solver_configs(draw):
    model = draw(st.sampled_from(["wnl1", "wnl2", "lubrication"]))
    delta, epsilon = draw(_positive), draw(_nonnegative)
    sigma = (epsilon * math.sqrt(delta) if model == "lubrication"
             else draw(_nonnegative))
    n_modes = 2 ** draw(st.integers(5, 10))
    kind = draw(st.sampled_from(["single_mode", "random_decay", "from_file"]))
    if kind == "single_mode":
        ic = {"kind": kind, "k": draw(st.integers(1, n_modes)),
              "amplitude": draw(st.floats(-1.0, 1.0))}
    elif kind == "random_decay":
        ic = {"kind": kind, "p": draw(_nonnegative),
              "amplitude": draw(_nonnegative)}
    else:
        ic = {"kind": kind, "path": draw(_words)}
    verify_keys = sorted(f"{suite}.{key}" for suite, keys
                         in VERIFY_DEFAULTS.items() for key in keys)
    return SolverConfig(
        model=model, depth=draw(st.sampled_from(["finite", "infinite"])),
        chi=draw(st.sampled_from([1, -1])), lam=draw(_nonnegative),
        theta=draw(_positive), sigma=sigma, delta=delta, epsilon=epsilon,
        n_modes=n_modes, dt=draw(_positive), t_end=draw(_nonnegative),
        output_cadence=draw(st.integers(1, 1000)),
        snapshot_cadence=draw(st.integers(0, 1000)),
        scheme=draw(st.sampled_from(["rk4", "euler"])),
        tol=draw(st.none() | _positive), max_iter=draw(st.integers(1, 10**4)),
        rng_seed=draw(st.integers(0, 2**64)), output_dir=draw(_words), ic=ic,
        verify=draw(st.dictionaries(st.sampled_from(verify_keys),
                                    st.from_regex(r"[0-9]{1,4}", fullmatch=True),
                                    max_size=4)),
    )


def _config_text(cfg):
    """cfg in the `key = value` format, every key written out."""
    d = cfg.as_dict()
    ic, verify = d.pop("initial_condition"), d.pop("verify")
    lines = [f"{k} = {'auto' if v is None else v}" for k, v in d.items()]
    lines.append(f"initial_condition = {ic.pop('kind')}")
    lines += [f"initial_condition.{k} = {v}" for k, v in ic.items()]
    lines += [f"verify.{k} = {v}" for k, v in verify.items()]
    return "\n".join(lines)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(solver_configs())
@example(SolverConfig(rng_seed=2**60 + 1))
def test_config_round_trips(cfg):
    # through meta.json's "config" dict and through the config file format,
    # every field comes back equal, the params built from them included
    # (integers exactly, also past 2**53)
    params = ModelParams(chi=cfg.chi, lam=cfg.lam, theta=cfg.theta,
                         sigma=cfg.sigma, delta=cfg.delta, epsilon=cfg.epsilon,
                         depth=cfg.depth, model=cfg.model)
    assert load_config(json.loads(json.dumps(cfg.as_dict()))) == (cfg, params)
    text = _config_text(cfg)
    assert load_config(parse_config_text(text)) == (cfg, params), text
