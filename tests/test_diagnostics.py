import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muskat import models
from muskat.cli import main
from muskat.config import ConfigError, SolverConfig, load_config
from muskat.diagnostics import (
    FLOAT_COLUMNS,
    EnergyRecord,
    RecordTable,
    check_a0_dyadic_trend,
    check_exponential_decay,
    check_monotone_decay,
    BOUNDS_CHUNK,
    bound_ratios,
    bound_samples,
    check_operator_bounds,
    energy,
    make_record,
    read_energy_csv,
    verify_trajectory_dir,
    write_run,
)
from muskat.elliptic import NotContractingError
from muskat.integrate import run
from muskat.models import commutator_sign_split, linear_decay_rate
from muskat.params import ModelParams
from muskat.spectral import SpectralField, random_decay_field, wiener_norm

SQ2PI = math.sqrt(2 * math.pi)


def _table(recs):
    """A RecordTable of the EnergyRecords recs, in order."""
    tab = RecordTable()
    for r in recs:
        tab.append(r.t, r.norms, r.energy, r.dth_a0, r.dth_high, r.iters)
    return tab


def wnl(sigma=0.0, lam=0.0, theta=1.0, chi=1, depth="finite", model="wnl1"):
    return ModelParams(chi=chi, lam=lam, theta=theta, sigma=sigma,
                       depth=depth, model=model)


def test_energy_values():
    p = wnl(theta=1.0)
    assert energy(SpectralField.zeros(16), p) == 0.0
    # single cosine: A0 = A3 = sqrt(2 pi)
    e = energy(SpectralField.cosine(1, 1.0, 16), p)
    assert e == pytest.approx((1 + math.tanh(1.0)) * SQ2PI, rel=1e-14)
    # thin film at k = 2: A0 + sqrt(delta) theta A4 = (1 + 16) sqrt(2 pi)
    pl = ModelParams.lubrication(chi=1, lam=0.0, theta=1.0, delta=1.0, epsilon=0.0)
    e2 = energy(SpectralField.cosine(2, 1.0, 16), pl)
    assert e2 == pytest.approx(17 * SQ2PI, rel=1e-14)


def test_record_consistency(rng, tmp_path):
    p = wnl(lam=1.0)
    h = random_decay_field(32, 3, rng)
    tab = RecordTable()
    make_record(tab, 0.5, h, SpectralField.zeros(32), 4, p)
    rec = tab[0]
    expect = rec.norms[0] + p.theta * math.tanh(1.0) * rec.norms[3]
    assert rec.energy == pytest.approx(expect, rel=1e-12)
    (tmp_path / "snapshots").mkdir()
    write_run(str(tmp_path), SolverConfig(), p, tab, [], 0, None)
    back = read_energy_csv(tmp_path / "energy.csv")[0]
    assert back.energy == rec.energy and back.t == rec.t


def test_monotone_decay_verdicts():
    def rec(t, e):
        return EnergyRecord(t, [e] * 6, e, 0.0, 0.0, 0)

    good = [rec(t, math.exp(-t)) for t in np.linspace(0, 1, 20)]
    v = check_monotone_decay(_table(good))
    assert v.passed and v.first_violation is None

    bad = list(good)
    bad[10] = rec(bad[10].t, bad[9].energy * 1.001)
    v2 = check_monotone_decay(_table(bad))
    assert not v2.passed
    assert v2.first_violation[0] == 10

    zero = [rec(t, 0.0) for t in np.linspace(0, 1, 5)]
    assert check_monotone_decay(_table(zero)).passed


def test_exponential_decay_fit_linear_run(tmp_path):
    # single-mode sigma=0 run: exact rate (1+lam/4) tanh1/(1+theta tanh1)
    p = wnl(lam=4.0, theta=1.0)
    cfg = SolverConfig(n_modes=32, dt=0.01, t_end=2.0, output_cadence=2,
                       snapshot_cadence=0, output_dir="")
    traj = run(SpectralField.cosine(1, 1e-3, 32), p, cfg)
    rep = check_exponential_decay(traj.records, p)
    exact = 2 * math.tanh(1.0) / (1 + math.tanh(1.0))
    assert rep.fitted_rate == pytest.approx(exact, rel=1e-6)
    assert rep.fitted_rate >= math.tanh(1.0) / 2 - 0.05
    assert rep.passed
    # the two window fits agree for single-mode data
    assert rep.half_rates[0] == pytest.approx(rep.half_rates[1], rel=1e-4)


def test_dyadic_trend_for_rateless_decay():
    # the lam = 0 small-slope model decays with no guaranteed rate: the A0 sup
    # over dyadic windows must still trend down
    p = wnl(sigma=0.3, lam=0.0, theta=1.0)
    cfg = SolverConfig(n_modes=32, dt=0.01, t_end=4.0, output_cadence=4,
                       snapshot_cadence=0, output_dir="")
    traj = run(SpectralField.cosine(1, 1e-2, 32), p, cfg)
    verdict = check_a0_dyadic_trend(traj.records)
    assert verdict.passed
    # a manufactured late bump is flagged
    def rec(t, a):
        return EnergyRecord(t, [a] * 6, a, 0.0, 0.0, 0)
    rising = [rec(t, math.exp(-t)) for t in np.linspace(0.01, 4.0, 50)]
    rising[-1] = rec(4.0, 5.0)
    assert not check_a0_dyadic_trend(_table(rising)).passed
    with pytest.raises(ValueError):
        check_a0_dyadic_trend(_table(rising[:3]))
    with pytest.raises(ValueError, match="order"):  # windows need sorted t
        check_a0_dyadic_trend(_table(rising[::-1]))


def test_sign_part_two_mode_pair_frozen_values():
    # h = cos 3x, V = cos x: of the four (m, k-m) mode pairs only the two
    # with opposite signs contribute (k = +-2), each with weight
    # |k||k-m|^3 = 2 and bracket -2, so I_A = -sqrt(2 pi) cos(2x)
    from muskat import _kernels
    from muskat.spectral import COS_MODE, tanh_clamped
    from oracles import full_spectrum, half_spectrum

    h = SpectralField.cosine(3, 1.0, 8)
    v = SpectralField.cosine(1, 1.0, 8)
    tanha = tanh_clamped(np.arange(9))
    ia_f, _ib = _kernels.sign_split_direct(
        full_spectrum(h.coeffs), full_spectrum(v.coeffs), tanha
    )
    ia = half_spectrum(ia_f) / SQ2PI
    # hand value: 2 * 1^3 * (-2) * COS_MODE^2 / sqrt(2 pi) at k = 2
    expect = 2 * (-2) * COS_MODE**2 / SQ2PI
    assert ia[2] == pytest.approx(expect, rel=1e-14)
    mask = np.ones(9, bool)
    mask[2] = False
    assert np.abs(ia[mask]).max() < 1e-15
    from muskat.spectral import wiener_norm as wn
    ratio = 2 * abs(ia[2]) / (wn(h, 1) * wn(v, 3))
    assert ratio == pytest.approx(2.0 / (3.0 * SQ2PI), rel=1e-14)
    assert ratio <= 2.0


def test_exponential_decay_guards():
    p = wnl(lam=1.0)
    recs = _table(EnergyRecord(t, [0.0] * 6, 0.0, 0.0, 0.0, 0)
                  for t in np.linspace(0, 1, 25))
    rep = check_exponential_decay(recs, p)
    assert rep.degenerate and rep.passed
    with pytest.raises(ValueError, match="20 records"):
        check_exponential_decay(_table(list(recs)[:5]), p)
    with pytest.raises(ValueError, match="chi"):
        check_exponential_decay(recs, wnl(lam=1.0, chi=-1))
    with pytest.raises(ValueError, match="lam"):
        check_exponential_decay(recs, wnl(lam=0.0))


def _decaying_records(rate, n=40, t_end=10.0):
    return _table(EnergyRecord(t, [math.exp(-rate * t)] + [0.0] * 5, 0.0, 0.0,
                               0.0, 0) for t in np.linspace(0.0, t_end, n))


def test_decay_bound_per_model():
    # small slope: chi*T(1)/2 - 0.05, the bound criterion 2 asserts, to the bit
    rep = check_exponential_decay(_decaying_records(1.0), wnl(lam=1.0))
    assert rep.rate_bound == 1 * math.tanh(1.0) / 2.0 - 0.05
    # thin film: a share of the slowest linear rate rate(1), which a run
    # at that rate passes and a run decaying clearly slower fails
    pl = ModelParams.lubrication(chi=1, lam=1.0, theta=1.0, delta=0.01,
                                 epsilon=0.1)
    m1 = float(linear_decay_rate(1, pl))
    assert m1 == pytest.approx(0.11364, rel=1e-4)
    ok = check_exponential_decay(_decaying_records(m1), pl)
    assert ok.passed and ok.rate_bound == pytest.approx(0.9 * m1, rel=1e-14)
    for slow in (0.5 * m1, 0.85 * m1):
        rep = check_exponential_decay(_decaying_records(slow), pl)
        assert not rep.passed
        assert rep.fitted_rate == pytest.approx(slow, rel=1e-9)
    # the small-slope bound would hold the thin film above its own rate(1)
    assert check_exponential_decay(_decaying_records(m1), wnl(lam=1.0)).passed is False


def test_unstable_sign_runs_and_verdict_reports():
    # chi = -1: the gravitationally unstable stratification grows; the run
    # completes, the monotonicity verdict reports the violation, and the
    # rate checker refuses the out-of-hypothesis fit
    p = wnl(sigma=0.0, lam=1.0, theta=1.0, chi=-1)
    cfg = SolverConfig(n_modes=32, dt=0.01, t_end=1.0, output_cadence=2,
                       snapshot_cadence=0, output_dir="")
    traj = run(SpectralField.cosine(1, 1e-3, 32), p, cfg)
    assert traj.records[-1].norms[0] > traj.records[0].norms[0]
    verdict = check_monotone_decay(traj.records)
    assert not verdict.passed
    assert verdict.first_violation is not None
    with pytest.raises(ValueError, match="chi"):
        check_exponential_decay(traj.records, p)


def test_operator_bounds_exact_and_deterministic():
    p = wnl(sigma=1.0, lam=1.0, theta=1.0)
    rep = check_operator_bounds(60, p, rng_seed=11, n_modes=48)
    assert rep.passed
    assert rep.checks["base_symbol_inverse"]["max_ratio"] <= 1.0
    assert rep.checks["damped_high_mode"]["max_ratio"] <= 1.0 + 1e-15
    assert rep.checks["sign_part_factor_two"]["max_ratio"] <= 1.0
    rep2 = check_operator_bounds(60, p, rng_seed=11, n_modes=48)
    assert rep.as_dict() == rep2.as_dict()
    # infinite depth and thin film variants of the exact inequalities
    rep3 = check_operator_bounds(20, wnl(depth="infinite", lam=1.0), 3, 32)
    assert rep3.checks["base_symbol_inverse"]["passed"]
    pl = ModelParams.lubrication(chi=1, lam=1.0, theta=0.5, delta=0.04,
                                 epsilon=0.2)
    rep4 = check_operator_bounds(20, pl, 3, 32)
    assert rep4.checks["damped_high_mode"]["passed"]


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_operator_bounds_need_two_samples(samples):
    with pytest.raises(ValueError, match="sample_count"):
        check_operator_bounds(samples, wnl(sigma=1.0, lam=1.0, theta=1.0), 0)


@pytest.mark.parametrize("n_modes", [0, -3])
def test_operator_bounds_need_a_mode(n_modes):
    # 0 divided by zero in the op table, -3 met an empty array
    with pytest.raises(ValueError, match="n_modes must be at least 1"):
        check_operator_bounds(4, wnl(sigma=1.0, lam=1.0, theta=1.0), 0,
                              n_modes)


@pytest.mark.parametrize("samples", [2, BOUNDS_CHUNK + 1, 500])
@pytest.mark.parametrize("depth", ["finite", "infinite"])
def test_bounds_batches_repeat_the_per_sample_path(samples, depth):
    # the check draws and evaluates its pairs in chunks; the pairs are
    # random_decay_field's, drawn in order from the same stream, and every
    # ratio has the bits of commutator_sign_split on its pair
    p, n, seed = wnl(sigma=1.0, lam=1.0, theta=1.0, depth=depth), 32, 17
    rng = np.random.default_rng(seed)
    chunks = list(bound_samples(samples, n, rng))
    assert [len(h) for h, _ in chunks] == [
        min(BOUNDS_CHUNK, samples - i) for i in range(0, samples, BOUNDS_CHUNK)]
    pairs = [pair for h, v in chunks for pair in zip(h, v)]
    ia_ratios, full_ratios = bound_ratios(samples, p,
                                          np.random.default_rng(seed), n)
    ref = np.random.default_rng(seed)
    for i, (h, v) in enumerate(pairs):
        hr = random_decay_field(n, (2, 3, 4)[i % 3], ref)
        vr = random_decay_field(n, (2, 3, 4)[(i + 1) % 3], ref)
        assert h.tobytes() == hr.coeffs.tobytes()
        assert v.tobytes() == vr.coeffs.tobytes()
        ia, ib = commutator_sign_split(hr, vr, p)
        ha1, va3 = wiener_norm(hr, 1), wiener_norm(vr, 3)
        ia_a0 = wiener_norm(ia, 0)
        i_a0 = wiener_norm(SpectralField(ia.coeffs + ib.coeffs), 0)
        assert ia_ratios[i] == ia_a0 / (2.0 * ha1 * va3)
        assert full_ratios[i] == i_a0 / (ha1 * va3)
    assert len(ia_ratios) == len(full_ratios) == samples
    assert rng.random() == ref.random()  # the stream is left where it was


def test_bounds_batch_reads_the_live_split_rows(tmp_path, monkeypatch):
    # verify bounds at 500 samples, N = 64 (16 chunks) with mode 2 of I_A's
    # dx row times 100 in the cached op table itself: the batches read the
    # table's rows at call time, so the check fails; restored, it passes
    text = ("theta = 1.0\nlambda = 1.0\nsigma = 1.0\n"
            "verify.bounds.samples = 500\nverify.bounds.n_modes = 64\n")
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(text)
    tab = models._table(64, load_config(str(cfg))[1])
    scaled = tab.split_outA.copy()
    scaled[0, 2] *= 100.0

    def verify(tag):
        out = tmp_path / tag
        rc = main(["verify", "bounds", "--config", str(cfg), "--out", str(out)])
        rep = json.loads((out / "bounds_report.json").read_text())
        return rc, rep["checks"]["sign_part_factor_two"]["passed"]

    monkeypatch.setattr(tab, "split_outA", scaled)
    assert verify("mutated") == (2, False)
    monkeypatch.undo()
    assert verify("restored") == (0, True)


def test_random_decay_field_profile(rng):
    f = random_decay_field(64, 3, rng, amplitude=2.0)
    assert f.coeffs[0] == 0.0
    mags = np.abs(f.coeffs[1:])
    k = np.arange(1, 65, dtype=float)
    assert np.all(mags <= 2.0 * k**-3.0 + 1e-15)
    assert np.all(mags >= 1.0 * k**-3.0 - 1e-15)


def test_trajectory_dir_self_describing(tmp_path):
    p = wnl(sigma=0.1, lam=1.0)
    out = tmp_path / "run"
    cfg = SolverConfig(
        model="wnl1", chi=1, lam=1.0, theta=1.0, sigma=0.1,
        n_modes=32, dt=0.005, t_end=1.0, output_cadence=2,
        snapshot_cadence=10, output_dir=str(out),
    )
    traj = run(SpectralField.cosine(1, 1e-3, 32), p, cfg)
    checks = verify_trajectory_dir(str(out))
    assert checks["energy_consistency"]["passed"]
    assert checks["monotone_energy"]["passed"]
    assert checks["exponential_decay"]["passed"]
    # file-recomputed verdicts match the in-memory ones
    in_mem = check_monotone_decay(traj.records)
    assert checks["monotone_energy"]["passed"] == in_mem.passed
    assert checks["run_complete"]["passed"]
    recs = read_energy_csv(str(out / "energy.csv"))
    assert len(recs) == len(traj.records)
    assert recs[5].energy == traj.records[5].energy


def _small_run(out):
    """A finished wnl1 run into out with snapshots [0, 5, 10]."""
    cfg = SolverConfig(model="wnl1", lam=1.0, sigma=0.1, n_modes=32,
                       dt=0.005, t_end=0.1, output_cadence=2,
                       snapshot_cadence=5, output_dir=str(out))
    run(SpectralField.cosine(1, 1e-3, 32), wnl(sigma=0.1, lam=1.0), cfg)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["snapshots"] == [0, 5, 10]
    return meta


def _set_snapshots(out, meta, snaps):
    meta["snapshots"] = snaps
    (out / "meta.json").write_text(json.dumps(meta))


def test_reverification_reads_only_the_params(tmp_path):
    # a run directory whose meta.json "config" holds a key load_config no
    # longer accepts, as initial_condition.seed of runs made before rng_seed
    # seeded random_decay, re-verifies from its params
    out = tmp_path / "run"
    meta = _small_run(out)
    meta["config"]["initial_condition"] = {"kind": "random_decay", "p": 3.0,
                                           "amplitude": 1e-3, "seed": 1}
    (out / "meta.json").write_text(json.dumps(meta))
    checks = verify_trajectory_dir(str(out))
    assert checks["run_complete"]["passed"]
    assert checks["energy_consistency"]["passed"]
    assert checks["monotone_energy"]["passed"]


def test_failed_or_truncated_run_fails_reverification(tmp_path):
    # the run fails at its first solve, leaving 0 records and "failed"
    out = tmp_path / "failed"
    cfg = SolverConfig(model="wnl1", sigma=1.0, n_modes=32, dt=1e-3,
                       t_end=0.1, output_dir=str(out))
    with pytest.raises(NotContractingError):
        run(SpectralField.cosine(3, 5.0, 32), wnl(sigma=1.0), cfg)
    verdict = verify_trajectory_dir(str(out))["run_complete"]
    assert not verdict["passed"]
    assert "not contracting" in verdict["failed"]
    assert verdict["records"] == verdict["energy_rows"] == 0
    # a finished run whose energy.csv lost its last two rows
    out = tmp_path / "truncated"
    _small_run(out)
    energy_csv = out / "energy.csv"
    energy_csv.write_text(
        "".join(energy_csv.read_text().splitlines(True)[:-2]))
    checks = verify_trajectory_dir(str(out))
    verdict = checks["run_complete"]
    assert not verdict["passed"] and verdict["failed"] is None
    assert (verdict["records"], verdict["energy_rows"]) == (11, 9)
    # snapshot 10 has no row left to compare
    assert not checks["energy_consistency"]["passed"]
    assert checks["energy_consistency"]["unmatched_snapshots"] == [10]


@pytest.mark.parametrize("snaps", [[-1], "0", [0, "3"]],
                         ids=["negative", "not_a_list", "not_indices"])
def test_reverification_rejects_a_malformed_snapshot_list(tmp_path, snaps):
    # the list is read as `muskat plot` reads it
    out = tmp_path / "run"
    _set_snapshots(out, _small_run(out), snaps)
    with pytest.raises(ConfigError, match='corrupt meta.json: "snapshots"'):
        verify_trajectory_dir(str(out))


def test_reverification_names_a_corrupt_file(tmp_path):
    # energy.csv and meta.json give the messages `muskat plot` prints
    out = tmp_path / "run"
    _small_run(out)
    energy_csv = out / "energy.csv"
    lines = energy_csv.read_text().splitlines(True)
    energy_csv.write_text("".join(lines[:3] + ["0.1,bogus\n"] + lines[4:]))
    with pytest.raises(ValueError) as err:
        verify_trajectory_dir(str(out))
    assert str(err.value).startswith(f"corrupt energy.csv: {energy_csv}, "
                                     "line 4: expected 11 columns, got 2")
    (out / "meta.json").write_text("{not json")
    with pytest.raises(ConfigError, match="^corrupt meta.json: "):
        verify_trajectory_dir(str(out))


def _list_a_snapshot_without_a_row(out, meta):
    _set_snapshots(out, meta, [0, 5, 1000000])
    return 1000000


def _delete_a_snapshot_file(out, meta):
    (out / "snapshots" / "t_000005.csv").unlink()
    return 5


@pytest.mark.parametrize("damage", [_list_a_snapshot_without_a_row,
                                    _delete_a_snapshot_file],
                         ids=["no_row", "no_file"])
def test_reverification_fails_an_unmatched_snapshot(tmp_path, damage):
    out = tmp_path / "run"
    idx = damage(out, _small_run(out))
    checks = verify_trajectory_dir(str(out))
    assert not checks["energy_consistency"]["passed"]
    assert checks["energy_consistency"]["unmatched_snapshots"] == [idx]
    assert checks["run_complete"]["passed"]


def test_thin_film_rate_owed_only_where_rate1_bounds_every_mode():
    # ModelSpec.decay_bound decides once whether a rate is owed: for the thin
    # film only where lam/4 >= chi*sqrt(delta)*theta, for the small-slope
    # models only where lam > 0; decay_checks and the fit both ask it
    from muskat.diagnostics import decay_checks
    from muskat.models import model_spec

    def thin(lam):
        return ModelParams.lubrication(chi=1, lam=lam, theta=1.0, delta=0.01,
                                       epsilon=0.1)

    assert model_spec(wnl(lam=0.0)).decay_bound() is None
    assert model_spec(thin(0.0)).decay_bound() is None
    assert model_spec(thin(0.39)).decay_bound() is None  # lam/4 < 0.1
    assert model_spec(thin(0.41)).decay_bound() is not None
    slow = _decaying_records(0.02)
    with pytest.raises(ValueError, match="lam"):
        check_exponential_decay(slow, thin(0.0))
    assert set(decay_checks(slow, thin(0.0))) == {"monotone_energy",
                                                  "a0_dyadic_trend"}
    # where the rate is owed, a run decaying below the bound still fails
    rated = decay_checks(slow, thin(1.0))
    assert set(rated) == {"monotone_energy", "exponential_decay"}
    assert rated["monotone_energy"]["passed"]
    assert not rated["exponential_decay"]["passed"]


# ---------------------------------------------------------------------------
# RecordTable: the one representation of a run's records, in memory and on
# disk
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    """Every column of RecordTables a and b equal bit for bit."""
    assert len(a) == len(b)
    for name in (*FLOAT_COLUMNS, "iters"):
        assert np.array_equal(a.column(name).view(np.int64),
                              b.column(name).view(np.int64)), name


_record_floats = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf])
_record_rows = st.lists(
    st.tuples(st.lists(_record_floats, min_size=10, max_size=10),
              st.integers(0, 2**63 - 1)), max_size=20)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_record_rows)
@example([([-0.0, 5e-324, -5e-324, 0.0, 1e-310, -2.5e-320, 1.0, -1.0,
            1.7976931348623157e308, -0.0], 0)])
def test_record_table_round_trips_through_energy_csv(rows):
    # write_run prints each column with %.17g and read_energy_csv parses it
    # back: every bit returns, signed zeros and subnormals included
    tab = RecordTable()
    for floats, iters in rows:
        tab.append(floats[0], floats[1:7], *floats[7:], iters)
    with tempfile.TemporaryDirectory() as out:
        os.mkdir(os.path.join(out, "snapshots"))
        write_run(out, SolverConfig(), wnl(lam=1.0), tab, [], 0, None)
        back = read_energy_csv(os.path.join(out, "energy.csv"))
    _same_bits(tab, back)
    assert [tuple(r.norms) for r in back] == [tuple(f[1:7]) for f, _ in rows]
    with pytest.raises(ValueError, match="6 values"):  # no partial row
        tab.append(0.0, [1.0] * 5, 0.0, 0.0, 0.0, 0)
    assert len(tab.column("t")) == len(tab.column("dth_high")) == len(rows)


def test_run_records_equal_their_energy_csv(tmp_path):
    p = wnl(sigma=0.3, lam=1.0)
    cfg = SolverConfig(model="wnl1", lam=1.0, sigma=0.3, n_modes=32,
                       dt=0.005, t_end=0.3, output_cadence=3,
                       snapshot_cadence=0, output_dir=str(tmp_path))
    traj = run(random_decay_field(32, 3, np.random.default_rng(5)), p, cfg)
    assert len(traj.records) == 21
    _same_bits(traj.records, read_energy_csv(tmp_path / "energy.csv"))
