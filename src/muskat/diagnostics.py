"""Energy functionals, decay verdicts and inequality checks.

The dissipation structure of the models is quantified by two energies:

* small-slope models: E = ||h||_{A0} + theta*T(1)*||h||_{A3}, with T(1) =
  tanh(1) for the bounded strip and 1 for the unbounded one;
* thin film: E = ||h||_{A0} + sqrt(delta)*theta*||h||_{A4}.

The norm order and the coefficient come from ``models.model_spec``.

For gravitationally stable data (chi = +1) in the small-data regime these
are nonincreasing along trajectories, and for lam > 0 the A0 norm decays at
least at rate tanh(1)/2 (bounded strip).  The checkers below verify those
statements on recorded trajectories and the pointwise operator inequalities
on seeded random ensembles.

This module alone knows the layout of a run directory: its file names, its
writer and the readers that re-verify a run from its files alone.
"""

import json
import os
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
import numpy.random  # np.random: loaded here, not at its first use

from . import models
from .config import PACKAGE_VERSION, load_config
from .spectral import SpectralField, load_spectrum_csv, random_decay_field
from .spectral import wiener_norm

ENERGY_HEADER = "t,a0,a1,a2,a3,a4,a5,energy,dth_a0,dth_high,iters"

MONOTONE_SLACK = 1e-9
MIN_FIT_RECORDS = 20


# one record per row: t, A^0..A^5, energy, dth_a0, dth_high to 17
# significant digits, then the iteration count
_CSV_ROW = ",".join(["%.17g"] * 10 + ["%d"])


@dataclass(slots=True)
class EnergyRecord:
    """One sampled instant of a trajectory."""

    t: float
    norms: list  # A^0..A^5 of h
    energy: float
    dth_a0: float
    dth_high: float  # A^3 (small slope) or A^4 (thin film) of dh/dt
    iters: int

    def csv_row(self):
        return _CSV_ROW % (self.t, *self.norms, self.energy, self.dth_a0,
                           self.dth_high, self.iters)

    @classmethod
    def from_csv_row(cls, row):
        parts = row.split(",")
        if len(parts) != 11:
            raise ValueError(f"expected 11 columns, got {len(parts)}")
        vals = [float(p) for p in parts[:10]]
        return cls(vals[0], vals[1:7], *vals[7:], int(parts[10]))


def energy(h, params):
    """Model-selected dissipation energy of h."""
    spec = models.model_spec(params)
    return (wiener_norm(h, 0)
            + spec.energy_coefficient * wiener_norm(h, spec.norm_order))


@lru_cache(maxsize=16)
def _k_powers(n_modes):
    """Rows k^0..k^5 over k = 1..n_modes: the Wiener weights of a record."""
    k = np.arange(1, n_modes + 1, dtype=float)
    return k ** np.arange(6.0)[:, None]


def make_record(t, h, dth, iters, params):
    kp = _k_powers(h.n_modes)
    norms = (2.0 * (kp * np.abs(h.coeffs[1:])).sum(axis=1)).tolist()
    # row k^0 is all ones, so the A^0 sum needs no weighting
    dth_abs = np.abs(dth.coeffs[1:])
    dth_a0 = 2.0 * float(dth_abs.sum())
    spec = models.model_spec(params)
    s = spec.norm_order
    dth_high = 2.0 * float((kp[s] * dth_abs).sum())
    return EnergyRecord(t, norms, norms[0] + spec.energy_coefficient * norms[s],
                        dth_a0, dth_high, iters)


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DecayVerdict:
    passed: bool
    first_violation: tuple | None  # (index, t)
    max_uptick: float
    n_records: int

    def as_dict(self):
        return {
            "passed": self.passed,
            "first_violation": self.first_violation,
            "max_relative_uptick": self.max_uptick,
            "records": self.n_records,
        }


def _first_rise(pairs):
    """Over (earlier, later) pairs: the index of the first rise beyond
    MONOTONE_SLACK (None if none) and the largest relative rise (>= 0)."""
    first = None
    worst = 0.0
    for i, (earlier, later) in enumerate(pairs):
        if earlier > 0:
            worst = max(worst, later / earlier - 1.0)
        if first is None and later > earlier * (1.0 + MONOTONE_SLACK):
            first = i
    return first, worst


def check_monotone_decay(records):
    """E(t_{i+1}) <= E(t_i) * (1 + 1e-9) across consecutive records."""
    e = [r.energy for r in records]
    i, worst = _first_rise(zip(e, e[1:]))
    first = None if i is None else (i + 1, records[i + 1].t)
    return DecayVerdict(i is None, first, worst, len(records))


@dataclass(slots=True)
class RateReport:
    fitted_rate: float
    rate_bound: float
    passed: bool
    half_rates: list | None
    degenerate: bool

    as_dict = asdict


def check_exponential_decay(records, params):
    """Least-squares decay rate of log ||h||_{A0} against the model's bound.

    The bound is ``ModelSpec.decay_bound`` (chi*T(1)/2 less a margin small
    slope, a share of rate(1) thin film); any faster fitted decay passes.
    Requires chi = +1, a model with a bound (not None) and at least 20
    records; identically-zero trajectories are reported degenerate.
    """
    if params.chi != 1:
        raise ValueError("decay verification assumes the stable sign chi = +1")
    bound = models.model_spec(params).decay_bound()
    if bound is None:
        raise ValueError("no decay rate to fit: it needs lam > 0 "
                         "(thin film: lam/4 >= sqrt(delta)*theta)")
    if len(records) < MIN_FIT_RECORDS:
        raise ValueError(f"need at least {MIN_FIT_RECORDS} records, "
                         f"got {len(records)}")
    t = np.array([r.t for r in records])
    a0 = np.array([r.norms[0] for r in records])
    if np.all(a0 == 0.0):
        return RateReport(0.0, bound, True, None, True)
    if np.any(a0 <= 0.0):
        raise ValueError("A0 norm vanished mid-run; cannot fit a rate")
    logs = np.log(a0)
    rate = -np.polyfit(t, logs, 1)[0]
    mid = len(records) // 2
    halves = []
    for sl in (slice(0, mid + 1), slice(mid, None)):
        halves.append(-np.polyfit(t[sl], logs[sl], 1)[0])
    return RateReport(float(rate), bound, bool(rate >= bound), halves, False)


def check_a0_dyadic_trend(records):
    """Nonincreasing sup of the A0 norm over dyadic time windows.

    The lam = 0 theory only gives decay to zero, with no rate; the testable
    discrete statement is that sup ||h||_{A0} over [T/2^{j+1}, T/2^j] does
    not increase as the windows move later in time.  Returns a DecayVerdict
    whose first_violation indexes the offending window.
    """
    if len(records) < 4:
        raise ValueError("need at least 4 records for a windowed trend")
    T = records[-1].t
    sups = []  # sups[j]: window (T/2^{j+1}, T/2^j], later windows first
    j = 0
    while True:
        lo, hi = T / 2 ** (j + 1), T / 2**j
        window = [r.norms[0] for r in records if lo < r.t <= hi]
        if not window:
            break
        sups.append(max(window))
        if lo <= records[1].t:
            break
        j += 1
    j, worst = _first_rise(zip(sups[1:], sups))
    first = None if j is None else (j, None)
    return DecayVerdict(j is None, first, worst, len(records))


def decay_checks(records, params):
    """The decay verdicts that apply to one trajectory, as a dict by name.

    Always the monotone energy.  With chi = +1, the exponential-rate fit
    where the theory gives a rate (``ModelSpec.decay_bound`` is not None)
    and there are enough records; otherwise only a rateless decay statement
    holds, so the A0 trend over dyadic windows is checked instead.
    """
    checks = {"monotone_energy": check_monotone_decay(records).as_dict()}
    if params.chi != 1:
        return checks
    has_rate = models.model_spec(params).decay_bound() is not None
    if has_rate and len(records) >= MIN_FIT_RECORDS:
        checks["exponential_decay"] = check_exponential_decay(
            records, params).as_dict()
    elif len(records) >= 4:
        checks["a0_dyadic_trend"] = check_a0_dyadic_trend(records).as_dict()
    return checks


# ---------------------------------------------------------------------------
# random ensembles and operator bound checks
# ---------------------------------------------------------------------------

class BoundReport:
    def __init__(self):
        self.checks = {}
        self.passed = True

    def add(self, name, passed, **stats):
        self.checks[name] = {"passed": bool(passed), **stats}
        self.passed = self.passed and bool(passed)

    def as_dict(self):
        return {"passed": self.passed, "checks": self.checks}


def check_operator_bounds(sample_count, params, rng_seed, n_modes=64):
    """Evaluate the operator inequalities on seeded random fields.

    Asserted exactly (they hold mode by mode or term by term):
      * base-symbol inversion: 1/ell(k) <= 1;
      * damped third derivative: theta*T(1)*|k|^3 / ell(k) <= 1
        (thin film: sqrt(delta)*theta*k^4 / (1 + sqrt(delta)*theta*k^4) <= 1);
      * sign-part commutator: ||I_A||_{A0} <= 2 ||h||_{A1} ||V||_{A3}.

    I_A and I_B come from ``models.commutator_sign_split`` (4N-padded FFT
    products, O(N log N) per sample); its agreement with the direct double
    sum of ``_kernels.sign_split_direct`` is property-tested.

    Recorded (constants not fixed by the analysis): the empirical sup of
    ||I(h,V)||_{A0} / (||h||_{A1} ||V||_{A3}) and its stability across the
    two sample halves.
    """
    rng = np.random.default_rng(rng_seed)
    rep = BoundReport()
    spec = models.model_spec(params)
    k = np.arange(n_modes + 1, dtype=float)
    sym = spec.base(k)
    rep.add("base_symbol_inverse", np.all(1.0 / sym <= 1.0),
            max_ratio=float((1.0 / sym).max()))
    damped = spec.energy_coefficient * k**spec.norm_order / sym
    rep.add("damped_high_mode", np.all(damped <= 1.0 + 1e-15),
            max_ratio=float(damped.max()))

    ps = (2, 3, 4)
    ia_max = 0.0
    full_ratios = []
    for i in range(sample_count):
        h = random_decay_field(n_modes, ps[i % 3], rng)
        v = random_decay_field(n_modes, ps[(i + 1) % 3], rng)
        ia, ib = models.commutator_sign_split(h, v, params)
        ia_a0 = wiener_norm(ia, 0)
        i_a0 = wiener_norm(SpectralField(ia.coeffs + ib.coeffs, copy=False), 0)
        ha1 = wiener_norm(h, 1)
        va3 = wiener_norm(v, 3)
        ia_max = max(ia_max, ia_a0 / (2.0 * ha1 * va3))
        full_ratios.append(i_a0 / (ha1 * va3))
    rep.add("sign_part_factor_two", ia_max <= 1.0 + 1e-12, max_ratio=ia_max,
            samples=sample_count)

    full_ratios = np.array(full_ratios)
    sup_all = float(full_ratios.max())
    half = sample_count // 2
    sup_1 = float(full_ratios[:half].max())
    sup_2 = float(full_ratios[half:].max())
    stable = abs(sup_1 - sup_2) <= 0.1 * max(sup_1, sup_2)
    rep.add("commutator_ratio", sup_all <= 10.0, empirical_sup=sup_all,
            half_sups=[sup_1, sup_2], halves_within_10pct=bool(stable))
    return rep


# ---------------------------------------------------------------------------
# self-describing run directories
# ---------------------------------------------------------------------------

META_FILE = "meta.json"
ENERGY_FILE = "energy.csv"
SNAPSHOT_DIR = "snapshots"


def snapshot_path(out_dir, idx):
    """The spectrum file of record idx in run directory out_dir."""
    return os.path.join(out_dir, SNAPSHOT_DIR, f"t_{idx:06d}.csv")


def write_json(path, payload):
    """The one JSON layout of run directories and reports: sorted keys,
    two-space indent, a closing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run(out_dir, config, params, records, snapshots, rejected_steps,
              final_solve, failure=None):
    """energy.csv and meta.json of a run: the records, and self-describing,
    timestamp-free metadata (kept reproducible).  A failed run records its
    error under "failed".  The t_*.csv files of snapshots/ that no index in
    snapshots names, an earlier run's, are deleted."""
    snap_dir = os.path.join(out_dir, SNAPSHOT_DIR)
    keep = {snapshot_path(out_dir, idx) for idx in snapshots}
    for name in os.listdir(snap_dir):
        path = os.path.join(snap_dir, name)
        if name.startswith("t_") and name.endswith(".csv") and path not in keep:
            os.remove(path)
    with open(os.path.join(out_dir, ENERGY_FILE), "w") as fh:
        fh.write(ENERGY_HEADER + "\n")
        for r in records:
            fh.write(r.csv_row() + "\n")
    meta = {
        "version": PACKAGE_VERSION,
        # the params the run used, also where a library caller left those
        # config fields at their defaults: the directory re-verifies as run
        "config": {**config.as_dict(), **params.as_dict()},
        "params": params.as_dict(),
        "records": len(records),
        "snapshots": snapshots,
        "rejected_steps": rejected_steps,
        "final_solve": final_solve,
    }
    if failure is not None:
        meta["failed"] = str(failure)
    write_json(os.path.join(out_dir, META_FILE), meta)


def read_meta(out_dir):
    with open(os.path.join(out_dir, META_FILE)) as fh:
        return json.load(fh)


def read_energy_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ENERGY_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            line = line.strip()
            if line:
                records.append(EnergyRecord.from_csv_row(line))
    return records


def verify_trajectory_dir(out_dir):
    """Recompute all verdicts of a run directory from its files alone.

    Returns the checks dict; also validates that energies recomputed from
    snapshot spectra agree with the logged column to 1e-12 relative, and
    (``run_complete``) that the run did not fail and that energy.csv holds
    as many rows as meta.json counts records.
    """
    meta = read_meta(out_dir)
    _, params = load_config(meta["config"])
    records = read_energy_csv(os.path.join(out_dir, ENERGY_FILE))
    checks = decay_checks(records, params)
    worst = 0.0
    for idx in meta["snapshots"]:
        if idx >= len(records):
            continue  # no row to compare: run_complete fails on the count
        e = energy(load_spectrum_csv(snapshot_path(out_dir, idx)), params)
        logged = records[idx].energy
        err = abs(e - logged) / max(1.0, abs(logged))
        worst = max(worst, err)
    checks["energy_consistency"] = {
        "passed": worst <= 1e-12,
        "max_relative_error": worst,
    }
    checks["run_complete"] = {
        "passed": "failed" not in meta and meta["records"] == len(records),
        "failed": meta.get("failed"),
        "records": meta["records"],
        "energy_rows": len(records),
    }
    return checks


def append_checks_to_meta(out_dir, checks):
    meta = read_meta(out_dir)
    meta["checks"] = checks
    write_json(os.path.join(out_dir, META_FILE), meta)
