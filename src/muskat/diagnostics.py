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

A trajectory's records are one ``RecordTable``: packed columns that
``make_record`` appends a row to, that the checks read whole and that
``write_run`` and ``read_energy_csv`` carry to and from energy.csv bit for
bit.  This module alone knows the layout of a run directory: its file
names, its writer ``write_run`` and its readers ``read_run`` and
``read_snapshot``, which ``muskat plot`` and re-verification share.
"""

import json
import os
import sys
from array import array
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
import numpy.random  # np.random: loaded here, not at its first use

from . import models
from .config import PACKAGE_VERSION, ConfigError, load_config
from .spectral import (load_spectrum_csv, random_decay_coeffs, wiener_norm,
                       wiener_norms)

ENERGY_HEADER = "t,a0,a1,a2,a3,a4,a5,energy,dth_a0,dth_high,iters"

MONOTONE_SLACK = 1e-9
MIN_FIT_RECORDS = 20
BOUNDS_CHUNK = 32  # samples drawn and evaluated per batch by the bounds check
_BOUND_POWERS = (2, 3, 4)  # sample i: h decays like |k|^-p[i % 3], V the next


# one record per row: t, A^0..A^5, energy, dth_a0, dth_high to 17
# significant digits, then the iteration count
_CSV_ROW = ",".join(["%.17g"] * 10 + ["%d"])

# the float64 columns of a RecordTable, in energy.csv's order; iters follows
FLOAT_COLUMNS = tuple(ENERGY_HEADER.split(",")[:-1])


@dataclass(slots=True)
class EnergyRecord:
    """One sampled instant of a trajectory: a row of a ``RecordTable``."""

    t: float
    norms: list  # A^0..A^5 of h
    energy: float
    dth_a0: float
    dth_high: float  # A^3 (small slope) or A^4 (thin film) of dh/dt
    iters: int


class RecordTable:
    """The records of one trajectory as packed columns.

    Ten float64 columns (``FLOAT_COLUMNS``: t, a0..a5, energy, dth_a0,
    dth_high) and an int64 ``iters`` column, 88 bytes per record plus the
    arrays' growth slack.  Rows are appended and never changed.  A run's
    records in memory (``integrate.run``) and a run's energy.csv read back
    (``read_energy_csv``) are both a RecordTable.  ``table[i]`` is row i
    as an ``EnergyRecord``; ``column(name)`` is a whole column as a numpy
    copy, which is how the trajectory checks read it.
    """

    __slots__ = ("_floats", "_iters")

    def __init__(self):
        self._floats = tuple(array("d") for _ in FLOAT_COLUMNS)
        self._iters = array("q")

    def append(self, t, norms, energy, dth_a0, dth_high, iters):
        """Add a row, its fields in ``EnergyRecord``'s order."""
        row = (t, *norms, energy, dth_a0, dth_high)
        if len(row) != len(self._floats):
            raise ValueError(f"norms must hold 6 values, got {len(norms)}")
        for col, v in zip(self._floats, row):
            col.append(v)
        self._iters.append(iters)

    def __len__(self):
        return len(self._iters)

    def __getitem__(self, i):
        f = [col[i] for col in self._floats]
        return EnergyRecord(f[0], f[1:7], *f[7:], self._iters[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def column(self, name):
        """Column ``name`` (a ``FLOAT_COLUMNS`` entry or "iters") as a new
        numpy array."""
        if name == "iters":
            return np.array(self._iters)
        return np.array(self._floats[FLOAT_COLUMNS.index(name)])

    def rows(self):
        """Every row as a tuple of the ten floats and iters."""
        return zip(*self._floats, self._iters)

    @property
    def nbytes(self):
        """Bytes the columns hold allocated, growth slack included."""
        return sum(map(sys.getsizeof, (*self._floats, self._iters)))


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


def make_record(table, t, h, dth, iters, params):
    """Append the record of h at time t to table: the A^0..A^5 norms of h,
    its energy, the A^0 and scheme-order norms of dth = dh/dt and the
    solver's iteration count."""
    kp = _k_powers(h.n_modes)
    norms = (2.0 * (kp * np.abs(h.coeffs[1:])).sum(axis=1)).tolist()
    # row k^0 is all ones, so the A^0 sum needs no weighting
    dth_abs = np.abs(dth.coeffs[1:])
    dth_a0 = 2.0 * float(dth_abs.sum())
    spec = models.model_spec(params)
    s = spec.norm_order
    dth_high = 2.0 * float((kp[s] * dth_abs).sum())
    table.append(t, norms, norms[0] + spec.energy_coefficient * norms[s],
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
        d = asdict(self)
        d["max_relative_uptick"] = d.pop("max_uptick")
        d["records"] = d.pop("n_records")
        return d


def _first_rise(earlier, later):
    """Over paired arrays (earlier[i], later[i]): the index of the first
    rise beyond MONOTONE_SLACK (None if none) and the largest relative
    rise (>= 0; pairs whose earlier value is not positive, or whose ratio
    is NaN, do not count)."""
    pos = earlier > 0
    worst = float(np.fmax.reduce(later[pos] / earlier[pos] - 1.0, initial=0.0))
    rises = np.flatnonzero(later > earlier * (1.0 + MONOTONE_SLACK))
    return (int(rises[0]) if rises.size else None), worst


def check_monotone_decay(records):
    """E(t_{i+1}) <= E(t_i) * (1 + 1e-9) across consecutive records of a
    ``RecordTable``."""
    e = records.column("energy")
    i, worst = _first_rise(e[:-1], e[1:])
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
    t = records.column("t")
    a0 = records.column("a0")
    if np.all(a0 == 0.0):
        return RateReport(0.0, bound, True, None, True)
    if np.any(a0 <= 0.0):
        raise ValueError("A0 norm vanished mid-run; cannot fit a rate")
    rate = fitted_decay_rate(t, a0)
    mid = len(records) // 2
    halves = [fitted_decay_rate(t[sl], a0[sl])
              for sl in (slice(0, mid + 1), slice(mid, None))]
    return RateReport(float(rate), bound, bool(rate >= bound), halves, False)


def fitted_decay_rate(t, a0):
    """Minus the least-squares slope of log a0 against t (a0 > 0)."""
    return -np.polyfit(t, np.log(a0), 1)[0]


def check_a0_dyadic_trend(records):
    """Nonincreasing sup of the A0 norm over dyadic time windows.

    The lam = 0 theory only gives decay to zero, with no rate; the testable
    discrete statement is that sup ||h||_{A0} over [T/2^{j+1}, T/2^j] does
    not increase as the windows move later in time.  The records must be
    in time order, as a trajectory's are; each window is found by
    bisection.  Returns a DecayVerdict whose first_violation indexes the
    offending window.
    """
    if len(records) < 4:
        raise ValueError("need at least 4 records for a windowed trend")
    t = records.column("t")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("record times are not in increasing order")
    a0 = records.column("a0")
    T = t[-1]
    sups = []  # sups[j]: window (T/2^{j+1}, T/2^j], later windows first
    j = 0
    while True:
        lo, hi = T / 2 ** (j + 1), T / 2**j
        window = a0[np.searchsorted(t, lo, "right"):
                    np.searchsorted(t, hi, "right")]
        if not window.size:
            break
        sups.append(window.max())
        if lo <= t[1]:
            break
        j += 1
    sups = np.array(sups)
    j, worst = _first_rise(sups[1:], sups[:-1])
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
    """Evaluate the operator inequalities on the seeded random pairs of
    ``bound_samples`` (|k|^-p fields, p cycling through 2, 3, 4).

    Asserted exactly (they hold mode by mode or term by term):
      * base-symbol inversion: 1/ell(k) <= 1;
      * damped third derivative: theta*T(1)*|k|^3 / ell(k) <= 1
        (thin film: sqrt(delta)*theta*k^4 / (1 + sqrt(delta)*theta*k^4) <= 1);
      * sign-part commutator: ||I_A||_{A0} <= 2 ||h||_{A1} ||V||_{A3}.

    I_A and I_B come from the evaluation of ``models.commutator_sign_split``
    (4N-padded FFT products, O(N log N) per sample), run on batches of
    BOUNDS_CHUNK samples (``bound_ratios``); its agreement with the direct
    double sum of ``_kernels.sign_split_direct`` is property-tested.

    Recorded (constants not fixed by the analysis): the empirical sup of
    ||I(h,V)||_{A0} / (||h||_{A1} ||V||_{A3}) and its stability across the
    two sample halves.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be at least 2, got {sample_count}")
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
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

    ia_ratios, full_ratios = bound_ratios(sample_count, params, rng, n_modes)
    ia_max = float(ia_ratios.max())
    rep.add("sign_part_factor_two", ia_max <= 1.0 + 1e-12, max_ratio=ia_max,
            samples=sample_count)

    sup_all = float(full_ratios.max())
    half = sample_count // 2
    sup_1 = float(full_ratios[:half].max())
    sup_2 = float(full_ratios[half:].max())
    stable = abs(sup_1 - sup_2) <= 0.1 * max(sup_1, sup_2)
    rep.add("commutator_ratio", sup_all <= 10.0, empirical_sup=sup_all,
            half_sups=[sup_1, sup_2], halves_within_10pct=bool(stable))
    return rep


def bound_samples(sample_count, n_modes, rng):
    """The bounds check's random pairs, in chunks of at most BOUNDS_CHUNK:
    yields (h, V) coefficient arrays of shape (B, n_modes + 1), each chunk
    one ``random_decay_coeffs`` draw of h_0, V_0, h_1, V_1, ..."""
    for start in range(0, sample_count, BOUNDS_CHUNK):
        powers = [_BOUND_POWERS[(i + j) % 3]
                  for i in range(start, min(start + BOUNDS_CHUNK, sample_count))
                  for j in (0, 1)]
        c = random_decay_coeffs(n_modes, powers, rng)
        yield c[0::2], c[1::2]


def bound_ratios(sample_count, params, rng, n_modes):
    """Per sample of ``bound_samples``: ||I_A||_{A0} / (2 ||h||_{A1}
    ||V||_{A3}) and ||I||_{A0} / (||h||_{A1} ||V||_{A3}), two arrays."""
    tab = models._table(n_modes, params)
    ia_ratios, full_ratios = [], []
    for h, v in bound_samples(sample_count, n_modes, rng):
        ia, ib = models._sign_split(tab, h, v)
        ha1 = wiener_norms(h, 1)
        va3 = wiener_norms(v, 3)
        ia_ratios.append(wiener_norms(ia, 0) / (2.0 * ha1 * va3))
        full_ratios.append(wiener_norms(ia + ib, 0) / (ha1 * va3))
    return np.concatenate(ia_ratios), np.concatenate(full_ratios)


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
        for row in records.rows():
            fh.write(_CSV_ROW % row + "\n")
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
    """meta.json of run directory out_dir; ConfigError if it is not JSON."""
    with open(os.path.join(out_dir, META_FILE)) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"corrupt {META_FILE}: {exc}") from None


def read_run(out_dir):
    """(meta, records) of run directory out_dir, meta.json's entries checked."""
    meta = read_meta(out_dir)
    for key, valid, what in (
            ("params", lambda v: isinstance(v, dict), "a dict"),
            ("records", lambda v: type(v) is int, "an int"),
            ("snapshots", lambda v: isinstance(v, list) and all(
                type(i) is int and i >= 0 for i in v),
             "a list of record indices")):
        if not (isinstance(meta, dict) and key in meta and valid(meta[key])):
            raise ConfigError(f'corrupt {META_FILE}: "{key}" is missing or '
                              f"not {what}")
    path = os.path.join(out_dir, ENERGY_FILE)
    if not os.path.isfile(path):
        raise ConfigError(f"missing {path}")
    return meta, read_energy_csv(path)


def read_snapshot(out_dir, idx):
    """The field of snapshot idx of run directory out_dir; ConfigError
    ("missing snapshot <path>", "corrupt snapshot <path>: row N: ...")."""
    path = snapshot_path(out_dir, idx)
    if not os.path.isfile(path):
        raise ConfigError(f"missing snapshot {path}")
    try:
        return load_spectrum_csv(path)
    except ValueError as exc:  # its message starts with the path
        raise ConfigError(f"corrupt snapshot {exc}") from None


def read_energy_csv(path):
    """The ``RecordTable`` of an energy.csv; ValueError ("corrupt
    energy.csv: ...") on a wrong header or a malformed row, naming the file
    and the row's line (a byte that is not UTF-8 fails its row)."""
    records = RecordTable()
    with open(path, errors="surrogateescape") as fh:
        header = fh.readline().strip()
        if header != ENERGY_HEADER:
            raise ValueError(f"corrupt {ENERGY_FILE}: {path}: unexpected "
                             f"header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            parts = line.split(",")
            try:
                if len(parts) != 11:
                    raise ValueError(f"expected 11 columns, got {len(parts)}")
                f = [float(v) for v in parts[:10]]
                records.append(f[0], f[1:7], *f[7:], int(parts[10]))
            except ValueError as exc:
                raise ValueError(f"corrupt {ENERGY_FILE}: {path}, line "
                                 f"{lineno}: {exc}") from None
    return records


def verify_trajectory_dir(out_dir):
    """Recompute all verdicts of a run directory from its files alone.

    Returns the checks dict; also validates that every listed snapshot
    has its file and row and that its recomputed energy agrees with the
    logged column to 1e-12 relative, and (``run_complete``) that the run
    did not fail and that energy.csv has meta.json's count of records.
    """
    meta, records = read_run(out_dir)
    _, params = load_config(meta["params"])
    checks = decay_checks(records, params)
    worst = 0.0
    unmatched = []
    for idx in meta["snapshots"]:
        path = snapshot_path(out_dir, idx)
        if idx >= len(records) or not os.path.isfile(path):
            unmatched.append(idx)
            continue
        e = energy(read_snapshot(out_dir, idx), params)
        logged = records[idx].energy
        worst = max(worst, abs(e - logged) / max(1.0, abs(logged)))
    checks["energy_consistency"] = {
        "passed": worst <= 1e-12 and not unmatched,
        "max_relative_error": worst,
        "unmatched_snapshots": unmatched,
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
