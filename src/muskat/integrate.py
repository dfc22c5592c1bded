"""Explicit time stepping of dh/dt = U(h) with the per-stage elliptic solve.

Each right-hand-side evaluation inverts the quasilinear operator: the
contraction solve for models ``wnl1``/``lubrication``, the explicit formula
for ``wnl2``.  Because the inversion caps the stiffness of the solved rate
at O(k^2) (the rate tends to (lam/4theta) k^2 as |k| grows), classical RK4
with dt of order 1/N^2 is stable and no implicit machinery is needed.

The first stage is solved once per step: it does not depend on dt, so a
failure there ends the run at once.  It starts cold, at T(0) = N(h)/base
(``models``), so the contraction check that ends a run outside the
smallness regime runs at every step; with tol None its tolerance is
1e-11 max(1, ||N(h)||_{A0}), and the later stages reuse it.  Stages 2-4
start warm, from the stage before moved on by the linear part, and cost
one sweep when their first increment is within tol.  A step is rejected,
and dt halved, whenever a later stage solve fails to contract or the step
produces non-finite values; dt recovers by a factor 1.2 every 10 accepted
steps up to the configured value.  The mean mode is pinned to zero after
every accepted step.  A run whose dt times the largest linear rate it can
reach is past the scheme's real-axis stability limit (Euler 2, RK4 2.785)
is refused before its first step (``check_step_size``).
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import diagnostics, models
from .config import SCHEMES, ConfigError
from .elliptic import (
    DEFAULT_MAX_ITER,
    MaxIterationsError,
    NotContractingError,
    SolverError,
    _solve_raw,
    default_tolerance,
    solve_quasilinear,
)
from .models import _sweep, _table
from .spectral import SpectralField, save_spectrum_csv

DT_FLOOR = 1e-14
_RECOVER_EVERY = 10
_RECOVER_FACTOR = 1.2
RUN_FIELDS = ("n_modes", "dt", "t_end", "scheme", "tol", "max_iter",
              "output_cadence", "snapshot_cadence")  # of SolverConfig

# Real-axis stability limits: a scheme keeps the linear modes dh/dt = -m h
# bounded for dt*m up to its limit (RK4's is 2.7853)
STABILITY_LIMITS = {"euler": 2.0, "rk4": 2.785}


class StepSizeUnderflowError(SolverError):
    def __init__(self, dt, t, rejected_steps):
        super().__init__(f"time step underflow (dt={dt:.3g} at t={t:.6g})")
        self.dt = dt
        self.t = t
        self.rejected_steps = rejected_steps  # trajectory total, this one included


def check_step_size(h0, params, dt, scheme):
    """ConfigError when dt times the largest linear decay rate of the modes
    a run from h0 can reach is past the scheme's real-axis stability
    limit: such a run grows those modes until its solve fails to contract.
    A coupled run reaches every mode 1..N; an uncoupled one (sigma, thin
    film eps, zero) moves only the modes h0 holds, each on its own."""
    tab = _table(h0.n_modes, params)
    rates = -tab.lin.real
    if not tab.force_active:
        rates = rates[h0.coeffs != 0]
    rate = float(rates.max(initial=0.0))
    limit = STABILITY_LIMITS[scheme]
    if dt * rate > limit:
        raise ConfigError(
            f"dt = {dt:.6g} is past the {scheme} stability limit: dt * max_k "
            f"rate(k) = {dt * rate:.4g} > {limit} (largest rate {rate:.6g}, "
            f"so dt <= {limit / rate:.6g})")


@dataclass(slots=True)
class IntegratorState:
    """Time, current field, step size and bookkeeping for one trajectory."""

    h: SpectralField
    dt: float
    scheme: str = "rk4"
    t: float = 0.0
    dt_max: float | None = None  # None: dt
    step_count: int = 0
    rejected_steps: int = 0
    accepted_streak: int = 0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be {' or '.join(SCHEMES)}")
        if self.dt_max is None:
            self.dt_max = self.dt


def _rhs_raw(tab, c, tol, max_iter, guess=None):
    """dh/dt for the model of tab.spec.  Returns (coeffs, solver
    iterations, tol).

    dh/dt is the fixed point U = T(U), T(U) = -rate h + base^{-1} B(h, w h
    + theta k^2 U) (``models``); model 2 takes T(mu), mu = -rate h, and no
    solve.  Without a guess the iteration starts cold at T(0) = N(h)/base,
    whose sweep also transforms h, and a tol of None becomes
    ``default_tolerance(N(h))``.  A guess needs a tol: the iteration starts
    there, and its first sweep transforms h.  The tol used comes back, so a
    step can reuse its first stage's.
    """
    if tab.spec.explicit:
        return models._rhs_wnl2_raw(tab, c), 0, tol
    a = tab.lin * c
    if not tab.force_active:  # T = a: exact in one iteration at any tol
        return a, 1, tol
    pre = tab.w * c
    hphys = None
    if guess is None:
        guess, hphys = _sweep(tab, c, None, pre)
        guess += a
        if tol is None:
            tol = default_tolerance(tab.base * guess)
    U, iters, _ = _solve_raw(tab, guess, a, pre, c, hphys, tol, max_iter)
    return U, iters, tol


def _try_advance(tab, c, k1, dt, scheme, tol, max_iter):
    """One explicit step attempt from the solved first stage k1, with the
    first stage's tolerance tol.  Returns (c_new, iterations of the later
    stages).

    Stages 2-4 start their fixed point from the stage before moved on by
    the linear part, U_g = k_prev - rate (x - x_prev), x the stage input:
    x - x_prev is (dt/2) k1, (dt/2)(k2 - k1) and dt k3 - (dt/2) k2.  The
    textbook form cost 2% of the N = 256 benchmark run's time against the
    same bits computed in place in reused buffers.
    """
    if scheme == "euler":
        cn = c + dt * k1
        iters = 0
    else:
        half, lin = 0.5 * dt, tab.lin
        hk1 = half * k1
        k2, n2, _ = _rhs_raw(tab, c + hk1, tol, max_iter, k1 + lin * hk1)
        hk2 = half * k2
        k3, n3, _ = _rhs_raw(tab, c + hk2, tol, max_iter,
                             k2 + lin * (half * (k2 - k1)))
        dk3 = dt * k3
        k4, n4, _ = _rhs_raw(tab, c + dk3, tol, max_iter,
                             k3 + lin * (dk3 - hk2))
        cn = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        iters = n2 + n3 + n4
    cn[0] = 0.0
    if not np.isfinite(cn).all():
        raise NotContractingError(float("inf"), 0)
    return cn, iters


def step(state, params, tol=None, max_iter=DEFAULT_MAX_ITER):
    """Advance one accepted step, halving dt on later-stage failures.

    Returns (new_state, k1_field, solver_iterations); k1 is the solved
    dh/dt at the step's starting point.  A failed k1 solve raises at once:
    no smaller dt changes it.  A tol of None becomes the k1 solve's
    default, which every attempt's later stages reuse.
    """
    tab = _table(state.h.n_modes, params)
    c = state.h.coeffs
    k1, n1, tol = _rhs_raw(tab, c, tol, max_iter)
    dt = state.dt
    rejected = state.rejected_steps
    streak = state.accepted_streak
    while True:
        try:
            cn, iters = _try_advance(tab, c, k1, dt, state.scheme, tol, max_iter)
            break
        except (NotContractingError, MaxIterationsError):
            rejected += 1
            streak = 0
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepSizeUnderflowError(dt, state.t, rejected)
    t_new = state.t + dt
    streak += 1
    dt_next = dt
    if streak % _RECOVER_EVERY == 0:
        dt_next = min(dt * _RECOVER_FACTOR, state.dt_max)
    # cn passed _try_advance's finiteness scan, which a non-finite k1
    # would have failed, so neither is scanned again
    new = IntegratorState(
        h=SpectralField._checked(cn),
        dt=dt_next,
        scheme=state.scheme,
        t=t_new,
        dt_max=state.dt_max,
        step_count=state.step_count + 1,
        rejected_steps=rejected,
        accepted_streak=streak,
    )
    return new, SpectralField._checked(k1), n1 + iters


def run_inputs(h0, params, config):
    """What ``run`` reads: the model's ``evolution_params``, h0's bytes and
    config's RUN_FIELDS.  Two runs with equal inputs write the same
    energy.csv and snapshots/; meta.json's dump of the config is not one."""
    return (models.model_spec(params).evolution_params, h0.coeffs.tobytes(),
            tuple(getattr(config, f) for f in RUN_FIELDS))


@dataclass(slots=True)
class Trajectory:
    """The records (a ``diagnostics.RecordTable``), final field and
    rejected steps of one run."""

    records: diagnostics.RecordTable
    final_h: SpectralField
    rejected_steps: int


def run(h0, params, config):
    """Integrate to config.t_end, emitting records and snapshot files.

    Before anything is written, an h0 whose n_modes is not config.n_modes
    (ValueError: config sets the grid) and a config.dt past the scheme's
    stability limit (``check_step_size``, ConfigError) are rejected.  A
    step that would pass t_end is shortened to land on it.  Records are
    taken every output_cadence-th step (the step's starting point, whose
    stage-1 solve provides the logged dh/dt at no extra cost) plus the
    final state, each a row that ``diagnostics.make_record`` appends to
    the run's ``diagnostics.RecordTable``.  Deterministic: identical
    config and initial data produce identical bytes on disk.  If the run
    fails, whatever the error, the records so far are written
    (``diagnostics.write_run``, with "failed") before the exception
    propagates.  ``write_run`` also deletes the snapshot files an earlier
    run left in the directory that this run did not rewrite, so
    snapshots/ holds exactly meta.json's list.
    """
    if h0.n_modes != config.n_modes:
        raise ValueError(f"h0 has {h0.n_modes} modes, config {config.n_modes}")
    check_step_size(h0, params, config.dt, config.scheme)
    out_dir = config.output_dir
    if out_dir:
        os.makedirs(os.path.join(out_dir, diagnostics.SNAPSHOT_DIR), exist_ok=True)
    tab = _table(h0.n_modes, params)

    state = IntegratorState(h=h0, dt=config.dt, scheme=config.scheme)
    # roundoff in t stays orders below slack, so a run whose t_end/dt is a
    # whole number keeps its last step whole
    slack = 1e-9 * max(1.0, config.t_end)

    records = diagnostics.RecordTable()
    snap_indices = []

    def record(t, h, dth, iters):
        diagnostics.make_record(records, t, h, dth, iters, params)

    def snapshot(h):
        idx = len(records) - 1
        snap_indices.append(idx)
        if out_dir:
            save_spectrum_csv(h, diagnostics.snapshot_path(out_dir, idx))

    final_report = failure = None
    try:
        while config.t_end - state.t > slack:
            if state.t + state.dt - config.t_end > slack:
                state.dt = config.t_end - state.t  # land on t_end
            due = state.step_count % config.output_cadence == 0
            t_pre, h_pre = state.t, state.h
            state, k1, iters = step(state, params, config.tol, config.max_iter)
            if due:
                record(t_pre, h_pre, k1, iters)
                idx = len(records) - 1
                if config.snapshot_cadence and idx % config.snapshot_cadence == 0:
                    snapshot(h_pre)
        # the closing rhs evaluation doubles as the logged solve report
        h = state.h
        if tab.spec.explicit:
            kf, itf, _ = _rhs_raw(tab, h.coeffs, config.tol, config.max_iter)
        else:
            U, rep = solve_quasilinear(h, models.forcing(h, params), params,
                                       config.tol, config.max_iter)
            final_report = rep.as_dict()
            kf, itf = U.coeffs, rep.iterations
        record(state.t, h, SpectralField(kf, copy=False), itf)
        snapshot(h)
    except StepSizeUnderflowError as exc:
        failure = exc  # flush partial output below, then re-raise
        state.rejected_steps = exc.rejected_steps
    except Exception as exc:
        failure = exc  # any other error: keep what was computed, re-raise

    if out_dir:
        diagnostics.write_run(out_dir, config, params, records, snap_indices,
                              state.rejected_steps, final_report, failure)
    if failure is not None:
        raise failure
    return Trajectory(records, state.h, state.rejected_steps)
