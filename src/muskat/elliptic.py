"""Per-step quasilinear solve L_h U = F by contraction iteration.

The iteration splits L_h into its invertible base part plus the h-dependent
perturbation and repeats

    V_{n+1} = base^{-1}(F - perturbation(h, V_n)),    V_0 = base^{-1} F,

declaring convergence when the increment in the scheme norm (A^3 for the
small-slope models, A^4 for the thin film) drops below tolerance.  The map
is affine in V, so the increment sequence is exactly geometric with ratio
equal to the operator norm of base^{-1} perturbation; outside the small-h
regime that ratio exceeds one and the solve reports failure instead of
iterating forever.

For the models' right-hand side, F = N(h), the map and its start fold
into one bilinear sweep (``models``): V_{n+1} = T(V_n) with V_0 = T(0) =
base^{-1} N(h), or V_0 a guess.  The integrator starts an RK step's first
stage at T(0) and its later stages from the stage before.

``dense_solve`` is the independent reference route: it assembles the same
operator mode by mode against the cosine/sine basis and solves the dense
linear system directly.  It exists to check the iteration, never to replace
it.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
import numpy.random  # np.random: loaded here, not at its first use

from . import models
from .models import _sweep, _table
from .spectral import SpectralField, check_same_grid, random_decay_coeffs
from .spectral import wiener_norm

DEFAULT_MAX_ITER = 200
_STALL_LIMIT = 3
# power iteration of a stall's contraction factor: step budget, and the
# lag and relative tolerance of its stop rule
_POWER_STEPS = 200
_POWER_LAG = 10
_POWER_RTOL = 1e-3
_PROBES, _PROBE_SEED = 5, 0  # certify_smallness's power-iteration starts


class SolverError(RuntimeError):
    """A numerical failure of a solve or a trajectory (CLI exit code 2)."""


class NotContractingError(SolverError):
    """The fixed-point map expanded for several consecutive iterations,
    i.e. h lies outside the smallness regime."""

    def __init__(self, contraction_estimate, iterations):
        super().__init__(
            f"fixed-point map not contracting (ratio {contraction_estimate:.3g} "
            f">= 1 for {_STALL_LIMIT} consecutive iterations after "
            f"{iterations} iterations)"
        )
        self.contraction_estimate = contraction_estimate
        self.iterations = iterations


class RoundoffStallError(NotContractingError):
    """The increments stopped falling although the map contracts (estimate
    below 1): tol lies below the roundoff floor of the increments."""

    def __init__(self, contraction_estimate, iterations, increment, tol):
        SolverError.__init__(
            self,
            f"fixed-point increments stalled at {increment:.3g} above tol "
            f"{tol:.3g} after {iterations} iterations; the map contracts "
            f"(ratio {contraction_estimate:.3g} < 1), so tol lies below the "
            "roundoff floor of the increments"
        )
        self.contraction_estimate = contraction_estimate
        self.iterations = iterations


class MaxIterationsError(SolverError):
    def __init__(self, iterations, increment, tol):
        super().__init__(
            f"no convergence in {iterations} iterations "
            f"(last increment {increment:.3g}, tol {tol:.3g})"
        )
        self.iterations = iterations


@dataclass(slots=True)
class FixedPointReport:
    """Iteration diagnostics of one quasilinear solve.  contraction_estimate,
    the largest ratio of successive increments, is a one-step gain: it can
    exceed the spectral radius ``NotContractingError`` reports."""

    iterations: int
    final_residual: float
    contraction_estimate: float
    converged: bool
    increments: tuple
    norm_order: int
    tol: float

    as_dict = asdict


def default_tolerance(c):
    """1e-11 max(1, ||F||_{A0}) for the mean-zero coefficient array c of F.

    The sum runs over k >= 1, as in ``wiener_norm(F, 0)``, so the two give
    the same bits.  An RK step takes F = N(h) at its first stage and uses
    that tolerance for all its stages (``integrate``).
    """
    return 1e-11 * max(1.0, 2.0 * float(np.abs(c[1:]).sum()))


def _norm_raw(tab, c):
    """Scheme norm (A^3 small slope, A^4 thin film) of a coefficient array."""
    return 2.0 * float(np.add.reduce(tab.norm_k * np.abs(c)))


def _solve_raw(tab, V, a, pre, c, hphys, tol, max_iter):
    """Raw fixed point on coefficient arrays, from the guess V.
    Returns (U, iters, increments).

    The map is T(V) = a + base^{-1} B(h, pre + theta k^2 V): a = F/base,
    pre = 0 for L_h U = F (so T(V) = V0 + S V), and a = -rate h, pre = w h
    for the models' right-hand side.  Each iteration is one sweep
    (``models._sweep``): one inverse batch, which also transforms the
    profile c while hphys is None, and one forward batch.  Every sweep
    counts as an iteration and is checked: its increment ||T(V) - V|| in
    the scheme norm against tol, the stall rule and max_iter.  So a guess
    whose first increment is <= tol costs one sweep, and the a-posteriori
    bound q/(1-q) times the last increment holds from any guess.  With
    h = 0, or the quadratic terms off, the sweep is exactly zero.
    """
    increments = []
    stall = 0
    prev = None
    for it in range(1, max_iter + 1):
        psi = tab.tk2 * V
        psi += pre
        Vn, hphys = _sweep(tab, c, hphys, psi)
        Vn += a
        d = Vn - V
        inc = _norm_raw(tab, d)
        increments.append(inc)
        V = Vn
        if not math.isfinite(inc):
            raise NotContractingError(float("inf"), it)
        if inc <= tol:
            return V, it, increments
        if prev is not None and prev > 0.0:
            stall = stall + 1 if inc >= prev else 0
            if stall >= _STALL_LIMIT:
                ratio = _stall_ratio(tab, hphys, d)
                if ratio < 1.0:
                    raise RoundoffStallError(ratio, it, inc, tol)
                raise NotContractingError(ratio, it)
        prev = inc
    raise MaxIterationsError(max_iter, increments[-1], tol)


def _contraction_estimate(increments):
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0.0]
    return max(ratios) if ratios else 0.0


def _gain(tab, hphys, w):
    """The update S w and its gain ||S w|| / ||w|| in the scheme norm."""
    img, _ = _sweep(tab, None, hphys, tab.tk2 * w)
    return img, _norm_raw(tab, img) / _norm_raw(tab, w)


def _stall_ratio(tab, hphys, d):
    """Contraction factor of the fixed point: the spectral radius of the
    update S, by power iteration from d.

    The estimate is the two-step gain sqrt(||S^2 d|| / ||d||): a
    single-mode h couples mode k to k +- m only, so the dominant
    eigenvalues of S come as a pair +-lam and one-step gains alternate
    around |lam|.  Stops when an estimate agrees to _POWER_RTOL relative
    with the one _POWER_LAG steps earlier, or after _POWER_STEPS steps:
    where the next eigenvalue lies close (the thin film), successive
    estimates agree to that tolerance long before they converge.
    """
    ests = []
    gain = None
    for _ in range(_POWER_STEPS):
        d, g = _gain(tab, hphys, d)
        if not 0.0 < g < math.inf:
            return g
        d /= _norm_raw(tab, d)
        est = g if gain is None else math.sqrt(gain * g)
        if (len(ests) >= _POWER_LAG
                and abs(est - ests[-_POWER_LAG]) <= _POWER_RTOL * est):
            break
        ests.append(est)
        gain = g
    return est


def solve_quasilinear(h, F, params, tol=None, max_iter=DEFAULT_MAX_ITER):
    """Solve L_h U = F.  Returns (U, FixedPointReport).

    Raises NotContractingError outside the smallness regime, its subclass
    RoundoffStallError when the increments stall above a tol below their
    roundoff floor, and MaxIterationsError if the tolerance is not reached.
    """
    check_same_grid(h, F)
    tab = _table(h.n_modes, params)
    if tol is None:
        tol = default_tolerance(F.coeffs)
    V0 = models.invert_base(F, params).coeffs
    U_raw, iters, increments = _solve_raw(tab, V0, V0, np.zeros_like(V0),
                                          h.coeffs, None, tol, max_iter)
    U = SpectralField(U_raw, copy=False)
    residual = wiener_norm(
        SpectralField(
            models.apply_quasilinear(h, U, params).coeffs - F.coeffs, copy=False
        ),
        0,
    )
    report = FixedPointReport(
        iterations=iters,
        final_residual=residual,
        contraction_estimate=_contraction_estimate(increments),
        converged=True,
        increments=tuple(increments),
        norm_order=tab.spec.norm_order,
        tol=tol,
    )
    return U, report


def dense_solve(h, F, params):
    """Direct dense solve of L_h U = F over the cosine/sine mode basis.

    Assembles the operator column by column by applying it to each basis
    field, then solves with LAPACK.  O(N^2) operator applications plus an
    O(N^3) solve; intended for small grids as the reference route for the
    contraction iteration.
    """
    check_same_grid(h, F)
    n = h.n_modes
    dim = 2 * n  # [Re c_1..c_N, Im c_1..c_N]

    def to_vec(c):
        return np.concatenate([c[1:].real, c[1:].imag])

    def from_vec(v):
        c = np.zeros(n + 1, dtype=complex)
        c[1:] = v[:n] + 1j * v[n:]
        return c

    A = np.empty((dim, dim))
    basis = np.zeros(n + 1, dtype=complex)
    for j in range(dim):
        basis[:] = 0.0
        if j < n:
            basis[j + 1] = 1.0
        else:
            basis[j - n + 1] = 1j
        col = models.apply_quasilinear(h, SpectralField(basis), params)
        A[:, j] = to_vec(col.coeffs)
    sol = np.linalg.solve(A, to_vec(F.coeffs))
    return SpectralField(from_vec(sol), copy=False)


@dataclass(slots=True)
class SmallnessReport:
    h_a1: float
    contraction_factor: float
    probe_ratios: tuple
    passed: bool

    as_dict = asdict


def certify_smallness(h, params):
    """The contraction factor of the per-step fixed point at this h.

    The map is affine, so the factor is the spectral radius of S =
    base^{-1} perturbation(h, .): ``_stall_ratio``'s power iteration from
    the largest-gain of _PROBES random probes (one ``random_decay_coeffs``
    draw, |k|^-4 moduli), as probes alone miss the dominant modes.  Pass
    requires < 1.
    """
    tab = _table(h.n_modes, params)
    hphys = tab.phys(h.coeffs)
    probes = random_decay_coeffs(h.n_modes, (4,) * _PROBES,
                                 np.random.default_rng(_PROBE_SEED))
    ratios = [_gain(tab, hphys, w)[1] for w in probes]
    factor = _stall_ratio(tab, hphys, probes[int(np.argmax(ratios))])
    return SmallnessReport(
        h_a1=wiener_norm(h, 1),
        contraction_factor=factor,
        probe_ratios=tuple(ratios),
        passed=factor < 1.0,
    )
