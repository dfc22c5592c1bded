"""Operators and nonlinearities of the three interface evolution models.

All three models share the first-order-system form

    L_h(dh/dt) = N(h)

where ``L_h`` is an invertible base operator plus an h-dependent
perturbation and ``N`` collects the forcing terms:

* small-slope models (``wnl1``/``wnl2``, order-one depth):
    L_h U = (1 - theta*G*dxx) U + sigma*theta*I(h, U)
    I(h,V) = G(h * G dxx V) + dx(h * dxxx V)
    N(h)   = -chi*G h - (lam/4)*G dx^4 h
             + sigma*chi   [G(h*Gh)       + dx(h dx h)]
             + sigma*lam/4 [G(h*G dx^4 h) + dx(h dx^5 h)]
  with G the depth symbol (|k| tanh|k| bounded strip, |k| unbounded).
  Model 2 replaces U inside the sigma*theta term by the leading-order
  velocity mu = (1 - theta*G*dxx)^{-1}[-chi*G h - (lam/4)*G dx^4 h], which
  makes its right-hand side explicit.

* thin-film model (``lubrication``):
    L_h U = U + sqrt(delta)*theta*dx((1+eps*h) dx^3 U)
    N(h)  = sqrt(delta)*dx((1+eps*h) dx(chi*h + (lam/4) dx^4 h))

Every quadratic product is dealiased at formation (4N padding) and every
public operation returns a mean-zero field.

Transform budget.  With w = chi + (lam/4) k^4, the forcing and the
perturbation are one bilinear form B(h, psi), linear in psi:

    small slope:  B(h, psi) = sigma [G(h*G psi) + dx(h*dx psi)]
    thin film:    B(h, psi) = sqrt(delta) eps dx(h*dx psi)
    N(h)       = -base rate h + B(h, w h)
    L_h U      = base U - B(h, theta k^2 U)   (theta k^2 U = -theta dxx U)

so L_h U = N(h) is the fixed point U = T(U) of

    T(U) = -rate h + base^{-1} B(h, w h + theta k^2 U).

One sweep (``_sweep``) gives base^{-1} B(h, psi) from one inverse batch
[h, G psi, dx psi] (thin film [h, dx psi]) and one forward batch of 2 rows
(thin film 1); the profile row h is left out when the physical h is
already known.  So N(h)/base = T(0) is one sweep of 3 + 2 rows (thin film
2 + 1), each further fixed-point iteration 2 + 2 (1 + 1), model 2's
right-hand side T(mu), mu = -rate h, one sweep of 3 + 2, and a stage that
starts warm and converges at its first increment one sweep of 3 + 2.  A
cold small-slope stage converging in one iteration transforms 9 rows in 4
calls; an RK4 step whose warm stages converge at once, 24 rows in 10.

Transform binding.  The batches call pocketfft's C++ ``c2r``/``r2c``
through ``spectral.irfft``/``rfft``, the binding that numpy.fft and
scipy.fft both wrap, loaded from its file without scipy's package init.
A batch of 2-3 rows of 4N = 1024 points is mostly per-call overhead, and
``numpy.fft.irfft``/``rfft`` add about 5-12 us per call on top of the
C++ work (``benchmarks/bench_kernels.py``).  So a sweep builds its
batches in place: stack psi, and on a cold sweep h h_scale, are written
straight into a pad of 2N+1 modes whose modes N+1..2N stay zero, a warm
inverse batch and the forward batch are transformed into buffers kept
for the purpose, and the product with h is formed in place (``_Scratch``,
``_sweep``).  ``phys_stack`` takes that padded batch.  The results are
bitwise equal to ``numpy.fft.irfft(., n=4N)`` and ``numpy.fft.rfft``,
given buffers or not, which
``tests/test_properties.py::test_transform_binding_bitwise_equals_numpy_fft``
checks at random N and row counts, so a change of the binding fails the
tests instead of changing the outputs.  The sign split of the bounds
check runs the same way on batches of pairs (``_sign_split``): two
transform calls per batch instead of three per pair.

One description per model.  ``model_spec(params)`` is the one place the
model and depth names are read: it decides the thin film against the
small-slope models, the explicit model 2, the depth factor T, the scheme
norm order and the energy coefficient, and carries the symbols T(k),
base(k) and rate(k).  The op table, the solver, the integrator and the
diagnostics ask the spec instead of comparing names.

One table per model.  ``_OpTable`` holds one set of model rows: the
sweep's factor rows ``stack`` ([G, ik], thin film [ik]), its output rows
``out`` (the same symbols times sigma, thin film sqrt(delta) eps, over
base) and ``lin`` = -rate, so each operation is one function for all
three models.  The benchmark's tracer (``perfbench/spans.py``) wraps
attributes by name, so the old per-model names stay bound as aliases
until the program counts its own layers (ROADMAP item 1): the forcing
and thin-film perturbation names to ``_sweep``, ``_commutator_raw`` to
``_bilinear_form``: the sweep on the wnl1 table at sigma = 1, the one
evaluation of B that the commutator I(h, V) = B(h, dxx V) (the
perturbation at sigma = theta = 1) and strip's surface-map check use.

Memory and threads.  The module keeps an immutable per-(n_modes, params)
table of symbol arrays, shared by every caller, and with each table one
set of sweep buffers per thread that uses it (a ``threading.local``, 14 KB
at N = 64 and 56 KB at N = 256).  Only ``_sweep`` writes them, nothing
returned is a view of them (a cold sweep's physical h is a new array),
and no input array is written, so all operations are safe to use from
multiple threads.  Against per-call arrays, taking turns in one process
(2-CPU VM), a sweep took 10-14% less time and an RK4 step of wnl1 11% less
at N = 64 and 9% less at N = 256.

Imports.  ``import muskat`` loads numpy (with ``numpy.random``) and the
package, and no scipy module: the FFT binding is one extension file
(``spectral``) and the strip solver needs no sparse matrix (``strip``).
In a fresh interpreter ``import muskat.cli`` takes about 0.2 s, against
0.5 s with ``scipy.fft`` and ``scipy.sparse``.
"""

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .params import ModelParams
from .spectral import (
    SQRT_2PI,
    SpectralField,
    check_same_grid,
    irfft,
    rfft,
    tanh_clamped,
)

__all__ = [
    "forcing",
    "apply_quasilinear",
    "invert_base",
    "commutator",
    "commutator_sign_split",
    "leading_velocity_wnl2",
    "rhs_wnl2",
    "linear_decay_rate",
    "model_spec",
]


# Slack of the fitted A0 decay rate against ModelSpec.decay_bound: absolute
# below the small-slope rate chi*T(1)/2, a share of the thin film's rate(1).
DECAY_RATE_MARGIN = 0.05
THIN_FILM_RATE_SHARE = 0.9


@dataclass(frozen=True)
class ModelSpec:
    """What the model and depth of one ``ModelParams`` decide.

    thin_film          : lubrication (base 1 + sqrt(delta) theta k^4, A^4
                         scheme norm) rather than a small-slope model
    explicit           : model 2, whose right-hand side needs no solve
    finite_depth       : bounded strip (T = tanh) rather than unbounded (T = 1)
    norm_order         : order s of the scheme norm A^s (3 or 4)
    t1                 : T(1), tanh(1) for the bounded strip, 1 unbounded
    energy_coefficient : weight of the A^s norm in the energy
    evolution_params   : params, the fields no run reads at their defaults
                         (thin film depth; small slope delta and epsilon)
    """

    params: ModelParams
    thin_film: bool
    explicit: bool
    finite_depth: bool
    norm_order: int
    t1: float
    energy_coefficient: float
    evolution_params: ModelParams

    def T(self, k):
        """Depth factor of G = |k| T(|k|): tanh|k| or 1."""
        return tanh_clamped(k) if self.finite_depth else np.ones_like(k)

    def base(self, k):
        """Symbol of the base operator acting on dh/dt (always >= 1)."""
        k = np.abs(k)
        p = self.params
        if self.thin_film:
            return 1.0 + math.sqrt(p.delta) * p.theta * k**4
        return 1.0 + p.theta * k**3 * self.T(k)

    def rate(self, k):
        """Decay rate m(k) of the linearized evolution dh/dt = -m h."""
        k = np.abs(np.asarray(k, dtype=float))
        p = self.params
        if self.thin_film:
            sqd = math.sqrt(p.delta)
            return sqd * (p.chi * k**2 + (p.lam / 4.0) * k**6) / self.base(k)
        return (p.chi + (p.lam / 4.0) * k**4) * k * self.T(k) / self.base(k)

    def decay_bound(self):
        """Least decay rate of ||h||_{A0} that a chi = +1 run must fit, or
        None where the model gives no rate.

        Small slope: chi*T(1)/2 - DECAY_RATE_MARGIN when lam > 0, the
        rate of the dissipation estimate (none at lam = 0).

        Thin film: linearized, mode k decays at rate(k) = sqrt(delta) k^2
        (chi + (lam/4) k^4) / (1 + sqrt(delta) theta k^4).  The factor after
        k^2 is monotone in k^4 and grows when lam/4 >= chi sqrt(delta) theta,
        so every rate(k) >= rate(1) and ||h||_{A0}, a sum of the moduli,
        decays at least at rate(1); otherwise (lam = 0: rate(k) ->
        1/(theta k^2)) no rate is a lower bound.  The bound is the share
        THIN_FILM_RATE_SHARE of rate(1) (0.114 at configs/lubrication.cfg),
        leaving room for the O(eps |h|) nonlinear coupling.
        """
        p = self.params
        if self.thin_film:
            if p.lam / 4.0 < p.chi * math.sqrt(p.delta) * p.theta:
                return None
            return THIN_FILM_RATE_SHARE * float(self.rate(1.0))
        if p.lam <= 0:
            return None
        return p.chi * self.t1 / 2.0 - DECAY_RATE_MARGIN


@lru_cache(maxsize=64)
def model_spec(params):
    """The cached ``ModelSpec`` of ``params``: every model and depth
    decision of the package is made here, once."""
    if not isinstance(params, ModelParams):
        raise TypeError("params must be a ModelParams")
    thin_film = params.model == "lubrication"
    finite_depth = params.depth == "finite"
    t1 = math.tanh(1.0) if finite_depth else 1.0
    unread = ("depth",) if thin_film else ("delta", "epsilon")
    return ModelSpec(
        params=params,
        thin_film=thin_film,
        explicit=params.model == "wnl2",
        finite_depth=finite_depth,
        norm_order=4 if thin_film else 3,
        t1=t1,
        energy_coefficient=(math.sqrt(params.delta) * params.theta
                            if thin_film else params.theta * t1),
        evolution_params=replace(params, **{f: getattr(ModelParams, f)
                                            for f in unread}),
    )


class _Scratch(threading.local):
    """One thread's sweep buffers for one op table.  ``pad`` holds the
    inverse batch [h, stack psi] on 2N+1 modes, of which only 0..N are
    written (``pad_h``, ``pad_rows``), so N+1..2N stay zero; ``warm`` is
    its stack rows.  ``phys`` takes a warm inverse batch, ``spec`` the
    forward batch."""

    def __init__(self, n, rows):
        self.pad = np.zeros((rows + 1, 2 * n + 1), complex)
        self.pad_h = self.pad[0, : n + 1]
        self.pad_rows = self.pad[1:, : n + 1]
        self.warm = self.pad[1:]
        self.phys = np.empty((rows, 4 * n))
        self.spec = np.empty((rows, 2 * n + 1), complex)


class _OpTable:
    """Per-(n_modes, params) constant arrays for the FFT pipeline.

    The model rows are one set: the sweep's factor rows ``stack`` and
    output rows ``out`` (module docstring), ``lin`` = -rate, the forcing
    weight ``w`` = chi + (lam/4) k^4 and ``tk2`` = theta k^2, the factor of
    U in the sweep's argument.  ``lin``, ``w``, ``tk2`` and ``base`` are
    stored complex, as each product with coefficients would cast a float
    row (by ``astype``: + 0j would turn lin[0] = -0.0 into +0.0).
    ``force_active`` (sigma, thin film eps, nonzero) switches the quadratic
    terms on.  The split rows depend on the depth only.

    The arrays are immutable after construction; ``scratch`` is each
    thread's own ``_Scratch``.  Scaling conventions: rows of *stack are
    premultiplied so that irfft gives physical samples directly, rows of
    *out fold in the inverse-transform normalization of the 4N product
    grid.
    """

    def __init__(self, n_modes, p):
        n = n_modes
        self.n = n
        self.m = 4 * n
        self.spec = spec = model_spec(p)
        k = np.arange(n + 1, dtype=float)
        G = k * spec.T(k)
        ik = 1j * k
        self.base = spec.base(k).astype(complex)
        to_phys = self.m / SQRT_2PI
        from_phys = SQRT_2PI / self.m
        self.h_scale = to_phys
        # sign/tanh split of I: I_A = dx(h dxxx V) - Lam(h Lam^3 V),
        # I_B = Lam(h Lam^3 V) + G(h G dxx V)
        self.split_stack = np.stack([ik**3, k**3 + 0j, -G * k**2 + 0j]) * to_phys
        self.split_outA = np.stack([ik, -k + 0j]) * from_phys
        self.split_outB = np.stack([k + 0j, G + 0j]) * from_phys
        # B(h, psi) / base = sum(out * P[h phys(stack psi)])
        if spec.thin_film:
            rows = ik[None, :]
            coef = math.sqrt(p.delta) * p.epsilon
        else:
            rows = np.stack([G + 0j, ik])
            coef = p.sigma
        self.force_active = coef != 0.0
        self.stack = rows * to_phys
        self.out = rows * (coef * from_phys) / self.base.real
        self.lin = (-spec.rate(k)).astype(complex)
        self.w = (p.chi + (p.lam / 4.0) * k**4).astype(complex)
        self.tk2 = (p.theta * k**2).astype(complex)
        self.norm_k = k**spec.norm_order
        self.scratch = _Scratch(n, len(rows))

    # -- transforms: pocketfft's c2r/r2c on the 4N grid (module docstring).
    # The tracer counts the rows of a batch as shape[0] of the last
    # positional argument, so ``out`` is passed last and has one per row.

    def phys(self, c):
        # its own pad, not phys_stack: the tracer counts each batch once
        pad = np.zeros(2 * self.n + 1, complex)
        np.multiply(c, self.h_scale, out=pad[: self.n + 1])
        return irfft(pad, self.m, 0)

    def phys_stack(self, pad, out=None):
        """The inverse transform of each row of pad, rows already scaled
        and zero-padded to 2N+1 modes: into out if given, else new."""
        return irfft(pad, self.m, 1, out)

    def prods(self, hphys, rows_phys, out=None):
        """Modes 0..N of P[hphys * row] for each row of rows_phys (hphys
        one row, or one per row).  Given out (one row per row of
        rows_phys, 2N+1 modes), the product is formed in rows_phys itself
        and transformed into out; else both are new arrays."""
        if out is None:
            rows_phys = rows_phys * hphys
        else:
            rows_phys *= hphys
        return rfft(rows_phys, 1, out)[:, : self.n + 1]


@lru_cache(maxsize=64)
def _table(n_modes, params):
    return _OpTable(n_modes, params)


# ---------------------------------------------------------------------------
# raw-array pipeline (used by the elliptic solver and the integrator)
# ---------------------------------------------------------------------------

def _weighted_sum(weights, rows):
    """sum_j weights_j rows_j, accumulated row by row in order.  It stays
    because ``(weights * rows).sum(axis=0)``, the same bits, took 3.5-4.2 us
    against 2.0 for the thin film's one row at N = 256 (two rows: 4-5 us)."""
    out = weights[0] * rows[0]
    for j in range(1, len(rows)):
        out += weights[j] * rows[j]
    return out


def _sweep(tab, c, hphys, psi):
    """base^{-1} B(h, psi), mean-projected, and the physical h.

    One inverse batch and one forward batch.  With hphys None the profile
    c is row 0 of the inverse batch, so the same call yields the physical
    h that later sweeps of this h reuse (3 + 2 rows small slope, 2 + 1 thin
    film); given hphys, c is not read (2 + 2, 1 + 1).  With the quadratic
    terms off, B = 0 exactly and no transform runs.  The batches are
    built in the thread's ``_Scratch`` (module docstring), except a cold
    inverse batch, a new array: the hphys returned is never scratch.
    """
    if not tab.force_active:
        return np.zeros(tab.n + 1, complex), hphys
    s = tab.scratch
    np.multiply(tab.stack, psi, out=s.pad_rows)
    if hphys is None:
        np.multiply(c, tab.h_scale, out=s.pad_h)
        ph = tab.phys_stack(s.pad)
        hphys, ph = ph[0], ph[1:]
    else:
        ph = tab.phys_stack(s.warm, s.phys)
    out = _weighted_sum(tab.out, tab.prods(hphys, ph, s.spec))
    out[0] = 0.0
    return out, hphys


def _bilinear_form(c, psi, depth):
    """G(h*G psi) + dx(h*dx psi), G of ``depth``: B(h, psi) at sigma = 1, one
    sweep on the wnl1 table times its base; truncated at c's N modes."""
    tab = _table(len(c) - 1, ModelParams(sigma=1.0, depth=depth))
    out, _ = _sweep(tab, c, None, psi)
    out *= tab.base
    return out


# names perfbench/spans.py wraps, kept until ROADMAP item 1 retires it
_forcing_wnl_with_h = _forcing_wnl_raw = _forcing_lub_raw = _sweep
_lub_perturb_raw, _commutator_raw = _sweep, _bilinear_form


def _rhs_wnl2_raw(tab, c):
    """T(mu), mu = -rate h: model 2's dh/dt from one sweep."""
    mu = tab.lin * c
    out, _ = _sweep(tab, c, None, tab.tk2 * mu + tab.w * c)
    out += mu
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# public field-level operations
# ---------------------------------------------------------------------------

def forcing(h, params):
    """N(h): the linear and quadratic forcing of the model in ``params``,
    base T(0) (module docstring)."""
    tab = _table(h.n_modes, params)
    c = h.coeffs
    out, _ = _sweep(tab, c, None, tab.w * c)
    out += tab.lin * c
    out *= tab.base
    out[0] = 0.0
    return SpectralField(out, copy=False)


def apply_quasilinear(h, U, params):
    """L_h U = base U + perturbation(h, U), the perturbation -base S U."""
    check_same_grid(h, U)
    tab = _table(h.n_modes, params)
    out = tab.base * U.coeffs
    out -= tab.base * _sweep(tab, h.coeffs, None, tab.tk2 * U.coeffs)[0]
    out[0] = 0.0
    return SpectralField(out, copy=False)


def invert_base(F, params):
    """Solve base U = F mode by mode (symbol ``model_spec(params).base``)."""
    tab = _table(F.n_modes, params)
    out = F.coeffs / tab.base
    out[0] = 0.0
    return SpectralField(out, copy=False)


def commutator(h, V, params):
    """I(h,V) = G(h * G dxx V) + dx(h * dxxx V) = B(h, dxx V) at sigma = 1."""
    check_same_grid(h, V)
    psi = -np.arange(h.n_modes + 1.0) ** 2 * V.coeffs
    return SpectralField(_bilinear_form(h.coeffs, psi, params.depth),
                         copy=False)


def commutator_sign_split(h, V, params):
    """Split I(h,V) into the sign part and the tanh part.

    Mode by mode the interaction weight factors as
    |k||k-m|^3 [sgn(k)sgn(k-m) - tanh|k| tanh|k-m|]; adding and subtracting
    1 isolates the discontinuous piece (bracket sgn*sgn - 1, supported on
    |k| <= |m|) from the smooth one (bracket 1 - tanh*tanh).  As operators:

        I_A = dx(h dxxx V) - Lam(h Lam^3 V)
        I_B = Lam(h Lam^3 V) + G(h G dxx V)

    Returns (I_A, I_B); I_A + I_B reproduces ``commutator``.  For the
    unbounded depth symbol I_B is identically zero.  The evaluation is
    ``_sign_split`` on a batch of one pair.
    """
    check_same_grid(h, V)
    ia, ib = _sign_split(_table(h.n_modes, params), h.coeffs[None],
                         V.coeffs[None])
    return SpectralField(ia[0], copy=False), SpectralField(ib[0], copy=False)


def _sign_split(tab, h, v):
    """(I_A, I_B) of ``commutator_sign_split`` for the B pairs (h[b], v[b])
    of two (B, N+1) coefficient arrays, as two (B, N+1) arrays.

    One inverse batch of 4B rows, h then the three split rows of every
    V (row order j*B + b), and one forward batch of 3B products.
    """
    b, n1 = h.shape[0], tab.n + 1
    pad = np.zeros((4, b, 2 * tab.n + 1), complex)
    np.multiply(h, tab.h_scale, out=pad[0, :, :n1])
    np.multiply(tab.split_stack[:, None], v, out=pad[1:, :, :n1])
    ph = tab.phys_stack(pad.reshape(4 * b, -1))
    pr = tab.prods(np.tile(ph[:b], (3, 1)), ph[b:]).reshape(3, b, n1)
    ia = _weighted_sum(tab.split_outA[:, None], pr[:2])
    ib = _weighted_sum(tab.split_outB[:, None], pr[1:])
    ia[:, 0] = 0.0
    ib[:, 0] = 0.0
    return ia, ib


def leading_velocity_wnl2(h, params):
    """mu: the base inverse applied to the linear forcing.

    Mode formula: mu(k) = -(chi + (lam/4) k^4) |k| T(|k|) hhat(k) / ell(k).
    """
    tab = _table(h.n_modes, params)
    out = tab.lin * h.coeffs
    out[0] = 0.0
    return SpectralField(out, copy=False)


def rhs_wnl2(h, params):
    """Full dh/dt for model 2: base inverse of N(h) - sigma*theta*I(h, mu)."""
    tab = _table(h.n_modes, params)
    return SpectralField(_rhs_wnl2_raw(tab, h.coeffs), copy=False)


def linear_decay_rate(k, params):
    """Per-mode decay rate m(k) of the linearized evolution (dh/dt = -m h).

    Small slope: m(k) = (chi + (lam/4) k^4) |k| T(|k|) / (1 + theta |k|^3 T);
    thin film:   m(k) = sqrt(delta) (chi k^2 + (lam/4) k^6)
                        / (1 + sqrt(delta) theta k^4).
    """
    return model_spec(params).rate(k)
