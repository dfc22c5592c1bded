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

Transform budget.  With w = (chi + (lam/4) k^4) h the two quadratic pairs
of the small-slope forcing fold into one,

    sigma*chi [G(h*Gh) + dx(h dx h)] + sigma*lam/4 [G(h*G dx^4 h) + dx(h dx^5 h)]
        = sigma [G(h*G w) + dx(h dx w)],

so the forcing and the physical profile come from one 3-row inverse batch
[h, G w, dx w] and one 2-row forward batch.  The fixed-point update folds
-sigma*theta/base into its output rows and costs 2 + 2 rows per iteration,
so a small-slope right-hand side converging in one iteration transforms 9
rows of 4N points (thin film: 2 + 1 for the forcing, 1 + 1 per iteration).

Transform binding.  The batches call pocketfft's C++ ``c2r``/``r2c``
through ``scipy.fft._pocketfft.pypocketfft``, the code that numpy.fft and
scipy.fft both wrap, loaded already by ``spectral``'s ``import scipy.fft``.
A batch of 2-3 rows of 4N = 1024 points is mostly per-call overhead, and
the Python wrappers of ``numpy.fft.irfft``/``rfft`` add about 5-7 us per
call on top of the C++ work (``benchmarks/bench_kernels.py``).  The inverse
input is zero-padded from N+1 to 2N+1 modes in a fresh array, and the
forward input is the product of the factor rows and h.  The results are
bitwise equal to ``numpy.fft.irfft(., n=4N)`` and ``numpy.fft.rfft``, which
``tests/test_properties.py::test_transform_binding_bitwise_equals_numpy_fft``
checks at random N and row counts, so a change of the private binding
fails the tests instead of changing the outputs.

One description per model.  ``model_spec(params)`` is the one place the
model and depth names are read: it decides the thin film against the
small-slope models, the explicit model 2, the depth factor T, the scheme
norm order and the energy coefficient, and carries the symbols T(k),
base(k) and rate(k).  The op table, the solver, the integrator and the
diagnostics ask the spec instead of comparing names.

One table per model.  ``_OpTable`` holds its own model's base, forcing and
perturbation rows, so each operation is one function for all three models.
The benchmark's tracer (``perfbench/spans.py``) wraps attributes by name,
so the old per-model names stay bound as aliases until the program counts
its own layers (ROADMAP item 1).

Memory and threads.  The module keeps an immutable per-(n_modes, params)
table of symbol arrays, shared by every caller.  Each transform batch
allocates its own pad and product arrays (reused per-thread buffers saved
no measurable time) and no input array is written, so all operations are
safe to use from multiple threads.

Imports.  ``import muskat`` loads numpy, ``scipy.fft`` (which brings in
``scipy.special``) and ``scipy.sparse``, and no other scipy subpackage:
their start-up, about 240 modules for the integration routines alone,
would be paid by every CLI call and sweep worker.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c

from .params import ModelParams
from .spectral import (
    SQRT_2PI,
    SpectralField,
    check_same_grid,
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
    """

    params: ModelParams
    thin_film: bool
    explicit: bool
    finite_depth: bool
    norm_order: int
    t1: float
    energy_coefficient: float

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
    return ModelSpec(
        params=params,
        thin_film=thin_film,
        explicit=params.model == "wnl2",
        finite_depth=finite_depth,
        norm_order=4 if thin_film else 3,
        t1=t1,
        energy_coefficient=(math.sqrt(params.delta) * params.theta
                            if thin_film else params.theta * t1),
    )


class _OpTable:
    """Per-(n_modes, params) constant arrays for the FFT pipeline.

    ``base`` is ``ModelSpec.base``; ``force_*`` and ``pert_*`` are the
    model's forcing and perturbation rows, the perturbation being
    ``pert_scale`` (sigma*theta; thin film 1.0) times its products, and
    ``force_active`` (sigma, thin film eps, nonzero) switches both on.  The
    commutator and split rows depend on the depth only.

    Immutable after construction.  Scaling conventions: rows of *_stack are
    premultiplied so that irfft gives physical samples directly, rows of
    *_out fold in the inverse-transform normalization of the 4N product
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
        self.base = spec.base(k)
        to_phys = self.m / SQRT_2PI
        from_phys = SQRT_2PI / self.m
        self.h_scale = to_phys
        # commutator I(h,V): factors [G dxx V, dxxx V], outputs [G ., dx .]
        self.comm_stack = np.stack([-G * k**2 + 0j, ik**3]) * to_phys
        self.comm_out = np.stack([G + 0j, ik]) * from_phys
        # sign/tanh split of I: I_A = dx(h dxxx V) - Lam(h Lam^3 V),
        # I_B = Lam(h Lam^3 V) + G(h G dxx V)
        self.split_stack = np.stack([ik**3, k**3 + 0j, -G * k**2 + 0j]) * to_phys
        self.split_outA = np.stack([ik, -k + 0j]) * from_phys
        self.split_outB = np.stack([k + 0j, G + 0j]) * from_phys
        # forcing linear*c + sum(force_out * P[h phys(force_stack[1:] c)]),
        # force_stack[0] giving h itself; w = chi + lam/4 k^4
        wsym = p.chi + (p.lam / 4.0) * k**4
        dw = ik * wsym
        if spec.thin_film:
            # sqrt(delta) dx((1 + eps h) dx(w h)): factors [h, dx(w h)];
            # perturbation factor dx^3 V, output theta sqrt(delta) eps dx .
            sqd = math.sqrt(p.delta)
            self.force_linear = sqd * ik * dw
            self.force_stack = np.stack([np.ones_like(k) + 0j, dw]) * to_phys
            self.force_out = ik[None, :] * (sqd * p.epsilon * from_phys)
            self.force_active = p.epsilon != 0.0
            self.pert_stack = ik[None, :] ** 3 * to_phys
            self.pert_out = self.force_out * p.theta
            self.pert_scale = 1.0
        else:
            # -G w h + sigma [G(h * G w h) + dx(h * dx w h)]:
            # factors [h, G w h, dx w h], outputs sigma [G ., dx .]
            self.force_linear = -G * wsym
            self.force_stack = np.stack([np.ones_like(k), G * wsym, dw]) * to_phys
            self.force_out = np.stack([G + 0j, ik]) * (p.sigma * from_phys)
            self.force_active = p.sigma != 0.0
            self.pert_stack = self.comm_stack
            self.pert_out = self.comm_out
            self.pert_scale = p.sigma * p.theta
        # fixed point V <- V0 + sum(solve_out * P[h phys(pert_stack V)]): the
        # perturbation's sign and scale and the base inverse are folded
        # into the output rows
        self.solve_out = -(self.pert_scale * self.pert_out) / self.base
        self.norm_k = k**spec.norm_order

    # -- transforms: pocketfft's c2r/r2c on the 4N grid (module docstring).
    # The arguments are positional, c2r(a, axes, lastsize, forward, inorm)
    # and r2c(a, axes, forward, inorm); inorm=2 divides by 4N, 0 does not
    # scale.  Called with keywords, the binding holds an allocation that
    # grows to about 2 MB over the first 1e5 calls.

    def phys(self, c):
        # its own pad, not phys_stack: the tracer counts each batch once
        pad = np.zeros(2 * self.n + 1, complex)
        np.multiply(c, self.h_scale, out=pad[: self.n + 1])
        return _c2r(pad, (0,), self.m, False, 2)

    def phys_stack(self, rows):
        pad = np.zeros((rows.shape[0], 2 * self.n + 1), complex)
        pad[:, : self.n + 1] = rows
        return _c2r(pad, (1,), self.m, False, 2)

    def prods(self, hphys, rows_phys):
        return _r2c(rows_phys * hphys, (1,), True, 0)[:, : self.n + 1]


@lru_cache(maxsize=64)
def _table(n_modes, params):
    return _OpTable(n_modes, params)


# ---------------------------------------------------------------------------
# raw-array pipeline (used by the elliptic solver and the integrator)
# ---------------------------------------------------------------------------

def _weighted_sum(weights, rows):
    """sum_j weights_j rows_j, accumulated row by row in order (the same
    bits as ``(weights * rows).sum(axis=0)`` without the 2-D temporary)."""
    out = weights[0] * rows[0]
    for j in range(1, len(rows)):
        out += weights[j] * rows[j]
    return out


def _products(tab, hphys, rows, weights):
    """sum_j weights_j P[h phys(rows_j)], mean-projected: two batches."""
    out = _weighted_sum(weights, tab.prods(hphys, tab.phys_stack(rows)))
    out[0] = 0.0
    return out


def _forcing_with_h(tab, c):
    """N(h) and the physical h, from one inverse and one forward batch.

    Row 0 of ``force_stack`` is the profile, so one inverse batch yields
    both the product factors and the physical h the solve needs (3 + 2 rows
    small slope, 2 + 1 thin film).  The product rows are summed first and
    the linear part is added last: that order fixes the rounding of every
    output file.  With the quadratic terms off, N(h) is linear, no solve
    reads h and no transform runs: the physical h is None.
    """
    hphys = None
    if tab.force_active:
        ph = tab.phys_stack(tab.force_stack * c)
        hphys = ph[0]
        out = _weighted_sum(tab.force_out, tab.prods(hphys, ph[1:]))
        out += tab.force_linear * c
    else:
        out = tab.force_linear * c
    out[0] = 0.0
    return out, hphys


def _commutator_raw(tab, hphys, v):
    return _products(tab, hphys, tab.comm_stack * v, tab.comm_out)


def _perturb_raw(tab, hphys, v):
    """The perturbation of L_h divided by ``pert_scale``."""
    return _products(tab, hphys, tab.pert_stack * v, tab.pert_out)


def _solve_update(tab, hphys, v):
    """-base^{-1} perturbation(h, v): the fixed-point map minus its V0."""
    return _products(tab, hphys, tab.pert_stack * v, tab.solve_out)


# names perfbench/spans.py wraps, kept until ROADMAP item 1 retires it
_forcing_wnl_with_h = _forcing_wnl_raw = _forcing_lub_raw = _forcing_with_h
_lub_perturb_raw = _perturb_raw


def _rhs_wnl2_raw(tab, c):
    # the model-1 fixed-point map applied once, to mu instead of U
    f, hphys = _forcing_with_h(tab, c)
    out = f / tab.base
    if tab.force_active:
        out += _solve_update(tab, hphys, tab.force_linear * c / tab.base)
    return out


# ---------------------------------------------------------------------------
# public field-level operations
# ---------------------------------------------------------------------------

def forcing(h, params):
    """N(h): the linear and quadratic forcing of the model in ``params``."""
    tab = _table(h.n_modes, params)
    return SpectralField(_forcing_with_h(tab, h.coeffs)[0], copy=False)


def apply_quasilinear(h, U, params):
    """L_h U = base U + perturbation(h, U); the base operator alone when
    the quadratic terms are off (sigma = 0, thin film eps = 0) or h = 0."""
    check_same_grid(h, U)
    tab = _table(h.n_modes, params)
    out = tab.base * U.coeffs
    if tab.force_active:
        out = out + tab.pert_scale * _perturb_raw(tab, tab.phys(h.coeffs),
                                                  U.coeffs)
    out[0] = 0.0
    return SpectralField(out, copy=False)


def invert_base(F, params):
    """Solve base U = F mode by mode (symbol ``model_spec(params).base``)."""
    tab = _table(F.n_modes, params)
    out = F.coeffs / tab.base
    out[0] = 0.0
    return SpectralField(out, copy=False)


def commutator(h, V, params):
    """I(h,V) = G(h * G dxx V) + dx(h * dxxx V), dealiased and mean-projected."""
    check_same_grid(h, V)
    tab = _table(h.n_modes, params)
    out = _commutator_raw(tab, tab.phys(h.coeffs), V.coeffs)
    return SpectralField(out, copy=False)


def commutator_sign_split(h, V, params):
    """Split I(h,V) into the sign part and the tanh part.

    Mode by mode the interaction weight factors as
    |k||k-m|^3 [sgn(k)sgn(k-m) - tanh|k| tanh|k-m|]; adding and subtracting
    1 isolates the discontinuous piece (bracket sgn*sgn - 1, supported on
    |k| <= |m|) from the smooth one (bracket 1 - tanh*tanh).  As operators:

        I_A = dx(h dxxx V) - Lam(h Lam^3 V)
        I_B = Lam(h Lam^3 V) + G(h G dxx V)

    Returns (I_A, I_B); I_A + I_B reproduces ``commutator``.  For the
    unbounded depth symbol I_B is identically zero.
    """
    check_same_grid(h, V)
    tab = _table(h.n_modes, params)
    hphys = tab.phys(h.coeffs)
    rows = tab.phys_stack(tab.split_stack * V.coeffs)
    pr = tab.prods(hphys, rows)
    ia = _weighted_sum(tab.split_outA, pr[:2])
    ib = _weighted_sum(tab.split_outB, pr[1:])
    ia[0] = 0.0
    ib[0] = 0.0
    return SpectralField(ia, copy=False), SpectralField(ib, copy=False)


def leading_velocity_wnl2(h, params):
    """mu: the base inverse applied to the linear forcing.

    Mode formula: mu(k) = -(chi + (lam/4) k^4) |k| T(|k|) hhat(k) / ell(k).
    """
    tab = _table(h.n_modes, params)
    out = tab.force_linear * h.coeffs / tab.base
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
