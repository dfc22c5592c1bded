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
-sigma*theta/ell0 into its output rows and costs 2 + 2 rows per iteration,
so a small-slope right-hand side converging in one iteration transforms 9
rows of 4N points (thin film: 2 + 1 for the forcing, 1 + 1 per iteration).

Transform binding.  The batches call pocketfft's C++ ``c2r``/``r2c``
through ``scipy.fft._pocketfft.pypocketfft``, the code that numpy.fft and
scipy.fft both wrap, loaded already by ``spectral``'s ``import scipy.fft``.
A batch of 2-3 rows of 4N = 1024 points is mostly per-call overhead, and
the Python wrappers of ``numpy.fft.irfft``/``rfft`` add about 5-7 us per
call on top of the C++ work (``benchmarks/bench_kernels.py``).  The inverse
input is zero-padded from N+1 to 2N+1 modes, and the forward input is the
product of the factor rows and h, both in scratch buffers (below).
The results are bitwise equal to ``numpy.fft.irfft(., n=4N)`` and
``numpy.fft.rfft``, which
``tests/test_properties.py::test_transform_binding_bitwise_equals_numpy_fft``
checks at random N and row counts, so a change of the private binding
fails the tests instead of changing the outputs.

One description per model.  ``model_spec(params)`` is the one place the
model and depth names are read: it decides the thin film against the
small-slope models, the explicit model 2, the depth factor T, the scheme
norm order and the energy coefficient, and carries the symbols T(k),
base(k) and rate(k).  The op table, the solver, the integrator and the
diagnostics ask the spec instead of comparing names.

Memory and threads.  The module keeps an immutable per-(n_modes, params)
table of symbol arrays, shared by every caller.  The scratch buffers of the
transform batches (the 2N+1-mode pads and the 4N-point product rows)
belong to the calling thread, never to the table: ``_scratch`` keeps one
of each shape per thread and reuses it on every call, which spares an
allocation per batch.  No buffer outlives the call that fills it and no
input array is written, so all operations are safe to use from multiple
threads.

Imports.  ``import muskat`` loads numpy, ``scipy.fft`` (which brings in
``scipy.special``) and ``scipy.sparse``, and no other scipy subpackage:
their start-up, about 240 modules for the integration routines alone,
would be paid by every CLI call and sweep worker.
"""

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft._pocketfft.pypocketfft import c2r as _c2r, r2c as _r2c

from .params import ModelParams
from .spectral import (
    SQRT_2PI,
    MultiplierSymbol,
    SpectralField,
    check_same_grid,
    tanh_clamped,
)

__all__ = [
    "base_elliptic_symbol",
    "invert_base",
    "commutator",
    "commutator_sign_split",
    "apply_quasilinear_wnl",
    "forcing_wnl",
    "leading_velocity_wnl2",
    "rhs_wnl2",
    "forcing_lub",
    "apply_quasilinear_lub",
    "invert_lub_base",
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
        """Least decay rate of ||h||_{A0} that a chi = +1 run must fit.

        Small slope: the dissipation estimate gives decay at least at
        chi*T(1)/2 when lam > 0; the bound is that rate minus
        DECAY_RATE_MARGIN.

        Thin film: linearized, mode k decays at rate(k) = sqrt(delta) k^2
        (chi + (lam/4) k^4) / (1 + sqrt(delta) theta k^4).  The factor after
        k^2 is monotone in k^4 and grows when lam/4 >= chi sqrt(delta) theta,
        so every rate(k) >= rate(1) and ||h||_{A0}, a sum of the moduli,
        decays at least at rate(1).  (Otherwise, lam = 0 for instance, the
        short waves decay more slowly than mode 1 and the check holds only
        while mode 1 dominates the norm.)  That rate is much smaller than the
        small-slope one (0.114 at configs/lubrication.cfg against 0.331), so
        the bound is the share THIN_FILM_RATE_SHARE of rate(1), leaving room
        for the O(eps |h|) nonlinear coupling; a run decaying clearly slower
        than its slowest linear mode still fails.
        """
        if self.thin_film:
            return THIN_FILM_RATE_SHARE * float(self.rate(1.0))
        return self.params.chi * self.t1 / 2.0 - DECAY_RATE_MARGIN


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

    Immutable after construction.  Scaling conventions: rows of *_stack are
    premultiplied so that irfft gives physical samples directly, rows of
    *_out fold in the inverse-transform normalization of the 4N product
    grid.
    """

    def __init__(self, n_modes, p):
        n = n_modes
        self.n = n
        self.m = 4 * n
        self.p = p
        self.spec = spec = model_spec(p)
        k = np.arange(n + 1, dtype=float)
        self.tanh = spec.T(k)
        self.G = k * self.tanh
        self.ik = 1j * k
        # base symbols
        self.ell0 = 1.0 + p.theta * k**3 * self.tanh
        self.sqd = math.sqrt(p.delta)
        self.lub_base = 1.0 + self.sqd * p.theta * k**4
        to_phys = self.m / SQRT_2PI
        from_phys = SQRT_2PI / self.m
        self.h_scale = to_phys
        # wnl forcing, folded through w = (chi + lam/4 k^4) h:
        # factors [h, G w, dx w], outputs sigma [G ., dx .]
        wsym = p.chi + (p.lam / 4.0) * k**4
        self.nl_stack = np.stack(
            [np.ones_like(k), self.G * wsym, self.ik * wsym]
        ) * to_phys
        self.nl_out = np.stack([self.G + 0j, self.ik]) * (p.sigma * from_phys)
        self.nl_linear = -self.G * wsym
        # commutator I(h,V): factors [G dxx V, dxxx V], outputs [G ., dx .]
        self.comm_stack = np.stack([-self.G * k**2 + 0j, (1j * k) ** 3]) * to_phys
        self.comm_out = np.stack([self.G + 0j, self.ik]) * from_phys
        # sign/tanh split of I: I_A = dx(h dxxx V) - Lam(h Lam^3 V),
        # I_B = Lam(h Lam^3 V) + G(h G dxx V); for the unbounded symbol
        # (tanh == 1) I_B vanishes identically.
        self.split_stack = np.stack(
            [(1j * k) ** 3, k**3 + 0j, -self.G * k**2 + 0j]
        ) * to_phys
        self.split_outA = np.stack([self.ik, -np.abs(k) + 0j]) * from_phys
        self.split_outB = np.stack([np.abs(k) + 0j, self.G + 0j]) * from_phys
        # lubrication forcing sqrt(delta) dx(w + eps h w), w = dx(chi h + lam/4
        # dx^4 h): factors [h, w]; perturbation factor dx^3 V, output dx .
        lub_w = self.ik * wsym
        self.lub_linear = self.sqd * self.ik * lub_w
        self.lub_stack = np.stack([np.ones_like(k) + 0j, lub_w]) * to_phys
        self.lub_out = self.ik[None, :] * (self.sqd * p.epsilon * from_phys)
        self.pert_stack = (1j * k)[None, :] ** 3 * to_phys
        self.pert_out = self.lub_out * p.theta
        # fixed point V <- V0 + sum(solve_out * P[h phys(solve_stack V)]): the
        # perturbation's sign and coefficient and the base inverse are folded
        # into the output rows
        self.norm_k = k**spec.norm_order
        if spec.thin_film:
            self.base = self.lub_base
            self.solve_stack = self.pert_stack
            self.solve_out = -self.pert_out / self.lub_base
        else:
            self.base = self.ell0
            self.solve_stack = self.comm_stack
            self.solve_out = -(p.sigma * p.theta) * self.comm_out / self.ell0
        self.solve_active = bool(np.any(self.solve_out))

    # -- transforms: pocketfft's c2r/r2c on the 4N grid (module docstring).
    # The arguments are positional, c2r(a, axes, lastsize, forward, inorm)
    # and r2c(a, axes, forward, inorm); inorm=2 divides by 4N, 0 does not
    # scale.  Called with keywords, the binding holds an allocation that
    # grows to about 2 MB over the first 1e5 calls.

    def phys(self, c):
        pad = _scratch(("pad", self.n), 2 * self.n + 1, complex)
        np.multiply(c, self.h_scale, out=pad[: self.n + 1])
        return _c2r(pad, (0,), self.m, False, 2)

    def phys_stack(self, rows):
        r = rows.shape[0]
        pad = _scratch(("pad", self.n, r), (r, 2 * self.n + 1), complex)
        pad[:, : self.n + 1] = rows
        return _c2r(pad, (1,), self.m, False, 2)

    def prods(self, hphys, rows_phys):
        prod = _scratch(rows_phys.shape, rows_phys.shape, float)
        np.multiply(rows_phys, hphys, prod)
        return _r2c(prod, (1,), True, 0)[:, : self.n + 1]


class _ThreadScratch(threading.local):
    def __init__(self):
        self.bufs = {}


_thread_scratch = _ThreadScratch()


def _scratch(key, shape, dtype):
    """This thread's reusable array for ``key``, zero when first made.

    The pads are written only in their first n+1 columns, so their
    zero-padding survives reuse; the product buffer is overwritten whole.
    Each is consumed by the transform it feeds before the next call, and
    no caller keeps a reference, so one buffer per thread suffices.
    """
    bufs = _thread_scratch.bufs
    buf = bufs.get(key)
    if buf is None:
        buf = bufs[key] = np.zeros(shape, dtype)
    return buf


@lru_cache(maxsize=64)
def _table(n_modes, params):
    return _OpTable(n_modes, params)


def _tab(field, params):
    if not isinstance(params, ModelParams):
        raise TypeError("params must be a ModelParams")
    return _table(field.n_modes, params)


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


def _forcing_with_h(tab, c, linear, stack, weights, active):
    """linear*c + sum_j weights_j P[h phys(stack_{j+1} c)], and h itself.

    Row 0 of ``stack`` is the profile, so one inverse batch yields both
    the product factors and the physical h the solve needs.  The product
    rows are summed first and the linear part is added last: that order
    fixes the rounding of every output file.
    """
    if active:
        ph = tab.phys_stack(stack * c)
        hphys = ph[0]
        out = _weighted_sum(weights, tab.prods(hphys, ph[1:]))
        out += linear * c
    else:
        hphys = tab.phys(c)
        out = linear * c
    out[0] = 0.0
    return out, hphys


def _forcing_wnl_with_h(tab, c):
    """Small-slope forcing and profile: 3 inverse rows, 2 forward rows."""
    return _forcing_with_h(tab, c, tab.nl_linear, tab.nl_stack, tab.nl_out,
                           tab.p.sigma != 0.0)


def _forcing_wnl_raw(tab, c, hphys=None):
    # the batch transforms h alongside the factors, so hphys saves nothing
    return _forcing_wnl_with_h(tab, c)[0]


def _forcing_lub_with_h(tab, c):
    """Thin-film forcing and profile: 2 inverse rows, 1 forward row."""
    return _forcing_with_h(tab, c, tab.lub_linear, tab.lub_stack, tab.lub_out,
                           tab.p.epsilon != 0.0)


def _forcing_lub_raw(tab, c, hphys=None):
    return _forcing_lub_with_h(tab, c)[0]


def _commutator_raw(tab, hphys, v):
    return _products(tab, hphys, tab.comm_stack * v, tab.comm_out)


def _lub_perturb_raw(tab, hphys, v):
    return _products(tab, hphys, tab.pert_stack * v, tab.pert_out)


def _solve_update(tab, hphys, v):
    """-base^{-1} perturbation(h, v): the fixed-point map minus its V0."""
    return _products(tab, hphys, tab.solve_stack * v, tab.solve_out)


def _leading_velocity_raw(tab, c):
    return tab.nl_linear * c / tab.ell0


def _rhs_wnl2_raw(tab, c):
    # the model-1 fixed-point map applied once, to mu instead of U
    f, hphys = _forcing_wnl_with_h(tab, c)
    out = f / tab.ell0
    if tab.solve_active:
        out += _solve_update(tab, hphys, _leading_velocity_raw(tab, c))
    return out


# ---------------------------------------------------------------------------
# public field-level operations
# ---------------------------------------------------------------------------

def base_elliptic_symbol(params):
    """Symbol of the base operator acting on dh/dt.

    Small-slope models: 1 + theta |k|^3 T(|k|) with T = tanh (bounded) or 1
    (unbounded); thin film: 1 + sqrt(delta) theta k^4.  Always >= 1.
    """
    spec = model_spec(params)
    if spec.thin_film:
        label = "1 + sqrt(delta) theta k^4"
    else:
        label = "1 + theta |k|^3" + (" tanh|k|" if spec.finite_depth else "")
    return MultiplierSymbol(spec.base, label)


def invert_base(F, params):
    """Solve (1 - theta*G*dxx) U = F mode by mode (small-slope base operator)."""
    tab = _tab(F, params)
    out = F.coeffs / tab.ell0
    out[0] = 0.0
    return SpectralField(out, copy=False)


def commutator(h, V, params):
    """I(h,V) = G(h * G dxx V) + dx(h * dxxx V), dealiased and mean-projected."""
    check_same_grid(h, V)
    tab = _tab(h, params)
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
    tab = _tab(h, params)
    hphys = tab.phys(h.coeffs)
    rows = tab.phys_stack(tab.split_stack * V.coeffs)
    pr = tab.prods(hphys, rows)
    ia = _weighted_sum(tab.split_outA, pr[:2])
    ib = _weighted_sum(tab.split_outB, pr[1:])
    ia[0] = 0.0
    ib[0] = 0.0
    return SpectralField(ia, copy=False), SpectralField(ib, copy=False)


def apply_quasilinear_wnl(h, U, params):
    """L_h U for the small-slope models; reduces to the base operator when
    sigma = 0 or h = 0."""
    check_same_grid(h, U)
    tab = _tab(h, params)
    out = tab.ell0 * U.coeffs
    if params.sigma != 0.0:
        out = out + params.sigma * params.theta * _commutator_raw(
            tab, tab.phys(h.coeffs), U.coeffs
        )
    out[0] = 0.0
    return SpectralField(out, copy=False)


def forcing_wnl(h, params):
    """N(h) for the small-slope models (linear + quadratic forcing)."""
    tab = _tab(h, params)
    return SpectralField(_forcing_wnl_raw(tab, h.coeffs), copy=False)


def leading_velocity_wnl2(h, params):
    """mu: the base inverse applied to the linear forcing.

    Mode formula: mu(k) = -(chi + (lam/4) k^4) |k| T(|k|) hhat(k) / ell(k).
    """
    tab = _tab(h, params)
    out = _leading_velocity_raw(tab, h.coeffs)
    out[0] = 0.0
    return SpectralField(out, copy=False)


def rhs_wnl2(h, params):
    """Full dh/dt for model 2: base inverse of N(h) - sigma*theta*I(h, mu)."""
    tab = _tab(h, params)
    return SpectralField(_rhs_wnl2_raw(tab, h.coeffs), copy=False)


def forcing_lub(h, params):
    """Thin-film forcing sqrt(delta)*dx((1+eps*h)*dx(chi h + (lam/4) dx^4 h))."""
    tab = _tab(h, params)
    return SpectralField(_forcing_lub_raw(tab, h.coeffs), copy=False)


def apply_quasilinear_lub(h, U, params):
    """L_h U = U + sqrt(delta)*theta*dx((1+eps*h) dx^3 U) for the thin film."""
    check_same_grid(h, U)
    tab = _tab(h, params)
    out = tab.lub_base * U.coeffs
    if params.epsilon != 0.0:
        out = out + _lub_perturb_raw(tab, tab.phys(h.coeffs), U.coeffs)
    out[0] = 0.0
    return SpectralField(out, copy=False)


def invert_lub_base(F, params):
    """Solve (I + sqrt(delta)*theta*dx^4) U = F mode by mode."""
    tab = _tab(F, params)
    out = F.coeffs / tab.lub_base
    out[0] = 0.0
    return SpectralField(out, copy=False)


def apply_quasilinear(h, U, params):
    """Model-dispatched L_h."""
    if model_spec(params).thin_film:
        return apply_quasilinear_lub(h, U, params)
    return apply_quasilinear_wnl(h, U, params)


def forcing(h, params):
    """Model-dispatched N(h)."""
    if model_spec(params).thin_film:
        return forcing_lub(h, params)
    return forcing_wnl(h, params)


def linear_decay_rate(k, params):
    """Per-mode decay rate m(k) of the linearized evolution (dh/dt = -m h).

    Small slope: m(k) = (chi + (lam/4) k^4) |k| T(|k|) / (1 + theta |k|^3 T);
    thin film:   m(k) = sqrt(delta) (chi k^2 + (lam/4) k^6)
                        / (1 + sqrt(delta) theta k^4).
    """
    return model_spec(params).rate(k)
