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
input is zero-padded from N+1 to 2N+1 modes in a fresh per-call buffer.
The results are bitwise equal to ``numpy.fft.irfft(., n=4N)`` and
``numpy.fft.rfft``, which
``tests/test_properties.py::test_transform_binding_bitwise_equals_numpy_fft``
checks at random N and row counts, so a change of the private binding
fails the tests instead of changing the outputs.

The module keeps an immutable per-(n_modes, params) table of symbol arrays;
scratch memory is allocated per call, so all operations are safe to use
from multiple threads.
"""

import math
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
    "scheme_norm_order",
]


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
        k = np.arange(n + 1, dtype=float)
        tanh = tanh_clamped(k)
        self.tanh = tanh if p.depth == "finite" else np.ones_like(k)
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
        if p.model == "lubrication":
            self.base, self.norm_k = self.lub_base, k**4
            self.solve_stack = self.pert_stack
            self.solve_out = -self.pert_out / self.lub_base
        else:
            self.base, self.norm_k = self.ell0, k**3
            self.solve_stack = self.comm_stack
            self.solve_out = -(p.sigma * p.theta) * self.comm_out / self.ell0
        self.solve_active = bool(np.any(self.solve_out))

    # -- transforms: pocketfft's c2r/r2c on the 4N grid (module docstring).
    # The arguments are positional, c2r(a, axes, lastsize, forward, inorm)
    # and r2c(a, axes, forward, inorm); inorm=2 divides by 4N, 0 does not
    # scale.  Called with keywords, the binding holds an allocation that
    # grows to about 2 MB over the first 1e5 calls.

    def phys(self, c):
        pad = np.zeros(2 * self.n + 1, dtype=complex)
        np.multiply(c, self.h_scale, out=pad[: self.n + 1])
        return _c2r(pad, (0,), self.m, False, 2)

    def phys_stack(self, rows):
        pad = np.zeros((rows.shape[0], 2 * self.n + 1), dtype=complex)
        pad[:, : self.n + 1] = rows
        return _c2r(pad, (1,), self.m, False, 2)

    def prods(self, hphys, rows_phys):
        return _r2c(rows_phys * hphys, (1,), True, 0)[:, : self.n + 1]


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
    if params.model == "lubrication":
        sqd = math.sqrt(params.delta)
        return MultiplierSymbol(
            lambda k: 1.0 + sqd * params.theta * k**4, "1 + sqrt(delta) theta k^4"
        )
    if params.depth == "finite":
        return MultiplierSymbol(
            lambda k: 1.0 + params.theta * np.abs(k) ** 3 * tanh_clamped(k),
            "1 + theta |k|^3 tanh|k|",
        )
    return MultiplierSymbol(
        lambda k: 1.0 + params.theta * np.abs(k) ** 3, "1 + theta |k|^3"
    )


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
    if params.model == "lubrication":
        return apply_quasilinear_lub(h, U, params)
    return apply_quasilinear_wnl(h, U, params)


def forcing(h, params):
    """Model-dispatched N(h)."""
    if params.model == "lubrication":
        return forcing_lub(h, params)
    return forcing_wnl(h, params)


def linear_decay_rate(k, params):
    """Per-mode decay rate m(k) of the linearized evolution (dh/dt = -m h).

    Small slope: m(k) = (chi + (lam/4) k^4) |k| T(|k|) / (1 + theta |k|^3 T);
    thin film:   m(k) = sqrt(delta) (chi k^2 + (lam/4) k^6)
                        / (1 + sqrt(delta) theta k^4).
    """
    k = np.abs(np.asarray(k, dtype=float))
    p = params
    if p.model == "lubrication":
        sqd = math.sqrt(p.delta)
        return sqd * (p.chi * k**2 + (p.lam / 4.0) * k**6) / (1.0 + sqd * p.theta * k**4)
    t = tanh_clamped(k) if p.depth == "finite" else np.ones_like(k)
    return (p.chi + (p.lam / 4.0) * k**4) * k * t / (1.0 + p.theta * k**3 * t)


def scheme_norm_order(params):
    """Order of the norm in which the per-step elliptic iteration contracts."""
    return 4 if params.model == "lubrication" else 3
