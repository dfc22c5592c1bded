"""Property tests of the folded right-hand-side pipeline.

Random grids and parameters, drawn reproducibly (``derandomize=True``):

* the folded forcing equals the four-product formula, evaluated once with
  the FFT product of ``spectral.pointwise_product`` and once with the
  direct double sum of ``_kernels.convolve_truncated``;
* one folded fixed-point update equals (F - perturbation(h, V)) / base
  composed from the public operators;
* ``integrate._rhs_raw`` agrees with the public forcing + solve route.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import _kernels, integrate, models
from muskat.elliptic import solve_quasilinear
from muskat.models import _table
from muskat.params import ModelParams
from muskat.spectral import (
    SQRT_2PI,
    SpectralField,
    apply_multiplier,
    depth_symbol,
    derivative_symbol,
    pointwise_product,
    wiener_norm,
)

from conftest import a0_dist, random_field

PROPS = settings(derandomize=True, max_examples=25, deadline=None)

n_modes = st.integers(4, 96)
seeds = st.integers(0, 2**32 - 1)
depths = st.sampled_from(["finite", "infinite"])
chis = st.sampled_from([1, -1])
unit = st.floats(0.0, 1.0)


def field(n, seed, amplitude=1.0):
    return random_field(n, np.random.default_rng(seed), p=3.0,
                        amplitude=amplitude)


def direct_product(f, g):
    full = _kernels.convolve_truncated(_kernels.full_spectrum(f.coeffs),
                                       _kernels.full_spectrum(g.coeffs))
    return SpectralField(_kernels.half_spectrum(full) / SQRT_2PI)


def four_product_forcing(h, p, product):
    """N(h) term by term, with each quadratic pair formed separately."""
    G = depth_symbol(p.depth)

    def mul(sym, f):
        return apply_multiplier(f, sym).coeffs

    def pair(f):
        # G(h * G f) + dx(h * dx f)
        gf = SpectralField(mul(G, f))
        df = SpectralField(mul(derivative_symbol(1), f))
        return (mul(G, product(h, gf))
                + mul(derivative_symbol(1), product(h, df)))

    d4h = SpectralField(mul(derivative_symbol(4), h))
    out = (-p.chi * mul(G, h) - p.lam / 4 * mul(G, d4h)
           + p.sigma * p.chi * pair(h) + p.sigma * p.lam / 4 * pair(d4h))
    out[0] = 0.0
    return SpectralField(out)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, chi=chis,
       sigma=unit, lam=st.floats(0.0, 4.0))
def test_folded_forcing_matches_four_products(n, seed, depth, chi, sigma, lam):
    p = ModelParams(chi=chi, lam=lam, theta=1.0, sigma=sigma, depth=depth)
    h = field(n, seed)
    folded = models.forcing_wnl(h, p)
    for product in (pointwise_product, direct_product):
        ref = four_product_forcing(h, p, product)
        assert a0_dist(folded, ref) <= 1e-12 * max(wiener_norm(ref, 0), 1e-30)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, sigma=unit,
       theta=st.floats(0.1, 3.0), lub=st.booleans())
def test_folded_update_matches_perturbation(n, seed, depth, sigma, theta, lub):
    if lub:
        p = ModelParams.lubrication(lam=1.0, theta=theta, epsilon=sigma,
                                    delta=0.5)
    else:
        p = ModelParams(lam=1.0, theta=theta, sigma=sigma, depth=depth)
    tab = _table(n, p)
    h, F, V = (field(n, seed + j) for j in range(3))
    folded = F.coeffs / tab.base + models._solve_update(
        tab, tab.phys(h.coeffs), V.coeffs)
    folded[0] = 0.0
    if lub:
        pert = models.apply_quasilinear_lub(h, V, p).coeffs - tab.lub_base * V.coeffs
    else:
        pert = sigma * theta * models.commutator(h, V, p).coeffs
    ref = (F.coeffs - pert) / tab.base
    ref[0] = 0.0
    ref = SpectralField(ref)
    assert a0_dist(SpectralField(folded), ref) <= 1e-12 * wiener_norm(ref, 0)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, sigma=st.floats(0.0, 0.5),
       amplitude=st.floats(1e-4, 1e-2),
       model=st.sampled_from(["wnl1", "wnl2", "lubrication"]))
def test_rhs_raw_matches_public_route(n, seed, depth, sigma, amplitude, model):
    if model == "lubrication":
        p = ModelParams.lubrication(lam=1.0, theta=1.0, epsilon=sigma,
                                    delta=0.5)
    else:
        p = ModelParams(lam=1.0, theta=1.0, sigma=sigma, depth=depth,
                        model=model)
    h = field(n, seed, amplitude)
    got, _ = integrate._rhs_raw(_table(n, p), h.coeffs, None, 200)
    if model == "wnl2":
        mu = models.leading_velocity_wnl2(h, p)
        f = models.forcing_wnl(h, p).coeffs
        f = f - p.sigma * p.theta * models.commutator(h, mu, p).coeffs
        ref = models.invert_base(SpectralField(f), p)
    else:
        ref, _ = solve_quasilinear(h, models.forcing(h, p), p)
    scale = wiener_norm(ref, 0)
    assert math.isfinite(scale)
    assert a0_dist(SpectralField(got), ref) <= 1e-12 * max(scale, 1e-30)
