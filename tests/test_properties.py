"""Property tests of the folded right-hand-side pipeline.

Random grids and parameters, drawn reproducibly (``derandomize=True``):

* the op table's transform batches (``_OpTable.phys``, ``phys_stack``,
  ``prods``), which call pocketfft's C++ ``c2r``/``r2c`` through scipy's
  private binding, are bitwise equal to ``numpy.fft.irfft``/``rfft``, so a
  change of that binding fails here instead of drifting the outputs;
* the folded forcing equals the four-product formula, evaluated once with
  the FFT product of ``spectral.pointwise_product`` and once with the
  direct double sum of ``_kernels.convolve_truncated``;
* one folded fixed-point update equals (F - perturbation(h, V)) / base
  composed from the public operators;
* ``integrate._rhs_raw`` agrees with the public forcing + solve route;
* the FFT sign/tanh split of the commutator (``models.commutator_sign_split``,
  which ``diagnostics.check_operator_bounds`` evaluates) equals the direct
  double sum of ``_kernels.sign_split_direct``;
* the preconditioned CG strip solve equals a sparse LU solve of the same
  assembled system;
* ``strip._simpson`` is bitwise equal to ``scipy.integrate.simpson``, which
  the package itself no longer imports.
"""

import math

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import _kernels, integrate, models, strip
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
    tanh_clamped,
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


@PROPS
@given(n=st.integers(2, 300), rows=st.integers(1, 3), seed=seeds)
def test_transform_binding_bitwise_equals_numpy_fft(n, rows, seed):
    tab = _table(n, ModelParams(lam=1.0, theta=1.0, sigma=0.1))
    rng = np.random.default_rng(seed)
    spec = (rng.standard_normal((rows, n + 1))
            + 1j * rng.standard_normal((rows, n + 1)))
    phys = rng.standard_normal((rows, 4 * n))
    hphys = rng.standard_normal(4 * n)
    assert np.array_equal(tab.phys(spec[0]),
                          np.fft.irfft(spec[0] * tab.h_scale, n=4 * n))
    assert np.array_equal(tab.phys_stack(spec),
                          np.fft.irfft(spec, n=4 * n, axis=1))
    assert np.array_equal(tab.prods(hphys, phys),
                          np.fft.rfft(phys * hphys, axis=1)[:, : n + 1])


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


@PROPS
@given(n=st.integers(4, 48), seed=seeds, depth=depths)
def test_sign_split_matches_direct_sum(n, seed, depth):
    p = ModelParams(lam=1.0, theta=1.0, sigma=0.1, depth=depth)
    h, v = field(n, seed), field(n, seed + 1)
    tanha = tanh_clamped(np.arange(n + 1)) if depth == "finite" else np.ones(n + 1)
    direct = _kernels.sign_split_direct(_kernels.full_spectrum(h.coeffs),
                                        _kernels.full_spectrum(v.coeffs), tanha)
    refs = [SpectralField(_kernels.half_spectrum(d) / SQRT_2PI) for d in direct]
    got = models.commutator_sign_split(h, v, p)
    err = sum(a0_dist(g, r) for g, r in zip(got, refs))
    assert err <= 1e-12 * sum(wiener_norm(r, 0) for r in refs)


def lu_strip_solve(h, psi, grid, params):
    """Oracle: the same assembled system solved by a sparse LU."""
    nx, nz = grid.n_x, grid.n_z
    A = strip.assemble_system(h, grid, params)
    idx = np.arange(nx * nz).reshape(nx, nz)
    u_ids, d_ids = idx[:, :-1].ravel(), idx[:, -1]
    rhs = -(A[u_ids][:, d_ids] @ psi.values(nx))
    return spla.splu(A[u_ids][:, u_ids].tocsc()).solve(rhs).reshape(nx, nz - 1)


@PROPS
@given(nx=st.integers(4, 16).map(lambda m: 2 * m), nz=st.integers(16, 24),
       seed=seeds, delta=st.floats(0.01, 1.0), lift=st.floats(0.0, 0.9))
def test_strip_cg_matches_lu(nx, nz, seed, delta, lift):
    grid = strip.StripGrid(nx, nz)
    n = min(8, nx // 2 - 1)
    h = field(n, seed)
    # scale eps so that min(1 + eps*h) = 1 - lift, down to 0.1
    eps = lift / -h.values(nx).min()
    p = ModelParams.lubrication(lam=1.0, theta=1.0, delta=delta, epsilon=eps)
    psi = field(n, seed + 1)
    got = strip.solve_strip(h, psi, grid, p).phi[:, :-1]
    ref = lu_strip_solve(h, psi, grid, p)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@PROPS
@given(n_z=st.integers(16, 79), rows=st.integers(1, 4), seed=seeds,
       dx=st.floats(1e-3, 1.0))
def test_simpson_bitwise_equals_scipy(n_z, rows, seed, dx):
    from scipy.integrate import simpson

    rng = np.random.default_rng(seed)
    for n in (n_z, n_z + 1):  # an odd and an even sample count
        y = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(strip._simpson(y, dx),
                              simpson(y, dx=dx, axis=1))
        assert np.array_equal(strip._simpson(y, 1.0 / (n - 1)),
                              simpson(y, dx=1.0 / (n - 1), axis=1))
