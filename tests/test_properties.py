"""Property tests of the folded right-hand-side pipeline.

Random grids and parameters, drawn reproducibly (``derandomize=True``):

* the op table's transform batches (``_OpTable.phys``, ``phys_stack``,
  ``prods``), which call pocketfft's C++ ``c2r``/``r2c`` through scipy's
  private binding, are bitwise equal to ``numpy.fft.irfft``/``rfft``, so a
  change of that binding fails here instead of drifting the outputs;
* the folded forcing equals the four-product formula, evaluated once with
  the FFT product of ``oracles.pointwise_product`` and once with the
  direct double sum of ``oracles.convolve_truncated``;
* one folded fixed-point update equals (F - perturbation(h, V)) / base,
  the small-slope perturbation composed term by term
  (``oracles.naive_commutator``, not the sweep under test);
* ``integrate._rhs_raw`` agrees with the public forcing + solve route
  (model 2's perturbation again from ``oracles.naive_commutator``), and
  for all three models and both depths it keeps the equation's exact
  symmetries: a translation of h translates dh/dt, a reflection reflects
  it, and (h, sigma) -> (a h, sigma/a), the thin film's (h, eps) -> (a h,
  eps/a), scales it by a, because the coupling is sigma times a bilinear
  form;
* for all three models, one sweep of the fixed-point map T equals
  base^{-1} N(h) + S U; a solve started from any guess lands within its
  a-posteriori bound of the cold solve and of the dense solve; and a warm
  RK4 step takes the stated transform budget (wnl1 at N = 64: 10 calls,
  24 rows);
* the FFT sign/tanh split of the commutator (``models.commutator_sign_split``,
  which ``diagnostics.check_operator_bounds`` evaluates) equals the direct
  double sum of ``_kernels.sign_split_direct``;
* the strip's streamed 9-point stencil on the unknown nodes and its
  couplings to the datum (``strip.assemble_system``) equal the rows of
  the oracle's full-node scatter of the cell-matrix tensor bit for bit;
  applied by ``strip.stencil_apply`` they give the matrix-vector product
  of the oracle's CSR scatter of the same cell matrices, and the stencil
  is exactly symmetric; the preconditioned CG strip solve equals a
  sparse LU solve of the oracle's matrix;
* ``strip.flat_preconditioner`` inverts the oracle's flat (h = 0,
  eps = 0) operator on the unknown nodes;
* ``strip._simpson`` is bitwise equal to ``scipy.integrate.simpson``, which
  the package itself no longer imports;
* for all three models: ``apply_quasilinear`` is linear in U,
  ``invert_base`` inverts it at h = 0, every public operator returns a
  mean-zero real field even from inputs with a mean (its samples give
  back its coefficients), and the fixed point
  ``elliptic._solve_raw`` agrees with ``elliptic.dense_solve``;
* ``load_spectrum_csv`` reads back what ``save_spectrum_csv`` wrote, bit
  for bit.
"""

import contextlib
import dataclasses
import functools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import _kernels, elliptic, integrate, models, strip
from muskat.elliptic import solve_quasilinear
from muskat.models import _table
from muskat.params import ModelParams
from muskat.spectral import (
    SQRT_2PI,
    SpectralField,
    apply_multiplier,
    depth_symbol,
    derivative_symbol,
    load_spectrum_csv,
    save_spectrum_csv,
    tanh_clamped,
    wiener_norm,
)

from conftest import a0_dist, random_field
from oracles import (convolve_truncated, csr_system, full_spectrum,
                     full_stencil, half_spectrum, lu_strip_solve,
                     naive_commutator, pointwise_product)

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
    pad = np.zeros((rows, 2 * n + 1), complex)
    pad[:, : n + 1] = spec
    inverse = np.fft.irfft(spec, n=4 * n, axis=1)
    forward = np.fft.rfft(phys * hphys, axis=1)[:, : n + 1]
    assert np.array_equal(tab.phys(spec[0]),
                          np.fft.irfft(spec[0] * tab.h_scale, n=4 * n))
    assert np.array_equal(tab.phys_stack(pad), inverse)
    assert np.array_equal(tab.prods(hphys, phys), forward)
    # the same bits written into given buffers, the product in place
    assert np.array_equal(tab.phys_stack(pad, np.empty((rows, 4 * n))),
                          inverse)
    assert np.array_equal(
        tab.prods(hphys, phys.copy(), np.empty((rows, 2 * n + 1), complex)),
        forward)


def direct_product(a, b):
    full = convolve_truncated(full_spectrum(a), full_spectrum(b))
    return half_spectrum(full) / SQRT_2PI


def four_product_forcing(h, p, product):
    """N(h) term by term, with each quadratic pair formed separately."""
    G = depth_symbol(p.depth)

    def mul(sym, f):
        return apply_multiplier(f, sym).coeffs

    def pair(f):
        # G(h * G f) + dx(h * dx f)
        hgf = SpectralField(product(h.coeffs, mul(G, f)))
        hdf = SpectralField(product(h.coeffs, mul(derivative_symbol(1), f)))
        return mul(G, hgf) + mul(derivative_symbol(1), hdf)

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
    folded = models.forcing(h, p)
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
    folded = F.coeffs / tab.base + models._sweep(
        tab, None, tab.phys(h.coeffs), tab.tk2 * V.coeffs)[0]
    folded[0] = 0.0
    if lub:
        pert = models.apply_quasilinear(h, V, p).coeffs - tab.base * V.coeffs
    else:
        pert = sigma * theta * naive_commutator(h.coeffs, V.coeffs, depth)
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
    got, _, _ = integrate._rhs_raw(_table(n, p), h.coeffs, None, 200)
    if model == "wnl2":
        mu = models.leading_velocity_wnl2(h, p)
        f = models.forcing(h, p).coeffs
        f = f - p.sigma * p.theta * naive_commutator(h.coeffs, mu.coeffs,
                                                     depth)
        ref = models.invert_base(SpectralField(f), p)
    else:
        ref, _ = solve_quasilinear(h, models.forcing(h, p), p)
    scale = wiener_norm(ref, 0)
    assert math.isfinite(scale)
    assert a0_dist(SpectralField(got), ref) <= 1e-12 * max(scale, 1e-30)


@pytest.mark.parametrize("depth", ["finite", "infinite"])
@pytest.mark.parametrize("model", ["wnl1", "wnl2", "lubrication"])
@PROPS
@given(seed=seeds, sigma=st.floats(0.0, 0.5),
       amplitude=st.floats(1e-4, 1e-2), shift=st.floats(0.0, 2.0 * math.pi),
       a=st.floats(0.25, 4.0))
def test_rhs_raw_symmetries(model, depth, seed, sigma, amplitude, shift, a):
    # tol is passed: the default one, 1e-11 max(1, ||N(h)||), does not
    # scale with h; the scaled solve gets a times it
    n, tol = 64, 1e-14

    def rhs(c, sigma, tol):
        p = model_params(model, depth, sigma)
        if model == "lubrication":
            p = dataclasses.replace(p, depth=depth)
        return integrate._rhs_raw(_table(n, p), c, tol, 200)[0]

    c = field(n, seed, amplitude).coeffs
    U = rhs(c, sigma, tol)
    turn = np.exp(1j * np.arange(n + 1) * shift)
    cases = [(rhs(turn * c, sigma, tol), turn * U),
             (rhs(c.conj(), sigma, tol), U.conj()),
             (rhs(a * c, sigma / a, a * tol), a * U)]
    for got, want in cases:
        want = SpectralField(want)
        assert (a0_dist(SpectralField(got), want)
                <= 1e-13 * wiener_norm(want, 0))


@PROPS
@given(n=st.integers(4, 48), seed=seeds, depth=depths)
def test_sign_split_matches_direct_sum(n, seed, depth):
    p = ModelParams(lam=1.0, theta=1.0, sigma=0.1, depth=depth)
    h, v = field(n, seed), field(n, seed + 1)
    tanha = tanh_clamped(np.arange(n + 1)) if depth == "finite" else np.ones(n + 1)
    direct = _kernels.sign_split_direct(full_spectrum(h.coeffs),
                                        full_spectrum(v.coeffs), tanha)
    refs = [SpectralField(half_spectrum(d) / SQRT_2PI) for d in direct]
    got = models.commutator_sign_split(h, v, p)
    err = sum(a0_dist(g, r) for g, r in zip(got, refs))
    assert err <= 1e-12 * sum(wiener_norm(r, 0) for r in refs)


def strip_case(nx, nz, seed, delta, lift):
    """A random profile h and datum psi on the grid, with eps scaled so that
    min(1 + eps*h) = 1 - lift, down to 0.1."""
    grid = strip.StripGrid(nx, nz)
    n = min(8, nx // 2 - 1)
    h = field(n, seed)
    eps = lift / -h.values(nx).min()
    p = ModelParams.lubrication(lam=1.0, theta=1.0, delta=delta, epsilon=eps)
    return grid, h, field(n, seed + 1), p


strip_grids = dict(nx=st.integers(4, 16).map(lambda m: 2 * m),
                   nz=st.integers(16, 24), seed=seeds,
                   delta=st.floats(0.01, 1.0), lift=st.floats(0.0, 0.9))


@PROPS
@given(**strip_grids)
def test_streamed_stencil_equals_full_node_oracle(nx, nz, seed, delta, lift):
    # the same additions in the same order as the full-node scatter: its
    # unknown rows with the Dirichlet couplings zeroed, and those couplings
    grid, h, _psi, p = strip_case(nx, nz, seed, delta, lift)
    C, top = strip.assemble_system(h, grid, p)
    full = full_stencil(h, grid, p)
    assert np.array_equal(top, full[:, 2, :, nz - 2])
    full = full[:, :, :, :-1]
    full[:, 2, :, -1] = 0.0
    assert np.array_equal(C, full)


@PROPS
@given(**strip_grids)
def test_stencil_matches_csr_oracle(nx, nz, seed, delta, lift):
    # the unknown rows of A x: the stencil on the unknown nodes plus the
    # top row's couplings to the Dirichlet row
    grid, h, _psi, p = strip_case(nx, nz, seed, delta, lift)
    x = np.random.default_rng(seed).standard_normal((nx, nz))
    C, top = strip.assemble_system(h, grid, p)
    got = strip.stencil_apply(C, x[:, :-1])
    datum = x[:, -1]
    got[:, -1] += (top[0] * np.roll(datum, 1) + top[1] * datum
                   + top[2] * np.roll(datum, -1))
    ref = (csr_system(h, grid, p) @ x.ravel()).reshape(nx, nz)[:, :-1]
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@PROPS
@given(**strip_grids)
def test_stencil_exactly_symmetric(nx, nz, seed, delta, lift):
    # C[d](n) == C[-d](n + d) bit for bit; no entry reaches past z = -1 or
    # into the Dirichlet row
    grid, h, _psi, p = strip_case(nx, nz, seed, delta, lift)
    C, _top = strip.assemble_system(h, grid, p)
    nu = nz - 1
    assert not C[:, 0, :, 0].any() and not C[:, 2, :, -1].any()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            # back[i, j] = C[-d](i + di, j + dj)
            back = np.roll(C[1 - di, 1 - dj], -di, axis=0)
            rows = slice(max(0, -dj), nu - max(0, dj))
            back_rows = slice(max(0, dj), nu - max(0, -dj))
            assert np.array_equal(C[1 + di, 1 + dj][:, rows],
                                  back[:, back_rows])


@PROPS
@given(**strip_grids)
def test_strip_cg_matches_lu(nx, nz, seed, delta, lift):
    grid, h, psi, p = strip_case(nx, nz, seed, delta, lift)
    got = strip.solve_strip(h, psi, grid, p).phi[:, :-1]
    ref = lu_strip_solve(h, psi, grid, p)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@PROPS
@given(nx=st.integers(4, 32).map(lambda m: 2 * m), nz=st.integers(16, 40),
       seed=seeds, delta=st.floats(0.01, 1.0))
def test_flat_preconditioner_inverts_flat_operator(nx, nz, seed, delta):
    grid = strip.StripGrid(nx, nz)
    p = ModelParams.lubrication(lam=1.0, theta=1.0, delta=delta, epsilon=0.0)
    A = csr_system(SpectralField.zeros(nx // 2 - 1), grid, p)
    unknown = np.arange(nx * nz).reshape(nx, nz)[:, :-1].ravel()
    x = np.random.default_rng(seed).standard_normal(unknown.size)
    back = strip.flat_preconditioner(grid, delta)(A[unknown][:, unknown] @ x)
    assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


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


models3 = st.sampled_from(["wnl1", "wnl2", "lubrication"])


def model_params(model, depth, sigma, theta=1.0):
    if model == "lubrication":
        return ModelParams.lubrication(lam=1.0, theta=theta, epsilon=sigma,
                                       delta=0.5)
    return ModelParams(lam=1.0, theta=theta, sigma=sigma, depth=depth,
                       model=model)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, model=models3, sigma=unit,
       theta=st.floats(0.1, 3.0), a=st.floats(-2.0, 2.0),
       b=st.floats(-2.0, 2.0))
def test_apply_quasilinear_linear_in_u(n, seed, depth, model, sigma, theta,
                                       a, b):
    p = model_params(model, depth, sigma, theta)
    h, U, W = (field(n, seed + j) for j in range(3))
    LU, LW = (models.apply_quasilinear(h, f, p) for f in (U, W))
    got = models.apply_quasilinear(
        h, SpectralField(a * U.coeffs + b * W.coeffs), p)
    ref = SpectralField(a * LU.coeffs + b * LW.coeffs)
    scale = abs(a) * wiener_norm(LU, 0) + abs(b) * wiener_norm(LW, 0)
    assert a0_dist(got, ref) <= 1e-12 * max(scale, 1e-30)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, model=models3, sigma=unit,
       theta=st.floats(0.1, 3.0))
def test_invert_base_inverts_quasilinear_at_zero(n, seed, depth, model,
                                                 sigma, theta):
    p = model_params(model, depth, sigma, theta)
    F = field(n, seed)
    back = models.apply_quasilinear(SpectralField.zeros(n),
                                    models.invert_base(F, p), p)
    assert a0_dist(back, F) <= 1e-14 * wiener_norm(F, 0)


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, model=models3, sigma=unit,
       mean=st.floats(-1.0, 1.0).filter(lambda x: x != 0.0))
def test_public_operators_mean_zero(n, seed, depth, model, sigma, mean):
    # ... and real: the samples of every output give back its coefficients
    # (values() drops the imaginary part of k = 0, the one mode whose
    # realness the half spectrum does not carry)
    p = model_params(model, depth, sigma)
    h, V = (field(n, seed + j, 0.1) for j in range(2))
    h.coeffs[0] = mean + 0.5j * mean
    V.coeffs[0] = -2.0 * mean + 1j * mean
    outs = [
        models.forcing(h, p),
        models.apply_quasilinear(h, V, p),
        models.invert_base(V, p),
        models.commutator(h, V, p),
        *models.commutator_sign_split(h, V, p),
        models.leading_velocity_wnl2(h, p),
        models.rhs_wnl2(h, p),
    ]
    for out in outs:
        assert out.coeffs[0] == 0.0
        back = SpectralField.from_values(out.values(), n)
        assert a0_dist(back, out) <= 1e-14 * max(wiener_norm(out, 0), 1e-300)


@PROPS
@given(n=st.integers(2, 12), seed=seeds, depth=depths, model=models3,
       sigma=st.floats(0.0, 0.5), amplitude=st.floats(1e-3, 5e-2))
def test_solve_raw_matches_dense_solve(n, seed, depth, model, sigma,
                                       amplitude):
    p = model_params(model, depth, sigma)
    tab = _table(n, p)
    h, F = field(n, seed, amplitude), field(n, seed + 1)
    tol = 1e-14 * elliptic._norm_raw(tab, F.coeffs)
    V0 = F.coeffs / tab.base
    V0[0] = 0.0
    U, _, _ = elliptic._solve_raw(tab, V0, V0, np.zeros_like(V0), None,
                                  tab.phys(h.coeffs), tol, 200)
    ref = elliptic.dense_solve(h, F, p)
    assert a0_dist(SpectralField(U), ref) <= 1e-11 * wiener_norm(ref, 0)


def model_map(tab, c):
    """(a, pre) of the models' fixed-point map T(V) = a + base^{-1}
    B(h, pre + theta k^2 V): a = -rate h, pre = w h."""
    return tab.lin * c, tab.w * c


def one_sweep(tab, c, U):
    """T(U) as the solver computes it: one iteration from U, accepted."""
    a, pre = model_map(tab, c)
    out, iters, _ = elliptic._solve_raw(tab, U, a, pre, c, None, math.inf, 1)
    assert iters == 1
    return out


@PROPS
@given(n=n_modes, seed=seeds, depth=depths, model=models3, sigma=unit,
       theta=st.floats(0.1, 3.0))
def test_sweep_equals_base_inverse_forcing_plus_update(n, seed, depth, model,
                                                       sigma, theta):
    # T(U) = base^{-1} N(h) + S U, for U random and, the right-hand side of
    # model 2, for U = mu
    p = model_params(model, depth, sigma, theta)
    tab = _table(n, p)
    h, U = field(n, seed, 0.1), field(n, seed + 1)
    c = h.coeffs
    mu = models.leading_velocity_wnl2(h, p).coeffs
    f0 = models.invert_base(models.forcing(h, p), p).coeffs
    hphys = tab.phys(c)
    cases = [(one_sweep(tab, c, U.coeffs), U.coeffs),
             (models._rhs_wnl2_raw(tab, c), mu)]
    for got, v in cases:
        update, _ = models._sweep(tab, None, hphys, tab.tk2 * v)
        ref = SpectralField(f0 + update)
        assert a0_dist(SpectralField(got), ref) <= (
            1e-13 * max(wiener_norm(ref, 0), 1e-300))


def update_bound(tab, hphys, n):
    """An upper bound of the scheme-norm operator norm q of the update S:
    sqrt(2) times its largest gain on the basis fields e_k, i e_k (S is
    real-linear, and |Re z| + |Im z| <= sqrt(2) |z|)."""
    gains = []
    for k in range(1, n + 1):
        for unit_ in (1.0, 1j):
            e = np.zeros(n + 1, complex)
            e[k] = unit_
            gains.append(elliptic._gain(tab, hphys, e)[1])
    return math.sqrt(2.0) * max(gains)


@PROPS
@given(n=st.integers(2, 12), seed=seeds, depth=depths, model=models3,
       sigma=st.floats(0.0, 0.5), amplitude=st.floats(1e-3, 2e-2))
def test_warm_solve_within_a_posteriori_bound_of_cold(n, seed, depth, model,
                                                      sigma, amplitude):
    # ||V_m - U*|| <= (q ||V_m - V_{m-1}|| + roundoff) / (1 - q) from any
    # start, so warm and cold solves agree within the two bounds, and each
    # lies within its bound of the dense solve
    p = model_params(model, depth, sigma)
    tab = _table(n, p)
    h = field(n, seed, amplitude)
    c = h.coeffs
    q = update_bound(tab, tab.phys(c), n)
    assert q < 0.5
    a, pre = model_map(tab, c)
    F = models.forcing(h, p)
    tol = elliptic.default_tolerance(F.coeffs)
    exact = elliptic.dense_solve(h, F, p).coeffs
    norm = functools.partial(elliptic._norm_raw, tab)
    slack = 1e-12 * norm(exact)

    def bound(increments):
        return (q * increments[-1] + slack) / (1.0 - q)

    v0 = one_sweep(tab, c, np.zeros_like(c))
    cold, _, cold_incs = elliptic._solve_raw(tab, v0, a, pre, c, None, tol,
                                             200)
    assert norm(cold - exact) <= bound(cold_incs)
    rng = np.random.default_rng(seed)
    good = cold + 1e-8 * norm(cold) * random_field(n, rng, p=4.0).coeffs
    wild = norm(cold) * random_field(n, rng, p=4.0).coeffs
    for guess in (np.zeros_like(c), wild, good):
        warm, _, incs = elliptic._solve_raw(tab, guess, a, pre, c, None, tol,
                                            200)
        assert norm(warm - exact) <= bound(incs)
        assert norm(warm - cold) <= bound(incs) + bound(cold_incs)


@contextlib.contextmanager
def transform_rows():
    """The row count of every transform batch of the op table made within
    the block, one entry per call."""
    rows = []
    saved = {name: models._OpTable.__dict__[name]
             for name in ("phys", "phys_stack", "prods")}

    def counted(orig):
        def call(tab, *args):
            arr = args[-1]
            rows.append(arr.shape[0] if arr.ndim == 2 else 1)
            return orig(tab, *args)
        return call

    try:
        for name, orig in saved.items():
            setattr(models._OpTable, name, counted(orig))
        yield rows
    finally:
        for name, orig in saved.items():
            setattr(models._OpTable, name, orig)


@PROPS
@given(seed=seeds, depth=depths, model=models3,
       amplitude=st.floats(1e-5, 1e-3))
def test_warm_rk4_step_transform_budget(seed, depth, model, amplitude):
    # N = 64, dt = 2.7/m(64), tol 1e-6: every warm stage converges at its
    # first increment, one sweep with h in its batch.  wnl1: stage 1 cold
    # in one iteration (3 + 2, 2 + 2), three warm stages (3 + 2 each): 10
    # calls, 24 rows.  Thin film: the same with 2 + 1 and 1 + 1, stage 1
    # converging later.  wnl2: 1 + 1 calls per stage, 3 + 2 rows.
    n, tol = 64, 1e-6
    p = model_params(model, depth, 0.1)
    h = random_field(n, np.random.default_rng(seed), p=3.0,
                     amplitude=amplitude)
    state = integrate.IntegratorState(h, 2.7 / float(
        models.linear_decay_rate(n, p)))
    tab = _table(n, p)
    with transform_rows() as stage1:
        integrate._rhs_raw(tab, h.coeffs, tol, 200)
    with transform_rows() as rows:
        _, _, iters = integrate.step(state, p, tol, 200)
    if model == "wnl2":
        assert stage1 == [3, 2] and iters == 0
        assert rows == [3, 2] * 4
    elif model == "wnl1":
        assert stage1 == [3, 2, 2, 2] and iters == 4
        assert rows == [3, 2, 2, 2] + [3, 2] * 3
        assert (len(rows), sum(rows)) == (10, 24)
    else:
        n1 = iters - 3
        assert stage1 == [2, 1] + [1, 1] * n1
        assert rows == stage1 + [2, 1] * 3


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPS
@given(parts=st.lists(st.tuples(finite, finite), min_size=2, max_size=130))
def test_spectrum_csv_round_trip_bitwise(parts):
    # any finite coefficients, signed zeros and subnormals included
    f = SpectralField([complex(re, im) for re, im in parts])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.csv")
        save_spectrum_csv(f, path)
        back = load_spectrum_csv(path)
    assert back.coeffs.tobytes() == f.coeffs.tobytes()
