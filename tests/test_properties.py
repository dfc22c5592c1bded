"""Property tests of the folded right-hand-side pipeline.

Random grids and parameters, drawn reproducibly (``derandomize=True``):

* the op table's transform batches (``_OpTable.phys``, ``phys_stack``,
  ``prods``), which call pocketfft's C++ ``c2r``/``r2c`` through scipy's
  private binding, are bitwise equal to ``numpy.fft.irfft``/``rfft``, so a
  change of that binding fails here instead of drifting the outputs;
* the folded forcing equals the four-product formula, evaluated once with
  the FFT product of ``oracles.pointwise_product`` and once with the
  direct double sum of ``oracles.convolve_truncated``;
* one folded fixed-point update equals (F - perturbation(h, V)) / base
  composed from the public operators;
* ``integrate._rhs_raw`` agrees with the public forcing + solve route;
* the FFT sign/tanh split of the commutator (``models.commutator_sign_split``,
  which ``diagnostics.check_operator_bounds`` evaluates) equals the direct
  double sum of ``_kernels.sign_split_direct``;
* the strip's 9-point stencil (``strip.assemble_system``) applied by
  ``strip.stencil_apply`` equals the matrix-vector product of the
  oracle's CSR scatter of the same cell matrices, and is exactly
  symmetric; the preconditioned CG strip solve equals a sparse LU solve
  of the oracle's matrix;
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

import math
import os
import tempfile

import numpy as np
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
                     half_spectrum, lu_strip_solve, pointwise_product)

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
    folded = F.coeffs / tab.base + models._solve_update(
        tab, tab.phys(h.coeffs), V.coeffs)
    folded[0] = 0.0
    if lub:
        pert = models.apply_quasilinear(h, V, p).coeffs - tab.base * V.coeffs
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
        f = models.forcing(h, p).coeffs
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
def test_stencil_matches_csr_oracle(nx, nz, seed, delta, lift):
    grid, h, _psi, p = strip_case(nx, nz, seed, delta, lift)
    x = np.random.default_rng(seed).standard_normal((nx, nz))
    got = strip.stencil_apply(strip.assemble_system(h, grid, p), x)
    ref = (csr_system(h, grid, p) @ x.ravel()).reshape(nx, nz)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@PROPS
@given(**strip_grids)
def test_stencil_exactly_symmetric(nx, nz, seed, delta, lift):
    # C[d](n) == C[-d](n + d) bit for bit; no entry reaches past z = -1, 0
    grid, h, _psi, p = strip_case(nx, nz, seed, delta, lift)
    C = strip.assemble_system(h, grid, p)
    assert not C[:, 0, :, 0].any() and not C[:, 2, :, -1].any()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            # back[i, j] = C[-d](i + di, j + dj)
            back = np.roll(C[1 - di, 1 - dj], -di, axis=0)
            rows = slice(max(0, -dj), nz - max(0, dj))
            back_rows = slice(max(0, dj), nz - max(0, -dj))
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
    U, _, _ = elliptic._solve_raw(tab, F.coeffs, tab.phys(h.coeffs), tol, 200)
    ref = elliptic.dense_solve(h, F, p)
    assert a0_dist(SpectralField(U), ref) <= 1e-11 * wiener_norm(ref, 0)


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
