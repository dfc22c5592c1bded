import math

import numpy as np
import pytest

from muskat.elliptic import solve_quasilinear
from muskat.models import (
    apply_quasilinear,
    commutator,
    commutator_sign_split,
    forcing,
    invert_base,
    leading_velocity_wnl2,
    linear_decay_rate,
    model_spec,
    rhs_wnl2,
)
from muskat.params import ModelParams
from muskat.spectral import (
    COS_MODE,
    GridMismatchError,
    SpectralField,
    apply_multiplier,
    depth_symbol,
    derivative_symbol,
    wiener_norm,
)

from conftest import a0_dist, random_field
from oracles import naive_commutator, pointwise_product

T1 = math.tanh(1.0)
T2 = math.tanh(2.0)


def wnl(sigma=0.0, lam=0.0, theta=1.0, chi=1, depth="finite", model="wnl1"):
    return ModelParams(chi=chi, lam=lam, theta=theta, sigma=sigma,
                       depth=depth, model=model)


def cos_field(k, amp=1.0, n=32):
    return SpectralField.cosine(k, amp, n)


# ---------------------------------------------------------------------------
# base symbol and its inverse
# ---------------------------------------------------------------------------

def test_base_symbol_values():
    sym = model_spec(wnl(theta=1.0)).base
    assert sym(np.array([1.0]))[0] == pytest.approx(1 + T1, rel=1e-15)
    assert sym(np.array([0.0]))[0] == 1.0
    sym_inf = model_spec(wnl(theta=0.5, depth="infinite")).base
    assert sym_inf(np.array([2.0]))[0] == pytest.approx(5.0, rel=1e-15)
    assert np.all(sym(np.arange(65.0)) >= 1.0)


def test_invert_base():
    p = wnl(theta=1.0)
    F = cos_field(1)
    U = invert_base(F, p)
    assert U.coeffs[1] == pytest.approx(COS_MODE / (1 + T1), rel=1e-14)
    assert np.all(invert_base(SpectralField.zeros(32), p).coeffs == 0)


def test_invert_base_round_trip(rng):
    p = wnl(sigma=0.0, theta=0.7)
    for _ in range(10):
        F = random_field(32, rng, p=3.0)
        U = invert_base(F, p)
        back = apply_quasilinear(SpectralField.zeros(32), U, p)
        assert a0_dist(back, F) <= 1e-12 * wiener_norm(F, 0)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

def test_commutator_single_mode_finite():
    # hand convolution: G0 dxx(cos) = -tanh(1) cos; product with cos; then G0;
    # plus dx(cos * sin x) -> total (1 - tanh1 tanh2) cos 2x
    p = wnl(sigma=1.0)
    h = cos_field(1)
    out = commutator(h, h, p)
    expect = (1 - T1 * T2) * COS_MODE
    assert out.coeffs[2] == pytest.approx(expect, rel=1e-13)
    mask = np.ones(33, bool)
    mask[2] = False
    assert np.abs(out.coeffs[mask]).max() < 1e-14


def test_commutator_single_mode_infinite_cancels():
    p = wnl(sigma=1.0, depth="infinite")
    h = cos_field(1)
    out = commutator(h, h, p)
    assert np.abs(out.coeffs).max() < 1e-14


def test_commutator_linear_in_first_argument(rng):
    p = wnl(sigma=1.0)
    v = random_field(32, rng, p=4.0)
    zero = commutator(SpectralField.zeros(32), v, p)
    assert np.abs(zero.coeffs).max() == 0.0
    h = random_field(32, rng)
    two = commutator(SpectralField(2 * h.coeffs), v, p)
    one = commutator(h, v, p)
    assert np.abs(two.coeffs - 2 * one.coeffs).max() < 1e-13


def test_commutator_grid_mismatch():
    p = wnl(sigma=1.0)
    with pytest.raises(GridMismatchError):
        commutator(SpectralField.zeros(16), SpectralField.zeros(32), p)


def test_commutator_a0_ratio_bounded(rng):
    # ||I(h,V)||_A0 <= C ||h||_A1 ||V||_A3 with a modest empirical C
    p = wnl(sigma=1.0)
    worst = 0.0
    for _ in range(100):
        h = random_field(32, rng, p=rng.uniform(2, 4))
        v = random_field(32, rng, p=rng.uniform(2, 4))
        r = wiener_norm(commutator(h, v, p), 0) / (
            wiener_norm(h, 1) * wiener_norm(v, 3)
        )
        worst = max(worst, r)
    assert worst <= 10.0


def test_sign_split_exact_factor_two_bound(rng):
    p = wnl(sigma=1.0)
    for _ in range(50):
        h = random_field(24, rng, p=2.0)
        v = random_field(24, rng, p=3.0)
        ia, _ib = commutator_sign_split(h, v, p)
        assert wiener_norm(ia, 0) <= 2.0 * wiener_norm(h, 1) * wiener_norm(v, 3) * (
            1 + 1e-12
        )


def test_sign_split_infinite_depth_tanh_part_vanishes(rng):
    p = wnl(sigma=1.0, depth="infinite")
    h = random_field(16, rng)
    v = random_field(16, rng, p=3.0)
    _ia, ib = commutator_sign_split(h, v, p)
    assert np.abs(ib.coeffs).max() == 0.0


# ---------------------------------------------------------------------------
# quasilinear operator and forcing, small-slope models
# ---------------------------------------------------------------------------

def test_apply_quasilinear_wnl_reductions(rng):
    U = random_field(32, rng, p=4.0)
    p = wnl(sigma=1.0, theta=0.8)
    base = invert_base(U, p)  # ell0^{-1} U just to get a second field
    out_h0 = apply_quasilinear(SpectralField.zeros(32), U, p)
    k = np.arange(33.0)
    ell = 1.0 + 0.8 * k**3 * np.tanh(np.minimum(k, 20))
    assert np.abs(out_h0.coeffs - ell * U.coeffs).max() < 1e-12
    p0 = wnl(sigma=0.0, theta=0.8)
    out_s0 = apply_quasilinear(random_field(32, rng), U, p0)
    assert np.abs(out_s0.coeffs - ell * U.coeffs).max() < 1e-12
    assert base.n_modes == 32


def test_apply_quasilinear_wnl_single_mode():
    p = wnl(sigma=1.0, theta=1.0)
    h = cos_field(1)
    out = apply_quasilinear(h, h, p)
    assert out.coeffs[1] == pytest.approx((1 + T1) * COS_MODE, rel=1e-13)
    assert out.coeffs[2] == pytest.approx((1 - T1 * T2) * COS_MODE, rel=1e-13)


def test_forcing_wnl_linear_part():
    p = wnl(sigma=0.0, lam=0.0, chi=1)
    out = forcing(cos_field(1), p)
    assert out.coeffs[1] == pytest.approx(-T1 * COS_MODE, rel=1e-14)
    assert np.all(forcing(SpectralField.zeros(32), p).coeffs == 0)


def test_forcing_wnl_infinite_single_mode_quadratic_cancels():
    # Lam(h Lam h) + dx(h dx h) = cos2x - cos2x = 0 for h = cos x
    p = wnl(sigma=1.0, lam=0.0, chi=1, depth="infinite")
    out = forcing(cos_field(1), p)
    assert out.coeffs[1] == pytest.approx(-COS_MODE, rel=1e-13)
    mask = np.ones(33, bool)
    mask[1] = False
    assert np.abs(out.coeffs[mask]).max() < 1e-14


def test_forcing_wnl_lambda_term():
    # sigma=0: forcing is -(chi + lam/4 k^4) G h per mode
    p = wnl(sigma=0.0, lam=2.0, chi=1)
    out = forcing(cos_field(2), p)
    expect = -(1 + 0.5 * 16) * 2 * T2 * COS_MODE
    assert out.coeffs[2] == pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# model 2
# ---------------------------------------------------------------------------

def test_leading_velocity_single_mode():
    p = wnl(lam=0.0, theta=1.0, chi=1)
    mu = leading_velocity_wnl2(cos_field(1), p)
    assert mu.coeffs[1] == pytest.approx(-T1 / (1 + T1) * COS_MODE, rel=1e-14)
    assert np.all(leading_velocity_wnl2(SpectralField.zeros(32), p).coeffs == 0)


def test_leading_velocity_bending_component():
    # isolate the lam-part by differencing chi=1 runs: the lam=4 minus lam=0
    # velocities at k=2, unbounded depth, theta=1 give -(16)*2/9 = -32/9
    h = cos_field(2)
    pa = wnl(lam=4.0, theta=1.0, chi=1, depth="infinite", model="wnl2")
    pb = wnl(lam=0.0, theta=1.0, chi=1, depth="infinite", model="wnl2")
    diff = leading_velocity_wnl2(h, pa).coeffs[2] - leading_velocity_wnl2(h, pb).coeffs[2]
    assert diff == pytest.approx(-(32.0 / 9.0) * COS_MODE, rel=1e-14)


def test_rhs_wnl2_linear_rates(rng):
    p = wnl(sigma=0.0, lam=1.0, theta=1.0, model="wnl2")
    h = random_field(32, rng, p=3.0)
    out = rhs_wnl2(h, p)
    k = np.arange(1, 33)
    rates = -out.coeffs[1:] / h.coeffs[1:]
    assert np.abs(rates - linear_decay_rate(k, p)).max() < 1e-12
    assert np.all(rhs_wnl2(SpectralField.zeros(32), p).coeffs == 0)


def test_rhs_wnl2_close_to_model1_for_small_data():
    # the two evolutions share every linear and quadratic term; their
    # right-hand sides differ only through I(h, dt_h - mu) = O(sigma^2 a^3)
    n = 32
    a = 1e-3
    p1 = wnl(sigma=1.0, lam=0.0, theta=1.0, model="wnl1")
    p2 = wnl(sigma=1.0, lam=0.0, theta=1.0, model="wnl2")
    h = cos_field(1, a, n)
    F = forcing(h, p1)
    U1, _ = solve_quasilinear(h, F, p1, tol=1e-16)
    U2 = rhs_wnl2(h, p2)
    rel = a0_dist(U1, U2) / wiener_norm(U1, 0)
    assert rel <= 5e-6


def test_model_agreement_quadratic_order():
    # ||rhs1 - rhs2||_A0 <= K sigma a^2 with K not growing as a shrinks
    p1 = wnl(sigma=0.5, lam=1.0, theta=1.0, model="wnl1")
    p2 = wnl(sigma=0.5, lam=1.0, theta=1.0, model="wnl2")
    ks = []
    for a in (1e-2, 1e-3, 1e-4):
        h = SpectralField.cosine(1, a, 32)
        h.coeffs[2] = 0.5 * a * COS_MODE
        F = forcing(h, p1)
        U1, _ = solve_quasilinear(h, F, p1, tol=1e-15)
        U2 = rhs_wnl2(h, p2)
        a1 = wiener_norm(h, 1)
        ks.append(a0_dist(U1, U2) / (0.5 * a1**2))
    assert ks[1] <= ks[0] * 1.5
    assert ks[2] <= ks[0] * 1.5


# ---------------------------------------------------------------------------
# thin-film operators
# ---------------------------------------------------------------------------

def lub(eps=0.0, delta=1.0, lam=0.0, theta=1.0, chi=1):
    return ModelParams.lubrication(chi=chi, lam=lam, theta=theta,
                                   delta=delta, epsilon=eps)


def test_forcing_lub_linear():
    out = forcing(cos_field(1), lub(eps=0.0, delta=1.0, lam=0.0))
    assert out.coeffs[1] == pytest.approx(-COS_MODE, rel=1e-14)
    assert np.all(forcing(SpectralField.zeros(32), lub()).coeffs == 0)


def test_forcing_lub_quadratic_transport():
    a = 0.1
    out = forcing(cos_field(1, a), lub(eps=1.0, delta=1.0, lam=0.0))
    # quadratic part: dx(a cos * dx(a cos)) = -a^2 cos 2x
    assert out.coeffs[2] == pytest.approx(-(a**2) * COS_MODE, rel=1e-12)
    assert out.coeffs[1] == pytest.approx(-a * COS_MODE, rel=1e-12)


def test_apply_quasilinear_lub():
    p = lub(eps=1.0, delta=1.0, theta=1.0)
    h = cos_field(1)
    out = apply_quasilinear(h, h, p)
    assert out.coeffs[1] == pytest.approx(2 * COS_MODE, rel=1e-13)
    assert out.coeffs[2] == pytest.approx(COS_MODE, rel=1e-13)
    p0 = lub(eps=0.0, delta=0.25, theta=2.0)
    U = cos_field(2)
    out0 = apply_quasilinear(SpectralField.zeros(32), U, p0)
    assert out0.coeffs[2] == pytest.approx((1 + 0.5 * 2.0 * 16) * COS_MODE, rel=1e-13)
    assert np.all(apply_quasilinear(h, SpectralField.zeros(32), p).coeffs == 0)


def test_invert_lub_base_round_trip(rng):
    p = lub(eps=0.0, delta=1.0, theta=1.0)
    F = cos_field(1)
    U = invert_base(F, p)
    assert U.coeffs[1] == pytest.approx(0.5 * COS_MODE, rel=1e-14)
    for _ in range(5):
        F = random_field(32, rng, p=3.0)
        back = apply_quasilinear(
            SpectralField.zeros(32), invert_base(F, p), p
        )
        assert a0_dist(back, F) <= 1e-12 * wiener_norm(F, 0)


def test_lub_linear_rates(rng):
    p = lub(eps=0.0, delta=0.01, lam=1.0, theta=1.0)
    h = random_field(32, rng, p=3.0)
    F = forcing(h, p)
    U, _ = solve_quasilinear(h, F, p)
    k = np.arange(1, 33)
    rates = -U.coeffs[1:] / h.coeffs[1:]
    assert np.abs(rates - linear_decay_rate(k, p)).max() < 1e-12


def test_wnl_linear_rates_solved(rng):
    for depth in ("finite", "infinite"):
        p = wnl(sigma=0.0, lam=0.5, theta=2.0, depth=depth)
        h = random_field(32, rng, p=3.0)
        U, _ = solve_quasilinear(h, forcing(h, p), p)
        k = np.arange(1, 33)
        rates = -U.coeffs[1:] / h.coeffs[1:]
        assert np.abs(rates - linear_decay_rate(k, p)).max() < 1e-12


# ---------------------------------------------------------------------------
# batched pipelines vs naive composition from public primitives
# ---------------------------------------------------------------------------

def _prod(f, g):
    return SpectralField(pointwise_product(f.coeffs, g.coeffs))


def _mean_zero(c):
    c = c.copy()
    c[0] = 0.0
    return SpectralField(c)


def _naive_forcing_wnl(h, p):
    G = depth_symbol(p.depth)

    def mul(sym, f):
        return apply_multiplier(f, sym)

    lin = SpectralField(-p.chi * mul(G, h).coeffs
                        - (p.lam / 4) * mul(G, mul(derivative_symbol(4), h)).coeffs)
    q1 = mul(G, _prod(h, mul(G, h)))
    q2 = mul(derivative_symbol(1), _prod(h, mul(derivative_symbol(1), h)))
    q3 = mul(G, _prod(h, mul(G, mul(derivative_symbol(4), h))))
    q4 = mul(derivative_symbol(1), _prod(h, mul(derivative_symbol(5), h)))
    return _mean_zero(
        lin.coeffs
        + p.sigma * p.chi * (q1.coeffs + q2.coeffs)
        + p.sigma * p.lam / 4 * (q3.coeffs + q4.coeffs)
    )


def test_batched_pipeline_matches_naive_composition(rng):
    # the stacked-transform fast path against term-by-term composition
    # through the public primitives
    for depth in ("finite", "infinite"):
        p = wnl(sigma=0.7, lam=1.3, theta=0.9, depth=depth)
        for _ in range(10):
            h = random_field(48, rng, p=3.0, amplitude=0.3)
            v = random_field(48, rng, p=4.0)
            fast = forcing(h, p)
            naive = _naive_forcing_wnl(h, p)
            scale = max(wiener_norm(naive, 0), 1e-30)
            assert a0_dist(fast, naive) <= 1e-12 * scale
            fast_i = commutator(h, v, p)
            naive_i = SpectralField(naive_commutator(h.coeffs, v.coeffs,
                                                     depth))
            scale_i = max(wiener_norm(naive_i, 0), 1e-30)
            assert a0_dist(fast_i, naive_i) <= 1e-12 * scale_i


def test_lub_forcing_matches_naive_composition(rng):
    import math as _math

    p = lub(eps=0.4, delta=0.3, lam=0.8, theta=1.0)
    dx = derivative_symbol(1)
    for _ in range(10):
        h = random_field(48, rng, p=3.0, amplitude=0.3)
        g = SpectralField(p.chi * h.coeffs
                          + p.lam / 4 * apply_multiplier(
                              h, derivative_symbol(4)).coeffs)
        w = apply_multiplier(g, dx)
        flux = SpectralField(w.coeffs + p.epsilon * _prod(h, w).coeffs)
        naive = _mean_zero(
            _math.sqrt(p.delta) * apply_multiplier(flux, dx).coeffs)
        fast = forcing(h, p)
        scale = max(wiener_norm(naive, 0), 1e-30)
        assert a0_dist(fast, naive) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_all_operations_preserve_mean_zero_and_finiteness(rng):
    p = wnl(sigma=0.3, lam=1.0, theta=1.0)
    pl = lub(eps=0.3, delta=0.5, lam=1.0)
    for _ in range(100):
        h = random_field(24, rng, p=rng.uniform(2, 4), amplitude=0.1)
        v = random_field(24, rng, p=4.0)
        outs = [
            forcing(h, p),
            commutator(h, v, p),
            apply_quasilinear(h, v, p),
            rhs_wnl2(h, p),
            leading_velocity_wnl2(h, p),
            forcing(h, pl),
            apply_quasilinear(h, v, pl),
        ]
        for out in outs:
            assert out.coeffs[0] == 0.0
            assert np.all(np.isfinite(out.coeffs))


def test_transform_batches_leave_inputs_unchanged():
    # phys/phys_stack/prods write only into new arrays, and _sweep only into
    # the thread's scratch and new arrays, never into the arrays they are
    # given; no array they return shares memory with that scratch
    from muskat.models import _sweep, _table

    n = 48
    tab = _table(n, ModelParams(lam=1.0, theta=1.0, sigma=0.1))
    rng = np.random.default_rng(8)
    spec = rng.standard_normal((3, n + 1)) + 1j * rng.standard_normal((3, n + 1))
    pad = np.zeros((3, 2 * n + 1), complex)
    pad[:, : n + 1] = spec
    phys = rng.standard_normal((2, 4 * n))
    hphys = rng.standard_normal(4 * n)
    inputs = (spec, pad, phys, hphys)
    saved = [a.copy() for a in inputs]

    def batches():
        cold, h_cold = _sweep(tab, spec[0], None, spec[1])
        warm, h_warm = _sweep(tab, None, hphys, spec[2])
        assert h_warm is hphys
        return (tab.phys(spec[0]), tab.phys_stack(pad), tab.prods(hphys, phys),
                cold, h_cold, warm)

    first, again = batches(), batches()
    for a, b in zip(inputs, saved):
        assert a.tobytes() == b.tobytes()
    # a result is never a view of a buffer the next call overwrites
    scratch = [a for a in vars(tab.scratch).values()
               if isinstance(a, np.ndarray)]
    assert scratch
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)
        assert not any(np.shares_memory(a, buf) for buf in scratch)
