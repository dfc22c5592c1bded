import numpy as np
import pytest

from muskat.elliptic import (
    NotContractingError,
    MaxIterationsError,
    RoundoffStallError,
    certify_smallness,
    default_tolerance,
    dense_solve,
    solve_quasilinear,
)
from muskat.models import _table, apply_quasilinear, forcing
from muskat.params import ModelParams
from muskat.spectral import COS_MODE, SpectralField, wiener_norm

from conftest import a0_dist, random_field


def wnl(sigma=1.0, lam=0.0, theta=1.0):
    return ModelParams(chi=1, lam=lam, theta=theta, sigma=sigma, model="wnl1")


def lub(eps=0.5, delta=0.25, lam=0.0, theta=1.0):
    return ModelParams.lubrication(chi=1, lam=lam, theta=theta,
                                   delta=delta, epsilon=eps)


def test_zero_profile_exact_in_one_iteration(rng):
    # the perturbation is active, but with h = 0 its update is exactly
    # zero: the first iteration returns V0 = F / base with a zero increment
    F = random_field(32, rng, p=3.0)
    for p in (wnl(), lub()):
        U, rep = solve_quasilinear(SpectralField.zeros(32), F, p)
        V0 = F.coeffs / _table(32, p).base
        V0[0] = 0.0
        assert _table(32, p).force_active
        assert np.array_equal(U.coeffs, V0)
        assert rep.iterations == 1
        assert rep.converged
        assert rep.contraction_estimate == 0.0
        assert rep.increments == (0.0,)
        back = apply_quasilinear(SpectralField.zeros(32), U, p)
        assert a0_dist(back, F) <= 1e-12 * wiener_norm(F, 0)


def test_sigma_zero_same_as_zero_profile(rng):
    F = random_field(32, rng, p=3.0)
    h = random_field(32, rng, amplitude=0.5)
    U, rep = solve_quasilinear(h, F, wnl(sigma=0.0))
    U0, _ = solve_quasilinear(SpectralField.zeros(32), F, wnl(sigma=0.0))
    assert rep.iterations == 1
    assert np.all(U.coeffs == U0.coeffs)


def test_matches_dense_solve_small_perturbation():
    # fixed point on the 256-mode grid vs dense assembly over |k| <= 16;
    # the solution's spectrum decays geometrically, so the truncation tail
    # is far below the comparison tolerance
    n = 256
    p = wnl(sigma=1.0, theta=1.0, lam=0.0)
    h = SpectralField.cosine(1, 0.01, n)
    F = SpectralField.cosine(1, 1.0, n)
    U, rep = solve_quasilinear(h, F, p, tol=1e-13)
    assert rep.converged and rep.contraction_estimate < 1.0
    h16 = SpectralField(h.coeffs[:17])
    F16 = SpectralField(F.coeffs[:17])
    Ud = dense_solve(h16, F16, p)
    tail = 2 * float(np.abs(U.coeffs[17:]).sum())
    assert tail < 1e-12
    diff = 2 * float(np.abs(U.coeffs[1:17] - Ud.coeffs[1:]).sum())
    assert diff <= 1e-10


def test_oracle_equivalence_random_in_regime(rng):
    # 33-mode grids, 25 wnl + 25 lubrication instances
    n = 33
    for i in range(50):
        if i % 2 == 0:
            p = wnl(sigma=1.0, theta=1.0, lam=0.5)
        else:
            p = lub(eps=0.5, delta=0.25, lam=0.5)
        h = random_field(n, rng, p=3.0, amplitude=0.02)
        F = random_field(n, rng, p=3.0)
        U, rep = solve_quasilinear(h, F, p, tol=1e-13)
        assert rep.contraction_estimate < 1.0
        Ud = dense_solve(h, F, p)
        assert a0_dist(U, Ud) <= 1e-9


def test_geometric_increments_and_residual(rng):
    for p in (wnl(sigma=1.0), lub(eps=0.8)):
        h = random_field(32, rng, p=3.0, amplitude=0.05)
        F = random_field(32, rng, p=2.5)
        tol = default_tolerance(F.coeffs)
        U, rep = solve_quasilinear(h, F, p)
        q = rep.contraction_estimate
        assert 0.0 < q < 1.0
        for a, b in zip(rep.increments, rep.increments[1:]):
            assert b <= q * a * (1 + 1e-12)
        assert rep.final_residual <= 10 * tol


def test_not_contracting_raised_for_large_profile():
    p = wnl(sigma=1.0, theta=1.0)
    h = SpectralField.cosine(1, 1000.0, 32)
    F = SpectralField.cosine(1, 1.0, 32)
    with pytest.raises(NotContractingError):
        solve_quasilinear(h, F, p)


def test_roundoff_stall_is_not_reported_as_non_contraction():
    # tol lies below the roundoff floor of the increments, so they stall
    # although the map contracts: the error names that case, with the last
    # increment and tol, and every NotContractingError handler catches it
    p = wnl(sigma=0.2, lam=1.0, theta=1.0)
    h = SpectralField.cosine(1, 1.0, 32)
    h.coeffs[2] = 0.5 * COS_MODE
    with pytest.raises(RoundoffStallError) as exc:
        solve_quasilinear(h, forcing(h, p), p, tol=1e-14)
    assert isinstance(exc.value, NotContractingError)
    assert exc.value.contraction_estimate < 1.0
    assert "stalled at" in str(exc.value) and "tol 1e-14" in str(exc.value)


def test_max_iterations_raised():
    # moderately contracting problem with an unreachable tolerance in the
    # allowed iteration budget
    p = wnl(sigma=1.0, theta=1.0)
    h = SpectralField.cosine(1, 0.05, 32)
    F = SpectralField.cosine(1, 1.0, 32)
    with pytest.raises(MaxIterationsError):
        solve_quasilinear(h, F, p, tol=1e-280, max_iter=3)


def test_certify_smallness_cases():
    p = wnl(sigma=1.0, theta=1.0)
    rep0 = certify_smallness(SpectralField.zeros(32), p)
    assert rep0.contraction_factor == 0.0 and rep0.passed

    huge = certify_smallness(SpectralField.cosine(1, 1000.0, 32), p)
    assert huge.contraction_factor >= 1.0 and not huge.passed

    # perturbation is linear in h: probe factor doubles with the profile
    a = certify_smallness(SpectralField.cosine(1, 0.01, 32), p, seed=7)
    b = certify_smallness(SpectralField.cosine(1, 0.02, 32), p, seed=7)
    assert b.contraction_factor == pytest.approx(2 * a.contraction_factor, rel=1e-10)
    assert b.contraction_factor >= a.contraction_factor


def test_solved_field_feeds_quasilinear_identity(rng):
    # L_h(solve(h, N(h))) == N(h): the step the integrator relies on
    p = wnl(sigma=0.5, lam=1.0)
    h = random_field(64, rng, p=3.0, amplitude=0.01)
    F = forcing(h, p)
    U, rep = solve_quasilinear(h, F, p)
    back = apply_quasilinear(h, U, p)
    assert a0_dist(back, F) <= 10 * rep.tol


def test_stall_contraction_estimate_repeats_from_another_vector():
    # a stall reports the spectral radius of the update, found by power
    # iteration from the last increment: the same factor, to 1e-3, as a
    # power iteration started from an unrelated random vector
    from muskat.elliptic import _stall_ratio

    n = 32
    p = wnl(sigma=3.0, lam=1.0)
    h = SpectralField.cosine(3, 5.0, n)
    with pytest.raises(NotContractingError) as exc:
        solve_quasilinear(h, forcing(h, p), p)
    est = exc.value.contraction_estimate
    assert est > 1.0
    tab = _table(n, p)
    for seed in (1, 2):
        w = random_field(n, np.random.default_rng(seed)).coeffs
        again = _stall_ratio(tab, tab.phys(h.coeffs), w)
        assert abs(again - est) <= 1e-3 * est


@pytest.mark.parametrize("p, radius, rtol", [
    # thin film: the next eigenvalue of the update lies close, successive
    # estimates agree to 1e-3 while still 4% high; 14.362 is where 800
    # power steps from the same vector settle
    (lub(eps=3.0, delta=0.01, lam=1.0), 14.362, 5e-3),
    # small slope: the pair +-lam dominates by far
    (wnl(sigma=3.0, lam=1.0), 13.5715, 1e-4),
])
def test_stall_reports_converged_spectral_radius(p, radius, rtol):
    h = SpectralField.cosine(3, 5.0, 32)
    with pytest.raises(NotContractingError) as exc:
        solve_quasilinear(h, forcing(h, p), p)
    assert exc.value.contraction_estimate == pytest.approx(radius, rel=rtol)
