import json
import math
import tracemalloc

import numpy as np
import pytest

from muskat.params import ModelParams
from muskat.spectral import (
    COS_MODE,
    GridMismatchError,
    SpectralField,
    apply_multiplier,
    derivative_symbol,
    wiener_norm,
)
from muskat.strip import (
    STENCIL_CHUNK,
    DegenerateLiftError,
    LinearSolveError,
    StripGrid,
    assemble_system,
    coefficient_fields,
    dtn_apply,
    solve_strip,
    stencil_apply,
    surface_normal_velocity,
    verify_dtn_expansion,
    verify_lub_flux,
)

from oracles import csr_system


def p_of(delta=1.0, eps=0.0):
    return ModelParams.lubrication(chi=1, lam=0.0, theta=1.0,
                                   delta=delta, epsilon=eps)


def test_grid_validation():
    with pytest.raises(ValueError):
        StripGrid(64, 8)
    with pytest.raises(ValueError):
        StripGrid(7, 32)
    g = StripGrid(64, 33)
    assert g.dz == pytest.approx(1 / 32)


def p_delta(h, grid, delta, eps):
    """The entries (a, b, c) of P = [[a, b], [b, c]] at the grid nodes."""
    hv = h.values(grid.n_x)
    hx = apply_multiplier(h, derivative_symbol(1)).values(grid.n_x)
    return coefficient_fields(hv, hx, grid.z, delta, eps)


def test_p_delta_flat_interface():
    g = StripGrid(32, 17)
    a, b, c = p_delta(SpectralField.zeros(8), g, 0.5, 0.0)
    assert np.allclose(a, 0.5)
    assert np.allclose(c, 1.0)
    assert np.all(b == 0)


def test_p_delta_bottom_row_diagonal():
    # at z = -1 the lifting factor (1+z) kills the off-diagonal entries
    g = StripGrid(64, 17)
    h = SpectralField.cosine(1, 0.5, 8)
    a, b, c = p_delta(h, g, 0.7, 0.3)
    assert np.abs(b[:, 0]).max() == 0.0
    hv = h.values(64)
    assert np.allclose(a[:, 0], 0.7 * (1 + 0.3 * hv))
    assert np.allclose(c[:, 0], 1.0 / (1 + 0.3 * hv))


def test_p_delta_symmetric_positive_definite(rng):
    # P is positive definite at every node, and the stiffness matrix
    # assembled from it (the oracle's CSR scatter of the cell matrices) is
    # symmetric
    g = StripGrid(64, 17)
    for _ in range(10):
        hc = np.zeros(9, complex)
        hc[1:4] = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        h = SpectralField(hc)
        a, b, c = p_delta(h, g, 0.5, 0.4)
        assert np.all(a * c - b**2 > 0)
        assert np.all(a > 0)
        A = csr_system(h, g, p_of(delta=0.5, eps=0.4))
        assert abs(A - A.T).max() == 0.0


def test_degenerate_lift_rejected():
    g = StripGrid(64, 17)
    h = SpectralField.cosine(1, 1.0, 8)
    with pytest.raises(DegenerateLiftError):
        assemble_system(h, g, p_of(eps=0.96))
    with pytest.raises(DegenerateLiftError):
        solve_strip(h, h, g, p_of(eps=0.96))


def test_solve_failure_wrapped(monkeypatch):
    import muskat.strip as strip_mod

    def broken(grid, delta):
        return lambda r: np.full_like(r, np.nan)

    monkeypatch.setattr(strip_mod, "flat_preconditioner", broken)
    g = StripGrid(32, 17)
    with pytest.raises(LinearSolveError, match="strip CG solve failed"):
        solve_strip(SpectralField.zeros(8), SpectralField.cosine(1, 1.0, 8),
                    g, p_of())


def test_cg_iteration_limit_raises(monkeypatch):
    import muskat.strip as strip_mod

    g = StripGrid(32, 17)
    h = SpectralField.cosine(1, 0.5, 8)
    psi = SpectralField.cosine(2, 1.0, 8)
    p = p_of(delta=0.5, eps=0.4)
    needed = solve_strip(h, psi, g, p).iterations
    assert needed > 1
    monkeypatch.setattr(strip_mod, "CG_MAXITER", needed - 1)
    with pytest.raises(LinearSolveError, match="strip CG solve failed"):
        solve_strip(h, psi, g, p)


def test_flat_strip_solves_in_one_iteration():
    # on a flat interface the preconditioner is the operator itself
    g = StripGrid(64, 33)
    sol = solve_strip(SpectralField.zeros(8), SpectralField.cosine(3, 1.0, 8),
                      g, p_of(delta=0.3))
    assert sol.iterations == 1
    assert sol.residual_norm <= 1e-12


def test_assembled_operator_symmetric():
    g = StripGrid(48, 25)
    h = SpectralField.cosine(1, 0.4, 8)
    A = csr_system(h, g, p_of(delta=0.6, eps=0.4))
    assert abs(A - A.T).max() == 0.0


def test_stencil_chunks_give_the_unchunked_bits():
    # 300 x 250 spans two whole chunks and a part; the reference is the
    # one-pass sum in the same term order
    nx, m = 300, 250
    assert 2 * STENCIL_CHUNK < nx * m < 3 * STENCIL_CHUNK
    rng = np.random.default_rng(7)
    C = rng.standard_normal((3, 3, nx, m))
    x = rng.standard_normal((nx, m))
    n, w = nx * m, m + 1
    flat = x.ravel()
    padded = np.concatenate((flat[n - w:], flat, flat[:w]))
    ref = C[0, 0].ravel() * padded[:n]
    for d in range(1, 9):
        start = (d // 3) * m + d % 3
        ref += C[d // 3, d % 3].ravel() * padded[start:start + n]
    assert stencil_apply(C, x).tobytes() == ref.reshape(nx, m).tobytes()


def test_solve_strip_traced_peak_bounded():
    # a 256x65 solve allocates at most 20 arrays of n_x*n_z floats at once
    # (18.3 with the stencil streamed onto the unknown nodes; 34.6 with the
    # cell-matrix tensor, the full-node stencil and its unknown-block copy)
    g = StripGrid(256, 65)
    p = ModelParams(theta=1.0, sigma=0.2, delta=1.0, epsilon=0.2)
    h = SpectralField.cosine(1, 1.0, 64)
    psi = SpectralField.cosine(2, 1.0, 64)
    solve_strip(h, psi, g, p)  # first-call set-up outside the measurement
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_strip(h, psi, g, p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 20 * g.n_x * g.n_z * 8


def test_flat_strip_closed_form_second_order():
    # phi = cos(x) cosh(1+z)/cosh(1); error drops 4x per refinement
    errs = []
    for (nx, nz) in ((64, 33), (128, 65), (256, 129)):
        g = StripGrid(nx, nz)
        psi = SpectralField.cosine(1, 1.0, 8)
        sol = solve_strip(SpectralField.zeros(8), psi, g, p_of())
        x = g.dx * np.arange(nx)
        exact = np.cos(x)[:, None] * np.cosh(1 + g.z)[None, :] / math.cosh(1)
        errs.append(np.abs(sol.phi - exact).max())
        assert sol.residual_norm <= 1e-10 * wiener_norm(psi, 0)
        # Dirichlet row equals the datum exactly
        assert np.all(sol.phi[:, -1] == psi.values(nx))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_constant_datum_gives_constant_potential():
    g = StripGrid(32, 17)
    c = np.zeros(9, complex)
    c[0] = 2.5
    psi = SpectralField(c)
    sol = solve_strip(SpectralField.zeros(8), psi, g, p_of(delta=0.3))
    assert np.abs(sol.phi - sol.phi[0, -1]).max() < 1e-10


def test_dtn_flat_reduces_to_multiplier():
    # relative A0 error <= 5e-4 at n_z = 256 across modes k <= 8
    g = StripGrid(512, 256)
    p = ModelParams(chi=1, theta=1.0, sigma=0.0, delta=1.0, epsilon=0.0,
                    model="wnl1")
    c = np.zeros(65, complex)
    for k in range(1, 9):
        c[k] = COS_MODE / k
    psi = SpectralField(c)
    out = dtn_apply(SpectralField.zeros(64), psi, g, p)
    kk = np.arange(65.0)
    expect = kk * np.tanh(kk) * psi.coeffs
    err = 2 * np.abs(out.coeffs[1:] - expect[1:]).sum()
    assert err <= 5e-4 * wiener_norm(psi, 1)


def test_dtn_zero_datum_and_flux_balance(rng):
    g = StripGrid(128, 48)
    p = ModelParams(chi=1, theta=1.0, sigma=0.1, delta=1.0, epsilon=0.1,
                    model="wnl1")
    h = SpectralField.cosine(1, 1.0, 16)
    zero = dtn_apply(h, SpectralField.zeros(16), g, p)
    assert np.abs(zero.coeffs).max() < 1e-12
    # discrete divergence theorem: with an impermeable bottom and periodic
    # sides, the assembled operator's total surface-flux functional
    # vanishes (the operator as the oracle's CSR matrix)
    psi = SpectralField.cosine(2, 1.0, 16)
    sol = solve_strip(h, psi, g, p)
    A = csr_system(h, g, p)
    top_flux = (A @ sol.phi.ravel()).reshape(g.n_x, g.n_z)[:, -1].sum()
    scale = np.abs(A @ sol.phi.ravel()).max()
    assert abs(top_flux) <= 1e-10 * max(scale, 1.0)
    # the surface velocity itself integrates to ~0 up to discretization
    vals = surface_normal_velocity(sol, h, g, p)
    assert abs(np.mean(vals)) <= 1e-3 * np.abs(vals).max()


def test_dtn_expansion_second_order():
    g = StripGrid(256, 96)
    p = ModelParams(chi=1, theta=1.0, sigma=0.0, delta=1.0, epsilon=0.0,
                    model="wnl1")
    h = SpectralField.cosine(1, 1.0, 32)
    psi = SpectralField.cosine(2, 1.0, 32)
    rep = verify_dtn_expansion(h, psi, [0.2, 0.1, 0.05], g, p)
    assert not rep.grid_limited
    assert 1.7 <= rep.slope <= 2.3
    assert rep.correlation < -0.999 or rep.correlation > 0.999
    # Richardson check: the first-order mismatch shrinks linearly in sigma
    fo = rep.extra["first_order_errors"]
    assert fo[-1] < fo[0]


def test_dtn_expansion_zero_h_remainder_floor():
    g = StripGrid(128, 48)
    p = ModelParams(chi=1, theta=1.0, sigma=0.0, delta=1.0, epsilon=0.0,
                    model="wnl1")
    h = SpectralField.zeros(16)
    psi = SpectralField.cosine(2, 1.0, 16)
    rep = verify_dtn_expansion(h, psi, [0.2, 0.1], g, p)
    # with h = 0 the map is sigma-independent: remainders sit at the floor
    assert all(r <= max(2 * rep.floor, 1e-12) for r in rep.remainders)


def test_lub_flux_second_order_flat_mobility():
    g = StripGrid(256, 65)
    p = p_of(eps=0.1)
    f = SpectralField.cosine(1, 1.0, 32)
    flux_rep, phi_rep = verify_lub_flux(
        SpectralField.zeros(32), f, [0.04, 0.02, 0.01], g, p
    )
    assert 1.8 <= flux_rep.slope <= 2.2
    assert 1.8 <= phi_rep.slope <= 2.2
    # the verdict of `verify flux`, kept out of the report's bytes
    assert flux_rep.passed and phi_rep.passed
    assert "passed" not in flux_rep.as_dict()


def test_lub_flux_second_order_with_profile():
    g = StripGrid(256, 65)
    p = p_of(eps=0.1)
    f = SpectralField.cosine(1, 1.0, 32)
    h = SpectralField.cosine(1, 0.3, 32)
    flux_rep, phi_rep = verify_lub_flux(h, f, [0.04, 0.02, 0.01], g, p)
    assert 1.8 <= flux_rep.slope <= 2.2
    assert 1.8 <= phi_rep.slope <= 2.2


def test_flux_check_is_the_same_at_every_truncation_that_holds_its_cosines():
    # the strip samples f and h on n_x points, padded to n_x/2 + 1 modes,
    # so the reports at n_modes 8 and at n_x/2 - 1 (what `verify flux`
    # takes) are equal
    g = StripGrid(32, 17)

    def reports(n):
        h = SpectralField.cosine(1, 1.0, n)
        f = SpectralField.cosine(1, 1.0, n)
        return json.dumps([rep.as_dict() for rep in verify_lub_flux(
            h, f, [0.04, 0.02, 0.01], g, p_of(eps=0.1))])

    assert reports(8) == reports(g.n_x // 2 - 1)


def test_solve_strip_rejects_fields_finer_than_its_grid():
    # an even n_x resolves n_x/2 - 1 modes: 32 points hold 15, not 16
    g, p = StripGrid(32, 17), p_of(eps=0.1)
    h15 = SpectralField.cosine(1, 0.1, 15)
    psi15 = SpectralField.cosine(1, 1.0, 15)
    with pytest.raises(GridMismatchError):
        solve_strip(SpectralField.cosine(1, 0.1, 16), psi15, g, p)
    with pytest.raises(GridMismatchError):
        solve_strip(h15, SpectralField.cosine(1, 1.0, 16), g, p)
    assert solve_strip(h15, psi15, g, p).phi.shape == (32, 17)


def _scaled(field, factor):
    return SpectralField(factor * field.coeffs)


def test_dtn_check_homogeneous_in_h_and_psi():
    # the surface map depends on sigma*h only and is linear in psi, so an
    # amplitude on either cosine restates verify.dtn.sigmas or rescales
    # every remainder: neither moves the slope or the verdict
    g = StripGrid(128, 65)
    p = ModelParams(chi=1, theta=1.0, sigma=0.0, delta=1.0, epsilon=0.0,
                    model="wnl1")
    h = SpectralField.cosine(1, 1.0, 32)
    psi = SpectralField.cosine(2, 1.0, 32)
    sig = [0.3, 0.2, 0.1]
    rep = verify_dtn_expansion(h, psi, sig, g, p)
    assert rep.passed and not rep.grid_limited
    half = verify_dtn_expansion(_scaled(h, 2.0), psi, [s / 2 for s in sig],
                                g, p)
    assert half.remainders == rep.remainders
    assert half.floor == rep.floor
    tripled = verify_dtn_expansion(h, _scaled(psi, 3.0), sig, g, p)
    np.testing.assert_allclose(tripled.remainders,
                               3.0 * np.array(rep.remainders), rtol=1e-8)
    assert tripled.floor == pytest.approx(3.0 * rep.floor, rel=1e-8)
    assert tripled.slope == pytest.approx(rep.slope, abs=1e-8)
    assert (tripled.grid_limited, tripled.passed) == (rep.grid_limited,
                                                      rep.passed)


def test_flux_check_homogeneous_in_h_and_f():
    # the mobility is 1 + epsilon*h and the potential is linear in f, so
    # an amplitude on h restates epsilon and one on f rescales every
    # remainder: neither moves the slopes or the verdicts
    g = StripGrid(128, 65)
    h = SpectralField.cosine(1, 1.0, 32)
    f = SpectralField.cosine(1, 1.0, 32)
    deltas = [0.04, 0.02, 0.01]
    reps = verify_lub_flux(h, f, deltas, g, p_of(eps=0.1))
    assert all(rep.passed for rep in reps)
    half = verify_lub_flux(_scaled(h, 2.0), f, deltas, g, p_of(eps=0.05))
    assert [r.remainders for r in half] == [r.remainders for r in reps]
    tripled = verify_lub_flux(h, _scaled(f, 3.0), deltas, g, p_of(eps=0.1))
    for rep, rep3 in zip(reps, tripled):
        np.testing.assert_allclose(rep3.remainders,
                                   3.0 * np.array(rep.remainders), rtol=1e-8)
        assert rep3.slope == pytest.approx(rep.slope, abs=1e-8)
        assert rep3.passed == rep.passed


def _no_solve(*args):
    raise AssertionError("a degenerate range reached a strip solve")


@pytest.mark.parametrize("sigmas", [[0.2, 0.1, 0.0], [0.1], [0.1, 0.1],
                                    [0.2, -0.1]])
def test_dtn_check_rejects_degenerate_sigmas_before_solving(monkeypatch,
                                                             sigmas):
    import muskat.strip as strip_mod

    monkeypatch.setattr(strip_mod, "solve_strip", _no_solve)
    h = SpectralField.cosine(1, 1.0, 8)
    with pytest.raises(ValueError, match="sigmas"):
        verify_dtn_expansion(h, h, sigmas, StripGrid(32, 17), p_of())


class _Solved(Exception):
    pass


def _flag_solve(*args):
    raise _Solved


@pytest.mark.parametrize("h_mode, psi_mode, admitted",
                         [(40, 30, False), (1, 64, False), (34, 30, True)])
def test_dtn_check_mode_bound_before_solving(monkeypatch, h_mode, psi_mode,
                                             admitted):
    # B(h, psi) is truncated at n_modes and the grid product is not: past
    # the bound the two differ (100% at 40 + 40 with N = 64)
    import muskat.strip as strip_mod

    monkeypatch.setattr(strip_mod, "solve_strip", _flag_solve)
    h = SpectralField.cosine(h_mode, 1.0, 64)
    psi = SpectralField.cosine(psi_mode, 1.0, 64)
    with pytest.raises(_Solved if admitted else ValueError):
        verify_dtn_expansion(h, psi, [0.2, 0.1], StripGrid(256, 17), p_of())


@pytest.mark.parametrize("deltas", [[0.04, 0.02, 0.0], [0.02]])
def test_flux_check_rejects_degenerate_deltas_before_solving(monkeypatch,
                                                             deltas):
    import muskat.strip as strip_mod

    monkeypatch.setattr(strip_mod, "solve_strip", _no_solve)
    f = SpectralField.cosine(1, 1.0, 8)
    with pytest.raises(ValueError, match="deltas"):
        verify_lub_flux(SpectralField.zeros(8), f, deltas, StripGrid(32, 17),
                        p_of(eps=0.1))


def test_lub_flux_zero_datum():
    g = StripGrid(128, 33)
    p = p_of(eps=0.2)
    h = SpectralField.cosine(1, 0.2, 16)
    flux_rep, _phi = verify_lub_flux(
        h, SpectralField.zeros(16), [0.04, 0.02], g, p
    )
    assert all(r < 1e-12 for r in flux_rep.remainders)


def test_phi1_profile_shape():
    # solved phi - f at small delta reproduces z(z+2)/2 * cos(x) (times delta)
    g = StripGrid(128, 65)
    d = 0.005
    p = p_of(eps=0.0)
    f = SpectralField.cosine(1, 1.0, 16)
    from dataclasses import replace
    sol = solve_strip(SpectralField.zeros(16), f,
                      g, replace(p, delta=d, sigma=0.0))
    phi1_num = (sol.phi - f.values(128)[:, None]) / d
    x = g.dx * np.arange(g.n_x)
    phi1 = 0.5 * g.z[None, :] * (g.z[None, :] + 2.0) * np.cos(x)[:, None]
    assert np.abs(phi1_num - phi1).max() <= 0.01
