import math
import types

import numpy as np
import pytest

from muskat import spectral
from muskat.spectral import (
    COS_MODE,
    GridMismatchError,
    SpectralField,
    apply_multiplier,
    depth_symbol,
    derivative_symbol,
    load_spectrum_csv,
    random_decay_coeffs,
    random_decay_field,
    save_spectrum_csv,
    wiener_norm,
)

from conftest import random_field
from oracles import pointwise_product

SQ2PI = math.sqrt(2 * math.pi)


def grid(n_points):
    return 2.0 * np.pi * np.arange(n_points) / n_points


def sampled(fn, n_modes):
    """The field of fn sampled on the 4N grid."""
    return SpectralField.from_values(fn(grid(4 * n_modes)), n_modes)


def test_cosine_coefficient_normalization():
    # symbolic oracle: integral of cos(x) e^{-ix}/sqrt(2pi) over the torus
    h = SpectralField.cosine(1, 1.0, 16)
    assert h.coeffs[1] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
    vals = h.values(64)
    assert np.allclose(vals, np.cos(grid(64)), atol=1e-14)


def test_from_values_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = random_field(24, rng)
        g = SpectralField.from_values(f.values(96), n_modes=24)
        assert np.abs(g.coeffs - f.coeffs).max() <= 1e-12 * np.abs(f.coeffs).max()


@pytest.mark.parametrize("n", [32, 257])
@pytest.mark.parametrize("amplitude", [1e-3, 2.0])
def test_random_decay_coeffs_rows_are_sequential_fields(n, amplitude):
    # one call on R powers draws what R random_decay_field calls draw from
    # one generator, bit for bit, and leaves the generator where they do;
    # both follow the law as uniforms: moduli U(1/2, 1), then phases
    # U(0, 2 pi), for each field in turn
    powers = [2, 3, 4, 4, 2, 3, 3]
    rng, ref, law = (np.random.default_rng(11) for _ in range(3))
    rows = random_decay_coeffs(n, powers, rng, amplitude)
    assert rows.shape == (len(powers), n + 1)
    k = np.arange(1, n + 1, dtype=float)
    for row, p in zip(rows, powers):
        f = random_decay_field(n, p, ref, amplitude)
        assert row.tobytes() == f.coeffs.tobytes()
        mag = amplitude * k ** (-float(p)) * law.uniform(0.5, 1.0, size=n)
        phase = law.uniform(0.0, 2.0 * np.pi, size=n)
        assert row[0] == 0.0
        assert row[1:].tobytes() == (mag * np.exp(1j * phase)).tobytes()
    assert (rng.bit_generator.state == ref.bit_generator.state
            == law.bit_generator.state)


def test_from_values_needs_2n_plus_1_samples():
    # on 8 points cos 4x aliases cos(-4x): the stored mode-4 coefficient
    # would be 2*COS_MODE and values(16) off by 1.0
    vals = np.cos(4 * grid(8))
    with pytest.raises(GridMismatchError, match="at most 3 modes"):
        SpectralField.from_values(vals, n_modes=4)
    f = SpectralField.from_values(np.cos(4 * grid(9)), n_modes=4)
    assert np.allclose(f.values(16), np.cos(4 * grid(16)), atol=1e-14)


@pytest.mark.parametrize("shape,axis,transposed", [
    ((64, 33), 0, False),    # strip samples, x along axis 0
    ((48, 17), 1, False),
    ((40, 24), 1, True),     # the preconditioner's transposed view
    ((130,), -1, False),
])
def test_binding_bitwise_equals_scipy_fft(shape, axis, transposed):
    import scipy.fft

    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    if transposed:
        x = x.T
    n = x.shape[axis]
    F = spectral.rfft(x, axis=axis)
    assert np.array_equal(F, scipy.fft.rfft(x, axis=axis))
    G = F * (1.0 + 0.5j)
    assert np.array_equal(spectral.irfft(G, n, axis=axis),
                          scipy.fft.irfft(G, n=n, axis=axis))


@pytest.mark.parametrize("shape", [(64, 32), (256, 64), (512, 255)])
@pytest.mark.parametrize("type", [2, 3])
def test_dct_bitwise_equals_scipy_fft(shape, type):
    # the strip preconditioner's transforms: z along axis 1
    import scipy.fft

    x = np.random.default_rng(sum(shape) + type).standard_normal(shape)
    assert np.array_equal(spectral.dct(x, type, axis=1),
                          scipy.fft.dct(x, type=type, axis=1))


def test_missing_binding_names_its_path(monkeypatch, tmp_path):
    fake = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(spectral.importlib.util, "find_spec",
                        lambda name: fake)
    with pytest.raises(ImportError, match=str(tmp_path / "fft" / "_pocketfft")):
        spectral._load_pocketfft()


def test_apply_multiplier_flat_map_on_sine():
    # |k| tanh|k| on sin(2x) -> 2 tanh(2) sin(2x)
    f = sampled(np.sin, 16)
    f2 = sampled(lambda x: np.sin(2 * x), 16)
    out = apply_multiplier(f2, depth_symbol("finite"))
    expect = 2 * math.tanh(2) * f2.values(64)
    assert np.allclose(out.values(64), expect, atol=1e-14)
    assert np.abs(apply_multiplier(f, np.ones_like).coeffs - f.coeffs).max() == 0


def test_apply_multiplier_derivative():
    f = sampled(np.cos, 16)
    out = apply_multiplier(f, derivative_symbol(1))
    assert np.allclose(out.values(64), -np.sin(grid(64)), atol=1e-14)


def test_infinite_depth_symbol():
    f = SpectralField.cosine(3, 1.0, 8)
    out = apply_multiplier(f, depth_symbol("infinite"))
    assert out.coeffs[3] == pytest.approx(3 * COS_MODE)


def test_wiener_norm_values():
    assert wiener_norm(SpectralField.cosine(1, 1.0, 8), 1) == pytest.approx(SQ2PI)
    assert wiener_norm(SpectralField.zeros(8), 2.5) == 0.0
    assert wiener_norm(SpectralField.cosine(2, 1.0, 8), 3) == pytest.approx(8 * SQ2PI)


def test_multiplier_commutes_with_projection(rng):
    # projection: modes k > 10 zeroed
    sym = depth_symbol("finite")
    for _ in range(20):
        f = random_field(32, rng)
        a = apply_multiplier(f, sym).coeffs
        a[11:] = 0.0
        low = f.coeffs.copy()
        low[11:] = 0.0
        b = apply_multiplier(SpectralField(low), sym).coeffs
        assert np.abs(a - b).max() == 0.0


def test_pointwise_product_trig_identities():
    n = 16
    c1 = sampled(np.cos, n).coeffs
    s1 = sampled(np.sin, n).coeffs
    sq = pointwise_product(c1, c1)
    # cos^2 = 1/2 + cos(2x)/2, mean retained before projection
    assert sq[0] == pytest.approx(0.5 * SQ2PI, rel=1e-14)  # mean 1/2
    assert sq[2] == pytest.approx(0.5 * COS_MODE, rel=1e-14)
    assert np.abs(sq[[1, 3]]).max() < 1e-15
    zero = pointwise_product(c1, np.zeros(n + 1, complex))
    assert np.all(zero == 0)
    cs = SpectralField(pointwise_product(c1, s1))
    assert np.allclose(cs.values(64), 0.5 * np.sin(2 * grid(64)), atol=1e-14)


def test_poincare_monotonicity(rng):
    # mean-zero: lower-order Wiener norms are dominated by higher ones
    for _ in range(200):
        f = random_field(24, rng, p=rng.uniform(1.5, 3.5))
        n0, n1, n2 = (wiener_norm(f, s) for s in (0.0, 1.0, 2.0))
        assert n0 <= n1 <= n2


def test_depth_symbol_sandwich(rng):
    # tanh(1) ||f||_{s+1} <= ||G0 f||_s <= ||f||_{s+1} on mean-zero fields
    g0 = depth_symbol("finite")
    t1 = math.tanh(1.0)
    for _ in range(50):
        f = random_field(32, rng, p=rng.uniform(2.0, 4.0))
        gf = apply_multiplier(f, g0)
        for s in (0, 1, 2):
            hi = wiener_norm(f, s + 1)
            mid = wiener_norm(gf, s)
            assert t1 * hi <= mid * (1 + 1e-12)
            assert mid <= hi * (1 + 1e-12)


def test_product_algebra_bound(rng):
    for _ in range(50):
        f = random_field(24, rng, p=2.0)
        g = random_field(24, rng, p=3.0)
        prod = pointwise_product(f.coeffs, g.coeffs)
        a0 = float(np.abs(prod[0])) + 2 * float(np.abs(prod[1:]).sum())
        bound = (wiener_norm(f, 0)) * (wiener_norm(g, 0))
        assert a0 <= bound * (1 + 1e-12)


def test_tanh_saturation_exact_one():
    sym = depth_symbol("finite")
    vals = sym(np.array([21.0, 100.0, 1000.0]))
    assert np.all(vals == np.array([21.0, 100.0, 1000.0]))


def test_spectrum_csv_bit_exact_round_trip(tmp_path, rng):
    f = random_field(20, rng)
    path = tmp_path / "spec.csv"
    save_spectrum_csv(f, path)
    g = load_spectrum_csv(path)
    assert np.all(g.coeffs == f.coeffs)
    # and the written text is stable under rewrite
    save_spectrum_csv(g, tmp_path / "spec2.csv")
    assert (tmp_path / "spec.csv").read_bytes() == (tmp_path / "spec2.csv").read_bytes()


def test_spectrum_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("k,re,im\n0,1.0,0.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_spectrum_csv(p)
    p2 = tmp_path / "bad2.csv"
    p2.write_text("wrong\n")
    with pytest.raises(ValueError, match="header"):
        load_spectrum_csv(p2)
