"""The direct-sum oracles against the FFT routes."""

import math

import numpy as np

from muskat import _kernels
from muskat.params import ModelParams
from muskat.models import commutator, commutator_sign_split
from muskat.spectral import tanh_clamped

from conftest import random_field
from oracles import (convolve_truncated, full_spectrum, half_spectrum,
                     pointwise_product)

SQ2PI = math.sqrt(2 * math.pi)


def test_full_half_round_trip(rng):
    f = random_field(12, rng)
    full = full_spectrum(f.coeffs)
    assert len(full) == 25
    back = half_spectrum(full)
    assert np.all(back == f.coeffs)
    # Hermitian symmetry of the full layout
    assert np.allclose(full[:12], np.conj(full[13:][::-1]))


def test_convolution_matches_fft_product(rng):
    for _ in range(10):
        f = random_field(20, rng)
        g = random_field(20, rng, p=3.0)
        direct = convolve_truncated(
            full_spectrum(f.coeffs), full_spectrum(g.coeffs)
        )
        direct_half = half_spectrum(direct) / SQ2PI
        fft = pointwise_product(f.coeffs, g.coeffs)
        assert np.abs(direct_half - fft).max() < 1e-13


def test_sign_split_direct_matches_fft_route(rng):
    p = ModelParams(chi=1, theta=1.0, sigma=1.0, depth="finite", model="wnl1")
    tanha = tanh_clamped(np.arange(17))
    for _ in range(10):
        h = random_field(16, rng, p=2.0)
        v = random_field(16, rng, p=4.0)
        ia_f, ib_f = _kernels.sign_split_direct(
            full_spectrum(h.coeffs), full_spectrum(v.coeffs), tanha
        )
        ia, ib = commutator_sign_split(h, v, p)
        scale = 1.0 / SQ2PI
        assert np.abs(half_spectrum(ia_f) * scale - ia.coeffs).max() < 1e-12
        assert np.abs(half_spectrum(ib_f) * scale - ib.coeffs).max() < 1e-12
        total = commutator(h, v, p)
        assert np.abs(ia.coeffs + ib.coeffs - total.coeffs).max() < 1e-13

