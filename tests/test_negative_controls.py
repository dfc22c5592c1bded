"""Negative controls: each paper-facing check fails on a known-wrong
operator, and passes again once the operator is restored.

Each test swaps one operator in by a monkeypatch (the package has no hook
for it), expects the check's verdict to fail (exit 2 from the CLI), then
undoes the swap and expects it to pass.  Op tables built while a table is
mutated must not outlive the test, so the ``models._table`` cache is
cleared around every swap.
"""

import json

import numpy as np
import pytest

from muskat import models, strip
from muskat.cli import main
from muskat.integrate import IntegratorState, step
from muskat.models import _sweep, linear_decay_rate
from muskat.params import ModelParams
from muskat.spectral import COS_MODE, SpectralField, wiener_norm


@pytest.fixture(autouse=True)
def fresh_tables():
    models._table.cache_clear()
    yield
    models._table.cache_clear()


def _mutate_tables(monkeypatch, mutate):
    """Apply mutate(table) to every op table built from here on."""
    init = models._OpTable.__init__

    def mutated_init(self, n_modes, params):
        init(self, n_modes, params)
        mutate(self)

    monkeypatch.setattr(models._OpTable, "__init__", mutated_init)
    models._table.cache_clear()


def _restore(monkeypatch):
    monkeypatch.undo()
    models._table.cache_clear()


def _verify(tmp_path, kind, text, tag):
    """(exit code, report) of ``muskat verify kind`` on the config text."""
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(text)
    out = tmp_path / tag
    rc = main(["verify", kind, "--config", str(cfg), "--out", str(out)])
    return rc, json.loads((out / f"{kind}_report.json").read_text())


def test_dtn_check_fails_with_the_dx_row_negated(tmp_path, monkeypatch):
    # B(h, psi) = G(h G psi) - dx(h dx psi) is wrong at first order, so the
    # remainder falls only linearly in sigma.  The check reads the model's
    # own row, so the stepped forcing breaks with it.
    text = ("theta = 1.0\nverify.dtn.n_x = 256\nverify.dtn.n_z = 96\n"
            "verify.dtn.n_modes = 32\n")
    h = SpectralField.cosine(1, 0.1, 32)
    p = ModelParams(lam=1.0, sigma=0.5)
    stepped = models.forcing(h, p).coeffs

    def negate_dx_row(tab):
        if not tab.spec.thin_film:
            tab.out = tab.out * np.array([[1.0], [-1.0]])

    _mutate_tables(monkeypatch, negate_dx_row)
    assert not np.allclose(models.forcing(h, p).coeffs, stepped)
    rc, rep = _verify(tmp_path, "dtn", text, "mutated")
    assert rc == 2
    assert not rep["grid_limited"]
    assert rep["slope"] == pytest.approx(1.0, abs=0.2)
    _restore(monkeypatch)
    rc, rep = _verify(tmp_path, "dtn", text, "restored")
    assert rc == 0
    assert rep["slope"] == pytest.approx(2.0, abs=0.2)


def _model_gap(amp, sigma):
    """Criterion 8's largest A0 gap between models 1 and 2: N = 32, 400
    steps of dt = 2 / rate(N) from cos x + cos 2x / 2 at amplitude amp."""
    n = 32
    p1 = ModelParams(chi=1, lam=1.0, theta=1.0, sigma=sigma, model="wnl1")
    p2 = ModelParams(chi=1, lam=1.0, theta=1.0, sigma=sigma, model="wnl2")
    h0 = SpectralField.cosine(1, amp, n)
    h0.coeffs[2] = 0.5 * amp * COS_MODE
    dt = 2.0 / float(linear_decay_rate(n, p1))
    s1 = IntegratorState(h=h0.copy(), dt=dt)
    s2 = IntegratorState(h=h0.copy(), dt=dt)
    gap = 0.0
    for _ in range(400):
        s1, _, _ = step(s1, p1, tol=1e-15)
        s2, _, _ = step(s2, p2, tol=1e-15)
        gap = max(gap, wiener_norm(
            SpectralField(s1.h.coeffs - s2.h.coeffs, copy=False), 0))
    return gap


def test_model_agreement_order_fails_without_theta_k2_mu(monkeypatch):
    # without theta k^2 mu in its sweep argument model 2 leaves model 1 at
    # first order in sigma: halving sigma halves the gap instead of
    # quartering it
    def rhs_without_coupling(tab, c):
        mu = tab.lin * c
        out, _ = _sweep(tab, c, None, tab.w * c)
        out += mu
        out[0] = 0.0
        return out

    monkeypatch.setattr(models, "_rhs_wnl2_raw", rhs_without_coupling)
    ratio = _model_gap(1e-2, 0.2) / _model_gap(1e-2, 0.1)
    assert ratio == pytest.approx(2.0, abs=0.3)
    assert ratio != pytest.approx(4.0, abs=1.2)
    _restore(monkeypatch)
    ratio = _model_gap(1e-2, 0.2) / _model_gap(1e-2, 0.1)
    assert ratio == pytest.approx(4.0, abs=1.2)


def test_bounds_check_fails_with_a_sign_split_entry_scaled(tmp_path,
                                                          monkeypatch):
    # the factor-two bound holds with wide slack on random samples (ratio
    # 0.02), so only a gross error shows: mode 2 of I_A's dx row times 100
    text = ("theta = 1.0\nlambda = 1.0\nsigma = 1.0\n"
            "verify.bounds.samples = 30\nverify.bounds.n_modes = 32\n")

    def scale_entry(tab):
        tab.split_outA = tab.split_outA.copy()
        tab.split_outA[0, 2] *= 100.0

    _mutate_tables(monkeypatch, scale_entry)
    rc, rep = _verify(tmp_path, "bounds", text, "mutated")
    assert rc == 2
    assert not rep["checks"]["sign_part_factor_two"]["passed"]
    _restore(monkeypatch)
    rc, rep = _verify(tmp_path, "bounds", text, "restored")
    assert rc == 0
    assert rep["checks"]["sign_part_factor_two"]["passed"]


def test_flux_check_fails_with_the_mobility_dropped(tmp_path, monkeypatch):
    # the solve with mobility 1 in place of 1 + eps*h, against expansions
    # that keep it: the flux remainder no longer falls like delta^2
    text = ("theta = 1.0\nepsilon = 0.1\nverify.flux.n_x = 64\n"
            "verify.flux.n_z = 17\nverify.flux.h_mode = 1\n")
    fields = strip.coefficient_fields

    def unit_mobility(h_vals, hx_vals, z, delta, epsilon):
        return fields(0.0 * h_vals, hx_vals, z, delta, epsilon)

    monkeypatch.setattr(strip, "coefficient_fields", unit_mobility)
    rc, rep = _verify(tmp_path, "flux", text, "mutated")
    assert rc == 2
    assert not 1.8 <= rep["flux"]["slope"] <= 2.2
    _restore(monkeypatch)
    rc, rep = _verify(tmp_path, "flux", text, "restored")
    assert rc == 0
    assert 1.8 <= rep["flux"]["slope"] <= 2.2
