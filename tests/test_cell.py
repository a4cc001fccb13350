"""Strip-problem solutions, the three K routes, and the corrector traces."""

import numpy as np
import pytest

from trihomog import cell
from trihomog.cell import (UNIVERSAL_MODE_CONSTANT, CellError,
                           CellSolution, ModeProfile, compute_k_report,
                           corrector_vhat, eval_V, k_boundary, k_energy,
                           k_testfunction, mode_energy_closed_form,
                           mode_energy_quadrature, residual_check, solve_cell)
from trihomog import cli
from trihomog.oscillation import OscillationProfile, save_profile

from conftest import random_nonneg_profile


def test_cosine_k_value(cosine_profile):
    # b = 1 + cos(2 pi y) has b_{+-1} = 1/2, xi = 2 pi, so
    # K = 2 * 5 * (2 pi)^3 * (1/2)^2 = 20 pi^3
    report = compute_k_report(cosine_profile)
    expect = 20.0 * np.pi ** 3
    assert abs(report.k_energy - expect) < 1e-10 * expect
    assert report.agreement() < 1e-12


def test_two_dimensional_profile_k(tmp_path):
    # N = 3: two tangential variables, b = 1 + cos(2 pi y1)/2
    # + cos(2 pi y2)/2 + 2 Re[(0.1 + 0.05i) e^{2 pi i (y1 + y2)}]; each mode
    # contributes 5 xi^3 |b_k|^2 with xi = 2 pi |k|
    coeffs = {(0, 0): 1.0, (1, 0): 0.25, (0, 1): 0.25, (1, 1): 0.1 + 0.05j}
    profile = OscillationProfile(2, coeffs)
    expect = sum(5.0 * (2.0 * np.pi * np.hypot(*k)) ** 3
                 * abs(bk) ** 2
                 for k, bk in profile.coefficients.items() if any(k))
    report = compute_k_report(profile)
    assert abs(report.k_energy - expect) < 1e-12 * expect
    assert report.agreement() < 1e-12
    path = tmp_path / "profile2d.json"
    save_profile(profile, str(path))
    assert cli.main(["cell-k", "--profile", str(path)]) == 0


def test_triple_agreement_random_profiles():
    rng = np.random.default_rng(42)
    for _ in range(10):
        profile = random_nonneg_profile(rng)
        report = compute_k_report(profile)
        assert report.agreement() < 1e-10
        assert report.k_energy > 0.0


def test_universal_mode_constant():
    # contribution / (xi^3 |b_k|^2) is the same for every mode and profile
    rng = np.random.default_rng(7)
    ratios = []
    for _ in range(5):
        profile = random_nonneg_profile(rng)
        solution = solve_cell(profile)
        for k in solution.sorted_keys():
            mode = solution.modes[k]
            if mode.xi == 0.0:
                continue
            bk = mode.c1
            ratios.append(mode_energy_closed_form(mode)
                          / (mode.xi ** 3 * abs(bk) ** 2))
    ratios = np.array(ratios)
    assert np.ptp(ratios) < 1e-9 * np.mean(ratios)
    assert abs(np.mean(ratios) - UNIVERSAL_MODE_CONSTANT) < 1e-10


def test_mode_energy_quadrature_oracle(cosine_profile):
    solution = solve_cell(cosine_profile)
    mode = solution.modes[(1,)]
    closed = mode_energy_closed_form(mode)
    quad = mode_energy_quadrature(mode)
    assert abs(closed - quad) < 1e-10 * (1 + abs(closed))


def test_k_energy_quadrature_catches_a_closed_form_error(cosine_profile,
                                                         monkeypatch):
    # the fixed Gauss rule is an independent check: a closed form off by
    # 1e-7 relative (ten times the 1e-8 gate) is caught
    solution = solve_cell(cosine_profile)
    k_energy(solution)
    closed = cell.mode_energy_closed_form
    monkeypatch.setattr(cell, "mode_energy_closed_form",
                        lambda mode: closed(mode) * (1.0 + 1e-7))
    with pytest.raises(CellError, match="disagree"):
        k_energy(solution)


def test_residuals(cosine_profile):
    solution = solve_cell(cosine_profile)
    rep = residual_check(solution)
    assert rep.ode_max < 1e-10 * rep.scale
    assert rep.bc_value < 1e-12
    assert rep.bc_slope < 1e-12
    assert rep.bc_third < 1e-12


def test_k_gauge_invariance(cosine_profile):
    # adding a t^2 to the zero-mode profile b_0 t changes no K route
    base = solve_cell(cosine_profile)
    modes = dict(base.modes)
    modes[(0,)] = ModeProfile(xi=0.0, c1=modes[(0,)].c1, c2=2.5 + 0j)
    gauged = CellSolution(dim=base.dim, modes=modes)
    for route in (lambda s: k_energy(s)[0], k_boundary, k_testfunction):
        assert abs(route(base) - route(gauged)) < 1e-10 * (1 + abs(route(base)))


def test_corrector_trace_identities(cosine_profile):
    # on the boundary y_N = 0 the corrector v-hat = V(y) trace(xbar) has
    # vanishing second tangential derivatives and its mixed second derivative
    # reproduces the profile slope times the trace
    solution = solve_cell(cosine_profile)

    def trace(xbar):
        return np.cos(3.0 * xbar) + 0.5   # arbitrary smooth macroscopic trace

    ybar = np.linspace(-0.5, 0.5, 64, endpoint=False)
    xbar = np.linspace(0.0, 1.0, 64, endpoint=False)
    for xb in xbar[::8]:
        point = (xb, np.stack([ybar, np.zeros_like(ybar)], axis=-1))
        tangential = corrector_vhat(solution, trace, point, deriv_y=(2, 0))
        mixed = corrector_vhat(solution, trace, point, deriv_y=(1, 1))
        expect = cosine_profile.eval_b(ybar, (1,)) * trace(xb)
        assert np.max(np.abs(tangential)) < 1e-10
        assert np.max(np.abs(mixed - expect)) < 1e-10


def test_corrector_normal_trace(cosine_profile):
    # dV/dy_N at the boundary reproduces the profile itself (the slope datum)
    solution = solve_cell(cosine_profile)
    ybar = np.linspace(-0.5, 0.5, 64, endpoint=False)
    slope = eval_V(solution, ybar[:, None], 0.0, deriv=(0, 1))
    np.testing.assert_allclose(slope, cosine_profile.eval_b(ybar), atol=1e-12)


def test_V_decays(cosine_profile):
    # the oscillating modes decay; deep below the boundary only the zero
    # mode's slope b_0 y_N is left
    solution = solve_cell(cosine_profile)
    deep = eval_V(solution, np.array([[0.2]]), -30.0)
    b0 = cosine_profile.coefficients[(0,)].real
    assert np.max(np.abs(deep - b0 * -30.0)) < 1e-20
