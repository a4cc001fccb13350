"""Finite-difference and algebraic oracles for the order-3 chain-rule
kernels."""

import math

import numpy as np
from scipy.optimize import brentq

from trihomog import jets
from trihomog.oscillation import OscillationProfile, PerturbationParams


def test_multinomial_counts():
    assert jets.multinomial((3,)) == 1
    assert jets.multinomial((2, 1)) == 3
    assert jets.multinomial((1, 2)) == 3
    assert jets.multinomial((1, 1, 1)) == 6
    assert jets.multinomial((0, 0)) == 1


def test_multi_index_enumeration():
    idx = jets.multi_indices(2)
    assert len(idx) == 10                      # C(2+3, 3) for two variables
    assert idx[0] == (0, 0)
    assert all(jets.index_order(i) <= 3 for i in idx)
    assert len(set(idx)) == len(idx)


def _shear_setup(seed=0):
    """A concrete vertical shear tau = t + (t+1) g_eps(x) with its forward
    jet, scalar inversion of tau, and the evaluation point."""
    profile = OscillationProfile(1, {(0,): 1.0, (1,): 0.5})
    params = PerturbationParams(0.25, 2.0)
    point = (0.13, -0.4)

    def tau(x, t):
        return t + (t + 1.0) * profile.eval_g(params, x)

    def tau_inv(x, tv):
        return brentq(lambda t: tau(x, t) - tv, -1.5, 0.5, xtol=1e-14)

    jet = profile.eval_pullback(params, point)
    return tau, tau_inv, jet, point


def test_inverse_jet_matches_finite_differences():
    tau, tau_inv, jet, point = _shear_setup()
    inv = jets.invert_jet3(jet)
    tau0 = tau(*point)
    h = 1e-5
    fd_x = (tau_inv(point[0] + h, tau0) - tau_inv(point[0] - h, tau0)) / (2 * h)
    fd_t = (tau_inv(point[0], tau0 + h) - tau_inv(point[0], tau0 - h)) / (2 * h)
    fd_xx = (tau_inv(point[0] + h, tau0) - 2 * tau_inv(point[0], tau0)
             + tau_inv(point[0] - h, tau0)) / h ** 2
    assert abs(inv[(1, 0)] - fd_x) < 1e-7 * (1 + abs(fd_x))
    assert abs(inv[(0, 1)] - fd_t) < 1e-7 * (1 + abs(fd_t))
    assert abs(inv[(2, 0)] - fd_xx) < 1e-4 * (1 + abs(fd_xx))


def test_forward_inverse_compose_to_identity():
    _, _, jet, _ = _shear_setup()
    inv = jets.invert_jet3(jet)
    comp = jets.compose_shear_derivs(jet.derivs, inv, 2)
    for beta, val in comp.items():
        expect = 1.0 if beta == (0, 1) else 0.0
        assert abs(val - expect) < 1e-12, (beta, val)


def _random_cubic(rng):
    cc = rng.normal(size=(4, 4))

    def u(x, t):
        return sum(cc[i, j] * x ** i * t ** j
                   for i in range(4) for j in range(4) if i + j <= 3)

    def u_d(x, t, i, j):
        s = 0.0
        for a in range(i, 4):
            for b in range(j, 4):
                if a + b <= 3:
                    s += (cc[a, b]
                          * (math.factorial(a) / math.factorial(a - i))
                          * (math.factorial(b) / math.factorial(b - j))
                          * x ** (a - i) * t ** (b - j))
        return s

    return u, u_d


def _fd(f, x, y, i, j, h):
    if i > 0:
        return (_fd(f, x + h, y, i - 1, j, h)
                - _fd(f, x - h, y, i - 1, j, h)) / (2 * h)
    if j > 0:
        return (_fd(f, x, y + h, i, j - 1, h)
                - _fd(f, x, y - h, i, j - 1, h)) / (2 * h)
    return f(x, y)


def test_transform_coeffs_against_finite_differences():
    tau, tau_inv, jet, point = _shear_setup()
    inv = jets.invert_jet3(jet)
    C = jets.transform_coeffs(inv)
    rng = np.random.default_rng(0)
    tau0 = tau(*point)
    for _ in range(10):
        u_ref, u_ref_d = _random_cubic(rng)
        ref_jet = {(i, j): u_ref_d(point[0], point[1], i, j)
                   for i in range(4) for j in range(4) if i + j <= 3}

        def u_phys(x, tv):
            return u_ref(x, tau_inv(x, tv))

        for beta in jets.multi_indices(2):
            if jets.index_order(beta) == 0:
                continue
            pred = jets.apply_coeffs(C, ref_jet, beta)
            # central differences are O(h^2); one Richardson step removes
            # the leading term, which the oscillating map makes large
            h = 1e-3
            d_h = _fd(u_phys, point[0], tau0, beta[0], beta[1], h)
            d_h2 = _fd(u_phys, point[0], tau0, beta[0], beta[1], h / 2)
            num = (4.0 * d_h2 - d_h) / 3.0
            assert abs(pred - num) < 1e-6 * (1 + abs(num)), (beta, pred, num)


def test_det_jacobian_of_vertical_shear():
    _, _, jet, point = _shear_setup()
    profile = OscillationProfile(1, {(0,): 1.0, (1,): 0.5})
    params = PerturbationParams(0.25, 2.0)
    C = jets.transform_coeffs(jets.invert_jet3(jet))
    assert abs(C.det_jacobian
               - (1.0 + profile.eval_g(params, point[0]))) < 1e-12


def test_degenerate_shear_raises():
    forward = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): 0.0, (2, 0): 0.0,
               (1, 1): 0.0, (0, 2): 0.0, (3, 0): 0.0, (2, 1): 0.0,
               (1, 2): 0.0, (0, 3): 0.0}
    try:
        jets.invert_shear_derivs(forward, 2)
    except ValueError:
        pass
    else:
        raise AssertionError("degenerate shear must raise")
