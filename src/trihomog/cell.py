"""Semi-analytic solution of the microscopic strip problem and the strange
coefficient K.

Separation of variables on the semi-infinite strip Y x (-inf, 0): writing the
corrector generator as V(y) = sum_k w_k(y_N) e^{2 pi i k . ybar}, each
tangential mode k != 0 with frequency xi = 2 pi |k| satisfies the sixth-order
ODE (d^2/dt^2 - xi^2)^3 w = 0 with

    w(0) = 0,   w'(0) = b_k,   w'''(0) = 0,

and decay at t -> -inf.  The decaying solution space is spanned by
e^{xi t} {1, t, t^2}; imposing the boundary conditions gives

    w_k(t) = b_k e^{xi t} (t - xi t^2 / 2),

which is verified at runtime (residual_check), not assumed.  The zero mode is
the gauge-fixed linear profile w_0(t) = b_0 t (the solution is unique only up
to a multiple of t^2, which carries no third derivatives).

K is computed by three independent routes:

* k_energy      -- the strip energy integral of |D^3 V|^2, mode by mode, in
                   closed form (exponential-moment integrals) cross-checked
                   against composite Gauss quadrature;
* k_boundary    -- the boundary-trace expression, by exact mode algebra;
* k_testfunction-- the finite-strip identity obtained by testing against
                   b(ybar) (1 + y_N)^4, by Gauss quadrature on (-1, 0).

Mode bookkeeping
----------------
A third derivative with m vertical and 3-m tangential slots can order its
vertical slots in C(3,m) ways, and the sum over tangential index choices of
the squared tangential symbol collapses to xi^{2(3-m)} (this also covers two
tangential dimensions, where the multinomial identity turns the tangential
combinatorics into powers of xi = 2 pi |k|).  Hence per mode

    contribution_k = sum_{m=0}^{3} C(3,m) xi^{2(3-m)} int_{-inf}^0 |w^(m)|^2.

Substituting s = xi t shows contribution_k = C* xi^3 |b_k|^2 with a universal
constant C*.  Using int_{-inf}^0 e^{2s} s^n ds = (-1)^n n! / 2^{n+1} the four
scaled integrals are 13/16, 7/16, 13/16, 7/16, so

    C* = 13/16 + 3*(7/16) + 3*(13/16) + 7/16 = 5.

The constant below is locked in as a regression value; the quadrature oracle
confirms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .jets import index_order

TWO_PI = 2.0 * np.pi

#: contribution_k / (xi^3 |b_k|^2), derived from exponential moments (above)
UNIVERSAL_MODE_CONSTANT = 5.0

#: quadrature is truncated at t = -TAIL_CUT / xi; the integrand decays like
#: e^{2 xi t}, so the discarded tail is ~e^{-80} of the integral
TAIL_CUT = 40.0

#: composite Gauss-Legendre rule of mode_energy_quadrature: each panel
#: spans 2 / xi, over which e^{2 xi t} varies by e^4
QUAD_PANELS = 20
QUAD_POINTS = 16


class CellError(RuntimeError):
    pass


@dataclass(frozen=True)
class ModeProfile:
    """Vertical profile w(t) = e^{xi t} (c1 t + c2 t^2) of one tangential
    mode (xi = 0 gives the polynomial zero-mode profile)."""
    xi: float
    c1: complex
    c2: complex

    def eval(self, m, t):
        """m-th derivative at t (array-capable), by the Leibniz rule on the
        exponential-times-quadratic form."""
        t = np.asarray(t, dtype=float)
        p = [self.c1 * t + self.c2 * t * t,
             self.c1 + 2.0 * self.c2 * t,
             2.0 * self.c2 * np.ones_like(t)]
        total = 0.0
        for l in range(min(m, 2) + 1):
            total = total + math.comb(m, l) * self.xi ** (m - l) * p[l]
        return np.exp(self.xi * t) * total

    def poly_coeffs(self, m):
        """Coefficients q of the polynomial part of w^(m) = e^{xi t} q(t)."""
        base = [np.array([0.0j, self.c1, self.c2]),
                np.array([self.c1, 2.0 * self.c2]),
                np.array([2.0 * self.c2])]
        out = np.zeros(3, dtype=complex)
        for l in range(min(m, 2) + 1):
            c = math.comb(m, l) * self.xi ** (m - l) * base[l]
            out[:len(c)] += c
        return out


@dataclass(frozen=True)
class CellSolution:
    """Per-mode solution of the strip problem for one boundary profile."""
    dim: int
    modes: dict          # k tuple -> ModeProfile; c1 is the boundary datum b_k

    def sorted_keys(self):
        # fixed reduction order for bit-stable sums
        return sorted(self.modes)


def solve_cell(profile):
    """Decaying per-mode solution of the strip problem for the given profile.

    The zero mode is b_0 t; adding a t^2 to it (c2 = a) is a gauge that
    leaves every K route unchanged.
    """
    modes = {}
    for k, bk in profile.coefficients.items():
        if all(x == 0 for x in k):
            modes[k] = ModeProfile(xi=0.0, c1=bk, c2=0j)
        else:
            xi = TWO_PI * math.hypot(*k)
            modes[k] = ModeProfile(xi=xi, c1=bk, c2=-0.5 * xi * bk)
    return CellSolution(dim=profile.dim, modes=modes)


def eval_V(solution, ybar, y_n, deriv=None):
    """Exact mode-sum derivative of V at (ybar, y_n), |deriv| <= 4, y_n <= 0."""
    n = solution.dim + 1
    if deriv is None:
        deriv = (0,) * n
    deriv = tuple(deriv)
    if index_order(deriv) > 4:
        raise CellError("derivative order > 4 not supported")
    y = np.asarray(ybar, dtype=float)
    if solution.dim == 1 and (y.ndim == 0 or y.shape[-1] != 1):
        y = y[..., np.newaxis]
    t = np.asarray(y_n, dtype=float)
    if np.any(t > 1e-12):
        raise CellError("V is defined on y_N <= 0")
    a, m = deriv[:-1], deriv[-1]
    total = np.zeros(np.broadcast(np.zeros(y.shape[:-1]), t).shape,
                     dtype=complex)
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        factor = np.prod([(1j * TWO_PI * ki) ** d for ki, d in zip(k, a)])
        phase = np.exp(1j * TWO_PI * (y @ np.array(k, dtype=float)))
        total += factor * phase * mode.eval(m, t)
    out = total.real
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the three K routes
# ---------------------------------------------------------------------------

def _exp_poly_integral(xi, coeffs):
    """int_{-inf}^0 e^{2 xi t} p(t) dt for polynomial coefficients p."""
    return sum(c * (-1.0) ** n * math.factorial(n) / (2.0 * xi) ** (n + 1)
               for n, c in enumerate(coeffs))


def mode_energy_closed_form(mode):
    """Closed-form strip energy of one non-zero mode."""
    xi = mode.xi
    total = 0.0
    for m in range(4):
        q = mode.poly_coeffs(m)
        sq = P.polymul(q, q.conj()).real
        total += math.comb(3, m) * xi ** (2 * (3 - m)) \
            * _exp_poly_integral(xi, sq)
    return total


def mode_energy_quadrature(mode):
    """Strip energy of one non-zero mode by a fixed composite Gauss-Legendre
    rule on (-TAIL_CUT / xi, 0), where the integrand has decayed below
    round-off: QUAD_PANELS equal panels of QUAD_POINTS points each, the
    integrand evaluated on all of them at once from ModeProfile.eval.  It
    shares no formula with mode_energy_closed_form, which it checks."""
    xi = mode.xi
    x, w = np.polynomial.legendre.leggauss(QUAD_POINTS)
    edges = np.linspace(-TAIL_CUT / xi, 0.0, QUAD_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (x + 1.0)).ravel()
    integrand = sum(math.comb(3, m) * xi ** (2 * (3 - m))
                    * np.abs(mode.eval(m, t)) ** 2 for m in range(4))
    return float(np.dot((half * w).ravel(), integrand))


def k_energy(solution):
    """K as the strip energy integral; returns (K, per-mode table).

    Each mode integral is evaluated in closed form and cross-checked
    against the fixed Gauss rule of mode_energy_quadrature; disagreement
    beyond 1e-8 relative raises.
    """
    table = {}
    total = 0.0
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        if mode.xi == 0.0:
            table[k] = 0.0
            continue
        closed = mode_energy_closed_form(mode)
        quad = mode_energy_quadrature(mode)
        if abs(closed - quad) > 1e-8 * (1.0 + abs(closed)):
            raise CellError(
                "closed-form and quadrature energies disagree for mode "
                "%r: %.17g vs %.17g" % (k, closed, quad))
        table[k] = closed
        total += closed
    return total, table


def k_boundary(solution):
    """K by the boundary-trace expression, taken at y_N = 0 by exact mode
    algebra: per mode -(w''''(0) - 3 xi^2 w''(0)) conj(b_k)."""
    total = 0.0
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        if mode.xi == 0.0:
            continue
        bk = mode.c1
        bracket = mode.eval(4, 0.0) - 3.0 * mode.xi ** 2 * mode.eval(2, 0.0)
        total += (-bracket * np.conj(bk)).real
    return float(total)


def k_testfunction(solution):
    """K by testing against the finite-strip field b(ybar) (1 + y_N)^4:

        int_{Y x (-1,0)} [ 3 D^2_y(dV/dy_N) : D^2_y(b (1+y_N)^4)
                           + y_N D^3_y V : D^3(b (1+y_N)^4) ] dy,

    evaluated per mode by Gauss quadrature in the vertical variable (the
    integrand is exponential times polynomial)."""
    t, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (t - 1.0)   # map to (-1, 0)
    w = 0.5 * w
    q = [(1.0 + t) ** 4, 4.0 * (1.0 + t) ** 3, 12.0 * (1.0 + t) ** 2,
         24.0 * (1.0 + t)]
    total = 0.0
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        xi = mode.xi
        bk = np.conj(mode.c1)
        term1 = sum(math.comb(2, m) * xi ** (2 * (2 - m))
                    * mode.eval(m + 1, t) * q[m] for m in range(3))
        term2 = t * sum(math.comb(3, m) * xi ** (2 * (3 - m))
                        * mode.eval(m, t) * q[m] for m in range(4))
        total += (np.sum(w * (3.0 * term1 + term2)) * bk).real
    return float(total)


# ---------------------------------------------------------------------------
# verification and the corrector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    ode_max: float       # max interior residual of the sixth-order mode ODE
    bc_value: float      # |w(0)|
    bc_slope: float      # |w'(0) - b_k|
    bc_third: float      # |w'''(0)|
    scale: float         # max_k |b_k| (1 + xi^3)


def residual_check(solution):
    """Interior and boundary residuals of the per-mode solutions.

    The interior residual applies the sixth-order operator symbolically to
    the exponential-polynomial form: conjugating (D^2 - xi^2)^3 by e^{xi t}
    gives (D^2 + 2 xi D)^3 acting on the quadratic polynomial part.
    """
    t = np.linspace(-10.0, 0.0, 256)
    ode_max = bc_value = bc_slope = bc_third = scale = 0.0
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        xi = mode.xi
        p = np.array([0.0j, mode.c1, mode.c2])
        for _ in range(3):
            p = P.polyadd(P.polyder(p, 2), 2.0 * xi * P.polyder(p, 1))
        res = np.abs(np.exp(xi * t) * P.polyval(t, p)) if len(p) else 0.0
        ode_max = max(ode_max, float(np.max(res)))
        bk = mode.c1
        bc_value = max(bc_value, abs(mode.eval(0, 0.0)))
        bc_slope = max(bc_slope, abs(mode.eval(1, 0.0) - bk))
        if xi > 0.0:
            bc_third = max(bc_third, abs(mode.eval(3, 0.0)))
        scale = max(scale, abs(bk) * (1.0 + xi ** 3))
    return ResidualReport(ode_max=float(ode_max), bc_value=float(bc_value),
                          bc_slope=float(bc_slope), bc_third=float(bc_third),
                          scale=float(scale))


def corrector_vhat(solution, trace, point, deriv_y=None):
    """Two-scale corrector V(y) * trace(xbar) at point = (xbar, y), where
    trace is the second-normal-derivative trace of a macroscopic solution.

    deriv_y optionally differentiates in the microscopic variable y."""
    xbar, y = point
    y = np.asarray(y, dtype=float)
    v = eval_V(solution, y[..., :-1], y[..., -1], deriv_y)
    return v * trace(xbar)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KReport:
    k_energy: float
    k_boundary: float
    k_testfunction: float
    per_mode: dict

    def agreement(self):
        """Largest pairwise relative disagreement among the three routes."""
        ref = 1.0 + abs(self.k_energy)
        return max(abs(self.k_energy - self.k_boundary),
                   abs(self.k_energy - self.k_testfunction),
                   abs(self.k_boundary - self.k_testfunction)) / ref

    def to_dict(self):
        modes = []
        for k in sorted(self.per_mode):
            xi = TWO_PI * math.hypot(*k)
            modes.append({"k": list(k), "xi": xi,
                          "contribution": self.per_mode[k]})
        return {"k_energy": self.k_energy,
                "k_boundary": self.k_boundary,
                "k_testfunction": self.k_testfunction,
                "modes": modes}


def compute_k_report(profile):
    """All three K routes for a profile, with the per-mode energy table."""
    solution = solve_cell(profile)
    ke, table = k_energy(solution)
    return KReport(k_energy=ke, k_boundary=k_boundary(solution),
                   k_testfunction=k_testfunction(solution),
                   per_mode=table)
