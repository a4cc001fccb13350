"""Independent oracles for the trihomog benchmark.

Nothing here imports trihomog.  Every value is computed by a different
method than the program uses:

* ``mode_eigenvalues`` -- roots of the characteristic determinant of the
  mode ODE (xi^2 - D^2)^3 w = (lambda - 1) w on (-1, 0), in the exponential
  basis e^{r t} of its six characteristic roots;
* ``k_cosine`` -- the closed form K = 5 sum_k |b_k|^2 (2 pi |k|)^3, which is
  20 pi^3 for b(y) = 1 + cos(2 pi (y - phi)) at every phase phi (the
  self-test rederives the 5 from the strip energy by quadrature);
* ``mode_poisson`` -- a collocation solve (scipy.integrate.solve_bvp) of
  (xi^2 - D^2)^3 w + w = f with the intermediate conditions;
* ``profile_l2_sq`` -- Gauss quadrature of f^2 over the oscillating domain.

The limit problems keep w(-1) = w'(-1) = w'''(-1) = 0 at the bottom.  At
t = 0 they impose w = w' = 0 and: w''' = 0 (intermediate), w'' = 0
(Dirichlet), or w''' = K_s w'' (strange term with the form lowered by
K_s |w''(0)|^2; K_s = K for the literal sign, -K for the flipped one).

Run ``python3 bench/oracles.py`` for the self-test (a few seconds).
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.integrate import quad, solve_bvp
from scipy.optimize import brentq

TOPS = ("intermediate", "dirichlet", "strange")
OMEGA = np.exp(2j * np.pi / 3.0)


def k_cosine():
    """K of b(y) = 1 + cos(2 pi (y - phi)): 5 * 2 * (1/2)^2 * (2 pi)^3."""
    return 20.0 * math.pi ** 3


# ---------------------------------------------------------------------------
# characteristic determinant of the mode ODE
# ---------------------------------------------------------------------------

def _roots(lam, xi):
    """The six roots of (xi^2 - r^2)^3 = lam - 1 for an array of lam, as
    columns (s0, -s0, s1, -s1, conj s1, -conj s1), and where s0 is
    imaginary.  With this order the determinant below is real (s0 real) or
    purely imaginary (s0 imaginary), and continuous in lam on each side of
    lam = 1 + xi^6."""
    c = np.cbrt(np.asarray(lam, dtype=float) - 1.0)
    imag = c > xi * xi
    s0 = np.where(imag, 1j * np.sqrt(np.abs(c - xi * xi)),
                  np.sqrt(np.abs(xi * xi - c)) + 0j)
    s1 = np.sqrt(xi * xi - c * OMEGA + 0j)
    return np.stack([s0, -s0, s1, -s1, np.conj(s1), -np.conj(s1)], -1), imag


def _char_det(lam, xi, top, ks):
    r, imag = _roots(lam, xi)                            # (n, 6)
    # each exponential is normalised at the end where it is largest, so the
    # matrix stays O(1) however far lam runs
    shift = np.where(r.real > 0, 0.0, -1.0)
    scale = 1.0 + np.max(np.abs(r), axis=-1, keepdims=True)

    def row(t, k):
        return (r / scale) ** k * np.exp(r * (t - shift))

    rows = [row(-1.0, 0), row(-1.0, 1), row(-1.0, 3),
            row(0.0, 0), row(0.0, 1)]
    if top == "intermediate":
        rows.append(row(0.0, 3))
    elif top == "dirichlet":
        rows.append(row(0.0, 2))
    else:
        rows.append(row(0.0, 3) - ks / scale * row(0.0, 2))
    det = np.linalg.det(np.stack(rows, axis=-2))
    return np.where(imag, det.imag, det.real)


def _scan_roots(f, grid, to_lam):
    vals = f(to_lam(grid))
    g = lambda s: float(f(to_lam(np.array([s])))[0])
    return [to_lam(brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15,
                          maxiter=200))
            for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:])
                                    < 0)]


def mode_eigenvalues(top, xi, count, ks=0.0):
    """The ``count`` lowest eigenvalues of one tangential mode.

    Above 1 + xi^6 the roots are scanned in kappa, lam = 1 + (xi^2 +
    kappa^2)^3, where successive eigenvalues sit about pi apart.  Below it
    (reached only when the strange term lowers the form, ks > 0) they are
    scanned in s0 = sqrt(xi^2 - cbrt(lam - 1)), geometrically out to
    lam ~ -1e30."""
    if top not in TOPS:
        raise ValueError("unknown top condition %r" % (top,))
    f = lambda lam: _char_det(lam, xi, top, ks)
    low = []
    if ks > 0:
        grid = np.geomspace(1e-3, 1e5, 6000)
        low = _scan_roots(f, grid, lambda s: 1.0 + (xi * xi - s * s) ** 3)
        # the basis degenerates at lam = 1 (triple roots), not an eigenvalue
        low = [lam for lam in low if abs(lam - 1.0) > 1e-6]
    grid = np.arange(1e-3, (count + 3) * math.pi, 5e-3)
    high = _scan_roots(f, grid, lambda k: 1.0 + (xi * xi + k * k) ** 3)
    lams = sorted(low + high)[:count]
    if len(lams) < count:
        raise RuntimeError("determinant scan found %d of %d roots"
                           % (len(lams), count))
    return lams


def limit_spectrum(top, count, cutoff, ks=0.0):
    """Merged lowest ``count`` entries (lambda, m, idx) over modes
    |m| <= cutoff, sorted like the program sorts them: (lambda, |m|, m)."""
    entries = []
    for m in range(cutoff + 1):
        lams = mode_eigenvalues(top, 2.0 * math.pi * m, count, ks)
        for idx, lam in enumerate(lams):
            entries.append((lam, m, idx))
            if m:
                entries.append((lam, -m, idx))
    entries.sort(key=lambda e: (e[0], abs(e[1]), e[1]))
    return entries[:count]


# ---------------------------------------------------------------------------
# collocation solve of the limit Poisson mode problem
# ---------------------------------------------------------------------------

def mode_poisson(xi, f, tol=1e-9):
    """Solution of (xi^2 - D^2)^3 w + w = f(t) on (-1, 0) with
    w = w' = w''' = 0 at both ends (intermediate conditions), by
    collocation.  Returns sol(t) -> array (6, npts) of w, w', ..., w^(5)."""
    c4, c2, c0 = 3.0 * xi ** 2, -3.0 * xi ** 4, xi ** 6 + 1.0

    def rhs(t, y):
        w6 = c4 * y[4] + c2 * y[2] + c0 * y[0] - f(t)
        return np.vstack([y[1], y[2], y[3], y[4], y[5], w6])

    def bc(ya, yb):
        return np.array([ya[0], ya[1], ya[3], yb[0], yb[1], yb[3]])

    t = np.linspace(-1.0, 0.0, 201)
    res = solve_bvp(rhs, bc, t, np.zeros((6, t.size)), tol=tol,
                    max_nodes=200000)
    if not res.success:
        raise RuntimeError("collocation failed: %s" % res.message)
    return res.sol


# ---------------------------------------------------------------------------
# oscillating domain
# ---------------------------------------------------------------------------

def cosine_profile_b(y, phase):
    return 1.0 + np.cos(2.0 * np.pi * (y - phase))


def profile_l2_sq(f, eps, alpha, phase, x_range=(0.0, 1.0), n=64):
    """int f(x, y)^2 over {x in x_range, -1 < y < eps^alpha b(x/eps)}, by
    tensor Gauss-Legendre quadrature, one panel per oscillation period."""
    g, wg = np.polynomial.legendre.leggauss(n)
    periods = max(1, round((x_range[1] - x_range[0]) / eps))
    edges = np.linspace(x_range[0], x_range[1], periods + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * (g + 1.0) + a
        wx = 0.5 * (b - a) * wg
        top = eps ** alpha * cosine_profile_b(x / eps, phase)
        y = -1.0 + 0.5 * (top + 1.0)[:, None] * (g[None, :] + 1.0)
        wy = 0.5 * (top + 1.0)[:, None] * wg[None, :]
        total += float(np.sum(wx[:, None] * wy * f(x[:, None], y) ** 2))
    return total


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _galerkin_eigs(top, xi, count, ks=0.0, degree=22):
    """Polynomial Ritz values of the mode form, a third method for the
    self-test: basis (t+1)^2 t^2 T_n(2t+1) (t^3 for Dirichlet), exact
    Gauss quadrature, dense generalized eigh."""
    from numpy.polynomial import Chebyshev, Polynomial
    from scipy.linalg import eigh
    tpow = 3 if top == "dirichlet" else 2
    env = (Polynomial([1.0, 1.0]) ** 2 * Polynomial([0.0, 1.0]) ** tpow
           ).convert(kind=Chebyshev, domain=[-1, 0])
    basis = [env * Chebyshev.basis(n, domain=[-1, 0]) for n in range(degree)]
    x, w = np.polynomial.legendre.leggauss(48)
    t, w = 0.5 * (x - 1.0), 0.5 * w
    D = [np.array([b.deriv(d)(t) if d else b(t) for b in basis])
         for d in range(4)]
    weights = (xi ** 6 + 1.0, 3.0 * xi ** 4, 3.0 * xi ** 2, 1.0)
    A = sum(c * (D[d] * w) @ D[d].T for d, c in enumerate(weights))
    if top == "strange":
        e = np.array([b.deriv(2)(0.0) for b in basis])
        A -= ks * np.outer(e, e)
    B = (D[0] * w) @ D[0].T
    return eigh(A, B, eigvals_only=True)[:count]


def self_test():
    checks = []
    # 1. determinant roots against polynomial Ritz values
    K = k_cosine()
    for top, ks in (("intermediate", 0.0), ("dirichlet", 0.0),
                    ("strange", -K)):
        for m in (0, 1):
            xi = 2.0 * math.pi * m
            det = np.array(mode_eigenvalues(top, xi, 2, ks))
            ritz = _galerkin_eigs(top, xi, 2, ks)
            checks.append(("det vs Ritz %s m=%d" % (top, m),
                           float(np.max(np.abs(det - ritz) / det)), 1e-7))
    # 2. literal runaway: on the half line the ground obeys lam - 1 ~ K^6;
    # doubling K must multiply it by 64 up to the finite-depth effect
    lo1 = mode_eigenvalues("strange", 0.0, 1, K)[0]
    lo2 = mode_eigenvalues("strange", 0.0, 1, 2.0 * K)[0]
    checks.append(("literal K^6 scaling", abs((lo2 - 1) / (lo1 - 1) / 64 - 1),
                   1e-9))
    # interlacing: the literal K lowers exactly one eigenvalue per mode below
    # the unperturbed ground
    lit = mode_eigenvalues("strange", 0.0, 2, K)
    base = mode_eigenvalues("intermediate", 0.0, 1)[0]
    checks.append(("literal interlacing", float(not (lit[0] < base
                                                     < lit[1])), 0.5))
    # 3. the universal constant 5 in K, from the decaying strip solution
    # w = e^{xi t}(c0 + c1 t + c2 t^2) with w(0)=0, w'(0)=1, w'''(0)=0
    xi = 2.0 * math.pi
    M = np.array([[1, 0, 0], [xi, 1, 0], [xi ** 3, 3 * xi ** 2, 6 * xi]])
    c = np.linalg.solve(M, [0.0, 1.0, 0.0])

    def deriv(m, t):
        p = np.array([c[0] + c[1] * t + c[2] * t * t, c[1] + 2 * c[2] * t,
                      2 * c[2]])
        return math.exp(xi * t) * sum(math.comb(m, l) * xi ** (m - l) * p[l]
                                      for l in range(min(m, 2) + 1))

    energy = quad(lambda t: sum(math.comb(3, m) * xi ** (6 - 2 * m)
                                * deriv(m, t) ** 2 for m in range(4)),
                  -40.0 / xi, 0.0, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    checks.append(("universal constant 5", abs(energy / xi ** 3 - 5.0) / 5.0,
                   1e-10))
    # K of the cosine is the strip energy of its two modes, |b_{+-1}| = 1/2
    checks.append(("K = 20 pi^3 from strip energies",
                   abs(2 * 0.25 * energy - k_cosine()) / k_cosine(), 1e-10))
    # 4. collocation against a manufactured solution w = t^4 (1+t)^4
    from numpy.polynomial import polynomial as P
    for m in (0, 1):
        xi = 2.0 * math.pi * m
        w = P.polymul(P.polypow([0.0, 1.0], 4), P.polypow([1.0, 1.0], 4))
        op = [xi ** 6 + 1.0, 0.0, -3.0 * xi ** 4, 0.0, 3.0 * xi ** 2, 0.0,
              -1.0]
        f_c = np.zeros(1)
        for d, cd in enumerate(op):
            f_c = P.polyadd(f_c, cd * (P.polyder(w, d) if d else w))
        sol = mode_poisson(xi, lambda t: P.polyval(t, f_c))
        ts = np.linspace(-1.0, 0.0, 51)
        err = np.max(np.abs(sol(ts)[0] - P.polyval(ts, w)))
        checks.append(("collocation manufactured m=%d" % m,
                       float(err / np.max(np.abs(P.polyval(ts, w)))), 1e-8))
    # 5. domain quadrature: area of Omega_eps is 1 + eps^alpha
    area = profile_l2_sq(lambda x, y: np.ones_like(x * y), 1 / 8, 2.0, 0.3)
    checks.append(("domain area", abs(area - (1.0 + (1 / 8) ** 2)), 1e-12))
    ok = True
    for name, err, tol in checks:
        good = err <= tol
        ok &= good
        print("%-32s %s  %.2e (tol %.0e)" % (name, "ok  " if good else "FAIL",
                                             err, tol))
    return ok


if __name__ == "__main__":
    sys.exit(0 if self_test() else 1)
