"""Limit problems of the oscillating-boundary triharmonic operator, solved
by Fourier-mode reduction.

On the unit-torus strip, substituting u = e^{i xi xbar} w(t) with xi = 2 pi m
into the form integral of D^3 u : D^3 v + u v reduces the 2D limit problem to
a family of sixth-order ODE problems on (-1, 0):

    a_xi(w, v) = int w''' v''' + 3 xi^2 w'' v'' + 3 xi^4 w' v'
                 + (xi^6 + 1) w v dt.

Three boundary conditions at t = 0 realize the three limit regimes: w'''
natural (intermediate), the same space with the strange-term rank-one update
-K w''(0) v''(0) (natural condition w'''(0) - K w''(0) = 0), and the
constrained w''(0) = 0 (Dirichlet on the flat line).  At t = -1 every regime
keeps the intermediate condition w(-1) = w'(-1) = 0.

The strange term is implemented with the sign written above, which lowers
the form; large K then drives branches of the spectrum far below 1 (the form
is only bounded below by roughly -K^3).  A sign flag allows +K runs so the
oscillating-domain solver can adjudicate the physical sign empirically;
nothing here flips it silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .hermite import (graded_mesh, build_space_1d, assemble_quadratic,
                      quadratic_energy, evaluate_fe, assemble_rhs)
from .numerics import (EigenRequest, EquilibratedLU, solve_smallest,
                       solve_linear)

LIMIT_KINDS = ("intermediate", "strange", "dirichlet")

DEFAULT_ELEMENTS = 64
DEFAULT_CUTOFF = 8


class LimitError(ValueError):
    pass


@dataclass(frozen=True)
class LimitBC:
    """Boundary condition at the oscillating side of the limit problem.
    ``K`` is meaningful only for kind 'strange'; it enters the form as
    -K |w''(0)|^2 unless ``flip_sign`` asks for the +K variant (the
    sign-exploration switch)."""
    kind: str
    K: float = 0.0
    flip_sign: bool = False

    def __post_init__(self):
        if self.kind not in LIMIT_KINDS:
            raise LimitError("unknown limit kind %r" % (self.kind,))
        if self.kind != "strange" and self.K != 0.0:
            raise LimitError("K is only meaningful for the strange-term case")
        if self.K < 0:
            raise LimitError("negative K; use flip_sign for the +K variant")

    def signed_k(self):
        """Coefficient of the rank-one term as it enters the stiffness:
        the form gets MINUS this times |w''(0)|^2."""
        return -self.K if self.flip_sign else self.K


def limit_space(bc, n_elements=DEFAULT_ELEMENTS, mesh=None):
    """1D quintic Hermite space on (-1, 0), graded toward the oscillating
    side t = 0; top constraint set by the regime.  An explicit mesh
    overrides the default grading (matched-resolution comparisons with the
    oscillating-domain solver)."""
    top = "clamped2" if bc.kind == "dirichlet" else "clamped1"
    if mesh is None:
        mesh = graded_mesh(n_elements, 0.75, -1.0, 0.0)
    return build_space_1d(mesh, bc_bottom="clamped1", bc_top=top)


def stiffness_weights(xi):
    """Derivative-pair weights of a_xi: diag(xi^6 + 1, 3 xi^4, 3 xi^2, 1)."""
    return np.diag([xi ** 6 + 1.0, 3.0 * xi ** 4, 3.0 * xi ** 2, 1.0])


MASS_WEIGHTS = np.zeros((4, 4))
MASS_WEIGHTS[0, 0] = 1.0


def mode_form(xi, space):
    """Stiffness and mass matrices of the mode form a_xi on the space."""
    S = assemble_quadratic(space, stiffness_weights(xi))
    M = assemble_quadratic(space, MASS_WEIGHTS)
    return S, M


def trace_dof(space, order=2):
    """Free index of the derivative-``order`` degree of freedom at t = 0,
    or -1 if it is constrained."""
    full = 3 * space.vmesh.n_elements + order
    return int(space.full_to_free[full])


def apply_strange_term(stiffness, K, space):
    """Rank-one update stiffness - K e e^T, where e extracts w''(0).  K here
    is the signed coefficient (LimitBC.signed_k)."""
    idx = trace_dof(space)
    if idx < 0:
        raise LimitError("w''(0) degree of freedom is constrained; "
                         "strange term needs a clamped1 top")
    S = stiffness.tolil(copy=True)
    S[idx, idx] = S[idx, idx] - K
    return S.tocsr()


def _mode_matrices(bc, xi, space):
    S, M = mode_form(xi, space)
    if bc.kind == "strange" and bc.K != 0.0:
        S = apply_strange_term(S, bc.signed_k(), space)
    return S, M


def _mode_energy(bc, xi, space, x):
    ea = quadratic_energy(space, stiffness_weights(xi), x)
    if bc.kind == "strange" and bc.K != 0.0:
        idx = trace_dof(space)
        ea -= bc.signed_k() * x[idx] ** 2
    return ea, quadratic_energy(space, MASS_WEIGHTS, x)


def _resolvent_entry(S0, M, idx, lam):
    """x = (S0 - lam M)^{-1} e_idx and its idx entry, via an equilibrated
    sparse factorization (S0 - lam M is positive definite below the
    spectrum)."""
    fac = EquilibratedLU((S0 - lam * M).tocsc())
    rhs = np.zeros(S0.shape[0])
    rhs[idx] = 1.0
    x = fac.d * fac.solve(fac.d * rhs)
    return x, float(x[idx])


def _secular_bottom(S0, M, K, idx, lam1):
    """Lowest eigenvalue of the pencil (S0 - K e e^T, M), K > 0.

    Rank-one theory: for lam below the unperturbed spectrum the eigenvalue
    equation collapses to the scalar secular equation 1/f(lam) = K with
    f(lam) = e'(S0 - lam M)^{-1} e, and f increases from 0 at -inf to +inf
    at the pole lam1, so the root exists, is unique, and brackets cleanly no
    matter how far the strange term throws it.  Returns (eigenvalue,
    eigenvector) or None when the root is numerically indistinguishable
    from lam1 (tiny K; the regular cluster solve covers it)."""
    def h(lam):
        _, fval = _resolvent_entry(S0, M, idx, lam)
        if fval <= 0:
            raise LimitError("secular function lost positivity; "
                             "shift past the first pole")
        return 1.0 / fval - K
    gap = max(1e-6 * abs(lam1), 1e-3)
    hi = lam1 - gap
    while h(hi) >= 0:
        gap *= 1e-3
        if gap < 1e-12 * abs(lam1):
            return None
        hi = lam1 - gap
    step = max(1.0, 0.1 * abs(lam1))
    lo = hi - step
    while h(lo) < 0:
        step *= 8.0
        lo = hi - step
        if step > 1e20:
            raise LimitError("failed to bracket the strange-term bottom")
    lam = brentq(h, lo, hi, rtol=1e-14)
    vec, _ = _resolvent_entry(S0, M, idx, lam)
    return lam, vec


def solve_mode(bc, m, count, space):
    """Lowest eigenpairs of the mode-m reduced problem.

    When the strange term lowers the form, the rank-one structure pushes at
    most one eigenvalue per mode below the interlacing bound, possibly very
    far (the form is only bounded below by a large negative power of K).  A
    single shift cannot resolve both that runaway and the regular cluster,
    so this solves twice, once far below for the runaway and once at the
    standard shift for the rest, and merges."""
    xi = 2.0 * np.pi * abs(m)
    S0, M = mode_form(xi, space)
    S = S0
    if bc.kind == "strange" and bc.K != 0.0:
        S = apply_strange_term(S0, bc.signed_k(), space)
    Sc, Mc = S.tocsc(), M.tocsc()
    count = min(count, space.n_free)
    energy = lambda x: _mode_energy(bc, xi, space, x)
    # without the K-term the form gives lambda >= xi^6 + 1 outright, and the
    # rank-one interlacing keeps every eigenvalue but the first above the
    # previous unperturbed one, so this shift sits below everything the
    # regular cluster can reach while staying close to it
    base_shift = xi ** 6 + 0.5
    req = EigenRequest(count=count, shift=base_shift)
    lam_u, vec_u = solve_smallest(Sc, Mc, req, energy=energy)
    if not (bc.kind == "strange" and bc.signed_k() > 0.0):
        return lam_u, vec_u
    # the lowering sign can throw exactly one eigenvalue per mode far below
    # the cluster; chase it through the rank-one secular equation
    lam1, _ = solve_smallest(S0.tocsc(), Mc,
                             EigenRequest(count=1, shift=base_shift))
    bottom = _secular_bottom(S0, M, bc.signed_k(), trace_dof(space),
                             float(lam1[0]))
    if bottom is None:
        return lam_u, vec_u
    lam_b, vec_b = bottom
    vec_b = vec_b / np.sqrt(vec_b @ (Mc @ vec_b))
    keep = [j for j in range(len(lam_u))
            if abs(vec_b @ (Mc @ vec_u[:, j])) < 0.5]
    lam = np.concatenate([[lam_b], lam_u[keep]])[:count]
    vec = np.hstack([vec_b[:, None], vec_u[:, keep]])[:, :count]
    order = np.argsort(lam)
    return lam[order], vec[:, order]


@dataclass(frozen=True)
class LimitSpectrum:
    """Merged low spectrum of the 2D limit problem: entries are
    (eigenvalue, tangential mode m, within-mode index), sorted by
    (eigenvalue, |m|, m)."""
    bc: LimitBC
    entries: tuple
    cutoff: int
    n_elements: int

    def eigenvalues(self):
        return np.array([e[0] for e in self.entries])

    def to_dict(self):
        return {"bc": self.bc.kind, "K": self.bc.K,
                "flip_sign": self.bc.flip_sign,
                "cutoff": self.cutoff, "n_elements": self.n_elements,
                "eigs": [{"lambda": lam, "m": m, "idx": idx}
                         for (lam, m, idx) in self.entries]}


def save_spectrum(spectrum, path):
    with open(path, "w") as fh:
        json.dump(spectrum.to_dict(), fh, indent=1)
        fh.write("\n")


def solve_limit_spectrum(bc, count=10, cutoff=DEFAULT_CUTOFF,
                         n_elements=DEFAULT_ELEMENTS, mesh=None):
    """Low spectrum of the limit operator: per tangential mode |m| <= cutoff
    solve the reduced eigenproblem, duplicate m != 0 entries onto -m (exact
    mode symmetry of the real form), merge, and keep the lowest ``count``."""
    if count < 1:
        raise LimitError("count must be positive")
    space = limit_space(bc, n_elements, mesh=mesh)
    entries = []
    for m in range(cutoff + 1):
        k = min(count, space.n_free)
        lam, _ = solve_mode(bc, m, k, space)
        for idx in range(len(lam)):
            entries.append((float(lam[idx]), m, idx))
            if m > 0:
                entries.append((float(lam[idx]), -m, idx))
    entries.sort(key=lambda e: (e[0], abs(e[1]), e[1]))
    return LimitSpectrum(bc=bc, entries=tuple(entries[:count]),
                         cutoff=cutoff, n_elements=n_elements)


@dataclass(frozen=True)
class LimitPoissonSolution:
    """Per-mode Galerkin solutions of the limit Poisson problem and the
    second-normal-derivative trace at t = 0 they induce."""
    bc: LimitBC
    space: object
    modes: dict            # m -> complex free-dof vector
    trace_coeffs: dict     # m -> w_m''(0)

    def trace(self, xbar):
        """xbar -> sum_m w_m''(0) e^{2 pi i m xbar} (the trace feeding the
        corrector V-hat); real for conjugate-symmetric data."""
        xbar = np.asarray(xbar, dtype=float)
        out = np.zeros(xbar.shape, dtype=complex)
        for m, c in self.trace_coeffs.items():
            out = out + c * np.exp(2j * np.pi * m * xbar)
        if all((-m) in self.trace_coeffs for m in self.trace_coeffs):
            sym = all(np.isclose(np.conj(self.trace_coeffs[-m]),
                                 self.trace_coeffs[m]) for m in
                      self.trace_coeffs)
            if sym:
                return out.real
        return out

    def eval_mode(self, m, t, deriv=0):
        x = self.modes[m]
        re = evaluate_fe(self.space, x.real, t, (deriv,))
        if np.iscomplexobj(x) and np.any(x.imag):
            return re + 1j * evaluate_fe(self.space, x.imag, t, (deriv,))
        return re


def solve_limit_poisson(bc, f_modes, n_elements=DEFAULT_ELEMENTS,
                        mesh=None):
    """Solve the limit Poisson problem for a right side given by tangential
    modes: f(xbar, t) = sum_m f_m(t) e^{2 pi i m xbar}.  ``f_modes`` maps m
    to a callable t -> complex amplitude.  Returns per-mode solutions and
    the w''(0) trace."""
    space = limit_space(bc, n_elements, mesh=mesh)
    modes = {}
    traces = {}
    w2 = trace_dof(space)
    for m, f in f_modes.items():
        xi = 2.0 * np.pi * abs(m)
        S, _ = _mode_matrices(bc, xi, space)
        S = S.tocsc()
        rhs_re = assemble_rhs(space, lambda t: float(np.real(f(t))))
        rhs_im = assemble_rhs(space, lambda t: float(np.imag(f(t))))
        x = solve_linear(S, rhs_re).astype(complex)
        if np.any(rhs_im):
            x = x + 1j * solve_linear(S, rhs_im)
        modes[m] = x
        traces[m] = x[w2] if w2 >= 0 else 0.0
    return LimitPoissonSolution(bc=bc, space=space, modes=modes,
                                trace_coeffs=traces)
