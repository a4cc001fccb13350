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
is only bounded below by about -c K^6: a trace layer of width ~1/K gives
it, and at K = 620.13 the runaway reads -8.87e14, about -0.0156 K^6).  A
sign flag allows +K runs so the oscillating-domain solver can adjudicate the
physical sign empirically; nothing here flips it silently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.optimize import brentq

from .hermite import (graded_mesh, build_space_1d, assemble_quadratic,
                      quadratic_energy, evaluate_fe, assemble_rhs, is_integer)
from .numerics import (SolverError, solve_smallest, solve_linear,
                       walk_spectrum)

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
        if not self.K < np.inf:
            raise LimitError("K must be finite, got %r" % (self.K,))

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
        mesh = graded_mesh(n_elements)
    return build_space_1d(mesh, bc_bottom="clamped1", bc_top=top)


def stiffness_weights(xi):
    """Derivative weights (xi^6 + 1, 3 xi^4, 3 xi^2, 1) of a_xi."""
    return np.array([xi ** 6 + 1.0, 3.0 * xi ** 4, 3.0 * xi ** 2, 1.0])


MASS_WEIGHTS = np.array([1.0, 0.0, 0.0, 0.0])


def mode_stiffness(xi, space):
    """Stiffness matrix of the mode form a_xi on the space; its mass matrix,
    the same for every mode, is assemble_quadratic(space, MASS_WEIGHTS)."""
    return assemble_quadratic(space, stiffness_weights(xi))


def trace_dof(space):
    """Free index of the w''(0) degree of freedom, or -1 if it is
    constrained."""
    return int(space.full_to_free[3 * space.vmesh.n_elements + 2])


def apply_strange_term(stiffness, K, space):
    """Rank-one update stiffness - K e e^T, where e extracts w''(0), as a
    copy of the CSR matrix with its one diagonal entry updated in place
    (the assembled columns are sorted, and the diagonal is stored).  K here
    is the signed coefficient (LimitBC.signed_k)."""
    idx = trace_dof(space)
    if idx < 0:
        raise LimitError("w''(0) degree of freedom is constrained; "
                         "strange term needs a clamped1 top")
    S = stiffness.copy()
    start, stop = S.indptr[idx], S.indptr[idx + 1]
    S.data[start + np.searchsorted(S.indices[start:stop], idx)] -= K
    return S


def _with_strange_term(bc, S0, space):
    """The stiffness of the regime: S0 with the strange term, or S0 itself
    without one."""
    if bc.kind == "strange" and bc.K != 0.0:
        return apply_strange_term(S0, bc.signed_k(), space)
    return S0


def _mode_energy(bc, xi, space, x):
    ea = quadratic_energy(space, stiffness_weights(xi), x)
    if bc.kind == "strange" and bc.K != 0.0:
        idx = trace_dof(space)
        ea -= bc.signed_k() * x[idx] ** 2
    return ea, quadratic_energy(space, MASS_WEIGHTS, x)


def _upper_band(A):
    """A symmetric sparse matrix in LAPACK upper banded storage,
    ab[u + i - j, j] = A[i, j] for i <= j, with u its half bandwidth (5 on
    the 1D spaces: an element couples six consecutive dofs)."""
    coo = A.tocoo()
    upper = coo.row <= coo.col
    row, col = coo.row[upper], coo.col[upper]
    u = int(np.max(col - row))
    ab = np.zeros((u + 1, A.shape[0]))
    ab[u + row - col, col] = coo.data[upper]
    return ab


def _resolvent_entry(bands, idx, lam):
    """x = (S0 - lam M)^{-1} e_idx and its idx entry, via a banded Cholesky
    factorization of S0 - lam M (positive definite below the spectrum);
    ``bands`` holds S0 and M in upper banded storage (_upper_band)."""
    S0b, Mb = bands
    try:
        cb = cholesky_banded(S0b - lam * Mb, check_finite=False)
    except LinAlgError:
        raise LimitError("secular function lost positivity; "
                         "shift past the first pole") from None
    rhs = np.zeros(S0b.shape[1])
    rhs[idx] = 1.0
    x = cho_solve_banded((cb, False), rhs, check_finite=False)
    return x, float(x[idx])


def _secular(bands, K, idx, lam):
    """h(lam) = 1/f(lam) - K, f(lam) = e'(S0 - lam M)^{-1} e, the secular
    function of the pencil (S0 - K e e^T, M), K > 0, at a lam below the
    spectrum of (S0, M); ``bands`` are S0 and M in upper banded storage.

    There S0 - lam M is positive definite, and S0 - K e e^T - lam M, a
    rank-one downdate of it with determinant det(S0 - lam M)(1 - K f), has
    one negative eigenvalue when h(lam) < 0 and none otherwise.  By
    Sylvester's law of inertia the pencil then has exactly one eigenvalue
    below lam when h(lam) < 0 and none when h(lam) >= 0 (rank-one
    interlacing: Golub, SIAM Rev. 15, 1973; Bunch, Nielsen and Sorensen,
    Numer. Math. 31, 1978)."""
    _, fval = _resolvent_entry(bands, idx, lam)
    if fval <= 0:
        raise LimitError("secular function lost positivity; "
                         "shift past the first pole")
    return 1.0 / fval - K


def _secular_bottom(bands, K, idx, shift):
    """Lowest eigenvalue of the pencil (S0 - K e e^T, M), K > 0, when it
    lies below ``shift``, a point below the spectrum of (S0, M); ``bands``
    are S0 and M in upper banded storage.

    For lam below the unperturbed spectrum the eigenvalue equation
    collapses to the scalar secular equation h(lam) = 0 (``_secular``), and
    f increases from 0 at -inf to +inf at the first pole, so the root
    exists, is unique, and brackets cleanly downward from the shift no
    matter how far the strange term throws it.  Returns (eigenvalue,
    eigenvector), or None when h(shift) >= 0: the root then lies above the
    shift, where the caller's cluster solve finds it."""
    h = functools.partial(_secular, bands, K, idx)
    if h(shift) >= 0:
        return None
    step = max(1.0, 0.1 * abs(shift))
    lo = shift - step
    while h(lo) < 0:
        step *= 8.0
        lo = shift - step
        if step > 1e20:
            raise LimitError("failed to bracket the strange-term bottom")
    lam = brentq(h, lo, shift, rtol=1e-14)
    vec, _ = _resolvent_entry(bands, idx, lam)
    return lam, vec


def solve_mode(bc, m, count, space, matrices, stats):
    """Lowest eigenpairs (values, vectors) of the mode-m reduced problem.
    ``matrices`` are the regime's stiffness S (_with_strange_term), the
    mass M and, for the literal -K sign, the upper banded forms of the
    mode's S0 (mode_stiffness) and of M that its secular equation reads
    (None otherwise), which the caller builds once for the mode's secular
    sign check, if it takes one, and its solve.  ``stats``, a dict,
    receives the solver record of the cluster solve
    (numerics.solve_smallest).

    Every eigenvalue but a runaway is the Rayleigh quotient of its
    eigenvector through the quadrature energies, which avoid the h^{-6}
    cancellation of the matrix form.  When the strange term lowers the
    form, the rank-one structure pushes at most one eigenvalue per mode
    below the interlacing bound, possibly very far (the form is only
    bounded below by about -c K^6).  A single shift cannot resolve both
    that runaway and the regular cluster, so the runaway below the shift
    comes from the secular equation (_secular_bottom), the root of the
    assembled matrices, and is merged with the cluster."""
    xi = 2.0 * np.pi * abs(m)
    S, M, bands = matrices
    Sc, Mc = S.tocsc(), M.tocsc()
    count = min(count, space.n_free)
    # without the K-term the form gives lambda >= xi^6 + 1 outright, and the
    # rank-one interlacing keeps every eigenvalue but the first above the
    # previous unperturbed one, so this shift sits below everything the
    # regular cluster can reach while staying close to it
    base_shift = xi ** 6 + 0.5
    _, vec_u = solve_smallest(Sc, Mc, count, base_shift, stats=stats)
    lam_u = np.empty(vec_u.shape[1])
    for j in range(len(lam_u)):
        ea, eb = _mode_energy(bc, xi, space, vec_u[:, j])
        if eb <= 0:
            raise SolverError("non-positive mass energy in Rayleigh quotient")
        lam_u[j] = ea / eb
    order = np.argsort(lam_u)
    lam_u, vec_u = lam_u[order], vec_u[:, order]
    if not (bc.kind == "strange" and bc.signed_k() > 0.0):
        return lam_u, vec_u
    # the lowering sign can throw one eigenvalue per mode below the shift;
    # the floor xi^6 + 1 of S0 keeps the shift below the spectrum of S0
    bottom = _secular_bottom(bands, bc.signed_k(), trace_dof(space),
                             base_shift)
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
    eigenvalue, ties in walk order (|m|, index, -m before m).  ``modes``
    holds one numerics.walk_spectrum record per mode m = 0..cutoff,
    labelled by m (``kept`` counts m and -m together); a solved mode's
    record also holds the solver record of numerics.solve_smallest (n, nnz,
    fill, factor, move, refine_steps, block_solves, factorizations, start,
    rounds, residual, gate)."""
    bc: LimitBC
    entries: tuple
    cutoff: int
    n_elements: int
    modes: tuple

    def eigenvalues(self):
        return np.array([e[0] for e in self.entries])

    def to_dict(self):
        return {"bc": self.bc.kind, "K": self.bc.K,
                "flip_sign": self.bc.flip_sign,
                "cutoff": self.cutoff, "n_elements": self.n_elements,
                "eigs": [{"lambda": lam, "m": m, "idx": idx}
                         for (lam, m, idx) in self.entries],
                "modes": list(self.modes)}


def check_spectrum_args(count, cutoff, n_elements):
    """The rules solve_limit_spectrum enforces on its counts: integers,
    count >= 1, cutoff >= 0, and n_elements >= 2 (the graded mesh's
    minimum); LimitError when one is broken."""
    for name, value in (("count", count), ("cutoff", cutoff),
                        ("n_elements", n_elements)):
        if not is_integer(value):
            raise LimitError("%s must be an integer, got %r" % (name, value))
    if count < 1:
        raise LimitError("count must be positive")
    if cutoff < 0:
        raise LimitError("cutoff must be >= 0, got %d" % cutoff)
    if n_elements < 2:
        raise LimitError("need >= 2 elements, got %d" % n_elements)


def solve_limit_spectrum(bc, count=10, cutoff=DEFAULT_CUTOFF,
                         n_elements=DEFAULT_ELEMENTS, mesh=None):
    """Low spectrum of the limit operator: per tangential mode |m| <= cutoff
    the reduced eigenproblem, m != 0 entries duplicated onto -m (exact mode
    symmetry of the real form), merged, and the lowest ``count`` kept.  The
    modes m = 0, 1, ..., cutoff are the parts of ``numerics.walk_spectrum``
    (multiplicity 2 for m > 0, the copies taken as -m, then m), which skips
    a mode certified empty; ``modes`` of the result holds its records.  A
    mode's floor is xi^6 + 1: every term of a_xi is non-negative and the
    last is (xi^6 + 1) |w|^2, so a_xi(w, w) >= (xi^6 + 1) |w|^2, and the +K
    strange term only adds to it.  The literal -K sign lowers the form
    without bound and has no floor, but its S0 has that floor, so below it
    the sign of the secular function h counts the mode's values under the
    check shift (``_secular``): h(s) >= 0 certifies the mode (rule
    "secular"), and a mode with h(s) < 0, or checked at a shift above its
    S0 floor, where the sign decides nothing, is solved.  The same floor
    puts solve_mode's shift xi^6 + 0.5 below the spectrum of S0, where the
    secular bracket of its runaway starts.  A mode with a floor is
    certified by it or solved, and one its floor certifies assembles no
    stiffness."""
    check_spectrum_args(count, cutoff, n_elements)
    space = limit_space(bc, n_elements, mesh=mesh)
    k = min(count, space.n_free)
    K = bc.signed_k()
    # the mass matrix is the same for every mode, and so is its banded form,
    # which the literal sign's secular function reads
    M = assemble_quadratic(space, MASS_WEIGHTS)
    Mb = _upper_band(M) if K > 0 else None

    def part(m):
        xi = 2.0 * np.pi * m
        floor = xi ** 6 + 1.0

        # the mode's matrices are built once, for its sign check (a mode of
        # the literal sign) and its solve, and not at all for a mode its
        # floor certifies
        @functools.cache
        def matrices():
            S0 = mode_stiffness(xi, space)
            bands = None if Mb is None else (_upper_band(S0), Mb)
            return _with_strange_term(bc, S0, space), M, bands

        def certify(shift):
            if shift < floor and _secular(matrices()[2], K, trace_dof(space),
                                          shift) >= 0:
                return "secular"
            return None

        def solve():
            stats = {}
            return solve_mode(bc, m, k, space, matrices(), stats)[0], stats
        if K > 0:
            return {"m": m}, certify, None, 2 if m else 1, solve
        return {"m": m}, None, floor, 2 if m else 1, solve

    taken, modes = walk_spectrum((part(m) for m in range(cutoff + 1)), count)
    entries = tuple((value, m if c else -m, idx)
                    for value, m, idx, c in taken)
    return LimitSpectrum(bc=bc, entries=entries, cutoff=cutoff,
                         n_elements=n_elements, modes=tuple(modes))


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
        S = _with_strange_term(bc, mode_stiffness(xi, space), space).tocsc()
        rhs_re = assemble_rhs(space, lambda t: float(np.real(f(t))))
        rhs_im = assemble_rhs(space, lambda t: float(np.imag(f(t))))
        x = solve_linear(S, rhs_re + 1j * rhs_im)
        modes[m] = x
        traces[m] = x[w2] if w2 >= 0 else 0.0
    return LimitPoissonSolution(bc=bc, space=space, modes=modes,
                                trace_coeffs=traces)
