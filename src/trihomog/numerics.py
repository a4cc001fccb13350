"""Symmetric sparse eigenvalue and linear solves tuned for sixth-order
stiffness pencils.

Raw quintic-Hermite degrees of freedom mix values and second derivatives, so
stiffness matrices carry a dynamic range of h^{-6} across the diagonal and
the pencil's top eigenvalues reach 1e13 and beyond.  Two consequences drive
the design here:

* Dense eigh carries an absolute error of order eps * lambda_max, which
  wrecks the small eigenvalues we care about.  Shift-invert Lanczos around a
  shift below the spectrum does not, so it is the primary path at every
  problem size (dense solves only seed tiny problems).
* Quadratic forms x' A x evaluated through the assembled matrix cancel at
  the eps * h^{-6} level.  When the caller can evaluate the energies by
  element-level quadrature of the finite-element derivatives (cancellation
  only eps * h^{-3}), it passes that functional in and final eigenvalues are
  Rayleigh quotients through it; stationarity makes the eigenvector error
  enter only quadratically.

Every solve goes through one factorization, ``EquilibratedLU``: symmetric
Jacobi equilibration A -> D A D with D = diag(A)^{-1/2} (a congruence that
leaves pencil eigenvalues invariant), then one sparse LU of the shifted,
equilibrated matrix.  The eigensolver's Lanczos seed, its subspace iteration
and the linear solves all reuse that factor.  Convergence is certified in
the shift-inverted metric,

    || (A - sigma B)^{-1} (A x - lambda B x) || <= EIGEN_TOL * ||x||,

because the literal residual ||A x - lambda B x|| is dominated by
eps * lambda_max * ||x|| rounding noise for these pencils no matter how
accurate the pair is.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla


class SolverError(RuntimeError):
    pass


EIGEN_TOL = 5e-5           # shift-inverted residual gate (with its floor)
SEED = 20260824            # Lanczos start vector and residual-floor probe


@dataclass(frozen=True)
class EigenRequest:
    """Parameters of one generalized eigenvalue solve A x = lambda B x."""
    count: int
    shift: float = 0.5


def equilibration(A):
    """Diagonal scaling d with d_i = |A_ii|^{-1/2}; non-positive diagonal
    entries fall back to unit scaling entrywise."""
    d = np.asarray(A.diagonal()).real.astype(float).copy()
    bad = ~(d > 0)
    d[bad] = 1.0
    return 1.0 / np.sqrt(d)


class EquilibratedLU:
    """Sparse LU of the equilibrated, shifted matrix M = As - sigma Bs, where
    As = D A D, Bs = D B D and D = diag(d) = equilibration(A) (the unshifted
    A).  Without B, M = As.  ``solve`` works in equilibrated variables:
    (A - sigma B)^{-1} b = d * solve(d * b).  When the factorization of a
    pencil is singular, the shift is nudged downward and retried; ``sigma``
    is the shift actually factored."""

    def __init__(self, A, B=None, shift=0.0):
        self.d = equilibration(A)
        D = sparse.diags(self.d)
        self.As = (D @ A @ D).tocsc()
        self.Bs = None if B is None else (D @ B @ D).tocsc()
        self.sigma = shift
        last = None
        for attempt in range(1 if B is None else 4):
            self.matrix = (self.As if B is None
                           else (self.As - self.sigma * self.Bs).tocsc())
            try:
                self.lu = spla.splu(self.matrix)
                return
            except RuntimeError as err:
                last = err
                self.sigma -= 0.1 * (attempt + 1)  # nudge off a singular shift
        raise SolverError("shifted factorization failed: %s" % last)

    def solve(self, b):
        return self.lu.solve(b)

    def solve_refined(self, b):
        """Solve with one step of iterative refinement; recovers most of the
        accuracy lost to the h^{-6} dynamic range of the matrix."""
        x = self.lu.solve(b)
        x += self.lu.solve(b - self.matrix @ x)
        return x

    def operator(self):
        """M^{-1} as a LinearOperator: the shift-invert ``OPinv`` of eigsh,
        so ARPACK reuses this factor instead of making its own."""
        dtype = self.matrix.dtype
        return spla.LinearOperator(
            self.matrix.shape, dtype=dtype,
            matvec=lambda x: self.lu.solve(np.asarray(x).astype(dtype)))


def count_below(A, B, shift):
    """Number of eigenvalues of the Hermitian pencil A x = lambda B x (B
    positive definite) below ``shift``, or None when it cannot be read off.

    Sylvester's law of inertia: A - shift B has as many negative eigenvalues
    as the pencil has eigenvalues below the shift, and so has the congruent
    equilibrated matrix Ms = D (A - shift B) D.  A factorization of Ms with
    a symmetric permutation and no pivoting, Ms = P' L U P with
    U = diag(U) L^H, keeps that inertia in the pivots, so the count is the
    number of negative Re U_ii (spectrum slicing, Parlett, The Symmetric
    Eigenvalue Problem).  None when the factorization fails, when SuperLU
    pivoted off the diagonal after all (perm_r != perm_c), or when a pivot
    is too close to zero for its sign to mean anything: within
    10 n eps max |Ms_ij|, the rounding that forming Ms and factoring it
    without pivoting can leave in a pivot of a definite matrix."""
    D = sparse.diags(equilibration(A))
    M = (D @ A @ D - shift * (D @ B @ D)).tocsc()
    try:
        lu = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    pivots = lu.U.diagonal().real
    tiny = 10 * M.shape[0] * np.finfo(float).eps * abs(M).max()
    if np.any(np.abs(pivots) <= tiny):
        return None
    return int(np.count_nonzero(pivots < 0))


def solve_smallest(A, B, request, energy=None):
    """The ``request.count`` eigenpairs of A x = lambda B x nearest (from
    above) the shift, i.e. the smallest ones when the shift sits below the
    spectrum.  B must be positive definite.

    ``energy``, if given, maps a dof vector x to the pair of quadratic-form
    values (x'Ax, x'Bx) evaluated by element-level quadrature; final
    eigenvalues are then Rayleigh quotients through it (see module
    docstring).  Eigenvectors come back B-orthonormal, sorted by eigenvalue.
    """
    n = A.shape[0]
    k = request.count
    if k < 1 or k > n:
        raise SolverError("requested %d eigenpairs of an order-%d problem"
                          % (k, n))
    fac = EquilibratedLU(A, B, request.shift)
    As, Bs = fac.As, fac.Bs
    vec = _initial_block(fac, request)
    # shift-inverted subspace iteration + Rayleigh-Ritz until the wanted part
    # of the block passes the convergence check
    lam = None
    gate = None
    prev = None
    for round_ in range(12):
        for j in range(vec.shape[1]):
            vec[:, j] = fac.solve_refined(Bs @ vec[:, j])
        vec = _b_orthonormalize(Bs, vec)
        lam, vec = _rayleigh_ritz(As, Bs, vec)
        if gate is None:
            gate = max(EIGEN_TOL, 20.0 * _residual_floor(fac, lam[:k]))
        # stop only once the wanted Ritz values have stopped moving *and* the
        # residual gate passes: a floor-limited gate alone can admit a block
        # that shift-inverted iteration is still improving
        if prev is not None:
            drift = np.max(np.abs(lam[:k] - prev) / np.maximum(np.abs(prev),
                                                               1e-300))
            if drift < 1e-8 and _worst_residual(fac, lam[:k],
                                                vec[:, :k]) <= gate:
                break
        prev = lam[:k].copy()
    keep = np.argsort(lam)[:k]
    lam = lam[keep]
    worst = _worst_residual(fac, lam, vec[:, keep])
    if worst > gate:
        raise SolverError("shift-inverted eigen residual %.3e exceeds "
                          "gate %.1e" % (worst, gate))
    vec = vec[:, keep] * fac.d[:, None]
    if energy is not None:
        for j in range(k):
            ea, eb = energy(vec[:, j])
            if eb <= 0:
                raise SolverError("non-positive mass energy in Rayleigh "
                                  "quotient")
            lam[j] = ea / eb
    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]
    # vdot's summation order (hence the last bits) follows the memory
    # layout; the returned vectors are orthonormalized in C order
    return lam, _b_orthonormalize(B, np.ascontiguousarray(vec), skip=1e-10)


def _initial_block(fac, request):
    As, Bs = fac.As, fac.Bs
    n = As.shape[0]
    m = min(n, request.count + 4)
    if request.count > max(1, n - 2) or n < 600:
        from scipy.linalg import eigh
        _, vec = eigh(As.toarray(), Bs.toarray())
        return np.ascontiguousarray(vec[:, :m])
    rng = np.random.default_rng(SEED)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(As):
        v0 = v0 + 1j * rng.standard_normal(n)
    try:
        _, vec = spla.eigsh(As, k=m, M=Bs, sigma=fac.sigma, which='LM', v0=v0,
                            maxiter=5000, OPinv=fac.operator())
    except spla.ArpackNoConvergence as err:
        if err.eigenvectors is not None and err.eigenvectors.shape[1] >= m:
            vec = err.eigenvectors
        else:
            raise SolverError("Lanczos failed to converge: %s" % err)
    # scipy's ARPACK wrapper for complex pencils leaves a reference cycle
    # that holds OPinv, As and Bs; collected only at a later full collection,
    # it kept each pencil's factor alive across the next ones
    gc.collect()
    return vec


def _b_orthonormalize(B, X, skip=0.0):
    """Modified Gram-Schmidt in the B inner product, in place.  Overlaps of
    magnitude <= ``skip`` are left alone, so that a block that is already
    B-orthonormal up to roundoff is only renormalized."""
    for j in range(X.shape[1]):
        for i in range(j):
            c = np.vdot(X[:, i], B @ X[:, j])
            if abs(c) > skip:
                X[:, j] -= c * X[:, i]
        nrm = np.vdot(X[:, j], B @ X[:, j]).real
        if nrm <= 0:
            raise SolverError("B-degenerate block during orthonormalization")
        X[:, j] /= np.sqrt(nrm)
    return X


def _rayleigh_ritz(As, Bs, X):
    from scipy.linalg import eigh
    Ah = X.conj().T @ (As @ X)
    Bh = X.conj().T @ (Bs @ X)
    lam, S = eigh(0.5 * (Ah + Ah.conj().T), 0.5 * (Bh + Bh.conj().T))
    return lam, X @ S


def _residual_floor(fac, lam):
    """Roundoff floor of the shift-inverted residual measurement: forming
    A x - lambda B x on an exact eigenvector already leaves noise of size
    eps * (||A|| + |lambda| ||B||) * ||x||, which the solve then multiplies
    by ||(A - sigma B)^{-1}||.  Residuals cannot certify below this level no
    matter how accurate the pair is, so the convergence gate is the larger
    of EIGEN_TOL and a modest multiple of this floor."""
    n = fac.As.shape[0]
    rng = np.random.default_rng(SEED + 1)
    x = rng.standard_normal(n)
    if np.iscomplexobj(fac.As):
        x = x + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    inv_norm = 0.0
    for _ in range(8):
        x = fac.solve(x)
        inv_norm = np.linalg.norm(x)
        x /= inv_norm
    eps = np.finfo(float).eps
    norm_a = spla.onenormest(fac.As)
    norm_b = spla.onenormest(fac.Bs)
    lam_mag = float(np.max(np.abs(lam))) if len(lam) else 1.0
    return eps * (norm_a + lam_mag * norm_b) * inv_norm


def _worst_residual(fac, lam, vec):
    worst = 0.0
    for j in range(len(lam)):
        x = vec[:, j]
        r = fac.solve_refined(fac.As @ x - lam[j] * (fac.Bs @ x))
        worst = max(worst, np.linalg.norm(r) / np.linalg.norm(x))
    return worst


def solve_linear(A, rhs):
    """Solve the symmetric system A x = rhs through an ``EquilibratedLU``
    with one step of iterative refinement.  Raises if the normwise backward
    error in equilibrated variables, ||b_s - A_s y|| against
    ||A_s||_1 ||y|| + ||b_s|| with A_s = D A D, b_s = D rhs and x = D y,
    exceeds 1e-8.  That check is weak on the h^{-6}-conditioned systems: it
    passes solutions whose equilibrated residual is a sizeable fraction of
    the data norm."""
    rhs = np.asarray(rhs, dtype=float)
    fac = EquilibratedLU(A)
    bs = fac.d * rhs
    y = fac.solve_refined(bs)
    As = fac.As
    nr = np.linalg.norm(bs - As @ y)
    scale = spla.onenormest(As) * np.linalg.norm(y) + np.linalg.norm(bs)
    if nr > 1e-8 * max(scale, 1e-300):
        raise SolverError("linear backward error %.3e exceeds tolerance"
                          % (nr / max(scale, 1e-300)))
    return fac.d * y
