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
  the eps * h^{-6} level.  The eigenvalues returned here are Ritz values of
  the matrices; callers that can evaluate the energies by element-level
  quadrature of the finite-element derivatives (cancellation only
  eps * h^{-3}) recompute them as Rayleigh quotients of the returned
  eigenvectors (limit1d.solve_mode, epsdomain.solve_eps_spectrum_bloch);
  stationarity makes the eigenvector error enter only quadratically.

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
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.sparse import linalg as spla


class SolverError(RuntimeError):
    pass


EIGEN_TOL = 5e-5           # shift-inverted residual gate (with its floor)
SEED = 20260824            # Lanczos start vector and residual-floor probe


def equilibrate(A, B):
    """Symmetric Jacobi equilibration of the pencil (A, B): (d, D A D,
    D B D) with D = diag(d), d_i = |A_ii|^{-1/2} (unit scaling where a
    diagonal entry is not positive), the matrices as CSC; the last is None
    when B is.  A and B must store no duplicate entries (see _scaled)."""
    d = _jacobi(A)
    return d, _scaled(A, d), None if B is None else _scaled(B, d)


def _jacobi(A):
    """d_i = |A_ii|^{-1/2}, 1 where A_ii is not positive."""
    d = np.asarray(A.diagonal()).real.astype(float).copy()
    d[~(d > 0)] = 1.0
    return 1.0 / np.sqrt(d)


def _scaled(A, d):
    """D A D with D = diag(d) as CSC, by scaling a copy's entries in place,
    each a by d[row] and then by d[col]: the two roundings, in the same
    order, of the sparse product (D @ A @ D).tocsc(), which it equals bit
    for bit, including the dropped entries that become exactly zero and the
    sorted indices.  Only without duplicate entries: the product sums a
    stored duplicate pair as d a1 + d a2, where this scales the sum,
    d (a1 + a2)."""
    S = A.tocsc(copy=True)
    S.data *= d[S.indices]
    S.data *= np.repeat(d, np.diff(S.indptr))
    S.eliminate_zeros()
    S.sort_indices()
    return S


class EquilibratedLU:
    """Sparse LU of the equilibrated, shifted matrix M = As - sigma Bs, where
    (d, As, Bs) = equilibrate(A, B).  Without B, M = As.  ``solve`` works in
    equilibrated variables: (A - sigma B)^{-1} b = d * solve(d * b).  When
    the factorization of a pencil is singular, the shift is nudged downward
    and retried; ``sigma`` is the shift actually factored."""

    def __init__(self, A, B=None, shift=0.0):
        self.d, self.As, self.Bs = equilibrate(A, B)
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
        """M^{-1} b.  SuperLU solves only in the factor's dtype, so a complex
        b on a real factor is solved as its real and imaginary parts with
        the one factor; an all-zero imaginary part costs no solve."""
        if np.iscomplexobj(b) and not np.iscomplexobj(self.matrix):
            x = self.lu.solve(b.real).astype(complex)
            if np.any(b.imag):
                x.imag = self.lu.solve(b.imag)
            return x
        return self.lu.solve(b)

    def solve_refined(self, b):
        """Solve with one step of iterative refinement; recovers most of the
        accuracy lost to the h^{-6} dynamic range of the matrix."""
        x = self.solve(b)
        x += self.solve(b - self.matrix @ x)
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
    Eigenvalue Problem).  Ms is one scaled copy of A - shift B, with D from
    A as in ``equilibrate``.  None when the factorization fails, when
    SuperLU pivoted off the diagonal after all (perm_r != perm_c), or when
    a pivot is too close to zero for its sign to mean anything: within
    10 n eps max |Ms_ij|, the rounding that forming Ms and factoring it
    without pivoting can leave in a pivot of a definite matrix."""
    M = _scaled(A - shift * B, _jacobi(A))
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


def walk_spectrum(parts, count):
    """The ``count`` smallest values of a union of independent spectra (the
    tangential modes of limit1d, the Bloch pencils of epsdomain), and one
    record per part.

    ``parts`` yields, in walk order, (label, (A, B), mult, solve): the dict
    that opens the part's record, its Hermitian pencil, the copies of each
    of its values in the union (2 for a conjugate pair), and a callable
    returning its refined eigenvalues and their largest |refined - raw|.

    While fewer than ``count`` values (with copies) are in hand a part is
    solved unchecked (below and shift None).  Otherwise ``count_below`` is
    asked at s = lam* + max(1e-3 |lam*|, 10 move), where lam* is the
    count-th smallest value and move the largest refinement move so far,
    which the margin covers.  Only the answer 0 certifies the part empty.
    It is skipped: it cannot supply one of the ``count`` smallest values,
    so the result has the bits of a walk that solves every part.

    The merge sorts by value, ties going to the earlier part and then to
    the earlier index in it, and takes the ``count`` smallest copies.
    Returns (taken, records): each copy taken as (value, part, index in the
    part, copy), and per part its label followed by status ("solved" or
    "certified"), below, shift, eigenvalues, kept (its copies taken) and
    seconds (building the part included)."""
    records, found = [], []     # every copy: (value, part, index, copy)
    move = 0.0
    start = time.perf_counter()
    for i, (label, (A, B), mult, solve) in enumerate(parts):
        below = shift = None
        if len(found) >= count:
            lam_star = sorted(found)[count - 1][0]
            shift = lam_star + max(1e-3 * abs(lam_star), 10.0 * move)
            below = count_below(A, B, shift)
        record = {**label, "status": "certified" if below == 0 else "solved",
                  "below": below, "shift": shift, "eigenvalues": [],
                  "kept": 0}
        if below != 0:
            values, part_move = solve()
            move = max(move, part_move)
            record["eigenvalues"] = [float(v) for v in values]
            found += [(v, i, j, c) for j, v in enumerate(record["eigenvalues"])
                      for c in range(mult)]
        record["seconds"] = time.perf_counter() - start
        records.append(record)
        start = time.perf_counter()
    taken = sorted(found)[:count]
    for _, i, _, _ in taken:
        records[i]["kept"] += 1
    return taken, records


def solve_smallest(A, B, count, shift):
    """The ``count`` eigenpairs of A x = lambda B x nearest (from above) the
    shift, i.e. the smallest ones when the shift sits below the spectrum.
    B must be positive definite.  Eigenvalues are the matrix Ritz values
    (see module docstring); eigenvectors come back B-orthonormal, sorted by
    eigenvalue.

    The columns of each shift-invert step and of each residual check are
    independent solves with the one factor, and SuperLU's triangular solves
    release the GIL, so they run on a thread pool with one worker per CPU
    the process may run on.  Each column keeps its own arithmetic, so the
    result does not depend on the worker count.  Pencils small enough for
    the dense seed solve their columns one after another, without a pool:
    their solves are too short to repay the hand-offs between threads."""
    n = A.shape[0]
    k = count
    if k < 1 or k > n:
        raise SolverError("requested %d eigenpairs of an order-%d problem"
                          % (k, n))
    fac = EquilibratedLU(A, B, shift)
    vec = _initial_block(fac, k)
    if _dense_seed(n, k):
        lam, vec = _subspace_iteration(fac, vec, k, map)
    else:
        with ThreadPoolExecutor(_cpu_count()) as pool:
            lam, vec = _subspace_iteration(fac, vec, k, pool.map)
    vec = vec * fac.d[:, None]
    # vdot's summation order (hence the last bits) follows the memory
    # layout; the returned vectors are orthonormalized in C order
    return lam, _b_orthonormalize(B, np.ascontiguousarray(vec), skip=1e-10)


def _dense_seed(n, count):
    """Whether an order-n pencil is seeded by dense eigh (small pencils)
    rather than by Lanczos."""
    return count > max(1, n - 2) or n < 600


def _cpu_count():
    """The CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _subspace_iteration(fac, vec, k, each):
    """Shift-inverted subspace iteration with Rayleigh-Ritz from the block
    ``vec``, in equilibrated variables, until the wanted part of the block
    passes the convergence check; the k wanted Ritz pairs, checked against
    the residual gate.  ``each`` is ``map`` or a pool's ``map``: it runs
    the per-column solves.

    The gate is max(EIGEN_TOL, 20 * _residual_floor) with the floor of the
    first round's Ritz values.  A residual at or below EIGEN_TOL passes it
    whatever the floor, so the floor is computed only for the first
    residual above EIGEN_TOL, once."""
    As, Bs = fac.As, fac.Bs
    lam = None
    gate = None

    def passes(worst):
        nonlocal gate
        if worst <= EIGEN_TOL:
            return True
        if gate is None:
            gate = max(EIGEN_TOL, 20.0 * _residual_floor(fac, first))
        return worst <= gate

    prev = None
    for round_ in range(12):
        # each column's solve writes that column in place, so the block
        # keeps its memory layout, and MGS its summation order
        def step(j):
            vec[:, j] = fac.solve_refined(Bs @ vec[:, j])
        list(each(step, range(vec.shape[1])))
        vec = _b_orthonormalize(Bs, vec)
        lam, vec = _rayleigh_ritz(As, Bs, vec)
        # stop only once the wanted Ritz values have stopped moving *and* the
        # residual gate passes: a floor-limited gate alone can admit a block
        # that shift-inverted iteration is still improving
        if prev is None:
            first = lam[:k].copy()
        else:
            drift = np.max(np.abs(lam[:k] - prev) / np.maximum(np.abs(prev),
                                                               1e-300))
            if drift < 1e-8 and passes(_worst_residual(fac, lam[:k],
                                                       vec[:, :k], each)):
                break
        prev = lam[:k].copy()
    keep = np.argsort(lam)[:k]
    lam = lam[keep]
    worst = _worst_residual(fac, lam, vec[:, keep], each)
    if not passes(worst):
        raise SolverError("shift-inverted eigen residual %.3e exceeds "
                          "gate %.1e" % (worst, gate))
    return lam, vec[:, keep]


def _initial_block(fac, count):
    As, Bs = fac.As, fac.Bs
    n = As.shape[0]
    m = min(n, count + 4)
    if _dense_seed(n, count):
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
    norm_a = spla.norm(fac.As, 1)
    norm_b = spla.norm(fac.Bs, 1)
    lam_mag = float(np.max(np.abs(lam))) if len(lam) else 1.0
    return eps * (norm_a + lam_mag * norm_b) * inv_norm


def _worst_residual(fac, lam, vec, each):
    def ratio(j):
        x = vec[:, j]
        r = fac.solve_refined(fac.As @ x - lam[j] * (fac.Bs @ x))
        return np.linalg.norm(r) / np.linalg.norm(x)
    return max([0.0, *each(ratio, range(len(lam)))])


def solve_linear(A, rhs):
    """Solve the Hermitian system A x = rhs (real symmetric or complex
    Hermitian; the solve runs in the common dtype of A and rhs, at least
    float, and a complex rhs on a real A is solved as its real and
    imaginary parts with one factor) through an ``EquilibratedLU`` with one
    step of iterative refinement.  Raises if the normwise backward error in
    equilibrated variables, ||b_s - A_s y|| against ||A_s||_1 ||y|| + ||b_s||
    with A_s = D A D, b_s = D rhs and x = D y, exceeds 1e-8; for a complex
    rhs on a real A each part is tested on its own.  That check is weak on
    the h^{-6}-conditioned systems: it passes solutions whose equilibrated
    residual is a sizeable fraction of the data norm."""
    rhs = np.asarray(rhs)
    rhs = rhs.astype(np.result_type(A.dtype, rhs.dtype, float), copy=False)
    fac = EquilibratedLU(A)
    bs = fac.d * rhs
    y = fac.solve_refined(bs)
    As = fac.As
    norm_a = spla.norm(As, 1)
    parts = [(bs, y)]
    if np.iscomplexobj(bs) and not np.iscomplexobj(As):
        parts = [(bs.real, y.real), (bs.imag, y.imag)]
    for b, x in parts:
        nr = np.linalg.norm(b - As @ x)
        scale = norm_a * np.linalg.norm(x) + np.linalg.norm(b)
        if nr > 1e-8 * max(scale, 1e-300):
            raise SolverError("linear backward error %.3e exceeds tolerance"
                              % (nr / max(scale, 1e-300)))
    return fac.d * y
