"""Symmetric sparse eigenvalue and linear solves tuned for sixth-order
stiffness pencils.

Raw quintic-Hermite degrees of freedom mix values and second derivatives, so
stiffness matrices carry a dynamic range of h^{-6} across the diagonal and
the pencil's top eigenvalues reach 1e13 and beyond.  Two consequences drive
the design here:

* Dense eigh carries an absolute error of order eps * lambda_max, which
  wrecks the small eigenvalues we care about.  Shift-inverted subspace
  iteration around a shift below the spectrum does not, so it is the path
  at every problem size (dense eigh only seeds small assembled pencils).
* An assembled stiffness carries rounding of size eps * h^{-6} in its
  entries, and quadratic forms x' A x through it cancel at that level.  A
  stiffness given by a least-squares factor, A = G^H G (``Gram``: the Bloch
  pencils of epsdomain, G built from the weighted quadrature rows of each
  element), is factored in its formed, equilibrated shape (``FormedLU``),
  but each solve is refined on a residual formed through G and its Ritz
  values are those of the Gram matrix of G V, as accurate as the rows of
  G.  Where the formed pencil's rounding defeats that refinement, the
  pencil is solved on Björck's augmented system of G, with pivoting
  (``AugmentedLU``), which never forms A.  An
  assembled stiffness (the 1D limit pencils) is factored after symmetric
  Jacobi equilibration A -> D A D, D = diag(A)^{-1/2}, a congruence that
  leaves pencil eigenvalues invariant (``EquilibratedLU``); its caller
  recomputes each eigenvalue as the Rayleigh quotient of its eigenvector
  through element-level quadrature energies (limit1d.solve_mode), where
  stationarity makes the eigenvector error enter only quadratically.

Every factor serves the one subspace iteration of ``solve_smallest`` through
the same operations: a refined solve of a block of right sides (one
multi-column triangular solve per step; a Gram factor refines only as
deep as its first solve showed the factor needs), A X, and X^H A X.  The
iteration stops when the wanted Ritz values drift by less than 1e-8
between rounds and the residual gate passes, one gate for every factor.
Convergence is certified in the shift-inverted metric,

    || (A - sigma B)^{-1} (A x - lambda B x) || <= EIGEN_TOL * ||x||,

because the literal residual ||A x - lambda B x|| is dominated by
eps * lambda_max * ||x|| rounding noise for these pencils no matter how
accurate the pair is.  ``solve_linear`` solves through an
``EquilibratedLU`` too.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla


class SolverError(RuntimeError):
    pass


EIGEN_TOL = 5e-5           # shift-inverted residual gate
SEED = 20260824            # random start block
AUG_SCALE = 1e-4           # a of AugmentedLU's scaled augmented system
PIVOT_MOVE = 5e-5          # refinement move FormedLU's first solve must reach
PIVOT_THRESH = 0.01        # diag_pivot_thresh of AugmentedLU
MAX_ROUNDS = 12            # cap of the subspace iteration


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

    @property
    def complex(self):
        return np.iscomplexobj(self.As) or np.iscomplexobj(self.Bs)

    def solve(self, b):
        """M^{-1} b, for one right side or a block of them (columns).
        SuperLU solves only in the factor's dtype, so a complex b on a real
        factor is solved as its real and imaginary parts with the one
        factor; an all-zero imaginary part costs no solve."""
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

    def apply(self, X):
        """As X."""
        return self.As @ X

    def gram(self, X):
        """X^H As X, the stiffness of the Rayleigh-Ritz projection."""
        return X.conj().T @ (self.As @ X)


class Gram:
    """The Hermitian matrix A = G^H G of a sparse least-squares factor G
    (at least as many rows as columns), given both as G and as the formed
    sparse A.  solve_smallest factors the formed pencil (``FormedLU``) but
    forms every residual and Ritz value through G."""

    def __init__(self, G, A):
        self.G = G
        self.A = A
        self.shape = A.shape


class _Stall(Exception):
    """The formed factor cannot serve its pencil: its factorization failed
    (the argument is []) or its first solve's refinement moves, the
    argument, never fell to PIVOT_MOVE."""


class _GramFactor:
    """Shift-inverted solves of the pencil (G^H G, B) in the variables
    y = x / d (D = diag(d), d = 1 / the column norms of G, the Jacobi
    scaling of A = G^H G, as in ``EquilibratedLU``), where a subclass's
    sparse LU ``lu`` solves the equilibrated pencil
    D A D - sigma D B D = As - sigma Bs only approximately.  Each solve is
    refined on the residual c - D(G^H G - sigma B)D y, formed through G, so
    the h^{-6} rounding of a formed A never reaches the answer (Björck,
    Numerical Methods for Least Squares Problems, SIAM 1996; Carson and
    Higham, SIAM J. Sci. Comput. 39(6), 2017: a poor factor serves when
    the residual is accurate).  The first solve takes at most STEPS
    refinement steps and records each one's ``moves``, the largest
    relative B-norm move of a column; it fixes ``refine_steps``
    (``_first_depth``: all STEPS unless a subclass stops sooner), which
    every later solve takes.  G itself is kept (not G D or G^H)."""

    def __init__(self, G, B, shift):
        self.G = G
        self.sigma = shift
        norms = np.sqrt(np.asarray(abs(G).power(2).sum(axis=0)).ravel())
        norms[~(norms > 0)] = 1.0
        self.d = 1.0 / norms
        self.Bs = _scaled(B, self.d)
        self.complex = np.iscomplexobj(G) or np.iscomplexobj(B)
        self.solves = 0
        self.moves = []
        self.refine_steps = None

    def solve_refined(self, C):
        """(As - sigma Bs)^{-1} C for a block C, refined as deep as the
        factor needs."""
        first = self.refine_steps is None
        X = self._solve(C)
        for _ in range(self.STEPS if first else self.refine_steps):
            step = self._solve(C - self.apply(X) + self.sigma * (self.Bs @ X))
            X += step
            if first:
                self.moves.append(float(np.max(
                    _b_norms(self.Bs, step)
                    / np.maximum(_b_norms(self.Bs, X), 1e-300))))
                self.refine_steps = self._first_depth()
                if self.refine_steps is not None:
                    return X
        return X

    def _first_depth(self):
        return self.STEPS if len(self.moves) == self.STEPS else None

    def _g(self, X):
        return self.G @ (self.d[:, None] * X)

    def apply(self, X):
        """As X = D G^H G D X, through G."""
        return self.d[:, None] * (self.G.T @ self._g(X).conj()).conj()

    def gram(self, X):
        """X^H As X as the Gram matrix of G D X: no h^{-6} cancellation."""
        W = self._g(X)
        return W.conj().T @ W

    def stats(self):
        """Size, kind, fill and work of this factor (see solve_smallest)."""
        return {"n": self.Bs.shape[0], "nnz": int(self.G.nnz),
                "fill": int(self.lu.nnz), "factor": self.FACTOR,
                "move": self.moves[-1], "refine_steps": self.refine_steps,
                "block_solves": self.solves}


class FormedLU(_GramFactor):
    """The formed factor of a ``Gram`` pencil: the LU of the equilibrated
    formed pencil D(A - sigma B)D by ``_symmetric_lu``, the factorization
    ``count_below`` takes, at about half the fill of Björck's augmented
    system.  The first solve stops at the first refinement step that moves
    at most PIVOT_MOVE, and the steps before that one, 0 to STEPS - 1,
    become ``refine_steps``.  Where the formed pencil's rounding is not
    small against its smallest eigenvalues, the steps stop contracting:
    still above PIVOT_MOVE after STEPS steps, or a failed factorization,
    releases the factor and raises ``_Stall``."""

    FACTOR = "formed"
    STEPS = 3

    def __init__(self, gram, B, shift):
        super().__init__(gram.G, B, shift)
        try:
            self.lu = _symmetric_lu(_scaled(gram.A - shift * B, self.d))
        except RuntimeError:
            raise _Stall([]) from None

    def _solve(self, C):
        self.solves += 1
        return self.lu.solve(C)

    def _first_depth(self):
        if self.moves[-1] <= PIVOT_MOVE:
            return len(self.moves) - 1
        if len(self.moves) == self.STEPS:
            self.lu = None      # free it before the fallback factors
            raise _Stall(self.moves)
        return None


class AugmentedLU(_GramFactor):
    """The fallback factor of a ``Gram`` pencil whose formed factor
    stalls: Björck's scaled augmented system

        [[-a I,      G D         ],  [r]   [0]
         [ D G^H, -(sigma/a) D B D]] [y] = [c],

    which gives (D A D - sigma D B D) y = a c for A = G^H G without forming
    A; a = AUG_SCALE.  One sparse LU with COLAMD ordering and threshold
    pivoting (``diag_pivot_thresh`` = PIVOT_THRESH) serves every solve, and
    every solve takes STEPS refinement steps.  The augmented matrix is
    dropped once factored."""

    FACTOR = "augmented"
    STEPS = 2

    def __init__(self, G, B, shift):
        super().__init__(G, B, shift)
        Gs = G @ sparse.diags(self.d)
        K = sparse.bmat([[-AUG_SCALE * sparse.identity(G.shape[0]), Gs],
                         [Gs.conj().T, -(shift / AUG_SCALE) * self.Bs]],
                        format="csc")
        del Gs
        try:
            self.lu = spla.splu(K, permc_spec="COLAMD",
                                diag_pivot_thresh=PIVOT_THRESH)
        except RuntimeError as err:
            raise SolverError("augmented factorization failed: %s" % err)

    def _solve(self, C):
        rows = self.G.shape[0]
        rhs = np.zeros((rows + C.shape[0], C.shape[1]),
                       dtype=complex if self.complex else float)
        rhs[rows:] = C
        self.solves += 1
        return self.lu.solve(rhs)[rows:] / AUG_SCALE


def _b_norms(B, X):
    """B-norms of the columns of X."""
    return np.sqrt(np.sum((X.conj() * (B @ X)).real, axis=0))


def _symmetric_lu(M):
    """SuperLU of a Hermitian M with the symmetric minimum-degree ordering
    of M^T + M and no pivoting off the diagonal (``SymmetricMode``): the
    pivots keep M's inertia, and the fill is that of a symmetric
    factorization."""
    return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


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
        lu = _symmetric_lu(M)
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    pivots = lu.U.diagonal().real
    tiny = 10 * M.shape[0] * np.finfo(float).eps * np.abs(M.data).max()
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

    The first two parts, and every part while fewer than ``count`` values
    (with copies) are in hand, are solved unchecked (below and shift None):
    a lam* read from the first part alone lies above values the next part
    supplies, so a check there would not certify.  Otherwise
    ``count_below`` is asked at s = lam* + max(1e-3 |lam*|, 10 move), where
    lam* is the count-th smallest value and move the largest refinement
    move so far, which the margin covers.  Only the answer 0 certifies the
    part empty.  It is skipped: it cannot supply one of the ``count``
    smallest values, so the result has the bits of a walk that solves
    every part.

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
        if i >= 2 and len(found) >= count:
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


def solve_smallest(A, B, count, shift, stats=None):
    """The ``count`` eigenpairs of A x = lambda B x nearest (from above) the
    shift, i.e. the smallest ones when the shift sits below the spectrum.
    B must be positive definite.  A is a sparse Hermitian matrix, solved
    through an ``EquilibratedLU`` of A - shift B, or a ``Gram`` (_solve_gram).
    Eigenvalues are the Ritz values of the factor's stiffness projection
    (``gram``: for a Gram, the Gram matrix of G V); eigenvectors come back
    B-orthonormal, sorted by eigenvalue.

    ``stats``, a dict, may be given with a Gram: it receives the solver
    record of ``_solve_gram``."""
    n = A.shape[0]
    k = count
    if k < 1 or k > n:
        raise SolverError("requested %d eigenpairs of an order-%d problem"
                          % (k, n))
    if isinstance(A, Gram):
        fac, lam, vec, record = _solve_gram(A, B, k, shift)
        if stats is not None:
            stats.update(record)
    else:
        fac = EquilibratedLU(A, B, shift)
        lam, vec, _ = _subspace_iteration(fac, _initial_block(fac, k), k)
    vec = vec * fac.d[:, None]
    # vdot's summation order (hence the last bits) follows the memory
    # layout; the returned vectors are orthonormalized in C order
    return lam, _b_orthonormalize(B, np.ascontiguousarray(vec), skip=1e-10)


def _solve_gram(A, B, k, shift):
    """The subspace iteration of a Gram pencil on its ``FormedLU``, or, when
    that stalls, from the same start on a pivoted ``AugmentedLU`` (the
    formed factor is released first).  Returns the factor, the k pairs and
    the solver record: the factor's size, kind, fill and work
    (``_GramFactor.stats``), ``factorizations`` (2 after a fallback, which
    also records the stalled ``formed_moves``), the subspace ``rounds``,
    and the final worst shift-inverted ``residual`` with the ``gate`` it
    passed."""
    try:
        fac = FormedLU(A, B, shift)
        lam, vec, info = _subspace_iteration(fac, _initial_block(fac, k), k)
        return fac, lam, vec, {**fac.stats(), "factorizations": 1, **info}
    except _Stall as stall:
        fallback = {"factorizations": 2, "formed_moves": stall.args[0]}
    fac = AugmentedLU(A.G, B, shift)
    lam, vec, info = _subspace_iteration(fac, _initial_block(fac, k), k)
    return fac, lam, vec, {**fac.stats(), **fallback, **info}


def _dense_seed(n, count):
    """Whether an order-n assembled pencil is seeded by dense eigh (small
    pencils) rather than by a random block."""
    return count > max(1, n - 2) or n < 600


def _subspace_iteration(fac, vec, k):
    """Shift-inverted subspace iteration with Rayleigh-Ritz from the block
    ``vec``, in equilibrated variables, until the wanted part of the block
    passes the convergence check; the k wanted Ritz pairs, checked against
    the residual gate EIGEN_TOL, and the record (rounds, residual, gate).
    Every solve takes the whole block as one right side."""
    Bs = fac.Bs
    prev = None
    for rounds in range(1, MAX_ROUNDS + 1):
        # MGS sums in the block's memory layout: keep it in C order
        vec = _b_orthonormalize(
            Bs, np.ascontiguousarray(fac.solve_refined(Bs @ vec)))
        lam, vec = _rayleigh_ritz(fac, Bs, vec)
        if prev is not None:
            drift = np.max(np.abs(lam[:k] - prev) / np.maximum(np.abs(prev),
                                                               1e-300))
            if drift < 1e-8:
                worst = _worst_residual(fac, lam[:k], vec[:, :k])
                if worst <= EIGEN_TOL:
                    break
        prev = lam[:k].copy()
    else:
        worst = _worst_residual(fac, lam[:k], vec[:, :k])
        if worst > EIGEN_TOL:
            raise SolverError("shift-inverted eigen residual %.3e exceeds "
                              "gate %.1e" % (worst, EIGEN_TOL))
    return lam[:k], vec[:, :k], {"rounds": rounds, "residual": worst,
                                 "gate": EIGEN_TOL}


def _initial_block(fac, count):
    """The start block (at most n columns): the lowest count + 4
    eigenvectors of a small assembled pencil by dense eigh, otherwise a
    random block of max(2 count, count + 8) columns drawn from SEED, whose
    guard columns let the count-th vector converge in a few rounds from a
    random start."""
    n = fac.Bs.shape[0]
    if isinstance(fac, EquilibratedLU) and _dense_seed(n, count):
        from scipy.linalg import eigh
        _, vec = eigh(fac.As.toarray(), fac.Bs.toarray())
        return np.ascontiguousarray(vec[:, :min(n, count + 4)])
    m = min(n, max(2 * count, count + 8))
    rng = np.random.default_rng(SEED)
    vec = rng.standard_normal((n, m))
    if fac.complex:
        vec = vec + 1j * rng.standard_normal((n, m))
    return vec


def _b_orthonormalize(B, X, skip=0.0):
    """Modified Gram-Schmidt in the B inner product, in place.  Each
    column's B X_j is formed once, after the column is final, and kept:
    the overlaps with later columns read vdot(B X_i, X_j), the B inner
    product because B is Hermitian.  Overlaps of magnitude <= ``skip`` are
    left alone, so that a block that is already B-orthonormal up to
    roundoff is only renormalized."""
    BX = np.empty_like(X)
    for j in range(X.shape[1]):
        for i in range(j):
            c = np.vdot(BX[:, i], X[:, j])
            if abs(c) > skip:
                X[:, j] -= c * X[:, i]
        bx = B @ X[:, j]
        nrm = np.vdot(X[:, j], bx).real
        if nrm <= 0:
            raise SolverError("B-degenerate block during orthonormalization")
        X[:, j] /= np.sqrt(nrm)
        BX[:, j] = bx / np.sqrt(nrm)
    return X


def _rayleigh_ritz(fac, Bs, X):
    from scipy.linalg import eigh
    Ah = fac.gram(X)
    Bh = X.conj().T @ (Bs @ X)
    lam, S = eigh(0.5 * (Ah + Ah.conj().T), 0.5 * (Bh + Bh.conj().T))
    return lam, X @ S


def _worst_residual(fac, lam, vec):
    """max_j ||(As - sigma Bs)^{-1} (As v_j - lam_j Bs v_j)|| / ||v_j||, one
    block solve for all columns."""
    r = fac.solve_refined(fac.apply(vec) - (fac.Bs @ vec) * lam)
    return max([0.0, *(np.linalg.norm(r, axis=0)
                       / np.linalg.norm(vec, axis=0))])


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
