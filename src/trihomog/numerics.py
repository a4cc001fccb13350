"""Symmetric sparse eigenvalue and linear solves tuned for sixth-order
stiffness pencils.

Raw quintic-Hermite degrees of freedom mix values and second derivatives, so
stiffness matrices carry a dynamic range of h^{-6} across the diagonal and
the pencil's top eigenvalues reach 1e13 and beyond.  Two consequences drive
the design here:

* Dense eigh carries an absolute error of order eps * lambda_max, which
  wrecks the small eigenvalues we care about.  Shift-inverted subspace
  iteration around a shift below the spectrum does not, so it is the path
  at every problem size (dense eigh only seeds assembled pencils stored
  dense, ``_dense_seed``).
* An assembled stiffness carries rounding of size eps * h^{-6} in its
  entries, and quadratic forms x' A x through it cancel at that level.
  Every pencil is factored in one way (``FormedLU``): after symmetric
  Jacobi equilibration A -> D A D, D = diag(A)^{-1/2}, a congruence that
  leaves pencil eigenvalues invariant, D(A - sigma B)D is factored with
  a symmetric ordering and no pivoting.  A stiffness given by a
  least-squares factor, A = G^H G (``Gram``: the Bloch pencils of
  epsdomain, G built from the weighted quadrature rows of each element),
  has each solve refined on a residual formed through G and its Ritz
  values are those of the Gram matrix of G V, as accurate as the rows of
  G.  Where the formed pencil's rounding defeats that refinement, a Gram
  pencil is solved on Björck's augmented system of G, with pivoting
  (``AugmentedLU``), which never forms A; an assembled pencil has no such
  fallback and raises.  An assembled stiffness (the 1D limit pencils) is
  refined through D A D itself; its caller recomputes each eigenvalue as
  the Rayleigh quotient of its eigenvector through element-level
  quadrature energies (limit1d.solve_mode), where stationarity makes the
  eigenvector error enter only quadratically.

Every factor serves the one subspace iteration of ``solve_smallest`` through
the same operations: a refined solve of a block of right sides (one
multi-column triangular solve per step, refined only as deep as the first
solve showed the factor needs), A X, and X^H A X.  The iteration stops
when the wanted Ritz values drift by less than 1e-8 between rounds and
the residual gate passes, one gate for every factor.
Convergence is certified in the shift-inverted metric,

    || (A - sigma B)^{-1} (A x - lambda B x) || <= EIGEN_TOL * ||x||,

because the literal residual ||A x - lambda B x|| is dominated by
eps * lambda_max * ||x|| rounding noise for these pencils no matter how
accurate the pair is.  ``solve_linear`` solves on the ``FormedLU`` of its
matrix too, with one refinement step.

Pencils may be solved on several threads at once (epsdomain overlaps the
two unchecked Bloch pencils of a case), but they factor one at a time:
every factor's setup, from its scaling to its SuperLU factorization, holds
``FACTOR_LOCK``, so only the triangular solves and sparse products, which
release the GIL, overlap, and at most one factorization's workspace is
live.  A factor keeps one copy of each pencil matrix: the scaled mass Bs,
the LU, and As (assembled) or G (Gram).  D(A - sigma B)D is scaled in
place and dropped once factored.  A Gram's formed A and its B may be
given as callables (epsdomain's Bloch pencils are): each is then formed
under the lock, A is dropped once D(A - sigma B)D is formed, and B is
scaled in place into Bs, so no unscaled copy outlives the setup.
epsdomain's p = 1 stiffness callable, run under the lock, hands p = 0 to a
worker thread, which takes the lock before it solves and so factors second.
"""

from __future__ import annotations

import threading
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
MAX_STEPS = 8              # cap of FormedLU's first solve while it contracts
PIVOT_THRESH = 0.01        # diag_pivot_thresh of AugmentedLU
MAX_ROUNDS = 12            # cap of the subspace iteration


def _jacobi(A):
    """d_i = |A_ii|^{-1/2}, 1 where A_ii is not positive."""
    d = np.asarray(A.diagonal()).real.astype(float).copy()
    d[~(d > 0)] = 1.0
    return 1.0 / np.sqrt(d)


def _scaled(A, d):
    """D A D with D = diag(d) as CSC, scaled in place (``_scale_in_place``)
    on what ``_owned`` gives for A: a copy of a matrix A, or what a
    callable A forms."""
    return _scale_in_place(_owned(A), d)


def _scale_in_place(A, d):
    """D A D with D = diag(d) as CSC, by scaling the entries of A itself
    when it is CSC (of a CSC conversion otherwise), each a by d[row] and
    then by d[col]: the two roundings, in the same order, of the sparse
    product (D @ A @ D).tocsc(), which it equals bit for bit, including the
    dropped entries that become exactly zero and the sorted indices.  Only
    without duplicate entries: the product sums a stored duplicate pair as
    d a1 + d a2, where this scales the sum, d (a1 + a2)."""
    S = A.tocsc()
    S.data *= d[S.indices]
    S.data *= np.repeat(d, np.diff(S.indptr))
    S.eliminate_zeros()
    S.sort_indices()
    return S


def _owned(M):
    """A pencil matrix that the factor may scale in place: the matrix a
    callable M forms, or a CSC copy of a matrix M, which its caller
    keeps."""
    return M() if callable(M) else M.tocsc(copy=True)


class Gram:
    """The Hermitian matrix A = G^H G of a sparse least-squares factor G
    (at least as many rows as columns), given both as G and as the formed
    sparse A, or as a callable that forms it.  solve_smallest factors the
    formed pencil (``FormedLU``) but forms every residual and Ritz value
    through G.  A callable's A is formed inside the factorization lock and
    lives only until D(A - sigma B)D is formed."""

    def __init__(self, G, A):
        self.G = G
        self.A = A
        self.shape = (G.shape[1], G.shape[1])

    def formed(self):
        """The formed A: as given, or as the callable forms it anew."""
        return self.A() if callable(self.A) else self.A


class _Stall(SolverError):
    """The formed factor cannot serve its pencil: its factorization failed
    (the argument is []) or its first solve's refinement moves, the
    argument, never fell to PIVOT_MOVE.  A Gram pencil falls back on it;
    elsewhere it reaches the caller as a SolverError."""

    def __str__(self):
        moves = self.args[0]
        return ("formed factor stalled, refinement moves %s" % moves if moves
                else "formed factorization failed")


#: held by every factor's setup (``FormedLU``, ``AugmentedLU``; so by
#: ``solve_linear`` too), from its scaling to its SuperLU factorization:
#: pencils solved on several threads factor one at a time, and overlap only
#: in their solves and sparse products.  The callables that form A and B
#: run under it, so a thread they start that takes it waits for the setup
FACTOR_LOCK = threading.Lock()


class _Factor:
    """Shift-inverted solves of the pencil (A, B) in the variables y = x / d,
    D = diag(d) the Jacobi scaling of A, where a subclass's sparse LU ``lu``
    solves the equilibrated pencil D A D - sigma D B D = As - sigma Bs,
    possibly only approximately.  An assembled A is kept as As = D A D
    (``_jacobi``, ``_scaled``).  A ``Gram`` A = G^H G is kept as G itself
    (not G D or G^H), with d = 1 / the column norms of G, the same scaling,
    and every product with As goes through G: each solve is refined on the
    residual c - D(G^H G - sigma B)D y, so the h^{-6} rounding of a formed A
    never reaches the answer (Björck, Numerical Methods for Least Squares
    Problems, SIAM 1996; Carson and Higham, SIAM J. Sci. Comput. 39(6),
    2017: a poor factor serves when the residual is accurate).  The first
    refined solve takes at most MAX_STEPS refinement steps and records each
    one's ``moves``, the largest relative B-norm move of a column; it fixes
    ``refine_steps`` (``_first_depth``: STEPS unless a subclass decides
    otherwise), which every later refined solve takes.  B may be None for
    a single matrix, which is then only solved and applied.  A subclass
    sets up Bs (``_owned``: B is scaled in place when a callable forms it)
    and ``lu`` under ``FACTOR_LOCK``; the factor keeps no unscaled
    matrix."""

    def __init__(self, A, shift):
        self.sigma = shift
        if isinstance(A, Gram):
            self.G, self.As = A.G, None
            norms = np.sqrt(np.asarray(abs(A.G).power(2).sum(axis=0)).ravel())
            norms[~(norms > 0)] = 1.0
            self.d = 1.0 / norms
        else:
            self.G, self.d = None, _jacobi(A)
            self.As = _scaled(A, self.d)
        self.solves = 0
        self.moves = []
        self.refine_steps = None

    @property
    def complex(self):
        return (np.iscomplexobj(self.As if self.G is None else self.G)
                or np.iscomplexobj(self.Bs))

    def solve(self, C):
        """(As - sigma Bs)^{-1} C as the factor gives it, for one right side
        or a block of them (columns).  SuperLU solves only in the factor's
        dtype, so a complex C on a real factor is solved as its real and
        imaginary parts; an all-zero imaginary part costs no solve."""
        if np.iscomplexobj(C) and not self.complex:
            X = self._solve(C.real).astype(complex)
            if np.any(C.imag):
                X.imag = self._solve(C.imag)
            return X
        return self._solve(C)

    def solve_refined(self, C):
        """(As - sigma Bs)^{-1} C for a block C, refined as deep as the
        factor needs."""
        first = self.refine_steps is None
        X = self.solve(C)
        for _ in range(MAX_STEPS if first else self.refine_steps):
            step = self.solve(C - self.apply(X) + self.sigma * (self.Bs @ X))
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
        """As X; for a Gram, D G^H G D X through G."""
        if self.G is None:
            return self.As @ X
        return self.d[:, None] * (self.G.T @ self._g(X).conj()).conj()

    def gram(self, X):
        """X^H As X, the stiffness of the Rayleigh-Ritz projection; for a
        Gram, the Gram matrix of G D X: no h^{-6} cancellation."""
        if self.G is None:
            return X.conj().T @ (self.As @ X)
        W = self._g(X)
        return W.conj().T @ W

    def stats(self):
        """Size, kind, fill and work of this factor (see solve_smallest);
        ``nnz`` counts G for a Gram and As otherwise."""
        return {"n": self.Bs.shape[0],
                "nnz": int((self.As if self.G is None else self.G).nnz),
                "fill": int(self.lu.nnz), "factor": self.FACTOR,
                "move": self.moves[-1], "refine_steps": self.refine_steps,
                "block_solves": self.solves}


class FormedLU(_Factor):
    """The formed factor of a pencil: the LU of the equilibrated formed
    pencil D(A - sigma B)D by ``_symmetric_lu`` (for a Gram at about half
    the fill of Björck's augmented system); without B, the LU of As
    itself.  The first refined solve stops at the first refinement step
    that moves at most PIVOT_MOVE, and the steps before that one become
    ``refine_steps``.  Past STEPS steps it goes on only while each step at
    least halves the move of the one before, up to MAX_STEPS: on a poor
    factor, refinement through an accurate residual still contracts
    geometrically.  Where the formed pencil's rounding is not small against
    its smallest eigenvalues, the steps stop contracting: a move above
    PIVOT_MOVE that, from step STEPS on, does not halve the one before or
    is the MAX_STEPS-th, or a failed factorization, releases the factor and
    raises ``_Stall``."""

    FACTOR = "formed"
    STEPS = 3

    def __init__(self, A, B, shift):
        with FACTOR_LOCK:
            super().__init__(A, shift)
            if B is None:
                M, self.Bs = self.As, None
            else:
                B = _owned(B)
                M = _scale_in_place(
                    (A if self.G is None else A.formed()) - shift * B, self.d)
                self.Bs = _scale_in_place(B, self.d)
            try:
                self.lu = _symmetric_lu(M)
            except RuntimeError:
                raise _Stall([]) from None

    def _solve(self, C):
        self.solves += 1
        return self.lu.solve(C)

    def _first_depth(self):
        moves = self.moves
        if moves[-1] <= PIVOT_MOVE:
            return len(moves) - 1
        if len(moves) >= self.STEPS and (len(moves) == MAX_STEPS
                                         or moves[-1] > 0.5 * moves[-2]):
            self.lu = None      # free it before the fallback factors
            raise _Stall(moves)
        return None


class AugmentedLU(_Factor):
    """The fallback factor of a ``Gram`` pencil whose formed factor
    stalls: Björck's scaled augmented system

        [[-a I,      G D         ],  [r]   [0]
         [ D G^H, -(sigma/a) D B D]] [y] = [c],

    which gives (D A D - sigma D B D) y = a c for A = G^H G without forming
    A; a = AUG_SCALE.  One sparse LU with COLAMD ordering and threshold
    pivoting (``diag_pivot_thresh`` = PIVOT_THRESH) serves every solve, and
    every solve takes STEPS refinement steps.  The augmented matrix is
    dropped once factored, and the formed A is never read."""

    FACTOR = "augmented"
    STEPS = 2

    def __init__(self, gram, B, shift):
        with FACTOR_LOCK:
            super().__init__(gram, shift)
            self.Bs = _scaled(B, self.d)
            Gs = self.G @ sparse.diags(self.d)
            K = sparse.bmat(
                [[-AUG_SCALE * sparse.identity(self.G.shape[0]), Gs],
                 [Gs.conj().T, -(shift / AUG_SCALE) * self.Bs]],
                format="csc")
            del Gs
            try:
                self.lu = spla.splu(K, permc_spec="COLAMD",
                                    diag_pivot_thresh=PIVOT_THRESH)
            except RuntimeError as err:
                raise SolverError("augmented factorization failed: %s"
                                  % err)

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
    of M^T + M and no pivoting off the diagonal (``SymmetricMode``), so
    that the fill is that of a symmetric factorization."""
    return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def walk_spectrum(parts, count):
    """The ``count`` smallest values of a union of independent spectra (the
    tangential modes of limit1d, the Bloch pencils of epsdomain), and one
    record per part.

    ``parts`` yields, in walk order, (label, certify, floor, mult, solve):
    the dict that opens the part's record, a callable that takes the check
    shift and returns the name of the rule that certifies the part empty
    below it, or None, asked only of a part without a floor (None for a
    part with one), a lower bound of the part's spectrum (its floor, None
    where it has none), the copies of each of its values in the union (2
    for a conjugate pair), and a callable returning its eigenvalues and its
    solver record, a dict.

    The first two parts, and every part while fewer than ``count`` values
    (with copies) are in hand, are solved unchecked (rule and shift None):
    a lam* read from the first part alone lies above values the next part
    supplies, so a check there would not certify.  Otherwise the part is
    checked at s = lam* + 1e-3 |lam*|, where lam* is the count-th smallest
    value so far; the margin covers the rounding by which a part's values
    (quadrature-energy quotients in limit1d) may sit from the assembled
    matrices a ``certify`` reads (limit1d's secular sign).  A part with a
    floor is certified empty when the floor lies above s (rule "floor")
    and solved otherwise; it builds nothing to be certified.  A part
    without one is certified by the rule its ``certify`` names and solved
    when that returns None.  A certified part is skipped: it cannot supply
    one of the ``count`` smallest values, so the result has the bits of a
    walk that solves every part.

    A floor is proven for the part's form, but the discrete pencil may keep
    it only as far as its quadrature does (the mapped elements of
    epsdomain), which is measured, not proven.  So every solved part with a
    floor is checked against it: a value below the floor raises
    SolverError, as a certification by that floor could have dropped a
    value unseen.

    The merge sorts by value, ties going to the earlier part and then to
    the earlier index in it, and takes the ``count`` smallest copies.
    Returns (taken, records): each copy taken as (value, part, index in the
    part, copy), and per part its label followed by status ("solved" or
    "certified"), rule, floor, shift, eigenvalues, kept (its copies taken)
    and seconds (building the part included), and then a solved part's
    solver record: a ``seconds`` there, a solve's own time, replaces the
    walk's in its place."""
    records, found = [], []     # every copy: (value, part, index, copy)
    start = time.perf_counter()
    for i, (label, certify, floor, mult, solve) in enumerate(parts):
        rule = shift = None
        if i >= 2 and len(found) >= count:
            lam_star = sorted(found)[count - 1][0]
            shift = lam_star + 1e-3 * abs(lam_star)
            if floor is None:
                rule = certify(shift)
            elif floor > shift:
                rule = "floor"
        record = {**label, "status": "solved" if rule is None else "certified",
                  "rule": rule, "floor": floor, "shift": shift,
                  "eigenvalues": [], "kept": 0}
        if rule is None:
            values, solver = solve()
            record["eigenvalues"] = [float(v) for v in values]
            low = min(record["eigenvalues"])
            if floor is not None and low < floor:
                raise SolverError("part %s: eigenvalue %.17g below its floor "
                                  "%.17g" % (label, low, floor))
            found += [(v, i, j, c) for j, v in enumerate(record["eigenvalues"])
                      for c in range(mult)]
        record["seconds"] = time.perf_counter() - start
        if rule is None:
            record.update(solver)
        records.append(record)
        start = time.perf_counter()
    taken = sorted(found)[:count]
    for _, i, _, _ in taken:
        records[i]["kept"] += 1
    return taken, records


def solve_smallest(A, B, count, shift, stats=None):
    """The ``count`` eigenpairs of A x = lambda B x nearest (from above) the
    shift, i.e. the smallest ones when the shift sits below the spectrum.
    B must be positive definite.  A is a sparse Hermitian matrix or a
    ``Gram``; either is solved on the ``FormedLU`` of A - shift B.  When
    that fails or stalls, a Gram pencil is solved from the same start on a
    pivoted ``AugmentedLU``: the stalled factor, its scaled mass with it,
    is released before the pivoted one is built.  An assembled pencil
    raises SolverError with the stalled moves.  For a Gram pencil B may be
    a callable that forms the mass; it is then formed in each factor's
    setup (again for a fallback), and nothing keeps it unscaled.
    Eigenvalues are the Ritz values of the factor's stiffness projection
    (``gram``: for a Gram, the Gram matrix of G V); eigenvectors come back
    B-orthonormal, sorted by eigenvalue, those of a Gram pencil
    orthonormalized in the scaled variables, against Bs.

    ``stats``, a dict, receives the solver record: the factor's size, kind,
    fill and work (``_Factor.stats``), ``factorizations`` (2 after a
    fallback, which also records the stalled ``formed_moves``), the
    ``start`` block ("dense" or "random", ``_initial_block``), the
    subspace ``rounds``, and the final worst shift-inverted ``residual``
    with the ``gate`` it passed."""
    n = A.shape[0]
    k = count
    if k < 1 or k > n:
        raise SolverError("requested %d eigenpairs of an order-%d problem"
                          % (k, n))
    record = {"factorizations": 1}
    try:
        fac = FormedLU(A, B, shift)
        lam, vec, info = _subspace_iteration(fac, _initial_block(fac, k), k)
    except _Stall as stall:
        if not isinstance(A, Gram):
            raise
        record = {"factorizations": 2, "formed_moves": stall.args[0]}
        fac = None      # its scaled mass goes before the pivoted factor
    if fac is None:
        fac = AugmentedLU(A, B, shift)
        lam, vec, info = _subspace_iteration(fac, _initial_block(fac, k), k)
    if stats is not None:
        start = "dense" if _dense_seed(fac, k) else "random"
        stats.update({**fac.stats(), **record, "start": start, **info})
    # vdot's summation order (hence the last bits) follows the memory
    # layout; the returned vectors are orthonormalized in C order
    if isinstance(A, Gram):
        return lam, fac.d[:, None] * _b_orthonormalize(
            fac.Bs, np.ascontiguousarray(vec), skip=1e-10)
    vec = vec * fac.d[:, None]
    return lam, _b_orthonormalize(B, np.ascontiguousarray(vec), skip=1e-10)


def _dense_seed(fac, count):
    """Whether the factor's pencil starts from dense eigh rather than from
    a random block: an assembled pencil (not a Gram) that asks for nearly
    all its eigenpairs, or whose As is stored dense, 2 nnz(As) >= n^2,
    where dense eigh costs the n^3 of the factorization anyway.  The 1D
    limit pencils (storage density 0.047 at n = 190-191, below 0.2 from
    n = 47) take the random block: 3-4 rounds per mode solve of
    ``limit-spec --count 3 --modes 8`` (3-8 from the seed), 4 at count 20
    (7-9), and bits that do not depend on the BLAS thread count.  A fully
    dense pencil keeps the seed: from a random block the 50 x 50 random
    pencil of ``verify`` takes 22 rounds, past MAX_ROUNDS."""
    n = fac.Bs.shape[0]
    return fac.G is None and (count > max(1, n - 2)
                              or 2 * fac.As.nnz >= n * n)


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
    eigenvectors by dense eigh where ``_dense_seed`` allows it, otherwise
    a random block of max(2 count, count + 8) columns drawn from SEED,
    whose guard columns let the count-th vector converge in a few rounds
    from a random start."""
    n = fac.Bs.shape[0]
    if _dense_seed(fac, count):
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
    imaginary parts with one factor) on the ``FormedLU`` of A with one
    step of iterative refinement.  Raises SolverError when A cannot be
    factored, or when the normwise backward error in equilibrated
    variables, ||b_s - A_s y|| against ||A_s||_1 ||y|| + ||b_s|| with
    A_s = D A D, b_s = D rhs and x = D y, exceeds 1e-8; for a complex rhs
    on a real A each part is tested on its own.  That check is weak on the
    h^{-6}-conditioned systems: it passes solutions whose equilibrated
    residual is a sizeable fraction of the data norm."""
    rhs = np.asarray(rhs)
    rhs = rhs.astype(np.result_type(A.dtype, rhs.dtype, float), copy=False)
    fac = FormedLU(A, None, 0.0)
    bs = fac.d * rhs
    y = fac.solve(bs)
    y += fac.solve(bs - fac.apply(y))
    norm_a = spla.norm(fac.As, 1)
    parts = [(bs, y)]
    if np.iscomplexobj(bs) and not fac.complex:
        parts = [(bs.real, y.real), (bs.imag, y.imag)]
    for b, x in parts:
        nr = np.linalg.norm(b - fac.apply(x))
        scale = norm_a * np.linalg.norm(x) + np.linalg.norm(b)
        if nr > 1e-8 * max(scale, 1e-300):
            raise SolverError("linear backward error %.3e exceeds tolerance"
                              % (nr / max(scale, 1e-300)))
    return fac.d * y
