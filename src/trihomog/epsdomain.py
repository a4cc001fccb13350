"""Direct solver on the oscillating domain, pulled back to the reference
rectangle.

The triharmonic intermediate form on Omega_eps (unit torus tangentially,
oscillating graph boundary above 0) is composed with the global vertical
stretch Psi(xbar, t) = (xbar, t + (t+1) g_eps(xbar)), which maps the
reference rectangle onto Omega_eps.  At every quadrature point the forward
map jet is inverted (chain-rule kernels from the jets module), the physical
third derivatives of the tensor-Hermite shape functions are expressed in
reference derivatives, and

    (D^3 u : D^3 v + u v) |det J|

is integrated.  EpsAssembly computes the per-row chain-rule tables once,
vectorised over whole horizontal element rows, and caches them: the
quadrature energies, the load vectors, the matrices and the least-squares
factor of the stiffness reuse them.  The third-derivative table, most of
a row's memory, is cached only for the element columns the solves
assemble (_block_columns) and recomputed for any other reader.  The
matrices and the factor share one source, the weighted evaluation rows
of each element (_element_rows): an element stiffness is their Gram
matrix, its factor their QR triangle, and an element mass the Gram
matrix of their value rows.  The matrices are assembled only when read,
from the element columns a solve needs, one element row after another in
the calling thread.

Mesh rule: elements_per_period tangential elements per oscillation period
(spacing <= eps/4 by default) and a vertical mesh with a geometric layer in
(-2 eps, 0), resolving the boundary layer that drives the strange term.

The pulled-back coefficients are eps-periodic, so the torus matrices and
the least-squares factor are block-circulant over the periods: the rows of
period block 0, cut by period offset -1, 0, +1 (_offset_blocks), give
every Bloch matrix as a phase sum (_bloch).  The spectrum is one Hermitian
pencil per quasimomentum (solve_eps_spectrum_bloch), solved with every
residual and Ritz value formed through the factor G_theta of one period
(EpsAssembly._factor) and checked on its own Gram, so no eigenvalue
carries the h^{-6} rounding of an assembled matrix;
the Poisson problem is one linear system per discrete Fourier mode of the
load (solve_eps_poisson).  Neither builds the torus matrices.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse

from .hermite import (QUAD_ORDER, Mesh1D, build_space_2d, element_gram,
                      gauss_rule, is_integer, reference_table,
                      scatter_elements, to_csr, to_element)
from .jets import (multi_indices, multinomial, index_order,
                   invert_shear_derivs, transform_coeffs)
from .numerics import (FACTOR_LOCK, Gram, solve_linear, solve_smallest,
                       walk_spectrum)
from .oscillation import OscillationProfile, PerturbationParams

IDX10 = tuple(multi_indices(2))               # all |beta| <= 3, graded lex
IDX3 = tuple(b for b in IDX10 if index_order(b) == 3)
MULT3 = np.array([multinomial(b) for b in IDX3], dtype=float)
MAX_COUNT = 20          # the mesh resolves only the low end of the spectrum


class EpsError(ValueError):
    pass


def check_mesh(elements_per_period, n_coarse, n_layer):
    """The mesh rules of EpsProblem: integer counts, >= 4 tangential
    elements per period, at least one vertical element below and one inside
    the boundary layer, and >= 16 vertical elements in all; EpsError when
    one is broken."""
    for name, value in (("elements_per_period", elements_per_period),
                        ("n_coarse", n_coarse), ("n_layer", n_layer)):
        if not is_integer(value):
            raise EpsError("%s must be an integer, got %r" % (name, value))
    if elements_per_period < 4:
        raise EpsError("need >= 4 tangential elements per period")
    if n_coarse < 1 or n_layer < 1:
        raise EpsError("need >= 1 vertical element below and inside the "
                       "boundary layer")
    if n_coarse + n_layer < 16:
        raise EpsError("need >= 16 vertical elements")


def check_count(count):
    """The rule solve_eps_spectrum_bloch enforces on its eigenvalue count:
    an integer in 1..MAX_COUNT; EpsError when it is broken."""
    if not is_integer(count) or not 1 <= count <= MAX_COUNT:
        raise EpsError("count must be an integer in 1..%d (the mesh resolves "
                       "only the low end), got %r" % (MAX_COUNT, count))


@dataclass(frozen=True)
class EpsProblem:
    """One oscillating-domain solve: profile, perturbation (eps, alpha), and
    mesh parameters."""
    profile: OscillationProfile
    params: PerturbationParams
    elements_per_period: int = 4
    n_coarse: int = 16
    n_layer: int = 8

    def __post_init__(self):
        if self.profile.dim != 1:
            raise EpsError("direct solver is N = 2 only (1D tangential)")
        check_mesh(self.elements_per_period, self.n_coarse, self.n_layer)
        if self.params.epsilon >= 0.5:
            # the boundary layer (-2 eps, 0) must fit in (-1, 0); this also
            # guarantees the >= 3 periods of the Bloch path
            raise EpsError("eps too large for the boundary-layer mesh")

    @property
    def nx(self):
        return self.elements_per_period * self.params.periods


def vertical_mesh(eps, n_coarse, n_layer):
    """Vertical mesh on (-1, 0): uniform below -2 eps, geometric layer with
    0.75 shrink per element inside (-2 eps, 0) so the smallest elements sit
    at the oscillating side."""
    split = -2.0 * eps
    if split <= -1.0:
        raise EpsError("eps too large for the boundary-layer mesh")
    coarse = np.linspace(-1.0, split, n_coarse + 1)
    sizes = 0.75 ** np.arange(n_layer)
    sizes *= (0.0 - split) / sizes.sum()
    layer = split + np.cumsum(sizes)
    layer[-1] = 0.0
    return Mesh1D(np.concatenate([coarse, layer]))


def _block_columns(columns, elements_per_period):
    """The element columns of a ring of ``columns`` columns whose elements
    touch the dofs of period block 0: 0..elements_per_period-1 and the
    last column, ascending (every column of a one-period ring)."""
    return np.unique(np.append(np.arange(elements_per_period), columns - 1))


def _element_rows(geo, cols):
    """The 5 nq^2 weighted evaluation rows (len(cols), 5 nq^2, 36) of each
    element of the element columns ``cols`` of one row (_row_geometry):
    sqrt(mult_b w detJ) (C3 T)_b for the four third derivatives b and
    sqrt(w detJ) T_0 for the value, so that rows' rows is the element
    stiffness.  C3 is read through the row's column -> slot map, so the
    row must keep C3 for every column of ``cols`` (EpsAssembly._tables).
    The products work element by element, so any subset of columns gets
    the bits of the whole row."""
    C3, detj, w, T = geo["C3"], geo["detJ"], geo["w"], geo["T"]
    root = np.sqrt(detj[cols] * w[None, :])                      # (i,q)
    Tq = T.transpose(1, 0, 2)                                    # (q,10,36)
    D3 = np.matmul(C3[:, :, geo["slot"][cols]].transpose(2, 3, 0, 1),
                   Tq)                                           # (i,q,4,36)
    D3 *= (root[:, :, None] * np.sqrt(MULT3))[..., None]
    rows = np.concatenate([D3, (root[:, :, None] * T[0])[:, :, None]],
                          axis=2)                                # (i,q,5,36)
    return rows.reshape(len(cols), -1, 36)


def _stiffness_elements(geo, cols):
    """Stiffness element matrices (len(cols), 36, 36) of the element columns
    ``cols`` of one row: the Gram matrices of _element_rows."""
    return element_gram(_element_rows(geo, cols))


def _factor_elements(geo, cols):
    """Least-squares factors R (len(cols), 36, 36) of the stiffness element
    matrices of the element columns ``cols`` of one row: the upper
    triangles of one batched QR of _element_rows, the 36 rows of G each
    element contributes (EpsAssembly._factor)."""
    return np.linalg.qr(_element_rows(geo, cols), mode="r")


def _mass_elements(geo, cols):
    """Mass element matrices of the element columns ``cols`` of one row:
    the Gram matrices of the value rows sqrt(w detJ) T_0 of
    _element_rows."""
    root = np.sqrt(geo["detJ"][cols] * geo["w"][None, :])
    return element_gram(root[:, :, None] * geo["T"][0])


class EpsAssembly:
    """Row geometry of the pulled-back problem on a ring of element columns,
    and the matrices and the factor assembled from it when they are read.

    ``__init__`` computes the chain-rule tables of every horizontal element
    row (_row_geometry) and caches them; the quadrature energies, the load
    vector, the limit comparison, the matrices and the factor all read
    them, the stiffness and the factor through the same element rows
    (_element_rows).  The cache keeps the third-derivative table C3, most
    of a row's memory, only for the columns the solves assemble
    (_block_columns: period block 0 and its couplings); every other table
    is kept for every column.  A reader of C3 in any other column (the
    quadrature energies, an assembly of other columns) gets the row's full
    tables recomputed, bit for bit, for the moment it reads them
    (_tables).  ``_matrix`` and ``_factor`` assemble any subset of the
    columns."""

    def __init__(self, problem, columns=None):
        """``columns`` restricts the ring to that many tangential element
        columns (with ring topology) while keeping the true element size
        1/nx; used by the Bloch eigen path, which only needs one period
        block and its neighbour couplings (from a 3-period ring), and by the
        one-period ring of eps-periodic Poisson data.  EpsError unless the
        ring spans whole periods."""
        self.problem = problem
        self.columns = problem.nx if columns is None else columns
        epp = problem.elements_per_period
        if self.columns < epp or self.columns % epp:
            raise EpsError("a ring spans whole periods: columns must be a "
                           "positive multiple of %d, got %r"
                           % (epp, self.columns))
        vm = vertical_mesh(problem.params.epsilon, problem.n_coarse,
                           problem.n_layer)
        self.space = build_space_2d(self.columns, vm)
        t0 = time.perf_counter()
        keep = _block_columns(self.columns, epp)
        self._rows = [self._row_geometry(j, keep)
                      for j in range(vm.n_elements)]
        self.geometry_seconds = time.perf_counter() - t0

    # -- geometry -----------------------------------------------------------

    @staticmethod
    def _shape_tables(hx, ht):
        """T[g, q, l]: reference derivative g (index into IDX10) of local
        shape l at the flattened quadrature point q."""
        ref = reference_table()
        nq = ref.shape[1]
        fx = [to_element(ref[m], hx, m) for m in range(4)]     # (nq, 6) each
        ft = [to_element(ref[n], ht, n) for n in range(4)]
        T = np.empty((len(IDX10), nq * nq, 36))
        for gi, (m, n) in enumerate(IDX10):
            T[gi] = (fx[m][:, None, :, None] * ft[n][None, :, None, :]
                     ).reshape(nq * nq, 36)
        return T

    def _row_geometry(self, j, keep):
        """The tables of element row j at all quadrature points (flattened
        index q = qx * nq + qt): C3 (third-derivative transform rows) of
        the ascending element columns ``keep`` only, ``slot``, the map
        from a column to its index in C3 (one past the end for a column
        not kept, so that reading it raises), and for every column detJ,
        the physical coordinates x and tau, the shape table T, the element
        dofs and the quadrature weights w.  The chain-rule coefficients
        are computed for every column and C3 copies those of ``keep``, so a
        kept column has the bits of the full table."""
        problem, space = self.problem, self.space
        cols = self.columns
        sq, wq = gauss_rule(QUAD_ORDER)
        nq = len(sq)
        hx = 1.0 / problem.nx
        tn = space.vmesh.nodes
        ht = tn[j + 1] - tn[j]
        xq = (np.arange(cols)[:, None] + sq[None, :]) * hx       # (cols, nq)
        tq = tn[j] + ht * sq                                     # (nq,)
        xbar = xq[..., None, None]                               # (nx,nq,1,1)
        forward = problem.profile.pullback_derivs(problem.params, xbar, tq)
        forward = {k: np.broadcast_to(np.asarray(v, dtype=float),
                                      xq.shape + tq.shape)
                   for k, v in forward.items()}
        tau = forward[(0, 0)]
        inverse = invert_shear_derivs(forward, 2)
        coeffs, det_jacobian = transform_coeffs(inverse, 2)
        C3 = np.zeros((len(IDX3), len(IDX10), len(keep), nq * nq))
        for bi, beta in enumerate(IDX3):
            row = coeffs[beta]
            for gi, gamma in enumerate(IDX10):
                if gamma in row:
                    val = np.broadcast_to(np.asarray(row[gamma], dtype=float),
                                          tau.shape)
                    C3[bi, gi] = val.reshape(cols, nq * nq)[keep]
        slot = np.full(cols, len(keep))
        slot[keep] = np.arange(len(keep))
        detj = np.broadcast_to(det_jacobian, tau.shape
                               ).reshape(cols, nq * nq)
        return {"C3": C3, "slot": slot, "detJ": detj,
                "tau": tau.reshape(cols, nq * nq),
                "x": np.repeat(xq, nq, axis=1),
                "T": self._shape_tables(hx, ht),
                "dofs": space.element_dofs_2d(np.arange(cols), j),
                "w": np.outer(wq, wq).ravel() * hx * ht}

    def _tables(self, j, cols):
        """The tables of element row j with C3 for the element columns
        ``cols``: the cached row when it keeps them, otherwise the row's
        full tables, recomputed (_row_geometry) and not cached."""
        geo = self._rows[j]
        if np.all(geo["slot"][cols] < geo["C3"].shape[2]):
            return geo
        return self._row_geometry(j, np.arange(self.columns))

    # -- matrices -----------------------------------------------------------

    def _matrix(self, kind, cols):
        """The ``kind`` matrix ("stiffness" or "mass") on the free dofs,
        summing the elements of the ascending element columns ``cols`` of
        every row, row by row; the element matrices of a column equal those
        of a whole-row assembly bit for bit (_element_rows,
        _mass_elements)."""
        elements = {"stiffness": _stiffness_elements,
                    "mass": _mass_elements}[kind]
        parts = []
        for j, geo in enumerate(self._rows):
            parts.append(scatter_elements(
                self.space, geo["dofs"][cols],
                elements(self._tables(j, cols), cols)))
        return to_csr(self.space, parts)

    def _factor(self, cols):
        """The least-squares factor of the stiffness of the element columns
        ``cols`` as one CSR matrix over the free dofs: the 36 rows of R
        (_factor_elements) of each of their elements, row after row."""
        upper = np.triu(np.ones((36, 36), dtype=bool))
        parts = []
        for j, geo in enumerate(self._rows):
            R = _factor_elements(self._tables(j, cols), cols)
            first = (j * len(cols) + np.arange(len(cols))) * 36
            r = np.broadcast_to((first[:, None] + np.arange(36))[:, :, None],
                                R.shape)
            c = np.broadcast_to(
                self.space.full_to_free[geo["dofs"][cols]][:, None], R.shape)
            keep = upper & (c >= 0)
            parts.append((r[keep], c[keep], R[keep]))
        rows, free, vals = map(np.concatenate, zip(*parts))
        if not np.all(np.isfinite(vals)):
            raise EpsError("non-finite entries in eps assembly")
        return sparse.csr_matrix(
            (vals, (rows, free)),
            shape=(len(self._rows) * len(cols) * 36, self.space.n_free))

    # -- quadrature energies ------------------------------------------------

    def _element_values(self, geo, full, gammas):
        """u_gamma at all quadrature points of one row for the listed
        reference-derivative indices; shape (len(gammas), i, q)."""
        xe = full[geo["dofs"]]                                   # (i,36)
        T = geo["T"]
        out = np.empty((len(gammas),) + geo["detJ"].shape)
        for k, gi in enumerate(gammas):
            out[k] = xe @ T[gi].T
        return out

    def energies(self, free_vec):
        """(stiffness energy, mass energy) of a dof vector, evaluated by
        quadrature of the pulled-back derivatives (sum of squares; avoids
        the h^{-6} cancellation of the matrix quadratic form)."""
        full = self.space.embed(np.asarray(free_vec, dtype=float))
        every = np.arange(self.columns)
        ea = eb = 0.0
        for j in range(len(self._rows)):
            geo = self._tables(j, every)
            u = self._element_values(geo, full, range(len(IDX10)))
            p = np.einsum('bgiq,giq->biq', geo["C3"], u, optimize=True)
            dens = np.einsum('b,biq->iq', MULT3, p ** 2) + u[0] ** 2
            w = geo["detJ"] * geo["w"][None, :]
            ea += float(np.sum(dens * w))
            eb += float(np.sum(u[0] ** 2 * w))
        return ea, eb

    def domain_area(self):
        """Quadrature of 1 over the pulled-back domain; equals |Omega_eps| =
        1 + eps^alpha b_0 up to quadrature error."""
        return float(sum(np.sum(g["detJ"] * g["w"][None, :])
                         for g in self._rows))

    def assemble_rhs(self, f):
        """Load vector of f given on the physical domain: integrates
        f(x, tau) phi |det J| with the cached row tables."""
        full = np.zeros(self.space.n_full)
        for geo in self._rows:
            fv = np.asarray(f(geo["x"], geo["tau"]), dtype=float)
            load = (fv * geo["detJ"] * geo["w"][None, :]) @ geo["T"][0]
            np.add.at(full, geo["dofs"].ravel(), load.ravel())
        return full[self.space.free_to_full]


@dataclass(frozen=True)
class EpsEigenResult:
    problem: EpsProblem
    eigenvalues: np.ndarray
    dof: int
    assembly_seconds: float
    solve_seconds: float
    #: one record per Bloch pencil (see solve_eps_spectrum_bloch)
    pencils: list

    def to_dict(self):
        return {"alpha": self.problem.params.alpha,
                "eps": self.problem.params.epsilon,
                "eigs": [float(v) for v in self.eigenvalues],
                "dof": int(self.dof),
                "assembly_seconds": self.assembly_seconds,
                "solve_seconds": self.solve_seconds,
                "pencils": self.pencils}


def _period_blocks(assembly):
    """The number of periods the ring spans and the period block size m of
    its free dofs."""
    periods = assembly.columns // assembly.problem.elements_per_period
    return periods, assembly.space.n_free // periods


def _period_rows(assembly, kind):
    """The offset blocks (_offset_blocks) of the rows of period block 0 of
    the ``kind`` matrix.  Only the elements of the block columns
    (_block_columns) touch those rows, so only these columns are assembled
    (EpsAssembly._matrix): the rows equal those of the whole assembly bit
    for bit."""
    periods, m = _period_blocks(assembly)
    cols = _block_columns(assembly.columns,
                         assembly.problem.elements_per_period)
    return _offset_blocks(assembly._matrix(kind, cols)[:m], m, periods)


def _offset_blocks(M, m, periods):
    """The column blocks of M, a CSR matrix whose rows belong to period
    block 0, keyed by period offset: block b has offset b when 2 b <=
    periods and b - periods otherwise, so on one or two periods every block
    has one key.  Only the blocks holding entries are kept; EpsError for an
    offset other than -1, 0 and +1.  The coefficients are eps-periodic, so
    the rows of every other period block are those of block 0, shifted."""
    blocks = {}
    for b in map(int, np.flatnonzero(np.bincount(M.indices // m))):
        k = b if 2 * b <= periods else b - periods
        if abs(k) > 1:
            raise EpsError("coupling beyond neighbouring periods")
        blocks[k] = M[:, b * m:(b + 1) * m]
    return blocks


def _bloch(blocks, p, P):
    """The Bloch matrix of quasimomentum theta = 2 pi p / P, the sum of the
    offset blocks (_offset_blocks) 0, +1, -1 with the phases 1, z, conj(z),
    z = exp(i theta), in that order; z is taken real at p = 0 and p = P/2,
    where it is."""
    z = np.exp(1j * (2.0 * np.pi * p / P))
    if p == 0 or 2 * p == P:
        z = z.real
    H = blocks[0]
    for k, phase in ((1, z), (-1, np.conj(z))):
        if k in blocks:
            H = H + phase * blocks[k]
    return H


def _hermitian(H):
    """H averaged with its conjugate transpose, as CSC: the sum H + H^H,
    halved in place.  The transpose shares H's index arrays, and a real
    one its data too."""
    H = H.tocsc()
    H = H + H.T.conj(copy=False)
    H.data *= 0.5
    return H


def _gram_blocks(G):
    """The offset blocks of the Gram of the factor whose offset blocks are
    G: G_0'G_0 + G_1'G_1, G_0'G_1 and G_1'G_0 (G_1 = G_+1)."""
    return {0: G[0].T @ G[0] + G[1].T @ G[1], 1: G[0].T @ G[1],
            -1: G[1].T @ G[0]}


def solve_eps_spectrum_bloch(problem, count, assembly=None):
    """Lowest eigenvalues of the oscillating-domain problem via the Bloch
    (block-circulant) reduction: one complex Hermitian solve per
    quasimomentum, merged with multiplicity two for conjugate pairs.  Exact
    for the discrete pencil up to the roundoff periodicity of the sampled
    coefficients; the one eps eigen entry point, since the full torus pencil
    does not fit at production sizes.  ``assembly`` must span >= 3 periods
    (a three-period ring by default), so that its blocks are the torus's.
    The form contains + int u^2, so the spectrum sits above 1 and the shift
    0.5 lies safely below it.

    The stiffness of each pencil is the Gram of the least-squares factor
    G_theta (offset blocks G_0'G_0 + G_1'G_1, G_0'G_1 and G_1'G_0,
    G_1 = G_+1); only the mass is assembled.  A solve factors that formed
    Gram (numerics.FormedLU), but refines each solve on a residual formed
    through G_theta, and its
    eigenvalues are the Ritz values of the Gram matrix of G_theta V.  A
    pencil on which that refinement stalls is solved on the pivoted
    augmented system of G_theta (numerics.AugmentedLU).

    The pencils p = 0, 1, ..., P/2 are the parts of
    ``numerics.walk_spectrum`` (multiplicity 2 for 0 < p < P/2), which skips
    a pencil certified empty; its Gram and mass matrices are
    Hermitian-averaged, and formed only inside the setup of its factor
    (they reach numerics.solve_smallest as callables, and no unscaled copy
    outlives the setup).  A pencil's floor is
    1 + (2 pi q)^6, q = min(p, P - p) (q = p on the walk's p <= P/2), by
    the cap lemma, so every part has a floor and needs no ``certify``: the
    form holds |d_x^3 u|^2 with weight 1 in |D^3 u|^2, so it suffices that
    int |d_x^3 u|^2 >= (2 pi q)^6 int |u|^2 on every horizontal line of
    Omega_eps.  A line y <= min g_eps is the whole unit circle, where a
    Bloch function of pencil p has only the Fourier modes m = p (mod P),
    |m| >= q, and Parseval gives the bound.  A line through the cap
    0 < y < g_eps breaks into segments of length <= eps, at whose ends the
    intermediate condition u = grad u = 0 on the graph gives u = u_x = 0,
    so u_xx has zero mean; three Poincare steps give (pi / eps)^6 >=
    (2 pi q)^6 there, as 2 q <= P = 1 / eps.  The element space is
    conforming, so the discrete pencil keeps the floor up to the
    quadrature of the mapped elements, which is measured, not proven: the
    walk checks every pencil it solves against its floor, and the tests
    every pencil of a ring.

    The walk solves p = 0 and p = 1 unchecked whatever the count, so the
    pair is solved before it reads them, overlapped: p = 1 on the calling
    thread, p = 0 on one worker thread, submitted by p = 1's stiffness
    callable under numerics.FACTOR_LOCK (so a p = 1 that fails before it
    forms its stiffness starts no worker).  p = 0 takes and releases the
    lock before it starts its clock: factorizations take it one at a time,
    so the complex p = 1 factors first and the two overlap in their solves.
    The walk solves any later pencil itself.  The pair forms its stiffness
    from one set of Gram offset blocks, dropped once both have formed it;
    a later solved pencil forms its own from G, by the same operations, so
    to the same bits.  The call returns only after the
    worker has ended, also when a pencil raises, which reaches the
    caller.
    ``pencils`` of the result holds the walk's records, labelled by p and
    theta; a solved pencil's record also holds the solver record of
    numerics.solve_smallest (n, nnz of G_theta, fill, factor, move,
    refine_steps, block_solves, factorizations, after a fallback
    formed_moves, start, rounds, residual, gate), and its ``seconds``,
    which the walk takes from that record, are its own build and solve,
    timed on the thread that solved it, not the walk's wait for it.
    ``assembly_seconds`` counts the row geometry, the factor and the
    blocks; ``solve_seconds`` starts after them."""
    check_count(count)
    if assembly is None:
        assembly = EpsAssembly(problem,
                               columns=3 * problem.elements_per_period)
    t0 = time.perf_counter()
    periods, m = _period_blocks(assembly)
    if periods < 3:
        raise EpsError("Bloch extraction needs >= 3 assembled periods")
    G = _offset_blocks(
        assembly._factor(np.arange(problem.elements_per_period)), m, periods)
    # the unchecked pair forms its stiffness from one set of Gram blocks,
    # dropped once both have; any later pencil forms its own from G
    pair_blocks = dict.fromkeys((0, 1), _gram_blocks(G))
    # as CSC, the format of the Gram blocks, so that _hermitian converts
    # neither sum
    mass = {k: b.tocsc() for k, b in _period_rows(assembly, "mass").items()}
    t_solve = time.perf_counter()
    assembly_seconds = assembly.geometry_seconds + t_solve - t0
    # the walk reads the blocks alone; unless the caller holds the assembly,
    # its row tables, most of the ring's memory, are freed before the solves
    del assembly
    P = problem.params.periods

    def stiffness(p):
        # formed inside p's factor setup, under numerics.FACTOR_LOCK; p = 1,
        # forming it from the pair's blocks, hands p = 0 to the worker
        if p == 1 and p in pair_blocks:
            pair[0] = worker.submit(pair[0]).result
        blocks = pair_blocks.pop(p, None) or _gram_blocks(G)
        return _hermitian(_bloch(blocks, p, P))

    def solve(p):
        # the worker's p = 0 waits here until p = 1's factor setup releases
        # the lock, so it factors second and its clock starts after the wait
        with FACTOR_LOCK:
            pass
        start = time.perf_counter()
        stats = {}
        lam = solve_smallest(
            Gram(_bloch(G, p, P), lambda: stiffness(p)),
            lambda: _hermitian(_bloch(mass, p, P)), min(count, m - 1), 0.5,
            stats=stats)[0]
        stats["seconds"] = time.perf_counter() - start
        return lam, stats

    # the walk's solves of the pair; handing p = 0's to the worker also ends
    # the cycle stiffness -> solve, so the matrices are freed on return
    pair = {0: partial(solve, 0)}

    def part(p):
        return ({"p": p, "theta": 2.0 * np.pi * p / P}, None,
                1.0 + (2.0 * np.pi * p) ** 6,
                2 if 0 < p < P / 2 else 1, pair.get(p, partial(solve, p)))

    with ThreadPoolExecutor(max_workers=1) as worker:
        one = solve(1)
        pair[1] = lambda: one
        taken, pencils = walk_spectrum(map(part, range(P // 2 + 1)), count)
    return EpsEigenResult(problem=problem,
                          eigenvalues=np.array([t[0] for t in taken]),
                          dof=P * m,
                          assembly_seconds=assembly_seconds,
                          solve_seconds=time.perf_counter() - t_solve,
                          pencils=pencils)


def solve_eps_poisson(problem, f, assembly=None):
    """Galerkin solution of the pulled-back Poisson problem with right side
    f(x, y) given by its formula on the physical domain; returns the dof
    vector on ``assembly`` (the full torus by default) and the assembly.

    The load need not be eps-periodic, but the stiffness is block-circulant
    over the P periods an assembly spans (_offset_blocks).  The discrete
    Fourier transform over the period blocks of the load then splits the
    system into the Bloch systems H_p x_p = b_p, p = 0, ..., P/2, of order
    n_free / P (_bloch; the transforms for p > P/2 are the conjugates of
    those for P - p, since the load is real), and the inverse transform
    reassembles the ring's vector.  One period is the single system p = 0.
    The stiffness is assembled, only in the rows of period block 0
    (_period_rows); the mass is not."""
    if assembly is None:
        assembly = EpsAssembly(problem)
    rhs = assembly.assemble_rhs(f)
    P, m = _period_blocks(assembly)
    stiffness = _period_rows(assembly, "stiffness")
    loads = np.fft.rfft(rhs.reshape(P, m), axis=0)
    for p in range(len(loads)):
        loads[p] = solve_linear(_bloch(stiffness, p, P), loads[p])
    return np.fft.irfft(loads, n=P, axis=0).ravel(), assembly


def compare_to_limit(assembly, eps_vec, u_lim, align=True):
    """L^2 discrepancy over the common domain Omega between the eps solution
    (dof vector on the reference rectangle) and a limit field u_lim(x, y).

    Quadrature runs over the reference rectangle with the Jacobian; points
    whose image lies in the sliver Omega_eps minus Omega (tau > 0) are
    excluded from the discrepancy and their mass is reported separately.
    With ``align`` the eps field is scaled so both have unit L^2(Omega) norm
    and matching sign (eigenvector comparisons)."""
    full = assembly.space.embed(np.asarray(eps_vec, dtype=float))
    l2_diff = 0.0
    l2_eps = l2_lim = cross = sliver = 0.0
    samples = []
    for geo in assembly._rows:
        u = assembly._element_values(geo, full, [0])[0]          # (i,q)
        tau = geo["tau"]
        w = geo["detJ"] * geo["w"][None, :]
        v = np.asarray(u_lim(geo["x"], np.minimum(tau, 0.0)), dtype=float)
        inside = tau <= 0.0
        samples.append((u, v, w, inside))
        l2_eps += float(np.sum(u ** 2 * w * inside))
        l2_lim += float(np.sum(v ** 2 * w * inside))
        cross += float(np.sum(u * v * w * inside))
        sliver += float(np.sum(u ** 2 * w * (~inside)))
    su = sv = 1.0
    if align and l2_eps > 0 and l2_lim > 0:
        su = 1.0 / np.sqrt(l2_eps)
        sv = 1.0 / np.sqrt(l2_lim)
        if cross < 0:
            sv = -sv
    for u, v, w, inside in samples:
        l2_diff += float(np.sum((su * u - sv * v) ** 2 * w * inside))
    return {"l2_diff": float(np.sqrt(l2_diff)),
            "l2_eps": float(np.sqrt(l2_eps)),
            "l2_lim": float(np.sqrt(l2_lim)),
            "sliver_mass": float(np.sqrt(sliver))}
