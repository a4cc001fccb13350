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
factor of the stiffness reuse them.  The stiffness and its factor share
one source, the weighted evaluation rows of each element (_element_rows):
an element stiffness is their Gram matrix, its factor their QR triangle.
The matrices are assembled only when read, from the element columns a
solve needs, one element row after another in the calling thread.

Mesh rule: elements_per_period tangential elements per oscillation period
(spacing <= eps/4 by default) and a vertical mesh with a geometric layer in
(-2 eps, 0), resolving the boundary layer that drives the strange term.

The pulled-back coefficients are eps-periodic, so the torus matrices are
block-circulant over the periods and both solves split into Bloch systems
of one period block each (_bloch_blocks, _bloch_pencil): the spectrum as
one Hermitian pencil per quasimomentum (solve_eps_spectrum_bloch), the
Poisson problem as one Hermitian linear system per discrete Fourier mode of
the load over the period blocks (solve_eps_poisson).  Neither solve
builds the torus matrices: the blocks come from the epp + 1 element
columns that touch period block 0.  The spectrum solves each pencil
through the least-squares factor G_theta of its stiffness, built from the
epp element columns of one period (_factor_blocks, _bloch_factor), so its
eigenvalues do not carry the h^{-6} rounding of the assembled matrix; the
assembled pencils only serve the inertia checks of the spectrum walk.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hermite import (QUAD_ORDER, Mesh1D, build_space_2d, gauss_rule,
                      is_integer, reference_table, scatter_elements, to_csr,
                      to_element)
from .jets import (multi_indices, multinomial, index_order,
                   invert_shear_derivs, transform_coeffs)
from .numerics import Gram, solve_linear, solve_smallest, walk_spectrum
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


def vertical_mesh(eps, n_coarse=16, n_layer=8):
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


@functools.lru_cache(maxsize=None)
def _row_path(spec, shapes):
    """The contraction path einsum(optimize=True) picks for operands of
    these shapes (it depends on nothing else), worked out once per shape
    rather than for every row."""
    return np.einsum_path(spec, *map(np.empty, shapes), optimize=True)[0]


def _element_rows(geo, cols):
    """The 5 nq^2 weighted evaluation rows (len(cols), 5 nq^2, 36) of each
    element of the element columns ``cols`` of one row (_row_geometry):
    sqrt(mult_b w detJ) (C3 T)_b for the four third derivatives b and
    sqrt(w detJ) T_0 for the value, so that rows' rows is the element
    stiffness.  The products work element by element, so any subset of
    columns gets the bits of the whole row."""
    C3, detj, w, T = geo["C3"], geo["detJ"], geo["w"], geo["T"]
    root = np.sqrt(detj[cols] * w[None, :])                      # (i,q)
    Tq = T.transpose(1, 0, 2)                                    # (q,10,36)
    D3 = np.matmul(C3[:, :, cols].transpose(2, 3, 0, 1), Tq)     # (i,q,4,36)
    D3 *= (root[:, :, None] * np.sqrt(MULT3))[..., None]
    rows = np.concatenate([D3, (root[:, :, None] * T[0])[:, :, None]],
                          axis=2)                                # (i,q,5,36)
    return rows.reshape(len(cols), -1, 36)


def _stiffness_elements(geo, cols):
    """Stiffness element matrices (len(cols), 36, 36) of the element columns
    ``cols`` of one row: the Gram matrices rows' rows of _element_rows."""
    rows = _element_rows(geo, cols)
    return np.matmul(rows.transpose(0, 2, 1), rows)


def _factor_elements(geo, cols):
    """Least-squares factors R (len(cols), 36, 36) of the stiffness element
    matrices of the element columns ``cols`` of one row: the upper
    triangles of one batched QR of _element_rows, the 36 rows of G each
    element contributes (_factor_blocks)."""
    return np.linalg.qr(_element_rows(geo, cols), mode="r")


def _mass_elements(geo, cols):
    """Mass element matrices of the element columns ``cols`` of one row.
    einsum(optimize=True) chooses its contraction path by batch size, and
    the last bits follow the path, so ``cols`` alone is contracted along the
    path chosen for the whole row: that gives the bits of the whole row's
    contraction, sliced."""
    Tv = geo["T"][0]                                             # (q,36)
    spec = 'iq,qa,qb->iab'
    dw = geo["detJ"] * geo["w"][None, :]
    path = _row_path(spec, (dw.shape, Tv.shape, Tv.shape))
    return np.einsum(spec, dw[cols], Tv, Tv, optimize=path)


class EpsAssembly:
    """Row geometry of the pulled-back problem on a ring of element columns,
    and the stiffness and mass assembled from it when they are read.

    ``__init__`` computes the chain-rule tables of every horizontal element
    row (_row_geometry) and caches them; the quadrature energies, the load
    vector, the limit comparison, the matrices and the factor blocks
    (_factor_blocks) all read them, the stiffness and the factor blocks
    through the same element rows (_element_rows).  The matrices are
    assembled in the calling thread: ``stiffness`` and ``mass`` every
    column on first read, then kept; ``_matrix`` any subset of the columns,
    which is how the Bloch path builds its period blocks."""

    def __init__(self, problem, columns=None):
        """``columns`` restricts the ring to that many tangential element
        columns (with ring topology) while keeping the true element size
        1/nx; used by the Bloch eigen path, which only needs one period
        block and its neighbour couplings (from a 3-period ring), and by the
        one-period ring of eps-periodic Poisson data."""
        self.problem = problem
        self.columns = problem.nx if columns is None else columns
        vm = vertical_mesh(problem.params.epsilon, problem.n_coarse,
                           problem.n_layer)
        self.space = build_space_2d(self.columns, vm)
        t0 = time.perf_counter()
        self._rows = [self._row_geometry(j) for j in range(vm.n_elements)]
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

    def _row_geometry(self, j):
        """Cached data of element row j at all quadrature points (flattened
        index q = qx * nq + qt): C3 (third-derivative transform rows), detJ,
        the physical coordinates x and tau, the shape table T, the element
        dofs and the quadrature weights w."""
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
        C3 = np.zeros((len(IDX3), len(IDX10), cols, nq * nq))
        for bi, beta in enumerate(IDX3):
            row = coeffs[beta]
            for gi, gamma in enumerate(IDX10):
                if gamma in row:
                    val = np.broadcast_to(np.asarray(row[gamma], dtype=float),
                                          tau.shape)
                    C3[bi, gi] = val.reshape(cols, nq * nq)
        detj = np.broadcast_to(det_jacobian, tau.shape
                               ).reshape(cols, nq * nq)
        return {"C3": C3, "detJ": detj, "tau": tau.reshape(cols, nq * nq),
                "x": np.repeat(xq, nq, axis=1),
                "T": self._shape_tables(hx, ht),
                "dofs": space.element_dofs_2d(np.arange(cols), j),
                "w": np.outer(wq, wq).ravel() * hx * ht}

    # -- matrices -----------------------------------------------------------

    @functools.cached_property
    def stiffness(self):
        """Stiffness on the free dofs, every column (built on first read)."""
        return self._matrix("stiffness", np.arange(self.columns))

    @functools.cached_property
    def mass(self):
        """Mass on the free dofs, every column (built on first read)."""
        return self._matrix("mass", np.arange(self.columns))

    def _matrix(self, kind, cols):
        """The ``kind`` matrix ("stiffness" or "mass") on the free dofs,
        summing the elements of the ascending element columns ``cols`` of
        every row, row by row; the element matrices of a column equal those
        of a whole-row assembly bit for bit (_element_rows,
        _mass_elements)."""
        elements = {"stiffness": _stiffness_elements,
                    "mass": _mass_elements}[kind]
        parts = []
        for geo in self._rows:
            elems = elements(geo, cols)
            if not np.all(np.isfinite(elems)):
                raise EpsError("non-finite entries in eps assembly")
            parts.append(scatter_elements(self.space, geo["dofs"][cols],
                                          elems))
        return to_csr(self.space, parts)

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
        ea = eb = 0.0
        for geo in self._rows:
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


def _bloch_blocks(assembly, kinds):
    """Period blocks (C0, C1, Cm) of each matrix kind in ``kinds``
    ("stiffness", "mass"), in that order, and the block size m.

    The pulled-back coefficients are eps-periodic and the tangential mesh
    carries an integer number of elements per period, so stiffness and mass
    are block-circulant over the `periods` tangential blocks, with only the
    diagonal block C0 and the two nearest-neighbour couplings nonzero.  The
    pencil then splits into the complex Hermitian Bloch pencils

        C0 + exp(i theta) C1 + exp(-i theta) C1^H,   theta = 2 pi p / periods,

    each of block size n_free / (assembled periods).  A ring assembly over
    3 periods yields the same blocks as the full torus (element locality),
    which is how production sizes stay small.

    The blocks are rows of period block 0, and only the elements of columns
    0..epp-1 and of the last column touch those rows, so only these epp + 1
    columns are assembled (EpsAssembly._matrix): their rows equal those of
    the whole assembly bit for bit.  The stiffness elements are the Gram
    matrices of the element rows (_element_rows) whose QR triangles make
    the factor blocks (_factor_blocks), so G_theta^H G_theta matches the
    stiffness pencil up to roundoff."""
    topo, m = _period_blocks(assembly)
    epp = assembly.problem.elements_per_period
    cols = np.append(np.arange(epp), assembly.columns - 1)
    out = []
    for kind in kinds:
        M = assembly._matrix(kind, cols)
        C0 = M[:m, :m]
        C1 = M[:m, m:2 * m]
        Cm = M[:m, (topo - 1) * m:]
        mid = M[:m, 2 * m:(topo - 1) * m]
        if mid.nnz:
            raise EpsError("coupling beyond neighbouring periods")
        out.append((C0, C1, Cm))
    return out, m


def _period_blocks(assembly):
    """Number of assembled periods and the period block size m of the free
    dofs; EpsError unless the ring spans >= 3 whole periods."""
    epp = assembly.problem.elements_per_period
    topo = assembly.columns // epp
    if topo < 3 or assembly.columns % epp:
        raise EpsError("Bloch extraction needs >= 3 assembled periods")
    n = assembly.space.n_free
    if n % topo:
        raise EpsError("free dofs are not tangentially block-structured")
    return topo, n // topo


def _factor_blocks(assembly):
    """The period-column blocks (G1, G2) of the stiffness's least-squares
    factor over one period, as CSR: the rows of G are the 36 rows of R
    (_factor_elements) of each element of columns 0..epp-1, row after row;
    G1 holds their columns on the free dofs of period block 0, G2 those on
    block 1, which only the last column's right nodes touch.  For the
    quasimomentum theta and z = exp(i theta), G_theta = G1 + z G2 has
    G_theta^H G_theta = C0 + z C1 + conj(z) Cm of the stiffness blocks
    (_bloch_blocks) up to roundoff: the ring is eps-periodic, so the
    elements of period 0 stand in for those of the period before it."""
    _, m = _period_blocks(assembly)
    space = assembly.space
    cols = np.arange(assembly.problem.elements_per_period)
    upper = np.triu(np.ones((36, 36), dtype=bool))
    parts = []
    for j, geo in enumerate(assembly._rows):
        R = _factor_elements(geo, cols)
        first = (j * len(cols) + np.arange(len(cols))) * 36  # element's rows
        r = np.broadcast_to((first[:, None] + np.arange(36))[:, :, None],
                            R.shape)
        c = np.broadcast_to(space.full_to_free[geo["dofs"][cols]][:, None],
                            R.shape)
        keep = upper & (c >= 0)
        parts.append((r[keep], c[keep], R[keep]))
    rows, free, vals = map(np.concatenate, zip(*parts))
    if np.any(free >= 2 * m) or not np.all(np.isfinite(vals)):
        raise EpsError("bad least-squares factor of the period")
    shape = (len(assembly._rows) * len(cols) * 36, m)
    return tuple(sparse.csr_matrix((vals[free // m == b],
                                    (rows[free // m == b],
                                     free[free // m == b] % m)), shape=shape)
                 for b in (0, 1))


def _bloch_factor(blocks, p, P):
    """G_theta = G1 + z G2, z = exp(i theta), theta = 2 pi p / P, of the
    factor blocks (G1, G2) (_factor_blocks); real at p = 0 and p = P/2,
    where z is real."""
    G1, G2 = blocks
    z = np.exp(1j * (2.0 * np.pi * p / P))
    return G1 + (z.real if p == 0 or 2 * p == P else z) * G2


def _bloch_pencil(blocks, p, P):
    """The Hermitian Bloch matrix C0 + z C1 + conj(z) Cm, z = exp(i theta),
    theta = 2 pi p / P, of the period blocks (C0, C1, Cm), as CSC: averaged
    with its conjugate transpose (the assembled blocks are symmetric only up
    to roundoff) and real at p = 0 and p = P/2, where z is real."""
    C0, C1, Cm = blocks
    z = np.exp(1j * (2.0 * np.pi * p / P))
    H = (C0 + z * C1 + np.conj(z) * Cm).tocsc()
    H = 0.5 * (H + H.getH())
    return H.real if p == 0 or 2 * p == P else H


def solve_eps_spectrum_bloch(problem, count, assembly=None):
    """Lowest eigenvalues of the oscillating-domain problem via the Bloch
    (block-circulant) reduction: one complex Hermitian solve per
    quasimomentum, merged with multiplicity two for conjugate pairs.  Exact
    for the discrete pencil up to the roundoff periodicity of the sampled
    coefficients; the one eps eigen entry point, since the full torus pencil
    does not fit at production sizes.  Each pencil is solved through the
    least-squares factor G_theta of its stiffness (_factor_blocks,
    numerics.AugmentedLU), never through the assembled h^{-6} matrix, and
    its eigenvalues are the Ritz values of the Gram matrix of G_theta V.
    The form contains + int u^2, so the spectrum sits above 1 and the shift
    0.5 lies safely below it.

    The pencils p = 0, 1, ..., P/2 are the parts of
    ``numerics.walk_spectrum`` (multiplicity 2 for 0 < p < P/2), which skips
    a pencil that ``count_below`` certifies empty on its assembled matrices.
    A solve's move is the largest gap between a factored eigenvalue and the
    Rayleigh quotient of its eigenvector on the assembled pencil, which the
    walk's check shift covers.  ``pencils`` of the result holds the walk's
    records, labelled by p and theta; a solved pencil's record also holds
    the solver record of numerics.solve_smallest (n, nnz of G_theta, fill,
    pivoting, move, factorizations, block_solves, rounds, residual, gate).
    ``assembly_seconds`` counts the row geometry, the period blocks and the
    factor blocks; ``solve_seconds`` starts after them."""
    check_count(count)
    if assembly is None:
        assembly = EpsAssembly(problem,
                               columns=3 * problem.elements_per_period)
    t0 = time.perf_counter()
    (stiffness, mass), m = _bloch_blocks(assembly, ("stiffness", "mass"))
    factor = _factor_blocks(assembly)
    t_solve = time.perf_counter()
    assembly_seconds = assembly.geometry_seconds + t_solve - t0
    # the walk reads the blocks alone; unless the caller holds the assembly,
    # its row tables, most of the ring's memory, are freed before the solves
    del assembly
    P = problem.params.periods
    solved = {}

    def part(p):
        Ah = _bloch_pencil(stiffness, p, P)
        Bh = _bloch_pencil(mass, p, P)

        def solve():
            stats = solved[p] = {}
            lam, vec = solve_smallest(Gram(_bloch_factor(factor, p, P)), Bh,
                                      min(count, m - 1), 0.5, stats=stats)
            assembled = (np.sum(vec.conj() * (Ah @ vec), axis=0).real
                         / np.sum(vec.conj() * (Bh @ vec), axis=0).real)
            return lam, float(np.max(np.abs(lam - assembled)))
        return ({"p": p, "theta": 2.0 * np.pi * p / P}, (Ah, Bh),
                2 if 0 < p < P / 2 else 1, solve)

    taken, pencils = walk_spectrum((part(p) for p in range(P // 2 + 1)),
                                   count)
    for record in pencils:
        record.update(solved.get(record["p"], {}))
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
    over the P >= 3 periods an assembly spans (see _bloch_blocks).  The
    discrete Fourier transform over the period blocks of the load then
    splits the system into the Bloch systems H_p x_p = b_p,
    p = 0, ..., P/2, of order n_free / P (_bloch_pencil; the
    transforms for p > P/2 are the conjugates of those for P - p, since the
    load is real), and the inverse transform reassembles the torus vector;
    only the stiffness blocks are assembled.  A ring of one or two periods
    is solved directly with its full stiffness: it is its own only block.
    Neither path assembles the mass."""
    if assembly is None:
        assembly = EpsAssembly(problem)
    rhs = assembly.assemble_rhs(f)
    if assembly.columns < 3 * problem.elements_per_period:
        return solve_linear(assembly.stiffness.tocsc(), rhs), assembly
    (stiffness,), m = _bloch_blocks(assembly, ("stiffness",))
    P = assembly.columns // problem.elements_per_period
    loads = np.fft.rfft(rhs.reshape(P, m), axis=0)
    for p in range(len(loads)):
        loads[p] = solve_linear(_bloch_pencil(stiffness, p, P), loads[p])
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
