"""H^3-conforming quintic Hermite elements in 1D and tensor-product 2D.

Each 1D element carries six quintic shape functions on [0, 1] whose degrees
of freedom are value, first and second derivative at the two endpoints, so
assembled fields are C^2 across element faces and the discretization is
conforming for sixth-order forms.  The 2D space is the tensor product on a
reference rectangle: periodic uniform mesh tangentially, an arbitrary
(typically geometrically graded) mesh vertically, nine degrees of freedom
d_x^a d_t^b (a, b in {0,1,2}) per node.  ``build_space_1d`` and
``build_space_2d`` build a space whole, its free-dof maps included.

Every assembler, here and in epsdomain, takes its shape values from one
place: ``reference_table`` holds the six shapes and their first three
derivatives at the QUAD_ORDER Gauss points of [0, 1], computed once, and
``to_element`` scales reference values to an element of size h.  Element
dof numbering is ``element_dofs_1d`` / ``element_dofs_2d`` (index arrays
accepted).  Every form is a sum of weighted squares: an element matrix is
the Gram matrix (``element_gram``) of the element's weighted evaluation
rows, and every assembled sparse matrix reaches CSR through
``scatter_elements`` and ``to_csr``.  The 1D assemblers read a per-space
``AssemblyPlan1D`` (element table, quadrature weights, element dofs),
built on first use and kept on the space.  Point evaluation of assembled
fields (``evaluate_fe``) is 1D; the eps solver reads 2D field values from
the row tables of its assembly.

Degrees of freedom are stored as raw nodal derivatives; the h^{-6}
conditioning of sixth-order stiffness matrices is tamed by symmetric diagonal
equilibration at solve time (see numerics), which leaves generalized
eigenvalues invariant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

#: Gauss points per direction and element; exact for degree 15
QUAD_ORDER = 8

_SIDE = np.arange(6) // 3        # node (0 left, 1 right) of local dof l
_DOF_ORDER = np.arange(6) % 3    # derivative order of local dof l


class DiscretizationError(ValueError):
    pass


def is_integer(value):
    """Whether ``value`` is an integer count (int or NumPy integer; a bool
    is not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# quintic Hermite shape functions
# ---------------------------------------------------------------------------

class HermiteBasis1D:
    """Six quintic shape functions on [0,1] with nodal degrees of freedom
    (value, first, second derivative) at each endpoint, dual to those
    functionals: shape i has a 1 in its own degree of freedom, 0 in the
    other five."""

    def __init__(self):
        # nodal matrix: row = functional (p(0), p'(0), p''(0), p(1), p'(1),
        # p''(1)), column = monomial power
        M = np.zeros((6, 6))
        for j in range(6):
            M[0, j] = 1.0 if j == 0 else 0.0
            M[1, j] = 1.0 if j == 1 else 0.0
            M[2, j] = 2.0 if j == 2 else 0.0
            M[3, j] = 1.0
            M[4, j] = j
            M[5, j] = j * (j - 1)
        self.coeffs = np.linalg.inv(M).T  # coeffs[l]: poly of shape l

    def eval(self, s, deriv=0):
        """Values of the six shapes (or a derivative) at s; shape (..., 6)."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape + (6,))
        for l in range(6):
            c = np.polynomial.polynomial.polyder(self.coeffs[l], deriv) \
                if deriv else self.coeffs[l]
            out[..., l] = np.polynomial.polynomial.polyval(s, c)
        return out


_BASIS = HermiteBasis1D()


@lru_cache(maxsize=None)
def gauss_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


@lru_cache(maxsize=None)
def reference_table():
    """Read-only ref[d, q, l]: d-th derivative (d <= 3) of shape l at Gauss
    point q of the QUAD_ORDER rule on [0, 1]."""
    sq, _ = gauss_rule(QUAD_ORDER)
    ref = np.stack([_BASIS.eval(sq, d) for d in range(4)])
    ref.flags.writeable = False
    return ref


def to_element(ref, h, d):
    """Physical values on an element of size h from reference values
    ref[..., l] of the d-th derivative of the six shapes: raw nodal dof l
    carries h^(l % 3), and each derivative brings 1/h.  ``h`` is a number
    or an array that broadcasts against ref[..., :1]."""
    return ref * h ** _DOF_ORDER / h ** d


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh1D:
    nodes: np.ndarray

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    def sizes(self):
        return np.diff(self.nodes)


def uniform_mesh(n):
    return Mesh1D(np.linspace(-1.0, 0.0, n + 1))


def graded_mesh(n, ratio=0.75):
    """Quasi-uniform mesh on (-1, 0) with a geometric boundary layer at 0:
    away from 0 the elements share one size, and the last few shrink by
    `ratio` per step until they reach 1/64 of the bulk size.  Bounding the
    bulk size keeps the interpolation error small everywhere, and flooring
    the smallest size keeps the h^{-6} dynamic range of sixth-order
    stiffness matrices representable in double precision."""
    if n < 2 or not (0 < ratio < 1):
        raise DiscretizationError("invalid grading parameters")
    depth = min(n - 1, int(math.ceil(math.log(1.0 / 64)
                                     / math.log(ratio))))
    tail = ratio ** np.arange(1, depth + 1)
    sizes = np.concatenate([np.ones(n - depth), tail])
    sizes *= 1.0 / sizes.sum()
    nodes = np.concatenate([[-1.0], -1.0 + np.cumsum(sizes)])
    nodes[-1] = 0.0
    return Mesh1D(nodes)


# ---------------------------------------------------------------------------
# element spaces
# ---------------------------------------------------------------------------

@dataclass
class TensorElementSpace:
    """Quintic-Hermite space on an interval (dim 1) or on the periodic-strip
    reference rectangle (dim 2), with constraint bookkeeping.

    Global numbering is lexicographic by (node index, a, b): in 2D the full
    index of derivative d_x^a d_t^b at node (i, j) is
    (i * (n_t + 1) + j) * 9 + a * 3 + b, with i tangential (periodic).
    ``full_to_free`` maps a full index to its free index (-1 where
    constrained), ``free_to_full`` back.
    """
    dim: int
    vmesh: Mesh1D
    nx: int                         # tangential elements (2D; 0 in 1D)
    full_to_free: np.ndarray
    free_to_full: np.ndarray

    @property
    def n_free(self):
        return len(self.free_to_full)

    @property
    def n_full(self):
        return len(self.full_to_free)

    def element_dofs_1d(self, e):
        """Full dof indices (..., 6) of element(s) e, ordered (side, a)."""
        return 3 * (np.asarray(e)[..., None] + _SIDE) + _DOF_ORDER

    def element_dofs_2d(self, i, j):
        """Full dof indices (..., 36) of element(s) (i, j) (broadcast
        together), local index l = 6 p + q with p = 3 side_x + a,
        q = 3 side_t + b."""
        ii = (np.asarray(i)[..., None, None] + _SIDE[:, None]) % self.nx
        jj = np.asarray(j)[..., None, None] + _SIDE
        nt1 = self.vmesh.n_elements + 1
        out = (ii * nt1 + jj) * 9 + _DOF_ORDER[:, None] * 3 + _DOF_ORDER
        return out.reshape(out.shape[:-2] + (36,))

    @cached_property
    def plan(self):
        """The 1D assembly plan (AssemblyPlan1D), built on first use and
        kept for the life of this space."""
        return AssemblyPlan1D(self)

    def embed(self, free_vec):
        """Zero-extend a free-dof vector to the full dof set."""
        full = np.zeros(self.n_full)
        full[self.free_to_full] = free_vec
        return full


def _constrained_orders(kind):
    if kind == "clamped1":
        return (0, 1)
    if kind == "clamped2":
        return (0, 1, 2)
    if kind == "free":
        return ()
    raise DiscretizationError("unsupported boundary condition %r" % (kind,))


def build_space_1d(vmesh, bc_bottom, bc_top):
    if vmesh.n_elements < 2:
        raise DiscretizationError("need at least 2 elements")
    n_nodes = vmesh.n_elements + 1
    constrained = np.zeros(3 * n_nodes, dtype=bool)
    for a in _constrained_orders(bc_bottom):
        constrained[a] = True
    for a in _constrained_orders(bc_top):
        constrained[3 * (n_nodes - 1) + a] = True
    return TensorElementSpace(1, vmesh, 0, *_free_maps(constrained))


def build_space_2d(nx, vmesh):
    """Tensor space, periodic tangentially with nx elements (nx nodes),
    clamped1 (value and first normal derivative) at both vertical ends."""
    if nx < 2 or vmesh.n_elements < 2:
        raise DiscretizationError("need at least 2 elements per direction")
    nt1 = vmesh.n_elements + 1
    constrained = np.zeros(nx * nt1 * 9, dtype=bool)
    clamped = _constrained_orders("clamped1")
    for i in range(nx):
        for a in range(3):
            for b in clamped:
                constrained[(i * nt1 + 0) * 9 + a * 3 + b] = True
                constrained[(i * nt1 + nt1 - 1) * 9 + a * 3 + b] = True
    return TensorElementSpace(2, vmesh, nx, *_free_maps(constrained))


def _free_maps(constrained):
    """(full_to_free, free_to_full) of the full-dof mask ``constrained``."""
    # int32 free indices keep the COO triples of the assemblies small
    full_to_free = np.full(len(constrained), -1, dtype=np.int32)
    free = np.flatnonzero(~constrained)
    full_to_free[free] = np.arange(len(free))
    return full_to_free, free


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_finite(values):
    if not np.all(np.isfinite(values)):
        raise DiscretizationError("non-finite integrand value in assembly")


def scatter_elements(space, dofs, elems):
    """COO triple (rows, cols, vals) of the free-free entries of stacked
    element matrices elems (E, k, k) whose full dof indices are dofs (E, k),
    element by element in row-major order."""
    free = space.full_to_free[dofs]
    rows = np.broadcast_to(free[:, :, None], elems.shape)
    cols = np.broadcast_to(free[:, None, :], elems.shape)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], elems[keep]


def to_csr(space, parts):
    """CSR matrix on the free dofs summing the COO triples ``parts``;
    DiscretizationError if an entry is not finite."""
    rows, cols, vals = map(np.concatenate, zip(*parts))
    _check_finite(vals)
    n = space.n_free
    mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _require_1d(space, name):
    if space.dim != 1:
        raise DiscretizationError("%s is 1D only" % name)


def element_gram(rows):
    """Element matrices rows' rows (..., k, k) of stacked weighted
    evaluation rows (..., r, k): one batched matmul, element by element."""
    return np.matmul(rows.swapaxes(-1, -2), rows)


class AssemblyPlan1D:
    """What every 1D assembly of one space shares, worked out once:
    ``table[e, d, q, l]``, the d-th physical derivative of shape l of
    element e at its Gauss point q; ``weights[e, q]``, the quadrature
    weights; and ``dofs``, the full dof indices (E, 6) of the elements.

    Read it through ``TensorElementSpace.plan``: built on first use and
    kept on the space, so it lives exactly as long as the space."""

    def __init__(self, space):
        _require_1d(space, "the assembly plan")
        sizes = space.vmesh.sizes()
        ref = reference_table()
        h = sizes[:, None, None]
        self.table = np.stack([to_element(ref[d], h, d) for d in range(4)],
                              axis=1)                           # (E,4,nq,6)
        self.weights = gauss_rule(QUAD_ORDER)[1] * sizes[:, None]  # (E, nq)
        self.dofs = space.element_dofs_1d(np.arange(space.vmesh.n_elements))


def _weighted_rows(space, weights):
    """The weighted evaluation rows (E, r, 6) of the 1D form with
    derivative weights c = ``weights``: sqrt(c_d w_q) times the d-th
    derivatives of the six shapes at Gauss point q, for each c_d > 0."""
    c = np.asarray(weights, dtype=float)
    if np.any(c < 0):
        raise DiscretizationError("negative derivative weight in %r"
                                  % (weights,))
    plan = space.plan
    d = np.flatnonzero(c)
    root = np.sqrt(c[d][:, None] * plan.weights[:, None, :])   # (E, nd, nq)
    rows = root[..., None] * plan.table[:, d]                  # (E,nd,nq,6)
    return rows.reshape(len(rows), -1, 6)


def assemble(space, integrand):
    """Element-wise Gauss quadrature of a symmetric bilinear integrand
    ``integrand(point, jetU, jetV) -> value`` on a 1D space, one point and
    one shape pair at a time, with constrained degrees eliminated; jetU and
    jetV map (d,) to the d-th derivative (d <= 3) of the shape.  Returns
    a symmetric CSR matrix on the free degrees of freedom.

    This is the slow, general reference the test suite checks
    assemble_quadratic against; the solvers use assemble_quadratic (1D) and
    EpsAssembly (2D)."""
    _require_1d(space, "assemble")
    plan = space.plan
    sq, _ = gauss_rule(QUAD_ORDER)
    pts = space.vmesh.nodes[:-1, None] + space.vmesh.sizes()[:, None] * sq
    elems = np.zeros((len(plan.dofs), 6, 6))
    for (e, q), point in np.ndenumerate(pts):
        jets = [{(d,): plan.table[e, d, q, l] for d in range(4)}
                for l in range(6)]
        for a, b in np.ndindex(6, 6):
            elems[e, a, b] += (integrand(point, jets[a], jets[b])
                               * plan.weights[e, q])
    return to_csr(space, [scatter_elements(space, plan.dofs, elems)])


def assemble_quadratic(space, weights):
    """Fast 1D assembler for the form

        sum_d c_d u^(d) v^(d)

    with four constant derivative weights ``weights`` = (c_0, c_1, c_2,
    c_3) >= 0 (DiscretizationError for a negative one): each element matrix
    is the Gram matrix of the element's weighted evaluation rows, all
    elements at once.  Used by the Fourier-mode limit solver."""
    _require_1d(space, "assemble_quadratic")
    elems = element_gram(_weighted_rows(space, weights))
    return to_csr(space, [scatter_elements(space, space.plan.dofs, elems)])


def quadratic_energy(space, weights, free_vec):
    """Value of the 1D quadratic form with derivative weights ``weights``
    (as in assemble_quadratic) on one dof vector: the sum of squares of the
    weighted evaluation rows times the element dofs, not the matrix form.

    The matrix route cancels at the eps*h^{-6} level on sixth-order forms;
    this route forms each derivative first (cancellation only eps*h^{-3})
    and then squares, so eigenvalue solvers use it for final Rayleigh
    quotients."""
    _require_1d(space, "quadratic_energy")
    full = space.embed(np.asarray(free_vec, dtype=float))
    vals = np.matmul(_weighted_rows(space, weights),
                     full[space.plan.dofs][:, :, None])         # (E, r, 1)
    return float(np.sum(vals ** 2))


def assemble_rhs(space, f):
    """Gauss quadrature of a load f(t), called at one point at a time,
    against all free basis functions of a 1D space (the eps-domain load is
    EpsAssembly.assemble_rhs)."""
    _require_1d(space, "assemble_rhs")
    plan = space.plan
    sq, _ = gauss_rule(QUAD_ORDER)
    nodes, sizes = space.vmesh.nodes, space.vmesh.sizes()
    pts = nodes[:-1, None] + sizes[:, None] * sq                # (E, nq)
    fv = np.array([f(t) for t in pts.ravel()], dtype=float)
    _check_finite(fv)
    w = plan.weights * fv.reshape(pts.shape)
    elems = np.einsum('eq,eqa->ea', w, plan.table[:, 0])
    full = np.zeros(space.n_full)
    np.add.at(full, plan.dofs.ravel(), elems.ravel())
    return full[space.free_to_full]


# ---------------------------------------------------------------------------
# point evaluation of assembled fields
# ---------------------------------------------------------------------------

def _locate(mesh, t):
    """Element index, local coordinate and element size of the points t."""
    e = np.clip(np.searchsorted(mesh.nodes, t, side='right') - 1, 0,
                mesh.n_elements - 1)
    h = mesh.sizes()[e]
    return e, (t - mesh.nodes[e]) / h, h


def evaluate_fe(space, free_vec, points, deriv=None):
    """Evaluate a 1D finite-element field (given by its free-dof vector) at
    the points t; ``deriv`` is a derivative multi-index (d,), d <= 3.  The
    eps solver reads 2D field values from its own row tables
    (EpsAssembly._element_values)."""
    _require_1d(space, "evaluate_fe")
    full = space.embed(np.asarray(free_vec, dtype=float))
    d = deriv[0] if deriv else 0
    t = np.atleast_1d(np.asarray(points, dtype=float))
    e, s, h = _locate(space.vmesh, t)
    shp = to_element(_BASIS.eval(s, d), h[:, None], d)          # (npts, 6)
    return np.einsum('pl,pl->p', full[space.element_dofs_1d(e)], shp)
