"""H^3-conforming quintic Hermite elements in 1D and tensor-product 2D.

Each 1D element carries six quintic shape functions on [0, 1] whose degrees
of freedom are value, first and second derivative at the two endpoints, so
assembled fields are C^2 across element faces and the discretization is
conforming for sixth-order forms.  The 2D space is the tensor product on a
reference rectangle: periodic uniform mesh tangentially, an arbitrary
(typically geometrically graded) mesh vertically, nine degrees of freedom
d_x^a d_t^b (a, b in {0,1,2}) per node.

Every assembler, here and in epsdomain, takes its shape values from one
place: ``reference_table`` holds the six shapes and their first three
derivatives at the QUAD_ORDER Gauss points of [0, 1], computed once, and
``to_element`` scales reference values to an element of size h.  Element
dof numbering is ``element_dofs_1d`` / ``element_dofs_2d`` (index arrays
accepted), and stacked element matrices reach the sparse matrix through
``scatter_elements`` and ``to_csr``.

Degrees of freedom are stored as raw nodal derivatives; the h^{-6}
conditioning of sixth-order stiffness matrices is tamed by symmetric diagonal
equilibration at solve time (see numerics), which leaves generalized
eigenvalues invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .jets import DerivativeJet3

#: Gauss points per direction and element; exact for degree 15
QUAD_ORDER = 8

_SIDE = np.arange(6) // 3        # node (0 left, 1 right) of local dof l
_DOF_ORDER = np.arange(6) % 3    # derivative order of local dof l


class DiscretizationError(ValueError):
    pass


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


def uniform_mesh(n, a=-1.0, b=0.0):
    return Mesh1D(np.linspace(a, b, n + 1))


def graded_mesh(n, ratio=0.75, a=-1.0, b=0.0):
    """Quasi-uniform mesh with a geometric boundary layer at the right
    endpoint b: away from b the elements share one size, and the last few
    shrink by `ratio` per step until they reach 1/64 of the bulk size.
    Bounding the bulk size keeps the interpolation error small everywhere,
    and flooring the smallest size keeps the h^{-6} dynamic range of
    sixth-order stiffness matrices representable in double precision."""
    if n < 2 or not (0 < ratio < 1):
        raise DiscretizationError("invalid grading parameters")
    depth = min(n - 1, int(math.ceil(math.log(1.0 / 64)
                                     / math.log(ratio))))
    tail = ratio ** np.arange(1, depth + 1)
    sizes = np.concatenate([np.ones(n - depth), tail])
    sizes *= (b - a) / sizes.sum()
    nodes = np.concatenate([[a], a + np.cumsum(sizes)])
    nodes[-1] = b
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
    """
    dim: int
    vmesh: Mesh1D
    bc_bottom: str
    bc_top: str
    nx: int = 0                     # tangential elements (2D only)
    full_to_free: np.ndarray = None
    free_to_full: np.ndarray = None

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


def build_space_1d(vmesh, bc_bottom="clamped1", bc_top="clamped1"):
    if vmesh.n_elements < 2:
        raise DiscretizationError("need at least 2 elements")
    n_nodes = vmesh.n_elements + 1
    constrained = np.zeros(3 * n_nodes, dtype=bool)
    for a in _constrained_orders(bc_bottom):
        constrained[a] = True
    for a in _constrained_orders(bc_top):
        constrained[3 * (n_nodes - 1) + a] = True
    return _finish_space(TensorElementSpace(
        dim=1, vmesh=vmesh, bc_bottom=bc_bottom, bc_top=bc_top), constrained)


def build_space_2d(nx, vmesh, bc_bottom="clamped1", bc_top="clamped1"):
    """Tensor space, periodic tangentially with nx elements (nx nodes)."""
    if nx < 2 or vmesh.n_elements < 2:
        raise DiscretizationError("need at least 2 elements per direction")
    nt1 = vmesh.n_elements + 1
    constrained = np.zeros(nx * nt1 * 9, dtype=bool)
    for i in range(nx):
        for a in range(3):
            for b in _constrained_orders(bc_bottom):
                constrained[(i * nt1 + 0) * 9 + a * 3 + b] = True
            for b in _constrained_orders(bc_top):
                constrained[(i * nt1 + nt1 - 1) * 9 + a * 3 + b] = True
    return _finish_space(TensorElementSpace(
        dim=2, vmesh=vmesh, bc_bottom=bc_bottom, bc_top=bc_top, nx=nx),
        constrained)


def _finish_space(space, constrained):
    full_to_free = np.full(len(constrained), -1, dtype=int)
    free = np.flatnonzero(~constrained)
    full_to_free[free] = np.arange(len(free))
    space.full_to_free = full_to_free
    space.free_to_full = free
    return space


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
    """CSR matrix on the free dofs summing the COO triples ``parts``."""
    rows, cols, vals = zip(*parts)
    n = space.n_free
    # the concatenated int64 indices are temporaries: coo_matrix keeps its
    # own (narrower) copies, and they are freed before the CSR conversion
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _require_1d(space, name):
    if space.dim != 1:
        raise DiscretizationError("%s is 1D only" % name)


def _element_table(space):
    """tab[e, d, q, l]: d-th physical derivative of shape l of element e at
    its Gauss point q."""
    h = space.vmesh.sizes()[:, None, None]
    ref = reference_table()
    return np.stack([to_element(ref[d], h, d) for d in range(4)], axis=1)


def _element_dofs(space):
    return space.element_dofs_1d(np.arange(space.vmesh.n_elements))


def _matrix_1d(space, elems):
    _check_finite(elems)
    return to_csr(space, [scatter_elements(space, _element_dofs(space),
                                           elems)])


def assemble(space, integrand):
    """Element-wise Gauss quadrature of a symmetric bilinear integrand
    ``integrand(point, jetU, jetV) -> value`` on a 1D space, one point and
    one shape pair at a time, with constrained degrees eliminated.  Returns
    a symmetric CSR matrix on the free degrees of freedom.

    This is the slow, general reference the test suite checks
    assemble_quadratic against; the solvers use assemble_quadratic (1D) and
    EpsAssembly (2D)."""
    _require_1d(space, "assemble")
    sq, wq = gauss_rule(QUAD_ORDER)
    nodes, sizes = space.vmesh.nodes, space.vmesh.sizes()
    tab = _element_table(space)
    elems = np.zeros((space.vmesh.n_elements, 6, 6))
    for e, emat in enumerate(elems):
        for qi in range(len(sq)):
            point = nodes[e] + sizes[e] * sq[qi]
            jets = [DerivativeJet3(1, {(d,): tab[e, d, qi, l]
                                       for d in range(4)})
                    for l in range(6)]
            for a in range(6):
                for b in range(a, 6):
                    v = integrand(point, jets[a], jets[b]) * wq[qi] * sizes[e]
                    emat[a, b] += v
                    if a != b:
                        emat[b, a] += v
    return _matrix_1d(space, elems)


def assemble_quadratic(space, weights):
    """Fast 1D assembler for the form

        sum_{d1,d2} W[d1,d2] u^(d1) v^(d2)

    with a constant (4, 4) array ``weights`` of derivative-pair weights,
    all elements at once.  Used by the Fourier-mode limit solver."""
    _require_1d(space, "assemble_quadratic")
    _, wq = gauss_rule(QUAD_ORDER)
    tab = _element_table(space)                                 # (E,4,nq,6)
    w = wq * space.vmesh.sizes()[:, None]                       # (E, nq)
    elems = np.einsum('eq,df,edqa,efqb->eab', w, weights, tab, tab,
                      optimize=True)
    return _matrix_1d(space, elems)


def quadratic_energy(space, weights, free_vec):
    """Value of the 1D quadratic form with derivative-pair weights (same
    convention as assemble_quadratic) on one dof vector, evaluated from the
    finite-element derivative values at the Gauss points rather than through
    the assembled matrix.

    The matrix route cancels at the eps*h^{-6} level on sixth-order forms;
    this route forms each derivative first (cancellation only eps*h^{-3})
    and then combines, so eigenvalue solvers use it for final Rayleigh
    quotients."""
    _require_1d(space, "quadratic_energy")
    _, wq = gauss_rule(QUAD_ORDER)
    full = space.embed(np.asarray(free_vec, dtype=float))
    du = np.einsum('edqa,ea->edq', _element_table(space),
                   full[_element_dofs(space)])                  # (E, 4, nq)
    vals = np.einsum('df,edq,efq->eq', weights, du, du)
    return float((wq * space.vmesh.sizes()[:, None] * vals).sum())


def assemble_rhs(space, f):
    """Gauss quadrature of a load f(t), called at one point at a time,
    against all free basis functions of a 1D space (the eps-domain load is
    EpsAssembly.assemble_rhs)."""
    _require_1d(space, "assemble_rhs")
    sq, wq = gauss_rule(QUAD_ORDER)
    nodes, sizes = space.vmesh.nodes, space.vmesh.sizes()
    pts = nodes[:-1, None] + sizes[:, None] * sq                # (E, nq)
    fv = np.array([f(t) for t in pts.ravel()], dtype=float)
    _check_finite(fv)
    w = wq * sizes[:, None] * fv.reshape(pts.shape)
    elems = np.einsum('eq,eqa->ea', w, _element_table(space)[:, 0])
    full = np.zeros(space.n_full)
    np.add.at(full, _element_dofs(space).ravel(), elems.ravel())
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
    """Evaluate a finite-element field (given by its free-dof vector) at
    arbitrary points; ``deriv`` is a derivative multi-index (order <= 3).

    1D: points is an array of t values.  2D: points is (x_array, t_array)
    with x interpreted periodically on [0, 1)."""
    full = space.embed(np.asarray(free_vec, dtype=float))
    if space.dim == 1:
        d = deriv[0] if deriv else 0
        t = np.atleast_1d(np.asarray(points, dtype=float))
        e, s, h = _locate(space.vmesh, t)
        shp = to_element(_BASIS.eval(s, d), h[:, None], d)     # (npts, 6)
        dofs = space.element_dofs_1d(e)
    else:
        m, n = deriv if deriv else (0, 0)
        x, t = points
        x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        hx = 1.0 / space.nx
        i = np.clip((x / hx).astype(int), 0, space.nx - 1)
        j, st, ht = _locate(space.vmesh, t)
        shx = to_element(_BASIS.eval(x / hx - i, m), hx, m)
        sht = to_element(_BASIS.eval(st, n), ht[:, None], n)
        shp = (shx[:, :, None] * sht[:, None, :]).reshape(-1, 36)
        dofs = space.element_dofs_2d(i, j)
    return np.einsum('pl,pl->p', full[dofs], shp)
