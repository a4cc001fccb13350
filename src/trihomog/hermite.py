"""H^3-conforming quintic Hermite elements in 1D and tensor-product 2D.

Each 1D element carries six quintic shape functions on [0, 1] whose degrees
of freedom are value, first and second derivative at the two endpoints, so
assembled fields are C^2 across element faces and the discretization is
conforming for sixth-order forms.  The 2D space is the tensor product on a
reference rectangle: periodic uniform mesh tangentially, an arbitrary
(typically geometrically graded) mesh vertically, nine degrees of freedom
d_x^a d_t^b (a, b in {0,1,2}) per node.

Degrees of freedom are stored as raw nodal derivatives; the h^{-6}
conditioning of sixth-order stiffness matrices is tamed by symmetric diagonal
equilibration at solve time (see numerics), which leaves generalized
eigenvalues invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .jets import DerivativeJet3

BC_KINDS = ("clamped1", "clamped2", "free", "periodic")


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


def graded_mesh(n, ratio=0.75, a=-1.0, b=0.0, min_size_ratio=1.0 / 64):
    """Quasi-uniform mesh with a geometric boundary layer at the right
    endpoint b: away from b the elements share one size, and the last few
    shrink by `ratio` per step until they reach ``min_size_ratio`` times the
    bulk size.  Bounding the bulk size keeps the interpolation error small
    everywhere, and flooring the smallest size keeps the h^{-6} dynamic
    range of sixth-order stiffness matrices representable in double
    precision."""
    if n < 2 or not (0 < ratio < 1) or not (0 < min_size_ratio <= 1):
        raise DiscretizationError("invalid grading parameters")
    depth = min(n - 1, int(math.ceil(math.log(min_size_ratio)
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
    basis: HermiteBasis1D = field(default_factory=lambda: _BASIS)
    full_to_free: np.ndarray = None
    free_to_full: np.ndarray = None

    @property
    def n_free(self):
        return len(self.free_to_full)

    @property
    def n_full(self):
        return len(self.full_to_free)

    @property
    def dofs_per_node(self):
        return 3 if self.dim == 1 else 9

    def node_index(self, i, j=None):
        if self.dim == 1:
            return i
        return i * (self.vmesh.n_elements + 1) + j

    def element_dofs_1d(self, e):
        """Full dof indices (6,) of element e, ordered (side, a)."""
        return np.array([3 * (e + s) + a for s in (0, 1) for a in range(3)])

    def element_dofs_2d(self, i, j):
        """Full dof indices (36,) of element (i, j), local index
        l = 6 p + q with p = 3 side_x + a, q = 3 side_t + b."""
        nt1 = self.vmesh.n_elements + 1
        out = np.empty(36, dtype=int)
        for p in range(6):
            ii = (i + p // 3) % self.nx
            a = p % 3
            for q in range(6):
                jj = j + q // 3
                b = q % 3
                out[6 * p + q] = (ii * nt1 + jj) * 9 + a * 3 + b
        return out

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

def _local_jet_1d(space, e, sq, deriv_max=3):
    """Derivative table of the six element shapes at local points sq:
    tab[d, point, l] = d-th derivative (in physical t) of shape l."""
    h = space.vmesh.sizes()[e]
    tab = np.empty((deriv_max + 1, len(sq), 6))
    scale_a = np.array([h ** (l % 3) for l in range(6)])
    for d in range(deriv_max + 1):
        tab[d] = space.basis.eval(sq, d) * scale_a / h ** d
    return tab


def assemble(space, integrand, quad_order=8):
    """Element-wise Gauss quadrature of a symmetric bilinear integrand
    ``integrand(point, jetU, jetV) -> value`` over all elements, with
    constrained degrees eliminated.  Returns a symmetric CSR matrix on the
    free degrees of freedom.

    This is the generic (callback-based) assembler; performance-critical
    paths use assemble_quadratic / the vectorised eps-domain assembler,
    which are tested against this one.
    """
    if space.dim == 1:
        return _assemble_1d_callback(space, integrand, quad_order)
    return _assemble_2d_callback(space, integrand, quad_order)


def _check_finite(values):
    if not np.all(np.isfinite(values)):
        raise DiscretizationError("non-finite integrand value in assembly")


def _assemble_1d_callback(space, integrand, quad_order):
    sq, wq = gauss_rule(quad_order)
    rows, cols, vals = [], [], []
    nodes = space.vmesh.nodes
    for e in range(space.vmesh.n_elements):
        h = nodes[e + 1] - nodes[e]
        tab = _local_jet_1d(space, e, sq)
        dofs = space.element_dofs_1d(e)
        emat = np.zeros((6, 6))
        for qi in range(len(sq)):
            point = nodes[e] + h * sq[qi]
            jets = [DerivativeJet3(1, {(d,): tab[d, qi, l] for d in range(4)})
                    for l in range(6)]
            for a in range(6):
                for b in range(a, 6):
                    v = integrand(point, jets[a], jets[b]) * wq[qi] * h
                    emat[a, b] += v
                    if a != b:
                        emat[b, a] += v
        _check_finite(emat)
        _scatter(space, dofs, emat, rows, cols, vals)
    return _to_csr(space, rows, cols, vals)


def _assemble_2d_callback(space, integrand, quad_order):
    sq, wq = gauss_rule(quad_order)
    rows, cols, vals = [], [], []
    xnodes = np.arange(space.nx + 1) / space.nx
    tnodes = space.vmesh.nodes
    idx10 = [(m, n) for m in range(4) for n in range(4 - m)]
    for i in range(space.nx):
        hx = 1.0 / space.nx
        for j in range(space.vmesh.n_elements):
            ht = tnodes[j + 1] - tnodes[j]
            dofs = space.element_dofs_2d(i, j)
            emat = np.zeros((36, 36))
            tabx = [space.basis.eval(sq, d) for d in range(4)]
            tabt = [space.basis.eval(sq, d) for d in range(4)]
            for qx in range(len(sq)):
                for qt in range(len(sq)):
                    point = (xnodes[i] + hx * sq[qx], tnodes[j] + ht * sq[qt])
                    jets = []
                    for p in range(6):
                        a = p % 3
                        for q in range(6):
                            b = q % 3
                            derivs = {}
                            for (m, n) in idx10:
                                derivs[(m, n)] = (hx ** (a - m) * ht ** (b - n)
                                                  * tabx[m][qx, p]
                                                  * tabt[n][qt, q])
                            jets.append(DerivativeJet3(2, derivs))
                    w = wq[qx] * wq[qt] * hx * ht
                    for A in range(36):
                        for B in range(A, 36):
                            v = integrand(point, jets[A], jets[B]) * w
                            emat[A, B] += v
                            if A != B:
                                emat[B, A] += v
            _check_finite(emat)
            _scatter(space, dofs, emat, rows, cols, vals)
    return _to_csr(space, rows, cols, vals)


def assemble_quadratic(space, weights, quad_order=8):
    """Fast 1D assembler for integrands of the form

        sum_{d1,d2} W[d1,d2](t) u^(d1) v^(d2),

    where ``weights(t)`` returns an array (npts, 4, 4) (or a constant (4, 4)
    array).  Used by the Fourier-mode limit solver."""
    if space.dim != 1:
        raise DiscretizationError("assemble_quadratic is 1D only")
    sq, wq = gauss_rule(quad_order)
    rows, cols, vals = [], [], []
    nodes = space.vmesh.nodes
    const_w = None
    if isinstance(weights, np.ndarray):
        const_w = weights
    for e in range(space.vmesh.n_elements):
        h = nodes[e + 1] - nodes[e]
        tab = _local_jet_1d(space, e, sq)       # (4, nq, 6)
        pts = nodes[e] + h * sq
        W = const_w if const_w is not None else np.asarray(weights(pts))
        if W.ndim == 2:
            W = np.broadcast_to(W, (len(sq), 4, 4))
        emat = np.einsum('q,qde,dqa,eqb->ab', wq * h, W, tab, tab,
                         optimize=True)
        _check_finite(emat)
        _scatter(space, space.element_dofs_1d(e), emat, rows, cols, vals)
    return _to_csr(space, rows, cols, vals)


def quadratic_energy(space, weights, free_vec, quad_order=8):
    """Value of the 1D quadratic form with derivative-pair weights (same
    convention as assemble_quadratic) on one dof vector, evaluated from the
    finite-element derivative values at the Gauss points rather than through
    the assembled matrix.

    The matrix route cancels at the eps*h^{-6} level on sixth-order forms;
    this route forms each derivative first (cancellation only eps*h^{-3})
    and then combines, so eigenvalue solvers use it for final Rayleigh
    quotients."""
    if space.dim != 1:
        raise DiscretizationError("quadratic_energy is 1D only")
    sq, wq = gauss_rule(quad_order)
    nodes = space.vmesh.nodes
    full = space.embed(np.asarray(free_vec, dtype=float))
    const_w = weights if isinstance(weights, np.ndarray) else None
    total = 0.0
    for e in range(space.vmesh.n_elements):
        h = nodes[e + 1] - nodes[e]
        tab = _local_jet_1d(space, e, sq)           # (4, nq, 6)
        xe = full[space.element_dofs_1d(e)]
        du = np.einsum('dqa,a->dq', tab, xe)        # (4, nq)
        W = const_w if const_w is not None else \
            np.asarray(weights(nodes[e] + h * sq))
        if W.ndim == 2:
            vals = np.einsum('de,dq,eq->q', W, du, du)
        else:
            vals = np.einsum('qde,dq,eq->q', W, du, du)
        total += float((wq * h * vals).sum())
    return total


def assemble_rhs(space, f, quad_order=8):
    """Gauss quadrature of a load function against all free basis functions.
    ``f`` takes the physical point (scalar in 1D, (x, t) pair in 2D)."""
    sq, wq = gauss_rule(quad_order)
    out = np.zeros(space.n_free)
    nodes = space.vmesh.nodes
    if space.dim == 1:
        for e in range(space.vmesh.n_elements):
            h = nodes[e + 1] - nodes[e]
            pts = nodes[e] + h * sq
            fv = np.asarray([f(t) for t in pts], dtype=float)
            _check_finite(fv)
            tab = _local_jet_1d(space, e, sq)
            elem = np.einsum('q,q,qa->a', wq * h, fv, tab[0])
            free = space.full_to_free[space.element_dofs_1d(e)]
            np.add.at(out, free[free >= 0], elem[free >= 0])
        return out
    hx = 1.0 / space.nx
    val_x = space.basis.eval(sq, 0)
    for i in range(space.nx):
        for j in range(space.vmesh.n_elements):
            ht = nodes[j + 1] - nodes[j]
            scale = np.array([hx ** (p % 3) for p in range(6)])
            scal_t = np.array([ht ** (q % 3) for q in range(6)])
            fv = np.array([[f((i * hx + hx * sx, nodes[j] + ht * st))
                            for st in sq] for sx in sq])
            _check_finite(fv)
            elem = np.einsum('x,t,xt,xp,tq->pq', wq, wq, fv,
                             val_x * scale, val_x * scal_t).ravel() * hx * ht
            free = space.full_to_free[space.element_dofs_2d(i, j)]
            np.add.at(out, free[free >= 0], elem[free >= 0])
    return out


def _scatter(space, dofs, emat, rows, cols, vals):
    free = space.full_to_free[dofs]
    keep = free >= 0
    fi = free[keep]
    sub = emat[np.ix_(keep, keep)]
    r, c = np.meshgrid(fi, fi, indexing='ij')
    rows.append(r.ravel())
    cols.append(c.ravel())
    vals.append(sub.ravel())


def _to_csr(space, rows, cols, vals):
    n = space.n_free
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


# ---------------------------------------------------------------------------
# point evaluation of assembled fields
# ---------------------------------------------------------------------------

def evaluate_fe(space, free_vec, points, deriv=None):
    """Evaluate a finite-element field (given by its free-dof vector) at
    arbitrary points; ``deriv`` is a derivative multi-index (order <= 3).

    1D: points is an array of t values.  2D: points is (x_array, t_array)
    with x interpreted periodically on [0, 1)."""
    full = space.embed(np.asarray(free_vec, dtype=float))
    nodes = space.vmesh.nodes
    if space.dim == 1:
        d = deriv[0] if deriv else 0
        t = np.atleast_1d(np.asarray(points, dtype=float))
        e = np.clip(np.searchsorted(nodes, t, side='right') - 1, 0,
                    space.vmesh.n_elements - 1)
        h = space.vmesh.sizes()[e]
        s = (t - nodes[e]) / h
        shp = space.basis.eval(s, d)            # (npts, 6)
        scale = np.array([h ** (l % 3) for l in range(6)]).T
        out = np.zeros(len(t))
        for l in range(6):
            dofs = 3 * e + 3 * (l // 3) + (l % 3)
            out += full[dofs] * shp[:, l] * scale[:, l] / h ** d
        return out
    m, n = deriv if deriv else (0, 0)
    x, t = points
    x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    hx = 1.0 / space.nx
    i = np.clip((x / hx).astype(int), 0, space.nx - 1)
    sx = x / hx - i
    j = np.clip(np.searchsorted(nodes, t, side='right') - 1, 0,
                space.vmesh.n_elements - 1)
    ht = space.vmesh.sizes()[j]
    st = (t - nodes[j]) / ht
    shx = space.basis.eval(sx, m)
    sht = space.basis.eval(st, n)
    nt1 = space.vmesh.n_elements + 1
    out = np.zeros(x.shape)
    for p in range(6):
        ii = (i + p // 3) % space.nx
        a = p % 3
        for q in range(6):
            jj = j + q // 3
            b = q % 3
            dofs = (ii * nt1 + jj) * 9 + a * 3 + b
            out += (full[dofs] * shx[:, p] * sht[:, q]
                    * hx ** (a - m) * ht ** (b - n))
    return out
