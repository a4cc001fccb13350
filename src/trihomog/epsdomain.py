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

is integrated.  Assembly is vectorised over whole horizontal element rows;
the per-row chain-rule tables are cached on the assembly object so that
high-accuracy energy evaluations (the eigenvalue solver's Rayleigh
functional) reuse them.

Mesh rule: elements_per_period tangential elements per oscillation period
(spacing <= eps/4 by default) and a vertical mesh with a geometric layer in
(-2 eps, 0), resolving the boundary layer that drives the strange term.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .hermite import (QUAD_ORDER, Mesh1D, build_space_2d, gauss_rule,
                      reference_table, scatter_elements, to_csr, to_element)
from .jets import (multi_indices, multinomial, index_order,
                   invert_shear_derivs, transform_coeffs)
from .numerics import (EigenRequest, count_below, solve_linear,
                       solve_smallest)
from .oscillation import OscillationProfile, PerturbationParams

IDX10 = tuple(multi_indices(2))               # all |beta| <= 3, graded lex
IDX3 = tuple(b for b in IDX10 if index_order(b) == 3)
MULT3 = np.array([multinomial(b) for b in IDX3], dtype=float)
MAX_COUNT = 20          # the mesh resolves only the low end of the spectrum


class EpsError(ValueError):
    pass


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
        if self.elements_per_period < 4:
            raise EpsError("need >= 4 tangential elements per period")
        if self.n_coarse + self.n_layer < 16:
            raise EpsError("need >= 16 vertical elements")
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


class EpsAssembly:
    """Assembled stiffness/mass pair plus the cached chain-rule tables
    needed to evaluate the pulled-back energies of dof vectors by
    quadrature."""

    def __init__(self, problem, columns=None):
        """``columns`` restricts assembly to that many tangential element
        columns (with ring topology) while keeping the true element size
        1/nx; used by the Bloch path, which only needs one period block and
        its neighbour couplings (assembled here from a 3-period ring)."""
        self.problem = problem
        self.columns = problem.nx if columns is None else columns
        vm = vertical_mesh(problem.params.epsilon, problem.n_coarse,
                           problem.n_layer)
        self.space = build_space_2d(self.columns, vm, bc_bottom="clamped1",
                                    bc_top="clamped1")
        self._rows = []
        self._assemble()

    # -- assembly -----------------------------------------------------------

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
        coeffs = transform_coeffs(inverse, nvars=2)
        C3 = np.zeros((len(IDX3), len(IDX10), cols, nq * nq))
        for bi, beta in enumerate(IDX3):
            row = coeffs.coeffs[beta]
            for gi, gamma in enumerate(IDX10):
                if gamma in row:
                    val = np.broadcast_to(np.asarray(row[gamma], dtype=float),
                                          tau.shape)
                    C3[bi, gi] = val.reshape(cols, nq * nq)
        detj = np.broadcast_to(coeffs.det_jacobian, tau.shape
                               ).reshape(cols, nq * nq)
        return {"C3": C3, "detJ": detj, "tau": tau.reshape(cols, nq * nq),
                "x": np.repeat(xq, nq, axis=1),
                "T": self._shape_tables(hx, ht),
                "dofs": space.element_dofs_2d(np.arange(cols), j),
                "w": np.outer(wq, wq).ravel() * hx * ht}

    def _assemble(self):
        space = self.space
        parts_a, parts_b = [], []
        t0 = time.perf_counter()
        for j in range(space.vmesh.n_elements):
            geo = self._row_geometry(j)
            self._rows.append(geo)
            C3, detj, w, T = geo["C3"], geo["detJ"], geo["w"], geo["T"]
            # stiffness weights W[i,q,g,d] = sum_b mult_b C3[b,g] C3[b,d] detJ
            # plus the value-pair term detJ; then elem = T' W T per element
            W = np.einsum('b,bgiq,bdiq,iq->iqgd', MULT3, C3, C3, detj,
                          optimize=True)
            W[:, :, 0, 0] += detj
            W *= w[None, :, None, None]
            Tq = np.ascontiguousarray(T.transpose(1, 0, 2))      # (q,10,36)
            X = np.matmul(W, Tq[None])                           # (i,q,10,36)
            nxl = X.shape[0]
            Xr = X.reshape(nxl, -1, 36)
            Tr = Tq.reshape(-1, 36)
            elems = np.matmul(Xr.transpose(0, 2, 1), Tr)         # (i,36,36)
            mass_w = detj * w[None, :]
            Tv = T[0]                                            # (q,36)
            elems_b = np.einsum('iq,qa,qb->iab', mass_w, Tv, Tv,
                                optimize=True)
            if not (np.all(np.isfinite(elems)) and
                    np.all(np.isfinite(elems_b))):
                raise EpsError("non-finite entries in eps assembly")
            parts_a.append(scatter_elements(space, geo["dofs"], elems))
            parts_b.append(scatter_elements(space, geo["dofs"], elems_b))
        self.stiffness = to_csr(space, parts_a)
        self.mass = to_csr(space, parts_b)
        self.assembly_seconds = time.perf_counter() - t0

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

    def energies(self, free_vec, col_range=None):
        """(stiffness energy, mass energy) of a dof vector, evaluated by
        quadrature of the pulled-back derivatives (sum of squares; avoids
        the h^{-6} cancellation of the matrix quadratic form).  ``col_range``
        restricts the integral to a slice of element columns (the Bloch
        path's per-period energies)."""
        full = self.space.embed(np.asarray(free_vec, dtype=float))
        sel = slice(None) if col_range is None else slice(*col_range)
        ea = eb = 0.0
        for geo in self._rows:
            u = self._element_values(geo, full, range(len(IDX10)))[:, sel]
            p = np.einsum('bgiq,giq->biq', geo["C3"][:, :, sel], u,
                          optimize=True)
            dens = np.einsum('b,biq->iq', MULT3, p ** 2) + u[0] ** 2
            w = geo["detJ"][sel] * geo["w"][None, :]
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


def save_eps_result(result, path):
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=1)
        fh.write("\n")


def _bloch_blocks(assembly):
    """Period-block data of the assembled pair.

    The pulled-back coefficients are eps-periodic and the tangential mesh
    carries an integer number of elements per period, so stiffness and mass
    are block-circulant over the `periods` tangential blocks, with only the
    diagonal block C0 and the two nearest-neighbour couplings nonzero.  The
    pencil then splits into the complex Hermitian Bloch pencils

        C0 + exp(i theta) C1 + exp(-i theta) C1^H,   theta = 2 pi p / periods,

    each of block size n_free / (assembled periods).  A ring assembly over
    3 periods yields the same blocks as the full torus (element locality),
    which is how production sizes stay small."""
    problem, space = assembly.problem, assembly.space
    topo = assembly.columns // problem.elements_per_period
    if topo < 3 or assembly.columns % problem.elements_per_period:
        raise EpsError("Bloch extraction needs >= 3 assembled periods")
    n = space.n_free
    if n % topo:
        raise EpsError("free dofs are not tangentially block-structured")
    m = n // topo
    out = []
    for M in (assembly.stiffness.tocsr(), assembly.mass.tocsr()):
        C0 = M[:m, :m]
        C1 = M[:m, m:2 * m]
        Cm = M[:m, (topo - 1) * m:]
        mid = M[:m, 2 * m:(topo - 1) * m]
        if mid.nnz:
            raise EpsError("coupling beyond neighbouring periods")
        out.append((C0, C1, Cm))
    return out[0], out[1], m


def solve_eps_spectrum_bloch(problem, count, assembly=None):
    """Lowest eigenvalues of the oscillating-domain problem via the Bloch
    (block-circulant) reduction: one complex Hermitian solve per
    quasimomentum, merged with multiplicity two for conjugate pairs.  Exact
    for the discrete pencil up to the roundoff periodicity of the sampled
    coefficients; the one eps eigen entry point, since the full torus pencil
    does not fit at production sizes.  Each eigenvalue is recomputed as a
    quadrature-energy Rayleigh quotient of the eigenvector's per-period
    energies.  The form contains + int u^2, so the spectrum sits above 1
    and the shift 0.5 lies safely below it.

    The pencils are walked in order p = 0, 1, ..., P/2.  Once ``count``
    refined eigenvalues (with multiplicity) are in hand, each further pencil
    is first checked by ``count_below`` at the shift

        s = lam* + max(1e-3 lam*, 10 max |refined - raw|),

    where lam* is the count-th smallest refined eigenvalue so far and the
    maximum runs over the pairs solved so far (refinement can move a raw
    Ritz value far, so the margin must cover that move).  A pencil with no
    eigenvalue below s cannot supply one of the first ``count`` values and
    is skipped as certified empty; any other answer, None included, means
    it is solved.  Skipping only drops candidates that the merge would not
    take, so the eigenvalues are bit-identical to solving every pencil.
    ``pencils`` of the result records each pencil: p, theta, status
    ("solved" or "certified"), the ``count_below`` answer and the shift of
    its check (None when unchecked), its refined eigenvalues, how many of
    the returned eigenvalues it supplies, and its seconds."""
    if not 1 <= count <= MAX_COUNT:
        raise EpsError("count must lie in 1..%d (the mesh resolves only the "
                       "low end)" % MAX_COUNT)
    if assembly is None:
        assembly = EpsAssembly(problem,
                               columns=3 * problem.elements_per_period)
    t0 = time.perf_counter()
    (A0, A1, Am), (B0, B1, Bm), m = _bloch_blocks(assembly)
    P = problem.params.periods
    epp = problem.elements_per_period
    topo = assembly.columns // epp
    mid = (epp, 2 * epp)
    found = []
    pencils = []
    move = 0.0
    for p in range(P // 2 + 1):
        t_p = time.perf_counter()
        theta = 2.0 * np.pi * p / P
        z = np.exp(1j * theta)
        Ah = (A0 + z * A1 + np.conj(z) * Am).tocsc()
        Bh = (B0 + z * B1 + np.conj(z) * Bm).tocsc()
        Ah = 0.5 * (Ah + Ah.getH())
        Bh = 0.5 * (Bh + Bh.getH())
        if p == 0 or 2 * p == P:
            Ah, Bh = Ah.real, Bh.real
        mult = 2 if (0 < p < P / 2) else 1
        record = {"p": p, "theta": theta, "status": "solved", "below": None,
                  "shift": None, "eigenvalues": [], "kept": 0}
        pencils.append(record)
        if sum(r[2] for r in found) >= count:
            lam_star = sorted(r[0] for r in found
                              for _ in range(r[2]))[count - 1]
            shift = lam_star + max(1e-3 * lam_star, 10.0 * move)
            record.update(below=count_below(Ah, Bh, shift), shift=shift)
        if record["below"] == 0:
            record["status"] = "certified"
        else:
            k = min(count, m - 1)
            lam, vec = solve_smallest(Ah, Bh, EigenRequest(count=k, shift=0.5))
            phases = np.exp(1j * theta * np.arange(topo))
            for j in range(k):
                # Rayleigh quotient through the quadrature energies of the
                # Bloch field over one period (assembled as the middle block
                # of the ring); real and imaginary parts add for the
                # sesquilinear forms.  Every candidate is refined *before*
                # the merge sort: raw Ritz values at production sizes carry
                # enough roundoff that the cross-block ordering can be wrong.
                v = vec[:, j]
                ring = (phases[:, None] * v[None, :]).ravel()
                ea, eb = assembly.energies(ring.real, col_range=mid)
                if np.iscomplexobj(v) and np.any(v.imag):
                    ea2, eb2 = assembly.energies(ring.imag, col_range=mid)
                    ea, eb = ea + ea2, eb + eb2
                value = ea / eb
                move = max(move, abs(value - lam[j]))
                found.append((value, p, mult))
                record["eigenvalues"].append(float(value))
        record["seconds"] = time.perf_counter() - t_p
    found.sort(key=lambda r: r[0])
    lams = []
    for lam, p, mult in found:
        if len(lams) >= count:
            break
        taken = min(mult, count - len(lams))
        lams.extend([lam] * taken)
        pencils[p]["kept"] += taken
    lam = np.sort(np.array(lams))
    return EpsEigenResult(problem=problem, eigenvalues=lam, dof=P * m,
                          assembly_seconds=assembly.assembly_seconds,
                          solve_seconds=time.perf_counter() - t0,
                          pencils=pencils)


def solve_eps_poisson(problem, f, assembly=None):
    """Galerkin solution of the pulled-back Poisson problem with right side
    f(x, y) given by its formula on the physical domain."""
    if assembly is None:
        assembly = EpsAssembly(problem)
    rhs = assembly.assemble_rhs(f)
    x = solve_linear(assembly.stiffness.tocsc(), rhs)
    return x, assembly


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
