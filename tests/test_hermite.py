"""Quintic Hermite element exactness, continuity, and assembler
cross-checks."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from trihomog.epsdomain import IDX10, EpsAssembly, EpsProblem
from trihomog.hermite import (DiscretizationError, HermiteBasis1D,
                              assemble, assemble_quadratic, assemble_rhs,
                              build_space_1d, evaluate_fe, gauss_rule,
                              graded_mesh, quadratic_energy, scatter_elements,
                              to_csr, uniform_mesh)
from trihomog.limit1d import (MASS_WEIGHTS, LimitBC, limit_space,
                              stiffness_weights)
from trihomog.oscillation import OscillationProfile, PerturbationParams


def test_shape_functions_are_dual_to_nodal_functionals():
    basis = HermiteBasis1D()
    for d in range(3):
        at0 = basis.eval(np.array([0.0]), d)[0]
        at1 = basis.eval(np.array([1.0]), d)[0]
        for l in range(6):
            want0 = 1.0 if l == d else 0.0
            want1 = 1.0 if l == 3 + d else 0.0
            assert abs(at0[l] - want0) < 1e-12
            assert abs(at1[l] - want1) < 1e-12


def _interpolate_poly_1d(space, coeffs):
    """Free-dof vector interpolating the polynomial sum coeffs[p] t^p (all
    nodal value/derivative degrees of freedom set from the polynomial)."""
    der = [np.polynomial.polynomial.polyder(coeffs, d) if d else coeffs
           for d in range(3)]
    full = np.zeros(space.n_full)
    for i, t in enumerate(space.vmesh.nodes):
        for d in range(3):
            full[3 * i + d] = np.polynomial.polynomial.polyval(t, der[d])
    return full[space.free_to_full]


def test_quintic_reproduction():
    # the space contains every quintic exactly; interpolation at the nodal
    # degrees of freedom reproduces it to round-off (third derivatives on a
    # strongly graded mesh amplify round-off by h^{-3}, hence the split
    # tolerances)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=6)
    t = np.linspace(-1.0, 0.0, 257)
    for mesh, tol3 in [(uniform_mesh(8), 1e-11), (graded_mesh(9, 0.6), 1e-6)]:
        space = build_space_1d(mesh, bc_bottom="free", bc_top="free")
        vec = _interpolate_poly_1d(space, coeffs)
        for d in range(4):
            der = np.polynomial.polynomial.polyder(coeffs, d) if d else coeffs
            vals = evaluate_fe(space, vec, t, (d,))
            expect = np.polynomial.polynomial.polyval(t, der)
            scale = np.max(np.abs(expect)) + 1.0
            tol = 1e-11 if d < 3 else tol3
            assert np.max(np.abs(vals - expect)) < tol * scale, d


def test_c2_continuity_of_random_field():
    # one-sided limits at every interior node agree for value, first and
    # second derivative; the left limit is taken exactly at local s = 1 of
    # the left element (a perturbed physical point would pollute the check
    # with h^{-3}-amplified Taylor terms on the graded tail)
    mesh = graded_mesh(12, ratio=0.7)
    space = build_space_1d(mesh, bc_bottom="free", bc_top="free")
    rng = np.random.default_rng(5)
    vec = rng.normal(size=space.n_free)
    full = space.embed(vec)
    sizes = mesh.sizes()
    for d in range(3):
        shp = HermiteBasis1D().eval(np.array([1.0]), d)[0]
        right = evaluate_fe(space, vec, mesh.nodes[1:-1], (d,))
        for e in range(mesh.n_elements - 1):
            h = sizes[e]
            dofs = full[space.element_dofs_1d(e)]
            scale = np.array([h ** (l % 3) for l in range(6)])
            left = float((dofs * shp * scale).sum()) / h ** d
            tol = 1e-10 * (abs(right[e]) + 1.0)
            assert abs(left - right[e]) < tol, (d, e)


def test_graded_mesh_floor_and_extent():
    mesh = graded_mesh(64, ratio=0.75)
    sizes = mesh.sizes()
    assert abs(mesh.nodes[0] + 1.0) < 1e-15
    assert abs(mesh.nodes[-1]) < 1e-15
    assert np.all(sizes > 0)
    # the geometric tail stops within one grading step of the size floor
    assert sizes.min() >= 0.75 * sizes.max() / 64 * (1 - 1e-12)
    assert sizes.min() <= sizes.max() / 64
    # grading accumulates at the right end where the boundary layer lives
    assert sizes[-1] == sizes.min()


def test_graded_mesh_rejects_bad_parameters():
    with pytest.raises(DiscretizationError):
        graded_mesh(1)
    with pytest.raises(DiscretizationError):
        graded_mesh(8, ratio=1.5)


def test_bc_elimination_counts():
    mesh = uniform_mesh(8)
    s_free = build_space_1d(mesh, "free", "free")
    s_cl1 = build_space_1d(mesh, "clamped1", "clamped1")
    s_cl2 = build_space_1d(mesh, "clamped2", "clamped2")
    assert s_free.n_free == 3 * 9
    assert s_cl1.n_free == 3 * 9 - 4
    assert s_cl2.n_free == 3 * 9 - 6


def test_assemblers_agree_on_sixth_order_form():
    # generic callback assembler vs the fast weighted assembler on the
    # intermediate-problem form u''' v''' + u v and on the mode forms a_xi
    mesh = graded_mesh(6, ratio=0.7)
    space = build_space_1d(mesh, "clamped1", "clamped1")
    for c in ([1.0, 0.0, 0.0, 1.0], *(stiffness_weights(xi) for xi in
                                      (0.0, 2.0 * np.pi, 16.0 * np.pi))):
        fast = assemble_quadratic(space, c)

        def integrand(point, ju, jv):
            return sum(c[d] * ju[(d,)] * jv[(d,)] for d in range(4))

        generic = assemble(space, integrand)
        diff = (fast - generic).toarray()
        scale = np.max(np.abs(fast.toarray()))
        assert np.max(np.abs(diff)) < 1e-12 * scale


def test_negative_derivative_weight_is_refused():
    space = build_space_1d(uniform_mesh(4), "clamped1", "clamped1")
    x = np.ones(space.n_free)
    with pytest.raises(DiscretizationError, match="negative"):
        assemble_quadratic(space, [1.0, 0.0, -1e-3, 1.0])
    with pytest.raises(DiscretizationError, match="negative"):
        quadratic_energy(space, [-1.0, 0.0, 0.0, 1.0], x)


def test_quadratic_energy_matches_matrix_form():
    mesh = graded_mesh(8, ratio=0.7)
    space = build_space_1d(mesh, "clamped1", "clamped1")
    c = [2.0, 0.5, 0.0, 1.0]
    A = assemble_quadratic(space, c)
    rng = np.random.default_rng(11)
    x = rng.normal(size=space.n_free)
    direct = quadratic_energy(space, c, x)
    through_matrix = float(x @ (A @ x))
    assert abs(direct - through_matrix) < 1e-9 * (1 + abs(direct))


def test_rhs_integrates_loads_exactly():
    # int f v for a quintic f against an interpolated quintic v equals the
    # exact polynomial integral (Gauss order 8 integrates degree 15)
    mesh = uniform_mesh(4)
    space = build_space_1d(mesh, "free", "free")
    f_coeffs = np.array([1.0, -2.0, 0.5, 0.0, 1.5, -0.25])
    v_coeffs = np.array([0.5, 1.0, -1.0, 2.0, 0.0, 0.3])
    rhs = assemble_rhs(space, lambda t:
                       np.polynomial.polynomial.polyval(t, f_coeffs))
    vec = _interpolate_poly_1d(space, v_coeffs)
    prod = np.polynomial.polynomial.polymul(f_coeffs, v_coeffs)
    anti = np.polynomial.polynomial.polyint(prod)
    exact = (np.polynomial.polynomial.polyval(0.0, anti)
             - np.polynomial.polynomial.polyval(-1.0, anti))
    assert abs(float(rhs @ vec) - exact) < 1e-13 * (1 + abs(exact))


def test_2d_tensor_space_reproduces_biquintics():
    # the eps solver's row tables on a flat one-period ring, where the
    # pullback is the identity: a quintic in t, constant in x and clamped at
    # both ends, set at every column's nodes, is reproduced exactly
    flat = OscillationProfile(1, {(0,): 0.0})
    prob = EpsProblem(flat, PerturbationParams(1 / 4, 2.0),
                      elements_per_period=4)
    asm = EpsAssembly(prob, columns=4)
    space = asm.space
    # w = t^2 (1 + t)^2 (0.3 - 0.7 t)
    w = Polynomial([0.0, 0.0, 1.0, 2.0, 1.0]) * Polynomial([0.3, -0.7])
    nt1 = space.vmesh.n_elements + 1
    full = np.zeros(space.n_full)
    for i in range(space.nx):
        for j, t in enumerate(space.vmesh.nodes):
            for b in range(3):
                full[(i * nt1 + j) * 9 + b] = w.deriv(b)(t)
    # the clamped dofs, zeroed here, are where w and w' vanish
    full = space.embed(full[space.free_to_full])
    gammas = [IDX10.index((0, 0)), IDX10.index((0, 3))]
    err_value = err_third = scale_third = 0.0
    for geo in asm._rows:
        u = asm._element_values(geo, full, gammas)
        third = w.deriv(3)(geo["tau"])
        err_value = max(err_value, np.max(np.abs(u[0] - w(geo["tau"]))))
        err_third = max(err_third, np.max(np.abs(u[1] - third)))
        scale_third = max(scale_third, np.max(np.abs(third)))
    assert err_value < 1e-14
    assert scale_third > 16.0            # the maximum on [-1, 0] is 16.2
    assert err_third < 1e-10 * scale_third


def test_gauss_rule_integrates_high_degree():
    s, w = gauss_rule(8)
    for p in range(16):
        val = float((w * s ** p).sum())
        assert abs(val - 1.0 / (p + 1)) < 1e-14


@pytest.mark.parametrize("kind", ["intermediate", "strange", "dirichlet"])
def test_assembly_plan_matches_a_fresh_plan(kind):
    # the plan kept on a space gives, call after call, the bits of a fresh
    # plan on a fresh space and of the scatter_elements + to_csr route of
    # the Gram elements of the weighted rows; a caller that scribbles over
    # a returned matrix cannot reach the plan
    bc = LimitBC(kind, 620.0 if kind == "strange" else 0.0)
    space = limit_space(bc)
    override = limit_space(bc, mesh=uniform_mesh(12))
    assert override.plan is not space.plan
    for sp, fresh in ((space, lambda: limit_space(bc)),
                      (override, lambda: limit_space(bc,
                                                     mesh=uniform_mesh(12)))):
        plan = sp.plan
        for xi in (0.0, 2.0 * np.pi, 16.0 * np.pi):
            for weights in (stiffness_weights(xi), MASS_WEIGHTS):
                kept = assemble_quadratic(sp, weights)
                new = assemble_quadratic(fresh(), weights)
                d = np.flatnonzero(weights)
                root = np.sqrt(weights[d][:, None] * plan.weights[:, None])
                rows = (root[..., None] * plan.table[:, d]).reshape(
                    len(plan.dofs), -1, 6)
                elems = np.matmul(rows.transpose(0, 2, 1), rows)
                coo = to_csr(sp, [scatter_elements(sp, plan.dofs, elems)])
                for ref in (new, coo):
                    assert np.array_equal(kept.data, ref.data)
                    assert np.array_equal(kept.indices, ref.indices)
                    assert np.array_equal(kept.indptr, ref.indptr)
                kept.data[:] = np.nan
                kept.indices[:] = 0
                kept.indptr[:] = 0
                again = assemble_quadratic(sp, weights)
                assert np.array_equal(again.data, new.data)
                assert np.array_equal(again.indices, new.indices)
                assert np.array_equal(again.indptr, new.indptr)
        assert vars(plan).keys() == {"table", "weights", "dofs"}
    assert override.plan.table.shape[0] == 12
    assert space.plan.table.shape[0] == space.vmesh.n_elements
