"""Oscillating-domain solver checked against exact identities (area,
energy, symmetry) and against the limit solver on domains where the limit
is exact."""

import json

import numpy as np
import pytest

from trihomog import epsdomain, jets
from trihomog.epsdomain import (IDX3, IDX10, EpsAssembly, EpsError, EpsProblem,
                                compare_to_limit, save_eps_result,
                                solve_eps_poisson, solve_eps_spectrum_bloch,
                                vertical_mesh)
from trihomog.hermite import QUAD_ORDER, gauss_rule
from trihomog.limit1d import LimitBC, solve_limit_poisson, solve_limit_spectrum
from trihomog.oscillation import OscillationProfile, PerturbationParams

from conftest import solve_eps_spectrum


def _flat_profile():
    # g identically zero: Omega_eps is the unit square and the pullback is
    # the identity, so the limit problem is exact
    return OscillationProfile(1, {(0,): 0.0}, check_nonnegative=False)


@pytest.fixture(scope="module")
def cosine_assembly():
    profile = OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    prob = EpsProblem(profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=4)
    return prob, EpsAssembly(prob)


def test_problem_validation(cosine_profile):
    p2 = OscillationProfile(2, {(0, 0): 1.0})
    with pytest.raises(EpsError):
        EpsProblem(p2, PerturbationParams(0.25, 2.0))
    with pytest.raises(EpsError):
        EpsProblem(cosine_profile, PerturbationParams(0.25, 2.0),
                   elements_per_period=2)
    with pytest.raises(EpsError):
        EpsProblem(cosine_profile, PerturbationParams(0.25, 2.0),
                   n_coarse=4, n_layer=4)
    with pytest.raises(EpsError):
        vertical_mesh(0.5)          # layer split at -2 eps hits the bottom
    with pytest.raises(EpsError):
        EpsProblem(cosine_profile, PerturbationParams(0.5, 2.0))


def test_vertical_mesh_resolves_boundary_layer():
    mesh = vertical_mesh(0.125)
    assert abs(mesh.nodes[0] + 1.0) < 1e-15
    assert abs(mesh.nodes[-1]) < 1e-15
    sizes = mesh.sizes()
    assert np.all(sizes > 0)
    # geometric refinement toward the oscillating side
    assert sizes[-1] == sizes.min()
    assert np.any(np.abs(mesh.nodes + 0.25) < 1e-14)    # split node at -2 eps


def test_domain_area_identity(cosine_assembly):
    # |Omega_eps| = 1 + eps^alpha b_0 exactly; quadrature of |det J| must
    # reproduce it to roundoff
    prob, asm = cosine_assembly
    expect = 1.0 + 0.125 ** 2 * 1.0
    assert abs(asm.domain_area() - expect) < 1e-12


def test_quadrature_energies_match_matrix_form(cosine_assembly):
    _, asm = cosine_assembly
    rng = np.random.default_rng(7)
    v = rng.normal(size=asm.space.n_free)
    ea, eb = asm.energies(v)
    assert abs(ea - v @ (asm.stiffness @ v)) < 1e-12 * abs(ea)
    assert abs(eb - v @ (asm.mass @ v)) < 1e-12 * abs(eb)


def test_node_blocks_match_pointwise_pullback():
    # oracle for the vectorised chain-rule contraction of the assembly: the
    # stiffness and mass blocks of the nine dofs at one boundary-layer node,
    # rebuilt point by point from the scalar map jet (eval_pullback,
    # invert_jet3, transform_coeffs) and the plain integrands
    # (D^3 u : D^3 v + u v) |det J| and u v |det J|, summed over the four
    # elements that share the node
    profile = OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    params = PerturbationParams(0.25, 1.5)
    prob = EpsProblem(profile, params, elements_per_period=4)
    asm = EpsAssembly(prob)
    space = asm.space
    nodes = space.vmesh.nodes
    hx = 1.0 / prob.nx
    i0, j0 = 5, space.vmesh.n_elements - 1
    elems = [(i0 - 1 + a, j0 - 1 + b) for a in (0, 1) for b in (0, 1)]
    node = sorted(set.intersection(*(set(space.element_dofs_2d(i, j).tolist())
                                     for i, j in elems)))
    assert len(node) == 9
    free = space.full_to_free[node]
    assert np.all(free >= 0)
    sq, wq = gauss_rule(QUAD_ORDER)
    nq = len(sq)
    stiff = np.zeros((9, 9))
    mass = np.zeros((9, 9))
    for i, j in elems:
        ht = nodes[j + 1] - nodes[j]
        T = EpsAssembly._shape_tables(hx, ht)
        dofs = space.element_dofs_2d(i, j)
        local = [int(np.flatnonzero(dofs == g)[0]) for g in node]
        for qx in range(nq):
            for qt in range(nq):
                point = ((i + sq[qx]) * hx, nodes[j] + ht * sq[qt])
                C = jets.transform_coeffs(jets.invert_jet3(
                    profile.eval_pullback(params, point)))
                ref = {g: T[gi, qx * nq + qt, local]
                       for gi, g in enumerate(IDX10)}
                phys = {b: jets.apply_coeffs(C, ref, b) for b in IDX3}
                weight = C.det_jacobian * wq[qx] * wq[qt] * hx * ht
                uv = np.outer(ref[(0, 0)], ref[(0, 0)]) * weight
                mass += uv
                stiff += uv
                for b in IDX3:
                    stiff += (jets.multinomial(b) * weight
                              * np.outer(phys[b], phys[b]))
    for matrix, oracle in ((asm.stiffness, stiff), (asm.mass, mass)):
        np.testing.assert_allclose(matrix[free][:, free].toarray(), oracle,
                                   rtol=1e-10,
                                   atol=1e-13 * np.abs(oracle).max())


def test_flat_domain_reproduces_limit_spectrum():
    # with g = 0 the eps problem *is* the limit problem; only discretization
    # separates the two solvers
    prob = EpsProblem(_flat_profile(), PerturbationParams(0.25, 2.0),
                      elements_per_period=4)
    res = solve_eps_spectrum_bloch(prob, 3)
    lim = solve_limit_spectrum(LimitBC("intermediate"), count=3).eigenvalues()
    np.testing.assert_allclose(res.eigenvalues, lim, rtol=1e-5)
    # the m = +-1 pair of the limit appears as a double eigenvalue (the
    # p = 1 Bloch pencil, counted twice)
    assert abs(res.eigenvalues[1] - res.eigenvalues[2]) < 1e-8 * lim[1]


def test_bloch_reduction_matches_full_solve(cosine_assembly):
    prob, asm = cosine_assembly
    full = solve_eps_spectrum(prob, 3, assembly=asm)
    bloch = solve_eps_spectrum_bloch(prob, 3)
    np.testing.assert_allclose(bloch.eigenvalues, full, rtol=1e-10)


def test_ring_load_matches_torus_rows(cosine_assembly):
    # an eps-periodic, x-dependent load on the one-period ring gives the
    # element loads of the first period of the full torus
    prob, torus = cosine_assembly
    ring = EpsAssembly(prob, columns=prob.elements_per_period)
    eps = prob.params.epsilon

    def f(x, y):
        return (1.0 + np.cos(2.0 * np.pi * x / eps)) * y * (1.0 + y)

    full_ring = ring.space.embed(ring.assemble_rhs(f))
    full_torus = torus.space.embed(torus.assemble_rhs(f))
    atol = 1e-12 * np.max(np.abs(full_torus))
    for j in range(ring.space.vmesh.n_elements):
        for i in range(prob.elements_per_period):
            np.testing.assert_allclose(
                full_ring[ring.space.element_dofs_2d(i, j)],
                full_torus[torus.space.element_dofs_2d(i, j)],
                rtol=1e-12, atol=atol)


def test_ring_compare_samples_the_ring_coordinates(cosine_assembly):
    # u_lim = cos^2(2 pi x / eps) against a zero field: the one-period ring
    # covers x in [0, eps), so its l2_lim^2 is 1/periods of the torus value
    # int cos^4 = 3/8 (the sliver tau > 0 is excluded from both)
    prob, torus = cosine_assembly
    ring = EpsAssembly(prob, columns=prob.elements_per_period)
    eps = prob.params.epsilon

    def u_lim(x, y):
        return np.cos(2.0 * np.pi * x / eps) ** 2 + 0.0 * y

    sq = {}
    for name, asm in (("torus", torus), ("ring", ring)):
        rep = compare_to_limit(asm, np.zeros(asm.space.n_free), u_lim,
                               align=False)
        sq[name] = rep["l2_lim"] ** 2
    assert abs(sq["torus"] - 0.375) < 1e-3
    assert abs(sq["ring"] * prob.params.periods - sq["torus"]) \
        < 1e-10 * sq["torus"]


@pytest.fixture(scope="module")
def critical_ring():
    # alpha = 3/2, eps = 1/8: P = 8 periods, pencils p = 0..4
    profile = OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    prob = EpsProblem(profile, PerturbationParams(0.125, 1.5),
                      elements_per_period=4)
    return prob, EpsAssembly(prob, columns=3 * prob.elements_per_period)


# count 3 takes its last eigenvalue from the p = 1 band, count 8 from p = 2
@pytest.mark.parametrize("count", [3, 8])
def test_pruned_bloch_spectrum_is_bit_identical(critical_ring, count,
                                                monkeypatch):
    prob, ring = critical_ring
    pruned = solve_eps_spectrum_bloch(prob, count, assembly=ring)
    # a check that never answers is the fallback: every pencil is solved
    monkeypatch.setattr(epsdomain, "count_below", lambda A, B, shift: None)
    full = solve_eps_spectrum_bloch(prob, count, assembly=ring)
    assert np.array_equal(pruned.eigenvalues, full.eigenvalues)
    assert [r["status"] for r in full.pencils] == ["solved"] * 5
    assert [r["p"] for r in pruned.pencils] == list(range(5))
    certified = [r for r in pruned.pencils if r["status"] == "certified"]
    assert certified
    lam_star = pruned.eigenvalues[-1]
    for rec, ref in zip(pruned.pencils, full.pencils):
        assert rec["kept"] == ref["kept"]
        if rec["status"] == "certified":
            assert rec["below"] == 0 and rec["eigenvalues"] == []
            # what a full solve finds there lies above the shift
            assert min(ref["eigenvalues"]) > rec["shift"] > lam_star
        elif rec["below"] is not None and max(rec["eigenvalues"]) > \
                rec["shift"]:
            # the inertia count agrees with the solved eigenvalues
            assert rec["below"] == sum(v < rec["shift"]
                                       for v in rec["eigenvalues"])
    assert sum(r["kept"] for r in pruned.pencils) == count


def test_bloch_result_json_records_each_pencil(critical_ring, tmp_path):
    prob, ring = critical_ring
    res = solve_eps_spectrum_bloch(prob, 3, assembly=ring)
    path = tmp_path / "res.json"
    save_eps_result(res, str(path))
    data = json.loads(path.read_text())
    assert [r["status"] for r in data["pencils"]] == \
        ["solved", "solved", "certified", "certified", "certified"]
    assert set(data["pencils"][0]) == {"p", "theta", "status", "below",
                                       "shift", "eigenvalues", "kept",
                                       "seconds"}
    assert data["pencils"][0]["below"] is None
    assert data["pencils"][1]["below"] == 2


def test_bloch_needs_three_periods(cosine_profile):
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=4)
    ring = EpsAssembly(prob, columns=2 * prob.elements_per_period)
    with pytest.raises(EpsError):
        solve_eps_spectrum_bloch(prob, 1, assembly=ring)


def test_count_cap(cosine_profile):
    prob = EpsProblem(cosine_profile, PerturbationParams(0.25, 2.0))
    with pytest.raises(EpsError):
        solve_eps_spectrum_bloch(prob, 21)
    with pytest.raises(EpsError):
        solve_eps_spectrum_bloch(prob, 0)


def test_commensurate_translation_invariance(cosine_profile):
    # shifting the profile by an integer number of tangential elements
    # relabels the mesh, so the spectrum is invariant to roundoff
    eps = 0.25
    shift = 3.0 / 10.0 * eps              # 3 of 10 elements per period
    shifted = OscillationProfile(
        1, {k: c * np.exp(-2j * np.pi * k[0] * shift / eps)
            for k, c in cosine_profile.coefficients.items()})
    lam = []
    for prof in (cosine_profile, shifted):
        prob = EpsProblem(prof, PerturbationParams(eps, 1.5),
                          elements_per_period=10)
        lam.append(solve_eps_spectrum_bloch(prob, 1).eigenvalues[0])
    assert abs(lam[0] - lam[1]) < 1e-10 * lam[0]


def test_flat_poisson_matches_limit_solution():
    prob = EpsProblem(_flat_profile(), PerturbationParams(0.25, 2.0),
                      elements_per_period=4)
    x, asm = solve_eps_poisson(prob, lambda xb, y: np.cos(0.5 * np.pi * y))
    lim = solve_limit_poisson(LimitBC("intermediate"),
                              {0: lambda t: np.cos(0.5 * np.pi * t)})

    def u_lim(xb, y):
        return np.real(lim.eval_mode(0, np.ravel(y))).reshape(np.shape(y))

    rep = compare_to_limit(asm, x, u_lim, align=False)
    assert rep["sliver_mass"] == 0.0
    assert rep["l2_diff"] < 1e-4 * rep["l2_lim"]


def test_oscillating_poisson_reports_sliver(cosine_assembly):
    prob, asm = cosine_assembly
    x, _ = solve_eps_poisson(prob, lambda xb, y: np.cos(0.5 * np.pi * y),
                             assembly=asm)
    lim = solve_limit_poisson(LimitBC("intermediate"),
                              {0: lambda t: np.cos(0.5 * np.pi * t)})

    def u_lim(xb, y):
        return np.real(lim.eval_mode(0, np.ravel(y))).reshape(np.shape(y))

    rep = compare_to_limit(asm, x, u_lim, align=False)
    # part of the solution lives in the sliver above the flat line, and the
    # bulk parts genuinely differ at eps = 1/8
    assert rep["sliver_mass"] > 0.0
    assert rep["l2_diff"] > 1e-2 * rep["l2_lim"]
    aligned = compare_to_limit(asm, x, u_lim, align=True)
    assert aligned["l2_diff"] <= np.sqrt(2.0) + 1e-12   # unit-norm fields
