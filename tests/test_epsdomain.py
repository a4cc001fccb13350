"""Oscillating-domain solver checked against exact identities (area,
energy, symmetry) and against the limit solver on domains where the limit
is exact."""

import json

import numpy as np
import pytest
from scipy import sparse

from trihomog import epsdomain, jets, numerics
from trihomog.epsdomain import (IDX3, IDX10, EpsAssembly, EpsError,
                                EpsProblem, _bloch, _factor_elements,
                                _hermitian, _mass_elements, _offset_blocks,
                                _period_rows, _stiffness_elements,
                                compare_to_limit, solve_eps_poisson,
                                solve_eps_spectrum_bloch, vertical_mesh)
from trihomog.hermite import QUAD_ORDER, gauss_rule
from trihomog.limit1d import LimitBC, solve_limit_poisson, solve_limit_spectrum
from trihomog.numerics import solve_linear
from trihomog.oscillation import OscillationProfile, PerturbationParams
from trihomog.sweep import write_json

from conftest import solve_eps_poisson_direct, solve_eps_spectrum


def _flat_profile():
    # g identically zero: Omega_eps is the unit square and the pullback is
    # the identity, so the limit problem is exact
    return OscillationProfile(1, {(0,): 0.0})


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
        vertical_mesh(0.5, 16, 8)   # layer split at -2 eps hits the bottom
    with pytest.raises(EpsError):
        EpsProblem(cosine_profile, PerturbationParams(0.5, 2.0))


def test_vertical_mesh_resolves_boundary_layer():
    mesh = vertical_mesh(0.125, 16, 8)
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
    # invert_shear_derivs, transform_coeffs) and the plain integrands
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
                C, det_jacobian = jets.transform_coeffs(
                    jets.invert_shear_derivs(
                        profile.eval_pullback(params, point), 2), 2)
                ref = {g: T[gi, qx * nq + qt, local]
                       for gi, g in enumerate(IDX10)}
                phys = {b: jets.apply_coeffs(C, ref, b) for b in IDX3}
                weight = det_jacobian * wq[qx] * wq[qt] * hx * ht
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
    monkeypatch.setattr(numerics, "count_below", lambda A, B, shift: None)
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
    write_json(str(path), res.to_dict())
    data = json.loads(path.read_text())
    assert [r["status"] for r in data["pencils"]] == \
        ["solved", "solved", "certified", "certified", "certified"]
    walk = ["p", "theta", "status", "below", "shift", "eigenvalues", "kept",
            "seconds"]
    solver = ["n", "nnz", "fill", "factor", "move", "refine_steps",
              "block_solves", "factorizations", "rounds", "residual", "gate"]
    assert list(data["pencils"][0]) == walk + solver
    assert list(data["pencils"][2]) == walk
    # the first two pencils are solved unchecked, the rest checked
    assert [r["below"] for r in data["pencils"]] == [None, None, 0, 0, 0]


@pytest.mark.parametrize("p", [0, 1])
def test_factor_gram_equals_the_bloch_stiffness(critical_ring, p,
                                                monkeypatch):
    # the stiffness pencil the walk checks, the Gram of the factor's offset
    # blocks, against the assembled rows of period block 0: real at p = 0,
    # complex at p = 1
    prob, ring = critical_ring
    pencils = []

    def capture(parts, count):
        pencils.extend(pencil for _, pencil, _, _ in parts)
        return [], []

    monkeypatch.setattr(epsdomain, "walk_spectrum", capture)
    solve_eps_spectrum_bloch(prob, 3, assembly=ring)
    gram, mass = pencils[p]
    P = prob.params.periods
    A = _hermitian(_bloch(_period_rows(ring, "stiffness"), p, P))
    m = ring.space.n_free // 3
    assert gram.shape == mass.shape == A.shape == (m, m)
    assert np.iscomplexobj(gram) == np.iscomplexobj(A) == (p == 1)
    assert abs(gram - A).max() <= 1e-14 * abs(A).max()


@pytest.mark.parametrize("den", [64, 128, 256])
def test_flat_factored_ground_state_matches_the_limit(den):
    # with g = 0 the p = 0 pencil is the 1D intermediate mode-0 pencil on
    # the same vertical mesh; the assembled h^{-6} stiffness lost this
    # agreement below eps = 1/32, the factored solve keeps it, falling back
    # to the pivoted augmented factor where the formed one would not do
    eps = 1.0 / den
    prob = EpsProblem(_flat_profile(), PerturbationParams(eps, 2.0),
                      elements_per_period=4)
    res = solve_eps_spectrum_bloch(prob, 1)
    ref = solve_limit_spectrum(
        LimitBC("intermediate"), count=1,
        mesh=vertical_mesh(eps, prob.n_coarse, prob.n_layer)).eigenvalues()
    assert abs(res.eigenvalues[0] - ref[0]) <= 1e-9 * ref[0]
    if den >= 128:
        assert res.pencils[0]["factor"] == "augmented"


@pytest.mark.parametrize("alpha, eps, epp", [(1.0, 0.125, 32),
                                             (1.5, 0.0625, 16)])
def test_benchmark_cases_solve_unpivoted(cosine_profile, alpha, eps, epp):
    # the two eps-spec cases of the bloch_spectra benchmark: one formed
    # (unpivoted) factor per solved pencil, converged well inside the round
    # cap
    prob = EpsProblem(cosine_profile, PerturbationParams(eps, alpha),
                      elements_per_period=epp)
    res = solve_eps_spectrum_bloch(prob, 3)
    solved = [r for r in res.pencils if r["status"] == "solved"]
    assert [r["p"] for r in solved] == [0, 1]
    for rec in solved:
        assert rec["factor"] == "formed"
        assert rec["factorizations"] == 1
        assert rec["rounds"] <= 6
        assert rec["residual"] <= rec["gate"] == numerics.EIGEN_TOL


def test_formed_factor_matches_the_pivoted_augmented_factor(cosine_profile,
                                                            monkeypatch):
    # the alpha = 3/2 bloch_spectra case on the formed factor, and with
    # PIVOT_MOVE below every move on the pivoted augmented factor
    prob = EpsProblem(cosine_profile, PerturbationParams(0.0625, 1.5),
                      elements_per_period=16)
    formed = solve_eps_spectrum_bloch(prob, 3)
    monkeypatch.setattr(numerics, "PIVOT_MOVE", -1.0)
    augmented = solve_eps_spectrum_bloch(prob, 3)
    pairs = [(r, s) for r, s in zip(formed.pencils, augmented.pencils)
             if r["status"] == s["status"] == "solved"]
    assert [r["p"] for r, _ in pairs] == [0, 1]
    for rec, ref in pairs:
        assert (rec["factor"], ref["factor"]) == ("formed", "augmented")
        assert rec["fill"] < ref["fill"]
        np.testing.assert_allclose(rec["eigenvalues"], ref["eigenvalues"],
                                   rtol=1e-10, atol=0)
    np.testing.assert_allclose(formed.eigenvalues, augmented.eigenvalues,
                               rtol=1e-10, atol=0)


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


def _count_solves(monkeypatch):
    """Record (order, load norm) of every epsdomain.solve_linear call."""
    calls = []

    def counted(A, rhs):
        calls.append((A.shape[0], np.linalg.norm(rhs)))
        return solve_linear(A, rhs)

    monkeypatch.setattr(epsdomain, "solve_linear", counted)
    return calls


def _galerkin_gap(asm, rhs, x):
    """Relative gap of the Galerkin identity a(u, u) = <f, u>, with a(u, u)
    by quadrature."""
    ea, _ = asm.energies(x)
    work = float(rhs @ x)
    return abs(ea - work) / abs(work)


@pytest.mark.parametrize("eps", [0.25, 0.125])
def test_torus_poisson_bloch_matches_direct(cosine_profile, eps,
                                            monkeypatch):
    # tangential modes 0..4 of the data reach every Bloch system, p = P/2
    # included (mode 2 at P = 4, mode 4 at P = 8)
    def f(x, y):
        return (1.0 + np.cos(2.0 * np.pi * x) + np.sin(4.0 * np.pi * x)
                + np.cos(6.0 * np.pi * x) + np.cos(8.0 * np.pi * x)
                ) * y * (1.0 + y)

    prob = EpsProblem(cosine_profile, PerturbationParams(eps, 2.0),
                      elements_per_period=4)
    asm = EpsAssembly(prob)
    rhs = asm.assemble_rhs(f)
    direct = solve_eps_poisson_direct(asm, rhs)
    calls = _count_solves(monkeypatch)
    x, out = solve_eps_poisson(prob, f, assembly=asm)
    assert out is asm
    P = prob.params.periods
    assert [n for n, _ in calls] == [asm.space.n_free // P] * (P // 2 + 1)
    loads = [b for _, b in calls]
    assert min(loads) > 1e-3 * max(loads)
    assert np.linalg.norm(x - direct) < 1e-8 * np.linalg.norm(direct)
    assert _galerkin_gap(asm, rhs, x) < 1e-7


def test_whole_period_rings(cosine_profile):
    # a ring's geometry is eps-periodic only over whole periods
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=4)
    for columns in (0, 2, 6, -4):
        with pytest.raises(EpsError):
            EpsAssembly(prob, columns=columns)
    assert EpsAssembly(prob, columns=8).columns == 8


def test_offset_blocks_reject_a_block_two_periods_away():
    m = 3
    for periods in (4, 5):
        M = sparse.csr_matrix(([1.0, 2.0], ([0, 1], [1, 2 * m + 1])),
                              shape=(m, periods * m))
        with pytest.raises(EpsError):
            _offset_blocks(M, m, periods)
    M = sparse.csr_matrix(([1.0, 2.0, 3.0], ([0, 1, 2], [1, m, 4 * m])),
                          shape=(m, 5 * m))
    assert sorted(_offset_blocks(M, m, 5)) == [-1, 0, 1]


def test_two_period_ring_poisson_matches_direct(cosine_profile,
                                                monkeypatch):
    # two periods: the +1 and -1 couplings fall into the same block, and
    # the load differs between the two periods
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=4)
    ring = EpsAssembly(prob, columns=2 * prob.elements_per_period)
    eps = prob.params.epsilon

    def f(x, y):
        return (1.0 + np.sin(np.pi * x / eps)) * y * (1.0 + y)

    direct = solve_eps_poisson_direct(ring, ring.assemble_rhs(f))
    calls = _count_solves(monkeypatch)
    x, _ = solve_eps_poisson(prob, f, assembly=ring)
    assert [n for n, _ in calls] == [ring.space.n_free // 2] * 2
    assert np.linalg.norm(x - direct) < 1e-8 * np.linalg.norm(direct)


def test_ring_poisson_is_one_direct_solve(cosine_profile, monkeypatch):
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=4)
    ring = EpsAssembly(prob, columns=prob.elements_per_period)

    def f(x, y):
        return y * (1.0 + y)

    direct = solve_eps_poisson_direct(ring, ring.assemble_rhs(f))
    calls = _count_solves(monkeypatch)
    x, _ = solve_eps_poisson(prob, f, assembly=ring)
    assert [n for n, _ in calls] == [ring.space.n_free]
    assert np.array_equal(x, direct)


def test_torus_poisson_galerkin_identity(cosine_profile):
    # the benchmark's torus case: 27,264 dof in 5 Bloch systems
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 2.0),
                      elements_per_period=16)

    def f(x, y):
        return np.cos(2.0 * np.pi * x) * y * (1.0 + y)

    x, asm = solve_eps_poisson(prob, f)
    assert _galerkin_gap(asm, asm.assemble_rhs(f), x) < 2e-5


def _assert_same_csr(A, B):
    for a, b in ((A.indptr, B.indptr), (A.indices, B.indices),
                 (A.data, B.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _small_ring_and_torus(profile):
    """A 3-period ring (eps = 1/8) and a 4-period torus (eps = 1/4), both
    with 4 elements per period."""
    ring = EpsProblem(profile, PerturbationParams(0.125, 1.5),
                      elements_per_period=4)
    torus = EpsProblem(profile, PerturbationParams(0.25, 2.0),
                       elements_per_period=4)
    return (EpsAssembly(ring, columns=3 * ring.elements_per_period),
            EpsAssembly(torus))


def test_period_blocks_equal_slices_of_the_full_matrices(cosine_profile):
    # the blocks assemble only the columns that touch period block 0; their
    # rows are those of the whole assembly, bit for bit
    for asm in _small_ring_and_torus(cosine_profile):
        periods = asm.columns // asm.problem.elements_per_period
        m = asm.space.n_free // periods
        for kind, M in (("stiffness", asm.stiffness), ("mass", asm.mass)):
            blocks = _period_rows(asm, kind)
            assert sorted(blocks) == [-1, 0, 1]
            _assert_same_csr(blocks[0], M[:m, :m])
            _assert_same_csr(blocks[1], M[:m, m:2 * m])
            _assert_same_csr(blocks[-1], M[:m, (periods - 1) * m:])


def test_poisson_assembles_only_what_it_reads(cosine_profile):
    prob = EpsProblem(cosine_profile, PerturbationParams(0.25, 2.0),
                      elements_per_period=4)

    def f(x, y):
        return np.cos(2.0 * np.pi * x) * y * (1.0 + y)

    _, torus = solve_eps_poisson(prob, f)
    assert "stiffness" not in torus.__dict__
    assert "mass" not in torus.__dict__
    ring = EpsAssembly(prob, columns=prob.elements_per_period)
    solve_eps_poisson(prob, f, assembly=ring)
    assert "stiffness" not in ring.__dict__
    assert "mass" not in ring.__dict__


def _whole_row_then_sliced(geo, cols):
    """Stiffness, factor and mass element matrices of the columns ``cols``,
    by their kernels on every column of the row, sliced afterwards."""
    every = np.arange(geo["detJ"].shape[0])
    return tuple(kernel(geo, every)[cols] for kernel in
                 (_stiffness_elements, _factor_elements, _mass_elements))


def test_column_subset_elements_equal_the_whole_row(cosine_profile):
    # the kernels form only the columns a Bloch block reads; the element
    # rows and their Gram matrices work element by element, so every kernel
    # gives the bits of the whole row, sliced, and the mass stays within
    # 1e-15 of the literal quadrature sum.  The benchmark's alpha = 1 ring
    # (96 columns) and Poisson torus (128)
    for alpha, epp, columns in ((1.0, 32, 96), (2.0, 16, None)):
        prob = EpsProblem(cosine_profile, PerturbationParams(0.125, alpha),
                          elements_per_period=epp)
        asm = EpsAssembly(prob, columns=columns)
        every = np.arange(asm.columns)
        block = np.append(np.arange(epp), asm.columns - 1)
        for geo in asm._rows[::5]:
            for cols in (every, block):
                stiffness, factor, mass = _whole_row_then_sliced(geo, cols)
                assert np.array_equal(_stiffness_elements(geo, cols),
                                      stiffness)
                assert np.array_equal(_factor_elements(geo, cols), factor)
                assert np.array_equal(_mass_elements(geo, cols), mass)
            literal = np.einsum('iq,qa,qb->iab', geo["detJ"] * geo["w"],
                                geo["T"][0], geo["T"][0])
            err = np.abs(_mass_elements(geo, every) - literal).max()
            assert err <= 1e-15 * np.abs(literal).max()


def test_stiffness_elements_are_the_gram_of_their_factor(cosine_profile):
    # one source of element rows: the stiffness element is rows' rows, the
    # factor the QR triangle of the same rows; the benchmark's alpha = 1
    # ring (96 columns)
    prob = EpsProblem(cosine_profile, PerturbationParams(0.125, 1.0),
                      elements_per_period=32)
    asm = EpsAssembly(prob, columns=96)
    cols = np.arange(asm.columns)
    for geo in asm._rows:
        S = _stiffness_elements(geo, cols)
        R = _factor_elements(geo, cols)
        err = np.abs(np.matmul(R.transpose(0, 2, 1), R) - S).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * np.abs(S).max(axis=(1, 2)))
