"""Limit-problem spectra and Poisson solves checked against an independent
shooting oracle and a collocation BVP solver.

The mode-m reduction is the constant-coefficient ODE -(D^2 - xi^2)^3 w =
(lam - 1) w on (-1, 0), so eigenvalues are roots of a 6x6 characteristic
determinant built from the exponential fundamental system.  That oracle
shares no code with the Hermite discretization.
"""

import json

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.linalg import eigh
from scipy.optimize import brentq

from trihomog import numerics
from trihomog.hermite import HermiteBasis1D, evaluate_fe, uniform_mesh
from trihomog import limit1d
from trihomog.limit1d import (LimitBC, LimitError, _mode_energy,
                              apply_strange_term, limit_space,
                              mode_stiffness, solve_limit_poisson,
                              solve_limit_spectrum, trace_dof)
from trihomog.sweep import write_json

from conftest import mode_matrices, solve_every_part, solve_one_mode

K_COS = 20.0 * np.pi ** 3            # strange constant of 1 + cos(2 pi y)


def _char_roots(lam, xi):
    """Six roots of (r^2 - xi^2)^3 + (lam - 1) = 0, the characteristic
    polynomial of the mode-xi strong form."""
    mu = ((lam - 1.0) ** (1.0 / 3.0)
          * np.exp(1j * np.pi * (2 * np.arange(3) + 1) / 3.0))
    r = np.sqrt(xi ** 2 + mu)
    return np.concatenate([r, -r])


_ROW_VALUE = lambda r: r ** 0
_ROW_SLOPE = lambda r: r
_ROW_CURV = lambda r: r ** 2
_ROW_THIRD = lambda r: r ** 3

# every regime keeps w(-1) = w'(-1) = 0 with the natural w'''(-1) = 0
_BOTTOM_ROWS = [(-1.0, _ROW_VALUE), (-1.0, _ROW_SLOPE), (-1.0, _ROW_THIRD)]


def _top_rows(bc):
    rows = [(0.0, _ROW_VALUE), (0.0, _ROW_SLOPE)]
    if bc.kind == "dirichlet":
        rows.append((0.0, _ROW_CURV))
    else:
        # natural condition w'''(0) - K_s w''(0) = 0 (K_s = 0 intermediate)
        ks = bc.signed_k()
        rows.append((0.0, lambda r: r ** 3 - ks * r ** 2))
    return rows


def _shooting_det(lam, xi, rows):
    r = _char_roots(lam, xi)
    M = np.array([poly(r) * np.exp(r * t) for t, poly in rows])
    M = M / np.max(np.abs(M), axis=0)       # column scaling
    return np.linalg.det(M)


def shooting_eigenvalue(bc, m, lo, hi):
    """Eigenvalue of the mode-m reduced problem in (lo, hi), as a root of
    the phase-normalized characteristic determinant."""
    xi = 2.0 * np.pi * abs(m)
    rows = _BOTTOM_ROWS + _top_rows(bc)
    ref = _shooting_det(0.5 * (lo + hi), xi, rows)
    phase = ref / abs(ref)
    return brentq(lambda lam: (_shooting_det(lam, xi, rows) / phase).real,
                  lo, hi, xtol=1e-9, rtol=8.9e-16)


# ----------------------------------------------------------------- contracts

def test_bc_validation():
    with pytest.raises(LimitError):
        LimitBC("robin")
    with pytest.raises(LimitError):
        LimitBC("intermediate", K=1.0)
    with pytest.raises(LimitError):
        LimitBC("strange", K=-1.0)
    assert LimitBC("strange", K=2.0).signed_k() == 2.0
    assert LimitBC("strange", K=2.0, flip_sign=True).signed_k() == -2.0


def test_trace_dof_and_strange_guard():
    sp_int = limit_space(LimitBC("intermediate"))
    assert trace_dof(sp_int) >= 0
    sp_dir = limit_space(LimitBC("dirichlet"))
    assert trace_dof(sp_dir) == -1
    S = mode_stiffness(0.0, sp_dir)
    with pytest.raises(LimitError):
        apply_strange_term(S, 1.0, sp_dir)


# ------------------------------------------------- eigenvalues vs shooting

@pytest.mark.parametrize("bc,m,bracket", [
    (LimitBC("intermediate"), 0, (19000.0, 21000.0)),
    (LimitBC("intermediate"), 1, (195000.0, 205000.0)),
    (LimitBC("dirichlet"), 0, (35000.0, 37000.0)),
    (LimitBC("strange", K=K_COS, flip_sign=True), 0, (34000.0, 36200.0)),
])
def test_ground_eigenvalue_matches_shooting(bc, m, bracket):
    oracle = shooting_eigenvalue(bc, m, *bracket)
    space = limit_space(bc)
    lam, _ = solve_one_mode(bc, m, 1, space)
    assert abs(lam[0] - oracle) < 1e-7 * abs(oracle), (lam[0], oracle)


def test_spectrum_ordering_across_regimes():
    # the +K strange term adds a nonnegative rank-one to the intermediate
    # form, and the flat-Dirichlet space is a subspace of both, so
    # lambda_j(int) <= lambda_j(strange, +K) <= lambda_j(dirichlet)
    count = 10
    lam_int = solve_limit_spectrum(LimitBC("intermediate"),
                                   count=count).eigenvalues()
    lam_hat = solve_limit_spectrum(
        LimitBC("strange", K=K_COS, flip_sign=True),
        count=count).eigenvalues()
    lam_dir = solve_limit_spectrum(LimitBC("dirichlet"),
                                   count=count).eigenvalues()
    tol = 1e-9 * np.abs(lam_dir)
    assert np.all(lam_int <= lam_hat + tol)
    assert np.all(lam_hat <= lam_dir + tol)
    assert np.all(lam_int >= 1.0)           # the form dominates the mass


def test_ground_eigenvalue_monotone_in_k():
    grounds = []
    for K in (0.0, 0.5 * K_COS, K_COS, 2.0 * K_COS):
        bc = LimitBC("strange", K=K, flip_sign=True)
        grounds.append(solve_limit_spectrum(bc, count=1,
                                            cutoff=0).eigenvalues()[0])
    lam_int = solve_limit_spectrum(LimitBC("intermediate"), count=1,
                                   cutoff=0).eigenvalues()[0]
    assert abs(grounds[0] - lam_int) < 1e-9 * lam_int   # K = 0 is intermediate
    assert np.all(np.diff(grounds) > 0)


def test_large_k_approaches_dirichlet():
    lam_dir = solve_limit_spectrum(LimitBC("dirichlet"), count=1,
                                   cutoff=0).eigenvalues()[0]
    gaps = []
    for K in (1e2, 1e4, 1e6):
        bc = LimitBC("strange", K=K, flip_sign=True)
        lam = solve_limit_spectrum(bc, count=1, cutoff=0).eigenvalues()[0]
        gaps.append(lam_dir - lam)
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1.0                     # K = 1e6 pinches w''(0) to zero


def test_literal_sign_runs_away(monkeypatch):
    # the form-lowering sign throws one branch per mode far below the
    # physical window while the remainder interlaces above the unperturbed
    # intermediate ground state.  The runaway comes from the secular
    # equation, bracketed from the cluster's shift: one eigen solve per mode
    bc = LimitBC("strange", K=K_COS, flip_sign=False)
    calls = []
    solve = limit1d.solve_smallest

    def counting(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(limit1d, "solve_smallest", counting)
    spec = solve_limit_spectrum(bc, count=3, cutoff=0)
    assert len(calls) == sum(r["status"] == "solved" for r in spec.modes)
    lam = spec.eigenvalues()
    lam_int = solve_limit_spectrum(LimitBC("intermediate"), count=1,
                                   cutoff=0).eigenvalues()[0]
    assert lam[0] < -1e10
    assert lam[1] >= lam_int * (1 - 1e-9)


def test_mode_floor_and_merged_symmetry():
    # per-mode the form dominates (xi^6 + 1) times the mass; in the merged
    # spectrum every m != 0 entry appears with its -m partner at the same
    # eigenvalue
    space = limit_space(LimitBC("intermediate"))
    lam2, _ = solve_one_mode(LimitBC("intermediate"), 2, 1, space)
    assert lam2[0] >= (4.0 * np.pi) ** 6 + 1.0
    spec = solve_limit_spectrum(LimitBC("intermediate"), count=8)
    lam = spec.eigenvalues()
    assert np.all(np.diff(lam) >= 0)
    by_abs = {}
    for val, m, idx in spec.entries:
        by_abs.setdefault((abs(m), idx), []).append((val, m))
    for (am, idx), hits in by_abs.items():
        if am > 0 and len(hits) == 2:
            assert hits[0][0] == hits[1][0]
            assert hits[0][1] == -hits[1][1]


def test_natural_third_derivative_vanishes():
    bc = LimitBC("intermediate")
    space = limit_space(bc)
    _, vec = solve_one_mode(bc, 0, 1, space)
    t = np.linspace(-1.0, 0.0, 1001)
    w3 = evaluate_fe(space, vec[:, 0], t, (3,))
    assert abs(w3[-1]) < 1e-8 * np.max(np.abs(w3))


@pytest.mark.parametrize("bc", [
    LimitBC("intermediate"), LimitBC("dirichlet"),
    LimitBC("strange", K=K_COS, flip_sign=True), LimitBC("strange", K=1.0),
], ids=["int", "dir", "strange-flipped", "strange-literal-small-k"])
def test_solve_mode_returns_quadrature_rayleigh_quotients(bc):
    # the eigenvalues are the quadrature-energy Rayleigh quotients of the
    # eigenvectors returned with them, in ascending order.  At K = 1 the
    # literal sign's lowest root lies above the shift xi^6 + 0.5, so the
    # secular equation finds no runaway and the cluster solve gives it
    space = limit_space(bc)
    lam, vec = solve_one_mode(bc, 1, 4, space)
    quotients = []
    for j in range(vec.shape[1]):
        ea, eb = _mode_energy(bc, 2.0 * np.pi, space, vec[:, j])
        quotients.append(ea / eb)
    assert np.all(np.diff(lam) >= 0)
    np.testing.assert_array_equal(lam, quotients)


def test_eigenvalue_convergence_is_sixth_order():
    bc = LimitBC("intermediate")
    oracle = shooting_eigenvalue(bc, 0, 19000.0, 21000.0)
    errs = []
    for n in (3, 6, 12):
        space = limit_space(bc, mesh=uniform_mesh(n))
        lam, _ = solve_one_mode(bc, 0, 1, space)
        errs.append(abs(lam[0] - oracle))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 5.5, (errs, rates)


# ---------------------------------------------------------------- mode walk

def test_limit_modes_start_from_the_random_block():
    # the 1D pencils are stored sparse (density 0.047 at n = 191), so no
    # dense eigh seeds them; from the random block every mode solve of the
    # count-20 walk takes 4 rounds, against 9, 7 and 9 from a dense seed
    spec = solve_limit_spectrum(LimitBC("intermediate"), count=20, cutoff=8)
    solved = [r for r in spec.modes if r["status"] == "solved"]
    assert len(solved) == 3
    assert all(r["start"] == "random" and r["rounds"] <= 6 for r in solved)


WALK_CONDITIONS = (
    ("int", LimitBC("intermediate")), ("dir", LimitBC("dirichlet")),
    ("strange-flipped", LimitBC("strange", K=K_COS, flip_sign=True)),
    ("strange-literal", LimitBC("strange", K=K_COS)))


@pytest.mark.parametrize("count, bc", [
    pytest.param(count, bc, id="%d-%s" % (count, name))
    for count in (3, 12) for name, bc in WALK_CONDITIONS] + [
    pytest.param(8, LimitBC("strange", K=1.0),
                 id="8-strange-literal-small-k")])
def test_mode_walk_is_bit_identical(count, bc, monkeypatch):
    # count 12 takes its last entry from a mode |m| >= 2 for every condition
    literal = bc.kind == "strange" and not bc.flip_sign
    walked = solve_limit_spectrum(bc, count=count)
    # a floor of -inf clears no shift: every mode is solved
    solve_every_part(monkeypatch, limit1d)
    every = solve_limit_spectrum(bc, count=count)
    assert walked.entries == every.entries
    assert [r["status"] for r in every.modes] == ["solved"] * 9
    assert [r["m"] for r in walked.modes] == list(range(9))
    # the literal sign lowers the form without bound: no mode has a floor
    assert all((r["floor"] is None) == literal for r in walked.modes)
    if count == 3:
        # modes 2-8: the floor certifies them, or for the literal sign the
        # secular sign does
        assert [r["rule"] for r in walked.modes[2:]] == \
            ["secular" if literal else "floor"] * 7
    elif count == 12:
        assert abs(walked.entries[-1][1]) >= 2
    else:
        # at the literal K = 1 mode 2 is checked at a shift above the floor
        # (4 pi)^6 + 1 of its S0, where the secular sign decides nothing:
        # it is solved
        mode2 = walked.modes[2]
        assert mode2["shift"] > (4.0 * np.pi) ** 6 + 1.0
        assert (mode2["status"], mode2["rule"]) == ("solved", None)
    lam_star = walked.entries[-1][0]
    for rec, ref in zip(walked.modes, every.modes):
        assert rec["kept"] == ref["kept"]
        if not literal:
            # a_xi(w, w) >= (xi^6 + 1) |w|^2 bounds every mode
            assert rec["floor"] == (2.0 * np.pi * rec["m"]) ** 6 + 1.0
            assert min(ref["eigenvalues"]) >= rec["floor"]
        if rec["status"] == "certified":
            # the form's floor certifies every mode it bounds; the literal
            # sign has none, and the secular sign certifies its modes
            assert rec["rule"] == ("secular" if literal else "floor")
            assert rec["eigenvalues"] == []
            # what a full solve finds there lies above the shift
            assert min(ref["eigenvalues"]) > rec["shift"] > lam_star
        else:
            assert rec["rule"] is None
            assert rec["eigenvalues"] == ref["eigenvalues"]
    assert sum(r["kept"] for r in walked.modes) == count


@pytest.mark.parametrize("K, runaways", [(1.0, 0), (50.0, 4), (K_COS, 9)])
def test_secular_sign_decides_as_dense_inertia_does(K, runaways):
    # below the floor xi^6 + 1 of S0 the literal pencil (S0 - K e e^T, M)
    # has at most one value (rank-one interlacing), and the secular
    # function h is negative exactly at the shifts above it.  The shifts
    # sit at the quarter points of each gap of the dense spectrum below the
    # floor, on both sides of the runaway where there is one (K = 1 throws
    # no mode below its floor, K = 50 modes 0-3, K = 620.13 all nine).  On
    # 16 uniform elements the pencils' top values are 2.6e13 and dense eigh
    # gives their lowest two to 7e-9 of solve_mode's; on the default graded
    # mesh they reach 1.7e27, and dense eigh misplaces the low values by up
    # to 1e11
    bc = LimitBC("strange", K)
    space = limit_space(bc, mesh=uniform_mesh(16))
    idx = trace_dof(space)
    thrown = 0
    for m in range(9):
        S, M, bands = mode_matrices(bc, m, space)
        lam = eigh(S.toarray(), M.toarray(), eigvals_only=True)
        floor = (2.0 * np.pi * m) ** 6 + 1.0
        edges = np.concatenate([[2.0 * min(lam[0], 0.0) - 1.0],
                                lam[lam < floor], [floor]])
        thrown += len(edges) - 2
        for lo, hi in zip(edges[:-1], edges[1:]):
            for s in (0.75 * lo + 0.25 * hi, 0.5 * (lo + hi),
                      0.25 * lo + 0.75 * hi):
                below = np.count_nonzero(lam < s)
                assert below <= 1
                assert (limit1d._secular(bands, K, idx, s) < 0) == \
                    (below == 1), (m, s)
    assert thrown == runaways


# ------------------------------------------------------------------ Poisson

def test_poisson_matches_collocation_bvp():
    # -w^(6) + w = f with the intermediate conditions, solved independently
    # by a high-order collocation BVP solver
    f0 = lambda t: np.cos(0.5 * np.pi * t)
    sol = solve_limit_poisson(LimitBC("intermediate"), {0: f0})

    def rhs(t, y):
        return np.vstack([y[1], y[2], y[3], y[4], y[5], y[0] - f0(t)])

    def bcs(ya, yb):
        return np.array([ya[0], ya[1], ya[3], yb[0], yb[1], yb[3]])

    t = np.linspace(-1.0, 0.0, 201)
    bvp = solve_bvp(rhs, bcs, t, np.zeros((6, t.size)), tol=1e-10,
                    max_nodes=200000)
    assert bvp.status == 0
    trace = complex(sol.trace_coeffs[0]).real
    assert abs(trace - bvp.sol(0.0)[2]) < 1e-6 * abs(trace)
    tt = np.linspace(-1.0, 0.0, 11)
    diff = np.max(np.abs(np.real(sol.eval_mode(0, tt)) - bvp.sol(tt)[0]))
    assert diff < 1e-9 * (1 + np.max(np.abs(bvp.sol(tt)[0])))


def test_poisson_trace_real_for_symmetric_data():
    f = {1: lambda t: (1.0 + 0.5j) * np.exp(t),
         -1: lambda t: (1.0 - 0.5j) * np.exp(t)}
    sol = solve_limit_poisson(LimitBC("intermediate"), f)
    x = np.linspace(0.0, 1.0, 17)
    vals = sol.trace(x)
    assert not np.iscomplexobj(vals)
    assert np.conj(complex(sol.trace_coeffs[-1])) == pytest.approx(
        complex(sol.trace_coeffs[1]), rel=1e-12)


def test_poisson_dirichlet_trace_is_zero():
    sol = solve_limit_poisson(LimitBC("dirichlet"), {0: lambda t: 1.0})
    assert sol.trace_coeffs[0] == 0.0
    assert np.max(np.abs(sol.trace(np.linspace(0, 1, 9)))) == 0.0


# ------------------------------------------------------------------- output

def test_spectrum_file_roundtrip(tmp_path):
    spec = solve_limit_spectrum(LimitBC("intermediate"), count=4, cutoff=1)
    path = tmp_path / "spectrum.json"
    write_json(path, spec.to_dict())
    back = json.loads(path.read_text())
    assert back["bc"] == "intermediate"
    assert len(back["eigs"]) == 4
    np.testing.assert_allclose([e["lambda"] for e in back["eigs"]],
                               spec.eigenvalues())


def test_limit_spectrum_reuses_the_shape_table(monkeypatch):
    # shape values come from one cached reference table (four evaluations
    # per process, none if an earlier test built it), not from
    # re-evaluating the polynomials per element and energy call
    calls = []
    real_eval = HermiteBasis1D.eval

    def counting_eval(self, s, deriv=0):
        calls.append(deriv)
        return real_eval(self, s, deriv)

    monkeypatch.setattr(HermiteBasis1D, "eval", counting_eval)
    solve_limit_spectrum(LimitBC("intermediate"), count=3, cutoff=2)
    assert len(calls) <= 4


def _sparse_resolvent_entry(S0, M, idx, lam):
    """The reference the banded resolvent replaced: x = (S0 - lam M)^{-1}
    e_idx through the equilibrated sparse solve numerics.solve_linear, and
    its idx entry."""
    rhs = np.zeros(S0.shape[0])
    rhs[idx] = 1.0
    x = numerics.solve_linear((S0 - lam * M).tocsc(), rhs)
    return x, float(x[idx])


@pytest.mark.parametrize("m", [0, 1])
def test_banded_resolvent_matches_the_sparse_reference(m, monkeypatch):
    # the literal -K secular equation: the banded Cholesky resolvent against
    # the equilibrated sparse LU it replaced, over the part of the bracket
    # below the pole, and the runaway root each gives.  Both are computed
    # in double from the same matrices, and against a 40-digit evaluation
    # each is off by up to ~1e-11 for lambda <= -1e13 (where the root lies)
    # and by up to ~5e-9 at -1e5 (S0 - lam M grows worse conditioned toward
    # the pole), so they agree only to that: measured 1.3e-11 and 5.7e-9
    bc = LimitBC("strange", K_COS)
    space = limit_space(bc)
    idx = trace_dof(space)
    S0 = mode_stiffness(2.0 * np.pi * m, space)
    _, M, bands = mode_matrices(bc, m, space)
    root = solve_one_mode(bc, m, 1, space)[0][0]
    assert root < -8e14
    for lam in (-1.2e15, root, -1e14, -1e12, -1e10, -1e8, -1e6, -1e5):
        x, f = limit1d._resolvent_entry(bands, idx, lam)
        x_ref, f_ref = _sparse_resolvent_entry(S0, M, idx, lam)
        tol = 1e-10 if lam <= -1e13 else 3e-8
        assert abs(f - f_ref) <= tol * f_ref
        assert np.linalg.norm(x - x_ref) <= tol * np.linalg.norm(x_ref)
    monkeypatch.setattr(
        limit1d, "_resolvent_entry",
        lambda bands, idx, lam: _sparse_resolvent_entry(S0, M, idx, lam))
    root_ref = solve_one_mode(bc, m, 1, space)[0][0]
    assert abs(root - root_ref) <= 1e-10 * abs(root_ref)
