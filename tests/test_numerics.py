"""Eigen and linear solver contracts, checked against dense oracles on
well-conditioned pencils and against invariance properties on hard ones."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla
from scipy.linalg import eigh

from trihomog import numerics, sweep
from trihomog.epsdomain import (EpsAssembly, EpsProblem, _bloch,
                                _hermitian, _period_rows,
                                solve_eps_spectrum_bloch)
from trihomog.limit1d import LimitBC, limit_space
from trihomog.numerics import (AugmentedLU, FormedLU, Gram,
                               SolverError, solve_linear,
                               solve_smallest, walk_spectrum)
from trihomog.oscillation import PerturbationParams
from trihomog.sweep import default_profile

from conftest import mode_matrices


def test_diagonal_pencil():
    A = sparse.diags([2.0, 3.0, 7.0, 11.0]).tocsr()
    B = sparse.identity(4, format="csr")
    lam, vec = solve_smallest(A, B, 2, 0.0)
    np.testing.assert_allclose(lam, [2.0, 3.0], rtol=1e-12)


def test_diagonal_pencil_with_mass():
    A = sparse.diags([2.0, 3.0]).tocsr()
    B = sparse.diags([2.0, 1.0]).tocsr()
    lam, _ = solve_smallest(A, B, 2, 0.0)
    np.testing.assert_allclose(lam, [1.0, 3.0], rtol=1e-12)


def _random_spd_pencil(rng, n=50, spread=1e6):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = np.geomspace(1.0, spread, n)
    A = Q @ np.diag(a) @ Q.T
    R, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = np.geomspace(1.0, 10.0, n)
    B = R @ np.diag(b) @ R.T
    return sparse.csr_matrix(0.5 * (A + A.T)), sparse.csr_matrix(0.5 * (B + B.T))


def test_random_pencil_against_dense_oracle():
    rng = np.random.default_rng(12)
    A, B = _random_spd_pencil(rng)
    dense = np.sort(eigh(A.toarray(), B.toarray(), eigvals_only=True))
    lam, vec = solve_smallest(A, B, 6, 0.0)
    np.testing.assert_allclose(lam, dense[:6], rtol=1e-10)


def test_shift_independence():
    rng = np.random.default_rng(19)
    A, B = _random_spd_pencil(rng)
    lam1, _ = solve_smallest(A, B, 4, 0.3)
    lam2, _ = solve_smallest(A, B, 4, 0.7)
    np.testing.assert_allclose(lam1, lam2, rtol=1e-8)


def test_b_orthonormal_eigenvectors():
    rng = np.random.default_rng(23)
    A, B = _random_spd_pencil(rng)
    lam, vec = solve_smallest(A, B, 5, 0.0)
    gram = vec.T @ (B @ vec)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
    # and they satisfy the pencil equation in the B^{-1} metric
    for j in range(5):
        r = A @ vec[:, j] - lam[j] * (B @ vec[:, j])
        assert np.linalg.norm(r) < 1e-6 * np.linalg.norm(A @ vec[:, j])


def test_verify_pencil_keeps_the_dense_seed(monkeypatch):
    # the 50 x 50 pencil of verify's numerics check is stored dense, where
    # dense eigh costs the order of the factorization; from a random block
    # it would take 22 rounds, past MAX_ROUNDS
    records = []
    solve = numerics.solve_smallest

    def recording(*args, **kwargs):
        records.append({})
        return solve(*args, stats=records[-1], **kwargs)

    monkeypatch.setattr(numerics, "solve_smallest", recording)
    sweep._verify_numerics()
    assert [r["start"] for r in records] == ["dense"]


def test_a_sparse_pencil_asked_for_nearly_all_pairs_starts_random():
    # a banded 30 x 30 SPD pair, stored at density 0.16, asked for n - 1
    # eigenpairs: the random block then spans the whole space, and the
    # pairs match dense eigh
    n = 30
    T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (T @ T + sparse.identity(n)).tocsc()
    B = (sparse.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n)) / 6).tocsc()
    assert 2 * A.nnz < n * n
    stats = {}
    lam, vec = solve_smallest(A, B, n - 1, 0.0, stats=stats)
    dense = eigh(A.toarray(), B.toarray(), eigvals_only=True)[:n - 1]
    np.testing.assert_allclose(lam, dense, rtol=1e-10)
    assert stats["start"] == "random"
    np.testing.assert_allclose(vec.T @ (B @ vec), np.eye(n - 1), atol=1e-10)


def test_count_validation():
    A = sparse.identity(4, format="csr")
    with pytest.raises(SolverError):
        solve_smallest(A, A, 0, 0.5)
    with pytest.raises(SolverError):
        solve_smallest(A, A, 9, 0.5)


def test_complex_hermitian_pencil():
    rng = np.random.default_rng(31)
    n = 40
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = H @ H.conj().T + n * np.eye(n)
    B = np.eye(n)
    dense = np.sort(np.linalg.eigvalsh(A))
    lam, vec = solve_smallest(sparse.csr_matrix(A), sparse.csr_matrix(B),
                              4, 0.0)
    np.testing.assert_allclose(lam, dense[:4], rtol=1e-9)


def test_solve_linear_against_dense():
    rng = np.random.default_rng(37)
    n = 60
    A, _ = _random_spd_pencil(rng, n=n, spread=1e8)
    x_true = rng.normal(size=n)
    rhs = A @ x_true
    x = solve_linear(A.tocsc(), rhs)
    assert np.linalg.norm(x - x_true) < 1e-6 * np.linalg.norm(x_true)


def test_solve_linear_complex_hermitian_against_dense():
    # the complex Bloch systems of the torus Poisson solve
    rng = np.random.default_rng(39)
    n = 60
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A = Q @ np.diag(np.geomspace(1.0, 1e8, n)) @ Q.conj().T
    A = sparse.csc_matrix(0.5 * (A + A.conj().T))
    x_true = rng.normal(size=n) + 1j * rng.normal(size=n)
    rhs = A @ x_true
    x = solve_linear(A, rhs)
    assert x.dtype == complex
    assert np.linalg.norm(x - x_true) < 1e-6 * np.linalg.norm(x_true)


def test_solve_linear_real_matrix_complex_rhs(monkeypatch):
    # the complex mode amplitudes of the limit Poisson problem: a complex
    # right side on a real matrix is its real and imaginary systems, solved
    # with one factor, and an all-zero imaginary part costs no solve
    rng = np.random.default_rng(43)
    n = 60
    A, _ = _random_spd_pencil(rng, n=n, spread=1e8)
    A = A.tocsc()
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = solve_linear(A, b)
    assert x.dtype == complex
    assert np.array_equal(x, solve_linear(A, b.real)
                          + 1j * solve_linear(A, b.imag))
    calls = []
    real_splu = spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls.append("solve")
            return self.lu.solve(rhs)

    def counting_splu(*args, **kwargs):
        calls.append("splu")
        return CountingLU(real_splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counting_splu)
    solve_linear(A, b)
    # one factor; two parts, each solved and refined once
    assert calls == ["splu"] + ["solve"] * 4
    calls.clear()
    x = solve_linear(A, b.real.astype(complex))
    assert calls == ["splu"] + ["solve"] * 2
    assert np.array_equal(x, solve_linear(A, b.real))


def test_equilibrated_lu_solves_shifted_pencil():
    # the formed factor of an assembled pencil, in equilibrated variables
    rng = np.random.default_rng(41)
    A, B = _random_spd_pencil(rng, n=30)
    fac = FormedLU(A.tocsc(), B.tocsc(), -1.0)
    b = rng.normal(size=30)
    x = fac.d * fac.solve(fac.d * b)
    ref = np.linalg.solve(A.toarray() + B.toarray(), b)
    np.testing.assert_allclose(x, ref, rtol=1e-10)
    y = fac.solve_refined(fac.d * b)
    np.testing.assert_allclose(fac.d * y, ref, rtol=1e-10)


def _random_factor_pencil(rng, complex_entries, rows=120, n=40):
    """The Gram of a sparse least-squares factor G (rows x n, a few entries
    per row, spread over six decades) and a positive definite B."""
    G = sparse.random(rows, n, density=0.15, random_state=rng, format="csr")
    G = G + sparse.identity(n, format="csr").tocsr()[rng.integers(0, n, rows)]
    G = sparse.diags(np.geomspace(1.0, 1e3, rows)) @ G
    if complex_entries:
        G = G + 1j * sparse.diags(rng.normal(size=rows)) @ abs(G).sign()
    _, B = _random_spd_pencil(rng, n=n)
    G = G.tocsr()
    return Gram(G, (G.conj().T @ G).tocsc()), B


@pytest.mark.parametrize("complex_entries", [False, True])
def test_gram_pencil_against_dense_oracle(complex_entries):
    rng = np.random.default_rng(59)
    gram, B = _random_factor_pencil(rng, complex_entries)
    dense = eigh(gram.A.toarray(), B.toarray(), eigvals_only=True)
    stats = {}
    lam, vec = solve_smallest(gram, B, 4, 0.5 * dense[0], stats=stats)
    # a random start converges to the 1e-8 drift gate, not to the last bits
    np.testing.assert_allclose(lam, dense[:4], rtol=1e-8)
    np.testing.assert_allclose(vec.conj().T @ (B @ vec), np.eye(4),
                               atol=1e-8)
    assert stats["factor"] == "formed" and stats["factorizations"] == 1
    assert "formed_moves" not in stats
    assert stats["n"] == 40 and stats["nnz"] == gram.G.nnz
    assert stats["residual"] <= stats["gate"] == numerics.EIGEN_TOL
    # the first solve takes refine_steps + 1 refinement steps, the rounds
    # after it and the one residual check refine_steps each
    depth = stats["refine_steps"]
    assert depth in (0, 1, 2)
    assert stats["block_solves"] == (2 + depth) + stats["rounds"] * (1 + depth)


def test_formed_factor_falls_back_to_the_pivoted_augmented_factor(
        monkeypatch):
    # a first solve on the formed factor still moving more than PIVOT_MOVE
    # after its last step releases that factor before anything else is
    # factored; the pencil is then solved from the same start on a pivoted
    # AugmentedLU, to its eigenvalues bit for bit
    rng = np.random.default_rng(61)
    gram, B = _random_factor_pencil(rng, False)
    shift = 0.5 * eigh(gram.A.toarray(), B.toarray(), eigvals_only=True)[0]
    aug = AugmentedLU(gram, B, shift)
    lam_aug, _, info = numerics._subspace_iteration(
        aug, numerics._initial_block(aug, 4), 4)
    formed = []

    class Formed(FormedLU):
        def __init__(self, *args):
            super().__init__(*args)
            formed.append(self)

    class Augmented(AugmentedLU):
        def __init__(self, *args):
            assert [fac.lu for fac in formed] == [None]
            super().__init__(*args)

    monkeypatch.setattr(numerics, "FormedLU", Formed)
    monkeypatch.setattr(numerics, "AugmentedLU", Augmented)
    monkeypatch.setattr(numerics, "PIVOT_MOVE", -1.0)
    stats = {}
    lam, _ = solve_smallest(gram, B, 4, shift, stats=stats)
    assert np.array_equal(lam, lam_aug)
    assert (stats["factor"], stats["factorizations"]) == ("augmented", 2)
    assert stats["formed_moves"] == formed[0].moves
    assert len(stats["formed_moves"]) == FormedLU.STEPS == 3
    assert stats["refine_steps"] == AugmentedLU.STEPS == 2
    assert (stats["rounds"], stats["fill"]) == (info["rounds"], aug.lu.nnz)


@pytest.mark.parametrize("rate, factor", [(0.3, "formed"),
                                           (0.6, "augmented")])
def test_formed_first_solve_steps_on_while_it_contracts(rate, factor,
                                                        monkeypatch):
    # a formed factor off by the scale 1 - rate solves with error rate x
    # and its refinement contracts by exactly that rate per step.  At
    # PIVOT_MOVE = 1e-3 a rate of 0.3 needs six steps, past the first
    # STEPS, and halves every move, so the pencil stays formed; a rate of
    # 0.6 does not halve, and stalls after STEPS steps
    class Scaled(FormedLU):
        def _solve(self, C):
            return (1.0 - rate) * super()._solve(C)

    rng = np.random.default_rng(61)
    gram, B = _random_factor_pencil(rng, False)
    shift = 0.5 * eigh(gram.A.toarray(), B.toarray(), eigvals_only=True)[0]
    lam_ref = solve_smallest(gram, B, 4, shift)[0]
    monkeypatch.setattr(numerics, "FormedLU", Scaled)
    monkeypatch.setattr(numerics, "PIVOT_MOVE", 1e-3)
    stats = {}
    lam, _ = solve_smallest(gram, B, 4, shift, stats=stats)
    assert stats["factor"] == factor
    if factor == "formed":
        assert (stats["refine_steps"], stats["factorizations"]) == (5, 1)
        assert stats["move"] <= 1e-3
    else:
        moves = stats["formed_moves"]
        assert len(moves) == FormedLU.STEPS
        assert moves[-1] > 0.5 * moves[-2]
    np.testing.assert_allclose(lam, lam_ref, rtol=1e-8)


@pytest.mark.parametrize("depth", [0, 1])
def test_later_solves_take_the_first_solves_depth(depth, monkeypatch):
    # the first solve stops at the first refinement step that moves at most
    # PIVOT_MOVE, and every later solve takes the steps it needed before
    # that one.  This formed factor's first step moves about 2e-14 and its
    # second about 6e-16, so a PIVOT_MOVE between the two makes it need
    # one step
    rng = np.random.default_rng(61)
    gram, B = _random_factor_pencil(rng, False)
    C, D = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
    ref = FormedLU(gram, B, -1.0)
    ref.solve_refined(C)
    assert ref.refine_steps == 0
    assert 1e-15 < ref.moves[0] <= numerics.PIVOT_MOVE
    if depth:
        monkeypatch.setattr(numerics, "PIVOT_MOVE", ref.moves[0] / 10)
    fac = FormedLU(gram, B, -1.0)
    fac.solve_refined(C)
    assert (fac.refine_steps, fac.solves) == (depth, 2 + depth)
    assert len(fac.moves) == depth + 1
    assert fac.moves[-1] <= numerics.PIVOT_MOVE
    X = fac.solve_refined(D)
    assert fac.solves == 2 + depth + 1 + depth
    dense = gram.A.toarray() + B.toarray()
    np.testing.assert_allclose(fac.d[:, None] * X,
                               np.linalg.solve(dense, D / fac.d[:, None]),
                               rtol=1e-9)


def test_refinement_depth_keeps_the_bloch_eigenvalues(monkeypatch):
    # each formed factor refined as deep as its first solve needs, against
    # two refinement steps in every solve: the eigenvalues agree to 1e-10
    problem = EpsProblem(default_profile(), PerturbationParams(0.125, 1.5),
                         elements_per_period=16)
    res = solve_eps_spectrum_bloch(problem, 3)
    monkeypatch.setattr(FormedLU, "_first_depth",
                        lambda self: 2 if len(self.moves) == 2 else None)
    ref = solve_eps_spectrum_bloch(problem, 3)
    solved = [(r, s) for r, s in zip(res.pencils, ref.pencils)
              if r["status"] == "solved"]
    assert len(solved) >= 2
    for rec, two in solved:
        assert rec["factor"] == two["factor"] == "formed"
        assert rec["refine_steps"] < two["refine_steps"] == 2
        assert rec["block_solves"] < two["block_solves"]
    np.testing.assert_allclose(res.eigenvalues, ref.eigenvalues, rtol=1e-10,
                               atol=0)


def test_singular_shift_raises():
    # a shift at an eigenvalue, or a singular matrix, cannot be factored
    # without pivoting: the solve fails loudly, with no shift moved
    A = sparse.diags([1.0, 2.0, 3.0]).tocsc()
    with pytest.raises(SolverError, match="formed factorization failed"):
        solve_smallest(A, sparse.identity(3, format="csc"), 1, 1.0)
    with pytest.raises(SolverError, match="formed factorization failed"):
        solve_linear(sparse.diags([1.0, 0.0, 3.0]).tocsc(), np.ones(3))


def test_assembled_pencil_fills_the_solver_record():
    # a 1D limit pencil is solved on the formed factor and records it as a
    # Gram pencil does
    bc = LimitBC("intermediate")
    space = limit_space(bc)
    S, M, _ = mode_matrices(bc, 1, space)
    stats = {}
    solve_smallest(S.tocsc(), M.tocsc(), 3, (2.0 * np.pi) ** 6 + 0.5,
                   stats=stats)
    assert stats["factor"] == "formed" and stats["factorizations"] == 1
    assert stats["n"] == space.n_free and stats["nnz"] <= S.nnz
    assert stats["fill"] >= stats["nnz"]
    assert stats["refine_steps"] in (0, 1, 2)
    assert stats["residual"] <= stats["gate"] == numerics.EIGEN_TOL
    assert stats["rounds"] >= 1


def _banded_hermitian_pencil(rng, n, complex_entries):
    """Sparse pentadiagonal Hermitian pencil with B positive definite and
    an A whose pencil eigenvalues straddle several shifts."""
    def band(scale):
        offs = [scale * rng.normal(size=n - k) for k in (1, 2)]
        if complex_entries:
            offs = [o + 1j * scale * rng.normal(size=n - k)
                    for o, k in zip(offs, (1, 2))]
        return offs

    a1, a2 = band(1.0)
    b1, b2 = band(0.1)
    A = sparse.diags([a2.conj(), a1.conj(), rng.uniform(1.0, 9.0, n), a1, a2],
                     [-2, -1, 0, 1, 2]).tocsc()
    B = sparse.diags([b2.conj(), b1.conj(), rng.uniform(1.0, 2.0, n), b1, b2],
                     [-2, -1, 0, 1, 2]).tocsc()
    return A, B


def _walk_diagonal_parts(solved, spec=(("a", [1.0, 2.0, 3.0], 1),
                                       ("b", [3.0, 9.0], 2),
                                       ("c", [20.0, 30.0], 2),
                                       ("d", [3.001, 60.0], 1)),
                         floors=None, asked=None):
    """walk_spectrum parts whose solves return their diagonal and an empty
    solver record; ``solved`` collects the names of the parts solved.
    ``spec`` holds each part's name, diagonal and multiplicity, and
    ``floors`` maps a name to its floor: a part with one has no certify.
    A part without one is certified by the rule "diagonal" when no
    diagonal entry lies below the check shift, and ``asked``, a list,
    collects the shifts it is asked at.  With count 4 the default parts
    go: a and b are solved unchecked (3 values in hand, then 7); c is
    certified empty below the shift 3 + 3e-3; d is checked (one value
    below) and solved, but supplies nothing."""
    for name, diag, mult in spec:
        def solve(name=name, diag=diag):
            solved.append(name)
            return diag, {}

        def certify(shift, diag=diag):
            if asked is not None:
                asked.append(shift)
            return "diagonal" if min(diag) >= shift else None
        floor = (floors or {}).get(name)
        yield ({"name": name}, None if floor is not None else certify, floor,
               mult, solve)


def test_walk_spectrum_skips_merges_and_records():
    solved = []
    taken, records = walk_spectrum(_walk_diagonal_parts(solved), 4)
    assert solved == ["a", "b", "d"]
    assert [(r["status"], r["rule"]) for r in records] == [
        ("solved", None), ("solved", None), ("certified", "diagonal"),
        ("solved", None)]
    assert records[2]["shift"] == 3.0 + 3e-3
    assert records[2]["eigenvalues"] == []
    # the exact tie at 3 goes to the earlier part a, so only one copy of
    # b's pair fits below the count: b is split at the boundary
    assert taken == [(1.0, 0, 0, 0), (2.0, 0, 1, 0), (3.0, 0, 2, 0),
                     (3.0, 1, 0, 0)]
    assert [r["kept"] for r in records] == [3, 1, 0, 0]
    for rec in records:
        assert list(rec) == ["name", "status", "rule", "floor", "shift",
                             "eigenvalues", "kept", "seconds"]
        assert rec["seconds"] >= 0.0
    # a check that never certifies solves every part, to the same result
    every, full = walk_spectrum(
        ((label, lambda shift: None, floor, mult, solve)
         for label, _, floor, mult, solve in _walk_diagonal_parts(solved)), 4)
    assert every == taken
    assert [r["status"] for r in full] == ["solved"] * 4
    assert [r["rule"] for r in full] == [None] * 4
    assert [r["kept"] for r in full] == [r["kept"] for r in records]
    assert min(full[2]["eigenvalues"]) > records[2]["shift"]


def test_walk_spectrum_merges_each_solver_record_after_seconds():
    # a solved part's solver record follows the walk's keys; its own
    # seconds replaces the walk's in place, and a certified part gets none
    def part(name, diag, solver):
        return {"name": name}, None, min(diag), 1, lambda: (diag, solver)

    _, records = walk_spectrum(
        [part("a", [1.0, 2.0], {"n": 2, "seconds": 7.5}),
         part("b", [3.0], {"n": 1}),
         part("c", [50.0], {"n": 1, "seconds": 7.5})], 3)
    walk = ["name", "status", "rule", "floor", "shift", "eigenvalues",
            "kept", "seconds"]
    assert [list(r) for r in records] == [walk + ["n"], walk + ["n"], walk]
    assert [r["status"] for r in records] == ["solved", "solved", "certified"]
    assert records[0]["seconds"] == 7.5
    assert 0.0 <= records[1]["seconds"] < 7.5
    assert 0.0 <= records[2]["seconds"] < 7.5
    assert [r.get("n") for r in records] == [2, 1, None]


def test_walk_spectrum_certifies_by_the_floor_or_solves():
    # c's floor 10 lies above the shift 3 + 3e-3: c is certified by it.
    # d's floor 3 lies below the shift, so d is solved; a part with a floor
    # is never asked to certify itself
    solved, asked = [], []
    taken, records = walk_spectrum(_walk_diagonal_parts(
        solved, floors={"a": 1.0, "c": 10.0, "d": 3.0}, asked=asked), 4)
    assert solved == ["a", "b", "d"] and asked == []
    assert [(r["status"], r["rule"], r["floor"]) for r in records] == [
        ("solved", None, 1.0), ("solved", None, None),
        ("certified", "floor", 10.0), ("solved", None, 3.0)]
    assert records[2]["shift"] == records[3]["shift"] == 3.0 + 3e-3
    # the same values as the walk without floors
    plain, _ = walk_spectrum(_walk_diagonal_parts([]), 4)
    assert taken == plain


def test_walk_spectrum_refuses_a_solved_value_below_its_floor():
    # a's floor 1.5 lies above its value 1: the floor does not bound a,
    # and a certification by it could have dropped values
    with pytest.raises(SolverError, match="below its floor"):
        walk_spectrum(_walk_diagonal_parts([], floors={"a": 1.5}), 4)


def test_walk_spectrum_checks_every_part_once_count_values_are_in_hand():
    # a holds all three wanted values, so b is checked at lam* = 3; its 1.5
    # lies below that shift, so the check does not certify b and b is
    # solved; c is checked at lam* = 2 from a and b
    solved, asked = [], []
    taken, records = walk_spectrum(_walk_diagonal_parts(
        solved, (("a", [1.0, 2.0, 3.0], 1), ("b", [1.5, 9.0], 1),
                 ("c", [20.0, 30.0], 1)), asked=asked), 3)
    assert solved == ["a", "b"] and asked == [3.0 + 3e-3, 2.0 + 2e-3]
    assert [(r["status"], r["rule"], r["shift"]) for r in records] == [
        ("solved", None, None), ("solved", None, 3.0 + 3e-3),
        ("certified", "diagonal", 2.0 + 2e-3)]
    assert taken == [(1.0, 0, 0, 0), (1.5, 1, 0, 0), (2.0, 0, 1, 0)]
    # count 1: b's floor 5 lies above a's value 1, so b is certified by its
    # floor, as c is, and only a is solved
    solved = []
    taken, records = walk_spectrum(_walk_diagonal_parts(
        solved, (("a", [1.0, 2.0, 3.0], 1), ("b", [6.0, 9.0], 1),
                 ("c", [20.0, 30.0], 1)), floors={"b": 5.0, "c": 7.0}), 1)
    assert solved == ["a"]
    assert [(r["status"], r["rule"], r["shift"]) for r in records] == [
        ("solved", None, None), ("certified", "floor", 1.0 + 1e-3),
        ("certified", "floor", 1.0 + 1e-3)]
    assert taken == [(1.0, 0, 0, 0)]


def _mgs_reference(B, X):
    """Modified Gram-Schmidt forming B X_j for every overlap."""
    for j in range(X.shape[1]):
        for i in range(j):
            X[:, j] -= np.vdot(X[:, i], B @ X[:, j]) * X[:, i]
        X[:, j] /= np.sqrt(np.vdot(X[:, j], B @ X[:, j]).real)
    return X


@pytest.mark.parametrize("complex_entries", [False, True])
def test_b_orthonormalize_forms_one_product_per_column(complex_entries):
    rng = np.random.default_rng(67)
    _, B = _banded_hermitian_pencil(rng, 60, complex_entries)
    X = rng.standard_normal((60, 11))
    if complex_entries:
        X = X + 1j * rng.standard_normal((60, 11))

    class Counting:
        products = 0

        def __matmul__(self, x):
            self.products += 1
            return B @ x

    counted = Counting()
    Q = numerics._b_orthonormalize(counted, X.copy())
    assert counted.products == 11
    np.testing.assert_allclose(Q.conj().T @ (B @ Q), np.eye(11), atol=1e-12)
    np.testing.assert_allclose(Q, _mgs_reference(B, X.copy()), atol=1e-12)


def _assert_same_csc(X, Y):
    assert X.format == Y.format == "csc"
    assert np.array_equal(X.indptr, Y.indptr)
    assert np.array_equal(X.indices, Y.indices)
    assert X.dtype == Y.dtype
    assert X.data.tobytes() == Y.data.tobytes()


@pytest.mark.parametrize("case", ["real", "complex", "explicit zero",
                                  "unsorted"])
def test_equilibrate_equals_the_literal_product(case):
    # _scaled scales each stored entry by d[row], then by d[col]: the
    # two roundings of the sparse product D @ A @ D, which also drops the
    # entries that become exactly zero and sorts the indices
    rng = np.random.default_rng(47)
    A, B = _banded_hermitian_pencil(rng, 40, case == "complex")
    A.data *= np.geomspace(1.0, 1e12, A.nnz)
    if case == "explicit zero":
        assert A.indices[A.indptr[5]] != 5     # an off-diagonal entry
        A.data[A.indptr[5]] = 0.0
    if case == "unsorted":
        for j in range(A.shape[1]):
            col = slice(A.indptr[j], A.indptr[j + 1])
            A.indices[col], A.data[col] = (A.indices[col][::-1].copy(),
                                           A.data[col][::-1].copy())
        A.has_sorted_indices = False
    d = numerics._jacobi(A)
    As, Bs = numerics._scaled(A, d), numerics._scaled(B, d)
    D = sparse.diags(d)
    _assert_same_csc(As, (D @ A @ D).tocsc())
    _assert_same_csc(Bs, (D @ B @ D).tocsc())
    if case == "explicit zero":
        assert As.nnz == A.nnz - 1


@pytest.fixture(scope="module")
def ring_pencils():
    """The real p = 0 and the complex p = 1 Bloch pencils of a small ring
    (eps = 1/4, 4 elements per period): 852 dofs, above the dense-seed
    size, so their subspace iteration starts from a random block."""
    problem = EpsProblem(default_profile(), PerturbationParams(0.25, 2.0),
                         elements_per_period=4)
    ring = EpsAssembly(problem, columns=12)
    stiffness, mass = (_period_rows(ring, kind) for kind in ("stiffness",
                                                             "mass"))
    pencils = [(_hermitian(_bloch(stiffness, p, 4)),
                _hermitian(_bloch(mass, p, 4))) for p in (0, 1)]
    assert pencils[0][0].shape[0] > 600
    return pencils


def test_failing_residual_reports_the_one_gate(ring_pencils, monkeypatch):
    # residuals above EIGEN_TOL in every round: an assembled pencil and a
    # Gram pencil both fail against the gate EIGEN_TOL
    monkeypatch.setattr(numerics, "_worst_residual",
                        lambda fac, lam, vec: 1e6)
    for A, B in (ring_pencils[0],
                 _random_factor_pencil(np.random.default_rng(59), False)):
        with pytest.raises(SolverError) as err:
            solve_smallest(A, B, 2, 0.5)
        assert str(err.value) == ("shift-inverted eigen residual %.3e "
                                  "exceeds gate %.1e"
                                  % (1e6, numerics.EIGEN_TOL))
