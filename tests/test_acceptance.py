"""Acceptance gate: the nine headline criteria, one visible PASS/FAIL line
each.

Every criterion is evaluated against independent oracles (finite
differences, shooting determinants, closed forms) or against the qualitative
limit-theory claims (classification, monotone trends).  Criteria that the
converged production solver genuinely cannot meet fail here with the
measured numbers in the message rather than being tuned away; the analysis
lives in the repository notes.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from trihomog import jets
from trihomog.cell import (UNIVERSAL_MODE_CONSTANT, compute_k_report,
                           corrector_vhat, mode_energy_closed_form,
                           mode_energy_quadrature, residual_check, solve_cell)
from trihomog.epsdomain import (EpsAssembly, EpsProblem, compare_to_limit,
                                solve_eps_poisson)
from trihomog.hermite import (HermiteBasis1D, build_space_1d, evaluate_fe,
                              graded_mesh, uniform_mesh)
from trihomog.limit1d import (LimitBC, limit_space, solve_limit_poisson,
                              solve_limit_spectrum)
from trihomog.oscillation import (OscillationProfile, PerturbationParams,
                                  unfolded_h_limit_error, verify_h_bounds)
from trihomog.sweep import (REGIME_DIRICHLET, REGIME_INTERMEDIATE,
                            REGIME_STRANGE, SweepConfig, run_converge)

from conftest import random_nonneg_profile, solve_one_mode

COSINE = OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
K_COS = 20.0 * np.pi ** 3


def _emit(capsys, n, title, ok, detail, seconds, budget):
    line = ("CRITERION %d (%s): %s — %s (%.1fs / budget %.0fs)"
            % (n, title, "PASS" if ok else "FAIL", detail, seconds, budget))
    with capsys.disabled():
        print(line)
    assert seconds < budget, "runtime %.1fs exceeds budget %.0fs" % (seconds,
                                                                     budget)
    assert ok, line


def test_criterion_1_triple_agreement(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    profiles = [COSINE] + [random_nonneg_profile(rng, n_pairs=5)
                           for _ in range(10)]
    worst = 0.0
    for profile in profiles:
        report = compute_k_report(profile)
        worst = max(worst, report.agreement())
    _emit(capsys, 1, "strange-coefficient triple agreement", worst < 1e-8,
          "max pairwise relative disagreement %.2e over 11 profiles" % worst,
          time.perf_counter() - t0, 5.0)


def test_criterion_2_universal_mode_constant(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    ratios = []
    quad_err = 0.0
    for _ in range(5):
        solution = solve_cell(random_nonneg_profile(rng, n_pairs=5))
        for k in solution.sorted_keys():
            mode = solution.modes[k]
            if mode.xi == 0.0:
                continue
            denom = mode.xi ** 3 * abs(mode.c1) ** 2
            ratios.append(mode_energy_closed_form(mode) / denom)
    ratios = np.array(ratios)
    spread = np.ptp(ratios) / np.mean(ratios)
    # Gauss-quadrature confirmation on one concrete mode
    mode = solve_cell(COSINE).modes[(1,)]
    denom = mode.xi ** 3 * 0.25
    quad_err = abs(mode_energy_quadrature(mode) / denom
                   - UNIVERSAL_MODE_CONSTANT)
    ok = (spread < 1e-9
          and abs(np.mean(ratios) - UNIVERSAL_MODE_CONSTANT) < 1e-10
          and quad_err < 1e-10)
    _emit(capsys, 2, "universal mode constant", ok,
          "constant %.12g, relative spread %.2e over %d modes, "
          "quadrature deviation %.2e"
          % (np.mean(ratios), spread, len(ratios), quad_err),
          time.perf_counter() - t0, 5.0)


def test_criterion_3_cell_residuals_and_traces(capsys):
    t0 = time.perf_counter()
    solution = solve_cell(COSINE)
    res = residual_check(solution)
    res_ok = (res.ode_max < 1e-10 * res.scale and res.bc_value < 1e-12
              and res.bc_slope < 1e-12 and res.bc_third < 1e-12)

    def trace(xbar):
        return np.cos(3.0 * xbar) + 0.5

    ybar = np.linspace(-0.5, 0.5, 64, endpoint=False)
    worst_tan = worst_mix = 0.0
    for xb in np.linspace(0.0, 1.0, 64, endpoint=False):
        point = (xb, np.stack([ybar, np.zeros_like(ybar)], axis=-1))
        tangential = corrector_vhat(solution, trace, point, deriv_y=(2, 0))
        mixed = corrector_vhat(solution, trace, point, deriv_y=(1, 1))
        expect = COSINE.eval_b(ybar, (1,)) * trace(xb)
        worst_tan = max(worst_tan, float(np.max(np.abs(tangential))))
        worst_mix = max(worst_mix, float(np.max(np.abs(mixed - expect))))
    ok = res_ok and worst_tan < 1e-10 and worst_mix < 1e-10
    _emit(capsys, 3, "cell residuals and corrector traces", ok,
          "ode %.1e of scale, trace identities %.1e / %.1e on 64x64"
          % (res.ode_max / res.scale, worst_tan, worst_mix),
          time.perf_counter() - t0, 10.0)


def _fd(f, x, y, i, j, h):
    if i > 0:
        return (_fd(f, x + h, y, i - 1, j, h)
                - _fd(f, x - h, y, i - 1, j, h)) / (2 * h)
    if j > 0:
        return (_fd(f, x, y + h, i, j - 1, h)
                - _fd(f, x, y - h, i, j - 1, h)) / (2 * h)
    return f(x, y)


def test_criterion_4_chain_rule_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    pairs = 0
    for _ in range(10):
        # single-mode maps with random amplitude and phase: higher modes
        # raise the map's sixth derivative like k^6 and push the central-
        # difference truncation error past the comparison tolerance
        c = 0.5 * complex(rng.normal(), rng.normal())
        c /= max(1.0, 2.0 * abs(c))
        profile = OscillationProfile(1, {(0,): 2.0 * abs(c) + 0.1, (1,): c})
        params = PerturbationParams(epsilon=1 / 4,
                                    alpha=float(rng.uniform(1.8, 2.5)))
        point = (float(rng.uniform(0, 1)), float(rng.uniform(-0.9, -0.1)))

        def tau(x, t):
            return t + (t + 1.0) * profile.eval_g(params, x)

        def tau_inv(x, tv):
            return brentq(lambda t: tau(x, t) - tv, -1.5, 0.5, xtol=1e-14)

        jet = profile.eval_pullback(params, point)
        C, _ = jets.transform_coeffs(jets.invert_shear_derivs(jet, 2), 2)
        tau0 = tau(*point)
        for _ in range(10):
            cc = rng.normal(size=(4, 4))

            def u_ref(x, t):
                return sum(cc[i, j] * x ** i * t ** j
                           for i in range(4) for j in range(4) if i + j <= 3)

            def u_ref_d(x, t, i, j):
                s = 0.0
                for a in range(i, 4):
                    for b in range(j, 4):
                        if a + b <= 3:
                            s += (cc[a, b] * math.perm(a, i) * math.perm(b, j)
                                  * x ** (a - i) * t ** (b - j))
                return s

            ref_jet = {(i, j): u_ref_d(point[0], point[1], i, j)
                       for i in range(4) for j in range(4) if i + j <= 3}

            def u_phys(x, tv):
                return u_ref(x, tau_inv(x, tv))

            pairs += 1
            for beta in jets.multi_indices(2):
                if jets.index_order(beta) == 0:
                    continue
                pred = jets.apply_coeffs(C, ref_jet, beta)
                # two Richardson levels kill the h^2 and h^4 terms of the
                # central differences; the base step balances the remaining
                # truncation against the h^-3 roundoff amplification
                h = 4e-3
                d1 = _fd(u_phys, point[0], tau0, beta[0], beta[1], h)
                d2 = _fd(u_phys, point[0], tau0, beta[0], beta[1], h / 2)
                d3 = _fd(u_phys, point[0], tau0, beta[0], beta[1], h / 4)
                r1 = (4.0 * d2 - d1) / 3.0
                r2 = (4.0 * d3 - d2) / 3.0
                num = (16.0 * r2 - r1) / 15.0
                worst = max(worst, abs(pred - num) / (1 + abs(num)))
    _emit(capsys, 4, "chain-rule finite-difference oracle", worst < 1e-6,
          "max relative deviation %.2e over %d map/polynomial pairs"
          % (worst, pairs), time.perf_counter() - t0, 10.0)


def _shooting_intermediate_ground():
    def det(lam):
        mu = ((lam - 1.0) ** (1.0 / 3.0)
              * np.exp(1j * np.pi * (2 * np.arange(3) + 1) / 3.0))
        r = np.concatenate([np.sqrt(mu), -np.sqrt(mu)])
        rows = [(-1.0, 0), (-1.0, 1), (-1.0, 3), (0.0, 0), (0.0, 1), (0.0, 3)]
        M = np.array([r ** d * np.exp(r * t) for t, d in rows])
        M = M / np.max(np.abs(M), axis=0)
        return np.linalg.det(M)

    ref = det(20000.0)
    phase = ref / abs(ref)
    return brentq(lambda lam: (det(lam) / phase).real, 19000.0, 21000.0,
                  xtol=1e-9, rtol=8.9e-16)


def test_criterion_5_discretization_quality(capsys):
    t0 = time.perf_counter()
    # quintic reproduction on a uniform mesh
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=6)
    space = build_space_1d(uniform_mesh(8), "free", "free")
    full = np.zeros(space.n_full)
    der = [np.polynomial.polynomial.polyder(coeffs, d) if d else coeffs
           for d in range(3)]
    for i, t in enumerate(space.vmesh.nodes):
        for d in range(3):
            full[3 * i + d] = np.polynomial.polynomial.polyval(t, der[d])
    vec = full[space.free_to_full]
    ts = np.linspace(-1.0, 0.0, 257)
    repro = np.max(np.abs(evaluate_fe(space, vec, ts)
                          - np.polynomial.polynomial.polyval(ts, coeffs)))
    # C^2 continuity of a random field on a graded mesh (left limits taken
    # exactly at local coordinate 1)
    mesh = graded_mesh(12, ratio=0.7)
    space_g = build_space_1d(mesh, "free", "free")
    field = rng.normal(size=space_g.n_free)
    full_g = space_g.embed(field)
    basis = HermiteBasis1D()
    sizes = mesh.sizes()
    jump = 0.0
    for d in range(3):
        shp = basis.eval(np.array([1.0]), d)[0]
        right = evaluate_fe(space_g, field, mesh.nodes[1:-1], (d,))
        for e in range(mesh.n_elements - 1):
            h = sizes[e]
            dofs = full_g[space_g.element_dofs_1d(e)]
            scale = np.array([h ** (l % 3) for l in range(6)])
            left = float((dofs * shp * scale).sum()) / h ** d
            jump = max(jump, abs(left - right[e]) / (abs(right[e]) + 1.0))
    # eigenvalue convergence rate and shooting match
    oracle = _shooting_intermediate_ground()
    bc = LimitBC("intermediate")
    errs = []
    for n in (3, 6, 12):
        lam = solve_one_mode(bc, 0, 1,
                             limit_space(bc, mesh=uniform_mesh(n)))[0]
        errs.append(abs(lam[0] - oracle))
    rate = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    lam_prod = solve_one_mode(bc, 0, 1, limit_space(bc))[0]
    shoot_rel = abs(lam_prod[0] - oracle) / oracle
    ok = (repro < 1e-11 and jump < 1e-10 and rate >= 5.5
          and shoot_rel < 1e-7)
    _emit(capsys, 5, "discretization quality", ok,
          "quintic %.1e, C2 jump %.1e, rate %.2f, shooting rel %.1e"
          % (repro, jump, rate, shoot_rel), time.perf_counter() - t0, 60.0)


def test_criterion_6_spectral_ordering(capsys):
    t0 = time.perf_counter()
    kw = dict(count=10, cutoff=4)
    lam_int = solve_limit_spectrum(LimitBC("intermediate"), **kw).eigenvalues()
    lam_dir = solve_limit_spectrum(LimitBC("dirichlet"), **kw).eigenvalues()
    mono = True
    prev = None
    lam_str = None
    for kk in (0.0, 0.5 * K_COS, K_COS, 2.0 * K_COS):
        cur = solve_limit_spectrum(LimitBC("strange", K=kk),
                                   **kw).eigenvalues()
        if prev is not None:
            mono &= bool(np.all(cur <= prev + 1e-9 * np.abs(prev)))
        if kk == K_COS:
            lam_str = cur
        prev = cur
    order = (np.all(lam_str <= lam_int + 1e-9 * np.abs(lam_int))
             and np.all(lam_int <= lam_dir + 1e-9 * lam_dir))
    _emit(capsys, 6, "spectral ordering and K-monotonicity",
          bool(order and mono),
          "strange(K) <= intermediate <= Dirichlet for j <= 10: %s; "
          "non-increasing in K over {0, K/2, K, 2K}: %s" % (order, mono),
          time.perf_counter() - t0, 30.0)


@pytest.mark.slow
def test_criterion_7_regime_classification(capsys):
    # the production sweep runs inside the timed region: the budget times it
    t0 = time.perf_counter()
    table = run_converge(SweepConfig())
    rows = {(r["alpha"], round(1 / r["eps"]), r["j"]): r for r in table.rows}
    tail = (8, 16, 32)
    clauses = []

    def clause(name, ok, detail):
        clauses.append((name, bool(ok), detail))

    for alpha, regime, dcol in ((2.0, REGIME_INTERMEDIATE, "d_int"),
                                (1.0, REGIME_DIRICHLET, "d_dir"),
                                (1.5, REGIME_STRANGE, "d_hat")):
        for j in range(3):
            cls = rows[(alpha, 32, j)]["classified_regime"]
            clause("alpha=%g j=%d argmin" % (alpha, j), cls == regime,
                   "classified %s" % cls)
            d = [rows[(alpha, n, j)][dcol] for n in tail]
            clause("alpha=%g j=%d %s trend" % (alpha, j, dcol),
                   d[0] > d[1] > d[2],
                   "%s = %.4g, %.4g, %.4g over eps = 1/8, 1/16, 1/32"
                   % (dcol, *d))
    row = rows[(1.5, 32, 0)]
    clause("alpha=3/2 ground factor-2 margin",
           2.0 * row["d_hat"] <= min(row["d_int"], row["d_dir"]),
           "d_hat %.4g vs d_int %.4g, d_dir %.4g (margin %.2fx)"
           % (row["d_hat"], row["d_int"], row["d_dir"],
              min(row["d_int"], row["d_dir"]) / row["d_hat"]))
    clause("strange-sign adjudication", table.strange_sign == "flipped",
           "sign %s, distances %s" % (table.strange_sign,
                                      table.sign_distances))
    failed = [c for c in clauses if not c[1]]
    with capsys.disabled():
        for name, ok, detail in clauses:
            print("  clause %-34s %s  %s" % (name, "ok  " if ok else "FAIL",
                                             detail))
    _emit(capsys, 7, "regime classification", not failed,
          "%d/%d clauses hold; converged-mesh eigenvalues sit between the "
          "candidate limits at finite eps (effective strange coefficient "
          "eps^{2 alpha - 3} K has not yet vanished/diverged), so %d "
          "argmin/trend/margin/sign clauses fail at these eps"
          % (len(clauses) - len(failed), len(clauses), len(failed)),
          time.perf_counter() - t0, 1800.0)


def test_criterion_8_poisson_e_convergence(capsys):
    t0 = time.perf_counter()
    lim = solve_limit_poisson(LimitBC("intermediate"),
                              {0: lambda t: t * (1.0 + t)})

    def u_lim(xb, y):
        return np.real(lim.eval_mode(0, np.ravel(y))).reshape(np.shape(y))

    dists = []
    for eps in (1 / 4, 1 / 8, 1 / 16):
        prob = EpsProblem(COSINE, PerturbationParams(eps, 2.0),
                          elements_per_period=16)
        # the data is eps-periodic, so one period with ring topology solves
        # the full torus; total-domain norms scale by sqrt(periods)
        asm = EpsAssembly(prob, columns=prob.elements_per_period)
        x, _ = solve_eps_poisson(prob, lambda xb, y: y * (1.0 + y),
                                 assembly=asm)
        rep = compare_to_limit(asm, x, u_lim, align=False)
        dists.append(rep["l2_diff"] * np.sqrt(round(1 / eps)))
    ok = dists[0] > dists[1] > dists[2]
    _emit(capsys, 8, "Poisson distance to the limit", ok,
          "||u_eps - u_int||_L2 = %.4g, %.4g, %.4g over eps = 1/4, 1/8, "
          "1/16: genuinely non-monotone at these eps (u_eps tracks the "
          "strange-term operator with effective coefficient eps K, whose "
          "distance to the intermediate limit peaks before decaying)"
          % tuple(dists), time.perf_counter() - t0, 300.0)


def test_criterion_9_transition_bound_suite(capsys):
    t0 = time.perf_counter()
    drifts = {}
    for alpha in (1.0, 1.5, 2.0):
        rows = np.array([[verify_h_bounds(COSINE,
                                          PerturbationParams(2.0 ** -m,
                                                             alpha))[j]
                          for j in range(4)] for m in range(2, 7)])
        drifts[alpha] = np.max(rows, axis=0) / np.min(rows, axis=0) - 1.0
    worst = max(float(np.max(d)) for d in drifts.values())
    errs = [unfolded_h_limit_error(COSINE, PerturbationParams(2.0 ** -m, 1.5))
            for m in range(2, 7)]
    unfolded_ok = all(all(errs[i][j] > errs[i + 1][j]
                          for i in range(len(errs) - 1)) for j in (2, 3))
    ok = worst <= 0.10 and unfolded_ok
    _emit(capsys, 9, "transition-function bound suite", ok,
          "unfolded-limit errors decreasing: %s; scaled-derivative drift "
          "per alpha = {1: %.3f, 3/2: %.3f, 2: %.3f} against the 0.10 "
          "gate — the maxima converge monotonically to their unfolded "
          "limits (bounded, drift < 2x) but traverse more than 10%% on "
          "the way for alpha > 1"
          % (unfolded_ok, float(np.max(drifts[1.0])),
             float(np.max(drifts[1.5])), float(np.max(drifts[2.0]))),
          time.perf_counter() - t0, 10.0)
