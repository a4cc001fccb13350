"""Experiment orchestration: regime-classification sweeps over (alpha, eps),
K reports, verification suites, and result emission.

The headline experiment compares the oscillating-domain spectra against the
three candidate limit operators (intermediate, strange-term with computed K,
Dirichlet) and classifies each case by nearest limit.  The strange-term sign
is treated as an open empirical question: distances to both the literal
minus-K operator and the flipped plus-K variant are always computed, the
closer one is adjudicated as "the" strange-term limit, and a literal-sign win
is reported loudly instead of silently absorbed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .cell import compute_k_report, save_k_report
from .epsdomain import (EpsProblem, solve_eps_spectrum_bloch,
                        save_eps_result, vertical_mesh)
from .limit1d import LimitBC, solve_limit_spectrum
from .oscillation import (OscillationProfile, PerturbationParams,
                          load_profile)

REGIME_INTERMEDIATE = "Intermediate"
REGIME_STRANGE = "StrangeTerm"
REGIME_DIRICHLET = "DirichletOnW"

COLUMNS = ("alpha", "eps", "j", "lambda_eps", "lambda_int", "lambda_hat",
           "lambda_dir", "d_int", "d_hat", "d_dir", "predicted_regime",
           "classified_regime")


class SweepError(ValueError):
    pass


def default_profile():
    """b(y) = 1 + cos(2 pi y), the default experiment profile."""
    return OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})


@dataclass(frozen=True)
class SweepConfig:
    """One regime-classification experiment.

    The mesh fields override the production rule (16 tangential elements
    per period, 32 below alpha = 3/2 where the boundary slope eps^{alpha-1}
    stays large; 16 + 8 graded vertical elements); the limit spectra use
    ``n_elements_1d`` graded elements and tangential modes |m| <= cutoff."""
    profile_path: str = ""
    alphas: tuple = (1.0, 1.5, 2.0)
    eps_values: tuple = (1 / 4, 1 / 8, 1 / 16, 1 / 32)
    count: int = 3
    cutoff: int = 8
    elements_per_period: int = 0    # 0: per-alpha production rule
    n_coarse: int = 16
    n_layer: int = 8
    n_elements_1d: int = 64
    out_dir: str = "sweep_out"

    def __post_init__(self):
        if self.count < 1:
            raise SweepError("count must be >= 1")
        for a in self.alphas:
            if a <= 0:
                raise SweepError("alpha must be positive")
        for e in self.eps_values:
            n = round(1.0 / e)
            if n < 1 or abs(e * n - 1.0) > 1e-12:
                raise SweepError(
                    "eps values must be reciprocals of integers")

    def profile(self):
        if self.profile_path:
            return load_profile(self.profile_path)
        return default_profile()


def config_from_dict(data):
    kwargs = dict(data)
    for key in ("alphas", "eps_values"):
        if key in kwargs:
            kwargs[key] = tuple(float(v) for v in kwargs[key])
    return SweepConfig(**kwargs)


def load_config(path):
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def predicted_regime(alpha, profile):
    """Regime the limit theory predicts for this exponent: above 3/2 the
    perturbation vanishes (intermediate limit), at 3/2 the strange term
    appears, below 3/2 a non-constant profile degenerates to Dirichlet.  A
    constant profile has no oscillation, hence intermediate at every
    alpha."""
    constant = all(sum(abs(c) for c in k) == 0
                   for k in profile.coefficients)
    if constant or alpha > 1.5:
        return REGIME_INTERMEDIATE
    if alpha == 1.5:
        return REGIME_STRANGE
    return REGIME_DIRICHLET


@dataclass
class ConvergenceTable:
    """Rows of the classification table, one per (alpha, eps, eigenvalue
    index), in the fixed column order; floats emitted at 17 significant
    digits so reruns are bit-identical."""
    rows: list = field(default_factory=list)
    k_value: float = 0.0
    strange_sign: str = "flipped"
    sign_distances: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add_row(self, **kw):
        missing = set(COLUMNS) - set(kw)
        if missing:
            raise SweepError("row missing columns: %s" % sorted(missing))
        self.rows.append({c: kw[c] for c in COLUMNS})

    def classification(self, alpha, j=0):
        """Classified regime of eigenvalue j at the smallest eps of the
        alpha column."""
        rows = [r for r in self.rows
                if r["alpha"] == alpha and r["j"] == j
                and np.isfinite(r["lambda_eps"])]
        if not rows:
            return None
        return min(rows, key=lambda r: r["eps"])["classified_regime"]

    def to_csv_text(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in self.rows:
            writer.writerow([_fmt(row[c]) for c in COLUMNS])
        return buf.getvalue()

    def to_dict(self):
        return {"columns": list(COLUMNS),
                "rows": [dict(r) for r in self.rows],
                "K": self.k_value,
                "strange_sign": self.strange_sign,
                "sign_distances": dict(self.sign_distances),
                "failures": list(self.failures)}

    def save(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
            fh.write(self.to_csv_text())
        with open(os.path.join(out_dir, "convergence.json"), "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def run_cell_k(profile_path, out_path=None, cutoff=None):
    """K report of a profile with the three-route agreement gate (1e-9
    relative); returns (report, agreed)."""
    profile = load_profile(profile_path) if isinstance(profile_path, str) \
        else profile_path
    if cutoff is not None:
        kept = {k: v for k, v in profile.coefficients.items()
                if max(abs(c) for c in k) <= cutoff}
        profile = OscillationProfile(profile.dim, kept)
    report = compute_k_report(profile)
    if out_path:
        save_k_report(report, out_path)
    return report, report.agreement() <= 1e-9


def _limit_targets(profile, count, cutoff, n_elements, k_value):
    """Limit eigenvalue lists: intermediate, Dirichlet, and both signed
    strange-term variants."""
    out = {}
    out["int"] = solve_limit_spectrum(
        LimitBC("intermediate"), count=count, cutoff=cutoff,
        n_elements=n_elements).eigenvalues()
    out["dir"] = solve_limit_spectrum(
        LimitBC("dirichlet"), count=count, cutoff=cutoff,
        n_elements=n_elements).eigenvalues()
    out["hat_flipped"] = solve_limit_spectrum(
        LimitBC("strange", K=k_value, flip_sign=True), count=count,
        cutoff=cutoff, n_elements=n_elements).eigenvalues()
    out["hat_literal"] = solve_limit_spectrum(
        LimitBC("strange", K=k_value, flip_sign=False), count=count,
        cutoff=cutoff, n_elements=n_elements).eigenvalues()
    return out


def _solve_case(profile, alpha, eps, config):
    epp = config.elements_per_period or (32 if alpha < 1.5 else 16)
    problem = EpsProblem(profile, PerturbationParams(epsilon=eps, alpha=alpha),
                         elements_per_period=epp,
                         n_coarse=config.n_coarse, n_layer=config.n_layer)
    return solve_eps_spectrum_bloch(problem, config.count)


def run_converge(config, out_dir=None, log=None):
    """The classification sweep.  Solves every (alpha, eps) case, compares
    with the limit spectra and, when ``out_dir`` is given, writes the
    convergence table (CSV + JSON) and per-case result JSON files there.
    Returns the table; raises SweepError after writing everything if the
    strange-term adjudication favours the paper's literal minus sign
    (loud-failure contract)."""
    profile = config.profile()
    report = compute_k_report(profile)
    k_value = report.k_energy
    targets = _limit_targets(profile, config.count, config.cutoff,
                             config.n_elements_1d, k_value)
    table = ConvergenceTable(k_value=k_value)
    cases = {}
    for alpha in sorted(config.alphas):
        for eps in sorted(config.eps_values, reverse=True):
            key = (alpha, eps)
            try:
                cases[key] = _solve_case(profile, alpha, eps, config)
            except Exception as err:  # recorded per-row, run continues
                cases[key] = None
                table.failures.append(
                    {"alpha": alpha, "eps": eps, "error": str(err)})
            if log:
                lam = (["%.8g" % v for v in cases[key].eigenvalues]
                       if cases[key] is not None else "FAILED")
                log("case alpha=%g eps=1/%d -> %s"
                    % (alpha, round(1 / eps), lam))

    # adjudicate the strange-term sign on the ground eigenvalue at the
    # smallest eps, pooled over all alpha columns
    flip_gaps, lit_gaps = [], []
    eps_min = min(config.eps_values)
    for alpha in config.alphas:
        res = cases.get((alpha, eps_min))
        if res is None:
            continue
        lam1 = res.eigenvalues[0]
        flip_gaps.append(abs(lam1 - targets["hat_flipped"][0]))
        lit_gaps.append(abs(lam1 - targets["hat_literal"][0]))
    d_flip = min(flip_gaps) if flip_gaps else float("inf")
    d_lit = min(lit_gaps) if lit_gaps else float("inf")
    literal_wins = d_lit < d_flip
    table.strange_sign = "literal" if literal_wins else "flipped"
    table.sign_distances = {"d_hat_flipped_sign": d_flip,
                            "d_hat_literal_sign": d_lit}
    hat = targets["hat_literal" if literal_wins else "hat_flipped"]

    for alpha in sorted(config.alphas):
        pred = predicted_regime(alpha, profile)
        for eps in sorted(config.eps_values, reverse=True):
            res = cases[(alpha, eps)]
            for j in range(config.count):
                lam = res.eigenvalues[j] if res is not None else float("nan")
                d_int = abs(lam - targets["int"][j])
                d_hat = abs(lam - hat[j])
                d_dir = abs(lam - targets["dir"][j])
                dists = {REGIME_INTERMEDIATE: d_int,
                         REGIME_STRANGE: d_hat,
                         REGIME_DIRICHLET: d_dir}
                classified = ("failed" if res is None
                              else min(dists, key=dists.get))
                table.add_row(alpha=alpha, eps=eps, j=j, lambda_eps=lam,
                              lambda_int=targets["int"][j], lambda_hat=hat[j],
                              lambda_dir=targets["dir"][j], d_int=d_int,
                              d_hat=d_hat, d_dir=d_dir,
                              predicted_regime=pred,
                              classified_regime=classified)

    if out_dir:
        table.save(out_dir)
        os.makedirs(os.path.join(out_dir, "cases"), exist_ok=True)
        for (alpha, eps), res in sorted(cases.items()):
            if res is None:
                continue
            name = "eps_a%s_n%d.json" % (("%g" % alpha).replace(".", "p"),
                                         round(1 / eps))
            save_eps_result(res, os.path.join(out_dir, "cases", name))
        save_k_report(report, os.path.join(out_dir, "k_report.json"))
    if literal_wins:
        raise SweepError(
            "strange-term adjudication favours the paper's literal minus "
            "sign (d_literal=%.6g < d_flipped=%.6g); both distances are in "
            "the emitted table" % (d_lit, d_flip))
    return table


# -- verification suites ----------------------------------------------------

def _check(name, fn):
    t0 = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except Exception as err:
        detail = "%s: %s" % (type(err).__name__, err)
        passed = False
    return {"name": name, "passed": passed,
            "detail": str(detail), "seconds": time.perf_counter() - t0}


def _verify_profile_bounds():
    from .oscillation import verify_h_bounds
    profile = default_profile()
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        rows = []
        for m in range(2, 7):
            params = PerturbationParams(epsilon=2.0 ** -m, alpha=alpha)
            bounds = verify_h_bounds(profile, params)
            rows.append([bounds[j] for j in range(4)])
        maxima = np.array(rows)         # (eps, order)
        # the scaled maxima must stay bounded along the dyadic sequence:
        # they converge monotonically to the unfolded-limit value (exact
        # scale invariance at alpha = 1), so nothing may exceed a fixed
        # multiple of the first entry
        ratio = np.max(maxima, axis=0) / np.maximum(maxima[0], 1e-300)
        d = np.diff(maxima, axis=0)
        tol = 1e-12 * np.max(maxima, axis=0)
        monotone = np.all(d <= tol, axis=0) | np.all(d >= -tol, axis=0)
        if np.max(ratio) > 2.0 or not np.all(monotone):
            raise SweepError("scaled h bounds drift unboundedly "
                             "(max ratio %.3f)" % float(np.max(ratio)))
        worst = max(worst, float(np.max(ratio)))
    return "scaled-derivative maxima bounded, max ratio %.4f" % worst


def _verify_cell():
    from .cell import residual_check
    report, agreed = run_cell_k(default_profile())
    if not agreed:
        raise SweepError("K routes disagree at %.3e" % report.agreement())
    from .cell import solve_cell
    res = residual_check(solve_cell(default_profile()))
    worst = max(res.ode_max, res.bc_value, res.bc_slope,
                res.bc_third) / res.scale
    if worst > 1e-8:
        raise SweepError("cell residual %.3e" % worst)
    return "K=%.12g, agreement %.2e, residual %.2e" % (
        report.k_energy, report.agreement(), worst)


def _verify_chain3():
    from .jets import compose_shear_derivs, invert_jet3
    rng = np.random.default_rng(7)
    profile = default_profile()
    params = PerturbationParams(epsilon=1 / 4, alpha=2.0)
    pt = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-1.0, 0.0)))
    jet = profile.eval_pullback(params, pt)
    inv = invert_jet3(jet)
    # composing the forward vertical coordinate with the inverse jet must
    # reproduce the identity jet of the vertical variable
    comp = compose_shear_derivs(jet.derivs, inv, 2)
    err = max(abs(val - (1.0 if beta == (0, 1) else 0.0))
              for beta, val in comp.items())
    if err > 1e-11:
        raise SweepError("forward-inverse composition error %.3e" % err)
    return "forward-inverse composition error %.2e" % err


def _verify_hermite():
    from .hermite import build_space_1d, graded_mesh, evaluate_fe
    mesh = graded_mesh(8, 0.75, -1.0, 0.0)
    space = build_space_1d(mesh, bc_bottom="free", bc_top="free")
    poly = np.polynomial.Polynomial(np.arange(1, 7, dtype=float))
    full = np.zeros(space.n_full)
    for i, t in enumerate(mesh.nodes):
        for d in range(3):
            full[3 * i + d] = poly.deriv(d)(t) if d else poly(t)
    ts = np.linspace(-1.0, 0.0, 101)
    vals = evaluate_fe(space, full[space.free_to_full], ts)
    err = np.max(np.abs(vals - poly(ts)))
    if err > 1e-11:
        raise SweepError("quintic reproduction error %.3e" % err)
    return "quintic reproduction error %.2e" % err


def _verify_limit1d():
    K = 20.0 * np.pi ** 3
    lam = {}
    for name, bc in (("int", LimitBC("intermediate")),
                     ("hat", LimitBC("strange", K=K, flip_sign=True)),
                     ("dir", LimitBC("dirichlet"))):
        lam[name] = solve_limit_spectrum(bc, count=6).eigenvalues()
    # the +K form interpolates between the intermediate and Dirichlet
    # spectra and is monotone in K (min-max)
    if not np.all((lam["int"] <= lam["hat"] + 1e-9 * lam["hat"])
                  & (lam["hat"] <= lam["dir"] + 1e-9 * lam["dir"])):
        raise SweepError("strange(+K) spectrum fails to interpolate")
    prev = lam["int"]
    for kk in (K / 2, K, 2 * K):
        cur = solve_limit_spectrum(LimitBC("strange", K=kk, flip_sign=True),
                                   count=6).eigenvalues()
        if not np.all(cur >= prev - 1e-9 * np.abs(prev)):
            raise SweepError("eigenvalues not increasing in +K")
        prev = cur
    return "interpolation and K-monotonicity hold (6 eigenvalues)"


def _verify_numerics():
    from scipy.linalg import eigh
    from .numerics import EigenRequest, solve_smallest
    rng = np.random.default_rng(11)
    n = 50
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    R = rng.standard_normal((n, n))
    B = R @ R.T + n * np.eye(n)
    from scipy import sparse
    lam, _ = solve_smallest(sparse.csc_matrix(A), sparse.csc_matrix(B),
                            EigenRequest(count=5, shift=0.0))
    ref = eigh(A, B, eigvals_only=True)[:5]
    err = np.max(np.abs(lam - ref) / np.abs(ref))
    if err > 1e-10:
        raise SweepError("eigen oracle mismatch %.3e" % err)
    return "random pair vs dense oracle rel %.2e" % err


def _verify_flat_limit():
    flat = OscillationProfile(1, {(0,): 0.0})
    params = PerturbationParams(epsilon=1 / 4, alpha=2.0)
    problem = EpsProblem(flat, params)
    res = solve_eps_spectrum_bloch(problem, 3)
    vm = vertical_mesh(params.epsilon, problem.n_coarse, problem.n_layer)
    ref = solve_limit_spectrum(LimitBC("intermediate"), count=3,
                               mesh=vm).eigenvalues()
    err = np.max(np.abs(res.eigenvalues - ref) / ref)
    if err > 1e-7:
        raise SweepError("flat-limit mismatch %.3e" % err)
    return "flat-domain spectrum matches 1d limit, rel %.2e" % err


def _verify_classification_case():
    config = SweepConfig(alphas=(1.5,), eps_values=(1 / 8,),
                         elements_per_period=16)
    table = run_converge(config, out_dir=None)
    row = [r for r in table.rows if r["j"] == 0][0]
    if row["classified_regime"] != REGIME_STRANGE:
        raise SweepError("alpha=3/2 eps=1/8 classified %s"
                         % row["classified_regime"])
    return ("classified %s, d_hat %.5g < d_dir %.5g"
            % (row["classified_regime"], row["d_hat"], row["d_dir"]))


def run_verify(level="fast", log=None):
    """Invariant suite over the modules; returns a machine-readable report
    {"level", "passed", "checks": [...]}.  ``full`` adds one alpha = 3/2
    classification case."""
    if level not in ("fast", "full"):
        raise SweepError("level must be 'fast' or 'full'")
    checks = [("profile-bounds", _verify_profile_bounds),
              ("cell-k", _verify_cell),
              ("chain3", _verify_chain3),
              ("hermite", _verify_hermite),
              ("limit1d", _verify_limit1d),
              ("numerics", _verify_numerics),
              ("epsdomain-flat-limit", _verify_flat_limit)]
    if level == "full":
        checks.append(("classification-case", _verify_classification_case))
    results = []
    for name, fn in checks:
        outcome = _check(name, fn)
        results.append(outcome)
        if log:
            log("%-24s %s  %s (%.1fs)"
                % (name, "PASS" if outcome["passed"] else "FAIL",
                   outcome["detail"], outcome["seconds"]))
    return {"level": level,
            "passed": all(r["passed"] for r in results),
            "checks": results}
