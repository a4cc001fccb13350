"""Command-line entry points.

Verbs: ``cell-k`` (K report from a profile), ``limit-spec`` (limit-operator
spectrum), ``eps-spec`` (oscillating-domain spectrum), ``converge``
(classification sweep), ``verify`` (invariant suites).  Exit codes: 0 on
success, 1 when an invariant or adjudication fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .limit1d import (DEFAULT_ELEMENTS, LimitBC, check_spectrum_args,
                      solve_limit_spectrum)
from .oscillation import PerturbationParams, ProfileError, load_profile
from .sweep import (SweepConfig, SweepError, default_profile, load_config,
                    run_cell_k, run_converge, run_verify, write_json)

BC_NAMES = {"int": "intermediate", "strange": "strange", "dir": "dirichlet"}


class InputError(ValueError):
    pass


def _parse_eps(text):
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise InputError("cannot parse eps value %r" % text)
    return value


def _load_profile_arg(path):
    if not path:
        return default_profile()
    try:
        return load_profile(path)
    except (OSError, ValueError) as err:
        raise InputError("cannot load profile %s: %s" % (path, err))


def _cmd_cell_k(args):
    if args.cutoff is not None and args.cutoff < 0:
        raise InputError("--cutoff must be >= 0, got %d" % args.cutoff)
    profile = _load_profile_arg(args.profile)
    try:
        report, agreed = run_cell_k(profile, out_path=args.out,
                                    cutoff=args.cutoff)
    except ProfileError as err:
        raise InputError(str(err))
    print("K_energy       %.17g" % report.k_energy)
    print("K_boundary     %.17g" % report.k_boundary)
    print("K_testfunction %.17g" % report.k_testfunction)
    print("agreement      %.3e (%s)" % (report.agreement(),
                                        "ok" if agreed else "FAIL"))
    return 0 if agreed else 1


def _cmd_limit_spec(args):
    try:
        check_spectrum_args(args.count, args.modes, DEFAULT_ELEMENTS)
    except ValueError as err:
        raise InputError(str(err))
    kind = BC_NAMES[args.bc]
    if kind != "strange" and args.K != "auto":
        raise InputError("--K applies only to --bc strange, got --K %s "
                         "with --bc %s" % (args.K, args.bc))
    k_value = 0.0
    if kind == "strange":
        if args.K == "auto":
            report, agreed = run_cell_k(_load_profile_arg(args.profile))
            if not agreed:
                print("K routes disagree at %.3e" % report.agreement(),
                      file=sys.stderr)
                return 1
            k_value = report.k_energy
        else:
            try:
                k_value = float(args.K)
            except ValueError:
                raise InputError("--K must be 'auto' or a number, got %r"
                                 % args.K)
    try:
        bc = LimitBC(kind, K=k_value, flip_sign=(kind == "strange"
                                                 and args.sign == "flipped"))
    except ValueError as err:
        raise InputError(str(err))
    spectrum = solve_limit_spectrum(bc, count=args.count, cutoff=args.modes)
    if args.out:
        write_json(args.out, spectrum.to_dict())
    for lam, m, idx in spectrum.entries:
        print("lambda %.17g  m %+d  idx %d" % (lam, m, idx))
    return 0


def _cmd_eps_spec(args):
    from .epsdomain import EpsProblem, check_count, solve_eps_spectrum_bloch
    profile = _load_profile_arg(args.profile)
    eps = _parse_eps(args.eps)
    try:
        check_count(args.count)
        params = PerturbationParams(epsilon=eps, alpha=args.alpha)
        problem = EpsProblem(profile, params,
                             elements_per_period=args.elements_per_period)
    except ValueError as err:
        raise InputError(str(err))
    result = solve_eps_spectrum_bloch(problem, args.count)
    if args.out:
        write_json(args.out, result.to_dict())
    for lam in result.eigenvalues:
        print("lambda %.17g" % lam)
    rules = [r["rule"] for r in result.pencils]
    print("dof %d  assembly %.2fs  solve %.2fs  pencils %d solved, "
          "%d floor-certified"
          % (result.dof, result.assembly_seconds, result.solve_seconds,
             rules.count(None), rules.count("floor")))
    return 0


def _cmd_converge(args):
    try:
        config = load_config(args.config) if args.config else SweepConfig()
        config.profile()    # a missing or malformed profile is an input error
    except (OSError, ValueError) as err:
        raise InputError("cannot load config: %s" % err)
    out_dir = args.out or config.out_dir
    try:
        table = run_converge(config, out_dir=out_dir,
                             log=lambda msg: print(msg, flush=True))
    except SweepError as err:
        print("SWEEP FAILURE: %s" % err, file=sys.stderr)
        return 1
    n_fail = len(table.failures)
    print("wrote %s (%d rows, %d failed cases, strange sign: %s)"
          % (out_dir, len(table.rows), n_fail, table.strange_sign))
    return 1 if n_fail else 0


def _cmd_verify(args):
    report = run_verify(args.level, log=lambda msg: print(msg, flush=True))
    print(json.dumps({"level": report["level"],
                      "passed": report["passed"]}))
    return 0 if report["passed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trihomog",
        description="Boundary homogenization laboratory for the "
                    "triharmonic operator on oscillating domains.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("cell-k", help="cell-problem K report")
    p.add_argument("--profile", default="", help="profile JSON path "
                   "(default: b = 1 + cos(2 pi y))")
    p.add_argument("--cutoff", type=int, default=None,
                   help="drop profile modes above this index")
    p.add_argument("--out", default="", help="output KReport JSON")
    p.set_defaults(func=_cmd_cell_k)

    p = sub.add_parser("limit-spec", help="limit-operator spectrum")
    p.add_argument("--bc", choices=sorted(BC_NAMES), required=True)
    p.add_argument("--K", default="auto",
                   help="strange-term constant: 'auto' or a number")
    p.add_argument("--sign", choices=("literal", "flipped"),
                   default="flipped",
                   help="strange-term sign variant (default: flipped, the "
                        "empirically adjudicated +K form)")
    p.add_argument("--profile", default="",
                   help="profile for --K auto (default: 1 + cos(2 pi y))")
    p.add_argument("--modes", type=int, default=8,
                   help="tangential mode cutoff: modes |m| <= this are "
                        "the parts of the spectrum walk "
                        "(numerics.walk_spectrum), which skips a mode "
                        "certified empty below the count-th eigenvalue, by "
                        "the form's floor xi^6 + 1, or, for the literal "
                        "sign, which has no floor, by the sign of its "
                        "secular function below the floor of its -K-free "
                        "form (one record per mode under 'modes' in --out)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", default="", help="output spectrum JSON")
    p.set_defaults(func=_cmd_limit_spec)

    p = sub.add_parser("eps-spec", help="oscillating-domain spectrum")
    p.add_argument("--profile", default="")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", required=True, help="epsilon, e.g. 1/8")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--elements-per-period", type=int, default=16)
    p.add_argument("--out", default="", help="output result JSON")
    p.set_defaults(func=_cmd_eps_spec)

    p = sub.add_parser("converge", help="regime-classification sweep")
    p.add_argument("--config", default="", help="SweepConfig JSON "
                   "(default: the built-in experiment)")
    p.add_argument("--out", default="", help="output directory")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="invariant suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print("input error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
