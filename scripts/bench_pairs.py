"""Alternating parent/change benchmark pairs, recorded as BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads bloch_spectra limit_spectra --seeds 701-710 \\
        --label column_threads --change-note "what the change does"

For every seed, and for every workload within a seed, runs

    python3 bench/run.py --workload <w> --seed <s> --seconds 10 --trace 0

once in each checkout, one run after another: the parent first on even
seeds, the change first on odd seeds.  Each checkout runs its own bench/ and
src/.  The caller's environment reaches the runs unchanged (bench/run.py
sets OPENBLAS_NUM_THREADS=1 unless it is set).

The JSON has the schema of the earlier BENCH files: per workload and side
the median, quartiles (statistics.quantiles, n=4, inclusive) and runs of
each end-to-end metric, the failed/attempted operation counts and their
ratio (the failed share), the rounds, the src line counts and the
checkout's settable values (``settable_values``); per metric
the number of pairs in which the change read lower; whether every run
reported ``correct``; and the environment of the last run.  It also holds,
per side, each operation's median seconds over all rounds of the side's
runs (``op_seconds``, read from the run JSON in bench/_out/), which shows
where a saving sits; one line per operation is printed.

A metric on which the change reads lower in at least 9/10 of the pairs,
with a median lower than the parent's by more than the parent's q3 - q1,
is reported on a line starting with "GAIN" and listed under the workload's
"gains" in the JSON: the rule by which a claimed gain counts.

A faster side runs more rounds in its 10 s, so the raw failed counts of the
two sides differ even when every round fails the same operations: compare
the shares.  A workload whose failed share is higher on the change side is
reported on a line of its own starting with "FAILED SHARE UP".

Each end-to-end metric's ``bound`` in the change checkout's BENCHMARK.json
(read, never written) is a fraction of the parent's median.  A metric whose
change median is worse than the parent's by more than that fraction is
reported on a line starting with "REGRESSION" and listed under the
workload's "regressions" in the JSON.  Where the parent's own runs spread
wider than the bound (q3 - q1 above the bound times the parent median), a
median within the bound shows nothing: unless every run of the change
reads better than every run of the parent, the metric is reported on a
line starting with "UNRESOLVED" and listed under the workload's
"unresolved" in the JSON.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys

#: seconds of rounds per bench/run.py call, BENCHMARK.json's run_seconds
SECONDS = 10
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
ENV_KEYS = ("nproc", "affinity", "python", "numpy", "scipy", "openblas",
            "OPENBLAS_NUM_THREADS", "TRIHOMOG_THREADS")


def parse_seeds(text):
    """'701-710' or '701,703,705' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(checkout):
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout, workload, seed):
    """One bench/run.py call: (summary line, env, rounds of the report, and
    {operation: [seconds of each round]})."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s failed in %s (exit %d):\n%s"
                         % (" ".join(cmd[1:]), checkout, proc.returncode,
                            proc.stderr))
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    report = os.path.join(checkout, "bench", "_out",
                          "run_%s_seed%d_trace0.json" % (workload, seed))
    with open(report) as fh:
        rounds = json.load(fh)["rounds"]
    ops = {}
    for r in rounds:
        for op in r["ops"]:
            ops.setdefault(op["name"], []).append(op["seconds"])
    return json.loads(lines[-1]), env, len(rounds), ops


def _is_dataclass(node):
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if (f.attr if isinstance(f, ast.Attribute)
                else getattr(f, "id", None)) == "dataclass":
            return True
    return False


def settable_values(checkout):
    """The settable values of the checkout's src/trihomog, counted with
    ``ast``: parameters with defaults (functions, methods and lambdas) plus
    dataclass fields with defaults."""
    pkg = os.path.join(checkout, "src", "trihomog")
    n = 0
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                n += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return n


def load_bounds(checkout):
    """{metric: (better, bound)} of BENCHMARK.json's end-to-end metrics."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return {m["name"]: (m["better"], m["bound"])
                for m in json.load(fh)["end_to_end"]}


def regressions(parent, change, bounds):
    """The metrics whose change median is worse than the parent's by more
    than their bound, as {metric: relative change of the median}."""
    out = {}
    for name, (better, bound) in bounds.items():
        if name not in METRICS:
            continue
        before, after = parent[name]["median"], change[name]["median"]
        rel = (after - before) / before
        if (rel if better == "lower" else -rel) > bound:
            out[name] = round(rel, 4)
    return out


def unresolved(parent, change, bounds):
    """The metrics whose parent runs spread wider than their bound (q3 - q1
    above the bound times the parent median) and on which some change run
    does not read better than every parent run, as {metric: parent
    (q3 - q1) / median}."""
    out = {}
    for name, (better, bound) in bounds.items():
        if name not in METRICS:
            continue
        before, runs = parent[name], change[name]["runs"]
        spread = before["q3"] - before["q1"]
        if spread <= bound * before["median"]:
            continue
        if (max(runs) < min(before["runs"]) if better == "lower"
                else min(runs) > max(before["runs"])):
            continue
        out[name] = round(spread / before["median"], 4)
    return out


def gains(parent, change, n_lower, n_pairs):
    """The metrics on which the change reads lower in at least 9/10 of the
    pairs and its median is below the parent's by more than the parent's
    q3 - q1, as {metric: relative change of the median}."""
    out = {}
    for name in METRICS:
        before, after = parent[name]["median"], change[name]["median"]
        if (10 * n_lower[name] >= 9 * n_pairs
                and before - after > parent[name]["q3"] - parent[name]["q1"]):
            out[name] = round((after - before) / before, 4)
    return out


def side_summary(runs):
    out = {}
    for name in METRICS:
        values = [r["summary"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": round(statistics.median(values), 4),
                     "q1": round(q1, 4), "q3": round(q3, 4),
                     "runs": [round(v, 4) for v in values]}
    out["failed"] = sum(r["summary"]["failed"] for r in runs)
    out["attempted"] = sum(r["summary"]["attempted"] for r in runs)
    out["failed_share"] = round(out["failed"] / out["attempted"], 4)
    out["rounds"] = sum(r["rounds"] for r in runs)
    out["src_lines"] = sorted({r["env"]["src_lines"] for r in runs})
    seconds = {}
    for r in runs:
        for name, values in r["ops"].items():
            seconds.setdefault(name, []).extend(values)
    out["op_seconds"] = {name: round(statistics.median(values), 4)
                         for name, values in seconds.items()}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 701-710")
    p.add_argument("--label", required=True)
    p.add_argument("--change-note", default="",
                   help="one line on what the change does")
    p.add_argument("--out", help="output path (default BENCH_<label>.json)")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("quartiles need at least two seeds")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    bounds = load_bounds(sides["change"])
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    env = None
    for seed in seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change",
                                                             "parent")
        for workload in args.workloads:
            for side in order:
                summary, env, rounds, ops = run_once(sides[side], workload,
                                                     seed)
                runs[workload][side].append({"summary": summary, "env": env,
                                             "rounds": rounds, "ops": ops})
                print("seed %d %-15s %-6s %s" % (
                    seed, workload, side,
                    "  ".join("%s %.4g" % (m, summary["metrics"][m]["value"])
                              for m in METRICS)), flush=True)
    workloads = {}
    for workload, by_side in runs.items():
        pairs = list(zip(by_side["parent"], by_side["change"]))
        n_lower = {m: sum(c["summary"]["metrics"][m]["value"]
                          < q["summary"]["metrics"][m]["value"]
                          for q, c in pairs) for m in METRICS}
        parent, change = (side_summary(by_side["parent"]),
                          side_summary(by_side["change"]))
        for side, summary in (("parent", parent), ("change", change)):
            summary["settable_values"] = settable_values(sides[side])
        workloads[workload] = {
            "seeds": seeds,
            "parent": parent,
            "change": change,
            "pairs_change_lower": {m: "%d/%d" % (n, len(pairs))
                                   for m, n in n_lower.items()},
            "regressions": regressions(parent, change, bounds),
            "unresolved": unresolved(parent, change, bounds),
            "gains": gains(parent, change, n_lower, len(pairs)),
            "correct_all_runs": all(r["summary"]["correct"]
                                    for side in by_side.values()
                                    for r in side)}
    command = ("python3 bench/run.py --workload <w> --seed <s> --seconds %d "
               "--trace 0" % SECONDS)
    record = {
        "label": args.label,
        "change": args.change_note,
        "parent_commit": commit_of(sides["parent"]),
        "command": command,
        "design": ("%d pairs per workload, seeds %s; in each pair the parent "
                   "runs first on even seeds and the change first on odd "
                   "seeds; one run after another, workloads interleaved per "
                   "seed (scripts/bench_pairs.py)"
                   % (len(seeds), args.seeds)),
        "quartiles": ("statistics.quantiles(n=4, method='inclusive') over "
                      "the %d run medians" % len(seeds)),
        "env": {k: env.get(k) for k in ENV_KEYS},
        "workloads": workloads}
    out = args.out or "BENCH_%s.json" % args.label
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, w in workloads.items():
        for m in METRICS:
            print("%-15s %-12s parent %.4g (q1 %.4g, q3 %.4g)  change %.4g  "
                  "change lower %s" % (
                      workload, m, w["parent"][m]["median"],
                      w["parent"][m]["q1"], w["parent"][m]["q3"],
                      w["change"][m]["median"], w["pairs_change_lower"][m]))
        parent, change = w["parent"], w["change"]
        for op, before in parent["op_seconds"].items():
            print("%-15s op %-28s parent %.4g s  change %s" % (
                workload, op, before,
                "%.4g s" % change["op_seconds"][op]
                if op in change["op_seconds"] else "-"))
        print("%-15s failed share parent %d/%d  change %d/%d" % (
            workload, parent["failed"], parent["attempted"],
            change["failed"], change["attempted"]))
        # exact comparison of the two fractions
        if (change["failed"] * parent["attempted"]
                > parent["failed"] * change["attempted"]):
            print("FAILED SHARE UP on %s: the change fails %.4f of its "
                  "operations, the parent %.4f" % (
                      workload, change["failed_share"],
                      parent["failed_share"]))
        for m, rel in w["gains"].items():
            print("GAIN on %s %s: change median %.4g against parent %.4g "
                  "(%+.1f %%), lower in %s pairs, parent q3 - q1 %.4g" % (
                      workload, m, change[m]["median"], parent[m]["median"],
                      100 * rel, w["pairs_change_lower"][m],
                      parent[m]["q3"] - parent[m]["q1"]))
        for m, rel in w["regressions"].items():
            print("REGRESSION on %s %s: change median %.4g against parent "
                  "%.4g (%+.1f %%, bound %.0f %%)" % (
                      workload, m, change[m]["median"], parent[m]["median"],
                      100 * rel, 100 * bounds[m][1]))
        for m, spread in w["unresolved"].items():
            print("UNRESOLVED on %s %s: parent q3 - q1 is %.1f %% of its "
                  "median %.4g, wider than the %.0f %% bound, and not every "
                  "change run reads better than every parent run" % (
                      workload, m, 100 * spread, parent[m]["median"],
                      100 * bounds[m][1]))
    print("wrote %s" % out)


if __name__ == "__main__":
    main()
