"""trihomog benchmark: one run of one workload.

    python3 bench/run.py --workload limit_spectra --seed 1 --seconds 10 --trace 0

Runs whole rounds of one workload, each round in a fresh process
(workload.py) under TRIHOMOG_THREADS=1 and, unless the caller sets it,
OPENBLAS_NUM_THREADS=1, with PYTHONPATH pointing at this checkout's src/,
until --seconds have passed (at least one round).  The
seed sets the phase phi of the profile b(y) = 1 + cos(2 pi (y - phi)); the
program receives only the generated profile JSON.

--trace 0 prints the end-to-end metrics: wall_s (median seconds of a
round's timed operations), setup_s (median seconds from process start to
the first timed call, over the rounds and SETUP_PROBES extra fresh
processes) and peak_rss_mb (median peak resident memory of a round's
process).  --trace 1 runs one untraced and one traced round and prints the
per-layer metrics, including trace.overhead_s.  The last line of output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Everything the run writes goes to bench/_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("limit_spectra", "bloch_spectra", "poisson_solves")
SETUP_PROBES = 2
DEADLINE_S = 170.0

from tracing import TIMED


def phase_of(seed):
    """Phase in [0, 1) from the seed (a fixed integer hash, so the same seed
    gives the same profile on every machine)."""
    return ((seed * 2654435761) % 2 ** 32) / 2 ** 32


def write_profile(path, phase):
    """b(y) = 1 + cos(2 pi (y - phase)) in trihomog's profile JSON format:
    b_1 = exp(-2 pi i phase) / 2."""
    with open(path, "w") as fh:
        json.dump({"dim": 1, "b0": 1.0,
                   "modes": [{"k": [1], "re": 0.5 * math.cos(2 * math.pi * phase),
                              "im": -0.5 * math.sin(2 * math.pi * phase)}]},
                  fh, indent=2)


class Child:
    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, TRIHOMOG_THREADS="1",
                        PYTHONPATH=os.path.join(ROOT, "src"))
        # with two OpenBLAS threads the peak memory of the same eps-spec
        # call jumps between ~730 and ~840 MB from run to run; with one it
        # repeats to 0.1 MB.  A caller's own setting wins.
        self.env.setdefault("OPENBLAS_NUM_THREADS", "1")

    def run(self, *extra):
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", self.args.workload,
               "--profile", self.args.profile,
               "--profile0", self.args.profile0,
               "--phase", repr(self.args.phase), "--out-dir", OUT]
        cmd += list(extra)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)],
                                cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("workload process exceeded the %.0f s deadline"
                             % DEADLINE_S)
        if proc.returncode != 0:
            raise SystemExit("workload process exited with %d"
                             % proc.returncode)
        return json.loads(out.strip().splitlines()[-1])


def src_lines():
    src = os.path.join(ROOT, "src", "trihomog")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def environment(args, env, blas):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": blas,
            "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
            "TRIHOMOG_THREADS": env["TRIHOMOG_THREADS"], "seed": args.seed,
            "phase": args.phase, "src_lines": src_lines(),
            "workload": args.workload, "trace": args.trace}


def tally(rounds):
    attempted = failed = 0
    correct = True
    for r in rounds:
        for op in r["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                # only the expected check of a known-fault case may fail
                correct &= op["known_fault"]
    return correct, attempted, failed


def layer_metrics(traced, untraced):
    tr = traced["trace"]
    out = {}
    for name in TIMED:
        out[name + "_s"] = (tr["self_s"].get(name, 0.0), "s")
        out[name + "_calls"] = (tr["calls"].get(name, 0), "count")
    pencils = tr["pencils"]
    out["epsdomain.bloch_pencils"] = (pencils, "count")
    out["numerics.splu_per_pencil"] = (
        tr["calls"].get("numerics.splu", 0) / pencils if pencils else 0.0,
        "ratio")
    useful = sum(u for _, u in tr["useful"])
    solved = sum(n for n, _ in tr["useful"])
    out["epsdomain.pencils_useful_ratio"] = (
        useful / solved if solved else 0.0, "ratio")
    out["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "trihomog", "cli.py")):
        sys.exit("no trihomog source under %s" % os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    args.phase = phase_of(args.seed)
    args.profile = os.path.join(OUT, "profile_seed%d.json" % args.seed)
    args.profile0 = os.path.join(OUT, "profile_phase0.json")
    write_profile(args.profile, args.phase)
    write_profile(args.profile0, 0.0)
    child = Child(args, deadline)

    if args.trace:
        untraced = child.run("--trace", "0")
        traced = child.run("--trace", "1")
        rounds = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
    else:
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(child.run("--trace", "0"))
        setups = [r["setup_s"] for r in rounds]
        setups += [child.run("--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in rounds), "MB")}
    correct, attempted, failed = tally(rounds)
    env = environment(args, child.env, rounds[-1]["blas"])
    report = {"env": env, "rounds": rounds,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(os.path.join(OUT, "run_%s_seed%d_trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print("env " + json.dumps(env))
    for r in rounds:
        for op in r["ops"]:
            print("%-4s %-28s %7.2fs  %s" % ("ok" if op["ok"] else "FAIL",
                                             op["name"], op["seconds"],
                                             op["detail"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
