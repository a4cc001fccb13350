"""Compare the numbers two checkouts print, bit for bit.

    python3 scripts/compare_bits.py --parent ../parent --change .

Runs the bit-identity set in each checkout, one run after another:

* the four ``limit-spec --K auto --count 3 --modes 8`` calls (intermediate,
  Dirichlet, strange-term +K and literal -K);
* the two benchmark ``eps-spec --count 3`` calls, (alpha, eps, elements
  per period) = (1, 1/8, 32) and (3/2, 1/16, 16);
* ``eps-spec --alpha 1.5 --eps 1/8 --elements-per-period 8 --count 12``;
* two count-1 calls: ``eps-spec --alpha 1.5 --eps 1/16
  --elements-per-period 16 --count 1`` and ``limit-spec --bc strange
  --sign literal --K auto --count 1 --modes 8``;
* the production sweep, ``converge``.

Each run uses OPENBLAS_NUM_THREADS=1, that checkout's src/ and a new
temporary directory as its working directory, where every output it writes
lands.  The outputs compared are the ``lambda`` lines of each spectrum call
and the sweep's ``convergence.csv``.  For each output the script prints
IDENTICAL, or the largest relative difference of the numbers that differ
(and whether any text differs).  It exits 1 on any difference and 2 when a
run fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile

LIMIT = ("--K", "auto", "--count", "3", "--modes", "8")
RUNS = (
    ("limit-spec int", ("limit-spec", "--bc", "int") + LIMIT),
    ("limit-spec dir", ("limit-spec", "--bc", "dir") + LIMIT),
    ("limit-spec +K", ("limit-spec", "--bc", "strange", "--sign", "flipped")
     + LIMIT),
    ("limit-spec literal -K", ("limit-spec", "--bc", "strange", "--sign",
                               "literal") + LIMIT),
    ("eps-spec 1 1/8 32", ("eps-spec", "--alpha", "1", "--eps", "1/8",
                           "--elements-per-period", "32", "--count", "3")),
    ("eps-spec 3/2 1/16 16", ("eps-spec", "--alpha", "1.5", "--eps", "1/16",
                              "--elements-per-period", "16", "--count", "3")),
    ("eps-spec 3/2 1/8 8 count 12", ("eps-spec", "--alpha", "1.5", "--eps",
                                     "1/8", "--elements-per-period", "8",
                                     "--count", "12")),
    ("eps-spec 3/2 1/16 16 count 1", ("eps-spec", "--alpha", "1.5", "--eps",
                                      "1/16", "--elements-per-period", "16",
                                      "--count", "1")),
    ("limit-spec literal -K count 1", ("limit-spec", "--bc", "strange",
                                       "--sign", "literal", "--K", "auto",
                                       "--count", "1", "--modes", "8")),
    ("converge convergence.csv", ("converge", "--out", "sweep")),
)


def run(checkout, argv):
    """The text of one output of ``trihomog argv`` run in ``checkout``: the
    lambda lines of its stdout, or the convergence.csv of a converge."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    with tempfile.TemporaryDirectory(prefix="compare_bits_") as tmp:
        proc = subprocess.run([sys.executable, "-m", "trihomog.cli"]
                              + list(argv), cwd=tmp, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            _fail("trihomog %s failed in %s (exit %d):\n%s"
                  % (" ".join(argv), checkout, proc.returncode, proc.stderr))
        if argv[0] == "converge":
            with open(os.path.join(tmp, "sweep", "convergence.csv")) as fh:
                return fh.read()
    text = "".join(line + "\n" for line in proc.stdout.splitlines()
                   if line.startswith("lambda "))
    if not text:
        _fail("trihomog %s printed no lambda line in %s"
              % (" ".join(argv), checkout))
    return text


def _fail(message):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _fields(text, table):
    """The fields of an output: the cells of a CSV ``table``, otherwise
    the whitespace-separated words of the lambda lines."""
    if table:
        return [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    return text.split()


def difference(before, after, table):
    """None when the two outputs are identical, otherwise a line saying by
    how much they differ."""
    if before == after:
        return None
    a, b = _fields(before, table), _fields(after, table)
    if len(a) != len(b):
        return "%d fields against %d" % (len(a), len(b))
    worst, numbers, words = 0.0, 0, 0
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            words += 1
            continue
        numbers += 1
        worst = max(worst, abs(fy - fx) / max(abs(fx), abs(fy), 1e-300))
    out = "largest relative difference %.3e over %d numbers" % (worst,
                                                                   numbers)
    return out + (", %d text fields differ" % words if words else "")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    args = ap.parse_args(argv)
    differ = False
    for name, cli in RUNS:
        diff = difference(run(args.parent, cli), run(args.change, cli),
                          table=cli[0] == "converge")
        differ |= diff is not None
        print("%-30s %s" % (name, diff or "IDENTICAL"), flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
