"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``install`` replaces each
traced function under the name its caller looks it up by (``limit1d``
imports ``assemble_quadratic`` by name, so ``limit1d.assemble_quadratic`` is
the one replaced).  Every sparse LU factorization is counted, including the
one ``eigsh(sigma=...)`` makes inside scipy's ARPACK wrapper, and the factor
objects are wrapped in a proxy that times their triangular solves.

A span's self time is its duration minus the durations of its direct child
spans.  Spans are kept in memory and written out by ``write``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: spans reported as <name>_s (self time) and <name>_calls
TIMED = ("cell.k_report", "hermite.basis_eval", "hermite.assemble_quadratic",
         "hermite.quadratic_energy", "hermite.evaluate_fe",
         "limit1d.solve_mode", "limit1d.solve_limit_poisson",
         "numerics.solve_smallest", "numerics.dense_seed",
         "numerics.lanczos_seed", "numerics.splu", "numerics.lu_solve",
         "numerics.solve_linear", "epsdomain.assembly", "epsdomain.energies",
         "epsdomain.assemble_rhs", "epsdomain.compare_to_limit",
         "oscillation.pullback_derivs", "jets.invert_shear_derivs",
         "jets.transform_coeffs")


class Tracer:
    def __init__(self):
        self.spans = []          # (op, name, start, end, parent span index)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.pencils = []        # eigenvalues returned per Bloch pencil
        self.useful = []         # (pencils, useful pencils) per eps-spec
        self.paused = False
        self.op = ""
        self._stack = []         # [span index, name, start, child seconds]

    def span(self, name, fn, *args, **kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            self.self_s[name] += dur - frame[3]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][3] += dur
            self.spans[index] = (self.op, name, frame[2], end, parent)

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if on_return is not None and not self.paused:
                on_return(out)
            return out
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, name, start, end, parent in self.spans:
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\n"
                         % (op, name, start, end, parent))


class _TracedLU:
    """Proxy around a SuperLU factor: times ``solve``, delegates the rest."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.span("numerics.lu_solve", self._lu.solve, *args,
                                 **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(tracer):
    """Wrap the traced functions of the imported trihomog modules."""
    import scipy.linalg
    import scipy.sparse.linalg as spla
    from scipy.sparse.linalg._eigen.arpack import arpack
    from trihomog import epsdomain, hermite, limit1d, oscillation, sweep

    def patch(owner, attr, name, on_return=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                         on_return))

    patch(sweep, "compute_k_report", "cell.k_report")
    patch(hermite.HermiteBasis1D, "eval", "hermite.basis_eval")
    patch(limit1d, "assemble_quadratic", "hermite.assemble_quadratic")
    patch(limit1d, "quadratic_energy", "hermite.quadratic_energy")
    patch(limit1d, "evaluate_fe", "hermite.evaluate_fe")
    patch(limit1d, "solve_mode", "limit1d.solve_mode")
    patch(limit1d, "solve_limit_poisson", "limit1d.solve_limit_poisson")
    patch(limit1d, "solve_smallest", "numerics.solve_smallest")
    patch(epsdomain, "solve_smallest", "numerics.solve_smallest",
          on_return=lambda out: tracer.pencils.append(
              [float(v) for v in out[0]]))
    patch(limit1d, "solve_linear", "numerics.solve_linear")
    patch(epsdomain, "solve_linear", "numerics.solve_linear")
    patch(epsdomain.EpsAssembly, "__init__", "epsdomain.assembly")
    patch(epsdomain.EpsAssembly, "energies", "epsdomain.energies")
    patch(epsdomain.EpsAssembly, "assemble_rhs", "epsdomain.assemble_rhs")
    patch(epsdomain, "compare_to_limit", "epsdomain.compare_to_limit")
    patch(oscillation.OscillationProfile, "pullback_derivs",
          "oscillation.pullback_derivs")
    patch(epsdomain, "invert_shear_derivs", "jets.invert_shear_derivs")
    patch(epsdomain, "transform_coeffs", "jets.transform_coeffs")
    patch(spla, "eigsh", "numerics.lanczos_seed")

    def splu(real):
        def factor(*args, **kwargs):
            return _TracedLU(tracer, tracer.span("numerics.splu", real,
                                                 *args, **kwargs))
        return factor

    # numerics and limit1d call spla.splu; ARPACK's shift-invert operator
    # calls the splu it imported into its own module
    spla.splu = splu(spla.splu)
    arpack.splu = splu(arpack.splu)

    # numerics imports scipy.linalg.eigh inside the functions that use it;
    # only the dense seed of small pencils (_initial_block) is a layer here,
    # the Rayleigh-Ritz projections are not
    real_eigh = scipy.linalg.eigh

    def eigh(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_initial_block":
            return tracer.span("numerics.dense_seed", real_eigh, *args,
                               **kwargs)
        return real_eigh(*args, **kwargs)

    scipy.linalg.eigh = eigh


def useful_pencils(pencils, final):
    """Number of pencils that supply at least one final eigenvalue: each
    final (refined) eigenvalue is attributed to the pencil holding the
    nearest raw eigenvalue."""
    used = set()
    for lam in final:
        best = min(((abs(v - lam), p) for p, vals in enumerate(pencils)
                    for v in vals), default=None)
        if best is not None:
            used.add(best[1])
    return len(used)
