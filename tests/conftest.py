"""Shared fixtures and helpers for the test suite, and a session check that
the tests write nothing into the checkout."""

import os
from pathlib import Path

# one OpenBLAS thread unless the caller sets a count, set before numpy loads
# the library: on two cores the production sweep of criterion 7 takes
# 21-31 s at two threads against 13-17 s at one, as the overlapped Bloch
# pair then runs three compute threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from trihomog.epsdomain import EpsAssembly
from trihomog.hermite import assemble_quadratic
from trihomog.limit1d import (MASS_WEIGHTS, _upper_band, _with_strange_term,
                              mode_stiffness, solve_mode)
from trihomog.numerics import solve_linear, solve_smallest
from trihomog.oscillation import OscillationProfile

CHECKOUT = Path(__file__).resolve().parents[1]
#: directories whose contents the checkout check ignores (interpreter and
#: pytest caches, version control)
UNTRACKED_DIRS = {".git", "__pycache__", ".pytest_cache"}
_AT_START = pytest.StashKey[set]()
_WRITTEN = pytest.StashKey[list]()


def _checkout_files():
    found = set()
    for root, dirs, files in os.walk(CHECKOUT):
        dirs[:] = [d for d in dirs if d not in UNTRACKED_DIRS]
        found.update(os.path.relpath(os.path.join(root, f), CHECKOUT)
                     for f in files)
    return found


def pytest_sessionstart(session):
    session.config.stash[_AT_START] = _checkout_files()


def pytest_sessionfinish(session, exitstatus):
    new = sorted(_checkout_files() - session.config.stash[_AT_START])
    session.config.stash[_WRITTEN] = new
    if new:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    new = config.stash.get(_WRITTEN, [])
    if new:
        terminalreporter.section("files written into the checkout")
        for name in new:
            terminalreporter.write_line(name)


@pytest.fixture
def cosine_profile():
    """The reference experiment profile b(y) = 1 + cos(2 pi y)."""
    return OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})


def random_nonneg_profile(rng, n_pairs=2, dim=1):
    """A random finite Fourier profile kept non-negative by giving the zero
    mode at least the total mass of the oscillating modes."""
    coeffs = {}
    total = 0.0
    ks = rng.choice(np.arange(1, 7), size=n_pairs, replace=False)
    for k in ks:
        bk = complex(rng.normal(), rng.normal()) * 0.3
        coeffs[(int(k),) * dim] = bk
        total += 2.0 * abs(bk)
    coeffs[(0,) * dim] = total + 0.1 + rng.random()
    return OscillationProfile(dim, coeffs)


def whole_matrix(assembly, kind):
    """The ``kind`` matrix ("stiffness" or "mass") of an EpsAssembly over
    every column of its ring, as CSR: the reference the Bloch blocks and
    the quadrature energies are checked against."""
    return assembly._matrix(kind, np.arange(assembly.columns))


def solve_eps_spectrum(problem, count, assembly=None):
    """Lowest eigenvalues of the oscillating-domain problem solved on the
    full torus pencil: the reference the Bloch reduction
    (solve_eps_spectrum_bloch) is checked against.  The form contains
    + int u^2, so the spectrum sits above 1 and the shift 0.5 lies safely
    below it.  Each eigenvalue is the quadrature-energy Rayleigh quotient of
    its eigenvector: like the Bloch path's Ritz values through G_theta, it
    avoids the h^{-6} cancellation of the assembled stiffness."""
    if assembly is None:
        assembly = EpsAssembly(problem)
    _, vec = solve_smallest(whole_matrix(assembly, "stiffness").tocsc(),
                            whole_matrix(assembly, "mass").tocsc(), count,
                            0.5)
    energies = [assembly.energies(vec[:, j]) for j in range(count)]
    return np.sort([ea / eb for ea, eb in energies])


def solve_eps_poisson_direct(assembly, rhs):
    """One direct solve of the whole assembled Poisson system: the reference
    the Bloch split of solve_eps_poisson is checked against."""
    return solve_linear(whole_matrix(assembly, "stiffness").tocsc(), rhs)


def mode_matrices(bc, m, space):
    """Regime stiffness S, mass M and, for the literal -K sign, the banded
    forms of the stiffness S0 and of M (None otherwise) of tangential mode
    m, as solve_limit_spectrum builds them for its walk."""
    S0 = mode_stiffness(2.0 * np.pi * abs(m), space)
    M = assemble_quadratic(space, MASS_WEIGHTS)
    bands = (_upper_band(S0), _upper_band(M)) if bc.signed_k() > 0 else None
    return _with_strange_term(bc, S0, space), M, bands


def solve_one_mode(bc, m, count, space):
    """solve_mode on mode m's own freshly built matrices, its solver record
    dropped."""
    return solve_mode(bc, m, count, space, mode_matrices(bc, m, space), {})


def solve_every_part(monkeypatch, module):
    """Make ``module``'s spectrum walk solve every part: each part's floor
    becomes -inf, which clears no shift, so no part is certified.  The
    reference of the walks' bit-identity tests."""
    walk = module.walk_spectrum

    def unchecked(parts, count):
        return walk(((label, None, -np.inf, mult, solve)
                     for label, _, _, mult, solve in parts), count)

    monkeypatch.setattr(module, "walk_spectrum", unchecked)
