"""Shared fixtures and helpers for the test suite, and a session check that
the tests write nothing into the checkout."""

import os
from pathlib import Path

import numpy as np
import pytest

from trihomog.epsdomain import EpsAssembly
from trihomog.numerics import EigenRequest, solve_smallest
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


def solve_eps_spectrum(problem, count, assembly=None):
    """Lowest eigenvalues of the oscillating-domain problem solved on the
    full torus pencil: the reference the Bloch reduction
    (solve_eps_spectrum_bloch) is checked against.  The form contains
    + int u^2, so the spectrum sits above 1 and the shift 0.5 lies safely
    below it."""
    if assembly is None:
        assembly = EpsAssembly(problem)
    lam, _ = solve_smallest(assembly.stiffness.tocsc(),
                            assembly.mass.tocsc(),
                            EigenRequest(count=count, shift=0.5),
                            energy=assembly.energies)
    return lam
