"""Compute the strange-term constant K by three independent routes.

The microscopic strip problem has closed-form mode solutions
w_k(t) = b_k e^{xi t} (t - xi t^2 / 2), and K can be read off three ways:
the energy of the corrector, the boundary flux of each mode, and the
pairing with an explicit test function.  All three must agree to rounding;
per mode, the energy contribution divided by xi^3 |b_k|^2 is the same
universal constant for every profile.

Run:  python demos/strange_constant.py
"""

import numpy as np

from trihomog.cell import (UNIVERSAL_MODE_CONSTANT, compute_k_report,
                           mode_energy_closed_form, solve_cell)
from trihomog.oscillation import OscillationProfile


def show(profile, name):
    report = compute_k_report(profile)
    print("profile: %s" % name)
    print("  K (energy route)        %.15g" % report.k_energy)
    print("  K (boundary-flux route)  %.15g" % report.k_boundary)
    print("  K (test-function route)  %.15g" % report.k_testfunction)
    print("  pairwise agreement       %.2e" % report.agreement())
    solution = solve_cell(profile)
    print("  per-mode energy / (xi^3 |b_k|^2):")
    for k in solution.sorted_keys():
        mode = solution.modes[k]
        if mode.xi == 0.0:
            continue
        bk = mode.c1
        ratio = mode_energy_closed_form(mode) / (mode.xi ** 3 * abs(bk) ** 2)
        print("    mode %-6s xi = %8.4f   ratio = %.12f" % (k, mode.xi, ratio))
    print()


def main():
    cosine = OscillationProfile(1, {(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    show(cosine, "b(y) = 1 + cos(2 pi y)")
    print("closed form for this profile: 2 * C * (2 pi)^3 * (1/2)^2 "
          "= 20 pi^3 = %.15g" % (20.0 * np.pi ** 3))
    print("universal mode constant C = %g\n" % UNIVERSAL_MODE_CONSTANT)

    rng = np.random.default_rng(5)
    coeffs = {(0,): 2.0}
    for k in (1, 2, 3):
        c = 0.3 * complex(rng.normal(), rng.normal())
        coeffs[(k,)] = c
    show(OscillationProfile(1, coeffs), "random three-mode profile")


if __name__ == "__main__":
    main()
