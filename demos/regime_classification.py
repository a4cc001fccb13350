"""A small regime-classification experiment.

For b(y) = 1 + cos(2 pi y) and g_eps = eps^alpha b(x/eps), solve the
oscillating-domain eigenproblem at a few (alpha, eps) pairs and classify
each case by the nearest of the three candidate limits.  The exponent
alpha = 3/2 is critical: above it the oscillation is spectrally invisible
(intermediate limit), at it the strange term with coefficient K appears,
below it the limit degenerates to Dirichlet conditions on the flat line.

This demo runs a reduced eps range in about 20 seconds; the production
experiment is `trihomog converge` (about 1.5 minutes).

Run:  python demos/regime_classification.py
"""

from trihomog.sweep import SweepConfig, run_converge


def main():
    config = SweepConfig(alphas=(1.0, 1.5, 2.0),
                         eps_values=(1 / 4, 1 / 8),
                         count=1, cutoff=2, n_elements_1d=48)
    table = run_converge(config, out_dir=None, log=print)
    print("\nstrange-term sign adjudication: %s  %s"
          % (table.strange_sign, table.sign_distances))
    print("\n%-6s %-6s %-14s %-10s %-10s %-10s %-13s %s"
          % ("alpha", "eps", "lambda_eps", "d_int", "d_hat", "d_dir",
             "predicted", "classified"))
    for r in table.rows:
        print("%-6g 1/%-4d %-14.8g %-10.4g %-10.4g %-10.4g %-13s %s"
              % (r["alpha"], round(1 / r["eps"]), r["lambda_eps"],
                 r["d_int"], r["d_hat"], r["d_dir"],
                 r["predicted_regime"], r["classified_regime"]))
    print("\nAt these moderate eps the eigenvalues already sort into the "
          "predicted regimes at alpha = 1 and 3/2; the alpha = 2 case "
          "still sits near the strange-term spectrum because the "
          "effective coefficient eps^{2 alpha - 3} K decays only like eps.")


if __name__ == "__main__":
    main()
