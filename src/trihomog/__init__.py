"""Numerical laboratory for the triharmonic intermediate problem on
oscillating domains: strange-term coefficient, limit problems, direct
eps-domain solver, and regime-classification experiments."""

from .oscillation import (OscillationProfile, PerturbationParams,
                          ProfileError, load_profile, save_profile,
                          profile_from_dict, profile_to_dict,
                          verify_h_bounds, unfolded_h_limit_error)
from .cell import (CellSolution, KReport, solve_cell, eval_V, k_energy,
                   k_boundary, k_testfunction, residual_check,
                   corrector_vhat, compute_k_report,
                   UNIVERSAL_MODE_CONSTANT)
from .jets import invert_shear_derivs, transform_coeffs
from .hermite import (HermiteBasis1D, Mesh1D, uniform_mesh, graded_mesh,
                      build_space_1d, build_space_2d, assemble,
                      assemble_quadratic, assemble_rhs, quadratic_energy,
                      evaluate_fe)
from .numerics import SolverError, solve_smallest, solve_linear
from .limit1d import (LimitBC, LimitSpectrum, solve_limit_spectrum,
                      solve_limit_poisson)
from .epsdomain import (EpsProblem, EpsAssembly, EpsEigenResult,
                        solve_eps_spectrum_bloch, solve_eps_poisson,
                        compare_to_limit, vertical_mesh)
from .sweep import (SweepConfig, ConvergenceTable, default_profile,
                    run_cell_k, run_converge, run_verify, write_json)

__version__ = "0.1.0"
