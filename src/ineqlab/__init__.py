"""ineqlab: a finite-lattice laboratory for kinetic-form inequalities.

Builds measure spaces as finite lattices, assembles Laplacian-type
operator families (fractional, magnetic, periodic Schroedinger, inverse
square), and verifies the equivalence chain between Sobolev-type
inequalities and eigenvalue-counting/moment bounds: sharp constant
brackets, resolvent-sandwich counting, heat-kernel bounds, trace
bounds, and the algebraic identities that drive the proofs.
"""

from .lattice import (ExponentSet, LatticeSpace, exponents_from_gamma_kappa,
                      integral, make_lattice)
from .operators import (KineticOperator, beurling_deny_check,
                        build_hardy_operator, build_laplacian,
                        build_magnetic_laplacian, build_periodic_schrodinger,
                        fractional_laplacian, random_phases, ring_flux_phases,
                        uniform_flux_phases)
from .spectra import (birman_schwinger, birman_schwinger_check, count_below,
                      count_from_eigenvalues, heat_kernel, heat_norms,
                      hinge_profile, liyau_upsilon, riesz_mean,
                      riesz_mean_from_counts, schrodinger_eigenvalues,
                      trotter_trace)
from .functional import (aizenman_lieb_factor, clr_bounds_from_S, hardy_constant,
                         heat_bound_check, lieb_bound_from_K, lieb_objective,
                         ltw_bounds_from_S, nash_check, sobolev_constant,
                         sobolev_interp_constant, tau_min_value)
from .verify import (THEOREM_TAGS, ConfigError, VerificationReport,
                     make_report, run_scenario, validate_config, verify_clr,
                     verify_diamagnetic, verify_gsr_identity, verify_heat_nash,
                     verify_liyau_trace, verify_lt_moments, verify_weak_lt)

__version__ = "0.1.0"
