"""Simplicial complexes, discrete Hodge theory, and index cross-checks."""

__version__ = "0.1.0"

from .complexes import (Complex, barycentric_operator, barycentric_refinement,
                        downward_closure, euler_characteristic, f_matrix,
                        f_vector, generate, graphical_complex,
                        random_subcomplex, skeleton, stirling2, unit_sphere,
                        whitney_complex)
from .errors import (ContractViolationError, DivergenceError,
                     InvalidInputError, ParseError, ResourceLimitError,
                     SimhodgeError)
from .indices import (ExpectationResult, IndexTriple, analytic_index,
                      cohomological_index, gauss_bonnet_curvature,
                      index_expectation, index_theorem_report,
                      mean_tuple_curvature, multilinear_curvature,
                      poincare_hopf, sphere_curvature, valuation_evaluate,
                      wu_characteristic, wu_intersection)
from .intlinalg import IntMatrix, exact_nullity, exact_rank
from .lax import (FlowState, bracket_field, deformed_stokes_probe, integrate,
                  spectral_drift, split_by_degree, trajectory_to_csv,
                  trajectory_to_json)
from .lefschetz import (Automorphism, LefschetzReport, check_automorphism,
                        fixed_point_indices, heat_lefschetz, induced_map,
                        lefschetz_number, lefschetz_report)
from .operators import (GradedBasis, GradedOperator, boundary_chain,
                        connection_basis, connection_degree_counts,
                        connection_derivative, connection_tuple_count, dirac,
                        exterior_derivative, graded_basis, hodge,
                        stokes_check)
from .spectral import (SpectrumReport, SupersymmetryReport, betti,
                       harmonic_projector, heat_supertrace, spectrum,
                       spectrum_report, supersymmetry_check)

__all__ = [name for name in dir() if not name.startswith("_")]
