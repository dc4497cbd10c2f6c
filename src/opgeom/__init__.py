"""Positive linear operators on [0,1], their iterates and geometric
(Neumann) series in the weighted sup norm |f/psi|, with desk-scale
convergence experiments for the Bernstein, Durrmeyer-type, and symmetrized
Meyer-Koenig-Zeller families."""

from .errors import (DegenerateOperatorError, DomainError, NotInCpsiError,
                     QuadratureError, StepSizeError, TruncationBudgetError)
from .funcspace import (EvaluationGrid, F_transform, Function01, PsiNormEstimate,
                        apply_B1, check_F_second_derivative, default_grid,
                        modulus_of_continuity, project_to_Cpsi, psi, psi_norm,
                        registry, registry_names)
from .operators import (AlphaProfile, NodeDiscretization, OperatorSpec,
                        alpha_profile, bernstein_apply, condition_report,
                        durrmeyer_apply, durrmeyer_functional, mkz_apply,
                        moment, node_discretization)
from .series import (GeometricSeriesResult, check_inversion_identities,
                     geometric_series, geometric_series_neumann_batch,
                     geometric_series_solve, iterate_apply, neumann_tail_terms)
from .experiments import (ExperimentConfig, ExperimentReport, read_report,
                          run_experiment)

__version__ = "0.1.0"
