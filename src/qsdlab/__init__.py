"""Long-run conditioned behavior of competitive birth-death populations.

The package solves for quasi-stationary laws of multi-type birth-death
chains with competitive death pressure, certifies the drift and shape
hypotheses behind them on explicit finite ranges, and cross-checks the
linear-algebra answers against event-driven simulation.
"""

from .config import ConfigDocument, load_config
from .convergence import (ConvergenceCurve, MinorizationCertificate,
                          MixingCertificate, RateFit,
                          SurvivalComparisonCertificate,
                          certify_minorization, certify_survival_comparison,
                          convergence_curve, convergence_curves, fit_rate,
                          mixing_certificate, survival_profile_error,
                          tv_distance)
from .errors import (ConditioningImpossibleError, ConvergenceError,
                     DomainError, EmptySpaceError, NoFitError,
                     NoSurvivorsError, NumericalError, QsdlabError,
                     RateOverflowError, ReducibleSpaceError, ValidationError)
from .lyapunov import (FAIL, INCONCLUSIVE, PASS, AssumptionReport,
                       ConditionalDriftReport, DriftReport, PotentialParams,
                       apply_generator, check_boundary_pressure,
                       check_catastrophes, check_competition_dominance,
                       check_conditional_drift, check_drift,
                       check_growth_envelope, check_multibirth,
                       check_neutral_threshold, sample_shells, size_potential,
                       size_potential_bracket)
from .model import LitterLaw, Model, build_model, is_absorbed, is_interior
from .simulate import (ConditionalEstimate, EmpiricalLaw, ParticleResult,
                       RngPlan, Trajectory, estimate_conditional,
                       fleming_viot, occupation_measure, simulate_path,
                       simulate_qprocess, validate_trajectory)
from .solver import (QsdResult, SubGenerator, TruncatedSpace, assemble,
                     conditional_moments, conditional_path, enumerate_space,
                     evolve_function, evolve_measure, qprocess_generator,
                     solve_qsd, transient_conditional)
from . import presets

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "ConditionalDriftReport", "ConditionalEstimate",
    "ConditioningImpossibleError", "ConfigDocument", "ConvergenceCurve",
    "ConvergenceError", "DomainError", "DriftReport", "EmpiricalLaw",
    "EmptySpaceError", "FAIL", "INCONCLUSIVE", "LitterLaw",
    "MinorizationCertificate", "MixingCertificate", "Model", "NoFitError",
    "NoSurvivorsError", "NumericalError", "PASS", "ParticleResult",
    "PotentialParams", "QsdResult", "QsdlabError", "RateFit",
    "RateOverflowError", "ReducibleSpaceError", "RngPlan", "SubGenerator",
    "SurvivalComparisonCertificate", "Trajectory",
    "TruncatedSpace", "ValidationError",
    "apply_generator", "assemble", "build_model", "certify_minorization",
    "certify_survival_comparison", "check_boundary_pressure",
    "check_catastrophes", "check_competition_dominance",
    "check_conditional_drift", "check_drift", "check_growth_envelope",
    "check_multibirth", "check_neutral_threshold", "conditional_moments",
    "conditional_path",
    "convergence_curve", "convergence_curves", "enumerate_space",
    "estimate_conditional", "evolve_function", "evolve_measure",
    "fit_rate", "fleming_viot", "is_absorbed", "is_interior", "load_config",
    "mixing_certificate", "occupation_measure", "presets",
    "qprocess_generator", "sample_shells", "simulate_path",
    "simulate_qprocess", "size_potential", "size_potential_bracket",
    "solve_qsd", "survival_profile_error", "transient_conditional",
    "tv_distance",
    "validate_trajectory",
]
