"""Quasi-relative entropy gaps, Petz recovery, and quantitative stability
bounds for the data processing inequality on finite-dimensional states."""

from .algebra import (SubalgebraSpec, conditional_expectation, factor_spec,
                      full_spec, partial_trace_view, pinching_spec,
                      trivial_spec, validate_expectation)
from .bounds import (BoundReport, InternalsReport, beta_free_discrepancy,
                     corollary_log_bound, corollary_power_bound,
                     discrepancy_norm, generic_corollary_bound, lemma_opt,
                     proof_internals, recovery_chain, recovery_discrepancy,
                     renyi_bound, theorem_bound)
from .context import PairContext
from .entropy import (EntropyValue, gap, integral_reconstruction, power_quasi,
                      reconstruct_gap, renyi, renyi_gap, s_f, s_t, umegaki)
from .errors import (DomainError, InvalidInput, NotNormalized, NotPSD,
                     NotRegular, NumericalFailure, PetzGapError,
                     SpecInconsistent, Unsupported)
from .harness import (ExperimentConfig, TrialRecord, run_reconstruct,
                      run_sweep, run_verify)
from .linalg import (SpectralDecomposition, eigh, hs_inner, schatten_norm,
                     spectral_apply, support_projector)
from .modular import RelativeModularOperator, apply_function, build, operator_norm
from .monotone import (MonotoneDecreasingRep, builtin_neg_log,
                       builtin_neg_power, c_constant, pick_coefficients,
                       rep_from_name, stieltjes_density, verify_representation)
from .recovery import PetzChannel, build_petz, recovery_errors, validate_petz
from .states import DensityMatrix, SamplerConfig, make_density, sample

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "DensityMatrix", "DomainError", "EntropyValue",
    "ExperimentConfig", "InternalsReport", "InvalidInput",
    "MonotoneDecreasingRep", "NotNormalized", "NotPSD", "NotRegular",
    "NumericalFailure", "PairContext", "PetzChannel", "PetzGapError",
    "RelativeModularOperator", "SamplerConfig", "SpecInconsistent",
    "SpectralDecomposition", "SubalgebraSpec", "TrialRecord", "Unsupported",
    "apply_function", "beta_free_discrepancy", "build", "build_petz",
    "builtin_neg_log", "builtin_neg_power", "c_constant",
    "conditional_expectation", "corollary_log_bound", "corollary_power_bound",
    "discrepancy_norm", "eigh", "factor_spec", "full_spec", "gap",
    "generic_corollary_bound", "hs_inner", "integral_reconstruction",
    "lemma_opt", "make_density", "operator_norm", "partial_trace_view",
    "pick_coefficients", "pinching_spec", "power_quasi", "proof_internals",
    "reconstruct_gap", "recovery_chain", "recovery_discrepancy",
    "recovery_errors", "renyi", "renyi_bound", "renyi_gap", "rep_from_name",
    "run_reconstruct", "run_sweep", "run_verify", "s_f", "s_t",
    "sample", "schatten_norm", "spectral_apply", "stieltjes_density",
    "support_projector", "theorem_bound", "trivial_spec",
    "umegaki", "validate_expectation", "validate_petz",
    "verify_representation",
]
