"""Quasi-relative entropy gaps, Petz recovery, and quantitative stability
bounds for the data processing inequality on finite-dimensional states."""

from .algebra import (SubalgebraSpec, conditional_expectation, factor_spec,
                      full_spec, pinching_spec, trivial_spec)
from .bounds import (BoundReport, beta_free_discrepancy, corollary_log_bound,
                     corollary_power_bound, discrepancy_norm,
                     generic_corollary_bound, lemma_opt, proof_internals,
                     recovery_chain, recovery_discrepancy, renyi_bound,
                     theorem_bound, theorem_optimum)
from .context import PairContext
from .entropy import (entropies, gap, integral_reconstruction,
                      reconstruct_gap, renyi, renyi_gap, s_f, s_t)
from .errors import (DomainError, InvalidInput, NotNormalized, NotPSD,
                     NumericalFailure, PetzGapError, SpecInconsistent)
from .harness import (ExperimentConfig, TrialRecord, run_reconstruct,
                      run_sweep, run_verify)
from .linalg import (SpectralDecomposition, eigh, schatten_norm,
                     support_projector)
from .modular import RelativeModularOperator, build, operator_norm
from .monotone import (MonotoneDecreasingRep, builtin_neg_log,
                       builtin_neg_power, c_constant, rep_from_name)
from .recovery import PetzChannel, build_petz, recovery_errors
from .states import DensityMatrix, SamplerConfig, make_density, sample

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "DensityMatrix", "DomainError", "ExperimentConfig",
    "InvalidInput", "MonotoneDecreasingRep", "NotNormalized", "NotPSD",
    "NumericalFailure", "PairContext", "PetzChannel", "PetzGapError",
    "RelativeModularOperator", "SamplerConfig", "SpecInconsistent",
    "SpectralDecomposition", "SubalgebraSpec", "TrialRecord",
    "beta_free_discrepancy", "build", "build_petz",
    "builtin_neg_log", "builtin_neg_power", "c_constant",
    "conditional_expectation", "corollary_log_bound", "corollary_power_bound",
    "discrepancy_norm", "eigh", "entropies", "factor_spec", "full_spec",
    "gap",
    "generic_corollary_bound", "integral_reconstruction",
    "lemma_opt", "make_density", "operator_norm",
    "pinching_spec", "proof_internals",
    "reconstruct_gap", "recovery_chain", "recovery_discrepancy",
    "recovery_errors", "renyi", "renyi_bound", "renyi_gap", "rep_from_name",
    "run_reconstruct", "run_sweep", "run_verify", "s_f", "s_t",
    "sample", "schatten_norm", "support_projector", "theorem_bound",
    "theorem_optimum", "trivial_spec",
]
