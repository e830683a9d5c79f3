"""Budget-constrained active hypothesis testing.

Cheap auxiliary statistics decide which exact statistics to query under a
global budget; the resulting active e-values and p-values stay valid for
downstream multiple testing (BH / BY / e-value step-up).
"""

# set before the submodule imports, so none of them can see it undefined
__version__ = "0.1.0"

from .allocation import (
    AllocationResult,
    BudgetConfig,
    UtilitySpec,
    allocate,
    allocate_utilities,
    eval_utility,
)
from .core import (
    ActiveOutcome,
    E_VALUES,
    P_GENERAL,
    P_INDEPENDENT,
    StatMode,
    active_e,
    active_p,
    dominance_check,
    mc_evalue_validity,
    mc_pvalue_superuniformity,
)
from .engine import (
    HypothesisSet,
    MethodSpec,
    RunOutput,
    run_method,
)
from .errors import (
    ActiveTestError,
    DataError,
    DegenerateUtilitiesError,
    DomainError,
    InternalLogicError,
)
from .pipeline import (
    AlignedPair,
    RecoveryResult,
    SummaryTable,
    align,
    conformal_p,
    oracle_recovery,
    read_summary_table,
)
from .procedures import RejectionSet, bh, by, ebh, harmonic_number
from .rng import DEFAULT_SEED, uniforms
from .simulate import (
    AggregateMetrics,
    DgpSpec,
    ExperimentResult,
    RunMetrics,
    SignalDraw,
    StatisticsDraw,
    default_construction,
    gen_signal,
    make_statistics,
    run_experiment,
    utility_defaults,
)

__all__ = [
    "ActiveOutcome",
    "ActiveTestError",
    "AggregateMetrics",
    "AlignedPair",
    "AllocationResult",
    "BudgetConfig",
    "DataError",
    "DEFAULT_SEED",
    "DegenerateUtilitiesError",
    "DgpSpec",
    "DomainError",
    "E_VALUES",
    "ExperimentResult",
    "HypothesisSet",
    "InternalLogicError",
    "MethodSpec",
    "P_GENERAL",
    "P_INDEPENDENT",
    "RecoveryResult",
    "RejectionSet",
    "RunMetrics",
    "RunOutput",
    "SignalDraw",
    "StatMode",
    "StatisticsDraw",
    "SummaryTable",
    "UtilitySpec",
    "active_e",
    "active_p",
    "align",
    "allocate",
    "allocate_utilities",
    "bh",
    "by",
    "conformal_p",
    "default_construction",
    "dominance_check",
    "ebh",
    "eval_utility",
    "gen_signal",
    "harmonic_number",
    "make_statistics",
    "mc_evalue_validity",
    "mc_pvalue_superuniformity",
    "oracle_recovery",
    "read_summary_table",
    "run_experiment",
    "run_method",
    "uniforms",
    "utility_defaults",
]
