"""Staged elimination over ensembles of discrete-time stochastic processes:
simulation of iterative selection strategies, the alignment coupling that
pairs any strategy's run with a greedy run it can never beat pathwise, and
exact enumeration / backward-induction / Monte Carlo certification that
greedy selection maximizes the expected final value under independent
increments.
"""

from .core_model import (
    Discrete,
    DriftModel,
    ENUMERATION_CAP,
    Gaussian,
    IncrementModel,
    PathEnsemble,
    Rademacher,
    REPLICATION_CHUNK,
    Schedule,
    Uniform,
    as_fraction,
    discrete,
    drift_model,
    enumerate_paths,
    gaussian,
    model_from_config,
    model_to_config,
    rademacher,
    sample_chunk,
    sample_ensemble,
    sample_replications,
    schedule_from_config,
    schedule_to_config,
    uniform,
    validate_schedule,
)
from .selection_engine import (
    HistoryView,
    SelectionTrace,
    StageRecord,
    Strategy,
    assign_temporal_indices,
    baseline_strategies,
    full_catalog,
    greedy_strategy,
    random_fixed_strategy,
    run_selection,
    strategy_from_config,
    trace_to_csv_rows,
)
from .alignment import (
    AlignmentWitness,
    Pair,
    PairingSequence,
    VerifyResult,
    build_alignment,
    check_block_permutation,
    check_pairwise_dominance,
    invert_alignment,
    verify_exhaustive,
    verify_mc,
    witness_to_csv_rows,
)
from .oracle import (
    DecisionTable,
    ExactValue,
    SearchResult,
    dp_optimal_value,
    exact_expected_value,
    exact_expected_values,
    exhaustive_strategy_search,
    order_stat_lemma_check,
)
from .experiments import (
    ComparisonRow,
    ComparisonTable,
    DriftReport,
    McResult,
    compare_strategies,
    default_drift_experiment,
    dependent_model_experiment,
    mc_estimate,
)

__version__ = "0.1.0"
