"""Pooled (group) testing plan design for populations with heterogeneous,
known defect probabilities: exact expected-cost formulas and optimal
within-group orderings for the Dorfman, modified Dorfman, and Sterrett
procedures, a dynamic program over ordered partitions, exhaustive
small-instance oracles, a protocol test counter with exact-outcome and
Monte Carlo validation, and information-theoretic lower bounds."""

from .bounds import (
    UNGAR_THRESHOLD,
    BoundReport,
    all_above_ungar,
    check_bounds,
    entropy_bits,
    huffman_length,
    outcome_distribution,
)
from .cost import arranged_cost, evaluate_plan, group_cost
from .model import (
    PROCEDURES,
    BlockCost,
    CostReport,
    EmptyInputError,
    Group,
    InstanceTooLargeError,
    NotSortedError,
    OrderedPartition,
    OutOfRangeError,
    ProbabilityVector,
    SetPartition,
    SimulationSummary,
    UnknownFormatError,
    plan_from_json,
    sort_ascending,
    validate_probability_vector,
)
from .optimize import (
    DpTable,
    PlanResult,
    dp_ordered,
    dp_table,
    exhaustive_ordered,
    exhaustive_set,
)
from .simulate import (
    count_tests,
    estimate_cost,
    exact_expected_tests,
    sample_beta_one,
)
from .study import StudyConfig, StudyRow, emit_table, run_study

__version__ = "0.1.0"
