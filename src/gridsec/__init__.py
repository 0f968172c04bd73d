"""Exact security indices for power-grid state estimation.

The package computes the minimum number of meters an attacker must touch to
change a targeted measurement without tripping bad-data detection.  On
flow-only measurement sets the underlying matrices are totally unimodular,
so the l1 relaxation solved by an exact rational simplex returns the true
combinatorial optimum, checked here against exhaustive and branch-and-bound
oracles.
"""

__version__ = "0.1.0"

from . import errors
from .lp import (
    BasicFeasibleSolution,
    LpOutcome,
    LpStatus,
    StandardFormLP,
    preprocess,
    solve_lp,
    verify_bfs,
)
from .tumin import (
    TUProblem,
    TUSolution,
    build_l1_lp,
    gen_consecutive_ones,
    solve_min_support,
    validate_integrality,
    verify_tu,
)
from .grid import (
    AttackVector,
    MeasurementMatrix,
    MeasurementSystem,
    Network,
    bdd_residual,
    build_H,
    craft_attack,
    flow_rows,
    full_flow_metering,
    incidence,
    parse_case,
    wls_estimate,
)
from .security import (
    CriticalTuple,
    SecurityIndexResult,
    check_conditions,
    min_critical_tuple,
    mincut_index,
    reduce_to_tu,
    security_index,
    security_index_bounds,
)
from .oracle import (
    CsInstance,
    MilpInstance,
    coherence_bound,
    exhaustive_min_card,
    exhaustive_min_support,
    exhaustive_min_tuple,
    milp_solve,
    mutual_coherence,
    nullspace_reformulate,
    rip_constant,
)
from .cli import BatchReport, emit, load_report, run_batch
