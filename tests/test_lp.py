"""Exact-simplex unit and property tests.

Covers the documented trivial cases, preprocessing behavior, BFS
verification, and randomized cross-checks against scipy's HiGHS solver
(float oracle, loose tolerance) plus exact self-consistency invariants.
"""
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
import random

import numpy as np
import pytest
import scipy.optimize

from gridsec.errors import DimensionMismatch, InconsistentRow, SolverDefect
from gridsec.exactla import to_fraction
from gridsec.lp import (
    RHS,
    BasicFeasibleSolution,
    LpStatus,
    StandardFormLP,
    _solve_standard_ints,
    preprocess,
    solve_lp,
    verify_bfs,
)


def test_minimize_sum_on_simplex():
    lp = StandardFormLP.create([[1, 1]], [1], [1, 1])
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.solution.objective == 1


def test_unbounded_ray():
    lp = StandardFormLP.create([[1, -1]], [0], [-1, 0])
    assert solve_lp(lp).status is LpStatus.UNBOUNDED


def test_inconsistent_rows_reported_infeasible():
    # contradictory equalities are caught before phase 1 even starts
    lp = StandardFormLP.create([[1], [1]], [1, 2], [0])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_sign_infeasibility_needs_phase_one():
    # x1 + x2 = -1 has solutions, but none with x >= 0
    lp = StandardFormLP.create([[1, 1]], [-1], [0, 0])
    assert solve_lp(lp).status is LpStatus.INFEASIBLE


@pytest.mark.parametrize("value,want", [
    (3, Fraction(3)), (True, Fraction(1)), (np.int64(-2), Fraction(-2)),
    ("0.1", Fraction(1, 10)), ("1/3", Fraction(1, 3)), (Fraction(2, 7), Fraction(2, 7)),
    (0.1, Fraction(1, 10)), (np.float64(0.1), Fraction(1, 10)),
    (np.float32(0.5), Fraction(1, 2)), (np.float32(0.1), Fraction(repr(float(np.float32(0.1))))),
    (Decimal("2.5"), Fraction(5, 2)),
])
def test_to_fraction_readings(value, want):
    got = to_fraction(value)
    assert got == want
    assert type(got) is Fraction


def test_simplex_returns_a_frozen_record():
    # min x0 + 2 x1  s.t.  x0 + x1 = 1: column 0 is a ready-made basis
    res = _solve_standard_ints([{0: 1, 1: 1, RHS: 1}], {0: 1, 1: 2}, 1, 2)
    assert (res.status, res.values, res.basis, res.objective) == ("optimal", [1, 0], [0], 1)
    assert (res.pivots, res.dropped) == (0, 0)
    with pytest.raises(FrozenInstanceError):
        res.status = "infeasible"
    # x0 = -1 has no nonnegative solution
    res = _solve_standard_ints([{0: 1, RHS: -1}], {0: 1}, 1, 1)
    assert (res.status, res.values, res.basis, res.objective) == ("infeasible", None, None, None)


def test_equal_values_of_any_input_type_build_equal_lps():
    as_int = StandardFormLP.create([[1, 2], [0, 3]], [3, 6], [1, 0])
    as_frac = StandardFormLP.create(
        [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]],
        [Fraction(3), Fraction(6)], [Fraction(1), Fraction(0)])
    as_str = StandardFormLP.create([["1", "2"], ["0", "3"]], ["3", "6"], ["1", "0"])
    as_float = StandardFormLP.create([[1.0, 2.0], [0.0, 3.0]], [3.0, 6.0], [1.0, 0.0])
    assert as_int == as_frac == as_str == as_float
    halves = [
        StandardFormLP.create([[Fraction(1, 2), 2]], [Fraction(3, 4)], [Fraction(1, 2), 0]),
        StandardFormLP.create([["1/2", "2"]], ["3/4"], ["1/2", "0"]),
        StandardFormLP.create([[0.5, 2.0]], [0.75], [0.5, 0.0]),
    ]
    assert halves[0] == halves[1] == halves[2]
    assert halves[0].constraint_matrix == ((Fraction(1, 2), Fraction(2)),)
    assert halves[0].rhs == (Fraction(3, 4),)
    assert halves[0].cost == (Fraction(1, 2), Fraction(0))


def test_pivot_budget_overrun_is_solver_defect():
    # the crash basis picks x1; x2 has reduced cost -1, so one pivot is due
    lp = StandardFormLP.create([[1, 1]], [1], [1, 0])
    assert solve_lp(lp).pivots == 1
    with pytest.raises(SolverDefect):
        solve_lp(lp, max_pivots=0)


def test_preprocess_drops_dependent_row():
    lp = StandardFormLP.create([[1, 1], [2, 2]], [1, 2], [0, 0])
    pre = preprocess(lp)
    assert pre.num_rows == 1
    assert pre.constraint_matrix[0] == (Fraction(1), Fraction(1))


def test_preprocess_detects_inconsistency():
    lp = StandardFormLP.create([[1, 1], [2, 2]], [1, 3], [0, 0])
    with pytest.raises(InconsistentRow):
        preprocess(lp)


def test_preprocess_keeps_full_rank_input():
    lp = StandardFormLP.create([[1]], [1], [1])
    pre = preprocess(lp)
    assert pre == lp


def test_preprocess_idempotent():
    lp = StandardFormLP.create([[1, 2], [2, 4], [0, 1]], [1, 2, 5], [1, 1])
    pre = preprocess(lp)
    assert preprocess(pre) == pre


def test_verify_bfs_accepts_vertex():
    lp = StandardFormLP.create([[1, 1]], [1], [0, 1])
    sol = BasicFeasibleSolution((Fraction(1), Fraction(0)), (0,), Fraction(0))
    assert verify_bfs(lp, sol)


def test_verify_bfs_rejects_interior_point():
    lp = StandardFormLP.create([[1, 1]], [1], [0, 1])
    sol = BasicFeasibleSolution((Fraction(1, 2), Fraction(1, 2)), (0,), Fraction(1, 2))
    assert not verify_bfs(lp, sol)


def test_verify_bfs_rejects_infeasible_values():
    lp = StandardFormLP.create([[1, 1]], [1], [0, 1])
    sol = BasicFeasibleSolution((Fraction(2), Fraction(0)), (0,), Fraction(0))
    assert not verify_bfs(lp, sol)


def test_verify_bfs_dimension_mismatch():
    lp = StandardFormLP.create([[1, 1]], [1], [0, 1])
    sol = BasicFeasibleSolution((Fraction(1),), (0,), Fraction(0))
    with pytest.raises(DimensionMismatch):
        verify_bfs(lp, sol)


def test_solution_is_exact_not_rounded():
    # optimum sits at x = (1/3, 1/3): exact rational values expected
    lp = StandardFormLP.create([[3, 0], [0, 3]], [1, 1], [1, 1])
    out = solve_lp(lp)
    assert out.solution.values == (Fraction(1, 3), Fraction(1, 3))
    assert out.solution.objective == Fraction(2, 3)


def test_beale_degenerate_instance_terminates_under_both_rules():
    # classic cycling-prone instance; Bland must terminate, Dantzig falls
    # back to Bland past its budget, and both land on the same optimum
    C = [
        [1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    d = [0, 0, 1]
    f = [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    lp = StandardFormLP.create(C, d, f)
    out_b = solve_lp(lp, rule="bland")
    out_d = solve_lp(lp, rule="dantzig")
    assert out_b.status is LpStatus.OPTIMAL
    assert out_b.solution.objective == Fraction(-1, 20)
    assert out_d.solution.objective == out_b.solution.objective


def _random_feasible_lp(rng):
    """Random standard-form LP guaranteed feasible by construction."""
    l = rng.randint(1, 4)
    p = rng.randint(l, l + 4)
    C = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(l)]
    x0 = [rng.randint(0, 3) for _ in range(p)]
    d = [sum(C[i][j] * x0[j] for j in range(p)) for i in range(l)]
    f = [rng.randint(0, 5) for _ in range(p)]  # nonneg cost: bounded below
    return StandardFormLP.create(C, d, f)


def test_random_instances_match_scipy():
    rng = random.Random(20240817)
    for _ in range(60):
        lp = _random_feasible_lp(rng)
        out = solve_lp(lp)
        assert out.status is LpStatus.OPTIMAL
        ref = scipy.optimize.linprog(
            [float(c) for c in lp.cost],
            A_eq=[[float(v) for v in row] for row in lp.constraint_matrix],
            b_eq=[float(b) for b in lp.rhs],
            bounds=[(0, None)] * lp.num_vars,
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(out.solution.objective) - ref.fun) < 1e-7


def test_random_optima_verify_and_bound_pivots():
    rng = random.Random(7)
    for _ in range(60):
        lp = _random_feasible_lp(rng)
        out = solve_lp(lp)
        assert out.status is LpStatus.OPTIMAL
        assert verify_bfs(preprocess(lp), out.solution)
        assert out.pivots <= 60 * (lp.num_rows + lp.num_vars) + 10_000


def test_phase_one_soundness_random_sign_infeasible():
    # equality-consistent systems whose only solutions are negative
    rng = random.Random(99)
    for _ in range(30):
        p = rng.randint(1, 4)
        coeffs = [rng.randint(1, 3) for _ in range(p)]
        lp = StandardFormLP.create([coeffs], [-rng.randint(1, 5)], [0] * p)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE


def test_determinism():
    rng = random.Random(5)
    for _ in range(10):
        lp = _random_feasible_lp(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a == b


def test_float_inputs_read_as_decimals():
    lp = StandardFormLP.create([[0.1, 0]], [0.1], [1, 1])
    pre = preprocess(lp)
    assert pre.constraint_matrix[0][0] == Fraction(1, 10)
    out = solve_lp(lp)
    assert out.solution.values[0] == 1
