"""Exact-simplex unit and property tests.

Covers the documented trivial cases, preprocessing behavior, BFS
verification, and randomized cross-checks against scipy's HiGHS solver
(float oracle, loose tolerance) plus exact self-consistency invariants.
"""
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
import math
import random

import numpy as np
import pytest
import scipy.optimize

from conftest import SIXBUS_A, price_by
from gridsec import lp as lp_module
from gridsec import oracle
from gridsec.errors import DimensionMismatch, InconsistentRow, IntegralityError, SolverDefect
from gridsec.exactla import scale_row, to_fraction
from gridsec.lp import (
    RHS,
    BasicFeasibleSolution,
    LpStatus,
    StandardFormLP,
    _Tableau,
    _TernaryTableau,
    _run_dual_simplex,
    _solve_standard_ints,
    preprocess,
    solve_lp,
    verify_bfs,
)
from gridsec.tumin import TUProblem, meter_space


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
    out = _solve_standard_ints([{0: 1, 1: 1, RHS: 1}], {0: 1, 1: 2}, 1, 2)
    assert out.status is LpStatus.OPTIMAL
    assert out.solution == BasicFeasibleSolution((1, 0), (0,), 1)
    assert (out.pivots, out.tableau.basis) == (0, [0])
    assert "tableau" not in repr(out)
    with pytest.raises(FrozenInstanceError):
        out.status = LpStatus.INFEASIBLE
    # x0 = -1 has no nonnegative solution
    out = _solve_standard_ints([{0: 1, RHS: -1}], {0: 1}, 1, 1)
    assert (out.status, out.solution, out.tableau) == (LpStatus.INFEASIBLE, None, None)


def test_unpreprocessed_dependent_row_is_solver_defect():
    # phase 1 leaves an artificial basic on the copied row with no real
    # column to pivot in: only preprocess removes dependent rows
    lp = StandardFormLP.create([[1, 1], [1, 1]], [1, 1], [1, 2])
    with pytest.raises(SolverDefect, match="depends on the other rows"):
        _solve_standard_ints(lp.rows, lp.cost_row, lp.cost_den, lp.num_vars)
    out = solve_lp(lp)
    assert out.status is LpStatus.OPTIMAL
    assert out.solution == BasicFeasibleSolution((1, 0), (0,), 1)


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


def test_pivot_budget_overrun_is_solver_defect(monkeypatch):
    # the crash basis picks x1; x2 has reduced cost -1, so one pivot is due
    lp = StandardFormLP.create([[1, 1]], [1], [1, 0])
    assert solve_lp(lp).pivots == 1
    monkeypatch.setattr(lp_module, "_pivot_budget", lambda tab: 0)
    with pytest.raises(SolverDefect):
        solve_lp(lp)


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


def test_verify_bfs_rejects_dependent_basis_columns():
    # x = (1, 0, 0) satisfies both rows, but basis columns 0 and 1 are parallel
    lp = StandardFormLP.create([[1, 2, 0], [1, 2, 1]], [1, 1], [0, 0, 0])
    values = (Fraction(1), Fraction(0), Fraction(0))
    assert not verify_bfs(lp, BasicFeasibleSolution(values, (0, 1), Fraction(0)))
    assert verify_bfs(lp, BasicFeasibleSolution(values, (0, 2), Fraction(0)))


def test_verify_bfs_dimension_mismatch():
    lp = StandardFormLP.create([[1, 1]], [1], [0, 1])
    sol = BasicFeasibleSolution((Fraction(1),), (0,), Fraction(0))
    with pytest.raises(DimensionMismatch):
        verify_bfs(lp, sol)


@pytest.mark.parametrize("rows, cost", [
    ([{5: 1, RHS: 1}], {0: 1}),
    ([{2: 1, RHS: 1}], {0: 1}),
    ([{0: 1, RHS: 1}], {2: 1}),
    ([{0: 1, RHS: 1}], {RHS: 1}),
    ([{-2: 1, RHS: 1}], {0: 1}),
], ids=["row-past", "row-at-width", "cost-at-width", "cost-rhs", "row-negative"])
def test_from_int_rows_rejects_a_column_outside_the_width(rows, cost):
    with pytest.raises(DimensionMismatch, match="outside 0..1"):
        StandardFormLP.from_int_rows(rows, cost, 2)


def test_from_int_rows_takes_the_rhs_key_and_every_column_in_range():
    lp = StandardFormLP.from_int_rows([{0: 1, 1: 1, RHS: 1}], {0: 1, 1: 2}, 2)
    assert lp.constraint_matrix == ((1, 1),) and lp.rhs == (1,)
    assert solve_lp(lp).solution.values == (1, 0)


def test_solution_is_exact_not_rounded():
    # optimum sits at x = (1/3, 1/3): exact rational values expected
    lp = StandardFormLP.create([[3, 0], [0, 3]], [1, 1], [1, 1])
    out = solve_lp(lp)
    assert out.solution.values == (Fraction(1, 3), Fraction(1, 3))
    assert out.solution.objective == Fraction(2, 3)


def test_beale_degenerate_instance_terminates_under_both_rules(monkeypatch):
    # classic cycling-prone instance; the solver's Dantzig pricing falls back
    # to Bland past its allowance, pure Bland (allowance 0) must terminate,
    # and both land on the same optimum
    C = [
        [1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    d = [0, 0, 1]
    f = [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    lp = StandardFormLP.create(C, d, f)
    out_d = solve_lp(lp)
    price_by(monkeypatch, "bland")
    out_b = solve_lp(lp)
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


# --- warm starts: an appended row re-optimized by the dual simplex --------


def _optimal_tableau(lp):
    out = _solve_standard_ints(lp.rows, lp.cost_row, lp.cost_den, lp.num_vars)
    assert out.status is LpStatus.OPTIMAL
    return out.tableau


def _extended(lp, row):
    """lp plus the row . x + s = rhs over a fresh last column s."""
    C = [list(r) + [0] for r in lp.constraint_matrix]
    C.append([row.get(j, 0) for j in range(lp.num_vars)] + [1])
    return StandardFormLP.create(C, list(lp.rhs) + [row.get(RHS, 0)],
                                 list(lp.cost) + [0])


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_dual_simplex_matches_a_cold_solve_of_the_extended_lp(rule, monkeypatch):
    price_by(monkeypatch, rule)
    rng = random.Random(314)
    outcomes = set()
    pivots = [0]
    for seed in range(200):
        lp = preprocess(_random_feasible_lp(random.Random(seed)))
        tab = _optimal_tableau(lp)
        x, den = tab.values()
        row = {j: rng.randint(-3, 3) for j in range(lp.num_vars)}
        # cut the current optimum off (or just touch it) most of the time
        row[RHS] = sum(a * x.get(j, 0) for j, a in row.items()) // den - rng.randint(-1, 3)
        ext = _extended(lp, row)
        tab.add_row(row)
        status = _run_dual_simplex(tab, pivots)
        cold = solve_lp(ext)
        outcomes.add(status)
        if status is LpStatus.INFEASIBLE:
            assert cold.status is LpStatus.INFEASIBLE
            continue
        assert status is LpStatus.OPTIMAL
        tab.check_optimal()
        assert cold.status is LpStatus.OPTIMAL
        assert tab.objective() == cold.solution.objective
        values = [Fraction(0)] * ext.num_vars
        x, den = tab.values()
        for j, v in x.items():
            values[j] = Fraction(v, den)
        assert verify_bfs(ext, BasicFeasibleSolution(
            tuple(values), tuple(sorted(tab.basis)), tab.objective()))
    assert outcomes == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
    assert pivots[0] > 60


# --- upper bounds: the bounded tableau against bounds written as rows -----


def _random_bounded_lp(rng):
    """min cost . x  s.t.  C x + s = b,  x, s >= 0,  x_j <= upper[j] on the
    bounded columns, with b >= 0, so that the slacks s are a feasible
    basis: (rows with their slack columns, that basis, the column count,
    the cost and the bounds).  Columns without a bound may leave it
    unbounded; a bound of 0 fixes its column."""
    l, p = rng.randint(1, 4), rng.randint(1, 5)
    rows = []
    for i in range(l):
        row = {j: rng.randint(-3, 3) for j in range(p)}
        row[p + i] = 1
        row[RHS] = rng.randint(0, 6)
        rows.append({j: v for j, v in row.items() if v})
    cost = {j: rng.randint(-4, 3) for j in range(p)}
    upper = {j: rng.randint(0, 4) for j in range(p) if rng.random() < 0.8}
    return rows, list(range(p, p + l)), p + l, cost, upper


def _bounds_as_rows(rows, ncols, cost, upper):
    """The same LP for solve_lp: each bound x_j <= u written as the row
    x_j + w = u over a fresh slack column w."""
    width = ncols + len(upper)
    C = [[row.get(j, 0) for j in range(width)] for row in rows]
    d = [row.get(RHS, 0) for row in rows]
    for w, (j, u) in enumerate(upper.items(), start=ncols):
        C.append([int(c in (j, w)) for c in range(width)])
        d.append(u)
    return StandardFormLP.create(C, d, [cost.get(j, 0) for j in range(width)])


def _agrees(tab, status, rows, cost, upper):
    """tab's outcome against solve_lp on the bounds written as rows: the
    same status, the same optimum, and a vertex within every bound that
    meets every row."""
    cold = solve_lp(_bounds_as_rows(rows, tab.ncols, cost, upper))
    assert status is cold.status
    if status is not LpStatus.OPTIMAL:
        return
    tab.check_optimal()
    assert tab.objective() == cold.solution.objective
    x, den = tab.values()
    assert all(0 <= x.get(j, 0) <= u * den for j, u in upper.items())
    for row in rows:
        assert sum(a * x.get(j, 0) for j, a in row.items() if j != RHS) == row.get(RHS, 0) * den
    assert sum(v * x.get(j, 0) for j, v in cost.items()) == tab.objective() * den


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_bounded_tableau_matches_bounds_written_as_rows(rule, monkeypatch):
    # the primal loop from the slack basis, then the dual loop after a
    # fixed column and an appended row, against the two-phase solve of
    # the same LPs with each bound an explicit row and slack
    price_by(monkeypatch, rule)
    rng = random.Random(271)
    outcomes, flipped = set(), 0
    for _ in range(300):
        rows, basis, ncols, cost, upper = _random_bounded_lp(rng)
        tab = _Tableau([dict(row) for row in rows], basis, ncols, dict(upper))
        tab.add_cost(cost)
        status = lp_module._run_simplex(tab, [0])
        _agrees(tab, status, rows, cost, upper)
        outcomes.add(status)
        if status is not LpStatus.OPTIMAL:
            continue
        flipped += bool(tab.flipped)
        if rng.random() < 0.5:
            j = rng.randrange(len(cost))
            upper[j] = 0
            tab.fix(j)
        x, den = tab.values()
        row = {j: rng.randint(-3, 3) for j in range(ncols)}
        # cut the current optimum off (or just touch it) most of the time
        row[RHS] = sum(a * x.get(j, 0) for j, a in row.items()) // den - rng.randint(-1, 3)
        tab.add_row(row)
        row[ncols] = 1
        status = _run_dual_simplex(tab, [0])
        _agrees(tab, status, rows + [row], cost, upper)
        outcomes.add(status)
    assert outcomes == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE, LpStatus.UNBOUNDED}
    assert flipped > 30


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_a_cost_added_at_a_bounded_optimum_matches_bounds_written_as_rows(rule, monkeypatch):
    # add_cost at an optimum that complemented some columns reads each
    # complemented column's cost through x_j = upper[j] - x'_j; the primal
    # loop then continues to the optimum of the summed cost
    price_by(monkeypatch, rule)
    rng = random.Random(272)
    outcomes, complemented = set(), 0
    for _ in range(300):
        rows, basis, ncols, cost, upper = _random_bounded_lp(rng)
        tab = _Tableau([dict(row) for row in rows], basis, ncols, dict(upper))
        tab.add_cost(cost)
        if lp_module._run_simplex(tab, [0]) is not LpStatus.OPTIMAL or not tab.flipped:
            continue
        extra = {j: rng.randint(-3, 3) for j in cost}
        complemented += any(extra[j] for j in tab.flipped)
        tab.add_cost(extra)
        status = lp_module._run_simplex(tab, [0])
        _agrees(tab, status, rows, {j: cost[j] + extra[j] for j in cost}, upper)
        outcomes.add(status)
    assert outcomes == {LpStatus.OPTIMAL, LpStatus.UNBOUNDED}
    assert complemented > 30


def test_an_empty_bound_map_is_the_plain_tableau():
    # the solve_lp tableau carries no bounds, and a copy keeps them apart
    tab = _optimal_tableau(preprocess(_random_feasible_lp(random.Random(3))))
    assert (tab.upper, tab.flipped) == ({}, set())
    bounded = _Tableau([{0: 1, 1: 1, RHS: 3}], [0], 2, {0: 2})
    bounded.zrow = {1: 1}
    copy = bounded.copy()
    copy.fix(1)
    assert (bounded.upper, copy.upper) == ({0: 2}, {0: 2, 1: 0})


def _fields(tab):
    return (tab.rows, tab.basis, tab.zrow, tab.zden, tab.ncols)


def test_values_are_the_rows_over_their_basic_entries():
    # (nums, den): each nonzero basic value over the lcm of the basic
    # entries, and every basic entry positive
    dens = set()
    for seed in range(40):
        tab = _optimal_tableau(preprocess(_random_feasible_lp(random.Random(seed))))
        assert all(row[c] > 0 for row, c in zip(tab.rows, tab.basis))
        nums, den = tab.values()
        want = {c: Fraction(row[RHS], row[c]) for row, c in zip(tab.rows, tab.basis) if RHS in row}
        assert {c: Fraction(v, den) for c, v in nums.items()} == want
        assert den == math.lcm(*(row[c] for row, c in zip(tab.rows, tab.basis) if RHS in row))
        dens.add(den)
    assert max(dens) > 1


def test_tableau_copy():
    for seed in range(40):
        tab = _optimal_tableau(preprocess(_random_feasible_lp(random.Random(seed))))
        assert _fields(tab.copy()) == _fields(tab)
    # entries past 64 bits are kept exactly, and a pivot on the copy leaves
    # the original as it was
    big = _Tableau([{0: 7, 1: -(2 ** 70), RHS: 2 ** 40}, {1: 2 ** 65, 2: 300, RHS: 5}],
                   [0, 1], 400)
    big.zrow, big.zden = {2: 2 ** 20, RHS: -1}, 3
    before = _fields(big)
    copy = big.copy()
    assert _fields(copy) == before
    copy.pivot(1, 2)
    assert _fields(big) == before


@pytest.mark.parametrize("pos1, neg1", [(0b01110, 0), (0b00010, 0b01100)],
                         ids=["row holds +1", "row holds -1"])
def test_a_ternary_pivot_that_reaches_two_is_an_integrality_error(pos1, neg1):
    # row 0 pivoted on column 2 reads -x0 + x2 - x3 = 1; row 1 minus it
    # holds 1 - (-1) = 2 in column 3, or row 1 plus it -1 + (-1) = -2
    tern = _TernaryTableau([0b01001, pos1], [0b00100, neg1], [-1, 0], [0, 1], [0, 0, 1, 0])
    with pytest.raises(IntegralityError, match=r"left \{-1, 0, 1\}"):
        tern.pivot(0, 2)


def test_dual_pivot_selection_rules():
    # x0 = -1 and x1 = -3 over columns 2, 3 with reduced costs 2 and 1
    def tableau(den1):
        tab = _Tableau([{0: 1, 2: -1, RHS: -1}, {1: den1, 2: -2, 3: -1, RHS: -3}],
                       [0, 1], 4)
        tab.zrow = {2: 2, 3: 1}
        return tab

    # steepest edge compares value² over the row's sum of squares
    tab = tableau(1)
    assert tab.dual_leaving(steepest=True) == 1     # 9/6 against 1/2
    assert tab.dual_leaving(steepest=False) == 0    # Bland: smallest basic index
    assert tableau(3).dual_leaving(steepest=True) == 1  # 9/14 against 1/2
    assert tab.dual_entering(1) == 2                # ratios 2/2 and 1/1 tie
    tab.zrow[2] = 4
    assert tab.dual_entering(1) == 3                # ratios 4/2 and 1/1
    tab.rows[1] = {1: 1, RHS: -3}
    assert tab.dual_entering(1) is None


def test_steepest_edge_is_not_dantzig():
    # x0 = -1 on a row of squared norm 2 against x1 = -2 on one of
    # 1 + 9 + 9: Dantzig would take x1, farthest out; 1/2 > 4/19 takes x0
    tab = _Tableau([{0: 1, 2: -1, RHS: -1}, {1: 1, 2: -3, 3: -3, RHS: -2}], [0, 1], 4)
    assert tab.dual_leaving(steepest=True) == 0
    # the basic entry is part of the norm: 3 x1 - x2 = -2 scores 4/10 < 1/2
    # (4/1 without it)
    tab.rows[1] = {1: 3, 2: -1, RHS: -2}
    assert tab.dual_leaving(steepest=True) == 0
    # x1 = 5 above its bound 2 is 3 out on a row of squared norm 3: it
    # leaves (9/3 > 1/2), complemented to read its distance to the bound
    tab = _Tableau([{0: 1, 2: -1, RHS: -1}, {1: 1, 2: 1, 3: 1, RHS: 5}], [0, 1], 4, {1: 2})
    assert tab.dual_leaving(steepest=True) == 1
    assert tab.rows[1] == {1: 1, 2: -1, 3: -1, RHS: -3} and tab.flipped == {1}


def _ternary_pair(v0, n0, v1, n1, basis=(0, 1)):
    """Two ternary rows at values v0 and v1, basic in the columns basis,
    with n0 and n1 nonzeros: +1 in the basic column, -1 in columns 2 on."""
    neg = [((1 << n - 1) - 1) << 2 for n in (n0, n1)]
    return _TernaryTableau([1 << b for b in basis], neg, [v0, v1], list(basis), [0] * 10)


@pytest.mark.parametrize("v0, n0, v1, n1, basis, want", [
    (-1, 5, -1, 2, (0, 1), 1),      # 1/5 against 1/2: the sparser row
    (-2, 9, -1, 2, (0, 1), 1),      # 4/9 against 1/2: not the value farthest out
    (-2, 5, -1, 2, (0, 1), 0),      # 4/5 against 1/2: the values squared
    (-2, 8, -1, 2, (1, 0), 1),      # 4/8 against 1/2: a tie, to basic column 0
    (-1, 2, 0, 5, (0, 1), 0),       # one row out: no norm compared
    (0, 2, 1, 5, (0, 1), None),     # none out: optimal
], ids=["sparser row", "farther value, denser row", "values squared", "tie to basic index",
        "one row", "none"])
def test_ternary_dual_leaving_is_steepest_edge(v0, n0, v1, n1, basis, want):
    assert _ternary_pair(v0, n0, v1, n1, basis).dual_leaving(steepest=True) == want


def test_ternary_bland_dual_leaving_ignores_the_norms():
    assert _ternary_pair(-1, 5, -1, 2).dual_leaving(steepest=False) == 0
    assert _ternary_pair(-1, 5, -1, 2, (1, 0)).dual_leaving(steepest=False) == 1


def test_dual_simplex_detects_an_infeasible_row():
    # min x0  s.t.  x0 + x1 = 1: the optimum has x1 = 1 basic
    lp = StandardFormLP.create([[1, 1]], [1], [1, 0])
    # x0 + x1 <= 0 reduces to s = -1 with no negative entry
    tab = _optimal_tableau(lp)
    tab.add_row({0: 1, 1: 1})
    assert _run_dual_simplex(tab, [0]) is LpStatus.INFEASIBLE
    # x1 <= -1 needs one pivot (x0 enters) before x1's row shows it
    tab = _optimal_tableau(lp)
    tab.add_row({1: 1, RHS: -1})
    pivots = [0]
    assert _run_dual_simplex(tab, pivots) is LpStatus.INFEASIBLE
    assert pivots == [1]


def test_dual_simplex_pivot_budget_is_solver_defect(monkeypatch):
    lp = StandardFormLP.create([[1, 1]], [1], [1, 0])
    tab = _optimal_tableau(lp)
    tab.add_row({1: 1, RHS: -1})
    monkeypatch.setattr(lp_module, "_pivot_budget", lambda tab: 0)
    with pytest.raises(SolverDefect, match="pivot budget"):
        _run_dual_simplex(tab, [0])


SIXBUS_MILP = TUProblem(SIXBUS_A, 6)


def _sixbus_space(I=SIXBUS_MILP.I):
    """SIXBUS_MILP's meter space under protection I."""
    return meter_space(SIXBUS_MILP.rows, 5, I)


def _sixbus_layout():
    """(ycol, r) of SIXBUS_MILP's root, read from its meter space: the
    column of t'+_j by free row j, and the offset of t'-_j from it."""
    space = _sixbus_space()
    return space.ycol, len(space.free)


@pytest.mark.parametrize("forge", ["reduced cost", "basic value"])
def test_forged_root_tableau_is_solver_defect(monkeypatch, forge):
    # the root's primal simplex, its first run, hands back a forged tableau
    real = lp_module._run_simplex
    calls = [0]

    def forged(tab, *args):
        status = real(tab, *args)
        calls[0] += 1
        if calls[0] == 1:
            if forge == "reduced cost":
                c = next(j for j in range(tab.ncols) if j not in tab.basis)
                tab.zrow[c] = -1
            else:
                tab.rows[0][RHS] = -1
        return status

    assert oracle.solve_milp_instance(SIXBUS_MILP)[0] == 3
    monkeypatch.setattr(lp_module, "_run_simplex", forged)
    with pytest.raises(SolverDefect, match=forge):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_a_dual_simplex_that_skips_its_work_is_caught(monkeypatch):
    # every zero branch then keeps the negative slack value of its new row
    monkeypatch.setattr(lp_module, "_run_dual_simplex", lambda *args: LpStatus.OPTIMAL)
    with pytest.raises(SolverDefect, match="basic value"):
        oracle.solve_milp_instance(SIXBUS_MILP)



def test_an_incumbent_off_its_zero_fixing_is_caught(monkeypatch):
    # the target's slack is honestly fixed at 0, the zero branches' bounds
    # are dropped; a search that misses the lie ends at the cap, quickly
    real = lp_module._Tableau.fix
    calls = [0]

    def dropping(tab, j):
        calls[0] += 1
        if calls[0] == 1:
            real(tab, j)

    monkeypatch.setattr(lp_module._Tableau, "fix", dropping)
    with pytest.raises(SolverDefect, match="fixed to zero"):
        oracle.solve_milp_instance(SIXBUS_MILP, cap=1000)


def test_an_incumbent_off_the_target_row_is_caught(monkeypatch):
    # the dual simplex drops every value out of its bounds instead of
    # pivoting: the target's node then reads optimal with its slack at 0
    # and t'+_k - t'-_k at 0, so its vertex misses A(k,:) d = 1
    def lying(tab, *args):
        for row, b in zip(tab.rows, tab.basis):
            v = row.get(RHS, 0)
            if v < 0 or v > tab.upper.get(b, v) * row[b]:
                del row[RHS]
        return LpStatus.OPTIMAL

    monkeypatch.setattr(lp_module, "_run_dual_simplex", lying)
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_a_forged_node_vertex_is_caught(monkeypatch):
    # values() swaps t'+_j and t'-_j on every free row: each bound and the
    # objective still hold, but the d read from the state rows flips sign
    # and misses A(k,:) d = 1
    real = lp_module._Tableau.values
    ycol, r = _sixbus_layout()

    def swapped(tab):
        x, den = real(tab)
        for c in ycol.values():
            x[c], x[c + r] = x.get(c + r, 0), x.get(c, 0)
        return {c: v for c, v in x.items() if v}, den

    monkeypatch.setattr(lp_module._Tableau, "values", swapped)
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_a_vertex_off_a_cycle_row_is_caught(monkeypatch):
    # rows 1-5 of the six-bus system are a spanning tree and rows 6 and 7
    # close its cycles: the elimination leaves only the cycle rows over t',
    # so d, read from the tree rows' t', never sees theirs.  values() swaps
    # t'+_j and t'-_j on both cycle rows, which keeps every bound, the
    # objective and d, and only the link rows Md A(j,:) d = t'+_j - t'-_j
    # fail: every vertex moves the target's row 6
    space = _sixbus_space()
    # a cycle row's own t'+_j is held by its row over t' alone, never by a
    # state row
    cycle = [j for j in space.free if space.ycol[j] not in space.state]
    assert cycle == [6, 7] and len(space.yrows) == 2
    real = lp_module._Tableau.values
    ycol, r = space.ycol, len(space.free)

    def swapped(tab):
        x, den = real(tab)
        for t in map(ycol.get, cycle):
            x[t], x[t + r] = x.get(t + r, 0), x.get(t, 0)
        return {c: v for c, v in x.items() if v}, den

    monkeypatch.setattr(lp_module._Tableau, "values", swapped)
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_an_incumbent_off_the_root_rows_is_caught(monkeypatch):
    # a re-optimization, by either loop, that halves one positive basic
    # value keeps the certificate (values within their bounds, reduced
    # costs nonnegative) but breaks a row
    def halving(real):
        def run(tab, *args):
            status = real(tab, *args)
            for row, b in zip(tab.rows, tab.basis):
                if row.get(RHS, 0) > 0:
                    row[b] *= 2
                    break
            return status
        return run

    for name in ("_run_simplex", "_run_dual_simplex"):
        monkeypatch.setattr(lp_module, name, halving(getattr(lp_module, name)))
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def _root_point(root, d):
    """The point of root's layout at the state move d, as (t' values by
    column, their denominator, the image of d's numerators, d's
    denominator): each free row's t'+_j - t'-_j = Md A(j,:) d, big_m =
    Mn / Md."""
    x, space = {}, root.space
    for j, t in space.ycol.items():
        a = sum(v * d[c] for c, v in space.rows[j - 1]) * root.big_m.denominator
        x[t if a > 0 else t + len(space.free)] = abs(a)
    nums, den = scale_row([*x.values(), *d])
    return {c: v for c, v in zip(x, nums) if v}, den, space.image(nums[len(x):]), den


def test_an_incumbent_off_a_protected_row_is_caught():
    # the optimal d of meter 6 moves meter 6 and two other rows: a point
    # of the unprotected root, but not of a root that protects either
    _, d, support, _ = oracle.solve_milp_instance(SIXBUS_MILP)
    assert len(support) == 3 and 6 in support
    root = oracle._milp_root(_sixbus_space(frozenset()), Fraction(2))
    oracle._check_incumbent(root, 6, *_root_point(root, d))
    for j in support - {6}:
        root = oracle._milp_root(_sixbus_space(frozenset({j})), Fraction(2))
        with pytest.raises(SolverDefect, match="root row"):
            oracle._check_incumbent(root, 6, *_root_point(root, d))


def test_an_incumbent_past_its_bounds_is_caught():
    # d moves its 3 rows by 1 each: within a big-M of 1 (t' = Mn = 1),
    # past one of 2/3 (t' = 3 against Mn = 2), links and target intact
    _, d, _, _ = oracle.solve_milp_instance(SIXBUS_MILP)
    assert {abs(v) for v in SIXBUS_A @ np.array(d, dtype=object)} == {0, 1}
    root = oracle._milp_root(_sixbus_space(), Fraction(1))
    oracle._check_incumbent(root, 6, *_root_point(root, d))
    root = oracle._milp_root(_sixbus_space(), Fraction(2, 3))
    with pytest.raises(SolverDefect, match="root row"):
        oracle._check_incumbent(root, 6, *_root_point(root, d))


def test_an_incumbent_off_a_link_row_is_caught_where_either_side_moves():
    # the check reads the rows in d's image and the rows with a t' in X: a
    # t' on a row that d leaves at 0, or a moved row with both t' dropped,
    # breaks that row's link
    _, d, support, _ = oracle.solve_milp_instance(SIXBUS_MILP)
    root = oracle._milp_root(_sixbus_space(), Fraction(2))
    X, den, image, dden = _root_point(root, d)
    oracle._check_incumbent(root, 6, X, den, image, dden)
    ycol = root.space.ycol
    still = next(j for j in ycol if not any(d[c] for c, _ in root.space.rows[j - 1]))
    with pytest.raises(SolverDefect, match="root row"):
        oracle._check_incumbent(root, 6, {**X, ycol[still]: den}, den, image, dden)
    t = ycol[min(support - {6})]
    dropped = {c: v for c, v in X.items() if c not in (t, t + len(ycol))}
    with pytest.raises(SolverDefect, match="root row"):
        oracle._check_incumbent(root, 6, dropped, den, image, dden)


def test_a_miscounted_incumbent_is_caught_by_its_support(monkeypatch):
    # with the incumbent check off, a vertex whose t columns hide one moved
    # row counts one row fewer than its d moves
    real = lp_module._Tableau.values
    ycol, r = _sixbus_layout()

    def hiding(tab):
        x, den = real(tab)
        for j, c in ycol.items():
            if j != SIXBUS_MILP.k and x.get(c, 0) != x.get(c + r, 0):
                x.pop(c, None)
                x.pop(c + r, None)
                break
        return x, den

    monkeypatch.setattr(oracle, "_check_incumbent", lambda *args: None)
    monkeypatch.setattr(lp_module._Tableau, "values", hiding)
    with pytest.raises(SolverDefect, match="support disagrees"):
        oracle.solve_milp_instance(SIXBUS_MILP)
