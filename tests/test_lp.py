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

from conftest import SIXBUS_A, price_by
from gridsec import lp as lp_module
from gridsec import oracle
from gridsec.errors import DimensionMismatch, InconsistentRow, IntegralityError, SolverDefect
from gridsec.exactla import to_fraction
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
from gridsec.tumin import TUProblem


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
        x = tab.values()
        row = {j: rng.randint(-3, 3) for j in range(lp.num_vars)}
        # cut the current optimum off (or just touch it) most of the time
        row[RHS] = sum(a * x.get(j, 0) for j, a in row.items()).__floor__() - rng.randint(-1, 3)
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
        for j, v in tab.values().items():
            values[j] = v
        assert verify_bfs(ext, BasicFeasibleSolution(
            tuple(values), tuple(sorted(tab.basis)), tab.objective()))
    assert outcomes == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
    assert pivots[0] > 60


def _fields(tab):
    return (tab.rows, tab.dens, tab.basis, tab.zrow, tab.zden, tab.ncols)


def test_tableau_copy():
    for seed in range(40):
        tab = _optimal_tableau(preprocess(_random_feasible_lp(random.Random(seed))))
        assert _fields(tab.copy()) == _fields(tab)
    # entries past 64 bits are kept exactly, and a pivot on the copy leaves
    # the original as it was
    big = _Tableau([{0: 3, 1: -(2 ** 70), RHS: 2 ** 40}, {1: 1, 2: 300, RHS: 5}],
                   [7, 2 ** 65], [0, 1], 400)
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
                       [1, den1], [0, 1], 4)
        tab.zrow = {2: 2, 3: 1}
        return tab

    tab = tableau(1)
    assert tab.dual_leaving(dantzig=True) == 1      # the most negative value
    assert tab.dual_leaving(dantzig=False) == 0     # Bland: smallest basic index
    assert tableau(3).dual_leaving(dantzig=True) == 0   # -1 against -1: basic index
    assert tab.dual_entering(1) == 2                # ratios 2/2 and 1/1 tie
    tab.zrow[2] = 4
    assert tab.dual_entering(1) == 3                # ratios 4/2 and 1/1
    tab.rows[1] = {1: 1, RHS: -3}
    assert tab.dual_entering(1) is None


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


@pytest.mark.parametrize("forge", ["reduced cost", "basic value"])
def test_forged_node_tableau_is_solver_defect(monkeypatch, forge):
    real = lp_module._solve_standard_ints

    def forged(*args, **kwargs):
        res = real(*args, **kwargs)
        tab = res.tableau
        if forge == "reduced cost":
            c = next(j for j in range(tab.ncols) if j not in tab.basis)
            tab.zrow[c] = -1
        else:
            tab.rows[0][RHS] = -1
        return res

    assert oracle.solve_milp_instance(SIXBUS_MILP)[0] == 3
    monkeypatch.setattr(lp_module, "_solve_standard_ints", forged)
    with pytest.raises(SolverDefect, match=forge):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_a_dual_simplex_that_skips_its_work_is_caught(monkeypatch):
    # every zero branch then keeps the negative slack value of its new row
    monkeypatch.setattr(lp_module, "_run_dual_simplex", lambda *args: LpStatus.OPTIMAL)
    with pytest.raises(SolverDefect, match="basic value"):
        oracle.solve_milp_instance(SIXBUS_MILP)



def test_an_incumbent_off_its_zero_fixing_is_caught(monkeypatch):
    # the dual simplex drops the new rows' negative values instead of
    # pivoting: every tableau still reads optimal, the fixings fail
    def lying(tab, *args):
        for row in tab.rows:
            if row.get(RHS, 0) < 0:
                del row[RHS]
        return LpStatus.OPTIMAL

    monkeypatch.setattr(lp_module, "_run_dual_simplex", lying)
    with pytest.raises(SolverDefect, match="fixed to zero"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_a_forged_node_vertex_is_caught(monkeypatch):
    # values() swaps t+_j and t-_j on every free row: each box row and the
    # objective still hold, but the link rows A(j,:) d = t+_j - t-_j do not
    real = lp_module._Tableau.values
    tcol = oracle._t_columns(SIXBUS_MILP)

    def swapped(tab):
        x = real(tab)
        for c in tcol.values():
            x[c], x[c + 1] = x.get(c + 1, 0), x.get(c, 0)
        return {c: v for c, v in x.items() if v}

    monkeypatch.setattr(lp_module._Tableau, "values", swapped)
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)


def test_an_incumbent_off_the_root_rows_is_caught(monkeypatch):
    # a re-optimization that doubles one positive basic value keeps the
    # certificate (values and reduced costs nonnegative) but breaks a row
    real = lp_module._run_simplex

    def doubling(tab, *args):
        status = real(tab, *args)
        row = next(row for row in tab.rows if row.get(RHS, 0) > 0)
        row[RHS] *= 2
        return status

    monkeypatch.setattr(lp_module, "_run_simplex", doubling)
    with pytest.raises(SolverDefect, match="root row"):
        oracle.solve_milp_instance(SIXBUS_MILP)
