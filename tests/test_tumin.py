"""Minimum-support solver against frozen values and the enumeration oracle."""
import ast
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    IEEE14_CASE,
    PAPER_L,
    SIXBUS_A,
    SIXBUS_A_FULL,
    SIXBUS_OPTIMA,
    mesh_grid,
    price_by,
    random_tu_problem,
)
from oracle_helpers import feasibility_by_rank, solution_from_x
from gridsec import (
    TUProblem,
    build_l1_lp,
    exhaustive_min_support,
    gen_consecutive_ones,
    min_critical_tuple,
    preprocess,
    solve_min_support,
    validate_integrality,
    verify_tu,
)
from gridsec import lp, tumin
from gridsec.errors import IntegralityError, SizeLimitExceeded, SolverDefect
from gridsec.exactla import int_rank
from gridsec.grid import metering, parse_case
from gridsec.lp import LpStatus, StandardFormLP, solve_lp
from gridsec.oracle import exhaustive_min_tuple, nullspace_reformulate, solve_milp_instance
from gridsec.security import reduce_to_tu
from gridsec.tumin import (TUSolution, _image, _meter_space, solve_l1_base, solve_warm,
                           sparse_rows)


def signed_image(A, x):
    return tuple(int(sum(int(a) * v for a, v in zip(row, x))) for row in A)


# every entry point of an index problem over (A, k, I), and whether it
# takes a protected set
INDEX_PROBLEMS = {
    "TUProblem": (TUProblem, True),
    "solve_milp_instance": (lambda *args: solve_milp_instance(TUProblem(*args)), True),
    "exhaustive_min_support": (exhaustive_min_support, True),
    "exhaustive_min_tuple": (exhaustive_min_tuple, False),
    "nullspace_reformulate": (nullspace_reformulate, True),
    "solve_warm": (lambda A, k, I=(): solve_warm(solve_l1_base(sparse_rows(A), A.shape[1], I), k),
                   True),
}
# (k, I, message) against a 2-row matrix
BAD_ROWS = {
    "target-out-of-range": (3, (), "target row 3 outside 1..2"),
    "protected-out-of-range": (1, (frozenset({5}),), "protected row outside 1..m"),
    "protected-row-zero": (1, (frozenset({0}),), "protected row outside 1..m"),
    "protected-row-negative": (1, (frozenset({-1}),), "protected row outside 1..m"),
    "protected-target": (1, (frozenset({1}),), "target row cannot be protected"),
}


class TestProblemValidation:
    @pytest.mark.parametrize("entry, case", [
        (entry, case) for entry, (_, takes_protected) in INDEX_PROBLEMS.items()
        for case, (_, I, _) in BAD_ROWS.items() if takes_protected or not I])
    def test_rows_are_checked_alike(self, entry, case):
        solve = INDEX_PROBLEMS[entry][0]
        k, I, message = BAD_ROWS[case]
        with pytest.raises(ValueError, match=message):
            solve(np.eye(2, dtype=int), k, *I)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            TUProblem(np.zeros((0, 3), dtype=int), 1)


    @pytest.mark.parametrize("build", [
        lambda A: TUProblem(A, 1),
        lambda A: solve_milp_instance(TUProblem(A, 1)),
        lambda A: exhaustive_min_support(A, 1),
        lambda A: min_critical_tuple(A, 1),
        lambda A: verify_tu(A, 1),
    ], ids=["TUProblem", "solve_milp_instance", "exhaustive_min_support", "min_critical_tuple",
            "verify_tu"])
    @pytest.mark.parametrize("first", [1.5, 10**20], ids=["fraction", "overflow"])
    def test_non_integer_entries_are_rejected_not_truncated(self, build, first):
        with pytest.raises(ValueError, match="integer entries"):
            build([[first, 0], [0, 1], [1, -1]])

    def test_problems_compare_and_hash_by_value(self):
        A = np.array([[1, 0], [1, 1], [0, 1]])
        prob = TUProblem(A, 1, {3})
        same = TUProblem(A.tolist(), 1, [3])
        assert prob == same and hash(prob) == hash(same) and len({prob, same}) == 1
        assert TUProblem(A, 1, {3}, sparse_rows(A)) == prob
        entry = A.copy()
        entry[1, 0] = -1
        for other in (TUProblem(A, 2, {3}), TUProblem(A, 1), TUProblem(entry, 1, {3}),
                      TUProblem(np.hstack([A, np.zeros((3, 1), dtype=int)]), 1, {3})):
            assert prob != other and not prob == other
        assert prob != A and prob != (A, 1, {3})


def lp_blocks(relax):
    """The y+ and y- blocks of each row of a meter-space l1 LP, dense."""
    r = relax.num_vars // 2
    dense = [[int(v) for v in row] for row in relax.constraint_matrix]
    return [row[:r] for row in dense], [row[r:] for row in dense]


class TestRelaxationShape:
    """build_l1_lp is over y = (y+, y-), one pair per unprotected row: the
    target-free rows left once the state is eliminated, then the target."""

    @pytest.mark.parametrize("A", [SIXBUS_A_FULL, SIXBUS_A], ids=["full", "truncated"])
    def test_six_bus_rows_span_the_left_nullspace(self, A):
        relax = build_l1_lp(TUProblem(A, 6))
        assert relax.num_vars == 2 * 7
        assert relax.num_rows == 2 + 1      # a cycle basis, then the target
        assert relax.rhs == (0, 0, 1)
        plus, minus = lp_blocks(relax)
        assert minus == [[-v for v in row] for row in plus]
        assert plus[-1] == [0, 0, 0, 0, 0, 1, 0]
        cycles = plus[:-1]
        assert int_rank(cycles) == int_rank(cycles + [list(r) for r in PAPER_L]) == 2

    def test_unit_matrix_dimensions_and_value(self):
        prob = TUProblem(np.array([[1]]), 1)
        relax = build_l1_lp(prob)
        # the only row is eliminated with the state: the target row is left
        assert relax.num_vars == 2
        assert relax.num_rows == 1
        sol = solve_min_support(prob)
        assert sol.cardinality == 1
        assert sol.support == frozenset({1})

    def test_cost_covers_every_column(self):
        relax = build_l1_lp(TUProblem(SIXBUS_A, 3, frozenset({1, 7})))
        assert relax.cost == tuple([1] * (2 * 5))

    def test_dependent_protected_rows_collapse(self):
        # protecting the same physical constraint twice gives the LP of
        # protecting it once: the dependent pin reduces to nothing and is
        # dropped, not left for lp.preprocess
        A = np.array([[1, 0], [1, 0], [0, 1]])
        relax = build_l1_lp(TUProblem(A, 3, frozenset({1, 2})))
        assert relax == build_l1_lp(TUProblem(A[[0, 2]], 2, frozenset({1})))
        assert relax.num_rows == 1 and preprocess(relax) == relax


class TestOnePieceLp:
    """No solve path calls build_l1_lp: solve_l1_base and solve_warm build
    the same LP in two steps.  Solved cold, it must agree with them."""

    @staticmethod
    def agree(prob) -> bool:
        """Assert that the one-piece LP, solved cold, agrees with
        solve_min_support on prob; return whether prob is feasible."""
        out, sol = solve_lp(build_l1_lp(prob)), solve_min_support(prob)
        if sol is None:
            assert out.status is LpStatus.INFEASIBLE
            return False
        assert out.status is LpStatus.OPTIMAL
        assert out.solution.objective == sol.cardinality
        return True

    def test_ieee14_sweep(self):
        net, meas = parse_case(IEEE14_CASE)
        assert all(self.agree(reduce_to_tu(net, meas, k)) for k in range(1, 21))

    def test_random_tu_problems(self):
        rng = random.Random(1616)
        feasible = [self.agree(random_tu_problem(rng)) for _ in range(120)]
        assert 0 < feasible.count(False) < feasible.count(True)


def min_support_images(A, k):
    """Every signed image A x with (A x)_k = 1 and the least support, over
    x in {-1,0,1}^n; the index is that support by total unimodularity."""
    images = {signed_image(A, x) for x in product((-1, 0, 1), repeat=A.shape[1])}
    images = [im for im in images if im[k - 1] == 1]
    least = min(sum(v != 0 for v in im) for im in images)
    return {im for im in images if sum(v != 0 for v in im) == least}


class TestFrozenInstances:
    def test_six_bus_counterexample(self):
        optima = min_support_images(SIXBUS_A_FULL, 6)
        assert set(SIXBUS_OPTIMA) <= optima
        sol = solve_min_support(TUProblem(SIXBUS_A_FULL, 6))
        assert sol.cardinality == 3
        assert signed_image(SIXBUS_A_FULL, sol.x) in optima

    def test_six_bus_truncated_same_value(self):
        sol = solve_min_support(TUProblem(SIXBUS_A, 6))
        assert sol.cardinality == 3

    def test_six_bus_all_meters(self):
        values = {k: solve_min_support(TUProblem(SIXBUS_A, k)).cardinality
                  for k in range(1, 8)}
        assert values == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2}

    def test_six_bus_protected_pairs(self):
        for I in (frozenset({1, 4}), frozenset({1, 2})):
            sol = solve_min_support(TUProblem(SIXBUS_A, 6, I))
            assert sol.cardinality == 3
            assert sol.support.isdisjoint(I)

    def test_path_graph(self):
        A = np.array([[-1, 0], [1, -1]])
        sol = solve_min_support(TUProblem(A, 1))
        assert sol.cardinality == 1
        assert sol.support == frozenset({1})

    def test_four_cycle(self):
        A = np.array([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]])[:, 1:]
        sol = solve_min_support(TUProblem(A, 1))
        assert sol.cardinality == 2

    def test_infeasible_under_protection(self):
        # two parallel meters on the same line: protecting one pins the other
        A = np.array([[-1], [-1]])
        assert solve_min_support(TUProblem(A, 1, frozenset({2}))) is None

    def test_zero_target_row_infeasible(self):
        A = np.array([[0, 0], [1, -1]])
        assert solve_min_support(TUProblem(A, 1)) is None


class TestAgainstOracle:
    def test_randomized_agreement(self):
        rng = random.Random(20240817)
        for trial in range(80):
            prob = random_tu_problem(rng)
            sol = solve_min_support(prob)
            want = exhaustive_min_support(prob.A, prob.k, prob.I)
            if want is None:
                assert sol is None, f"trial {trial}"
            else:
                assert sol is not None and sol.cardinality == want, f"trial {trial}"
                assert validate_integrality(sol, prob), f"trial {trial}"

    def test_feasibility_matches_rank_test(self):
        rng = random.Random(99)
        for _ in range(60):
            prob = random_tu_problem(rng)
            sol = solve_min_support(prob)
            assert (sol is not None) == feasibility_by_rank(prob.A, prob.k, prob.I)

    def test_protection_is_monotone(self):
        rng = random.Random(4242)
        for _ in range(30):
            prob = random_tu_problem(rng)
            base = solve_min_support(TUProblem(prob.A, prob.k))
            shielded = solve_min_support(prob)
            if shielded is None:
                continue
            assert base is not None
            assert base.cardinality <= shielded.cardinality


class TestValidateIntegrality:
    def test_accepts_solver_output(self):
        prob = TUProblem(SIXBUS_A, 6)
        sol = solve_min_support(prob)
        assert validate_integrality(sol, prob)

    def test_rejects_wrong_length(self):
        prob = TUProblem(SIXBUS_A, 6)
        sol = solve_min_support(prob)
        bad = TUSolution(sol.x + (0,), sol.support)
        assert not validate_integrality(bad, prob)

    def test_rejects_oversized_entries(self):
        prob = TUProblem(np.array([[1, 0], [0, 1]]), 1)
        sol = solve_min_support(prob)
        bad = TUSolution((2, 0), sol.support)
        assert not validate_integrality(bad, prob)

    @pytest.mark.parametrize("A, x, support", [
        ([[1], [1]], (1,), {1}),        # A x touches rows 1 and 2
        ([[1, 1]], (1, 1), {1}),        # x on the pattern, but A(1,:)x = 2
        ([[1, 0]], (1, 2), {1}),        # A(1,:)x = 1, but x moves the empty column by 2
    ], ids=["support", "image", "x"])
    def test_rejects_a_solution_only_one_check_refuses(self, A, x, support):
        assert not validate_integrality(TUSolution(x, frozenset(support)), TUProblem(A, 1))

    def test_fractional_optimum_is_a_solver_defect(self):
        # an odd cycle is not totally unimodular: its l1 optimum is the
        # fractional x = (1/2, 1/2, -1/2), and its state elimination pivots
        # on 2
        with pytest.raises(SolverDefect, match="not totally unimodular"):
            solve_min_support(TUProblem([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 1))


# 4 buses, reference bus 1, state (theta2, theta3, theta4); lines 1-2, 2-3,
# 3-4, 4-1 and the protected 1-3, each row theta_from - theta_to
FOUR_CYCLE_CHORD = [[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1], [0, -1, 0]]


class TestForgedCertificate:
    """_certified_solution on a real warm tableau whose state move or values
    are forged, each forgery passing every check but the one named."""

    def test_a_move_touching_a_protected_row(self, monkeypatch):
        base = solve_l1_base(sparse_rows(np.array(FOUR_CYCLE_CHORD)), 3, {5})
        assert solve_warm(base, 1).cardinality == 2
        # theta = (-1, -1, 0) touches rows 1 and 3, as many as the index,
        # and the protected row 5
        monkeypatch.setattr(tumin, "_state_values", lambda vals, base: {0: -1, 1: -1})
        with pytest.raises(SolverDefect, match="breaks the target or a protected row"):
            solve_warm(base, 1)

    def test_a_move_off_the_pattern_in_an_empty_column(self, monkeypatch):
        base = solve_l1_base(sparse_rows(np.array([[1, 0], [1, 0]])), 2)
        assert solve_warm(base, 1) == TUSolution((1, 0), frozenset({1, 2}))
        real = tumin._state_values
        # moving the empty column by 2 changes no row
        monkeypatch.setattr(tumin, "_state_values", lambda vals, base: {**real(vals, base), 1: 2})
        with pytest.raises(IntegralityError, match="unimodular pattern"):
            solve_warm(base, 1)

    def test_a_nonzero_slack(self, monkeypatch):
        base = solve_l1_base(sparse_rows(np.array([[1]])), 1)
        real = lp._TernaryTableau.values
        assert solve_warm(base, 1) == TUSolution((1,), frozenset({1}))

        def slack_for_y(tab):
            # y+_1 = 1 read as the target row's slack (column 2): the
            # objective still equals the sum of the values
            vals, den = real(tab)
            assert vals == {0: 1}
            return {2: 1}, den

        monkeypatch.setattr(lp._TernaryTableau, "values", slack_for_y)
        with pytest.raises(SolverDefect, match="slack is not zero"):
            solve_warm(base, 1)


class TestSparseCertificate:
    """The certificate evaluates A(j,:)x only on the rows holding a column x
    moves (the base's column index); the dense walk over every unprotected
    row (oracle_helpers.solution_from_x) must read the same solution."""

    def test_the_certified_solution_matches_the_dense_walk(self):
        rng = random.Random(1818)
        solved = 0
        for _ in range(150):
            prob = random_tu_problem(rng)
            sol = solve_min_support(prob)
            if sol is None:
                continue
            assert sol == solution_from_x(prob, sol.x)
            solved += 1
        assert solved > 100

    def test_every_row_read_sparsely_is_the_dense_walk_on_any_x(self):
        # validate_integrality's recomputation, on moves that break the
        # pattern too
        rng = random.Random(1819)
        for _ in range(150):
            prob = random_tu_problem(rng)
            x = [rng.randint(-2, 2) for _ in range(prob.A.shape[1])]
            assert TUSolution(tuple(x), frozenset(_image(prob.rows, x, prob.free_rows))) == \
                solution_from_x(prob, x)

    def test_the_column_index_holds_every_row_of_each_column(self):
        rng = random.Random(1820)
        for _ in range(50):
            prob = random_tu_problem(rng)
            base = solve_l1_base(prob.rows, prob.A.shape[1], prob.I)
            assert base.columns == tuple(tuple((np.flatnonzero(prob.A[:, c]) + 1).tolist())
                                         for c in range(prob.A.shape[1]))
        # a column past n is refused, not read as a slack column of the LP
        with pytest.raises(ValueError, match="column 1 outside 0..0"):
            solve_l1_base(sparse_rows(np.eye(2, dtype=int)), 1)


class TestWarmStateRows:
    """solve_warm re-optimizes a base whose state is eliminated: each state
    column with a state row is read from it, each other one is 0."""

    def test_warm_matches_the_oracles_on_interval_matrices(self):
        # one base per (A, I), re-optimized per target, against enumeration
        # (cardinality) and a rank test (feasibility), neither an LP
        rng = random.Random(14)
        feasible = infeasible = fixed = 0
        for seed in range(80):
            m, n = rng.randint(2, 9), rng.randint(1, 8)
            A = gen_consecutive_ones(m, n, seed)
            A[:, rng.sample(range(n), rng.randint(0, n // 2))] = 0
            I = frozenset(rng.sample(range(1, m + 1), rng.randint(0, m - 1)))
            base = solve_l1_base(sparse_rows(A), n, I)
            moved = {c for mask in base.spos + base.sneg for c in lp._bits(mask)}
            assert moved <= set(range(n))
            fixed += n - len(moved)
            for k in sorted(set(range(1, m + 1)) - I):
                prob = TUProblem(A, k, I)
                warm = solve_warm(base, k)
                if not feasibility_by_rank(A, k, I):
                    assert warm is None
                    infeasible += 1
                    continue
                assert warm.cardinality == exhaustive_min_support(A, k, I)
                assert validate_integrality(warm, prob)
                feasible += 1
        assert feasible > 150 and infeasible > 50 and fixed > 100

    @pytest.mark.parametrize("forge", [
        lambda base: base._replace(spos=base.sneg, sneg=base.spos),
    ], ids=["entry"])
    def test_a_forged_state_row_is_a_solver_defect(self, forge):
        # entries of the opposite sign negate x
        base = solve_l1_base(sparse_rows(SIXBUS_A), 5)
        assert any(base.spos + base.sneg)
        with pytest.raises(SolverDefect):
            solve_warm(forge(base), 6)


def test_the_warm_sweep_imports_nothing_from_fractions():
    # the state rows carry their pivot signs, so x is read back by integer
    # sums; an import of fractions would mean a rational path came back
    tree = ast.parse(Path(tumin.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert imported and "fractions" not in imported


class TestTernaryWarmStep:
    """solve_l1_base solves the base as a ternary tableau, and solve_warm
    re-optimizes it as one: rows of -1, 0 and 1 as two bitmasks, which
    total unimodularity guarantees.  The dict tableau of lp.solve_lp is
    the reference for both."""

    @staticmethod
    def same_base(rows, n, I, monkeypatch):
        """Assert that solve_l1_base and lp.solve_lp on _meter_space's rows
        stop at the same tableau after the same number of primal pivots;
        return the dict tableau, the base and that number."""
        primal = []
        real = lp._run_simplex
        with monkeypatch.context() as m:
            m.setattr(lp, "_run_simplex",
                      lambda tab, pivots: (real(tab, pivots), primal.append(pivots[0]))[0])
            base = solve_l1_base(rows, n, I)
        yrows, _, _, width = _meter_space(rows, n, I)
        out = solve_lp(StandardFormLP.from_int_rows(yrows, dict.fromkeys(range(width), 1), width))
        tab = out.tableau
        assert primal == [out.pivots]
        assert [row[c] for row, c in zip(tab.rows, tab.basis)] == [1] * len(base.pos)
        assert tab.zden == 1
        assert base.basis == tab.basis
        assert base.z == [tab.zrow.get(j, 0) for j in range(tab.ncols)]
        assert base.pos == [sum(1 << j for j, v in row.items() if j != lp.RHS and v == 1)
                            for row in tab.rows]
        assert base.neg == [sum(1 << j for j, v in row.items() if v == -1) for row in tab.rows]
        return tab, base, out.pivots

    @pytest.mark.parametrize("rule", ["bland", "dantzig"])
    def test_it_pivots_as_the_dict_tableau(self, rule, monkeypatch):
        # the base of the same meter-space rows on both kernels (same_base);
        # then the same target row on both: equal status, pivot count,
        # basis, values and reduced costs
        price_by(monkeypatch, rule)
        rng = random.Random(1717)
        outcomes = set()
        protected = total = base_pivots = 0
        while protected < 150:
            prob = random_tu_problem(rng)
            if not prob.I:
                continue
            protected += 1
            tab, base, primal = self.same_base(prob.rows, prob.A.shape[1], prob.I, monkeypatch)
            base_pivots += primal
            tern = lp._TernaryTableau(base.pos[:], base.neg[:], [0] * len(base.basis),
                                      base.basis[:], base.z[:])
            y, r = prob.free_rows.index(prob.k), len(base.spos)
            tab.add_row({y: -1, y + r: 1, lp.RHS: -1})
            tern.add_row(1 << (y + r), 1 << y, -1)
            pivots = [[0], [0]]
            status = lp._run_dual_simplex(tab, pivots[0])
            assert lp._run_dual_simplex(tern, pivots[1]) is status
            assert pivots[0] == pivots[1]
            assert tern.basis == tab.basis and tern.values() == tab.values()
            assert tern.z == [tab.zrow.get(j, 0) for j in range(tab.ncols)]
            assert tern.objective() == tab.objective()
            outcomes.add(status)
            total += pivots[0][0]
        assert outcomes == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert total > 100 and base_pivots > 10

    @pytest.mark.parametrize("rule", ["bland", "dantzig"])
    def test_a_protected_grid_base_pivots_as_the_dict_tableau(self, rule, monkeypatch):
        # 42-bus grids with 3 protected meters: tens of primal pivots each
        price_by(monkeypatch, rule)
        for seed in (1, 2):
            net, meas = mesh_grid(seed)
            mtr = metering(net, meas)
            _, _, primal = self.same_base(mtr.flow_pairs, mtr.flow_matrix.shape[1],
                                          meas.protected, monkeypatch)
            assert primal > 10

    def test_data_outside_total_unimodularity_is_an_integrality_error(self):
        # the l1 optimum of meters 3 and 4 happens to be integral (3), but
        # the base tableau is not unimodular, so no answer is certified
        A = np.array([[1, 1], [1, -1], [1, 0], [0, 1]])
        assert not verify_tu(A, 2)
        for k in range(1, 5):
            with pytest.raises(IntegralityError, match="not totally unimodular"):
                solve_min_support(TUProblem(A, k))

    def test_a_meter_space_entry_of_two_is_an_integrality_error(self):
        # the first row is the state row of x_0, so the second reduces to
        # the row over y 2 y+_1 - y+_2 - 2 y-_1 + y-_2: its base is refused
        # before the ternary kernel reads it
        with pytest.raises(IntegralityError, match="not totally unimodular"):
            solve_l1_base(sparse_rows(np.array([[1], [2]])), 1)

    def test_a_base_that_is_not_optimal_is_a_solver_defect(self, monkeypatch):
        # the base's simplex stopped at its crash basis, where a reduced
        # cost is still negative
        rows = sparse_rows(SIXBUS_A_FULL)
        assert min(solve_l1_base(rows, 6).z) >= 0
        monkeypatch.setattr(lp, "_run_simplex", lambda tab, pivots: LpStatus.OPTIMAL)
        with pytest.raises(SolverDefect, match="negative reduced cost"):
            solve_l1_base(rows, 6)


class TestVerifyTu:
    def test_incidence_is_tu(self):
        assert verify_tu(SIXBUS_A_FULL, 3)

    def test_interval_matrix_is_tu(self):
        A = gen_consecutive_ones(6, 6, seed=11)
        assert verify_tu(A, 3)

    def test_plus_minus_counterexample(self):
        assert not verify_tu(np.array([[1, 1], [1, -1]]), 2)

    def test_large_entry_fails_order_one(self):
        assert not verify_tu(np.array([[2, 0], [0, 1]]), 1)

    def test_budget_guard(self):
        A = np.ones((10, 10), dtype=int)
        with pytest.raises(SizeLimitExceeded):
            verify_tu(A, 5, budget=10)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            verify_tu(np.eye(2, dtype=int), 3)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = gen_consecutive_ones(8, 5, seed=3)
        b = gen_consecutive_ones(8, 5, seed=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_consecutive_ones(8, 5, seed=4))

    def test_columns_are_contiguous_runs(self):
        A = gen_consecutive_ones(12, 9, seed=7)
        assert set(A.ravel().tolist()) <= {0, 1}
        for c in range(A.shape[1]):
            ones = np.flatnonzero(A[:, c])
            if ones.size:
                assert ones[-1] - ones[0] + 1 == ones.size

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gen_consecutive_ones(0, 3, seed=1)
