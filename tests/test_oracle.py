"""Exhaustive oracles, big-M branch and bound, and sparse-recovery diagnostics."""
import ast
import copy
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    IEEE14_CASE,
    PAPER_B,
    PAPER_L,
    PAPER_PHI,
    SIXBUS_A,
    SIXBUS_A_FULL,
    mesh_grid,
    paper_stand_in,
    random_connected_edges,
    random_tu_problem,
    sixbus_meas,
    sixbus_network,
)
from gridsec import (
    MeasurementSystem,
    Network,
    TUProblem,
    build_H,
    exhaustive_min_card,
    exhaustive_min_support,
    exhaustive_min_tuple,
    milp_solve,
    mincut_index,
    mutual_coherence,
    nullspace_reformulate,
    parse_case,
    reduce_to_tu,
    rip_constant,
    security_index,
    solve_min_support,
)
from gridsec.errors import (
    CapExceeded,
    HasInjections,
    InfeasibleIndex,
    IntegralityError,
    SizeLimitExceeded,
    TrivialNullspace,
    ZeroColumn,
)
from gridsec.exactla import EchelonBasis, int_rank
from gridsec import grid
from gridsec.grid import incidence, metering
from gridsec import lp, oracle
from gridsec.oracle import CsInstance, _big_m, _node_lp, coherence_bound, solve_milp_instance
from oracle_helpers import big_m_min_support
from gridsec.security import _exact_result
from gridsec.tumin import meter_space, solve_l1_base


class TestExhaustiveMinSupport:
    def test_six_bus(self):
        for k in range(1, 8):
            assert exhaustive_min_support(SIXBUS_A, k) == (3 if k == 6 else 2)

    def test_protected(self):
        assert exhaustive_min_support(SIXBUS_A, 6, frozenset({1, 4})) == 3
        assert exhaustive_min_support(SIXBUS_A, 6, frozenset({1, 2})) == 3

    def test_none_when_target_pinned(self):
        # two parallel edges measure the same state difference
        A = np.array([[1], [1]])
        assert exhaustive_min_support(A, 1, frozenset({2})) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exhaustive_min_support(SIXBUS_A, 6, cap=4)


class TestExhaustiveMinTuple:
    def test_six_bus(self):
        ct = exhaustive_min_tuple(SIXBUS_A, 6)
        assert ct.cardinality == 3
        assert 6 in ct.members

    def test_four_cycle(self):
        A = np.array([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]])[:, 1:]
        assert exhaustive_min_tuple(A, 1).cardinality == 2

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exhaustive_min_tuple(SIXBUS_A, 6, cap=2)


class TestMilp:
    def test_from_system_big_m(self):
        assert _big_m(sixbus_network()) == Fraction(2)
        assert np.array_equal(reduce_to_tu(sixbus_network(), sixbus_meas(), 6).A, SIXBUS_A)
        # a line at the reference bus has one state entry, any other two
        assert _big_m(Network(2, ((1, 2, 1),))) == Fraction(1)
        assert _big_m(Network(3, ((1, 2, 1), (2, 3, 1)))) == Fraction(2)

    def test_big_m_is_the_largest_truncated_incidence_column_sum(self):
        # the count of line ends off the reference bus against the dense
        # |B| column sums: seeded multigraphs with a random reference bus,
        # then stars centred on the reference bus with every spoke doubled
        rng = random.Random(2929)
        nets = []
        for _ in range(300):
            n, edges = random_connected_edges(rng)
            nets.append(Network(n, tuple((u, v, 1) for u, v in edges), rng.randint(1, n)))
        for n in range(2, 8):
            ref = rng.randint(1, n)
            spokes = [(ref, b, 1) if rng.random() < 0.5 else (b, ref, 2)
                      for b in range(1, n + 1) if b != ref]
            nets.append(Network(n, tuple(spokes * 2), ref))
        values = [_big_m(net) for net in nets]
        assert values == [Fraction(int(np.abs(incidence(net)[1]).sum(axis=0).max()))
                          for net in nets]
        assert values[-6:] == [Fraction(1)] * 6
        assert any(v == 1 for v in values[:-6]) and any(v == 2 for v in values)

    def test_from_system_rejects_injections(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(HasInjections):
            milp_solve(net, MeasurementSystem((1, 2), (2,)), 1)

    @pytest.mark.parametrize("big_m", [0, Fraction(-1, 2)])
    def test_rejects_nonpositive_big_m(self, big_m):
        with pytest.raises(ValueError, match="big_m must be positive"):
            solve_milp_instance(TUProblem(SIXBUS_A, 6), big_m)

    def test_agrees_with_lp_on_six_bus(self):
        net, meas = sixbus_network(), sixbus_meas()
        for k in range(1, 8):
            lp = security_index(net, meas, k)
            milp = milp_solve(net, meas, k)
            assert milp.index == lp.index
            assert milp.method == "milp"
            assert len(milp.attack.touched) == milp.index
            assert k in milp.attack.touched

    def test_agrees_with_lp_under_protection(self):
        net = sixbus_network()
        meas = sixbus_meas({1, 4})
        lp = security_index(net, meas, 6)
        milp = milp_solve(net, meas, 6)
        assert milp.index == lp.index == 3
        assert milp.attack.touched.isdisjoint({1, 4})

    def test_dependent_protected_rows_are_dropped_by_the_elimination(self):
        # meters 1, 6, 3 and 5 close the cycle 1-2-5-4-1, so one of their
        # rows depends on the others; the elimination drops it from the root
        protected = frozenset({1, 3, 5, 6})
        for k in (2, 4, 7):
            prob = TUProblem(SIXBUS_A, k, protected)
            tab = _node_lp(meter_space(prob.rows, 5, prob.I), Fraction(2))
            # one state row per unit of rank, one row over t' per other
            # row but the dependent one
            assert int_rank(SIXBUS_A) + len(tab.rows) == len(prob.rows) - 1
            value, _, support, _ = solve_milp_instance(prob)
            assert value == exhaustive_min_support(SIXBUS_A, k, protected)
            assert support.isdisjoint(protected)

    def test_the_milp_path_runs_no_two_phase_solve(self, monkeypatch):
        # every root starts from its crash basis: no lp.solve_lp, no
        # preprocess, no phase 1 (which only _solve_standard_ints runs)
        # and no echelon basis
        def refuse(*args, **kwargs):
            raise AssertionError("the MILP path entered the two-phase solve")

        prob = TUProblem(SIXBUS_A, 2, frozenset({1, 3, 5, 6}))
        want = exhaustive_min_support(SIXBUS_A, 2, prob.I)
        for name in ("solve_lp", "preprocess", "_solve_standard_ints"):
            monkeypatch.setattr(lp, name, refuse)
        monkeypatch.setattr(EchelonBasis, "reduce", refuse)
        net, meas = parse_case(IEEE14_CASE)
        assert ([milp_solve(net, meas, k).index for k in range(1, 21)]
                == [mincut_index(net, meas, k).index for k in range(1, 21)])
        assert solve_milp_instance(prob)[0] == want

    def test_undersized_big_m_inflates_value(self):
        # with |dz| capped at 1/2 every nullspace row needs extra support,
        # so the binary count can only move up from the true index 3
        out = solve_milp_instance(TUProblem(SIXBUS_A, 6), big_m=Fraction(1, 2))
        assert out is None or out[0] > 3

    def test_big_m_below_one_leaves_the_target_unreachable(self, monkeypatch):
        # the target's t' is bounded like every free row's, so
        # t'+_k - t'-_k = Md = 2 cannot fit under Mn = 1 (a big-M of 1/2)
        net = Network(3, ((1, 2, 2), (2, 3, 3), (1, 3, 5)))
        meas = MeasurementSystem((1, 2, 3))
        assert solve_milp_instance(reduce_to_tu(net, meas, 3), Fraction(2))[0] == 2
        assert solve_milp_instance(reduce_to_tu(net, meas, 3), Fraction(1, 2)) is None
        monkeypatch.setattr(oracle, "_big_m", lambda net: Fraction(1, 2))
        with pytest.raises(InfeasibleIndex):
            milp_solve(net, meas, 3)

    def test_witness_from_a_half_valued_incumbent(self):
        # the rescaling milp_solve applies to its incumbent d, on the
        # half-valued d = (-1/2, -1) that moves the target line 1-3 by 1
        # and the detour 1-2-3 by 1/2 per line
        net = Network(3, ((1, 2, 2), (2, 3, 3), (1, 3, 5)))
        meas = MeasurementSystem((1, 2, 3))
        res = _exact_result(metering(net, meas), 3, "milp", (Fraction(-1, 2), Fraction(-1)),
                            frozenset({1, 2, 3}), 0.0)
        assert res.index == 3
        assert res.attack.touched == frozenset({1, 2, 3})
        assert res.attack.delta_theta.tolist() == [-2.5, -5.0]
        assert res.attack.delta_z.tolist() == [1.25, float(Fraction(5, 6)), 1.0]
        H = build_H(net, meas).H
        assert np.allclose(H @ res.attack.delta_theta, res.attack.delta_z, atol=1e-12)

    def test_trace_records_search(self):
        net = sixbus_network()
        buf = io.StringIO()
        value, d, support, nodes = solve_milp_instance(
            reduce_to_tu(net, sixbus_meas(), 6), _big_m(net), trace=buf)
        assert value == len(support) == 3
        assert support == {j for j, v in enumerate(SIXBUS_A @ np.array(d), start=1) if v}
        text = buf.getvalue()
        assert "branch=" in text
        assert "incumbent" in text
        assert nodes >= text.count("node depth=0")

    def test_node_cap(self):
        # the cap admits exactly the nodes a search takes; ieee14 meter 4
        # takes the most (test_pinned_counts.MILP_NODES)
        net, meas = parse_case(IEEE14_CASE)
        prob = reduce_to_tu(net, meas, 4)
        nodes = solve_milp_instance(prob, _big_m(net))[3]
        assert nodes > 2
        with pytest.raises(CapExceeded) as exc:
            solve_milp_instance(prob, _big_m(net), cap=1)
        assert exc.value.cap == 1
        with pytest.raises(CapExceeded):
            solve_milp_instance(prob, _big_m(net), cap=nodes - 1)
        assert solve_milp_instance(prob, _big_m(net), cap=nodes)[::3] == (4, nodes)

    def test_agrees_with_exhaustive_on_non_tu_data(self):
        # general integer rows, entries in -2..2, with up to 2 protected
        # rows: the formulation may not assume total unimodularity
        rng = random.Random(5)
        for _ in range(200):
            m, n = rng.randint(3, 6), rng.randint(2, 4)
            A = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
            k = rng.randint(1, m)
            I = frozenset(rng.sample([j for j in range(1, m + 1) if j != k], rng.randint(0, 2)))
            out = solve_milp_instance(TUProblem(A, k, I), Fraction(20))
            want = exhaustive_min_support(A, k, I)
            assert (None if out is None else out[0]) == want
            if out is not None:
                value, d, support, _ = out
                assert len(support) == value and k in support and support.isdisjoint(I)
                assert (A @ np.array(d, dtype=object))[k - 1] == 1

    def test_agrees_with_enumeration_under_a_rational_big_m(self):
        # the data of the test above, under a big-M of 7/2 (t' = 2 t, up to
        # 7), which need not dominate |A(j,:) d|: the optimum is then the
        # formulation's own, the fewest rows whose moves fit the box
        rng = random.Random(5)
        for _ in range(200):
            m, n = rng.randint(3, 6), rng.randint(2, 4)
            A = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
            k = rng.randint(1, m)
            I = frozenset(rng.sample([j for j in range(1, m + 1) if j != k], rng.randint(0, 2)))
            out = solve_milp_instance(TUProblem(A, k, I), Fraction(7, 2))
            assert (None if out is None else out[0]) == big_m_min_support(A, k, I, Fraction(7, 2))
            if out is not None:
                image = A @ np.array(out[1], dtype=object)
                assert image[k - 1] == 1 and max(abs(v) for v in image) <= Fraction(7, 2)

    def test_agrees_with_min_cut_on_a_seeded_mesh(self):
        # 42 buses, 83 lines, 3 protected; every meter of this grid settles
        # in at most 37 nodes
        net, meas = mesh_grid(1)
        targets = [k for k in range(1, len(meas.flow_meters) + 1) if k not in meas.protected]
        for k in random.Random(1).sample(targets, 10):
            value, _, support, _ = solve_milp_instance(reduce_to_tu(net, meas, k),
                                                       _big_m(net), cap=100)
            assert value == len(support) == mincut_index(net, meas, k).index


def _index_or_none(solve, *args):
    try:
        return solve(*args).index
    except InfeasibleIndex:
        return None


class TestKeptRoot:
    """milp_solve runs every target on its system's kept root
    (grid.Metering.milp_root), solved once, target-free."""

    @staticmethod
    def _snapshot(root):
        tab = root.tab
        return ([dict(row) for row in tab.rows], list(tab.basis), dict(tab.zrow), tab.zden,
                tab.ncols)

    def test_a_sweep_leaves_the_kept_root_unchanged(self):
        net, meas = parse_case(IEEE14_CASE)
        root = metering(net, meas).milp_root
        before = self._snapshot(root)
        first = [milp_solve(net, meas, k) for k in range(1, 21)]
        again = milp_solve(net, meas, 4)
        assert self._snapshot(root) == before
        assert metering(net, meas).milp_root is root
        assert (again.index, again.attack.touched) == (first[3].index, first[3].attack.touched)
        assert again.attack.delta_z.tolist() == first[3].attack.delta_z.tolist()

    def test_kept_roots_agree_with_fresh_ones_and_the_cut(self):
        # one Network, unprotected and under 3 seeded plans: each system
        # keeps its own root, built for its rows, protection and big-M
        net, meas = parse_case(IEEE14_CASE)
        rng = random.Random(21)
        plans = [frozenset()] + [frozenset(rng.sample(range(1, 21), 3)) for _ in range(3)]
        roots = []
        for plan in plans:
            system = MeasurementSystem(meas.flow_meters, protected=plan)
            mtr = metering(net, system)
            for k in range(1, 21):
                if k in plan:
                    continue
                fresh = solve_milp_instance(reduce_to_tu(net, system, k), _big_m(net))
                want = _index_or_none(mincut_index, net, system, k)
                assert (None if fresh is None else fresh[0]) == want
                assert _index_or_none(milp_solve, net, system, k) == want
            root = mtr.milp_root
            assert root.space is mtr.meter_space and root.space.rows is mtr.flow_pairs
            assert (root.space.I, root.big_m) == (plan, _big_m(net))
            roots.append(root)
            for k in plan:
                with pytest.raises(ValueError, match="cannot be protected"):
                    oracle._branch_and_bound(root, k)
            with pytest.raises(ValueError, match="outside"):
                oracle._branch_and_bound(root, 21)
        assert len({id(root) for root in roots}) == len(plans)


class TestOneMeterSpaceRoot:
    """Both kept roots read one meter-space record (tumin.meter_space): before
    its solve, the MILP root (_node_lp) holds the l1 base's rows over the
    same columns, t'+_j and t'-_j where y+_j and y-_j are, and starts from
    the same basis, lp._crash_basis of those rows."""

    @staticmethod
    def check(rows, n, I, monkeypatch):
        space = meter_space(rows, n, I)
        tab, width = _node_lp(space, Fraction(2)), 2 * len(space.free)
        assert (tab.rows, tab.ncols) == (list(space.yrows), width)
        assert tab.basis == lp._crash_basis(space.yrows, width)
        # the basis the l1 base's own primal simplex starts from
        starts, real = [], lp._run_simplex
        with monkeypatch.context() as m:
            m.setattr(lp, "_run_simplex",
                      lambda t, pivots: (starts.append(list(t.basis)), real(t, pivots))[1])
            solve_l1_base(space)
        assert starts == [tab.basis]

    @pytest.mark.parametrize("protect", [3, 0])
    def test_golden_mesh_grids(self, protect, monkeypatch):
        for seed in (1, 2, 3, 4):
            net, meas = mesh_grid(seed, protect=protect)
            self.check(metering(net, meas).flow_pairs, net.n_states, meas.protected, monkeypatch)

    def test_ieee14_under_seeded_plans(self, monkeypatch):
        net, meas = parse_case(IEEE14_CASE)
        rng = random.Random(1)
        for plan in [frozenset(rng.sample(range(1, 21), 3)) for _ in range(3)]:
            self.check(metering(net, meas).flow_pairs, net.n_states, plan, monkeypatch)

    def test_the_118_bus_stand_in(self, monkeypatch):
        net, meas = paper_stand_in(118, 186)
        self.check(metering(net, meas).flow_pairs, net.n_states, frozenset(), monkeypatch)

    def test_non_tu_data_gets_the_elimination_s_rows(self):
        # the l1 base refuses entries of 2, the MILP root takes the
        # elimination's rows as they are
        A = np.array([[1, 2, 0], [2, -1, 1], [1, 1, 1], [0, 2, -1], [1, 0, 2], [2, 1, 0]])
        prob = TUProblem(A, 1, frozenset({4}))
        space = meter_space(prob.rows, 3, prob.I)
        assert not space.ternary
        with pytest.raises(IntegralityError):
            solve_l1_base(space)
        tab = _node_lp(space, Fraction(2))
        assert any(abs(v) > 1 for row in space.yrows for v in row.values())
        assert (tab.rows, tab.ncols) == (list(space.yrows), 10)
        assert tab.basis == lp._crash_basis(space.yrows, 10)

    def test_both_roots_read_one_elimination_per_system(self, monkeypatch):
        calls, real = [], grid.meter_space
        monkeypatch.setattr(grid, "meter_space", lambda *a: calls.append(a[2]) or real(*a))
        net, meas = parse_case(IEEE14_CASE)
        plans = [frozenset(), frozenset({2, 9, 17})]
        for plan in plans:
            mtr = metering(net, MeasurementSystem(meas.flow_meters, protected=plan))
            assert mtr.l1_base.space is mtr.milp_root.space is mtr.meter_space
            milp_solve(net, mtr.meas, 1)
            security_index(net, mtr.meas, 1)
        assert calls == plans

    def test_an_milp_sweep_leaves_the_shared_rows_unchanged(self):
        # the dict tableau pivots its rows in place: the root must copy the
        # rows over y, which the l1 base reads after it
        net, meas = parse_case(IEEE14_CASE)
        mtr = metering(net, meas)
        space = mtr.meter_space
        before = copy.deepcopy(space.yrows)
        for k in range(1, 21):
            milp_solve(net, meas, k)
        assert mtr.milp_root.space is space and space.yrows == before
        fresh = meter_space(mtr.flow_pairs, net.n_states, meas.protected)
        assert fresh == space
        assert solve_l1_base(space) == solve_l1_base(fresh)


def test_the_milp_shares_only_the_problem_record_and_the_elimination_with_the_l1_path():
    # aim: an independent route; it may share the lp kernel and the state
    # elimination, never the l1 base or its meter-space formulation; its
    # incumbents are checked on the rows before elimination
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported = {a.name for a in node.names}
            if node.module in ("tumin", "gridsec.tumin"):
                names |= imported
            elif node.module in (None, "gridsec"):
                assert "tumin" not in imported
        elif isinstance(node, ast.Import):
            assert all("tumin" not in a.name for a in node.names)
    assert names == {"TUProblem", "MeterSpace", "meter_space", "check_rows"}


class TestCoherence:
    def test_paper_matrix(self):
        phi = np.array(PAPER_PHI, dtype=float)
        assert mutual_coherence(phi) == 1.0
        assert coherence_bound(phi) == 1.0

    def test_zero_column(self):
        with pytest.raises(ZeroColumn):
            mutual_coherence(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_orthonormal_columns(self):
        assert mutual_coherence(np.eye(3)) == 0.0
        assert coherence_bound(np.eye(3)) == math.inf

    def test_exact_on_irrational_normalizers(self):
        # both normalized inner products are 1/sqrt(2); mu^2 = 1/2 exactly
        phi = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert mutual_coherence(phi) == math.sqrt(0.5)


class TestRip:
    def test_identity(self):
        assert rip_constant(np.eye(2), 2) == 0.0

    def test_paper_matrix_violates_recovery_threshold(self):
        assert rip_constant(np.array(PAPER_PHI, dtype=float), 2) >= 1.0

    def test_unnormalized_column(self):
        # single column of norm 2: eigenvalue 4, delta_1 = 3
        assert rip_constant(np.array([[2.0]]), 1) == pytest.approx(3.0)

    def test_order_three_uses_dense_path(self):
        phi = np.hstack([np.eye(3), np.ones((3, 1))])
        d2 = rip_constant(phi, 2)
        d3 = rip_constant(phi, 3)
        assert d3 >= d2 >= 0.0

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rip_constant(np.eye(2), 0)
        with pytest.raises(ValueError):
            rip_constant(np.eye(2), 3)

    def test_budget(self):
        with pytest.raises(SizeLimitExceeded):
            rip_constant(np.ones((2, 12)), 6, budget=10)


class TestNullspaceReformulation:
    def test_six_bus_shape_and_b(self):
        inst = nullspace_reformulate(SIXBUS_A_FULL, 6)
        phi = np.asarray(inst.phi, dtype=float)
        assert phi.shape == (3, 7)
        assert inst.b == (0, 0, 1)
        assert inst.columns == tuple(range(1, 8))
        assert inst.target == 6
        # last row is the target selector
        assert list(phi[-1]) == [0, 0, 0, 0, 0, 1, 0]

    def test_truncation_does_not_change_phi(self):
        full = nullspace_reformulate(SIXBUS_A_FULL, 6)
        trunc = nullspace_reformulate(SIXBUS_A, 6)
        assert full.phi == trunc.phi
        assert full.b == trunc.b

    def test_nullspace_rows_annihilate_a(self):
        inst = nullspace_reformulate(SIXBUS_A_FULL, 6)
        L = np.asarray(inst.phi, dtype=float)[:-1]
        assert np.allclose(L @ SIXBUS_A_FULL, 0.0)

    def test_same_row_space_as_reference_basis(self):
        inst = nullspace_reformulate(SIXBUS_A_FULL, 6)
        ours = [[int(v) for v in row] for row in inst.phi[:-1]]
        ref = [list(row) for row in PAPER_L]
        assert int_rank(ours) == int_rank(ref) == int_rank(ours + ref) == 2

    def test_trivial_when_full_row_rank(self):
        with pytest.raises(TrivialNullspace):
            nullspace_reformulate(np.array([[1, 0], [0, 1]]), 1)

    def test_protected_column_dropped(self):
        inst = nullspace_reformulate(SIXBUS_A_FULL, 6, frozenset({1}))
        assert inst.columns == (2, 3, 4, 5, 6, 7)
        assert np.asarray(inst.phi).shape == (3, 6)

    def test_card_matches_support_on_six_bus(self):
        inst = nullspace_reformulate(SIXBUS_A_FULL, 6)
        assert exhaustive_min_card(inst) == exhaustive_min_support(SIXBUS_A_FULL, 6) == 3

    def test_card_matches_support_randomized(self):
        rng = random.Random(47)
        done = 0
        while done < 25:
            prob = random_tu_problem(rng)
            A, k, I = prob.A, prob.k, prob.I
            want = exhaustive_min_support(A, k, I)
            try:
                inst = nullspace_reformulate(A, k, I)
            except TrivialNullspace:
                # full row rank: only the target selector constrains x
                assert want is None or want == 1
                done += 1
                continue
            assert exhaustive_min_card(inst) == want
            done += 1


class TestExhaustiveMinCard:
    def test_paper_instance(self):
        phi = np.array(PAPER_PHI, dtype=float)
        assert exhaustive_min_card(phi, np.array(PAPER_B, dtype=float)) == 3

    def test_zero_b(self):
        assert exhaustive_min_card(np.array(PAPER_PHI, dtype=float), np.zeros(3)) == 0

    def test_unreachable(self):
        phi = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert exhaustive_min_card(phi, np.array([0.0, 1.0])) is None

    def test_a_cs_instance_reads_floats_as_decimals(self):
        # 0.1 and 0.3 are 1/10 and 3/10 exactly, so b = (1, 3) is one column
        # scaled by 10, as in the plain-matrix form
        assert exhaustive_min_card([[0.1], [0.3]], [1, 3]) == 1
        assert exhaustive_min_card(CsInstance([[0.1], [0.3]], [1, 3], (1,), 1)) == 1

    def test_cap(self):
        # unreachable b forces the full enumeration past any small cap
        phi = np.vstack([np.ones((1, 12)), np.zeros((1, 12))])
        with pytest.raises(CapExceeded):
            exhaustive_min_card(phi, np.array([0.0, 1.0]), cap=6)
