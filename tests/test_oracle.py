"""Exhaustive oracles, big-M branch and bound, and sparse-recovery diagnostics."""
import io
import math
import random
from fractions import Fraction

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
    SizeLimitExceeded,
    TrivialNullspace,
    ZeroColumn,
)
from gridsec.exactla import int_rank
from gridsec import lp, oracle
from gridsec.oracle import CsInstance, _big_m, _node_lp, coherence_bound, solve_milp_instance


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

    def test_dependent_protected_rows_go_through_preprocess(self):
        # meters 1, 6, 3 and 5 close the cycle 1-2-5-4-1, so one of their
        # rows depends on the others; lp.preprocess drops it from the root
        protected = frozenset({1, 3, 5, 6})
        for k in (2, 4, 7):
            prob = TUProblem(SIXBUS_A, k, protected)
            root = _node_lp(prob, Fraction(2))
            assert lp.preprocess(root).num_rows == root.num_rows - 1
            value, _, support, _ = solve_milp_instance(prob)
            assert value == exhaustive_min_support(SIXBUS_A, k, protected)
            assert support.isdisjoint(protected)

    def test_undersized_big_m_inflates_value(self):
        # with |dz| capped at 1/2 every nullspace row needs extra support,
        # so the binary count can only move up from the true index 3
        out = solve_milp_instance(TUProblem(SIXBUS_A, 6), big_m=Fraction(1, 2))
        assert out is None or out[0] > 3

    def test_witness_from_a_half_valued_incumbent(self, monkeypatch):
        # with big-M 1/2 the detour 1-2-3 may carry at most half a unit per
        # line, so the target line 1-3 forces the incumbent d = (-1/2, -1)
        net = Network(3, ((1, 2, 2), (2, 3, 3), (1, 3, 5)))
        meas = MeasurementSystem((1, 2, 3))
        monkeypatch.setattr(oracle, "_big_m", lambda net: Fraction(1, 2))
        value, d, support, _ = solve_milp_instance(reduce_to_tu(net, meas, 3), Fraction(1, 2))
        assert (value, d, support) == (3, (Fraction(-1, 2), Fraction(-1)), frozenset({1, 2, 3}))
        res = milp_solve(net, meas, 3)
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
        assert value == 3
        assert sorted(support) == [2, 3, 6]
        text = buf.getvalue()
        assert "branch=" in text
        assert "incumbent" in text
        assert nodes >= text.count("node depth=0")

    def test_node_cap(self):
        # ieee14 meter 4 takes 21 nodes (test_pinned_counts.MILP_NODES)
        net, meas = parse_case(IEEE14_CASE)
        prob = reduce_to_tu(net, meas, 4)
        with pytest.raises(CapExceeded) as exc:
            solve_milp_instance(prob, _big_m(net), cap=1)
        assert exc.value.cap == 1
        with pytest.raises(CapExceeded):
            solve_milp_instance(prob, _big_m(net), cap=20)
        assert solve_milp_instance(prob, _big_m(net), cap=21)[::3] == (4, 21)

    def test_agrees_with_min_cut_on_a_seeded_mesh(self):
        # 42 buses, 83 lines, 3 protected; every meter of this grid settles
        # in at most 37 nodes
        net, meas = mesh_grid(1)
        targets = [k for k in range(1, len(meas.flow_meters) + 1) if k not in meas.protected]
        for k in random.Random(1).sample(targets, 10):
            value, _, support, _ = solve_milp_instance(reduce_to_tu(net, meas, k),
                                                       _big_m(net), cap=100)
            assert value == len(support) == mincut_index(net, meas, k).index


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
