"""Security indices, bounds with injections, and critical tuples."""
import copy
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    SIXBUS_A,
    SIXBUS_A_FULL,
    SIXBUS_CASE,
    count_pivots,
    imported_packages,
    incidence_transpose,
    mesh_grid,
    paper_stand_in,
    random_connected_edges,
    random_tu_problem,
    sixbus_meas,
    sixbus_network,
)
from oracle_helpers import full_h_min_support, witness_attack_all_lines
from test_mincut import random_flow_system
from gridsec import (
    MeasurementSystem,
    Network,
    check_conditions,
    exhaustive_min_support,
    exhaustive_min_tuple,
    lp,
    milp_solve,
    min_critical_tuple,
    mincut_index,
    parse_case,
    reduce_to_tu,
    security_index,
    security_index_bounds,
    solve_min_support,
)
from gridsec.errors import (
    ConditionViolated,
    HasInjections,
    InfeasibleIndex,
    IntegralityError,
    ProtectedInjection,
    SolverDefect,
    TargetIsInjection,
    UnknownMeterId,
    ValidationError,
)
from gridsec import grid, security, tumin
from gridsec.exactla import EchelonBasis
from gridsec.grid import _exact_H_rows, build_H, metering
from gridsec.mincut import max_flow, witness
from gridsec.security import CriticalTuple, _witness_attack
from gridsec.tumin import solve_warm

# the warm step's dual pivots over every meter of the paper-scale stand-ins,
# counted after the base build: steepest edge (1638 and 4514 when the
# dual simplex left on the smallest basic index among the values out)
STAND_IN_WARM_PIVOTS = {118: 1050, 300: 2426}


class TestReduction:
    def test_six_bus_matches_truncated_incidence(self):
        prob = reduce_to_tu(sixbus_network(), sixbus_meas(), 6)
        assert np.array_equal(prob.A, SIXBUS_A)
        assert prob.k == 6
        assert prob.I == frozenset()

    def test_metered_subset_selects_rows(self):
        net = sixbus_network()
        meas = MeasurementSystem((3, 1, 7))
        prob = reduce_to_tu(net, meas, 2)
        assert np.array_equal(prob.A, SIXBUS_A[[2, 0, 6], :])

    def test_rejects_injections(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(HasInjections):
            reduce_to_tu(net, MeasurementSystem((1, 2), (2,)), 1)

    def test_rejects_protected_target(self):
        with pytest.raises(ValidationError):
            reduce_to_tu(sixbus_network(), sixbus_meas({6}), 6)


class TestSecurityIndex:
    def test_six_bus_values_and_witness(self):
        net, meas = sixbus_network(), sixbus_meas()
        for k, want in {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2}.items():
            res = security_index(net, meas, k)
            assert res.index == want
            assert res.method == "lp"
            assert len(res.attack.touched) == want
            assert k in res.attack.touched
            # the witness moves meter k by exactly one unit
            assert res.attack.delta_z[k - 1] == pytest.approx(1.0, abs=1e-12)

    def test_witness_is_unobservable(self):
        net, meas = sixbus_network(), sixbus_meas()
        H = build_H(net, meas)
        res = security_index(net, meas, 6)
        assert np.allclose(H.H @ res.attack.delta_theta, res.attack.delta_z,
                           atol=1e-12)

    def test_protected_variants(self):
        net = sixbus_network()
        for I in ({1, 4}, {1, 2}):
            res = security_index(net, sixbus_meas(I), 6)
            assert res.index == 3
            assert res.attack.touched.isdisjoint(I)

    def test_infeasible_when_protection_pins_target(self):
        net = Network(2, ((1, 2, 1), (1, 2, 2)))
        meas = MeasurementSystem((1, 2), protected=frozenset({2}))
        with pytest.raises(InfeasibleIndex) as err:
            security_index(net, meas, 1)
        assert err.value.meter == 1

    def test_index_invariant_under_reactance_scaling(self):
        meas = sixbus_meas()
        base = {k: security_index(sixbus_network(), meas, k) for k in range(1, 8)}
        scaled = sixbus_network(scale=Fraction(7, 3))
        for k, res in base.items():
            res2 = security_index(scaled, meas, k)
            assert res2.index == res.index
            assert res2.attack.touched == res.attack.touched

    @pytest.mark.parametrize("solve", [security_index, security_index_bounds, mincut_index,
                                       milp_solve])
    def test_a_non_integral_meter_id_is_a_type_error(self, solve):
        # meter ids are read by operator.index, as every other id is
        net, meas = sixbus_network(), sixbus_meas()
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            solve(net, meas, 1.0)
        assert solve(net, meas, np.int64(1)).bounds == (2, 2)


class TestBounds:
    def path_with_injection(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        return net, MeasurementSystem((1, 2), (2,))

    def test_three_bus_bracket(self):
        net, meas = self.path_with_injection()
        res = security_index_bounds(net, meas, 1)
        assert res.bounds == (1, 2)
        assert res.index is None
        assert res.method == "bounds"
        assert res.attack.touched == frozenset({1, 3})

    def test_bracket_contains_exhaustive_optimum(self):
        net, meas = self.path_with_injection()
        res = security_index_bounds(net, meas, 1)
        rows = _exact_H_rows(net, meas)
        exact = full_h_min_support(rows, 1, frozenset())
        assert res.bounds[0] <= exact <= res.bounds[1]

    def test_rejects_injection_target(self):
        net, meas = self.path_with_injection()
        with pytest.raises(TargetIsInjection):
            security_index_bounds(net, meas, 3)

    def test_rejects_protected_injection(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        meas = MeasurementSystem((1, 2), (2,), protected=frozenset({3}))
        with pytest.raises(ProtectedInjection):
            security_index_bounds(net, meas, 1)

    def test_rejects_protected_flow_target(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        meas = MeasurementSystem((1, 2), (2,), protected=frozenset({1}))
        with pytest.raises(ValidationError, match="meter 1 is protected"):
            security_index_bounds(net, meas, 1)

    def test_witness_is_unobservable_on_full_h(self):
        net, meas = self.path_with_injection()
        res = security_index_bounds(net, meas, 1)
        H = build_H(net, meas)
        assert np.allclose(H.H @ res.attack.delta_theta, res.attack.delta_z,
                           atol=1e-12)
        assert res.attack.delta_z[0] == pytest.approx(1.0, abs=1e-12)


def random_injection_system(rng: random.Random, max_nodes: int = 8):
    """Partially flow-metered network with injection meters off the random
    reference bus, up to three protected flow meters and a flow target."""
    n, edges = random_connected_edges(rng, max_nodes)
    lines = tuple((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for u, v in edges)
    net = Network(n, lines, rng.randint(1, n))
    m = len(lines)
    flows = tuple(rng.sample(range(1, m + 1), rng.randint(1, m)))
    buses = [b for b in range(1, n + 1) if b != net.reference_bus]
    injections = tuple(rng.sample(buses, rng.randint(0, len(buses))))
    k = rng.randint(1, len(flows))
    pool = [j for j in range(1, len(flows) + 1) if j != k]
    protected = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 3))))
    return net, MeasurementSystem(flows, injections, protected), k


def random_move(rng: random.Random, net, meas, k):
    """A random exact state move that shifts meter k's line by +1, as
    ({state bus: nonzero integer numerator}, their positive common
    denominator), or None."""
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
         for _ in range(net.n_states)]
    pot = dict(zip(net.state_buses, x))
    ln = net.lines[meas.flow_meters[k - 1] - 1]
    w = pot.get(ln.from_bus, 0) - pot.get(ln.to_bus, 0)
    if not w:
        return None
    moved = [Fraction(v) / w for v in x]
    den = math.lcm(*(v.denominator for v in moved))
    return {b: int(v * den) for b, v in zip(net.state_buses, moved) if v}, den


def exact_entries(entries) -> list:
    """The exact values of _witness_attack's dz entries, each 0 or an
    integer pair (a, b) with b > 0 for a / b."""
    assert all(v == 0 or (type(v[0]) is int and type(v[1]) is int and v[1] > 0)
               for v in entries)
    return [Fraction(*v) if v else 0 for v in entries]


def exact_dtheta(net, meas, k, pot, den) -> list:
    """The exact state move of the moved-bus map pot over den, scaled by
    meter k's reactance (the read-back's scaling), dense over the state
    buses."""
    assert all(type(v) is int and v for v in pot.values()) and type(den) is int and den > 0
    xk = net.lines[meas.flow_meters[k - 1] - 1].reactance
    return [xk * Fraction(pot.get(b, 0), den) for b in net.state_buses]


class TestWitnessEvaluator:
    def assert_matches_rows(self, net, meas, k, pot, den=1):
        mtr = metering(net, meas)
        dz, touched = _witness_attack(mtr, k, pot, den)
        dtheta = exact_dtheta(net, meas, k, pot, den)
        attack = security._attack(mtr, k, pot, den, dz, touched)
        assert attack.delta_theta.tolist() == [float(v) for v in dtheta]
        image = [sum((a * d for a, d in zip(row, dtheta)), Fraction(0))
                 for row in _exact_H_rows(net, meas)]
        dz = exact_entries(dz)
        assert dz == image
        assert touched == frozenset(i + 1 for i, v in enumerate(image) if v)
        assert dz[k - 1] == 1

    def test_matches_exact_rows_on_random_systems(self):
        rng = random.Random(505)
        cuts = 0
        for _ in range(300):
            net, meas, k = random_injection_system(rng)
            move = random_move(rng, net, meas, k)
            if move is not None:
                self.assert_matches_rows(net, meas, k, *move)
            try:
                cut = max_flow(metering(net, MeasurementSystem(meas.flow_meters, (), meas.protected)), k)
            except InfeasibleIndex:
                continue
            cuts += 1
            for side in (cut.source_side, frozenset(range(1, net.n_buses + 1)) - cut.sink_side):
                pot = witness(metering(net, meas), k, side)
                # the moved side: one side of the cut, never the reference bus
                assert net.reference_bus not in pot
                assert pot.keys() in (side, set(range(1, net.n_buses + 1)) - side)
                self.assert_matches_rows(net, meas, k, pot)
        assert cuts > 100

    def test_bounds_attack_is_the_image_of_its_state_move(self):
        rng = random.Random(506)
        checked = 0
        for _ in range(200):
            net, meas, k = random_injection_system(rng)
            try:
                res = security_index_bounds(net, meas, k)
            except InfeasibleIndex:
                continue
            checked += 1
            H = build_H(net, meas).H
            assert np.allclose(H @ res.attack.delta_theta, res.attack.delta_z,
                               rtol=1e-12, atol=1e-12)
            image = set(np.flatnonzero(np.abs(H @ res.attack.delta_theta) > 1e-9) + 1)
            assert set(res.attack.touched) == image
            assert res.bounds[1] == len(res.attack.touched)
            assert res.attack.delta_z[k - 1] == 1.0
        assert checked > 100

    def test_the_walk_at_moved_buses_is_the_walk_over_every_line(self, monkeypatch):
        # through security_index_bounds on partially metered systems with
        # injections and a random reference bus, and on random exact moves;
        # the moves must carry flow on unmetered lines and on lines at the
        # reference bus, and touch injection meters
        rng = random.Random(507)
        kinds = set()

        def both(mtr, k, pot, den=1):
            got = witness_attack_all_lines(mtr, k, pot, den)
            assert evaluate(mtr, k, pot, den) == got
            for lid, ln in enumerate(mtr.net.lines, start=1):
                if pot.get(ln.from_bus, 0) != pot.get(ln.to_bus, 0):
                    kinds.add(("unmetered", lid not in mtr.flow_slot))
                    kinds.add(("at reference", mtr.net.reference_bus in (ln.from_bus, ln.to_bus)))
            kinds.add(("injection", any(i > len(mtr.meas.flow_meters) for i in got[1])))
            return got

        evaluate = security._witness_attack
        monkeypatch.setattr(security, "_witness_attack", both)
        bounded = 0
        for _ in range(200):
            net, meas, k = random_injection_system(rng)
            move = random_move(rng, net, meas, k)
            if move is not None:
                both(metering(net, meas), k, *move)
            try:
                security_index_bounds(net, meas, k)
                bounded += 1
            except InfeasibleIndex:
                pass
        assert bounded > 100
        assert kinds == {(kind, flag) for kind in ("unmetered", "at reference", "injection")
                         for flag in (False, True)}

    def test_every_float_is_its_exact_pair_rounded(self, monkeypatch):
        # each solver's AttackVector holds, entry by entry, float(Fraction(a, b))
        # of the exact pair (a, b) it was read from, and the pairs are the
        # exact image of the move under the rows of H
        seen = []
        real = security._attack

        def spy(mtr, k, pot, den, dz, touched):
            attack = real(mtr, k, pot, den, dz, touched)
            seen.append((pot, den, dz, touched, attack))
            return attack

        monkeypatch.setattr(security, "_attack", spy)
        rng = random.Random(508)
        solved = dict.fromkeys(("bounds", "lp", "mincut", "milp"), 0)
        for _ in range(120):
            net, meas, k = random_injection_system(rng)
            flow_only = MeasurementSystem(meas.flow_meters, (), meas.protected)
            for name, solve, system in (("bounds", security_index_bounds, meas),
                                        ("lp", security_index, flow_only),
                                        ("mincut", mincut_index, flow_only),
                                        ("milp", milp_solve, flow_only)):
                seen.clear()
                try:
                    res = solve(net, system, k)
                except InfeasibleIndex:
                    continue
                solved[name] += 1
                (pot, den, dz, touched, attack), = seen
                assert res.attack is attack
                xs = exact_dtheta(net, system, k, pot, den)
                assert attack.delta_theta.tolist() == [float(v) for v in xs]
                assert attack.delta_z.tolist() == [float(v) for v in exact_entries(dz)]
                image = [sum((a * x for a, x in zip(row, xs)), Fraction(0))
                         for row in _exact_H_rows(net, system)]
                assert exact_entries(dz) == image
                assert touched == frozenset(i + 1 for i, v in enumerate(image) if v)
        assert min(solved.values()) > 60

    def test_bounds_rejects_injection_at_missing_bus(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(UnknownMeterId):
            security_index_bounds(net, MeasurementSystem((1, 2), (4,)), 1)

    def test_bounds_rejects_injection_at_reference_bus(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)), reference_bus=2)
        with pytest.raises(ValidationError) as err:
            security_index_bounds(net, MeasurementSystem((1, 2), (2,)), 1)
        assert type(err.value) is ValidationError
        assert "reference bus" in str(err.value)


def test_the_witness_read_back_imports_nothing_from_fractions():
    # every exact entry is an integer pair read as a / b; an import of
    # fractions would mean a rational path came back
    imported = imported_packages(security)
    assert imported and "fractions" not in imported


class TestConditions:
    def test_six_bus_truncated(self):
        assert check_conditions(SIXBUS_A, 6) == (True, True)

    def test_rank_deficient_full_matrix(self):
        assert check_conditions(SIXBUS_A_FULL, 6) == (True, False)

    def test_zero_row(self):
        A = np.array([[0, 0], [1, -1], [0, 1]])
        assert check_conditions(A, 1) == (False, True)

    def test_float_path_agrees_with_exact(self):
        net, meas = sixbus_network(), sixbus_meas()
        H = build_H(net, meas)
        assert check_conditions(H, 6) == check_conditions(SIXBUS_A, 6)

    def test_row_out_of_range(self):
        with pytest.raises(ValueError, match=r"^target row 8 outside 1\.\.7$"):
            check_conditions(SIXBUS_A, 8)
        with pytest.raises(ValueError, match=r"^target row 0 outside 1\.\.7$"):
            check_conditions(build_H(sixbus_network(), sixbus_meas()), 0)

    def test_fraction_entries_are_ranked_exactly(self):
        # exact rank 2; in floats the second singular value (about 5e-13)
        # falls under the 1e-9 relative threshold
        H = np.array([[Fraction(1), Fraction(1)],
                      [Fraction(1), 1 + Fraction(1, 10**12)],
                      [Fraction(0), Fraction(0)]], dtype=object)
        assert check_conditions(H, 2) == (True, True)
        assert check_conditions(H, 3) == (False, True)
        assert check_conditions(H.astype(float), 2) == (True, False)


class TestCriticalTuples:
    def test_path_singleton(self):
        A = np.array([[-1, 0], [1, -1]])
        ct = min_critical_tuple(A, 1)
        assert ct.members == frozenset({1})
        assert ct.cardinality == 1
        assert ct.target == 1

    def test_six_bus(self):
        ct = min_critical_tuple(SIXBUS_A, 6)
        assert ct.cardinality == 3
        assert 6 in ct.members

    def test_four_cycle(self):
        A = np.array([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [-1, 0, 0, 1]])[:, 1:]
        assert min_critical_tuple(A, 1).cardinality == 2

    @pytest.mark.parametrize("members, target, message", [
        ({1, 2}, 3, "target not contained"),
    ], ids=["target"])
    def test_an_inconsistent_tuple_is_rejected(self, members, target, message):
        with pytest.raises(ValueError, match=message):
            CriticalTuple(frozenset(members), target)

    def test_condition_violations(self):
        with pytest.raises(ConditionViolated) as err:
            min_critical_tuple(np.array([[0, 0], [1, -1], [0, 1]]), 1)
        assert err.value.which == "I"
        with pytest.raises(ConditionViolated) as err:
            min_critical_tuple(SIXBUS_A_FULL, 6)
        assert err.value.which == "II"

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            min_critical_tuple(np.array([[0.5, 1.0], [1.0, 0.0]]), 1)

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(20):
            n, edges = random_connected_edges(rng, max_nodes=6)
            A = incidence_transpose(n, edges, truncate=True)
            k = rng.randint(1, A.shape[0])
            ct = min_critical_tuple(A, k)
            et = exhaustive_min_tuple(A, k)
            s = exhaustive_min_support(A, k)
            assert ct.cardinality == et.cardinality == s


def count_base_builds(monkeypatch) -> list[int]:
    """Count the l1 base builds (tumin.solve_l1_base, as grid.Metering
    calls it): the only from-scratch solve on the LP path."""
    calls = [0]
    real = grid.solve_l1_base

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(grid, "solve_l1_base", counted)
    return calls


class TestWarmSweep:
    """security_index solves a system's target-free l1 LP once and prices
    each meter by re-optimizing it (tumin.solve_warm)."""

    def test_every_meter_matches_enumeration_and_the_cut(self):
        rng = random.Random(23)
        feasible = pinned = 0
        for _ in range(60):
            net, meas, _ = random_flow_system(rng)
            mtr = metering(net, meas)
            for k in range(1, len(meas.flow_meters) + 1):
                if k in meas.protected:
                    continue
                prob = reduce_to_tu(net, meas, k)
                enumerated = exhaustive_min_support(prob.A, k, prob.I)
                try:
                    res = security_index(net, meas, k)
                except InfeasibleIndex:
                    assert enumerated is None
                    with pytest.raises(InfeasibleIndex):
                        mincut_index(net, meas, k)
                    pinned += 1
                    continue
                assert res.index == enumerated == mincut_index(net, meas, k).index
                assert res.attack.touched == solve_warm(mtr.l1_base, k).support
                assert len(res.attack.touched) == res.index
                assert res.attack.delta_z[k - 1] == 1.0
                assert res.attack.touched.isdisjoint(meas.protected)
                feasible += 1
        assert feasible > 100 and pinned > 0

    @pytest.mark.parametrize("buses, lines, total", [(118, 186, 537), (300, 411, 960)])
    def test_paper_scale_stand_ins_match_the_cut(self, buses, lines, total, monkeypatch):
        # synthetic grids of the paper's IEEE 118 and 300 sizes (the cases
        # themselves are not bundled): every meter's LP index is the cut's,
        # and the warm pivots pin the dual simplex's pricing
        net, meas = paper_stand_in(buses, lines)
        metering(net, meas).l1_base
        pivots = count_pivots(monkeypatch)
        got = [security_index(net, meas, k).index for k in range(1, lines + 1)]
        assert pivots[0] == STAND_IN_WARM_PIVOTS[buses]
        assert got == [mincut_index(net, meas, k).index for k in range(1, lines + 1)]
        assert sum(got) == total

    def test_unmetered_buses_leave_their_state_columns_fixed(self):
        # bus 4 has no metered line; buses 5 and 6 meet one metered line,
        # which the reference cannot reach through metered lines
        net = Network(6, ((1, 2, 1), (2, 3, 2), (1, 3, 3), (3, 4, 1), (4, 5, 1),
                          (5, 6, 2), (4, 6, 1), (2, 5, 3)))
        meas = MeasurementSystem((1, 2, 3, 6))
        space = metering(net, meas).meter_space
        moved = {c for pairs in space.state.values() for c, _ in pairs}
        assert 2 not in moved         # bus 4's column (buses 2..6 are columns 0..4)
        assert len(moved) == 3        # two columns have no state row: they stay 0
        for k, index in ((1, 2), (2, 2), (3, 2), (4, 1)):
            res = security_index(net, meas, k)
            assert res.index == index == mincut_index(net, meas, k).index
            assert res.index == solve_min_support(reduce_to_tu(net, meas, k)).cardinality
            assert len(res.attack.touched) == index and res.attack.delta_z[k - 1] == 1.0

    def test_a_radial_network_is_all_state_rows(self):
        # every line of a tree metered: each flow row is a state row, and
        # the LP left over y has no rows
        net = Network(5, ((1, 2, 1), (2, 3, 2), (2, 4, 1), (4, 5, 3)))
        meas = MeasurementSystem((1, 2, 3, 4))
        base = metering(net, meas).l1_base
        assert base.pos == base.neg == base.basis == [] == list(base.space.yrows)
        assert sorted({c for pairs in base.space.state.values() for c, _ in pairs}) == [0, 1, 2, 3]
        for k in range(1, 5):
            res = security_index(net, meas, k)
            assert res.index == 1 == mincut_index(net, meas, k).index
            assert res.attack.touched == {k} and res.attack.delta_z[k - 1] == 1.0

    def test_a_target_reads_the_kept_flow_rows(self, monkeypatch):
        net, meas = sixbus_network(), sixbus_meas({1})
        security_index(net, meas, 6)
        calls = []
        for module, name in ((grid, "incidence"), (tumin, "int_matrix"), (tumin, "sparse_rows")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for k in (2, 3, 5, 6, 7):
            security_index(net, meas, k)
        assert calls == []

    def test_no_target_changes_the_kept_base(self, monkeypatch):
        # a 42-bus grid whose meter k0 is pinned by a protected parallel line
        net0, meas0 = mesh_grid(1)
        k0 = min(set(range(1, 84)) - meas0.protected)
        net = Network(net0.n_buses, net0.lines + (net0.lines[k0 - 1],), net0.reference_bus)
        meas = MeasurementSystem(tuple(range(1, 85)), protected=meas0.protected | {84})
        base = metering(net, meas).l1_base
        kept = copy.deepcopy(base)
        assert base.pos and base.basis and base.space.state
        first = {}
        for k in sorted(set(range(1, 85)) - meas.protected):
            try:
                res = security_index(net, meas, k)
                first[k] = (res.index, res.attack.touched, res.attack.delta_z.tolist())
            except InfeasibleIndex:
                first[k] = None
            assert base == kept
        assert first[k0] is None and sum(v is None for v in first.values()) == 1
        # a target that raises mid-pivot: the copy gains a row whose sum
        # with the pivot row reaches 2
        real = lp._TernaryTableau.pivot

        def forged(tab, r, c):
            i = r - 1 if r else r + 1
            tab.pos[i], tab.neg[i] = 1 << c | tab.pos[r], 0
            real(tab, r, c)

        with monkeypatch.context() as m:
            m.setattr(lp._TernaryTableau, "pivot", forged)
            with pytest.raises(IntegralityError, match="left"):
                security_index(net, meas, max(first))
        assert base == kept
        for k, answer in first.items():
            try:
                res = security_index(net, meas, k)
                assert (res.index, res.attack.touched, res.attack.delta_z.tolist()) == answer
            except InfeasibleIndex:
                assert answer is None
        assert base == kept

    def test_a_second_call_solves_nothing_from_scratch(self, monkeypatch):
        calls = count_base_builds(monkeypatch)
        net, meas = sixbus_network(), sixbus_meas({1})
        first = security_index(net, meas, 6)
        assert calls == [1]
        again = security_index(net, meas, 6)
        assert (again.index, again.attack.touched) == (first.index, first.attack.touched)
        for k in (2, 3, 5, 7):
            security_index(net, meas, k)
        assert calls == [1]

    def test_each_system_builds_its_own_base(self, monkeypatch):
        calls = count_base_builds(monkeypatch)
        net = sixbus_network()
        security_index(net, sixbus_meas(), 6)
        security_index(net, sixbus_meas(), 6)     # an equal system shares the base
        assert calls == [1]
        security_index(net, sixbus_meas({1, 4}), 6)
        assert calls == [2]
        net2, meas2 = parse_case(SIXBUS_CASE)
        security_index(net2, meas2, 6)
        net3, meas3 = parse_case(SIXBUS_CASE)
        security_index(net3, meas3, 6)
        assert calls == [4]

    def test_a_pinned_meter_is_infeasible_on_the_warm_path(self, monkeypatch):
        calls = count_base_builds(monkeypatch)
        net = Network(3, ((1, 2, 1), (1, 2, 2), (2, 3, 1)))
        meas = MeasurementSystem((1, 2, 3), protected=frozenset({2}))
        assert security_index(net, meas, 3).index == 1
        with pytest.raises(InfeasibleIndex) as err:
            security_index(net, meas, 1)
        assert err.value.meter == 1
        assert calls == [1]

    def test_the_l1_path_never_enters_the_dict_kernel(self, monkeypatch):
        # the base is built and solved on the ternary tableau, with no
        # phase 1, no artificial column, no preprocess and no echelon basis
        def refuse(*args):
            raise AssertionError("the l1 path entered the dict kernel")

        monkeypatch.setattr(lp, "solve_lp", refuse)
        monkeypatch.setattr(lp, "_solve_standard_ints", refuse)
        monkeypatch.setattr(lp, "preprocess", refuse)
        monkeypatch.setattr(EchelonBasis, "reduce", refuse)
        net, meas = mesh_grid(5)
        assert meas.protected
        indices = [security_index(net, meas, k).index
                   for k in sorted(set(range(1, 84)) - meas.protected)]
        assert sum(indices) > 80
        rng = random.Random(2222)
        solved = [solve_min_support(random_tu_problem(rng)) for _ in range(100)]
        assert 0 < solved.count(None) < 50

    def test_an_unfinished_warm_solve_is_a_defect(self, monkeypatch):
        # the appended row's slack stays basic at -1 unless the dual simplex
        # runs on the ternary tableau
        skipped = []
        monkeypatch.setattr(lp, "_run_dual_simplex",
                            lambda tab, pivots: skipped.append(type(tab)) or lp.LpStatus.OPTIMAL)
        with pytest.raises(SolverDefect, match="negative basic value"):
            security_index(sixbus_network(), sixbus_meas(), 6)
        assert skipped == [lp._TernaryTableau]

    def test_the_base_stays_with_its_objects(self):
        net, meas = parse_case(SIXBUS_CASE)
        security_index(net, meas, 6)
        assert "_meterings" not in pickle.loads(pickle.dumps(net)).__dict__
        res = pickle.loads(pickle.dumps(security_index(net, meas, 6)))
        assert (res.index, res.attack.touched) == (3, security_index(net, meas, 6).attack.touched)
        gone = weakref.ref(metering(net, meas))
        del net, meas
        gc.collect()
        assert gone() is None

    def test_only_the_max_flow_builds_the_arc_form(self):
        # the LP and MILP routes read their flow rows off the lines' ends
        net, meas = parse_case(SIXBUS_CASE)
        assert security_index(net, meas, 6).index == milp_solve(net, meas, 6).index == 3
        assert "arcs" not in vars(metering(net, meas))
        assert mincut_index(net, meas, 6).index == 3
        assert "arcs" in vars(metering(net, meas))
