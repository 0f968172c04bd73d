"""Security indices, bounds with injections, and critical tuples."""
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    SIXBUS_A,
    SIXBUS_A_FULL,
    incidence_transpose,
    random_connected_edges,
    sixbus_meas,
    sixbus_network,
)
from oracle_helpers import full_h_min_support
from gridsec import (
    MeasurementSystem,
    Network,
    check_conditions,
    exhaustive_min_support,
    exhaustive_min_tuple,
    min_critical_tuple,
    reduce_to_tu,
    security_index,
    security_index_bounds,
)
from gridsec.errors import (
    ConditionViolated,
    HasInjections,
    InfeasibleIndex,
    ProtectedInjection,
    TargetIsInjection,
    UnknownMeterId,
    ValidationError,
)
from gridsec.grid import _exact_H_rows, build_H, metering
from gridsec.mincut import max_flow, witness
from gridsec.security import _witness_attack


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
    """A random exact state move that shifts meter k's line by +1, or None."""
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
         for _ in range(net.n_states)]
    pot = dict(zip(net.state_buses, x))
    ln = net.lines[meas.flow_meters[k - 1] - 1]
    w = pot.get(ln.from_bus, 0) - pot.get(ln.to_bus, 0)
    return [v / w for v in x] if w else None


class TestWitnessEvaluator:
    def assert_matches_rows(self, net, meas, k, x):
        dtheta, dz, touched = _witness_attack(metering(net, meas), k, x)
        xk = net.lines[meas.flow_meters[k - 1] - 1].reactance
        assert dtheta == [xk * v for v in x]
        image = [sum((a * d for a, d in zip(row, dtheta)), Fraction(0))
                 for row in _exact_H_rows(net, meas)]
        assert dz == image
        assert touched == frozenset(i + 1 for i, v in enumerate(image) if v)
        assert dz[k - 1] == 1

    def test_matches_exact_rows_on_random_systems(self):
        rng = random.Random(505)
        cuts = 0
        for _ in range(300):
            net, meas, k = random_injection_system(rng)
            x = random_move(rng, net, meas, k)
            if x is not None:
                self.assert_matches_rows(net, meas, k, x)
            try:
                cut = max_flow(metering(net, MeasurementSystem(meas.flow_meters, (), meas.protected)), k)
            except InfeasibleIndex:
                continue
            cuts += 1
            for side in (cut.source_side, frozenset(range(1, net.n_buses + 1)) - cut.sink_side):
                self.assert_matches_rows(net, meas, k, witness(metering(net, meas), k, side))
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
