"""Min-cut security indices: differential checks and the path certificate."""
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from conftest import (
    IEEE14_CASE,
    random_connected_edges,
    sixbus_meas,
    sixbus_network,
)
from gridsec import (
    MeasurementSystem,
    Network,
    bdd_residual,
    build_H,
    exhaustive_min_support,
    mincut_index,
    parse_case,
    reduce_to_tu,
    security,
    security_index,
    security_index_bounds,
)
from gridsec.errors import HasInjections, InfeasibleIndex, SolverDefect, ValidationError
from gridsec.grid import metering
from gridsec.mincut import check_certificate, max_flow, witness
from gridsec.oracle import milp_solve, solve_milp_instance

IEEE14_INDICES = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 2, 7: 4, 8: 2, 9: 3,
                  10: 3, 11: 2, 12: 2, 13: 3, 14: 1, 15: 2, 16: 2, 17: 2,
                  18: 2, 19: 2, 20: 2}


def random_flow_system(rng: random.Random, max_nodes: int = 8):
    """Partially metered network with a random reference bus, a random
    target and up to three protected meters."""
    n, edges = random_connected_edges(rng, max_nodes)
    lines = tuple((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for u, v in edges)
    net = Network(n, lines, rng.randint(1, n))
    m = len(lines)
    flows = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, m))))
    k = rng.randint(1, len(flows))
    pool = [j for j in range(1, len(flows) + 1) if j != k]
    protected = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 3))))
    return net, MeasurementSystem(flows, (), protected), k


def index_or_none(solve, *args):
    try:
        return solve(*args).index
    except InfeasibleIndex:
        return None


def networkx_index(net, meas, k):
    """Independent oracle: minimum u-v cut by networkx on the metered lines."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(1, net.n_buses + 1))
    unbounded = len(meas.flow_meters) + 1
    for i, lid in enumerate(meas.flow_meters, start=1):
        ln = net.lines[lid - 1]
        cap = unbounded if i in meas.protected else 1
        if graph.has_edge(ln.from_bus, ln.to_bus):
            graph[ln.from_bus][ln.to_bus]["capacity"] += cap
        else:
            graph.add_edge(ln.from_bus, ln.to_bus, capacity=cap)
    target = net.lines[meas.flow_meters[k - 1] - 1]
    value, _ = nx.minimum_cut(graph, target.from_bus, target.to_bus)
    return None if value >= unbounded else value


@st.composite
def flow_systems(draw, max_buses: int = 8):
    """Connected network (random spanning tree plus extra lines, random
    orientations and reactances, random reference bus), partial flow
    metering, a random target and up to three protected meters."""
    n = draw(st.integers(3, max_buses))
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    extra = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(extra, max_size=n))
    edges = draw(st.permutations(edges))
    lines = tuple((v, u) if draw(st.booleans()) else (u, v) for u, v in edges)
    lines = tuple((u, v, Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))))
                  for u, v in lines)
    net = Network(n, lines, draw(st.integers(1, n)))
    flows = tuple(sorted(draw(st.sets(st.integers(1, len(lines)), min_size=1))))
    k = draw(st.integers(1, len(flows)))
    pool = [j for j in range(1, len(flows) + 1) if j != k]
    protected = draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else set()
    return net, MeasurementSystem(flows, (), frozenset(protected)), k


def assert_methods_agree(net, meas, k):
    """mincut == exhaustive == lp == milp == networkx; returns the common
    index (None when protection pins the target)."""
    got = index_or_none(mincut_index, net, meas, k)
    prob = reduce_to_tu(net, meas, k)
    assert got == exhaustive_min_support(prob.A, prob.k, prob.I)
    assert got == index_or_none(security_index, net, meas, k)
    # milp_solve also checks its witness touches exactly its support
    assert got == index_or_none(milp_solve, net, meas, k)
    assert got == networkx_index(net, meas, k)
    return got


class TestDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flow_systems())
    def test_agrees_with_lp_exhaustive_and_networkx(self, system):
        """The property includes milp_solve."""
        assert_methods_agree(*system)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_differential_covers_both_outcomes(self, pinned):
        system = find(flow_systems(), lambda s: (index_or_none(mincut_index, *s) is None) == pinned,
                      settings=settings(database=None, derandomize=True,
                                        phases=[Phase.generate]))
        assert (assert_methods_agree(*system) is None) == pinned

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(flow_systems(), st.sampled_from([Fraction(5, 2), Fraction(7, 3), Fraction(1, 2),
                                            Fraction(2, 3)]))
    def test_warm_branch_and_bound_with_a_fractional_big_m(self, system, big_m):
        # a big-M with a denominator scales the box rows; from 2 up it is
        # valid for incidence rows, below 2 it can only cost more support
        net, meas, k = system
        prob = reduce_to_tu(net, meas, k)
        want = exhaustive_min_support(prob.A, prob.k, prob.I)
        out = solve_milp_instance(prob, big_m)
        if big_m >= 2 or want is None:
            assert (None if out is None else out[0]) == want
        else:
            assert out is None or out[0] >= want
        if out is not None:
            value, d, support, _ = out
            Ad = [sum(a * v for a, v in zip(row, d)) for row in prob.A.tolist()]
            assert Ad[k - 1] == 1
            assert all(Ad[j - 1] == 0 for j in meas.protected)
            assert all(abs(v) <= big_m for j, v in enumerate(Ad, start=1) if j != k)
            assert support == {j for j, v in enumerate(Ad, start=1) if v}
            assert len(support) == value

    def test_witness_is_an_unobservable_attack(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            net, meas, k = random_flow_system(rng)
            try:
                res = mincut_index(net, meas, k)
            except InfeasibleIndex:
                continue
            H = build_H(net, meas).H
            atk = res.attack
            assert res.method == "mincut"
            assert res.bounds == (res.index, res.index)
            assert atk.delta_z[k - 1] == 1.0
            assert len(atk.touched) == res.index
            assert atk.touched.isdisjoint(meas.protected)
            assert np.allclose(H @ atk.delta_theta, atk.delta_z, atol=1e-12)
            if np.linalg.matrix_rank(H) == H.shape[1]:
                z = H @ np.ones(H.shape[1]) + 0.01 * np.arange(H.shape[0])
                r0, _ = bdd_residual(H, None, z)
                r1, _ = bdd_residual(H, None, z + atk.delta_z)
                assert np.max(np.abs(r1 - r0)) <= 1e-8
            checked += 1

    def test_flow_only_bracket_closes_on_the_mincut_attack(self):
        rng = random.Random(11)
        checked = 0
        while checked < 150:
            net, meas, k = random_flow_system(rng)
            try:
                cut = mincut_index(net, meas, k)
            except InfeasibleIndex:
                with pytest.raises(InfeasibleIndex):
                    security_index_bounds(net, meas, k)
                continue
            i = cut.index
            assert i == security_index(net, meas, k).index
            res = security_index_bounds(net, meas, k)
            assert res.bounds == (i, i)
            assert np.array_equal(res.attack.delta_z, cut.attack.delta_z)
            assert res.attack.touched == cut.attack.touched
            checked += 1

    def test_an_open_flow_only_bracket_is_a_defect(self, monkeypatch):
        bounds = security.security_index_bounds
        monkeypatch.setattr(security, "security_index_bounds",
                            lambda *args: replace(bounds(*args), bounds=(2, 3)))
        net, meas = sixbus_network(), sixbus_meas()
        with pytest.raises(SolverDefect, match="did not close"):
            mincut_index(net, meas, 1)

    def test_ieee14_published_indices(self):
        net, meas = parse_case(IEEE14_CASE)
        got = {k: mincut_index(net, meas, k).index for k in range(1, 21)}
        assert got == IEEE14_INDICES

    def test_bounds_lower_is_the_flow_only_cut(self):
        rng = random.Random(88)
        for _ in range(40):
            n, edges = random_connected_edges(rng, 6)
            net = Network(n, tuple((u, v, Fraction(rng.randint(1, 5), 3))
                                   for u, v in edges), rng.randint(1, n))
            buses = [b for b in range(1, n + 1) if b != net.reference_bus]
            inj = tuple(sorted(rng.sample(buses, rng.randint(1, len(buses)))))
            flows = tuple(range(1, len(edges) + 1))
            k = rng.randint(1, len(flows))
            res = security_index_bounds(net, MeasurementSystem(flows, inj), k)
            assert res.bounds[0] == mincut_index(net, MeasurementSystem(flows), k).index

    @pytest.mark.parametrize("bus", [3, 4])
    def test_bounds_keep_the_cut_touching_fewer_injections(self, bus):
        # meter 1 (bus 1 -> 2) has two minimum cuts, {1-2, 1-3} and
        # {1-2, 4-2}; each touches one of the injection buses 3 and 4
        net = Network(4, ((1, 2, 1), (1, 3, 1), (3, 4, 1), (4, 2, 1)))
        res = security_index_bounds(net, MeasurementSystem((1, 2, 3, 4), (bus,)), 1)
        assert res.bounds == (2, 2)
        assert res.attack.touched.isdisjoint({5})


class TestContract:
    def test_six_bus_values(self):
        net, meas = sixbus_network(), sixbus_meas()
        got = {k: mincut_index(net, meas, k).index for k in range(1, 8)}
        assert got == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2}

    def test_protection_pinning_target_is_infeasible(self):
        net = Network(2, ((1, 2, 1), (1, 2, 2)))
        meas = MeasurementSystem((1, 2), protected=frozenset({2}))
        with pytest.raises(InfeasibleIndex) as err:
            mincut_index(net, meas, 1)
        assert err.value.meter == 1

    def test_rejects_injections_and_protected_target(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        with pytest.raises(HasInjections):
            mincut_index(net, MeasurementSystem((1, 2), (2,)), 1)
        with pytest.raises(ValidationError):
            mincut_index(net, MeasurementSystem((1, 2), (), frozenset({1})), 1)

    def test_unmetered_lines_carry_no_flow(self):
        # a triangle metered on one line only: cutting it alone suffices
        net = Network(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1)))
        res = mincut_index(net, MeasurementSystem((1,)), 1)
        assert res.index == 1


class TestCertificate:
    """A square 1-2-3-4 with diagonal 1-3; meter 1 is line 1 (1 -> 2)."""

    def setup_method(self):
        self.net = Network(4, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 1)))
        self.meas = MeasurementSystem((1, 2, 3, 4, 5))
        mtr = metering(self.net, self.meas)
        cut = max_flow(mtr, 1)
        self.x = witness(mtr, 1, cut.source_side)
        self.paths = cut.paths

    def check(self, paths, x=None, meas=None):
        mtr = metering(self.net, meas or self.meas)
        _, dz, touched = security._witness_attack(mtr, 1, self.x if x is None else x)
        check_certificate(mtr, 1, paths, dz, touched)

    def test_solver_output_passes(self):
        assert len(self.paths) == 2
        self.check(self.paths)

    def test_rejects_shared_unit_line(self):
        # both paths leave through line 5 and reach bus 2 over line 2
        with pytest.raises(SolverDefect, match="two paths"):
            self.check(((1,), (5, 2), (5, 2)))

    def test_rejects_path_missing_an_edge(self):
        with pytest.raises(SolverDefect, match="breaks"):
            self.check(((1,), (2,)))
        with pytest.raises(SolverDefect, match="does not end"):
            self.check(((1,), (5,)))

    def test_rejects_count_mismatch(self):
        with pytest.raises(SolverDefect, match="disjoint paths"):
            self.check(((1,),))

    def test_rejects_unmetered_line(self):
        meas = MeasurementSystem((1, 2, 3, 4))
        with pytest.raises(SolverDefect, match="unmetered"):
            self.check(((1,), (5, 2)), x=(-1, 0, 0), meas=meas)

    def test_rejects_a_witness_that_misses_the_target(self):
        with pytest.raises(SolverDefect, match="target"):
            self.check(self.paths, x=(0, 0, 0))

    def test_rejects_a_witness_that_touches_a_protected_meter(self):
        # with line 2 protected the paths stay valid, but the witness moves it
        meas = replace(self.meas, protected=frozenset({2}))
        with pytest.raises(SolverDefect, match="protected"):
            self.check(self.paths, meas=meas)

    @pytest.mark.parametrize("solve", [mincut_index, security_index_bounds])
    def test_rejects_a_reported_attack_with_an_extra_meter(self, monkeypatch, solve):
        # the certificate checks the attack that is reported, so an
        # evaluator that adds an untouched flow meter must not get through
        evaluate = security._witness_attack

        def padded(*args):
            dtheta, dz, touched = evaluate(*args)
            extra = min(set(range(1, 6)) - touched)
            return dtheta, dz, touched | {extra}

        monkeypatch.setattr(security, "_witness_attack", padded)
        with pytest.raises(SolverDefect, match="disjoint paths"):
            solve(self.net, self.meas, 1)
