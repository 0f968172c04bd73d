"""End-to-end acceptance gate.

Each criterion is one test that prints a single PASS or FAIL line directly
to the real stdout (bypassing capture) and enforces its stated tolerance
and runtime budget.  Expected values come from independent enumeration
oracles or are frozen constants cross-checked against them.
"""
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    IEEE14_CASE,
    SIXBUS_A_FULL,
    SIXBUS_OPTIMA,
    incidence_transpose,
    random_connected_edges,
    random_injection_system,
    random_tu_problem,
)
from oracle_helpers import box_restricted_matches, full_h_min_support
from test_lp import _random_feasible_lp
from gridsec import (
    build_H,
    bdd_residual,
    craft_attack,
    exhaustive_min_support,
    exhaustive_min_tuple,
    min_critical_tuple,
    mutual_coherence,
    nullspace_reformulate,
    rip_constant,
    security_index,
    security_index_bounds,
)
from gridsec.cli import run_batch
from gridsec.errors import InfeasibleIndex
from gridsec.exactla import int_rank
from gridsec.grid import Line, Network, _exact_H_rows, parse_case
from gridsec.lp import LpStatus, StandardFormLP, preprocess, solve_lp, verify_bfs
from gridsec.oracle import coherence_bound
from gridsec.tumin import TUProblem, solve_min_support, validate_integrality

# pinned by exhaustive enumeration and by the MILP solver independently
IEEE14_INDICES = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 2, 7: 4, 8: 2, 9: 3,
                  10: 3, 11: 2, 12: 2, 13: 3, 14: 1, 15: 2, 16: 2, 17: 2,
                  18: 2, 19: 2, 20: 2}


@pytest.fixture
def report(capfd):
    """Run a criterion body and print its verdict on the real stdout."""
    def _report(n, fn):
        t0 = time.perf_counter()
        try:
            fn()
        except BaseException:
            dt = time.perf_counter() - t0
            with capfd.disabled():
                print(f"ACCEPTANCE {n}: FAIL ({dt:.2f}s)", flush=True)
            raise
        dt = time.perf_counter() - t0
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: PASS ({dt:.2f}s)", flush=True)
    return _report


def test_criterion_1_counterexample_and_diagnostics(report):
    def check():
        t0 = time.perf_counter()
        prob = TUProblem(SIXBUS_A_FULL, 6)
        sol = solve_min_support(prob)
        assert sol is not None and sol.cardinality == 3
        assert validate_integrality(sol, prob)
        ax = tuple(int(v) for v in SIXBUS_A_FULL @ np.array(sol.x))
        if ax not in SIXBUS_OPTIMA:
            # any other optimum must still hit the target and be certified
            # minimal by enumeration
            assert ax[5] == 1
            assert sum(v != 0 for v in ax) == 3
            assert exhaustive_min_support(SIXBUS_A_FULL, 6) == 3

        inst = nullspace_reformulate(SIXBUS_A_FULL, 6)
        phi = np.asarray(inst.phi, dtype=float)
        assert abs(mutual_coherence(phi) - 1.0) <= 1e-9
        assert abs(coherence_bound(phi) - 1.0) <= 1e-9
        assert rip_constant(phi, 2) >= 1.0
        assert time.perf_counter() - t0 < 1.0
    report(1, check)


def test_criterion_2_relaxation_exactness_on_tu_instances(report):
    def check():
        t0 = time.perf_counter()
        rng = random.Random(214)
        for _ in range(200):
            prob = random_tu_problem(rng)
            want = exhaustive_min_support(prob.A, prob.k, prob.I)
            sol = solve_min_support(prob)
            if want is None:
                assert sol is None
            else:
                assert sol is not None
                assert sol.cardinality == want
                assert validate_integrality(sol, prob)
        assert time.perf_counter() - t0 < 60.0
    report(2, check)


def test_criterion_3_unit_box_restriction_is_free(report):
    def check():
        rng = random.Random(333)
        for _ in range(80):
            prob = random_tu_problem(rng)
            assert box_restricted_matches(prob.A, prob.k, prob.I)
    report(3, check)


def test_criterion_4_tuple_reduction_on_flow_systems(report):
    def check():
        from gridsec import check_conditions
        rng = random.Random(414)
        for _ in range(40):
            n, edges = random_connected_edges(rng, max_nodes=7)
            A = incidence_transpose(n, edges, truncate=True)
            assert check_conditions(A, 1) == (True, True)
            k = rng.randint(1, A.shape[0])
            s = solve_min_support(TUProblem(A, k)).cardinality
            et = exhaustive_min_tuple(A, k)
            ct = min_critical_tuple(A, k)
            assert s == et.cardinality == ct.cardinality
            # re-verify the returned tuple against both rank conditions
            states = A.shape[1]
            rows = [[int(v) for v in A[j - 1]] for j in range(1, A.shape[0] + 1)
                    if j not in ct.members]
            assert int_rank(rows) < states if rows else states > 0
            rows_k = rows + [[int(v) for v in A[k - 1]]]
            assert int_rank(rows_k) == states
    report(4, check)


def test_criterion_5_ieee14_lp_vs_milp(report):
    def check():
        t0 = time.perf_counter()
        report = run_batch(IEEE14_CASE, methods=("lp", "mincut", "milp"), jobs=1)
        assert report.mismatches == ()
        by = {m: {e.meter: e for e in report.entries if e.method == m}
              for m in ("lp", "mincut", "milp")}
        assert len(by["lp"]) == len(by["milp"]) == len(by["mincut"]) == 20
        for k in range(1, 21):
            assert by["lp"][k].index == by["milp"][k].index == IEEE14_INDICES[k]
            assert by["mincut"][k].index == IEEE14_INDICES[k]
        lp_total = sum(e.seconds for e in by["lp"].values())
        milp_total = sum(e.seconds for e in by["milp"].values())
        assert lp_total < milp_total
        assert min(e.index for e in by["lp"].values()) <= 2
        assert time.perf_counter() - t0 < 300.0
    report(5, check)


def test_criterion_6_reactance_scaling_invariance(report):
    def check():
        net, meas = parse_case(IEEE14_CASE)
        rng = random.Random(614)
        lines = tuple(
            Line(l.from_bus, l.to_bus,
                 l.reactance * Fraction(rng.randint(1, 20), rng.randint(1, 20)))
            for l in net.lines)
        scaled = Network(net.n_buses, lines, net.reference_bus)
        for k in range(1, meas.n_meters + 1):
            a = security_index(net, meas, k)
            b = security_index(scaled, meas, k)
            assert a.index == b.index
            assert a.attack.touched == b.attack.touched
    report(6, check)


def test_criterion_7_attack_invisibility(report):
    def check():
        net, meas = parse_case(IEEE14_CASE)
        H = build_H(net, meas)
        m, n = H.H.shape
        w = np.ones(m)
        rng = np.random.default_rng(714)
        for _ in range(50):
            theta = rng.normal(size=n)
            z = H.H @ theta + 0.01 * rng.normal(size=m)
            dtheta = rng.normal(size=n)
            attack = craft_attack(H, dtheta)
            r1, n1 = bdd_residual(H, w, z)
            r2, _ = bdd_residual(H, w, z + attack.delta_z)
            assert np.linalg.norm(r2 - r1) <= 1e-8 * max(1.0, n1)
    report(7, check)


def test_criterion_8_injection_bounds_bracket_optimum(report):
    def check():
        rng = random.Random(814)
        done = 0
        while done < 20:
            net, meas, k = random_injection_system(rng)
            rows = _exact_H_rows(net, meas)
            try:
                res = security_index_bounds(net, meas, k)
            except InfeasibleIndex:
                assert full_h_min_support(rows, k, meas.protected) is None
                continue
            opt = full_h_min_support(rows, k, meas.protected)
            assert opt is not None
            lo, hi = res.bounds
            assert lo <= opt <= hi
            done += 1
    report(8, check)


def test_criterion_9_simplex_terminates_and_certifies(report):
    def check():
        rng = random.Random(914)
        instances = [_random_feasible_lp(rng) for _ in range(60)]
        for _ in range(60):
            l = rng.randint(1, 4)
            p = rng.randint(1, l + 4)
            C = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(l)]
            d = [rng.randint(-6, 6) for _ in range(l)]
            f = [rng.randint(-3, 5) for _ in range(p)]
            instances.append(StandardFormLP.create(C, d, f))
        # the classic degenerate instance that cycles under naive Dantzig
        instances.append(StandardFormLP.create(
            [[1, 0, 0, Fraction(1, 4), -60, Fraction(-1, 25), 9],
             [0, 1, 0, Fraction(1, 2), -90, Fraction(-1, 50), 3],
             [0, 0, 1, 0, 0, 1, 0]],
            [0, 0, 1],
            [0, 0, 0, Fraction(-3, 4), 150, Fraction(-1, 50), 6]))
        for inst in instances:
            cap = 10_000 + 60 * (inst.num_rows + inst.num_vars)
            out = solve_lp(inst)  # raises if the cap is hit
            assert out.pivots <= cap
            if out.status is LpStatus.OPTIMAL:
                assert verify_bfs(preprocess(inst), out.solution)
    report(9, check)
