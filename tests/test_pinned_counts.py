"""Pinned pivot and node counts.

The pivot rules (Bland: smallest column with a negative reduced cost;
Dantzig: most negative, smallest column on ties; ratio ties to the smallest
basic index) fix every pivot sequence, so any simplex kernel that keeps the
rules reproduces these counts.  A differing count means a tie-break moved.
The solver prices by Dantzig with a Bland fallback; the Bland sequences
are reached by setting its Dantzig allowance to 0 (conftest.price_by).
"""
import random

import pytest

from conftest import IEEE14_CASE, price_by
from gridsec import lp, oracle, security, tumin
from gridsec.grid import metering, parse_case
from test_lp import _random_feasible_lp

# lp.solve_lp on tumin.build_l1_lp, the meter-space l1 LP, per ieee14 meter
IEEE14_SWEEP_PIVOTS = {
    "bland": [4, 5, 4, 7, 5, 4, 9, 4, 6, 6,
              4, 4, 8, 3, 4, 3, 3, 3, 4, 7],
    "dantzig": [4, 5, 4, 6, 5, 4, 6, 4, 6, 6,
                4, 4, 8, 3, 4, 3, 3, 3, 4, 7],
}
# the warm step's dual simplex (security_index on the kept base) per ieee14
# meter; equal under both rules, since every Dantzig choice here is also
# Bland's
IEEE14_WARM_PIVOTS = [2, 3, 3, 4, 4, 1, 5, 2, 4, 4,
                      2, 2, 3, 1, 1, 4, 3, 4, 1, 3]
# one _random_feasible_lp(random.Random(seed)) per seed 0..19
RANDOM_LP_PIVOTS = {
    "bland": [5, 2, 0, 2, 2, 4, 1, 3, 3, 8, 1, 6, 4, 3, 0, 1, 6, 5, 2, 0],
    "dantzig": [5, 2, 0, 1, 2, 4, 1, 3, 2, 7, 1, 5, 4, 3, 0, 1, 3, 4, 2, 0],
}
MILP_NODES = {4: 21, 11: 1, 16: 1}


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_ieee14_sweep_pivots(rule, monkeypatch):
    price_by(monkeypatch, rule)
    net, meas = parse_case(IEEE14_CASE)
    got = [lp.solve_lp(tumin.build_l1_lp(security.reduce_to_tu(net, meas, k))).pivots
           for k in range(1, 21)]
    assert got == IEEE14_SWEEP_PIVOTS[rule]


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_ieee14_warm_pivots(rule, monkeypatch):
    price_by(monkeypatch, rule)
    net, meas = parse_case(IEEE14_CASE)
    metering(net, meas).l1_base
    pivots = [0]
    real = lp._count_pivot
    monkeypatch.setattr(lp, "_count_pivot",
                        lambda p, budget: pivots.__setitem__(0, pivots[0] + 1) or real(p, budget))
    got = []
    for k in range(1, 21):
        pivots[0] = 0
        security.security_index(net, meas, k)
        got.append(pivots[0])
    assert got == IEEE14_WARM_PIVOTS


@pytest.mark.parametrize("rule", ["bland", "dantzig"])
def test_random_lp_pivots(rule, monkeypatch):
    price_by(monkeypatch, rule)
    got = [lp.solve_lp(_random_feasible_lp(random.Random(seed))).pivots
           for seed in range(20)]
    assert got == RANDOM_LP_PIVOTS[rule]


def test_ieee14_milp_nodes():
    net, meas = parse_case(IEEE14_CASE)
    got = {k: oracle.solve_milp_instance(security.reduce_to_tu(net, meas, k), oracle._big_m(net))[3]
           for k in MILP_NODES}
    assert got == MILP_NODES
