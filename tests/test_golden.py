"""Golden answers of the warm l1 sweep, bit for bit.

security_index is run on every unprotected meter of a few seeded 42-bus
flow-only grids (conftest.mesh_grid), with 3 protected meters and with
none, and a sha256 is taken over each meter's (index, sorted touched,
delta_z, delta_theta), floats by repr; the 652 targets take about 0.6 s.
Any change of pivot rule, witness or scaling shows here, so kernel work
must keep the digests or say why they moved.

The unprotected digest was captured before the base moved to the ternary
kernel and still holds: those grids' base LP is the same, solved by the
same rules.  The protected digest moved with it: the protected rows are
now eliminated before the unprotected ones, so the base starts from
other rows and stops at another optimal basis.  No index changed; 36 of
the 320 witnesses did, each to another witness of min-cut size.

Both sweep digests moved when the dual simplex came to leave by steepest
edge: the warm step stops at other optimal bases.  No index changed; 20
of the 320 protected and 19 of the 332 unprotected witnesses did, each to
another witness of min-cut size (checked against mincut_index).  The
sweeps also pin the warm step's total dual pivots, the bases' own pivots
left out: 3381 and 3383 under the old leaving rule (smallest basic index
among the values farthest out), 2342 and 2412 by steepest edge.

The MILP digest takes the same answers from oracle.milp_solve on every
unprotected ieee14 meter, with no protection and under 3 seeded plans, so
a change to the branch and bound's arithmetic must leave its node
sequence and witnesses as they were.  It moved when the root came to be
built on the state-eliminated rows from a crash basis: the root stops at
another optimal basis.  No index changed; 2 of the 71 witnesses did
(meter 7, unprotected and under the plan {13, 15, 16}: lines 1, 5, 7, 10
became 3, 4, 7, 10), each to another witness of min-cut size 4.  It
moved again when the root took the l1 base's column layout (t'-_j r
columns after t'+_j, no longer next to it) and its crash rule
(lp._crash_basis), so the root starts from another basis.  No index
changed; 9 of the 71 witnesses did, each to another witness of min-cut
size.  Unprotected and under {13, 15, 16}: meters 4 and 5 (lines 1, 3,
4, 5 became 2, 3, 4, 5) and meter 7 (3, 4, 7, 10 became 2, 5, 7, 10).
Under {4, 9, 16}: meters 5 and 7 (1, 5, 7, 10 became 2, 5, 7, 10) and
meter 10 (10, 11, 17 became 10, 17, 18).

The bounds digest takes security_index_bounds on every unprotected flow
meter of injection-metered systems: mesh_grid seeds 1-3, each with 8
seeded injection meters, and 60 draws of conftest.random_injection_system.
It hashes the bracket, the sorted touched meters and the exact bytes of
delta_z and delta_theta, so a change to the candidate cut sides, the tie
rule or the witness read-back shows here.
"""
import hashlib
import random

from gridsec import MeasurementSystem, parse_case, security_index, security_index_bounds
from gridsec.errors import InfeasibleIndex
from gridsec.grid import metering
from gridsec.oracle import milp_solve

from conftest import IEEE14_CASE, count_pivots, mesh_grid, random_injection_system

SEEDS = (1, 2, 3, 4)
GOLDEN = "e12dd4943f4b3ec005f5a174756b395afb9d1a7e68432bc8a75ef399fcde4bc4"
GOLDEN_UNPROTECTED = "56453f25ee5bfe246465613925384f6b42b8e3912f8008d67a533ffd4e5fbf85"
WARM_PIVOTS = {3: 2342, 0: 2412}      # by the number of protected meters
GOLDEN_MILP = "11f341b78398662ec006c16755504ab2ba733262167798bc82cf0f9c3c483181"
GOLDEN_BOUNDS = "688b85b95d0356b3a862d50e8c6116a38f0b6cf91ddf8aeeecfdc35a599922be"


def _answer(solve, net, meas, k):
    """(index, sorted touched, delta_z, delta_theta) of meter k, floats by
    repr, or (None,) when no attack reaches it."""
    try:
        res = solve(net, meas, k)
    except InfeasibleIndex:
        return (None,)
    a = res.attack
    return res.index, sorted(a.touched), a.delta_z.tolist(), a.delta_theta.tolist()


def _sweep(protect, monkeypatch):
    """The digest of the sweep's answers and its warm pivots, counted
    after each grid's base is built."""
    pivots = count_pivots(monkeypatch)
    answers, warm = [], 0
    for seed in SEEDS:
        net, meas = mesh_grid(seed, protect=protect)
        metering(net, meas).l1_base
        pivots[0] = 0
        for k in range(1, len(meas.flow_meters) + 1):
            if k not in meas.protected:
                answers.append((seed, k) + _answer(security_index, net, meas, k))
        warm += pivots[0]
    assert len(answers) == 4 * (83 - protect)
    return hashlib.sha256(repr(answers).encode()).hexdigest(), warm


def test_the_sweep_gives_the_golden_answers(monkeypatch):
    assert _sweep(3, monkeypatch) == (GOLDEN, WARM_PIVOTS[3])


def test_the_unprotected_sweep_gives_the_golden_answers(monkeypatch):
    assert _sweep(0, monkeypatch) == (GOLDEN_UNPROTECTED, WARM_PIVOTS[0])


def test_the_milp_gives_the_golden_answers():
    # every unprotected ieee14 meter by the MILP oracle, with no protection
    # and under 3 seeded plans of 3 protected meters
    net, meas = parse_case(IEEE14_CASE)
    rng = random.Random(1)
    plans = [frozenset()] + [frozenset(rng.sample(range(1, 21), 3)) for _ in range(3)]
    answers = []
    for plan in plans:
        system = MeasurementSystem(meas.flow_meters, protected=plan)
        answers += [(sorted(plan), k) + _answer(milp_solve, net, system, k)
                    for k in range(1, 21) if k not in plan]
    assert len(answers) == 20 + 3 * 17
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == GOLDEN_MILP


def _bracket(net, meas, k):
    """(bounds, sorted touched, delta_z bytes, delta_theta bytes) of meter
    k's bracket, or (None,) when no attack reaches it."""
    try:
        res = security_index_bounds(net, meas, k)
    except InfeasibleIndex:
        return (None,)
    a = res.attack
    return res.bounds, sorted(a.touched), a.delta_z.tobytes().hex(), a.delta_theta.tobytes().hex()


def test_the_bounds_give_the_golden_answers():
    answers = []
    for seed in (1, 2, 3):
        net, meas = mesh_grid(seed)
        injections = tuple(sorted(random.Random(seed).sample(net.state_buses, 8)))
        system = MeasurementSystem(meas.flow_meters, injections, meas.protected)
        answers += [(seed, k) + _bracket(net, system, k)
                    for k in range(1, len(meas.flow_meters) + 1) if k not in meas.protected]
    rng = random.Random(36)
    for draw in range(60):
        net, meas, _ = random_injection_system(rng)
        answers += [("draw", draw, k) + _bracket(net, meas, k)
                    for k in range(1, len(meas.flow_meters) + 1) if k not in meas.protected]
    assert len(answers) == 464 and sum(a[-1] is None for a in answers) == 17
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == GOLDEN_BOUNDS
