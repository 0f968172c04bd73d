"""Flow-only security indices as minimum cuts, with a checked certificate.

For flow-only metering the index of meter k equals the minimum cut between
the endpoints u, v of its line in the bus graph whose edges are the metered
lines: capacity 1 on an unprotected line, unbounded on a protected one, and
no edge for an unmetered line (Sou, Sandberg & Johansson 2013; Hendrickx
et al. 2014).  An attack that moves meter k assigns potentials that differ
at u and v, so every u-v path carries a line whose flow it changes; a cut
(one side at potential 0, the other at +-1) changes exactly the lines
crossing it.

The solve is an Edmonds-Karp max-flow on the standard library alone, over
flat lists: one residual per arc, and per search the buses it reached and
the arc into each.  Its two cuts, the buses reachable from u and those
reaching v in the final residual graph, are the same for every maximum
flow (Ford & Fulkerson 1956; Picard & Queyranne 1980).  Beside the cut it
returns the flow itself, and check_certificate() confirms weak duality on
every solve: the flow respects the capacities, is conserved away from u
and v and carries its value from u to v, and the attack that is reported
touches exactly that many flow meters, which makes both the cut and the
flow optimal.

Each function reads the system's grid.Metering, whose metered-line graph
(arcs, capacity) is built once per system; lines are 1-based line ids,
meters 1-based meter indices, as in grid.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InfeasibleIndex, SolverDefect
from .grid import Metering


@dataclass(frozen=True)
class MinCut:
    """Maximum u -> v flow of a flow meter and its two canonical cuts."""

    value: int                           # flow value = cut size
    flow: dict[int, int]                 # nonzero flow by flow slot, signed from-bus -> to-bus
    source_side: frozenset[int]          # buses reachable from u in the residual graph
    sink_side: frozenset[int]            # buses that can reach v in the residual graph


def max_flow(mtr: Metering, k: int) -> MinCut:
    """Edmonds-Karp between the endpoints u, v of flow meter k's line on
    one residual list over mtr.arcs (res[2e] = cap - f, res[2e + 1] =
    cap + f for the flow f along slot e); the sink side is one search
    from v over the reverse residuals.

    Raises InfeasibleIndex when the flow is unbounded, i.e. protected lines
    join the endpoints and no attack can move meter k.
    """
    cap, (out, head) = mtr.capacity, mtr.arcs
    u, v = mtr.lines[k - 1].from_bus, mtr.lines[k - 1].to_bus
    res = [0, 0] * len(cap)
    res[::2] = res[1::2] = cap
    used: set[int] = set()               # slots some augmenting path crossed
    n, top, total = len(out), len(res), 0
    while True:
        into = [-1] * n                  # the arc each reached bus was entered by
        into[u] = top
        reached = [u]
        for a in reached:
            for x in out[a]:
                b = head[x]
                if into[b] < 0 and res[x]:
                    into[b] = x
                    reached.append(b)
            if into[v] >= 0:
                break
        else:
            break
        push, b = top, v
        while b != u:
            x = into[b]
            if res[x] < push:
                push = res[x]
            b = head[x ^ 1]
        b = v
        while b != u:
            x = into[b]
            res[x] -= push
            res[x ^ 1] += push
            used.add(x >> 1)
            b = head[x ^ 1]
        total += push
        if total > len(cap):             # more than any cut of unprotected lines
            raise InfeasibleIndex(k)
    seen = [False] * n
    seen[v] = True
    sink = [v]
    for c in sink:
        for x in out[c]:
            b = head[x]
            if not seen[b] and res[x ^ 1]:      # the arc x ^ 1 runs b -> c
                seen[b] = True
                sink.append(b)
    flow = {e: f for e in used if (f := cap[e] - res[2 * e])}
    return MinCut(total, flow, frozenset(reached), frozenset(sink))


def witness(mtr: Metering, k: int, side: frozenset[int]) -> dict[int, int]:
    """The moved buses of the cut `side` (holding one end of meter k's line)
    as {state bus: +-1}: the side, or its complement when it holds the
    reference bus, signed so meter k's line carries +1 from-bus to to-bus."""
    if mtr.net.reference_bus in side:
        side = [b for b in mtr.net.state_buses if b not in side]
    return dict.fromkeys(side, 1 if mtr.lines[k - 1].from_bus in side else -1)


def check_certificate(mtr: Metering, k: int, flow, value, dz, touched) -> None:
    """Raise SolverDefect unless the flow and the reported attack prove
    each other optimal.

    flow maps flow slots to signed flow (from-bus -> to-bus), as
    max_flow returns it; dz and touched are the reported attack's change
    and support, flows first, as security._witness_attack reads them off
    its moved buses: each dz entry 0 or an exact integer pair (a, b) for
    a / b, so meter k reads +1 exactly when a == b.  No unprotected line
    may carry more than 1, and the flow must be conserved at every bus but
    the ends u, v of meter k's line, leaving u and reaching v with `value`;
    the attack must move meter k by +1, touch no protected meter, and touch
    exactly `value` flow meters.

    That is weak duality.  An attack that moves meter k gives u and v
    different potentials, so no u-v path runs over metered lines it leaves
    untouched: the buses it reaches from u that way exclude v, and every
    metered line leaving them is touched.  Protected lines are untouched,
    so the whole flow crosses out on touched unprotected lines, at most 1
    on each: every attack touches at least `value` flow meters, and one
    that touches `value` is a minimum.
    """
    lines, protected = mtr.lines, mtr.meas.protected
    excess = [0] * (mtr.net.n_buses + 1)     # flow out of each bus, less what enters
    for e, f in flow.items():
        if abs(f) > 1 and e + 1 not in protected:
            raise SolverDefect(f"unit line {mtr.meas.flow_meters[e]} carries {abs(f)}")
        excess[lines[e].from_bus] += f
        excess[lines[e].to_bus] -= f
    target = lines[k - 1]
    excess[target.from_bus] -= value
    excess[target.to_bus] += value
    if any(excess):
        bus = next(b for b, x in enumerate(excess) if x)
        raise SolverDefect(f"a flow of {value} is not conserved at bus {bus}")
    a, b = dz[k - 1] or (0, 1)
    if a != b:
        raise SolverDefect("witness does not move the target meter by +1")
    if touched & protected:
        raise SolverDefect(f"witness touches protected meters {sorted(touched & protected)}")
    flows = sum(1 for i in touched if i <= len(lines))
    if flows != value:
        raise SolverDefect(f"a flow of {value} but the witness touches {flows} flow meters")
