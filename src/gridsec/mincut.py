"""Flow-only security indices as minimum cuts, with a checked certificate.

For flow-only metering the index of meter k equals the minimum cut between
the endpoints u, v of its line in the bus graph whose edges are the metered
lines: capacity 1 on an unprotected line, unbounded on a protected one, and
no edge for an unmetered line (Sou, Sandberg & Johansson 2013; Hendrickx
et al. 2014).  An attack that moves meter k assigns potentials that differ
at u and v, so every u-v path carries a line whose flow it changes; a cut
(one side at potential 0, the other at +-1) changes exactly the lines
crossing it.

The solve is a unit-capacity Edmonds-Karp max-flow on the standard library
alone.  Beside the cut it returns the flow decomposed into unit u -> v
paths (walks, should the flow hold a cycle), and check_certificate()
confirms weak duality on every solve: the paths run over metered lines, no
two share a unit-capacity line, and their number equals the flow support
of the attack that is reported, which makes both the cut and the path
packing optimal.

Each function reads a solve's grid.Metering; lines are 1-based line ids,
meters 1-based meter indices, as in grid.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InfeasibleIndex, SolverDefect
from .grid import Metering


@dataclass(frozen=True)
class MinCut:
    """Maximum u -> v flow of a flow meter and its two canonical cuts."""

    value: int                           # cut size = number of paths
    paths: tuple[tuple[int, ...], ...]   # u -> v walks as line ids
    source_side: frozenset[int]          # buses reachable from u in the residual graph
    sink_side: frozenset[int]            # buses that can reach v in the residual graph


def max_flow(mtr: Metering, k: int) -> MinCut:
    """Edmonds-Karp between the endpoints of flow meter k's line.

    Raises InfeasibleIndex when the flow is unbounded, i.e. protected lines
    join the endpoints and no attack can move meter k.
    """
    lids, protected = mtr.meas.flow_meters, mtr.meas.protected
    unbounded = len(lids) + 1          # exceeds any cut of unit lines
    cap = [unbounded if i in protected else 1 for i in range(1, len(lids) + 1)]
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(mtr.net.n_buses + 1)]
    for e, ln in enumerate(mtr.lines):
        adj[ln.from_bus].append((e, ln.to_bus, 1))     # d = +1: along the line's direction
        adj[ln.to_bus].append((e, ln.from_bus, -1))
    u, v = mtr.lines[k - 1].from_bus, mtr.lines[k - 1].to_bus
    flow = [0] * len(lids)               # signed, from-bus -> to-bus
    total = 0
    while True:
        prev: dict[int, tuple[int, int, int] | None] = {u: None}
        queue = deque([u])
        while queue and v not in prev:
            a = queue.popleft()
            for e, b, d in adj[a]:
                if b not in prev and cap[e] - d * flow[e] > 0:
                    prev[b] = (a, e, d)
                    queue.append(b)
        if v not in prev:
            break
        path = []
        b = v
        while b != u:
            a, e, d = prev[b]
            path.append((e, d))
            b = a
        push = min(cap[e] - d * flow[e] for e, d in path)
        for e, d in path:
            flow[e] += d * push
        total += push
        if total >= unbounded:
            raise InfeasibleIndex(k)
    sink = {v}
    queue = deque([v])
    while queue:
        c = queue.popleft()
        for e, b, d in adj[c]:
            # the arc b -> c runs along e in direction -d
            if b not in sink and cap[e] + d * flow[e] > 0:
                sink.add(b)
                queue.append(b)
    paths = _decompose(adj, flow, lids, u, v, total)
    return MinCut(total, paths, frozenset(prev), frozenset(sink))


def _decompose(adj, flow, lids, u, v, total) -> tuple[tuple[int, ...], ...]:
    """Split the flow into `total` unit u -> v walks.

    Each step spends one unit of flow along its direction.  A walk standing
    at a bus other than v has spent one more unit into it than out of it,
    so flow conservation leaves an unspent arc to continue on.
    """
    left = [abs(f) for f in flow]
    paths = []
    for _ in range(total):
        walk = []
        a = u
        while a != v:
            e, a = next((e, b) for e, b, d in adj[a] if left[e] and d * flow[e] > 0)
            left[e] -= 1
            walk.append(lids[e])
        paths.append(tuple(walk))
    return tuple(paths)


def witness(mtr: Metering, k: int, side: frozenset[int]) -> tuple[int, ...]:
    """State vector of the cut `side` (which holds one endpoint of meter
    k's line): +-1 on the part away from the reference bus, 0 elsewhere,
    signed so meter k's line carries +1 from its from-bus to its to-bus."""
    net, ln = mtr.net, mtr.lines[k - 1]
    if net.reference_bus in side:
        side = frozenset(range(1, net.n_buses + 1)) - side
    sign = 1 if ln.from_bus in side else -1
    return tuple(sign if b in side else 0 for b in net.state_buses)


def check_certificate(mtr: Metering, k: int, paths, dz, touched) -> None:
    """Raise SolverDefect unless the paths and the reported attack prove
    each other optimal.

    dz and touched are the attack's measurement change and support, flow
    meters first, as security._witness_attack returns them.  Every path
    must be a u -> v walk over metered lines and no two paths may share an
    unprotected line; the attack must move meter k by +1, touch no
    protected meter, and touch as many flow meters as there are paths.
    Each path then crosses a distinct touched line, so no attack touches
    fewer meters than there are paths.
    """
    slot, protected, target = mtr.flow_slot, mtr.meas.protected, mtr.lines[k - 1]
    used: set[int] = set()
    for path in paths:
        bus = target.from_bus
        for lid in path:
            if lid not in slot:
                raise SolverDefect(f"path {path} uses unmetered line {lid}")
            ln = mtr.lines[slot[lid]]
            if bus not in (ln.from_bus, ln.to_bus):
                raise SolverDefect(f"path {path} breaks at line {lid}")
            bus = ln.to_bus if bus == ln.from_bus else ln.from_bus
            if slot[lid] + 1 not in protected:
                if lid in used:
                    raise SolverDefect(f"unit line {lid} carries two paths")
                used.add(lid)
        if bus != target.to_bus:
            raise SolverDefect(f"path {path} does not end at bus {target.to_bus}")
    if dz[k - 1] != 1:
        raise SolverDefect("witness does not move the target meter by +1")
    if touched & protected:
        raise SolverDefect(f"witness touches protected meters {sorted(touched & protected)}")
    flows = sum(1 for i in touched if i <= len(slot))
    if flows != len(paths):
        raise SolverDefect(f"{len(paths)} disjoint paths but the witness touches "
                           f"{flows} flow meters")
