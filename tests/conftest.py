"""Shared constants and random instance generators for the test suite."""
from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gridsec import Network, MeasurementSystem, TUProblem
from gridsec import lp
from gridsec.tumin import gen_consecutive_ones

def imported_packages(module) -> set[str]:
    """The top-level package of every absolute import in module's source."""
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


CASES = Path(__file__).resolve().parent.parent / "cases"
IEEE14_CASE = CASES / "ieee14.case"
SIXBUS_CASE = CASES / "sixbus7.case"

# two triangles joined by three rungs; the edge list fixes meter numbering
SIXBUS_EDGES = ((1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6))

# incidence transpose over all six buses (one column per bus)
SIXBUS_A_FULL = np.array([
    [1, -1, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0],
    [0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 1, -1],
    [1, 0, 0, -1, 0, 0],
    [0, 1, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, -1],
], dtype=int)

# reference bus 1 dropped
SIXBUS_A = SIXBUS_A_FULL[:, 1:]

# published minimum-cardinality attack images for meter 6 (signed A x)
SIXBUS_OPTIMA = (
    (-1, 0, 0, -1, 0, 1, 0),
    (-1, 1, 0, 0, 0, 1, 0),
)

# published nullspace reformulation for meter 6: rows span the left
# nullspace of A, the last row pins meter 6
PAPER_L = (
    (1, 1, -1, -1, -1, 0, 1),
    (1, 0, -1, 0, -1, 1, 0),
)
PAPER_PHI = PAPER_L + ((0, 0, 0, 0, 0, 1, 0),)
PAPER_B = (0, 0, 1)


def sixbus_network(scale: Fraction = Fraction(1)) -> Network:
    lines = tuple((u, v, Fraction(1) * scale) for u, v in SIXBUS_EDGES)
    return Network(6, lines)


def sixbus_meas(protected=frozenset()) -> MeasurementSystem:
    return MeasurementSystem(tuple(range(1, 8)), protected=frozenset(protected))


def price_by(monkeypatch, rule: str) -> None:
    """Pin the simplex pricing: "dantzig" keeps the solver's own policy
    (primal loops by Dantzig's rule, dual loops by steepest edge), "bland"
    sets its pricing allowance (lp._dantzig_pivots) to 0 so every loop
    prices by Bland's rule from the first pivot."""
    assert rule in ("bland", "dantzig")
    if rule == "bland":
        monkeypatch.setattr(lp, "_dantzig_pivots", lambda tab: 0)


def count_pivots(monkeypatch) -> list[int]:
    """A one-element counter of the simplex pivots made from here on, by
    every loop of either kernel (lp._count_pivot wrapped)."""
    pivots = [0]
    real = lp._count_pivot

    def counted(p, budget):
        pivots[0] += 1
        real(p, budget)

    monkeypatch.setattr(lp, "_count_pivot", counted)
    return pivots


def random_connected_edges(rng: random.Random, max_nodes: int = 10):
    """Random connected multigraph: spanning tree plus a few extra edges."""
    n = rng.randint(3, max_nodes)
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    extra = rng.randint(0, n)
    for _ in range(extra):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u != v:
            edges.append((min(u, v), max(u, v)))
    rng.shuffle(edges)
    return n, edges


def incidence_transpose(n_nodes: int, edges, truncate: bool) -> np.ndarray:
    """Rows are edges with +1 at the first endpoint; column 1 drops if asked."""
    A = np.zeros((len(edges), n_nodes), dtype=int)
    for r, (u, v) in enumerate(edges):
        A[r, u - 1] = 1
        A[r, v - 1] = -1
    return A[:, 1:] if truncate else A


def random_graph_problem(rng: random.Random, max_nodes: int = 10) -> TUProblem:
    """Metered-subset incidence transpose with random target and protection."""
    n, edges = random_connected_edges(rng, max_nodes)
    A = incidence_transpose(n, edges, truncate=rng.random() < 0.5)
    m = A.shape[0]
    keep = sorted(rng.sample(range(m), rng.randint(1, m)))
    A = A[keep, :]
    m = A.shape[0]
    k = rng.randint(1, m)
    pool = [j for j in range(1, m + 1) if j != k]
    I = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 3))))
    return TUProblem(A, k, I)


def random_interval_problem(rng: random.Random, max_side: int = 10) -> TUProblem:
    """Consecutive-ones matrix with random target and protection."""
    m = rng.randint(2, max_side)
    n = rng.randint(1, max_side)
    A = gen_consecutive_ones(m, n, seed=rng.randrange(2**30))
    k = rng.randint(1, m)
    pool = [j for j in range(1, m + 1) if j != k]
    I = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 3))))
    return TUProblem(A, k, I)


def random_tu_problem(rng: random.Random) -> TUProblem:
    if rng.random() < 0.5:
        return random_graph_problem(rng)
    return random_interval_problem(rng)


def mesh_grid(seed: int, rows: int = 6, cols: int = 7, chords: int = 12, protect: int = 3):
    """Seeded flow-only mesh-plus-chords grid: a rows x cols mesh, `chords`
    extra distinct bus pairs, a random reference bus and reactances, every
    line metered and `protect` random flow meters protected."""
    rng = random.Random(seed)
    n = rows * cols
    edges = [(r * cols + c + 1, r * cols + c + 2) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c + 1, (r + 1) * cols + c + 1) for r in range(rows - 1) for c in range(cols)]
    seen = {frozenset(e) for e in edges}
    while chords:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
            chords -= 1
    rng.shuffle(edges)
    lines = tuple((u, v, Fraction(rng.randint(1000, 60000), 100000)) for u, v in edges)
    net = Network(n, lines, rng.randint(1, n))
    protected = frozenset(rng.sample(range(1, len(lines) + 1), protect))
    return net, MeasurementSystem(tuple(range(1, len(lines) + 1)), protected=protected)


def paper_stand_in(buses: int, lines: int, seed: int = 1):
    """Seeded synthetic stand-in for a paper-scale grid (the IEEE 118- and
    300-bus cases are not bundled): a random spanning tree plus distinct
    random chords up to `lines` lines, shuffled, random reactances,
    reference bus 1, every line metered and none protected."""
    rng = random.Random(seed)
    edges = [(rng.randint(1, i - 1), i) for i in range(2, buses + 1)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < lines:
        u, v = rng.sample(range(1, buses + 1), 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    rng.shuffle(edges)
    net = Network(buses, tuple((u, v, Fraction(rng.randint(1000, 60000), 100000))
                               for u, v in edges), 1)
    return net, MeasurementSystem(tuple(range(1, lines + 1)))


def random_injection_system(rng: random.Random, max_nodes: int = 5):
    """Small network with all flows metered plus at least one injection."""
    n, edges = random_connected_edges(rng, max_nodes)
    lines = tuple((u, v, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for u, v in edges)
    net = Network(n, lines)
    candidates = [b for b in range(1, n + 1) if b != net.reference_bus]
    buses = tuple(sorted(rng.sample(candidates, rng.randint(1, len(candidates)))))
    nf = len(lines)
    k = rng.randint(1, nf)
    pool = [j for j in range(1, nf + 1) if j != k]
    protected = frozenset(rng.sample(pool, rng.randint(0, min(len(pool), 2))))
    meas = MeasurementSystem(tuple(range(1, nf + 1)), buses, protected)
    return net, meas, k


@pytest.fixture
def sixbus():
    return sixbus_network(), sixbus_meas()
