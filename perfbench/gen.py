"""Seeded input generators for the benchmark workloads.

Everything here is pure standard library and never imports gridsec: the
program under test only ever sees the case files written by write_case(),
which it reads with gridsec.grid.parse_case.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    """Plain description of a case file (1-based buses and lines)."""

    n_buses: int
    ref: int
    lines: tuple[tuple[int, int, str], ...]      # (from, to, decimal reactance)
    injections: tuple[int, ...] = ()
    protected: frozenset[int] = frozenset()

    @property
    def n_flow(self) -> int:
        return len(self.lines)

    def targets(self) -> list[int]:
        """Unprotected flow meters (1-based meter indices)."""
        return [k for k in range(1, self.n_flow + 1) if k not in self.protected]


def _reactance(rng: random.Random) -> str:
    # five decimals, like published branch data; exact as a Fraction
    return f"{rng.randint(1000, 60000) / 100000:.5f}"


def mesh_with_chords(rows: int, cols: int, chords: int, rng: random.Random):
    """Edges of a rows x cols mesh plus `chords` distinct non-adjacent pairs."""
    bus = lambda r, c: r * cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((bus(r, c), bus(r, c + 1)))
            if r + 1 < rows:
                edges.append((bus(r, c), bus(r + 1, c)))
    seen = {frozenset(e) for e in edges}
    n = rows * cols
    while chords:
        u, v = rng.sample(range(1, n + 1), 2)
        if frozenset((u, v)) in seen:
            continue
        seen.add(frozenset((u, v)))
        edges.append((u, v))
        chords -= 1
    rng.shuffle(edges)
    return n, edges


def protection_plan(n_buses: int, edges, count: int, rng: random.Random) -> frozenset[int]:
    """`count` protected flow meters that leave every other meter attackable.

    A target is unattackable exactly when its endpoints are joined by a path
    of protected lines, so plans where that happens are drawn again.
    """
    while True:
        plan = frozenset(rng.sample(range(1, len(edges) + 1), count))
        parent = list(range(n_buses + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for k in plan:
            u, v = edges[k - 1]
            parent[find(u)] = find(v)
        if all(find(edges[k - 1][0]) != find(edges[k - 1][1])
               for k in range(1, len(edges) + 1) if k not in plan):
            return plan


def grid_case(rows: int, cols: int, chords: int, seed: int, *,
              protect: int = 0, injections: int = 0) -> Case:
    """Seeded mesh-plus-chords case with a seeded reference bus."""
    rng = random.Random(seed)
    n, edges = mesh_with_chords(rows, cols, chords, rng)
    ref = rng.randint(1, n)
    lines = tuple((u, v, _reactance(rng)) for u, v in edges)
    plan = protection_plan(n, edges, protect, rng) if protect else frozenset()
    inj = tuple(sorted(rng.sample([b for b in range(1, n + 1) if b != ref], injections)))
    return Case(n, ref, lines, inj, plan)


def read_plain_case(path) -> Case:
    """Buses, reference and lines of a flow-only case file, as plain data."""
    n = ref = None
    lines = []
    with open(path, encoding="utf-8") as fh:
        for text in fh:
            tok = text.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] == "buses":
                n = int(tok[1])
                ref = int(tok[3]) if len(tok) == 4 else 1
            elif tok[0] == "line":
                lines.append((int(tok[1]), int(tok[2]), tok[3]))
            else:
                raise ValueError(f"{path}: unexpected directive {tok[0]!r}")
    if n is None:
        raise ValueError(f"{path}: no buses directive")
    return Case(n, ref, tuple(lines))


def write_case(case: Case, path) -> None:
    out = [f"buses {case.n_buses} ref {case.ref}"]
    out += [f"line {u} {v} {x}" for u, v, x in case.lines]
    out += [f"meter flow {k}" for k in range(1, case.n_flow + 1)]
    out += [f"meter injection {b}" for b in case.injections]
    out += [f"protect {k}" for k in sorted(case.protected)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
