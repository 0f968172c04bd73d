"""Correctness oracles that do not share code with the LP path.

min_cut() is a plain Edmonds-Karp max-flow over the case's lines: for
flow-only metering, the security index of meter k equals the minimum cut
between the endpoints of line k, with unit capacity on unprotected metered
lines and unbounded capacity on protected ones.  The witness checks use
only numpy and the program's public bad-data-detection routine.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from gen import Case

# published indices of the IEEE 14-bus case with every flow metered and
# nothing protected (meter -> index)
IEEE14_INDICES = {1: 2, 2: 2, 3: 2, 4: 4, 5: 4, 6: 2, 7: 4, 8: 2, 9: 3,
                  10: 3, 11: 2, 12: 2, 13: 3, 14: 1, 15: 2, 16: 2, 17: 2,
                  18: 2, 19: 2, 20: 2}

FLOAT_TOL = 1e-9
BDD_TOL = 1e-8


def min_cut(case: Case, k: int) -> int | None:
    """Flow-only security index of flow meter k; None when unattackable."""
    unbounded = len(case.lines) + 1
    cap: list[dict[int, int]] = [{} for _ in range(case.n_buses + 1)]
    for idx, (u, v, _) in enumerate(case.lines, start=1):
        c = unbounded if idx in case.protected else 1
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v][u] = cap[v].get(u, 0) + c
    s, t = case.lines[k - 1][:2]
    flow = 0
    while flow < unbounded:
        prev = {s: s}
        queue = deque([s])
        while queue and t not in prev:
            a = queue.popleft()
            for b, c in cap[a].items():
                if c > 0 and b not in prev:
                    prev[b] = a
                    queue.append(b)
        if t not in prev:
            return flow
        path = []
        b = t
        while b != s:
            path.append((prev[b], b))
            b = prev[b]
        push = min(cap[a][b] for a, b in path)
        for a, b in path:
            cap[a][b] -= push
            cap[b][a] += push
        flow += push
    return None


def witness_errors(H: np.ndarray, attack, k: int, touched_count: int,
                   bdd_residual, z: np.ndarray, r0: np.ndarray) -> list[str]:
    """Problems with an attack witness for meter k (empty list when sound)."""
    errs = []
    dz = np.asarray(attack.delta_z, dtype=float)
    if dz.shape != (H.shape[0],) or dz[k - 1] != 1.0:
        errs.append(f"delta_z[{k}] is not 1")
        return errs
    if len(attack.touched) != touched_count:
        errs.append(f"|touched|={len(attack.touched)} != {touched_count}")
    if not np.allclose(H @ np.asarray(attack.delta_theta, dtype=float), dz,
                       rtol=FLOAT_TOL, atol=FLOAT_TOL):
        errs.append("H @ delta_theta != delta_z")
    nonzero = {int(i) + 1 for i in np.flatnonzero(np.abs(dz) > FLOAT_TOL)}
    if nonzero != set(attack.touched):
        errs.append("touched set disagrees with delta_z")
    r1, _ = bdd_residual(H, None, z + dz)
    if float(np.max(np.abs(r1 - r0))) > BDD_TOL:
        errs.append("attack changes the bad-data residual")
    return errs
