"""Test-side reference computations, independent of the production solvers.

The helpers lean on two validated layers only: exact rank arithmetic
(cross-multiplying echelon reduction) and the exact LP solver, which the
LP tests check against an outside implementation.  Nothing here calls the
l1 reduction or the branch-and-bound code under test.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from gridsec import lp
from gridsec.errors import CapExceeded
from gridsec.exactla import _eliminate, _reduce, in_row_space
from gridsec.oracle import exhaustive_min_support
from gridsec.tumin import TUSolution


def box_feasible(A, k: int, I, S, bound=1) -> bool:
    """Is there x with A(k)x = 1, A(I)x = 0, A(j)x = 0 off S, |A(j)x| <= bound on S?

    Feasibility only; decided by the exact LP layer (phase-1).  Rows in S
    get the split |A(j)x| <= bound via t+ - t- = A(j)x, t+ + t- + w = bound.
    """
    rows = [[int(v) for v in row] for row in A]
    m, n = len(rows), len(rows[0])
    S = sorted(set(S))
    silent = [j for j in range(1, m + 1)
              if j != k and j not in S and j not in I]
    p = 2 * n + 3 * len(S)
    C: list[list[int]] = []
    d: list[int] = []

    def state_row(j):
        out = [0] * p
        for c in range(n):
            out[c] = rows[j - 1][c]
            out[n + c] = -rows[j - 1][c]
        return out

    for pos, j in enumerate(S):
        base = 2 * n + 3 * pos
        link = state_row(j)
        link[base] = -1
        link[base + 1] = 1
        C.append(link)
        d.append(0)
        box = [0] * p
        box[base] = box[base + 1] = box[base + 2] = 1
        C.append(box)
        d.append(bound)
    for j in silent + sorted(I):
        C.append(state_row(j))
        d.append(0)
    C.append(state_row(k))
    d.append(1)
    out = lp.solve_lp(lp.StandardFormLP.create(C, d, [0] * p))
    return out.status is lp.LpStatus.OPTIMAL


def box_restricted_matches(A, k: int, I, *, cap: int = 200_000) -> bool:
    """Does restricting attacks to |A(j)x| <= 1 preserve the minimum?

    The restricted feasible set is contained in the unrestricted one, so
    the restricted minimum can only be larger; equality holds exactly when
    some unrestricted-minimum-sized support admits a box-feasible witness.
    """
    rows = [[int(v) for v in row] for row in A]
    m = len(rows)
    s_star = exhaustive_min_support(rows, k, I, cap=cap)
    if s_star is None:
        return True    # both problems are infeasible together
    others = [j for j in range(1, m + 1) if j != k and j not in I]
    tested = 0
    for S in combinations(others, s_star - 1):
        tested += 1
        if tested > cap:
            raise CapExceeded(cap)
        if box_feasible(rows, k, I, S):
            return True
    return False


def big_m_min_support(A, k: int, I, big_m) -> int | None:
    """The optimum of the big-M formulation by enumeration: 1 + the fewest
    unprotected rows S besides k for which some x moves row k by 1, no row
    off S and by at most big_m each row of S (box_feasible); None when
    even every row cannot.  For big_m >= 1 the target's own box holds."""
    m = len(A)
    others = [j for j in range(1, m + 1) if j != k and j not in I]
    for size in range(len(others) + 1):
        for S in combinations(others, size):
            if box_feasible(A, k, I, S, big_m):
                return size + 1
    return None


def full_h_min_support(h_rows, k: int, I, *, cap: int = 200_000) -> int | None:
    """Exhaustive minimum attack cardinality on exact rational meter rows.

    Scales each row to integers (row scaling changes no row-space
    memberships) and reuses the subset-enumeration oracle, so injection
    rows take part exactly like flow rows.
    """
    scaled = []
    for row in h_rows:
        fr = [Fraction(v) for v in row]
        mult = 1
        for v in fr:
            mult = mult * v.denominator // math.gcd(mult, v.denominator)
        scaled.append([int(v * mult) for v in fr])
    return exhaustive_min_support(scaled, k, I, cap=cap)


def feasibility_by_rank(A, k: int, I) -> bool:
    """Attack feasibility test: row k must escape the protected row space."""
    rows = [[int(v) for v in row] for row in A]
    prot = [rows[i - 1] for i in sorted(I)]
    return not in_row_space(rows[k - 1], prot)


def reduce_by_scan(kept, row) -> dict[int, int]:
    """row reduced over kept ((pivot column, row) pairs, arrival order) by
    probing every kept row's pivot column in turn, written apart from
    exactla.EchelonBasis.reduce as the reference it is checked against."""
    row = dict(row)
    for pc, base in kept:
        f = row.get(pc)
        if f:
            _eliminate(row, base[pc], f, base)
            _reduce(row, 0)
    return row


def solution_from_x(problem, x) -> TUSolution:
    """The TUSolution of x by a dense walk: A(j,:)x on every unprotected row
    in order, as tumin's certificate read it before it visited only the
    rows holding a column x moves."""
    support = [j for j in problem.free_rows
               if sum(a * x[c] for c, a in problem.rows[j - 1])]
    return TUSolution(tuple(x), frozenset(support))


def witness_attack_all_lines(mtr, k, x):
    """security._witness_attack by a walk over every line of the network,
    as it read before it visited only the lines at buses x moves."""
    net, flow, inj = mtr.net, mtr.flow_slot, mtr.injection_slot
    xk = mtr.lines[k - 1].reactance
    pot = {b: v for b, v in zip(net.state_buses, x) if v}
    dz = [0] * mtr.meas.n_meters
    for lid, ln in enumerate(net.lines, start=1):
        w = pot.get(ln.from_bus, 0) - pot.get(ln.to_bus, 0)
        if w:
            f = w * xk / ln.reactance
            if lid in flow:
                dz[flow[lid]] = f
            if ln.from_bus in inj:
                dz[inj[ln.from_bus]] += f
            if ln.to_bus in inj:
                dz[inj[ln.to_bus]] -= f
    touched = frozenset(i + 1 for i, v in enumerate(dz) if v)
    return [xk * v if v else 0 for v in x], dz, touched
