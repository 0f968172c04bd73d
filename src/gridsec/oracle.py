"""Independent reference solvers and diagnostics for security indices.

Everything here reaches the same answers as the production path by a
different route: exhaustive enumeration backed by exact rank tests, a
big-M mixed-integer formulation solved by branch and bound on exact LP
relaxations, and compressed-sensing measures (mutual coherence, restricted
isometry) of the nullspace reformulation.  Beyond the validated input
(tumin.TUProblem) none of it shares a formulation or solver state with
the l1 path, so agreement between the two is meaningful evidence.

Meter/row indices are 1-based, matching the measurement-system convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from time import perf_counter

import numpy as np

from . import lp
from .errors import (
    CapExceeded,
    InfeasibleIndex,
    SizeLimitExceeded,
    SolverDefect,
    TrivialNullspace,
    ZeroColumn,
)
from .exactla import frac_rref, in_row_space, int_rank, left_nullspace, scale_row, to_fraction
from .grid import MeasurementSystem, Network, incidence, metering
from .security import CriticalTuple, SecurityIndexResult, _exact_result, reduce_to_tu
from .tumin import TUProblem, check_rows


# --- exhaustive enumeration ----------------------------------------------


def exhaustive_min_support(A, k: int, I=frozenset(), *,
                           cap: int = 200_000) -> int | None:
    """Minimum attack cardinality against row k of A with protected rows I,
    by subset enumeration.

    A set S of unprotected rows (k excluded) admits an attack touching only
    S and k exactly when row k is outside the row space of the protected
    rows plus the remaining untouched rows.  Scanning S by increasing size
    gives the minimum as 1 + |first feasible S|.  Returns None when even
    touching everything cannot move row k (it lies in the protected row
    space); raises CapExceeded past the subset budget.
    """
    prob = TUProblem(A, k, I)
    rows = prob.A.tolist()
    target = rows[prob.k - 1]
    prot_rows = [rows[i - 1] for i in sorted(prob.I)]
    if in_row_space(target, prot_rows):
        return None
    others = [j for j in prob.free_rows if j != prob.k]
    tested = 0
    for size in range(len(others) + 1):
        for S in combinations(others, size):
            tested += 1
            if tested > cap:
                raise CapExceeded(cap)
            silent = set(others) - set(S)
            basis_rows = prot_rows + [rows[j - 1] for j in sorted(silent)]
            if not in_row_space(target, basis_rows):
                return size + 1
    return None


def exhaustive_min_tuple(A, k: int, *, cap: int = 200_000) -> CriticalTuple | None:
    """Smallest critical tuple containing row k, by direct enumeration.

    J is critical for k when the rows outside J leave the state
    undetermined while restoring row k alone determines it again.
    """
    rows = TUProblem(A, k).A.tolist()
    m, n = len(rows), len(rows[0])
    others = [j for j in range(1, m + 1) if j != k]
    tested = 0
    for size in range(1, m + 1):
        for rest in combinations(others, size - 1):
            tested += 1
            if tested > cap:
                raise CapExceeded(cap)
            J = frozenset(rest) | {k}
            outside = [rows[j - 1] for j in range(1, m + 1) if j not in J]
            if int_rank(outside) >= n:
                continue
            if int_rank(outside + [rows[k - 1]]) == n:
                return CriticalTuple(J, size, k)
    return None


# --- big-M mixed-integer reference solver --------------------------------


def _big_m(net: Network) -> Fraction:
    """Big-M for the flow rows of net: the largest column sum of |B|, B the
    truncated incidence (grid.incidence), i.e. the most nonzero entries of
    any line's column.  It dominates |A(j,:) d| at some optimum because an
    optimal d exists with entries in {-1,0,1}."""
    return to_fraction(np.abs(incidence(net)[1]).sum(axis=0).max())


def _t_columns(prob: TUProblem) -> dict[int, int]:
    """Column of t+_j for every free row j (unprotected, not the target), in
    row order; t-_j and u_j follow it, after the 2n state columns."""
    n = prob.A.shape[1]
    free = [j for j in prob.free_rows if j != prob.k]
    return {j: 2 * n + 3 * pos for pos, j in enumerate(free)}


def _node_lp(prob: TUProblem, big_m: Fraction) -> lp.StandardFormLP:
    """Exact root LP relaxation of the big-M formulation of prob.

    Binaries y mark touched rows: minimize sum(y) subject to
    |A(j,:) d| <= big_m * y_j on unprotected rows, A(I,:) d = 0 and
    A(k,:) d = 1.  Every unprotected row j other than the target is free:
    it contributes y_j = (t+ + t-)/big_m through a link row
    A(j,:) d - t+ + t- = 0 and a box t+ + t- + u = big_m.  States split as
    d = dp - dm for nonnegativity.  Branch and bound keeps this layout at
    every node.  The rows are integral (the
    box rows are scaled by big-M's denominator) and the cost 1/big_m on the
    t columns is stored over big-M's numerator.  Dependent protected rows
    are left to lp.preprocess.
    """
    n = prob.A.shape[1]
    tcol = _t_columns(prob)
    p = 2 * n + 3 * len(tcol)
    Mn, Md = big_m.numerator, big_m.denominator

    def state_part(j):
        row = {}
        for c, a in prob.rows[j - 1]:
            row[c] = a
            row[n + c] = -a
        return row

    rows: list[dict[int, int]] = []
    for j, t in tcol.items():
        link = state_part(j)
        link[t] = -1
        link[t + 1] = 1
        rows.append(link)
        rows.append({t: Md, t + 1: Md, t + 2: Md, lp.RHS: Mn})
    for j in sorted(prob.I):
        rows.append(state_part(j))
    target = state_part(prob.k)
    target[lp.RHS] = 1
    rows.append(target)

    cost = {c: Md for t in tcol.values() for c in (t, t + 1)}
    return lp.StandardFormLP.from_int_rows(rows, cost, p, cost_den=Mn)


def _check_incumbent(root: lp.StandardFormLP, x: dict[int, Fraction], fixed0, tcol) -> None:
    """An incumbent (nonzero values x by column) must satisfy the root rows
    and its zero fixings exactly; checked over x's common denominator."""
    nums, den = scale_row(x.values())
    X = dict(zip(x, nums))
    for pairs in root.rows:
        lhs = sum(a * X.get(c, 0) for c, a in pairs if c != lp.RHS)
        if lhs != dict(pairs).get(lp.RHS, 0) * den:
            raise SolverDefect("incumbent violates a root row; solver defect")
    if any(c in X for j in fixed0 for c in (tcol[j], tcol[j] + 1)):
        raise SolverDefect("incumbent moves a row fixed to zero; solver defect")


def solve_milp_instance(prob: TUProblem, big_m=Fraction(2), *,
                        trace=None) -> tuple[int, tuple[Fraction, ...], frozenset[int], int] | None:
    """Branch and bound on the big-M formulation of prob (see _node_lp).

    big_m must be positive and should dominate |A(j,:) d| at some optimum;
    an undersized one can only raise the optimum or make it infeasible.
    Depth-first, branching the lowest-index fractional binary with the
    zero branch explored first; node bounds come from exact LP
    relaxations, so a subtree is pruned only when its bound provably
    exceeds best - 1 (the objective is integral).  Only the root LP
    (_node_lp) is solved from scratch, by lp.solve_lp, which preprocesses
    it; every other node re-optimizes its parent's exact optimal tableau.
    Fixing y_j = 1 drops the cost of t+_j and t-_j, which keeps the basis
    primal feasible, so the primal simplex continues; fixing y_j = 0
    appends the row t+_j + t-_j + s = 0, which keeps it dual feasible, so
    the dual simplex restores nonnegative values.  The zero branch takes
    the parent's tableau in place, the one branch a copy.  Each node's
    tableau is certified optimal (basic values and reduced costs
    nonnegative) before its bound is used, and each incumbent is checked
    against the root rows and its fixings; failures raise SolverDefect.
    trace, when given, receives one free-text line per node.  Returns
    (optimum, d, support, nodes) or None when even the root is infeasible.
    """
    M = to_fraction(big_m)
    if M <= 0:
        raise ValueError("big_m must be positive")
    n = prob.A.shape[1]
    root = _node_lp(prob, M)
    tcol = _t_columns(prob)
    best: int | None = None
    best_d: list[Fraction] | None = None
    nodes = 0
    # (tableau, rows fixed to 0, rows fixed to 1, the row fixed last); the
    # root has neither a tableau nor a fixing yet
    stack: list[tuple] = [(None, frozenset(), frozenset(), None)]
    while stack:
        tab, fixed0, fixed1, j = stack.pop()
        nodes += 1
        depth = len(fixed0) + len(fixed1)
        # the target row always counts: |A(k,:) d| = 1 forces its binary to 1
        if best is not None and len(fixed1) + 1 > best - 1:
            if trace is not None:
                trace.write(f"node depth={depth} fixed1={len(fixed1)} action=prune-depth\n")
            continue
        if tab is None:
            out = lp.solve_lp(root)
            status, tab = out.status, out.tableau
        elif j in fixed1:
            tab.add_cost({c: -M.denominator for c in (tcol[j], tcol[j] + 1)}, M.numerator)
            status = lp._run_simplex(tab, [0])
        else:
            tab.add_row({tcol[j]: 1, tcol[j] + 1: 1})
            status = lp._run_dual_simplex(tab, [0])
        if status is lp.LpStatus.INFEASIBLE:
            if trace is not None:
                trace.write(f"node depth={depth} action=infeasible\n")
            continue
        if status is not lp.LpStatus.OPTIMAL:
            raise SolverDefect("bounded relaxation reported unbounded; solver defect")
        tab.check_optimal()
        bound = tab.objective() + len(fixed1) + 1
        if best is not None and bound > best - 1:
            if trace is not None:
                trace.write(f"node depth={depth} bound={bound} best={best} action=prune-bound\n")
            continue
        x = tab.values()
        # y_i = (t+_i + t-_i) / big_m on the rows still open
        t = {i: x.get(c, 0) + x.get(c + 1, 0)
             for i, c in tcol.items() if i not in fixed0 and i not in fixed1}
        frac = [i for i, v in t.items() if v and v != M]
        if not frac:
            _check_incumbent(root, x, fixed0, tcol)
            value = len(fixed1) + sum(1 for v in t.values() if v) + 1
            if best is None or value < best:
                best = value
                best_d = [to_fraction(x.get(c, 0) - x.get(n + c, 0)) for c in range(n)]
                if trace is not None:
                    trace.write(f"node depth={depth} value={value} action=incumbent\n")
            continue
        j = frac[0]
        if trace is not None:
            trace.write(f"node depth={depth} bound={bound} branch={j}\n")
        stack.append((tab.copy(), fixed0, fixed1 | {j}, j))
        stack.append((tab, fixed0 | {j}, fixed1, j))
    if best is None:
        return None
    support = frozenset(j for j in prob.free_rows
                        if sum(a * best_d[c] for c, a in prob.rows[j - 1]))
    if len(support) != best:
        raise SolverDefect("incumbent support disagrees with the optimum")
    return best, tuple(best_d), support, nodes


def milp_solve(net: Network, meas: MeasurementSystem, k: int, *,
               trace=None) -> SecurityIndexResult:
    """Security index of flow meter k via the big-M reference solver.

    Self-contained alternative to the l1 path: the same reduction to
    integer rows (security.reduce_to_tu), an entirely different search,
    with the network's big-M (_big_m).  The witness is rescaled so meter k
    reads +1 in measurement units.
    """
    t0 = perf_counter()
    out = solve_milp_instance(reduce_to_tu(net, meas, k), _big_m(net), trace=trace)
    if out is None:
        raise InfeasibleIndex(k)
    _, d, support, _ = out
    return _exact_result(metering(net, meas), k, "milp", d, support, t0)


# --- compressed-sensing diagnostics --------------------------------------


def _frac_matrix(phi) -> list[list[Fraction]]:
    if isinstance(phi, CsInstance):
        return [list(row) for row in phi.phi]
    return [[to_fraction(v) for v in row] for row in phi]


@dataclass(frozen=True)
class CsInstance:
    """Sparse-recovery form of an index problem: minimize ||w||_0, phi w = b.

    Columns range over the unprotected meters (ids in `columns`); the last
    row pins the target meter to 1 and the rest force w into the
    measurement range space.
    """

    phi: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    columns: tuple[int, ...]
    target: int

    def __post_init__(self):
        phi = tuple(tuple(to_fraction(v) for v in row) for row in self.phi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", tuple(to_fraction(v) for v in self.b))
        object.__setattr__(self, "columns", tuple(int(c) for c in self.columns))
        if len(self.b) != len(phi):
            raise ValueError("b length must match the row count")
        if phi and any(len(row) != len(self.columns) for row in phi):
            raise ValueError("column labels must match the row width")
        if self.target not in self.columns:
            raise ValueError("target meter missing from the columns")


def nullspace_reformulate(A, k: int, I=frozenset()) -> CsInstance:
    """Express the index of row k as sparse recovery over meter space.

    The reachable measurement moves are exactly the kernel of the left
    nullspace of A, so with L spanning that nullspace the problem reads:
    minimize ||dz||_0 subject to L dz = 0, dz_k = 1, dz_I = 0.  Protected
    coordinates are substituted out (their columns are dropped), the
    remaining homogeneous rows are re-reduced to a full-row-rank canonical
    form, and the target row e_k, rhs 1, is appended.
    """
    rows = _frac_matrix(A)
    m = len(rows)
    I = check_rows(m, k, I)
    L = left_nullspace(rows)
    if not L:
        raise TrivialNullspace(
            "full row rank: every measurement move is reachable")
    cols = [i for i in range(1, m + 1) if i not in I]
    restricted = [[row[i - 1] for i in cols] for row in L]
    reduced, _ = frac_rref(restricted)     # canonical basis of the row space
    kpos = cols.index(k)
    e_k = [Fraction(0)] * len(cols)
    e_k[kpos] = Fraction(1)
    phi = tuple(tuple(r) for r in reduced + [e_k])
    b = tuple([Fraction(0)] * len(reduced) + [Fraction(1)])
    return CsInstance(phi, b, tuple(cols), k)


def mutual_coherence(phi) -> float:
    """Largest normalized inner product between distinct columns.

    Computed from exact Gram entries, so values like 1 or 0 come out
    exactly.  A zero column has no direction, hence ZeroColumn.
    """
    rows = _frac_matrix(phi)
    if not rows:
        raise ValueError("empty matrix")
    m = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(m)]
    norms2 = [sum(v * v for v in col) for col in cols]
    for j, s in enumerate(norms2):
        if s == 0:
            raise ZeroColumn(f"column {j + 1} is zero")
    best = Fraction(0)          # best mu^2 so far
    for i in range(m):
        for j in range(i + 1, m):
            dot = sum(a * b for a, b in zip(cols[i], cols[j]))
            ratio = dot * dot / (norms2[i] * norms2[j])
            if ratio > best:
                best = ratio
    return math.sqrt(best)


def coherence_bound(phi) -> float:
    """Sparsity level below which l0/l1 recovery is guaranteed: (1 + 1/mu)/2."""
    mu = mutual_coherence(phi)
    if mu == 0:
        return math.inf
    return 0.5 * (1.0 + 1.0 / mu)


def rip_constant(phi, s: int, *, budget: int = 200_000) -> float:
    """Restricted isometry constant of order s, by support enumeration.

    For each column subset T with |T| <= s the Gram spectrum of phi_T is
    compared against 1; subsets up to size 2 use closed-form eigenvalues
    on exact Gram entries, larger ones use floating eigendecomposition.
    """
    rows = _frac_matrix(phi)
    if not rows:
        raise ValueError("empty matrix")
    m = len(rows[0])
    if not 1 <= s <= m:
        raise ValueError(f"order must lie in 1..{m}")
    total = sum(math.comb(m, t) for t in range(1, s + 1))
    if total > budget:
        raise SizeLimitExceeded(f"{total} supports exceeds budget {budget}")
    cols = [[row[j] for row in rows] for j in range(m)]

    def dot(i, j):
        return sum(a * b for a, b in zip(cols[i], cols[j]))

    delta = 0.0
    for i in range(m):
        g = dot(i, i)
        delta = max(delta, abs(float(g) - 1.0))
    if s >= 2:
        for i in range(m):
            for j in range(i + 1, m):
                a, b, c = dot(i, i), dot(i, j), dot(j, j)
                mean = Fraction(a + c, 2)
                disc2 = Fraction(a - c, 2) ** 2 + b * b
                root = math.sqrt(disc2)
                lam_hi = float(mean) + root
                lam_lo = float(mean) - root
                delta = max(delta, lam_hi - 1.0, 1.0 - lam_lo)
    for t in range(3, s + 1):
        for T in combinations(range(m), t):
            G = np.array([[float(dot(i, j)) for j in T] for i in T])
            lam = np.linalg.eigvalsh(G)
            delta = max(delta, float(lam[-1]) - 1.0, 1.0 - float(lam[0]))
    return delta


def exhaustive_min_card(phi, b=None, *, cap: int = 200_000) -> int | None:
    """Minimum support size of w with phi w = b, by support enumeration.

    A support T works exactly when b lies in the span of the T columns,
    an exact rank comparison.  Returns None when even the full support
    fails (b outside the range); raises CapExceeded past the budget.
    """
    if isinstance(phi, CsInstance) and b is None:
        b = list(phi.b)
    if b is None:
        raise ValueError("b is required unless phi is a CsInstance")
    rows = _frac_matrix(phi)
    bvec = [to_fraction(v) for v in b]
    if len(bvec) != len(rows):
        raise ValueError("b length must match the row count")
    m = len(rows[0]) if rows else 0
    # one integer scaling of the augmented rows; row scaling preserves
    # both ranks in the comparison
    aug = [scale_row(list(row) + [bv])[0] for row, bv in zip(rows, bvec)]
    if all(row[-1] == 0 for row in aug):
        return 0
    tested = 0
    for size in range(1, m + 1):
        for T in combinations(range(m), size):
            tested += 1
            if tested > cap:
                raise CapExceeded(cap)
            sub = [[row[c] for c in T] for row in aug]
            sub_b = [[row[c] for c in T] + [row[-1]] for row in aug]
            if int_rank(sub) == int_rank(sub_b):
                return size
    return None
