"""Independent reference solvers and diagnostics for security indices.

Everything here reaches the same answers as the production path by a
different route: exhaustive enumeration backed by exact rank tests, a
big-M mixed-integer formulation solved by branch and bound on exact LP
relaxations, and compressed-sensing measures (mutual coherence, restricted
isometry) of the nullspace reformulation.  Beyond the validated input
(tumin.TUProblem), the big-M root shares one step with the l1 path: the
Gauss-Jordan elimination of the state (tumin._eliminate_states), in
general integers.  Its search, its LP and its solver state are its own,
and every incumbent is checked on the rows before elimination, so a
defect in the shared step shows as a failed check, not as agreement.
Exhaustive enumeration and min cut (gridsec.mincut) share nothing with
either.

Meter/row indices are 1-based, matching the measurement-system convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from time import perf_counter
from typing import NamedTuple

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
from .exactla import (
    frac_rref,
    in_row_space,
    int_rank,
    left_nullspace,
    scale_row,
    to_fraction,
)
from .grid import MeasurementSystem, Network, metering
# not called here; the benchmark's tracer wraps it by this name
from .grid import incidence  # noqa: F401
from .security import CriticalTuple, SecurityIndexResult, _exact_result, _flow_target
from .tumin import TUProblem, _eliminate_states, check_rows


# --- exhaustive enumeration ----------------------------------------------


def _subsets(items, smallest: int, cap: int):
    """Subsets of items, as tuples, by increasing size from smallest up to
    all of them; CapExceeded(cap) in place of the (cap + 1)-th."""
    tested = 0
    for size in range(smallest, len(items) + 1):
        for S in combinations(items, size):
            tested += 1
            if tested > cap:
                raise CapExceeded(cap)
            yield S


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
    for S in _subsets(others, 0, cap):
        if not in_row_space(target, prot_rows + [rows[j - 1] for j in others if j not in S]):
            return len(S) + 1
    return None


def exhaustive_min_tuple(A, k: int, *, cap: int = 200_000) -> CriticalTuple | None:
    """Smallest critical tuple containing row k, by direct enumeration.

    J is critical for k when the rows outside J leave the state
    undetermined while restoring row k alone determines it again.
    """
    prob = TUProblem(A, k)
    rows, k = prob.A.tolist(), prob.k
    m, n = len(rows), len(rows[0])
    for rest in _subsets([j for j in range(1, m + 1) if j != k], 0, cap):
        J = frozenset(rest) | {k}
        outside = [rows[j - 1] for j in range(1, m + 1) if j not in J]
        if int_rank(outside) < n and int_rank(outside + [rows[k - 1]]) == n:
            return CriticalTuple(J, k)
    return None


# --- big-M mixed-integer reference solver --------------------------------


def _big_m(net: Network) -> Fraction:
    """Big-M for the flow rows of net: the largest column sum of |B|, B the
    truncated incidence (grid.incidence), i.e. the most ends of a line off
    the reference bus.  It dominates |A(j,:) d| at some optimum because an
    optimal d exists with entries in {-1,0,1}."""
    ref = net.reference_bus
    return to_fraction(max(2 - (ref in (ln.from_bus, ln.to_bus)) for ln in net.lines))


def _t_columns(m: int, I: frozenset[int]) -> dict[int, int]:
    """Column of t'+_j for every unprotected row j of m rows, in row order;
    t'-_j follows it."""
    free = [j for j in range(1, m + 1) if j not in I]
    return {j: 2 * pos for pos, j in enumerate(free)}


def _node_lp(rows, n: int, I: frozenset[int], big_m: Fraction) -> tuple[lp._Tableau, tuple]:
    """The target-free root LP relaxation of the big-M formulation of
    integer rows (sparse pairs) over n states with protected rows I, at its
    crash basis, and the state rows that give d back.

    Binaries y mark touched rows: minimize sum(y) subject to
    |A(j,:) d| <= big_m * y_j on unprotected rows and A(I,:) d = 0.  Every
    unprotected row j is free: with big_m = Mn / Md, a link row
    Md A(j,:) d - t'+_j + t'-_j = 0 splits its move into t'+_j, t'-_j in
    [0, Mn] (t' = Md t, upper bounds of the tableau, no rows), and
    y_j = (t'+_j + t'-_j) / Mn.  No row bounds t'+_j + t'-_j: at an
    optimum a free row's positive cost keeps one of the two at 0, and
    |A(j,:) d| <= big_m holds either way.  The state d is eliminated from
    the protected and link rows first (tumin._eliminate_states, with
    t'+_j / t'-_j as its y+_j / y-_j; the link rows are homogeneous, so
    the scaling by Md leaves the cycle rows as they are), which drops
    dependent protected rows; the root keeps only the cycle rows over t',
    its columns t'+_j, t'-_j at _t_columns.  Each cycle row is basic in
    whichever of its own t'+_j, t'-_j holds its positive entry: every t'
    is 0, a feasible basis.  The cost, 1 on every t' column (Mn sum(y)),
    is priced out.  A target adds its own row (_target_tableau) and branch
    and bound fixes binaries by bounds, so every node keeps this layout.
    State row (c, p, pairs) reads p Md d_c + pairs . t' = 0.
    """
    r = len(rows) - len(I)
    state, yrows = _eliminate_states(rows, n, I)

    def over_t(row):                # y+_pos -> t'+_pos, y-_pos -> t'-_pos; x dropped
        return {2 * (c - n) if c < n + r else 2 * (c - n - r) + 1: v
                for c, v in row.items() if c >= n}

    out, basis = [], []
    for pos, row in yrows.items():
        row = over_t(row)
        out.append(row)
        basis.append(2 * pos if row[2 * pos] > 0 else 2 * pos + 1)
    tab = lp._Tableau(out, basis, 2 * r, dict.fromkeys(range(2 * r), big_m.numerator))
    tab.add_cost(dict.fromkeys(range(2 * r), 1), 1)
    state = tuple((c, row[c], tuple(over_t(row).items())) for c, row in state.items())
    return tab, state


class MilpRoot(NamedTuple):
    """_milp_root's solved target-free big-M root of rows, n, I and big_m:
    its optimal tableau (every t' at 0), which every target copies and none
    changes, its state rows (_node_lp) and _t_columns of the data."""

    tab: lp._Tableau
    state: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    tcol: dict[int, int]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    n: int
    I: frozenset[int]
    big_m: Fraction


def _milp_root(rows, n: int, I: frozenset[int], big_m) -> MilpRoot:
    """The root LP (_node_lp) of checked integer rows over n states and
    protected rows I, solved once by lp's primal simplex from its crash
    basis for every target row of that data; ValueError unless big_m is
    positive.  The solve must stop optimal at zero with a certified
    tableau; SolverDefect otherwise."""
    M = to_fraction(big_m)
    if M <= 0:
        raise ValueError("big_m must be positive")
    rows = tuple(rows)
    tab, state = _node_lp(rows, n, I, M)
    if lp._run_simplex(tab, [0]) is not lp.LpStatus.OPTIMAL or tab.objective() != 0:
        raise SolverDefect("the target-free big-M root is not optimal at zero; solver defect")
    tab.check_optimal()
    # a copy holds its rows in dicts of their final size
    return MilpRoot(tab.copy(), state, _t_columns(len(rows), I), rows, n, I, M)


def _fix_one(tab: lp._Tableau, root: MilpRoot, j: int) -> lp.LpStatus:
    """y_j = 1 on tab: t'+_j and t'-_j cost nothing, and the primal simplex
    continues."""
    t = root.tcol[j]
    tab.add_cost({t: -1, t + 1: -1}, 1)
    return lp._run_simplex(tab, [0])


def _target_tableau(root: MilpRoot, k: int) -> tuple[lp._Tableau, lp.LpStatus]:
    """A copy of root's tableau re-optimized for target row k: y_k = 1
    (_fix_one), then t'+_k - t'-_k, which k's link row holds at
    Md A(k,:) d, is held at Md (A(k,:) d = 1) by one appended row whose
    slack is fixed at 0, and the dual simplex restores the bounds."""
    t = root.tcol[k]
    tab = root.tab.copy()
    status = _fix_one(tab, root, k)
    if status is lp.LpStatus.OPTIMAL:
        tab.add_row({t: 1, t + 1: -1, lp.RHS: root.big_m.denominator})
        tab.fix(tab.ncols - 1)
        status = lp._run_dual_simplex(tab, [0])
    return tab, status


def _state_move(root: MilpRoot, X: dict[int, int], den: int) -> tuple[list[int], int]:
    """(numerators, denominator) of the state move d at the t' values X
    (nonzero values by column over den), read from root's state rows:
    d_c = -(pairs . t') / (p Md), every state column without a row 0."""
    scale = math.lcm(*(abs(p) for _, p, _ in root.state))
    d = [0] * root.n
    for c, p, pairs in root.state:
        d[c] = -sum(v * X.get(t, 0) for t, v in pairs) * (scale // p)
    return d, den * scale * root.big_m.denominator


def _check_incumbent(root: MilpRoot, k: int, X: dict[int, int], den: int,
                     d: list[int], dden: int) -> None:
    """An incumbent (nonzero t' values X by column over den, and its state
    move d over dden) must satisfy every row of the formulation before
    elimination (_node_lp: links, the bounds 0 <= t' <= Mn, protected
    rows) and the target's A(k,:) d = 1 exactly; checked in integers."""
    Md = root.big_m.denominator
    top = root.big_m.numerator * den

    def image(j):                     # dden * A(j,:) d
        return sum(a * d[c] for c, a in root.rows[j - 1])

    ok = image(k) == dden and not any(image(i) for i in root.I)
    for j, t in root.tcol.items():
        tp, tm = X.get(t, 0), X.get(t + 1, 0)
        ok = (ok and image(j) * den * Md == (tp - tm) * dden
              and 0 <= tp <= top and 0 <= tm <= top)
    if not ok:
        raise SolverDefect("incumbent violates a root row; solver defect")


def _branch_and_bound(root: MilpRoot, k: int, *, cap: int = 100_000, trace=None):
    """Branch and bound for target row k on root; see solve_milp_instance.
    Returns (optimum, (d, den), support, nodes), d as integer numerators
    over den, or None; ValueError for a k outside root's rows or
    protected."""
    k, _ = check_rows(len(root.rows), k, root.I)
    Mn = root.big_m.numerator
    # every unprotected row but the target, whose binary is fixed to 1
    free = {j: c for j, c in root.tcol.items() if j != k}
    best: int | None = None
    best_d: list[int] | None = None     # numerators over best_den
    best_den = 1
    nodes = 0
    # (tableau, rows fixed to 0, rows fixed to 1, the row fixed last); the
    # target's node has no fixing yet, and a node the depth rule will
    # prune no tableau
    stack: list[tuple] = [(None, frozenset(), frozenset(), None)]
    while stack:
        tab, fixed0, fixed1, j = stack.pop()
        nodes += 1
        if nodes > cap:
            raise CapExceeded(cap, f"branch and bound exceeded its cap of {cap} nodes")
        depth = len(fixed0) + len(fixed1)
        # the target row always counts: its binary is fixed to 1
        if best is not None and len(fixed1) + 1 > best - 1:
            if trace is not None:
                trace.write(f"node depth={depth} fixed1={len(fixed1)} action=prune-depth\n")
            continue
        if j is None:
            tab, status = _target_tableau(root, k)
        elif j in fixed1:
            status = _fix_one(tab, root, j)
        else:
            tab.fix(free[j])
            tab.fix(free[j] + 1)
            status = lp._run_dual_simplex(tab, [0])
        if status is lp.LpStatus.INFEASIBLE:
            if trace is not None:
                trace.write(f"node depth={depth} action=infeasible\n")
            continue
        if status is not lp.LpStatus.OPTIMAL:
            raise SolverDefect("bounded relaxation reported unbounded; solver defect")
        tab.check_optimal()
        X, den = tab.values()
        # one pass over the free rows: the rows the vertex moves, the zero
        # fixings, and the first fractional binary y_i = (t'+_i + t'-_i) / Mn
        value, frac, full = 1, None, Mn * den
        for i, c in free.items():
            tp, tm = X.get(c, 0), X.get(c + 1, 0)
            value += tp != tm
            if i in fixed0:
                if tp or tm:
                    raise SolverDefect("node vertex moves a row fixed to zero; solver defect")
            elif frac is None and tp + tm not in (0, full) and i not in fixed1:
                frac = i
        if best is None or value < best:
            d, dden = _state_move(root, X, den)
            _check_incumbent(root, k, X, den, d, dden)
            best, best_d, best_den = value, d, dden
            if trace is not None:
                trace.write(f"node depth={depth} value={value} action=incumbent\n")
        # the node's bound, z / Mn + len(fixed1) + 1, against best - 1
        if -tab.zrow.get(lp.RHS, 0) > (best - 2 - len(fixed1)) * tab.zden * Mn:
            if trace is not None:
                trace.write(f"node depth={depth} bound={_bound(tab, Mn, fixed1)} best={best} "
                            "action=prune-bound\n")
            continue
        if frac is None:
            continue
        if trace is not None:
            trace.write(f"node depth={depth} bound={_bound(tab, Mn, fixed1)} branch={frac}\n")
        # the one branch is pruned by depth when popped if it would be now
        one = tab.copy() if len(fixed1) + 2 <= best - 1 else None
        stack.append((one, fixed0, fixed1 | {frac}, frac))
        stack.append((tab, fixed0 | {frac}, fixed1, frac))
    if best is None:
        return None
    support = frozenset(j for j in root.tcol
                        if sum(a * best_d[c] for c, a in root.rows[j - 1]))
    if len(support) != best:
        raise SolverDefect("incumbent support disagrees with the optimum")
    return best, (best_d, best_den), support, nodes


def _bound(tab: lp._Tableau, Mn: int, fixed1) -> Fraction:
    """A node's bound for trace text: its objective over Mn plus its
    binaries fixed to 1, the target's included."""
    return tab.objective() / Mn + len(fixed1) + 1


def solve_milp_instance(prob: TUProblem, big_m=Fraction(2), *, cap: int = 100_000,
                        trace=None) -> tuple[int, tuple[Fraction, ...], frozenset[int], int] | None:
    """Branch and bound on the big-M formulation of prob (see _node_lp):
    a fresh root for prob's rows, protected rows and big_m (_milp_root),
    then target row prob.k on it, as milp_solve does on a system's kept
    root.

    big_m must be positive and should dominate |A(j,:) d| at some optimum;
    an undersized one can only raise the optimum or make it infeasible
    (below 1 the target row itself cannot reach 1).
    Depth-first, branching the lowest-index fractional binary with the
    zero branch explored first; node bounds come from exact LP
    relaxations, so a subtree is pruned only when its bound provably
    exceeds best - 1 (the objective is integral).  Only the target-free
    root is solved from scratch, by the primal simplex from its crash
    basis (_node_lp), with no artificial column and no phase 1;
    each target re-optimizes a copy of its exact optimal tableau
    (_target_tableau), and every other node its parent's.  Fixing y_j = 1
    drops the cost of t'+_j and t'-_j, which keeps the basis primal
    feasible, so the primal simplex continues; fixing y_j = 0 fixes both
    at 0 by their upper bounds, which keeps it dual feasible and appends no
    row, so the dual simplex restores the bounds.  The zero branch takes
    the parent's tableau in place, the one branch a copy, unless the
    depth rule will prune it when it is popped.  Each node's tableau is
    certified optimal (basic values within their bounds, the reduced
    costs of the columns not fixed nonnegative), and its vertex checked
    against its zero fixings, before it is used.

    Every node's relaxation is itself an attack: d, read from the state
    rows over the vertex's denominator (_state_move), meets the protected
    rows and the node's fixings, and the eliminated link rows give
    Md A(j,:) d = t'+_j - t'-_j, so d moves the target plus exactly the
    free rows with t'+_j != t'-_j.  When that count beats the best so
    far, d becomes the incumbent, once the vertex passes an exact check
    against the rows before elimination and A(k,:) d = 1
    (_check_incumbent).  At a leaf (no fractional binary) the count is at
    most the leaf's objective, so leaves need no rule of their own.
    Every node test reads the vertex in integers over its denominator.
    Failed certificates and checks raise SolverDefect.

    More than cap nodes raise CapExceeded(cap); the default is over a
    hundred times the most nodes any meter of the bundled cases or of a
    seeded 118-bus synthetic grid needs.  trace, when given, receives one
    free-text line per node.  Returns (optimum, d, support, nodes) or None
    when even the target's node is infeasible.
    """
    root = _milp_root(prob.rows, prob.A.shape[1], prob.I, big_m)
    out = _branch_and_bound(root, prob.k, cap=cap, trace=trace)
    if out is None:
        return None
    value, (d, den), support, nodes = out
    return value, tuple(Fraction(v, den) for v in d), support, nodes


def milp_solve(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Security index of flow meter k via the big-M reference solver.

    Alternative to the l1 path: the same integer flow rows and the same
    state elimination, an entirely different search, checked on the rows
    before elimination.  The system's target-free root, with the
    network's big-M (_big_m), is solved on its first MILP solve and kept
    by its grid.Metering (milp_root); each call runs branch and bound for
    meter k on a copy of it, as solve_milp_instance does on a fresh one.
    The witness is rescaled so meter k reads +1 in measurement units.
    """
    t0 = perf_counter()
    _flow_target(meas, k)
    mtr = metering(net, meas)
    out = _branch_and_bound(mtr.milp_root, k)
    if out is None:
        raise InfeasibleIndex(k)
    _, (d, den), support, _ = out
    return _exact_result(mtr, k, "milp", d, support, t0, den)


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
    k, I = check_rows(m, k, I)
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

    For each column subset T with |T| <= s the Gram spectrum of phi_T,
    its entries exact and its eigenvalues in floating point (eigvalsh), is
    compared against 1.
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
    for t in range(1, s + 1):
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
    for T in _subsets(range(m), 1, cap):
        sub = [[row[c] for c in T] for row in aug]
        sub_b = [[row[c] for c in T] + [row[-1]] for row in aug]
        if int_rank(sub) == int_rank(sub_b):
            return len(T)
    return None
