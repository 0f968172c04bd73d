"""Minimum-support solves over totally unimodular constraint data.

The problem: given an integer matrix A, a target row k and a protected row
set I, find x minimizing the number of nonzero entries of A(unprotected,:)x
subject to A(k,:)x = 1 and A(I,:)x = 0.  For totally unimodular A the l1
relaxation, posed as a standard-form LP and solved exactly, attains the
same optimum and an integral witness, so the combinatorial answer comes out
of a single polynomial-time solve.  The LP is written once, in meter space:
the state x is eliminated by Gauss-Jordan, leaving rows over the row
slacks y and a state map that gives x back (meter_space, whose MeterSpace
record also holds the checked data, the y layout and a column index, and
is all the MILP oracle's root reads of this module's work).  The record
alone reads a witness back, for both roots: move gives x at the y values
and image the nonzero A(j,:)x.  solve_l1_base solves it without a target
row once per (A, I) and keeps it as live lists with that record (L1Base);
solve_warm(base, k) re-optimizes a shallow copy of it per target row k by
a dual simplex and certifies the witness on the record's rows, and
solve_min_support is the two on a fresh base.  A target pays for its
pivots and for the rows its witness moves: its row is reduced over the
two rows basic in its own columns, and the certificate reads A(j,:)x only
on the rows that hold a column x moves (MeterSpace.image).

For totally unimodular A every tableau of that LP is totally unimodular
too, so the base and the warm step hold only -1, 0 and 1
(lp._TernaryTableau: each row two bitmasks), and so do the state rows,
whose map then reads x by integer sums.  Data outside total unimodularity
is an IntegralityError as soon as it shows: a state pivot or a
meter-space entry outside {-1, 0, 1} (MeterSpace.ternary), a pivot
reaching +-2, or a witness the certificate rejects.  Such data may still
have an integral l1 optimum, but l1 = cardinality is proved only under
total unimodularity.

Row indices (k, I, supports) are 1-based throughout this module.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
import math
from operator import index
import random
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import IntegralityError, SizeLimitExceeded, SolverDefect
from .exactla import _eliminate, _reduce, det_int, int_matrix


def check_rows(m: int, k: int, I=frozenset()) -> tuple[int, frozenset[int]]:
    """(k, I) as an int and a frozenset of ints, once target row k and the
    protected rows I are known to lie in 1..m with k unprotected;
    TypeError for a non-integral id, ValueError otherwise."""
    k = index(k)
    if not 1 <= k <= m:
        raise ValueError(f"target row {k} outside 1..{m}")
    I = _protected_rows(m, I)
    if k in I:
        raise ValueError("target row cannot be protected")
    return k, I


def _protected_rows(m: int, I) -> frozenset[int]:
    """I as a frozenset of ints in 1..m, read by operator.index; ValueError otherwise."""
    I = frozenset(map(index, I))
    if any(not 1 <= i <= m for i in I):
        raise ValueError("protected row outside 1..m")
    return I


@dataclass(frozen=True)
class TUProblem:
    """The one record of a minimum-support problem: integer data A, a 1-based
    target row k and protected rows I, read by the l1 solve and the oracles.

    A is read by int_matrix, and rows, each row's nonzero (column, value)
    pairs as Python ints, are always built from it (sparse_rows); k and I
    are checked by check_rows.  Problems compare and hash by value: the
    shape of A, rows, k and I.
    """

    A: np.ndarray
    k: int
    I: frozenset[int] = frozenset()
    rows: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", int_matrix(self.A))
        object.__setattr__(self, "rows", sparse_rows(self.A))
        k, I = check_rows(self.A.shape[0], self.k, self.I)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "I", I)

    def _key(self):
        return self.A.shape, self.rows, self.k, self.I

    def __eq__(self, other):
        return isinstance(other, TUProblem) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def free_rows(self) -> tuple[int, ...]:
        """Unprotected rows (1-based, ascending); note k is one of them."""
        return tuple(j for j in range(1, self.A.shape[0] + 1) if j not in self.I)


def sparse_rows(A: np.ndarray) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each row of the integer array A as its nonzero (column, value) pairs."""
    r, c = np.nonzero(A)
    out: list[list[tuple[int, int]]] = [[] for _ in range(A.shape[0])]
    for i, j, a in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
        out[i].append((j, a))
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class TUSolution:
    x: tuple[int, ...]
    support: frozenset[int]        # unprotected rows where A(j,:)x != 0

    @property
    def cardinality(self) -> int:
        return len(self.support)


class MeterSpace(NamedTuple):
    """meter_space's target-free l1 LP of checked integer rows over n state
    columns with protected rows I, its state x eliminated: the one record
    both kept roots of a measurement system read as is (solve_l1_base,
    oracle._node_lp), and neither changes, and the one reader of their
    witnesses (move, image).

    free holds the r unprotected rows, ascending, and ycol[j] the column
    of y+_j, j's place among them; y-_j sits r columns on.  yrows are the
    rows over y, each an unprotected row's, the only row holding its y+
    and y-.  state[t], by y+ column t, holds the (state column c, a) pairs
    that read x_c = sum a (y+_t - y-_t) / scale; a state column with no
    pair reads 0.  columns[c] holds the 1-based rows with a nonzero in
    state column c.  ternary: every state pivot and every entry of a state row
    or of a row over y is -1 or 1 (and scale is then 1).
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]
    I: frozenset[int]
    free: tuple[int, ...]
    ycol: dict[int, int]
    yrows: tuple[dict[int, int], ...]
    state: dict[int, tuple[tuple[int, int], ...]]
    scale: int
    columns: tuple[tuple[int, ...], ...]
    ternary: bool

    def move(self, vals: dict[int, int]) -> list[int]:
        """The state move x, by column as numerators over scale times the
        values' denominator, at the nonzero y values vals by column (the
        MILP's t' in the same layout), read from the state map through
        the columns of vals only; a column past the y block adds nothing."""
        r = len(self.free)
        x = [0] * len(self.columns)
        for t, v in vals.items():
            if t >= r:                      # y-_t: the entries of y+_t negated
                t, v = t - r, -v
            for c, a in self.state.get(t, ()):
                x[c] += a * v
        return x

    def image(self, x) -> dict[int, int]:
        """The nonzero A(j,:)x by 1-based row j, read only on the rows
        that hold a column x moves (columns); every other row reads 0."""
        return _image(self.rows, x, {j for c, v in enumerate(x) if v for j in self.columns[c]})


def meter_space(rows, n: int, I=frozenset()) -> MeterSpace:
    """The meter-space record of integer rows (sparse_rows pairs) over n
    state columns and protected rows I; ValueError for a protected row or
    a column outside the data.  The data may be any integer rows.

    The rows A(I,:)x = 0, in ascending order, then A(j,:)x - y+_j + y-_j
    = 0 for each unprotected row j, over x and y+ / y- at columns n + pos
    / n + r + pos (pos = ycol[j]), are reduced by Gauss-Jordan in
    integers.  Each row that still holds a state column after reduction
    becomes the state row of its smallest, c, and that column is
    eliminated from the earlier state rows that hold it (found through a
    column index); the other rows are over y only.  Taken first, a
    protected row becomes a state row or reduces to nothing and is
    dropped, so each row over y is an unprotected row's.  A state row
    reads p x_c + (free state columns) + row . y = 0 with p any nonzero
    integer, and each row holds y-_t at minus its y+_t (row_t): setting
    every state column without a row to 0, x_c = -sum row_t (y+_t - y-_t)
    / p.
    """
    rows = tuple(rows)
    I = _protected_rows(len(rows), I)
    columns: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(rows, start=1):
        for c, _ in row:
            if not 0 <= c < n:
                raise ValueError(f"column {c} outside 0..{n - 1}")
            columns[c].append(j)
    free = [j for j in range(1, len(rows) + 1) if j not in I]
    r = len(free)
    state: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}       # state column -> state rows holding it
    yrows = []
    for pos, j in enumerate(sorted(I) + free, start=-len(I)):
        row = dict(rows[j - 1])
        if pos >= 0:
            row[n + pos] = -1
            row[n + r + pos] = 1
        for c in [c for c in row if c in state]:    # a state row holds no other pivot
            srow = state[c]
            _eliminate(row, srow[c], row[c], srow)
            _reduce(row, 0)
        c = min(row, default=n)
        if c >= n:
            if row:
                yrows.append(row)
            continue
        others = [s for s in row if s < n and s != c]
        for q in holders.pop(c, ()):
            srow = state[q]
            _eliminate(srow, row[c], srow[c], row)
            _reduce(srow, 0)
            for s in others:
                if s in srow:
                    holders.setdefault(s, set()).add(q)
                else:
                    holders[s].discard(q)
        for s in others:
            holders.setdefault(s, set()).add(c)
        state[c] = row
    ternary = all(v in (-1, 1) for row in [*state.values(), *yrows] for v in row.values())
    scale = math.lcm(*(abs(srow[c]) for c, srow in state.items()))
    pairs: dict[int, list[tuple[int, int]]] = {}
    for c, srow in state.items():
        p = srow[c]
        for t, v in srow.items():
            if n <= t < n + r:
                pairs.setdefault(t - n, []).append((c, -v * (scale // p)))
    return MeterSpace(rows, I, tuple(free), {j: pos for pos, j in enumerate(free)},
                      tuple({t - n: v for t, v in row.items()} for row in yrows),
                      {t: tuple(e) for t, e in pairs.items()}, scale,
                      tuple(map(tuple, columns)), ternary)


def build_l1_lp(problem: TUProblem) -> lp.StandardFormLP:
    """The l1 relaxation of problem in one piece: the rows over y of its
    meter space, then the target row y+_k - y-_k = 1, i.e. A(k,:)x = 1,
    at cost sum(y+) + sum(y-).  The solve path builds the same LP in two
    steps (solve_l1_base, then solve_warm's row)."""
    space = meter_space(problem.rows, problem.A.shape[1], problem.I)
    r = len(space.free)
    y = space.ycol[problem.k]
    rows = [*space.yrows, {y: 1, y + r: -1, lp.RHS: 1}]
    return lp.StandardFormLP.from_int_rows(rows, dict.fromkeys(range(2 * r), 1), 2 * r)


def solve_min_support(problem: TUProblem) -> TUSolution | None:
    """Exact minimum-support solve; None when the constraints are infeasible:
    solve_warm on a base solved for problem's rows and protection alone."""
    return solve_warm(solve_l1_base(meter_space(problem.rows, problem.A.shape[1], problem.I)),
                      problem.k)


class L1Base(NamedTuple):
    """solve_l1_base's solved target-free l1 LP of space, as live lists.

    pos, neg, basis and z are its optimal ternary tableau
    (lp._TernaryTableau, every basic value 0).  solve_warm copies those
    lists shallowly (their ints are immutable) and only reads space, so a
    base serves every target unchanged.
    """

    pos: list[int]
    neg: list[int]
    basis: list[int]
    z: list[int]
    space: MeterSpace


def solve_l1_base(space: MeterSpace) -> L1Base:
    """The l1 LP of space, cost sum(y+) + sum(y-), solved once for every
    target row of its data.  Each row over y is basic in its
    lp._crash_basis column at value 0, lp's primal simplex runs on that
    ternary tableau, and its optimality is checked (an unbounded stop
    fails it too).  IntegralityError unless space is ternary; data that
    is not totally unimodular can also raise it in the simplex.
    """
    if not space.ternary:
        raise IntegralityError("a meter-space entry leaves {-1, 0, 1}: "
                               "the data is not totally unimodular")
    width = 2 * len(space.free)
    z, pos, neg = [1] * width, [], []     # z: reduced costs
    for row in space.yrows:
        for j, v in row.items():
            z[j] -= v
        pos.append(sum(1 << j for j, v in row.items() if v == 1))
        neg.append(sum(1 << j for j, v in row.items() if v == -1))
    tab = lp._TernaryTableau(pos, neg, [0] * len(pos), lp._crash_basis(space.yrows, width), z)
    lp._run_simplex(tab, [0])
    tab.check_optimal()
    return L1Base(tab.pos, tab.neg, tab.basis, tab.z, space)


def solve_warm(base: L1Base, k: int) -> TUSolution | None:
    """Minimum-support solve of target row k by re-optimizing base; None
    when the constraints are infeasible, i.e. when the dual simplex finds
    no basis.  ValueError for a k outside base's rows or protected.

    A ternary tableau copied from base gains the row -y+_k + y-_k + s =
    -1, i.e. A(k,:)x >= 1, as the target's own row reads A(k,:)x - y+_k +
    y-_k = 0, and lp's dual simplex restores nonnegative values.  The
    objective is positively homogeneous and at least |A(k,:)x|, so every
    optimum has A(k,:)x = 1 and s = 0, an optimum of build_l1_lp of the
    same data.  x is read from base's state map.
    """
    space = base.space
    k, _ = check_rows(len(space.rows), k, space.I)
    y = space.ycol[k]
    tab = lp._TernaryTableau(base.pos[:], base.neg[:], [0] * len(base.basis), base.basis[:],
                             base.z[:])
    tab.add_row(1 << (y + len(space.free)), 1 << y, -1)
    if lp._run_dual_simplex(tab, [0]) is lp.LpStatus.INFEASIBLE:
        return None
    return _certified_solution(tab, space, k)


def _certified_solution(tab: lp._TernaryTableau, space: MeterSpace, k: int) -> TUSolution:
    """The minimum-support solution of row k at the optimal tableau of
    space's LP, checked.

    The tableau must read optimal, every column past the y block (the
    target row's slack) must be zero, and the objective must equal the y
    sum.  The state move x (space.move) must satisfy A(I,:)x = 0 and
    A(k,:)x = 1 on space's integer rows, and touch as many rows as the
    objective, in the unimodular pattern: x in {-1, 0, 1} and every
    nonzero A(j,:)x (space.image) in {-1, 1}.  SolverDefect otherwise (its
    subclass IntegralityError for a broken integrality pattern).
    """
    tab.check_optimal()
    vals, _ = tab.values()
    if any(c >= 2 * len(space.free) for c in vals):
        raise SolverDefect("the target row's slack is not zero; solver defect")
    objective = tab.objective()
    if objective != sum(vals.values()):
        raise SolverDefect("objective bookkeeping mismatch; solver defect")
    x = space.move(vals)
    image = space.image(x)
    if image.get(k) != 1 or any(j in space.I for j in image):
        raise SolverDefect("witness breaks the target or a protected row; solver defect")
    sol = TUSolution(tuple(x), frozenset(image))
    if sol.cardinality != objective:
        raise IntegralityError(f"objective {objective} != support {sol.cardinality}")
    if any(v not in (-1, 0, 1) for v in x) or any(v not in (-1, 1) for v in image.values()):
        raise IntegralityError(f"witness violates the unimodular pattern: {sol}")
    return sol


def _image(rows, x, which) -> dict[int, int]:
    """A(j,:)x by row j among which, where it is nonzero (A by its rows)."""
    out = {}
    for j in which:
        v = 0
        for c, a in rows[j - 1]:
            v += a * x[c]
        if v:
            out[j] = v
    return out


def validate_integrality(sol: TUSolution, problem: TUProblem) -> bool:
    """Check the pattern total unimodularity guarantees on A(j,:)x
    recomputed from sol.x over the unprotected rows: x in {-1,0,1}^n,
    every nonzero A(j,:)x in {-1, 1}, and sol.support exactly the rows
    where it is nonzero."""
    if len(sol.x) != problem.A.shape[1] or any(v not in (-1, 0, 1) for v in sol.x):
        return False
    image = _image(problem.rows, sol.x, problem.free_rows)
    return all(v in (-1, 1) for v in image.values()) and frozenset(image) == sol.support


def verify_tu(A, max_order: int, *, budget: int = 200_000) -> bool:
    """Do all square minors of A up to max_order have determinants in {-1,0,1}?

    Entries outside {-1, 0, 1} fail at order 1.  When every row, or every
    column, holds at most two nonzeros (a flow matrix's rows do) the answer
    is exact and cheap (_two_per_line).  Other matrices are enumerated,
    exponential by nature: SizeLimitExceeded when the minor count would
    exceed the work budget.
    """
    A = int_matrix(A)
    m, n = A.shape
    if not 1 <= max_order <= min(m, n):
        raise ValueError(f"max_order must lie in 1..{min(m, n)}")
    if np.any(np.abs(A) > 1):
        return False  # order-1 minors already fail
    for lines in (A, A.T):
        if np.count_nonzero(lines, axis=1).max() <= 2:
            return _two_per_line(lines) > max_order
    total = sum(math.comb(m, r) * math.comb(n, r) for r in range(1, max_order + 1))
    if total > budget:
        raise SizeLimitExceeded(f"{total} minors exceeds budget {budget}")
    rows_list = A.tolist()
    for order in range(2, max_order + 1):
        for rows in combinations(range(m), order):
            sub = [rows_list[i] for i in rows]
            for cols in combinations(range(n), order):
                minor = [[row[c] for c in cols] for row in sub]
                if det_int(minor) not in (-1, 0, 1):
                    return False
    return True


def _two_per_line(lines: np.ndarray) -> float:
    """The smallest order of a minor outside {-1, 0, 1} of a {-1, 0, 1}
    matrix whose lines (rows) hold at most two nonzeros each; inf when it
    is totally unimodular.

    Each two-entry line is an edge between its columns, odd when its
    entries agree in sign.  By Heller and Tompkins the matrix is totally
    unimodular exactly when the columns 2-colour with the odd edges
    across the classes and the others within them, which one BFS decides
    in O(nnz).  A square submatrix with a nonzero determinant splits into
    blocks that are each a tree plus one one-entry line (determinant
    +-1) or one cycle with pendant trees (0, or +-2 for a cycle with an
    odd count of odd edges), so a failing minor holds such a cycle, whose
    own minor fails: the shortest one, found by a BFS over
    (column, parity) from each column, is the answer.
    """
    width = lines.shape[1]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for line in lines:
        nz = np.flatnonzero(line)
        if len(nz) == 2:
            u, w = nz.tolist()
            odd = int(line[u] == line[w])
            adj[u].append((w, odd))
            adj[w].append((u, odd))
    colour = [-1] * width
    for s in range(width):
        if colour[s] >= 0:
            continue
        colour[s], queue = 0, deque([s])
        while queue:
            u = queue.popleft()
            for w, odd in adj[u]:
                if colour[w] < 0:
                    colour[w] = colour[u] ^ odd
                    queue.append(w)
                elif colour[w] != colour[u] ^ odd:
                    return _shortest_odd_cycle(adj)
    return math.inf


def _shortest_odd_cycle(adj: list[list[tuple[int, int]]]) -> int:
    """Length of the shortest cycle with an odd count of odd edges in the
    signed graph adj (one exists): the shortest closed walk of odd parity
    through any column, which is such a cycle."""
    best = len(adj) + 1
    for s in range(len(adj)):
        dist = {(s, 0): 0}
        queue = deque([(s, 0)])
        while queue:
            u, p = queue.popleft()
            d = dist[u, p] + 1
            if d >= best:
                break
            for w, odd in adj[u]:
                state = (w, p ^ odd)
                if state not in dist:
                    if state == (s, 1):
                        best = d
                        break
                    dist[state] = d
                    queue.append(state)
    return best


def gen_consecutive_ones(m: int, n: int, seed: int) -> np.ndarray:
    """Random m x n 0/1 matrix whose columns each hold one contiguous run.

    Interval matrices like these are totally unimodular; the generator is
    deterministic per seed and allows empty columns.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    rng = random.Random(seed)
    A = np.zeros((m, n), dtype=int)
    for c in range(n):
        if rng.random() < 0.12:
            continue  # empty column
        start = rng.randrange(m)
        end = rng.randrange(start, m)
        A[start:end + 1, c] = 1
    return A
