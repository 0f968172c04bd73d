"""Minimum-support solves over totally unimodular constraint data.

The problem: given an integer matrix A, a target row k and a protected row
set I, find x minimizing the number of nonzero entries of A(unprotected,:)x
subject to A(k,:)x = 1 and A(I,:)x = 0.  For totally unimodular A the l1
relaxation, posed as a standard-form LP and solved exactly, attains the
same optimum and an integral witness, so the combinatorial answer comes out
of a single polynomial-time solve.  The LP is written once, in meter space:
the state x is eliminated by Gauss-Jordan, leaving rows over the row
slacks y plus state rows that give x back (_meter_space).  solve_l1_base
solves it without a target row once per (A, I) and keeps it as live
lists with the rows and I it was solved for (L1Base); solve_warm(base, k)
re-optimizes a shallow copy of it per target row k by a dual simplex and
certifies the witness on base's own rows, and solve_min_support is the
two on a fresh base.  A target pays for its pivots and for the rows its
witness moves: its row is reduced over the two rows basic in its own
columns, and the certificate reads A(j,:)x only on the rows that hold a
column x moves (L1Base.columns).

For totally unimodular A every tableau of that LP is totally unimodular
too, so the base and the warm step hold only -1, 0 and 1
(lp._TernaryTableau: each row two bitmasks), and so do the state rows,
kept as bitmasks keyed by y column with their pivot signs folded in.
Data outside total unimodularity is an IntegralityError as soon as it
shows: a state pivot or a meter-space entry outside {-1, 0, 1}, a pivot
reaching +-2, or a witness the certificate rejects.  Such
data may still have an integral l1 optimum, but l1 = cardinality is
proved only under total unimodularity.

Row indices (k, I, supports) are 1-based throughout this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
import math
import random
from typing import NamedTuple

import numpy as np

from . import lp
from .errors import IntegralityError, SizeLimitExceeded, SolverDefect
from .exactla import _eliminate, _reduce, det_int, int_matrix


def check_rows(m: int, k: int, I=frozenset()) -> frozenset[int]:
    """I as a frozenset of ints, once target row k and the protected rows I
    are known to lie in 1..m with k unprotected; ValueError otherwise."""
    if not 1 <= k <= m:
        raise ValueError(f"target row {k} outside 1..{m}")
    I = _protected_rows(m, I)
    if k in I:
        raise ValueError("target row cannot be protected")
    return I


def _protected_rows(m: int, I) -> frozenset[int]:
    """I as a frozenset of ints in 1..m; ValueError otherwise."""
    I = frozenset(int(i) for i in I)
    if any(not 1 <= i <= m for i in I):
        raise ValueError("protected row outside 1..m")
    return I


@dataclass(frozen=True)
class TUProblem:
    """The one record of a minimum-support problem: integer data A, a 1-based
    target row k and protected rows I, read by the l1 solve and the oracles.

    rows holds each row's nonzero (column, value) pairs as Python ints.  A
    caller that keeps an integer array and its sparse_rows (as grid.Metering
    does for every target of a measurement system) passes both, and neither
    is read again; otherwise A is read by int_matrix and rows are built from
    it.  k and I are checked either way.  Problems compare and hash by
    value: the shape of A, rows, k and I.
    """

    A: np.ndarray
    k: int
    I: frozenset[int] = frozenset()
    rows: tuple[tuple[tuple[int, int], ...], ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(self, "A", int_matrix(self.A))
            object.__setattr__(self, "rows", sparse_rows(self.A))
        object.__setattr__(self, "I", check_rows(self.A.shape[0], self.k, self.I))

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
    """Each row of the integer array A as its nonzero (column, value) pairs;
    equal pairs are one tuple."""
    r, c = np.nonzero(A)
    out: list[list[tuple[int, int]]] = [[] for _ in range(A.shape[0])]
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j, a in zip(r.tolist(), c.tolist(), A[r, c].tolist()):
        out[i].append(pairs.setdefault((j, a), (j, a)))
    return tuple(map(tuple, out))


@dataclass(frozen=True)
class TUSolution:
    x: tuple[int, ...]
    support: frozenset[int]        # unprotected rows where A(j,:)x != 0

    @property
    def cardinality(self) -> int:
        return len(self.support)


def _meter_space(rows, n: int, I: frozenset[int]) -> tuple[list, list[int], list[int], int]:
    """(rows over y, spos, sneg, width) of the l1 LP of integer rows over n
    state columns, without a target row and with its state x eliminated.

    The LP reads A(I,:)x = 0 in ascending order, then A(j,:)x - y+_j + y-_j
    = 0 for each unprotected row j, with cost sum(y+) + sum(y-) over its
    width columns y = (y+, y-).  Gauss-Jordan makes each row that still
    holds a state column after reduction the state row of its smallest,
    then eliminates that column from the earlier state rows; the other rows
    are over y only.  Taken first, a protected row becomes a state row or
    reduces to nothing and is dropped, so each row over y is an unprotected
    row j, the only one holding y+_j and y-_j: a crash basis covers it.
    Column c's state row p x_c + row . y = 0 has p = +-1, so x_c = -p row
    . y: spos[j] / sneg[j] are bitmasks of the columns whose p row holds
    +1 / -1 at y+_j (the negative at y-_j); any other state column is 0.
    IntegralityError for a p or entry outside {-1, 0, 1}.
    """
    free = [j for j in range(1, len(rows) + 1) if j not in I]
    r = len(free)
    state: dict[int, dict[int, int]] = {}
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
        for srow in state.values():
            f = srow.get(c)
            if f:
                _eliminate(srow, row[c], f, row)
                _reduce(srow, 0)
        state[c] = row
    for row in [*state.values(), *yrows]:     # the final rows: a state column and y only
        if any(v not in (-1, 1) for v in row.values()):
            raise IntegralityError("a meter-space entry leaves {-1, 0, 1}: "
                                   "the data is not totally unimodular")
    spos, sneg = [0] * r, [0] * r
    for c, row in state.items():
        p = row[c]
        for j, v in row.items():
            if n <= j < n + r:
                (spos if v == p else sneg)[j - n] |= 1 << c
    return [{j - n: v for j, v in row.items()} for row in yrows], spos, sneg, 2 * r


def build_l1_lp(problem: TUProblem) -> lp.StandardFormLP:
    """The l1 relaxation of problem in one piece: _meter_space's rows, then
    the target row y+_k - y-_k = 1, i.e. A(k,:)x = 1.  The solve path builds
    the same LP in two steps (solve_l1_base, then solve_warm's row)."""
    rows, _, _, width = _meter_space(problem.rows, problem.A.shape[1], problem.I)
    y = _y_column(problem.I, problem.k)
    rows.append({y: 1, y + width // 2: -1, lp.RHS: 1})
    return lp.StandardFormLP.from_int_rows(rows, dict.fromkeys(range(width), 1), width)


def solve_min_support(problem: TUProblem) -> TUSolution | None:
    """Exact minimum-support solve; None when the constraints are infeasible:
    solve_warm on a base solved for problem's rows and protection alone."""
    return solve_warm(solve_l1_base(problem.rows, problem.A.shape[1], problem.I), problem.k)


class L1Base(NamedTuple):
    """solve_l1_base's solved target-free l1 LP of rows and I, as live lists.

    pos, neg, basis and z are its optimal ternary tableau (lp._TernaryTableau,
    every basic value 0); spos and sneg are its state rows (_meter_space);
    columns[c] holds the rows with a nonzero in state column c.  solve_warm
    copies the tableau lists shallowly (their ints are immutable) and only
    reads the rest, so a base serves every target unchanged.
    """

    pos: list[int]
    neg: list[int]
    basis: list[int]
    z: list[int]
    spos: list[int]
    sneg: list[int]
    columns: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    I: frozenset[int]


def solve_l1_base(rows, n: int, I=frozenset()) -> L1Base:
    """The l1 LP of integer rows (sparse_rows pairs) over n state columns
    and protected rows I without a target row, in meter space
    (_meter_space), solved once for every target row of that data;
    ValueError for a protected row or a column outside the data.

    Each row is basic in its lp._crash_basis column at value 0, lp's
    primal simplex runs on that ternary tableau, and its optimality is
    checked (an unbounded stop fails it too).
    Data that is not totally unimodular can raise IntegralityError here.
    """
    rows = tuple(rows)
    I = _protected_rows(len(rows), I)
    columns: list[list[int]] = [[] for _ in range(n)]
    for j, row in enumerate(rows, start=1):
        for c, _ in row:
            if not 0 <= c < n:
                raise ValueError(f"column {c} outside 0..{n - 1}")
            columns[c].append(j)
    yrows, spos, sneg, width = _meter_space(rows, n, I)
    z, pos, neg = [1] * width, [], []     # z: reduced costs
    for row in yrows:
        for j, v in row.items():
            z[j] -= v
        pos.append(sum(1 << j for j, v in row.items() if v == 1))
        neg.append(sum(1 << j for j, v in row.items() if v == -1))
    tab = lp._TernaryTableau(pos, neg, [0] * len(yrows), lp._crash_basis(yrows, width), z)
    lp._run_simplex(tab, [0])
    tab.check_optimal()
    return L1Base(tab.pos, tab.neg, tab.basis, tab.z, spos, sneg, tuple(map(tuple, columns)),
                  rows, I)


def _y_column(I: frozenset[int], j: int) -> int:
    """The column of y+_j in the meter-space LP: unprotected row j's place
    among the unprotected rows, 0-based."""
    return j - 1 - sum(i < j for i in I)


def solve_warm(base: L1Base, k: int) -> TUSolution | None:
    """Minimum-support solve of target row k by re-optimizing base; None
    when the constraints are infeasible, i.e. when the dual simplex finds
    no basis.  ValueError for a k outside base's rows or protected.

    A ternary tableau copied from base gains the row -y+_k + y-_k + s =
    -1, i.e. A(k,:)x >= 1, as the target's own row reads A(k,:)x - y+_k +
    y-_k = 0, and lp's dual simplex restores nonnegative values.  The
    objective is positively homogeneous and at least |A(k,:)x|, so every
    optimum has A(k,:)x = 1 and s = 0, an optimum of build_l1_lp of the
    same data.  x is read from base's state rows.
    """
    y = _y_column(check_rows(len(base.rows), k, base.I), k)
    tab = lp._TernaryTableau(base.pos[:], base.neg[:], [0] * len(base.basis), base.basis[:],
                             base.z[:])
    tab.add_row(1 << (y + len(base.spos)), 1 << y, -1)
    if lp._run_dual_simplex(tab, [0]) is lp.LpStatus.INFEASIBLE:
        return None
    return _certified_solution(tab, base, k)


def _state_values(vals: dict[int, int], base: L1Base) -> dict[int, int]:
    """The nonzero entries of x, by column, at the y values vals (by
    column) from base's state rows, touching only the state columns of the
    nonzero y."""
    pos, neg = base.spos, base.sneg
    r = len(pos)
    x: dict[int, int] = {}
    for j, v in vals.items():
        if j >= r:                      # y-_j: the entries of y+_j negated
            j, v = j - r, -v
        for c in lp._bits(pos[j]):
            x[c] = x.get(c, 0) - v
        for c in lp._bits(neg[j]):
            x[c] = x.get(c, 0) + v
    return {c: v for c, v in x.items() if v}


def _certified_solution(tab: lp._TernaryTableau, base: L1Base, k: int) -> TUSolution:
    """The minimum-support solution of row k at base's optimal tableau, checked.

    The tableau must read optimal, every column past the y block (the
    target row's slack) must be zero, and the objective must equal the y
    sum.  The state move x, read from base's state rows, must satisfy
    A(I,:)x = 0 and A(k,:)x = 1 on base's integer rows, and touch as many
    rows as the objective, in the unimodular pattern: x and every nonzero
    A(j,:)x in {-1, 1}.  A(j,:)x is evaluated on the rows that hold a
    column x moves (base's column index); every other row reads 0.  SolverDefect otherwise (its subclass
    IntegralityError for a broken integrality pattern).
    """
    tab.check_optimal()
    vals, _ = tab.values()
    if any(c >= 2 * len(base.spos) for c in vals):
        raise SolverDefect("the target row's slack is not zero; solver defect")
    objective = tab.objective()
    if objective != sum(vals.values()):
        raise SolverDefect("objective bookkeeping mismatch; solver defect")
    moved = _state_values(vals, base)
    x = [0] * len(base.columns)
    for c, v in moved.items():
        x[c] = v
    image = _image(base.rows, x, {j for c in moved for j in base.columns[c]})
    if image.get(k) != 1 or any(j in base.I for j in image):
        raise SolverDefect("witness breaks the target or a protected row; solver defect")
    sol = TUSolution(tuple(x), frozenset(image))
    if sol.cardinality != objective:
        raise IntegralityError(f"objective {objective} != support {sol.cardinality}")
    if any(v not in (-1, 1) for v in moved.values()) or any(v not in (-1, 1) for v in image.values()):
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
    """Exhaustively test all square minors up to max_order for dets in {-1,0,1}.

    Exponential by nature; raises SizeLimitExceeded when the minor count
    would exceed the work budget.
    """
    A = int_matrix(A)
    m, n = A.shape
    if not 1 <= max_order <= min(m, n):
        raise ValueError(f"max_order must lie in 1..{min(m, n)}")
    total = sum(math.comb(m, r) * math.comb(n, r) for r in range(1, max_order + 1))
    if total > budget:
        raise SizeLimitExceeded(f"{total} minors exceeds budget {budget}")
    if np.any(np.abs(A) > 1):
        return False  # order-1 minors already fail
    rows_list = A.tolist()
    for order in range(2, max_order + 1):
        for rows in combinations(range(m), order):
            sub = [rows_list[i] for i in rows]
            for cols in combinations(range(n), order):
                minor = [[row[c] for c in cols] for row in sub]
                if det_int(minor) not in (-1, 0, 1):
                    return False
    return True


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
