"""Exact two-phase simplex for standard-form linear programs.

Problems are  min f'x  s.t.  C x = d,  x >= 0,  with every coefficient an
exact rational.  No floating point enters the solve path, so the returned
basic feasible solutions are exact and the Infeasible/Unbounded/Optimal
trichotomy is decided, not estimated.

Rows are kept as sparse integer rows with per-row denominators: a row maps
column -> nonzero integer numerator (the right-hand side sits under the key
RHS), all over one positive denominator.  Integer input goes straight into
that form and reaches the tableau without a Fraction detour; a pivot is an
integer cross-multiplication over the pivot row's nonzeros, applied to the
rows whose pivot-column entry is nonzero, followed by a gcd sweep.  On the
unimodular-style instances this package cares about the denominators stay
tiny and the rows short, which is what makes exact arithmetic affordable.

An optimal tableau can be re-optimized in place rather than solved again:
by the primal simplex after a cost change, and by the dual simplex after
an appended row.  The MILP oracle's branch and bound does so at every node.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, InconsistentRow, SolverDefect
from .exactla import int_rank, to_fraction

RHS = -1   # key of the right-hand side in a sparse row


def scale_row(values) -> tuple[list[int], int]:
    """Exact values as integers over their lcm denominator: (nums, den).

    Python ints pass through with den 1; anything else is read exactly
    (floats at their shortest decimal repr).
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    fracs = [to_fraction(v) for v in values]
    den = 1
    for v in fracs:
        den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in fracs], den


def _pairs(row: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical storage of a sparse row: nonzero (column, value) pairs in
    column order, so the right-hand side (column RHS) comes first."""
    return tuple(sorted((j, v) for j, v in row.items() if v))


@dataclass(frozen=True)
class StandardFormLP:
    """min cost'x  subject to  constraint_matrix @ x = rhs,  x >= 0.

    Each augmented row [C_i | d_i] is stored once: rows[i] holds the
    nonzero (column, numerator) pairs, the right-hand side under RHS, over
    the positive denominator dens[i], the lcm of the row's denominators.
    The cost is stored the same way (cost_row over cost_den).  The form is
    canonical, so LPs with equal data compare equal.
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]
    dens: tuple[int, ...]
    cost_row: tuple[tuple[int, int], ...]
    cost_den: int
    num_vars: int

    @staticmethod
    def create(C, d, f) -> "StandardFormLP":
        """LP from dense exact data (int, Fraction, str or float entries)."""
        C = [list(row) for row in C]
        d = list(d)
        f = list(f)
        if len(C) != len(d):
            raise DimensionMismatch("constraint matrix and rhs disagree on row count")
        width = len(f)
        if any(len(r) != width for r in C):
            raise DimensionMismatch("constraint row width does not match cost length")
        rows = []
        dens = []
        for row, b in zip(C, d):
            nums, den = scale_row(row + [b])
            sparse = dict(enumerate(nums[:-1]))
            sparse[RHS] = nums[-1]
            rows.append(_pairs(sparse))
            dens.append(den)
        cost, cost_den = scale_row(f)
        return StandardFormLP(tuple(rows), tuple(dens),
                              _pairs(dict(enumerate(cost))), cost_den, width)

    @staticmethod
    def from_int_rows(rows, cost, num_vars: int) -> "StandardFormLP":
        """LP from integer rows given as {column: value} maps (right-hand
        side under RHS) and an integer cost map; no scaling is needed."""
        rows = tuple(_pairs(r) for r in rows)
        return StandardFormLP(rows, (1,) * len(rows), _pairs(cost), 1, num_vars)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def constraint_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        out = []
        for pairs, den in zip(self.rows, self.dens):
            row = [Fraction(0)] * self.num_vars
            for j, v in pairs:
                if j != RHS:
                    row[j] = Fraction(v, den)
            out.append(tuple(row))
        return tuple(out)

    @property
    def rhs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(dict(pairs).get(RHS, 0), den)
                     for pairs, den in zip(self.rows, self.dens))

    @property
    def cost(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.num_vars
        for j, v in self.cost_row:
            out[j] = Fraction(v, self.cost_den)
        return tuple(out)


@dataclass(frozen=True)
class BasicFeasibleSolution:
    """Exact vertex: values >= 0, C@values = d, nonbasic entries zero."""

    values: tuple[Fraction, ...]
    basis: tuple[int, ...]
    objective: Fraction


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    solution: BasicFeasibleSolution | None = None
    pivots: int = 0


def _reduce(row: dict[int, int], den: int) -> int:
    """Divide row and den by their common gcd in place; return the new den."""
    g = den
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return den
    if g > 1:
        for j in row:
            row[j] //= g
        den //= g
    return den


def _eliminate(row: dict[int, int], pv: int, f: int, prow: dict[int, int]) -> None:
    """row <- row * pv - f * prow in place, dropping entries that vanish."""
    if pv != 1:
        for j in row:
            row[j] *= pv
    for j, b in prow.items():
        v = row.get(j, 0) - f * b
        if v:
            row[j] = v
        else:
            del row[j]


def preprocess(lp: StandardFormLP) -> StandardFormLP:
    """Drop linearly dependent rows; raise InconsistentRow on 0 = nonzero.

    The returned LP keeps the surviving original rows (same feasible set,
    same objective) and has full row rank.  A row survives exactly when it
    is independent of the rows kept before it, whichever nonzero column
    each kept row pivots on.
    """
    kept: list[int] = []
    pivoted: list[tuple[int, dict[int, int]]] = []   # (pivot col, reduced row)
    for idx, pairs in enumerate(lp.rows):
        aug = dict(pairs)
        for pc, base in pivoted:
            v = aug.get(pc)
            if v:
                _eliminate(aug, base[pc], v, base)
                _reduce(aug, 0)   # den 0: divide by the row's own gcd
        pivot = next((j for j in aug if j != RHS), None)
        if pivot is None:
            if aug:
                raise InconsistentRow(f"row {idx} reduces to 0 = {aug[RHS]}")
            continue
        pivoted.append((pivot, aug))
        kept.append(idx)
    return StandardFormLP(
        tuple(lp.rows[i] for i in kept),
        tuple(lp.dens[i] for i in kept),
        lp.cost_row, lp.cost_den, lp.num_vars,
    )


class _Tableau:
    """Simplex tableau over sparse integer rows with per-row denominators.

    Row i stands for rows[i] / dens[i] and has the entry dens[i] in its
    basic column; the objective row zrow / zden holds -z under RHS.
    Columns run over 0..ncols-1; add_row appends a fresh slack column.
    """

    def __init__(self, rows: list[dict[int, int]], dens: list[int], basis: list[int],
                 ncols: int):
        self.rows = rows
        self.dens = dens            # positive
        self.basis = basis
        self.ncols = ncols
        self.zrow: dict[int, int] = {}
        self.zden: int = 1

    def copy(self) -> "_Tableau":
        tab = _Tableau([dict(row) for row in self.rows], list(self.dens),
                       list(self.basis), self.ncols)
        tab.zrow = dict(self.zrow)
        tab.zden = self.zden
        return tab

    def price_out(self, r: int) -> None:
        """Clear row r's basic column from the objective row."""
        c = self.basis[r]
        f = self.zrow.get(c)
        if f:
            pv = self.dens[r]
            _eliminate(self.zrow, pv, f, self.rows[r])
            self.zden = _reduce(self.zrow, self.zden * pv)

    def add_cost(self, cost, cost_den: int) -> None:
        """Re-price: add cost / cost_den (integer numerators as a {column:
        value} map or pairs) to the objective and clear the basic columns
        it touches, so the row holds the new reduced costs."""
        cost = dict(cost)
        zrow = self.zrow
        if cost_den != 1:
            for j in zrow:
                zrow[j] *= cost_den
        for j, v in cost.items():
            w = zrow.get(j, 0) + v * self.zden
            if w:
                zrow[j] = w
            else:
                zrow.pop(j, None)
        self.zden = _reduce(zrow, self.zden * cost_den)
        for i, c in enumerate(self.basis):
            if c in cost:
                self.price_out(i)

    def add_row(self, row: dict[int, int]) -> None:
        """Append the constraint row . x + s = rhs (integer entries, the
        right-hand side under RHS) with a fresh slack s made basic, reduced
        over the current basis.  Dual feasibility is kept; the slack's value
        may come out negative."""
        s = self.ncols
        self.ncols += 1
        new = {j: v for j, v in row.items() if v}
        new[s] = den = 1
        for i, c in enumerate(self.basis):
            f = new.get(c)
            if f:
                pv = self.dens[i]
                _eliminate(new, pv, f, self.rows[i])
                den = _reduce(new, den * pv)
        self.rows.append(new)
        self.dens.append(den)
        self.basis.append(s)

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        pv = prow[c]
        if pv < 0:
            for j in prow:
                prow[j] = -prow[j]
            pv = -pv
        pv = _reduce(prow, pv)
        self.dens[r] = pv
        for i, row in enumerate(self.rows):
            if i != r:
                f = row.get(c)
                if f:
                    _eliminate(row, pv, f, prow)
                    self.dens[i] = _reduce(row, self.dens[i] * pv)
        self.basis[r] = c
        self.price_out(r)

    def entering(self, dantzig: bool) -> int | None:
        """Bland: smallest column with a negative reduced cost.  Dantzig:
        most negative reduced cost, smallest column on ties."""
        neg = [(v, j) for j, v in self.zrow.items() if v < 0 and j != RHS]
        if not neg:
            return None
        if dantzig:
            return min(neg)[1]
        return min(j for _, j in neg)

    def leaving(self, c: int) -> int | None:
        """Minimum-ratio row; ties broken by smallest basic variable index."""
        best = None
        bn = bd = 0
        for i, row in enumerate(self.rows):
            a = row.get(c, 0)
            if a > 0:
                rn = row.get(RHS, 0)
                if best is None:
                    best, bn, bd = i, rn, a
                    continue
                lhs = rn * bd
                rhs = bn * a
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                    best, bn, bd = i, rn, a
        return best

    def dual_leaving(self, dantzig: bool) -> int | None:
        """Row with a negative basic value to leave.  Dantzig: most negative
        value, smallest basic index on ties.  Bland: smallest basic index."""
        best = None
        bn = bd = 0
        for i, row in enumerate(self.rows):
            rn = row.get(RHS, 0)
            if rn < 0:
                if best is None:
                    best, bn, bd = i, rn, self.dens[i]
                    continue
                if dantzig:
                    lhs = rn * bd
                    rhs = bn * self.dens[i]
                    better = lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best])
                else:
                    better = self.basis[i] < self.basis[best]
                if better:
                    best, bn, bd = i, rn, self.dens[i]
        return best

    def dual_entering(self, r: int) -> int | None:
        """Column with the minimum ratio z_c / |a_rc| over the negative
        entries of row r, smallest column on ties; None when there is none."""
        best = None
        bz = ba = 0
        for c, a in self.rows[r].items():
            if a < 0 and c != RHS:
                z = self.zrow.get(c, 0)
                if best is None:
                    best, bz, ba = c, z, -a
                    continue
                lhs = z * ba
                rhs = bz * -a
                if lhs < rhs or (lhs == rhs and c < best):
                    best, bz, ba = c, z, -a
        return best

    def check_optimal(self) -> None:
        """Certificate of an optimal basis: every basic value and every
        reduced cost nonnegative; SolverDefect otherwise."""
        if any(row.get(RHS, 0) < 0 for row in self.rows):
            raise SolverDefect("negative basic value in an optimal tableau; solver defect")
        if any(v < 0 for j, v in self.zrow.items() if j != RHS):
            raise SolverDefect("negative reduced cost in an optimal tableau; solver defect")

    def values(self) -> dict[int, Fraction]:
        """Exact nonzero values at the current basis, by column."""
        return {c: Fraction(row[RHS], den)
                for row, den, c in zip(self.rows, self.dens, self.basis) if RHS in row}

    def objective(self) -> Fraction:
        return -Fraction(self.zrow.get(RHS, 0), self.zden)


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of _solve_standard_ints; values, basis, objective and the
    final tableau are set only when status is "optimal"."""

    status: str                       # "optimal", "infeasible" or "unbounded"
    values: list[Fraction] | None
    basis: list[int] | None           # ascending
    objective: Fraction | None
    pivots: int
    dropped: int                      # redundant rows dropped after phase 1
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


def _check_budget(pivots: list[int], max_pivots: int) -> None:
    pivots[0] += 1
    if pivots[0] > max_pivots:
        raise SolverDefect(f"pivot budget {max_pivots} exceeded; anti-cycling defect")


def _run_simplex(tab: _Tableau, rule: str, max_pivots: int,
                 pivots: list[int], trace) -> str:
    """Primal simplex from a primal-feasible tableau: "optimal" or
    "unbounded"."""
    # Dantzig selection may stall on degenerate vertices; past a budget we
    # fall back to Bland, whose termination is unconditional.
    dantzig_budget = pivots[0] + 3 * (len(tab.rows) + tab.ncols) + 20
    while True:
        dantzig = rule == "dantzig" and pivots[0] < dantzig_budget
        c = tab.entering(dantzig)
        if c is None:
            return "optimal"
        r = tab.leaving(c)
        if r is None:
            return "unbounded"
        if trace is not None:
            trace.write(f"pivot enter={c} leave={tab.basis[r]} row={r}\n")
        tab.pivot(r, c)
        _check_budget(pivots, max_pivots)


def _run_dual_simplex(tab: _Tableau, rule: str, max_pivots: int,
                      pivots: list[int], trace) -> str:
    """Dual simplex from a dual-feasible tableau (no negative reduced cost):
    "optimal" once every basic value is nonnegative, "infeasible" when a
    row with a negative value has no negative entry.  Dantzig falls back to
    Bland past the same budget as the primal loop."""
    dantzig_budget = pivots[0] + 3 * (len(tab.rows) + tab.ncols) + 20
    while True:
        dantzig = rule == "dantzig" and pivots[0] < dantzig_budget
        r = tab.dual_leaving(dantzig)
        if r is None:
            return "optimal"
        c = tab.dual_entering(r)
        if c is None:
            return "infeasible"
        if trace is not None:
            trace.write(f"dual pivot enter={c} leave={tab.basis[r]} row={r}\n")
        tab.pivot(r, c)
        _check_budget(pivots, max_pivots)


def _solve_standard_ints(rows, cost, cost_den: int, p: int, rule: str = "bland",
                         max_pivots: int | None = None, trace=None) -> SimplexResult:
    """Exact simplex on sparse integer rows over columns 0..p-1.

    rows hold their nonzero entries as {column: value} maps or (column,
    value) pairs, the right-hand side under RHS; the cost is cost / cost_den
    with cost holding integer numerators the same way.  Redundant rows
    surviving to phase 1 are dropped exactly (and counted in the result);
    inconsistent systems surface as "infeasible" via the phase-1 optimum.
    An optimal result carries its final tableau, which a caller may
    re-optimize after a cost change (add_cost, then _run_simplex) or an
    appended row (add_row, then _run_dual_simplex).
    """
    rows = [dict(r) for r in rows]
    l = len(rows)
    if max_pivots is None:
        max_pivots = 10_000 + 60 * (l + p)
    for row in rows:
        if row.get(RHS, 0) < 0:
            for j in row:
                row[j] = -row[j]

    # crash basis: singleton positive columns serve as ready-made basic vars
    col_count = [0] * p
    for row in rows:
        for j in row:
            if j != RHS:
                col_count[j] += 1
    basis = [-1] * l
    dens = [1] * l
    for i, row in enumerate(rows):
        for j in sorted(row):
            if j != RHS and col_count[j] == 1 and row[j] > 0:
                basis[i] = j
                dens[i] = row[j]
                break

    art_rows = [i for i in range(l) if basis[i] == -1]
    ncols = p + len(art_rows)
    for a, i in enumerate(art_rows):
        rows[i][p + a] = 1
        basis[i] = p + a

    tab = _Tableau(rows, dens, basis, ncols)
    pivots = [0]
    dropped = 0

    if art_rows:
        if trace is not None:
            trace.write(f"phase 1: rows={l} cols={ncols} artificials={len(art_rows)}\n")
        # minimize the sum of artificials, priced out over their rows
        zrow: dict[int, int] = {}
        for i in art_rows:
            for j, v in rows[i].items():
                if j < p:
                    zrow[j] = zrow.get(j, 0) - v
        tab.zrow = zrow
        tab.zden = 1
        status = _run_simplex(tab, rule, max_pivots, pivots, trace)
        if status != "optimal":
            raise SolverDefect("phase 1 objective is bounded below; solver defect")
        if tab.zrow.get(RHS, 0) < 0:
            return SimplexResult("infeasible", None, None, None, pivots[0], dropped)
        # drive leftover artificials out of the basis or drop redundant rows
        i = 0
        while i < len(tab.rows):
            if tab.basis[i] >= p:
                col = min((j for j in tab.rows[i] if 0 <= j < p), default=None)
                if col is None:
                    del tab.rows[i]
                    del tab.dens[i]
                    del tab.basis[i]
                    dropped += 1
                    continue
                tab.pivot(i, col)
            i += 1
        for row in tab.rows:
            for j in [j for j in row if j >= p]:
                del row[j]
        tab.ncols = p

    # phase 2: price out the true cost over the current basis
    tab.zrow, tab.zden = {}, 1
    tab.add_cost(cost, cost_den)
    if trace is not None:
        trace.write(f"phase 2: rows={len(tab.rows)} cols={p}\n")
    status = _run_simplex(tab, rule, max_pivots, pivots, trace)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, None, pivots[0], dropped)
    values = [Fraction(0)] * p
    for c, v in tab.values().items():
        values[c] = v
    return SimplexResult("optimal", values, sorted(tab.basis), tab.objective(),
                         pivots[0], dropped, tab)


def solve_lp(lp: StandardFormLP, *, rule: str = "bland",
             max_pivots: int | None = None, trace=None) -> LpOutcome:
    """Two-phase simplex over exact rationals.

    rule="bland" (default) never cycles; rule="dantzig" picks the most
    negative reduced cost for speed and falls back to Bland past a pivot
    budget.  The input is preprocessed internally, so the returned basis
    refers to preprocess(lp)'s rows (preprocess is idempotent).  Optimal
    outcomes are only emitted from a tableau whose reduced costs are all
    nonnegative, which is the exactness certificate.
    """
    if rule not in ("bland", "dantzig"):
        raise ValueError(f"unknown pivot rule {rule!r}")
    try:
        pre = preprocess(lp)
    except InconsistentRow:
        return LpOutcome(LpStatus.INFEASIBLE)
    res = _solve_standard_ints(
        pre.rows, pre.cost_row, pre.cost_den, pre.num_vars, rule, max_pivots, trace)
    if res.dropped:
        raise SolverDefect("rank drop after preprocess; solver defect")
    if res.status == "infeasible":
        return LpOutcome(LpStatus.INFEASIBLE, pivots=res.pivots)
    if res.status == "unbounded":
        return LpOutcome(LpStatus.UNBOUNDED, pivots=res.pivots)
    check = sum((v * res.values[j] for j, v in pre.cost_row), Fraction(0)) / pre.cost_den
    if check != res.objective:
        raise SolverDefect("objective bookkeeping mismatch; solver defect")
    sol = BasicFeasibleSolution(tuple(res.values), tuple(res.basis), res.objective)
    return LpOutcome(LpStatus.OPTIMAL, sol, res.pivots)


def verify_bfs(lp: StandardFormLP, sol: BasicFeasibleSolution) -> bool:
    """Exact check of the BFS invariants against the given (preprocessed) LP.

    Raises DimensionMismatch when sizes make the check meaningless; returns
    False for any violated invariant (negativity, C x != d, dependent basis
    columns, nonzero nonbasic entries, wrong objective).  The checks run on
    the stored integer rows; scaling a row changes none of them.
    """
    l, p = lp.num_rows, lp.num_vars
    if len(sol.values) != p:
        raise DimensionMismatch(f"expected {p} values, got {len(sol.values)}")
    if any(not (0 <= j < p) for j in sol.basis):
        raise DimensionMismatch("basis index out of range")
    if len(sol.basis) != l or len(set(sol.basis)) != l:
        return False
    if any(v < 0 for v in sol.values):
        return False
    basic = set(sol.basis)
    if any(v != 0 for j, v in enumerate(sol.values) if j not in basic):
        return False
    x = {j: v for j, v in enumerate(sol.values) if v}
    rows = [dict(pairs) for pairs in lp.rows]
    for row in rows:
        lhs = sum((v * x[j] for j, v in row.items() if j in x), Fraction(0))
        if lhs != row.get(RHS, 0):
            return False
    if l and int_rank([[row.get(j, 0) for j in sol.basis] for row in rows]) != l:
        return False
    cx = sum((v * x[j] for j, v in lp.cost_row if j in x), Fraction(0))
    if cx != sol.objective * lp.cost_den:
        return False
    return True
