"""Exact two-phase simplex for standard-form linear programs.

Problems are  min f'x  s.t.  C x = d,  x >= 0,  with every coefficient an
exact rational.  No floating point enters the solve path, so the returned
basic feasible solutions are exact and the Infeasible/Unbounded/Optimal
trichotomy is decided, not estimated.

Rows are kept as sparse integer rows: a row maps column -> nonzero integer
numerator (the right-hand side sits under the key RHS), all over one
positive denominator, a tableau row's own entry in its basic column; a
vertex is read as integer numerators over one common denominator.  Integer
input goes straight into that form and reaches the tableau without a
Fraction detour; a pivot is an integer cross-multiplication over the pivot
row's nonzeros, applied to the rows whose pivot-column entry is nonzero,
followed by a gcd sweep (the elimination kernel of exactla, which
preprocess and verify_bfs share).  On the unimodular-style instances this
package cares about the denominators stay tiny and the rows short, which
is what makes exact arithmetic affordable.

One pivot policy serves every loop: the primal loop enters by Dantzig's
rule (most negative reduced cost), the dual loop leaves by steepest edge
(the largest value² over the row's squared norm, read exactly off the
tableau), and both fall back to Bland's rule past a pivot allowance so
that degenerate cycling cannot stall a solve.  Any rule that reaches an
optimal vertex gives the same optimum, so the policy is a speed choice,
not a correctness one.  preprocess is the one place that removes
dependent rows; the simplex expects independent ones.

A solve returns an LpOutcome; an optimal one carries its tableau, which
can be re-optimized in place rather than solved again: by the primal
simplex after a cost change, and by the dual simplex after an appended
row or a fixed column.  solve_lp, with StandardFormLP, preprocess and
phase 1, is the public two-phase solve; the package's own solves bypass
it, and its tableau carries no bounds.  A _Tableau may bound its columns
above by integers (Dantzig's upper-bounding technique: a column at its
bound is complemented), which costs no rows.  The two roots a
measurement system keeps read the same rows over the row slacks
(tumin.meter_space) from the one crash rule (_crash_basis), so each
runs the primal loop alone.  The MILP oracle's is a bounded _Tableau: a
copy of its optimum is re-optimized for each target, and then at every
branch-and-bound node, fixing binaries by their bounds.  The l1 sweep's
(tumin.solve_l1_base) is a _TernaryTableau, whose entries are all -1, 0
or 1 (total unimodularity), each row two bitmasks; the dual loop
re-optimizes a fresh copy of it for each target row by the same rules.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DimensionMismatch, InconsistentRow, IntegralityError, SolverDefect
from .exactla import EchelonBasis, _eliminate, _reduce, scale_row

RHS = -1   # key of the right-hand side in a sparse row


def _pairs(row: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Canonical storage of a sparse row: nonzero (column, value) pairs in
    column order, so the right-hand side (column RHS) comes first."""
    return tuple(sorted((j, v) for j, v in row.items() if v))


def _add_rhs(row: dict[int, int], w: int) -> None:
    """Add w to row's right-hand side, storing no zero."""
    w += row.get(RHS, 0)
    if w:
        row[RHS] = w
    else:
        row.pop(RHS, None)


def _square_norm(row: dict[int, int]) -> int:
    """The sum of squares of row's entries, its right-hand side left out."""
    a = row.values()
    return sum(map(mul, a, a)) - row.get(RHS, 0) ** 2


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
        side under RHS) and an integer cost map; no scaling is needed;
        DimensionMismatch for a column outside the LP."""
        rows, cost = tuple(_pairs(r) for r in rows), _pairs(cost)
        cols = [j for j, _ in cost] + [j for row in rows for j, _ in row if j != RHS]
        if any(not 0 <= j < num_vars for j in cols):
            raise DimensionMismatch(f"a column outside 0..{num_vars - 1}")
        return StandardFormLP(rows, (1,) * len(rows), cost, 1, num_vars)

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
    """A solve's status and pivot count; an optimal outcome also carries the
    exact vertex and the final tableau, which can be re-optimized."""

    status: LpStatus
    solution: BasicFeasibleSolution | None = None
    pivots: int = 0
    tableau: _Tableau | None = field(default=None, repr=False, compare=False)


def preprocess(lp: StandardFormLP) -> StandardFormLP:
    """Drop linearly dependent rows; raise InconsistentRow on 0 = nonzero.

    The rows go one by one into an exactla.EchelonBasis, the right-hand
    side riding along under RHS.  A row survives exactly when it is
    independent of the rows kept before it; a dependent row whose
    reduction leaves a nonzero right-hand side is inconsistent.  The
    returned LP keeps the surviving original rows (same feasible set, same
    objective) and has full row rank.
    """
    basis = EchelonBasis()
    kept: list[int] = []
    for idx, pairs in enumerate(lp.rows):
        rest = basis.add(pairs)
        if rest is None:
            kept.append(idx)
        elif rest:
            raise InconsistentRow(f"row {idx} reduces to 0 = {rest[RHS]}")
    return StandardFormLP(
        tuple(lp.rows[i] for i in kept),
        tuple(lp.dens[i] for i in kept),
        lp.cost_row, lp.cost_den, lp.num_vars,
    )


class _Tableau:
    """Simplex tableau over sparse integer rows, its columns optionally
    bounded above.

    Row i's entry in its basic column basis[i] is positive and is the row's
    denominator: row i stands for rows[i] / rows[i][basis[i]].  The
    objective row zrow / zden holds -z under RHS.  Columns run over
    0..ncols-1; add_row appends a fresh slack column.  Every simplex loop
    run on the tableau stops with SolverDefect past _pivot_budget(tab)
    pivots.

    upper maps a column to its integer upper bound (no entry: none), which
    costs no row (the upper-bounding technique).  A column at its bound is
    complemented, x_j = upper[j] - x'_j, and the tableau holds x'_j in its
    place; flipped holds the complemented columns.  So every column stays
    in [0, upper], the simplex loops keep their rules, and only the ratio
    tests, check_optimal and values() read the bounds.  A column bounded
    by 0 is fixed: it never enters the basis.  With no bounds the tableau
    is the plain one, pivot for pivot.
    """

    def __init__(self, rows: list[dict[int, int]], basis: list[int], ncols: int,
                 upper: dict[int, int] | None = None):
        self.rows = rows
        self.basis = basis
        self.ncols = ncols
        self.zrow: dict[int, int] = {}
        self.zden: int = 1
        self.upper: dict[int, int] = {} if upper is None else upper
        self.flipped: set[int] = set()

    def copy(self) -> "_Tableau":
        tab = _Tableau([dict(row) for row in self.rows], list(self.basis), self.ncols,
                       dict(self.upper))
        tab.zrow = dict(self.zrow)
        tab.zden = self.zden
        tab.flipped = set(self.flipped)
        return tab

    def _complement(self, j: int) -> None:
        """Substitute x_j = upper[j] - x'_j (or back) in every row and the
        objective row.  A basic column's row is then negated, so that its
        basic entry stays positive and its value reads the distance to the
        bound."""
        bound = self.upper[j]
        for i, row in enumerate(self.rows):
            a = row.get(j)
            if a:
                _add_rhs(row, -a * bound)
                row[j] = -a
                if self.basis[i] == j:
                    for c in row:
                        row[c] = -row[c]
        f = self.zrow.get(j)
        if f:
            _add_rhs(self.zrow, -f * bound)
            self.zrow[j] = -f
        self.flipped ^= {j}

    def fix(self, j: int) -> None:
        """Fix column j at 0: its upper bound becomes 0, a complemented
        column first taken back to x_j.  Dual feasibility is kept (a fixed
        column never enters); a basic value may come out above 0."""
        if j in self.flipped:
            self._complement(j)
        self.upper[j] = 0

    def price_out(self, r: int) -> None:
        """Clear row r's basic column from the objective row."""
        c = self.basis[r]
        f = self.zrow.get(c)
        if f:
            pv = self.rows[r][c]
            _eliminate(self.zrow, pv, f, self.rows[r])
            self.zden = _reduce(self.zrow, self.zden * pv)

    def add_cost(self, cost) -> None:
        """Re-price: add the integer cost (a {column: value} map or pairs)
        to the objective and clear the basic columns it touches, so the row
        holds the new reduced costs."""
        cost = dict(cost)
        zrow = self.zrow
        for j, v in cost.items():
            v *= self.zden
            if j in self.flipped:       # v x_j = v upper[j] - v x'_j
                _add_rhs(zrow, -v * self.upper[j])
                v = -v
            w = zrow.get(j, 0) + v
            if w:
                zrow[j] = w
            else:
                zrow.pop(j, None)
        self.zden = _reduce(zrow, self.zden)
        for i, c in enumerate(self.basis):
            if c in cost:
                self.price_out(i)

    def add_row(self, row: dict[int, int]) -> None:
        """Append the constraint row . x + s = rhs (integer entries over
        the original columns, complemented ones substituted; the
        right-hand side under RHS) with a fresh slack s made basic, reduced
        over the current basis.  Dual feasibility is kept; the slack's value
        may come out negative."""
        s = self.ncols
        self.ncols += 1
        new = {j: v for j, v in row.items() if v}
        for j in self.flipped.intersection(new):     # a x_j = a upper[j] - a x'_j
            _add_rhs(new, -new[j] * self.upper[j])
            new[j] = -new[j]
        new[s] = 1
        for i, c in enumerate(self.basis):
            f = new.get(c)
            if f:
                _eliminate(new, self.rows[i][c], f, self.rows[i])
                _reduce(new, 0)
        self.rows.append(new)
        self.basis.append(s)

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        pv = prow[c]
        if pv < 0:
            for j in prow:
                prow[j] = -prow[j]
            pv = -pv
        pv = _reduce(prow, pv)
        for i, row in enumerate(self.rows):
            if i != r:
                f = row.get(c)
                if f:
                    _eliminate(row, pv, f, prow)
                    _reduce(row, 0)
        self.basis[r] = c
        self.price_out(r)

    def entering(self, dantzig: bool) -> int | None:
        """Bland: smallest column with a negative reduced cost.  Dantzig:
        most negative reduced cost, smallest column on ties.  Fixed columns
        never enter."""
        upper = self.upper
        neg = [(v, j) for j, v in self.zrow.items() if v < 0 and j != RHS and upper.get(j) != 0]
        if not neg:
            return None
        if dantzig:
            return min(neg)[1]
        return min(j for _, j in neg)

    def leaving(self, c: int) -> int | None:
        """Minimum-ratio row; ties broken by smallest basic variable index.
        A basic column also leaves when it rises to its upper bound, and is
        then complemented before the pivot; None when c rises without
        limit.  When c reaches its own upper bound first (ties go to the
        rows), c is complemented and -1 returned: no pivot is due."""
        best = None
        bn = bd = 0
        upper, basis = self.upper, self.basis
        for i, row in enumerate(self.rows):
            a = row.get(c, 0)
            if a > 0:
                rn = row.get(RHS, 0)
            elif a < 0 and basis[i] in upper:
                rn = upper[basis[i]] * row[basis[i]] - row.get(RHS, 0)
                a = -a
            else:
                continue
            if best is None:
                best, bn, bd = i, rn, a
                continue
            lhs = rn * bd
            rhs = bn * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best, bn, bd = i, rn, a
        if c in upper and (best is None or upper[c] * bd < bn):
            self._complement(c)
            return -1
        if best is not None and self.rows[best][c] < 0:
            self._complement(basis[best])
        return best

    def dual_leaving(self, steepest: bool) -> int | None:
        """Row with a basic value out of its bounds to leave.  Steepest edge
        (Forrest and Goldfarb 1992): the largest v² / ‖row‖², v the amount
        out of bounds and ‖row‖² the sum of squares of the row's entries,
        basic entry included, smallest basic index on ties.  The row's
        denominator divides v and every entry, so it cancels and the
        integer numerators compare by cross-multiplication.  Norms are
        summed only when two or more rows are out.  Bland: smallest basic
        index.  A value above its bound is complemented first, so that the
        row reads its (negative) distance to the bound."""
        best = None
        bn = bs = 0
        upper, basis, rows = self.upper, self.basis, self.rows
        for i, row in enumerate(rows):
            rn = row.get(RHS, 0)
            if rn >= 0:
                b = basis[i]
                if b not in upper:
                    continue
                rn = upper[b] * row[b] - rn
                if rn >= 0:
                    continue
            if best is None:
                best, bn = i, rn
                continue
            if not steepest:
                if basis[i] < basis[best]:
                    best = i
                continue
            if not bs:
                bs = _square_norm(rows[best])
            s = _square_norm(row)
            lhs, rhs = rn * rn * bs, bn * bn * s
            if lhs > rhs or (lhs == rhs and basis[i] < basis[best]):
                best, bn, bs = i, rn, s
        if best is not None and rows[best].get(RHS, 0) > 0:
            self._complement(basis[best])
        return best

    def dual_entering(self, r: int) -> int | None:
        """Column with the minimum ratio z_c / |a_rc| over the negative
        entries of row r, smallest column on ties; None when there is none.
        Fixed columns never enter."""
        best = None
        bz = ba = 0
        upper = self.upper
        for c, a in self.rows[r].items():
            if a < 0 and c != RHS and upper.get(c) != 0:
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
        """Certificate of an optimal basis: every basic value within its
        bounds and the reduced cost of every movable (not fixed) column
        nonnegative; SolverDefect otherwise."""
        upper = self.upper
        for row, b in zip(self.rows, self.basis):
            v = row.get(RHS, 0)
            if v < 0:
                raise SolverDefect("negative basic value in an optimal tableau; solver defect")
            if b in upper and v > upper[b] * row[b]:
                raise SolverDefect("basic value above its bound in an optimal tableau; "
                                   "solver defect")
        if any(upper.get(j) != 0 for j, v in self.zrow.items() if v < 0 and j != RHS):
            raise SolverDefect("negative reduced cost in an optimal tableau; solver defect")

    def values(self) -> tuple[dict[int, int], int]:
        """(nums, den): the nonzero values at the current basis as integer
        numerators by column over one positive denominator, the lcm of the
        basic entries of the rows with a nonzero value; a complemented
        column reads upper[j] - x'_j."""
        held = [(c, row[RHS], row[c]) for row, c in zip(self.rows, self.basis) if RHS in row]
        den = lcm(*(d for _, _, d in held))
        nums = {c: v * (den // d) for c, v, d in held}
        for j in self.flipped:
            v = self.upper[j] * den - nums.get(j, 0)
            if v:
                nums[j] = v
            else:
                nums.pop(j, None)
        return nums, den

    def objective(self) -> Fraction:
        return -Fraction(self.zrow.get(RHS, 0), self.zden)


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_LEFT_TERNARY = "a tableau entry left {-1, 0, 1}: the data is not totally unimodular"


def _add_ternary(p: int, n: int, bp: int, bn: int) -> tuple[int, int]:
    """The row (p, n) plus the row (bp, bn), rows as ternary bitmask pairs;
    IntegralityError when an entry would reach -2 or 2."""
    if p & bp or n & bn:
        raise IntegralityError(_LEFT_TERNARY)
    cancel = p & bn | n & bp
    return (p | bp) ^ cancel, (n | bn) ^ cancel


class _TernaryTableau:
    """Simplex tableau whose entries are all -1, 0 or 1, as every tableau of
    a totally unimodular LP is.

    Row i is the pair of bitmasks pos[i] (its +1 columns) and neg[i] (its -1
    columns) with value rhs[i] and a +1 in its basic column basis[i]; z
    holds the reduced costs and zrhs -z (0 when built).  A pivot adds the
    signed pivot row to each row holding the pivot column, a few integer
    operations per row; an entry that would leave {-1, 0, 1} raises
    IntegralityError.  Both simplex loops run it by _Tableau's rules.
    """

    def __init__(self, pos: list[int], neg: list[int], rhs: list[int], basis: list[int],
                 z: list[int]):
        self.pos = pos
        self.neg = neg
        self.rhs = rhs
        self.basis = basis
        self.z = z
        self.zrhs = 0

    @property
    def ncols(self) -> int:
        return len(self.z)

    def add_row(self, pos: int, neg: int, rhs: int) -> None:
        """Append the constraint row . x + s = rhs (entries as bitmasks) with
        a fresh slack s made basic, reduced over the current basis, as
        _Tableau.add_row does.  A row basic in column c holds no other
        basic column, so only the rows basic in the new row's own columns
        take part, found through the basis and reduced in row order."""
        s = len(self.z)
        self.z.append(0)
        basis = self.basis
        rows = sorted(basis.index(c) for c in _bits(pos | neg) if c in basis)
        pos |= 1 << s
        for i in rows:
            if pos >> basis[i] & 1:
                pos, neg = _add_ternary(pos, neg, self.neg[i], self.pos[i])
                rhs -= self.rhs[i]
            else:
                pos, neg = _add_ternary(pos, neg, self.pos[i], self.neg[i])
                rhs += self.rhs[i]
        self.pos.append(pos)
        self.neg.append(neg)
        self.rhs.append(rhs)
        basis.append(s)

    def pivot(self, r: int, c: int) -> None:
        # _add_ternary and _bits written out: this loop is the warm step
        pos, neg, rhs = self.pos, self.neg, self.rhs
        bit = 1 << c
        bp, bn, b = pos[r], neg[r], rhs[r]
        if bn & bit:
            bp, bn, b = bn, bp, -b
            pos[r], neg[r], rhs[r] = bp, bn, b
        for i, p in enumerate(pos):
            n = neg[i]
            if p & bit:                 # row i minus the pivot row
                if i == r:
                    continue
                ap, an, d = bn, bp, -b
            elif n & bit:               # row i plus the pivot row
                ap, an, d = bp, bn, b
            else:
                continue
            if p & ap or n & an:
                raise IntegralityError(_LEFT_TERNARY)
            cancel = p & an | n & ap
            pos[i] = (p | ap) ^ cancel
            neg[i] = (n | an) ^ cancel
            rhs[i] += d
        self.basis[r] = c
        z = self.z
        f = z[c]
        if f:
            for m, g in ((bp, f), (bn, -f)):
                while m:
                    low = m & -m
                    z[low.bit_length() - 1] -= g
                    m ^= low
            self.zrhs -= f * b

    def entering(self, dantzig: bool) -> int | None:
        """As _Tableau.entering, read from the list of reduced costs."""
        low = min(self.z, default=0)
        if low < 0:
            return self.z.index(low) if dantzig else next(j for j, v in enumerate(self.z) if v < 0)
        return None

    def leaving(self, c: int) -> int | None:
        """As _Tableau.leaving; every positive entry is 1, so the ratio is the value."""
        bit, rhs, basis = 1 << c, self.rhs, self.basis
        return min([i for i, p in enumerate(self.pos) if p & bit],
                   key=lambda i: (rhs[i], basis[i]), default=None)

    def dual_leaving(self, steepest: bool) -> int | None:
        """As _Tableau.dual_leaving; a row's squared norm is the count of its
        nonzero entries, the popcount of its two bitmasks."""
        rhs, basis = self.rhs, self.basis
        out = [i for i, v in enumerate(rhs) if v < 0]
        if len(out) < 2:
            return out[0] if out else None
        if not steepest:
            return min(out, key=basis.__getitem__)
        pos, neg = self.pos, self.neg
        best, bv, bs = None, 0, 1
        for i in out:
            v, s = rhs[i] * rhs[i], pos[i].bit_count() + neg[i].bit_count()
            if v * bs > bv * s or (v * bs == bv * s and basis[i] < basis[best]):
                best, bv, bs = i, v, s
        return best

    def dual_entering(self, r: int) -> int | None:
        """As _Tableau.dual_entering: every negative entry is -1, so the
        column with the minimum reduced cost, smallest column on ties.  No
        reduced cost is negative in the dual simplex, so the first 0 ends
        the walk."""
        z, m = self.z, self.neg[r]
        best = None
        while m:
            low = m & -m
            j = low.bit_length() - 1
            if best is None or z[j] < zmin:
                best, zmin = j, z[j]
                if not zmin:
                    break
            m ^= low
        return best

    def check_optimal(self) -> None:
        """The certificate of _Tableau.check_optimal, read in integers."""
        if min(self.rhs, default=0) < 0:
            raise SolverDefect("negative basic value in an optimal tableau; solver defect")
        if min(self.z, default=0) < 0:
            raise SolverDefect("negative reduced cost in an optimal tableau; solver defect")

    def values(self) -> tuple[dict[int, int], int]:
        """As _Tableau.values; the denominator is always 1."""
        return {c: v for c, v in zip(self.basis, self.rhs) if v}, 1

    def objective(self) -> int:
        return -self.zrhs


def _dantzig_pivots(tab: _Tableau | _TernaryTableau) -> int:
    """Pivots a simplex loop prices by its rule (Dantzig's in the primal
    loop, steepest edge in the dual) before it falls back to Bland's rule,
    whose termination is unconditional (either may stall on degenerate
    vertices)."""
    return 3 * (len(tab.basis) + tab.ncols) + 20


def _pivot_budget(tab: _Tableau | _TernaryTableau) -> int:
    """Pivots past which a simplex loop on tab raises SolverDefect, far more
    than the Bland fallback needs: reaching it is an anti-cycling defect."""
    return 10_000 + 60 * (len(tab.basis) + tab.ncols)


def _count_pivot(pivots: list[int], budget: int) -> None:
    pivots[0] += 1
    if pivots[0] > budget:
        raise SolverDefect(f"pivot budget {budget} exceeded; anti-cycling defect")


def _run_simplex(tab: _Tableau | _TernaryTableau, pivots: list[int]) -> LpStatus:
    """Primal simplex from a primal-feasible tableau: OPTIMAL or UNBOUNDED."""
    dantzig_until = pivots[0] + _dantzig_pivots(tab)
    budget = _pivot_budget(tab)
    while True:
        c = tab.entering(pivots[0] < dantzig_until)
        if c is None:
            return LpStatus.OPTIMAL
        r = tab.leaving(c)
        if r is None:
            return LpStatus.UNBOUNDED
        if r >= 0:                  # else c moved to its bound, no pivot
            tab.pivot(r, c)
        _count_pivot(pivots, budget)


def _run_dual_simplex(tab: _Tableau | _TernaryTableau, pivots: list[int]) -> LpStatus:
    """Dual simplex from a dual-feasible tableau of either kind (no negative
    reduced cost): OPTIMAL once every basic value is nonnegative, INFEASIBLE
    when a row with a negative value has no negative entry.  The leaving
    row is priced by steepest edge, falling back to Bland after the same
    allowance as the primal loop's Dantzig pricing."""
    dantzig_until = pivots[0] + _dantzig_pivots(tab)
    budget = _pivot_budget(tab)
    while True:
        r = tab.dual_leaving(pivots[0] < dantzig_until)
        if r is None:
            return LpStatus.OPTIMAL
        c = tab.dual_entering(r)
        if c is None:
            return LpStatus.INFEASIBLE
        tab.pivot(r, c)
        _count_pivot(pivots, budget)


def _crash_basis(rows, p: int) -> list[int]:
    """Each {column: value} row's crash column, a ready-made basic column:
    its smallest positive column in 0..p-1 that no other row holds, or -1
    where it has none.  The one crash rule: every cold start begins here."""
    count = [0] * p
    for row in rows:
        for j in row:
            if j != RHS:
                count[j] += 1
    return [min((j for j, v in row.items() if j != RHS and v > 0 and count[j] == 1), default=-1)
            for row in rows]


def _solve_standard_ints(rows, cost, cost_den: int, p: int) -> LpOutcome:
    """Exact simplex on sparse integer rows over columns 0..p-1.

    rows hold their nonzero entries as {column: value} maps or (column,
    value) pairs, the right-hand side under RHS; the cost is cost / cost_den
    with cost holding integer numerators the same way, and the tableau is
    priced by those alone (the same pivots, cost_den times the objective).
    The rows must be linearly independent, as preprocess leaves them: an
    artificial left basic after phase 1 on a row with no real column raises
    SolverDefect.  An infeasible system surfaces as a positive phase-1
    optimum.  An optimal outcome carries its final tableau, which a caller
    may re-optimize after a cost change (add_cost, then _run_simplex) or an
    appended row (add_row, then _run_dual_simplex).
    """
    rows = [dict(r) for r in rows]
    l = len(rows)
    for row in rows:
        if row.get(RHS, 0) < 0:
            for j in row:
                row[j] = -row[j]

    basis = _crash_basis(rows, p)
    art_rows = [i for i in range(l) if basis[i] == -1]
    ncols = p + len(art_rows)
    for a, i in enumerate(art_rows):
        rows[i][p + a] = 1
        basis[i] = p + a

    tab = _Tableau(rows, basis, ncols)
    pivots = [0]

    if art_rows:
        # minimize the sum of artificials
        tab.add_cost(dict.fromkeys(range(p, ncols), 1))
        if _run_simplex(tab, pivots) is not LpStatus.OPTIMAL:
            raise SolverDefect("phase 1 objective is bounded below; solver defect")
        if tab.zrow.get(RHS, 0) < 0:
            return LpOutcome(LpStatus.INFEASIBLE, pivots=pivots[0])
        # drive the leftover artificials, all at zero, out of the basis
        for i in range(l):
            if tab.basis[i] >= p:
                col = min((j for j in tab.rows[i] if 0 <= j < p), default=None)
                if col is None:
                    raise SolverDefect(f"row {i} depends on the other rows; solver defect")
                tab.pivot(i, col)
        for row in tab.rows:
            for j in [j for j in row if j >= p]:
                del row[j]
        tab.ncols = p

    # phase 2: price out the cost numerators over the current basis
    tab.zrow, tab.zden = {}, 1
    tab.add_cost(cost)
    if _run_simplex(tab, pivots) is LpStatus.UNBOUNDED:
        return LpOutcome(LpStatus.UNBOUNDED, pivots=pivots[0])
    values = [Fraction(0)] * p
    nums, den = tab.values()
    for c, v in nums.items():
        values[c] = Fraction(v, den)
    sol = BasicFeasibleSolution(tuple(values), tuple(sorted(tab.basis)), tab.objective() / cost_den)
    return LpOutcome(LpStatus.OPTIMAL, sol, pivots[0], tab)


def solve_lp(lp: StandardFormLP) -> LpOutcome:
    """Two-phase simplex over exact rationals.

    The input is preprocessed internally, so the returned basis refers to
    preprocess(lp)'s rows (preprocess is idempotent), and so does the
    optimal tableau the outcome carries.  Optimal outcomes are only emitted
    from a tableau whose reduced costs are all nonnegative, which is the
    exactness certificate.
    """
    try:
        pre = preprocess(lp)
    except InconsistentRow:
        return LpOutcome(LpStatus.INFEASIBLE)
    out = _solve_standard_ints(pre.rows, pre.cost_row, pre.cost_den, pre.num_vars)
    if out.status is LpStatus.OPTIMAL:
        sol = out.solution
        check = sum((v * sol.values[j] for j, v in pre.cost_row), Fraction(0)) / pre.cost_den
        if check != sol.objective:
            raise SolverDefect("objective bookkeeping mismatch; solver defect")
    return out


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
    cols = set(sol.basis)
    basis = EchelonBasis()
    if any(basis.add({j: v for j, v in row.items() if j in cols}) is not None
           for row in rows):
        return False
    cx = sum((v * x[j] for j, v in lp.cost_row if j in x), Fraction(0))
    if cx != sol.objective * lp.cost_den:
        return False
    return True
