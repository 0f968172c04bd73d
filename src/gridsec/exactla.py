"""Exact dense linear algebra at desk scale.

Integer rows are reduced with cross-multiplication (no division), fraction
rows with ordinary Gauss-Jordan over fractions.Fraction.  Everything here is
O(rows^2 * cols) and meant for matrices with tens of rows, not thousands.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    if g <= 1:
        return row
    return [v // g for v in row]


class EchelonBasis:
    """Incremental row-echelon basis over the integers.

    Rows are stored gcd-reduced with a positive pivot entry; add() reports
    whether the row enlarged the span, so rank and membership queries share
    one elimination routine.
    """

    def __init__(self):
        self.rows: list[list[int]] = []   # kept in increasing pivot-column order
        self.pivots: list[int] = []

    def _eliminate(self, row) -> list[int]:
        row = [int(v) for v in row]
        for piv_col, basis_row in zip(self.pivots, self.rows):
            v = row[piv_col]
            if v:
                p = basis_row[piv_col]
                row = [a * p - v * b for a, b in zip(row, basis_row)]
                row = _reduce_row(row)
        return row

    def add(self, row) -> bool:
        """Insert a row; True iff it was independent of the current span."""
        red = self._eliminate(row)
        for col, v in enumerate(red):
            if v:
                if v < 0:
                    red = [-x for x in red]
                pos = sum(1 for p in self.pivots if p < col)
                self.rows.insert(pos, red)
                self.pivots.insert(pos, col)
                return True
        return False

    def contains(self, row) -> bool:
        return not any(self._eliminate(row))

    @property
    def rank(self) -> int:
        return len(self.rows)


def int_rank(rows) -> int:
    basis = EchelonBasis()
    for r in rows:
        basis.add(r)
    return basis.rank


def in_row_space(vec, rows) -> bool:
    """Exact membership of vec in the row space of an integer matrix."""
    basis = EchelonBasis()
    for r in rows:
        basis.add(r)
    return basis.contains(vec)


def det_int(matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss, division-free)."""
    m = [[int(v) for v in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * m[n - 1][n - 1]


def frac_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rows, pivot columns).

    Zero rows are dropped from the result.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def left_nullspace(matrix) -> list[list[Fraction]]:
    """Basis rows L with L @ matrix == 0, canonicalized by RREF.

    Returns an empty list when the matrix has full row rank.
    """
    rows = [list(r) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    transpose = [[Fraction(rows[i][j]) for i in range(m)] for j in range(ncols)]
    red, pivots = frac_rref(transpose)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * m
        vec[f] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    if not basis:
        return []
    canon, _ = frac_rref(basis)
    return canon
