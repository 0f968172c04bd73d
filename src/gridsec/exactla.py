"""Exact linear algebra: one sparse integer elimination kernel and its
Fraction reference.

Integer rows are sparse {column: value} maps, reduced by cross-
multiplication (_eliminate) and a gcd sweep (_reduce) without ever forming
a fraction, so the work follows the nonzeros rather than the dense width.
lp's simplex tableaux pivot on those two steps; EchelonBasis builds on them
for lp.preprocess, lp.verify_bfs, and the rank and row-space tests
(int_rank, in_row_space) behind the oracles.  Fraction Gauss-Jordan
(frac_rref) serves the nullspace reformulation and is the reference the
kernel is tested against; det_int is Bareiss elimination on a dense square
matrix; scale_row puts exact values over one integer denominator.
"""
from __future__ import annotations

import numbers
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import numpy as np


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_MAX_EXPONENT = sys.int_info.default_max_str_digits


def to_fraction(x) -> Fraction:
    """x as an exact Fraction.  Floats, numpy's included, are read at their
    shortest decimal repr, so 0.1 means 1/10; integers, numpy's included,
    go through int(); strings, decimals and other rationals through the
    Fraction constructor.  A string or Decimal whose decimal exponent is
    past +-sys.int_info.default_max_str_digits, the cap Python puts on digit
    strings, raises ValueError before its power of ten is formed, and so
    does a NaN or infinite Decimal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, np.floating)):
        return Fraction(repr(float(x)))
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, str):
        exp = _EXPONENT.search(x)
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent {exp[1]} is past +-{_MAX_EXPONENT}")
    if isinstance(x, Decimal):
        if not x.is_finite():
            raise ValueError(f"cannot read {x} as a fraction")
        if abs(x.as_tuple().exponent) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent {x.as_tuple().exponent} is past "
                             f"+-{_MAX_EXPONENT}")
    return Fraction(x)


def int_matrix(A) -> np.ndarray:
    """A as a nonempty 2-D integer array.  Entries are read exactly (as by
    to_fraction); one that is not an integer, or does not fit the array's
    integer type, raises ValueError rather than being truncated."""
    M = np.asarray(A)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    if M.dtype.kind in "biu":
        return M.astype(int)
    vals = [to_fraction(v) for v in M.flat]
    if any(v.denominator != 1 for v in vals):
        raise ValueError("expected integer entries")
    try:
        return np.array([int(v) for v in vals], dtype=int).reshape(M.shape)
    except OverflowError:
        raise ValueError("integer entries out of the 64-bit range") from None


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


def _reduce(row: dict[int, int], den: int) -> int:
    """Divide row and den by their common gcd in place; return the new den.
    With den 0 the row is divided by its own gcd."""
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


class EchelonBasis:
    """Incremental echelon basis over sparse integer rows.

    A row maps column -> nonzero integer.  Each kept row is reduced over
    the rows kept before it, in arrival order, and pivots on its largest
    nonnegative key; negative keys (lp's right-hand side) ride along but
    never pivot.  Which rows are kept depends only on their span, not on
    the pivot choice.
    """

    def __init__(self):
        self.rows: list[tuple[int, dict[int, int]]] = []   # (pivot column, reduced row)

    def reduce(self, row) -> dict[int, int]:
        """A reduced copy of row (a map or (column, value) pairs): zero in
        every pivot column, divided by its own gcd.  A kept row holds no
        pivot column of an earlier row, so one pass over the kept rows in
        arrival order clears every pivot."""
        row = dict(row)
        for pc, base in self.rows:
            f = row.get(pc)
            if f:
                _eliminate(row, base[pc], f, base)
                _reduce(row, 0)
        return row

    def add(self, row) -> dict[int, int] | None:
        """Keep row and return None when it is independent of the basis;
        otherwise return what reduction leaves of it, which holds negative
        keys only and is empty when the row lies in the span."""
        red = self.reduce(row)
        pivot = max(red, default=-1)
        if pivot < 0:
            return red
        self.rows.append((pivot, red))
        return None

    @property
    def rank(self) -> int:
        return len(self.rows)


def _sparse(row) -> dict[int, int]:
    return {j: int(v) for j, v in enumerate(row) if v}


def _basis(rows) -> EchelonBasis:
    basis = EchelonBasis()
    for r in rows:
        basis.add(_sparse(r))
    return basis


def int_rank(rows) -> int:
    """Exact rank of a dense integer matrix (lists or a numpy array)."""
    return _basis(rows).rank


def in_row_space(vec, rows) -> bool:
    """Exact membership of vec in the row space of a dense integer matrix."""
    return not _basis(rows).reduce(_sparse(vec))


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
    work = [[to_fraction(v) for v in row] for row in rows]
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
    transpose = [[to_fraction(rows[i][j]) for i in range(m)] for j in range(ncols)]
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
