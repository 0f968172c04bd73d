"""Fixed pure-Python calibration kernel.

The kernel does the kind of arithmetic the exact solvers spend their time
on, at a similar working-set size: a few simplex-style pivots on an 80 x 240
tableau of Python integers (cross-multiplied rows, then a gcd sweep), and a
Fraction round trip of some rows through their lcm denominator.  Its inputs
are constants, so its running time tracks only the speed of the host.  It
never imports gridsec.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, lcm

_ROWS, _COLS, _PIVOTS, _FRACTION_ROWS = 80, 240, 3, 2


def _tableau() -> list[list[int]]:
    rows = []
    for i in range(_ROWS):
        row = []
        for j in range(_COLS):
            v = (31 * i + 17 * j + (i * j) % 7) % 9
            row.append(v - 4 if v < 3 or v > 6 else 0)
        rows.append(row)
    return rows


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    g = den
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row, den
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    rows = _tableau()
    dens = [1] * _ROWS
    for p in range(_PIVOTS):
        r = 7 * p % _ROWS
        c = next(j for j in range(_COLS) if rows[r][j])
        prow, pv = rows[r], rows[r][c]
        if pv < 0:
            prow, pv = [-v for v in prow], -pv
        rows[r], dens[r] = prow, pv = _reduce(prow, pv)
        for i in range(_ROWS):
            f = rows[i][c]
            if i != r and f:
                rows[i], dens[i] = _reduce([a * pv - f * b for a, b in zip(rows[i], prow)],
                                           dens[i] * pv)
    check = 0
    for i in range(_FRACTION_ROWS):
        fracs = [Fraction(v, dens[i] + j % 3) for j, v in enumerate(rows[i])]
        mult = 1
        for v in fracs:
            mult = lcm(mult, v.denominator)
        check += sum(int(v * mult) for v in fracs) % 1_000_003
    return check


def timed() -> float:
    """Wall seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    # The set-up reference: run as a fresh process, this does the kind of
    # work a workload's set-up does (start an interpreter, load numpy's
    # extension modules, run pure-Python code) and nothing of gridsec.
    import numpy  # noqa: F401
    kernel()
