"""Minimum-support solves over totally unimodular constraint data.

The problem: given an integer matrix A, a target row k and a protected row
set I, find x minimizing the number of nonzero entries of A(unprotected,:)x
subject to A(k,:)x = 1 and A(I,:)x = 0.  For totally unimodular A the l1
relaxation, posed as a standard-form LP and solved exactly, attains the
same optimum and an integral witness, so the combinatorial answer comes out
of a single polynomial-time solve.

Row indices (k, I, supports) are 1-based throughout this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
import math
import random

import numpy as np

from . import lp
from .errors import IntegralityError, SizeLimitExceeded, SolverDefect
from .exactla import det_int, int_matrix


def check_rows(m: int, k: int, I=frozenset()) -> frozenset[int]:
    """I as a frozenset of ints, once target row k and the protected rows I
    are known to lie in 1..m with k unprotected; ValueError otherwise."""
    I = frozenset(int(i) for i in I)
    if not 1 <= k <= m:
        raise ValueError(f"target row {k} outside 1..{m}")
    if any(not 1 <= i <= m for i in I):
        raise ValueError("protected row outside 1..m")
    if k in I:
        raise ValueError("target row cannot be protected")
    return I


@dataclass(frozen=True)
class TUProblem:
    """The one record of a minimum-support problem: integer data A, a 1-based
    target row k and protected rows I, read by the l1 solve and the oracles."""

    A: np.ndarray
    k: int
    I: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "A", int_matrix(self.A))
        object.__setattr__(self, "I", check_rows(self.A.shape[0], self.k, self.I))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row's nonzero (column, value) pairs, as Python ints."""
        return tuple(tuple((c, a) for c, a in enumerate(row) if a)
                     for row in self.A.tolist())

    @property
    def free_rows(self) -> tuple[int, ...]:
        """Unprotected rows (1-based, ascending); note k is one of them."""
        return tuple(j for j in range(1, self.A.shape[0] + 1) if j not in self.I)


@dataclass(frozen=True)
class TUSolution:
    x: tuple[int, ...]
    support: frozenset[int]        # unprotected rows where A(j,:)x != 0
    cardinality: int
    image: tuple[int, ...]         # |A(j,:)x| over the unprotected rows, in order

    def __post_init__(self):
        if self.cardinality != len(self.support):
            raise ValueError("cardinality must equal |support|")


def build_l1_lp(problem: TUProblem) -> lp.StandardFormLP:
    """Standard-form l1 relaxation.

    Variables are (x+, x-, y+, y-) with y ranging over the unprotected rows;
    constraint rows are the unprotected block A(j,:)(x+ - x-) - y+ + y- = 0,
    then the protected rows pinned to zero, then the target row pinned to
    one.  Cost is sum(y+) + sum(y-).  Dependent protected rows are left to
    lp.preprocess, which keeps the same rows a greedy pass over them would.
    """
    n = problem.A.shape[1]
    free = problem.free_rows
    r = len(free)

    def state_part(j: int) -> dict[int, int]:
        row = {}
        for c, a in problem.rows[j - 1]:
            row[c] = a
            row[n + c] = -a
        return row

    rows: list[dict[int, int]] = []
    for pos, j in enumerate(free):
        row = state_part(j)
        row[2 * n + pos] = -1
        row[2 * n + r + pos] = 1
        rows.append(row)
    for j in sorted(problem.I) + [problem.k]:
        rows.append(state_part(j))
    rows[-1][lp.RHS] = 1
    width = 2 * n + 2 * r
    cost = {c: 1 for c in range(2 * n, width)}
    return lp.StandardFormLP.from_int_rows(rows, cost, width)


def solve_min_support(problem: TUProblem) -> TUSolution | None:
    """Exact minimum-support solve; None when the constraints are infeasible.

    Feasibility is decided by the LP layer (inconsistency in preprocessing or
    a positive phase-1 optimum), not by a separate rank precheck.
    """
    relax = build_l1_lp(problem)
    out = lp.solve_lp(relax)
    if out.status is lp.LpStatus.INFEASIBLE:
        return None
    if out.status is not lp.LpStatus.OPTIMAL:
        raise SolverDefect("l1 relaxation cannot be unbounded; solver defect")
    n = problem.A.shape[1]
    vals = out.solution.values
    x_frac = [vals[c] - vals[n + c] for c in range(n)]
    if any(v.denominator != 1 for v in x_frac):
        raise IntegralityError(f"fractional witness {x_frac}")
    x = tuple(int(v) for v in x_frac)
    sol = _solution_from_x(problem, x)
    if sol.cardinality != out.solution.objective:
        raise IntegralityError(
            f"objective {out.solution.objective} != support {sol.cardinality}")
    if not validate_integrality(sol, problem):
        raise IntegralityError(f"witness violates the unimodular pattern: {sol}")
    return sol


def _solution_from_x(problem: TUProblem, x: tuple[int, ...]) -> TUSolution:
    image = []
    support = set()
    for j in problem.free_rows:
        v = sum(a * x[c] for c, a in problem.rows[j - 1])
        image.append(abs(v))
        if v:
            support.add(j)
    return TUSolution(x, frozenset(support), len(support), tuple(image))


def validate_integrality(sol: TUSolution, problem: TUProblem) -> bool:
    """Check the guaranteed pattern: x in {-1,0,1}^n and image in {0,1}."""
    if len(sol.x) != problem.A.shape[1]:
        return False
    if any(v not in (-1, 0, 1) for v in sol.x):
        return False
    recomputed = _solution_from_x(problem, sol.x)
    if recomputed.image != sol.image or recomputed.support != sol.support:
        return False
    return all(v in (0, 1) for v in sol.image)


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
