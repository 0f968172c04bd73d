"""The sparse integer elimination kernel against Fraction Gauss-Jordan.

int_rank, in_row_space and lp.preprocess all run on exactla.EchelonBasis;
frac_rref is the independent reference.
"""
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec.errors import InconsistentRow
from gridsec.exactla import EchelonBasis, frac_rref, in_row_space, int_rank, to_fraction
from gridsec.lp import RHS, StandardFormLP, preprocess

from oracle_helpers import reduce_by_scan


def test_to_fraction_refuses_a_decimal_exponent_past_the_digit_cap():
    cap = sys.int_info.default_max_str_digits
    for kind in (str, Decimal):
        assert to_fraction(kind(f"1e{cap}")) == 10 ** cap
        assert to_fraction(kind(f"1e-{cap}")) == Fraction(1, 10 ** cap)
        assert to_fraction(kind("2.5E+1")) == 25
        t0 = time.perf_counter()
        for text in (f"1e{cap + 1}", f"1e-{cap + 1}", "1e999999999", " 1E1_000_000 ",
                     f"25e-{cap + 1}"):
            with pytest.raises(ValueError, match="exponent"):
                to_fraction(kind(text))
        assert time.perf_counter() - t0 < 1.0
    for text in ("NaN", "sNaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            to_fraction(Decimal(text))


def test_frac_rref_reads_floats_as_decimals():
    assert frac_rref([[0.1, 0.3]]) == ([[Fraction(1), Fraction(3)]], [0])


def ref_rank(rows) -> int:
    return len(frac_rref(rows)[1]) if rows else 0


def with_dependent_rows(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """rows plus integer combinations and duplicates of them, spliced in at
    random positions."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.insert(rng.randrange(len(rows) + 1),
                    [p * x + q * y for x, y in zip(rows[a], rows[b])])
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return rows


def test_rank_and_row_space_match_the_fraction_reference():
    rng = random.Random(4242)
    seen = set()
    for i in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        rows = with_dependent_rows(rng, rows)
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        inside = [3 * x - 2 * y for x, y in zip(rows[a], rows[b])]
        probe = [rng.randint(-4, 4) for _ in range(n)]
        # dense lists, and numpy integer arrays of two widths
        data = rows if i % 3 == 0 else np.array(rows, dtype=(np.int64, np.int32)[i % 3 - 1])
        rank = ref_rank(rows)
        assert int_rank(data) == rank
        assert in_row_space(inside, data)
        assert in_row_space(np.array(inside), data)
        member = ref_rank(rows + [probe]) == rank
        assert in_row_space(probe, data) == member
        seen |= {("dependent", rank < len(rows)), ("member", member)}
    assert len(seen) == 4


def test_empty_and_zero_inputs():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert in_row_space([0, 0], [])
    assert not in_row_space([0, 1], [])
    assert in_row_space([0, 0, 0], [[1, 2, 3]])


def greedy_reference(C, d):
    """Kept row indices of a greedy Fraction-rank pass, or the index of the
    first dependent row whose right-hand side breaks consistency."""
    kept = []
    for i in range(len(C)):
        rank = len(kept)
        if ref_rank([C[j] for j in kept + [i]]) > rank:
            kept.append(i)
        elif ref_rank([C[j] + [d[j]] for j in kept + [i]]) > rank:
            return i
    return kept


@pytest.mark.parametrize("seed", range(3))
def test_preprocess_matches_a_greedy_fraction_rank_pass(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(100):
        n = rng.randint(1, 7)
        x = [rng.randint(-2, 2) for _ in range(n)]
        C = [[rng.choice([0, rng.randint(-6, 6)]) for _ in range(n)]
             for _ in range(rng.randint(1, 6))]
        C = with_dependent_rows(rng, C)
        # consistent right-hand sides, a few nudged off
        d = [sum(a * v for a, v in zip(row, x)) + (rng.random() < 0.12) for row in C]
        lp = StandardFormLP.from_int_rows(
            [{**dict(enumerate(row)), RHS: b} for row, b in zip(C, d)], {}, n)
        want = greedy_reference(C, d)
        if isinstance(want, int):
            with pytest.raises(InconsistentRow, match=f"^row {want} "):
                preprocess(lp)
            outcomes.add("inconsistent")
            continue
        pre = preprocess(lp)
        assert pre.rows == tuple(lp.rows[i] for i in want)
        assert pre.dens == (1,) * len(want)
        outcomes.add("dropped" if len(want) < len(C) else "full rank")
    assert outcomes == {"inconsistent", "dropped", "full rank"}


# sparse rows over columns -1 (a right-hand side) .. 7, entries in -3..3
_sparse_rows = st.lists(
    st.dictionaries(st.integers(-1, 7), st.integers(-3, 3).filter(bool), max_size=5),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_rows)
def test_the_pivot_index_reduces_as_the_scan_over_every_kept_row(rows):
    # each row reduced by the indexed basis and by the old probe of every
    # kept pivot: equal leftovers (in key order too), equal kept rows
    basis = EchelonBasis()
    for row in rows:
        expected = reduce_by_scan(list(basis.rows), row)
        got = basis.reduce(row)
        assert list(got.items()) == list(expected.items())
        left = basis.add(row)
        assert left is None or left == expected
    kept = []
    for row in rows:
        red = reduce_by_scan(kept, row)
        if max(red, default=-1) >= 0:
            kept.append((max(red), red))
    assert basis.rows == kept
