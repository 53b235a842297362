from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import lp_feasible_point_by_fractions, smith_normal_form_dense
from satake import reconstruct
from satake.fixtures import get_fixture
from satake.lattice import dual_root_datum
from satake.linalg import (
    det_int,
    identity_matrix,
    integer_solutions,
    lp_feasible_point,
    mat_vec,
    smith_normal_form,
    solve_rational,
)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_det_small():
    assert det_int([[2]]) == 2
    assert det_int([[2, -1], [-1, 2]]) == 3
    assert det_int([[2, -1], [-3, 2]]) == 1
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1


def test_solve_rational_exact():
    # alpha1, alpha2 of an A2 datum expressing alpha1 + alpha2
    cols = [(2, -1), (-1, 2)]
    assert solve_rational(cols, (1, 1)) == (Fraction(1), Fraction(1))
    assert solve_rational(cols, (2, -1)) == (Fraction(1), Fraction(0))
    # outside the integer span but inside the rational span
    assert solve_rational(cols, (1, 0)) == (Fraction(2, 3), Fraction(1, 3))


def test_solve_rational_inconsistent():
    # single column cannot reach a point off its line
    assert solve_rational([(1, 1)], (1, 0)) is None
    with pytest.raises(ValueError):
        solve_rational([(1, 0), (2, 0)], (0, 1))


@pytest.mark.parametrize("seed", list(range(25)) + ["chain-pass-sign"])
def test_smith_normal_form_random(seed):
    if seed == "chain-pass-sign":
        # the divisibility-chain pass once left this diagonal at (1, 1, -2)
        a = [[6, -3, 5, -3], [2, 4, -2, 0], [6, -4, 2, -5]]
    else:
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    m, n = len(a), len(a[0])
    d, u, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0
    assert all(x >= 0 for x in diag)


@st.composite
def relation_matrices(draw):
    """Wide matrices like the relation matrix of monoid recovery: up to 8
    rows and 3 to 6 times as many columns, each column with at most three
    entries in {-1, 1}, some columns repeated or zero."""
    m = draw(st.integers(1, 8))
    columns = []
    for _ in range(draw(st.integers(3 * m, 6 * m))):
        if columns and draw(st.integers(0, 4)) == 0:
            columns.append(draw(st.sampled_from(columns)))
            continue
        column = [0] * m
        for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
            column[i] += draw(st.sampled_from([-1, 1]))
        columns.append(column)
    return [list(row) for row in zip(*columns)]


def seed_relation_matrix(rd, bound: int, seed: int) -> list[list[int]]:
    """The relation matrix that monoid recovery hands to the Smith form at
    grade 4, for the seeded dump of rd at the given bound."""
    sr, _ = reconstruct.dump_semiring(rd, bound, seed)
    caught = []

    def spy(a):
        caught.append([list(row) for row in a])
        return smith_normal_form(a)

    with mock.patch.object(reconstruct, "smith_normal_form", spy):
        reconstruct.recover_monoid(sr, reconstruct.ReconstructionConfig(), min_grade=4)
    return caught[0]


# GL2^-8: 34 ids by 218 certified sums, the widest seed matrix of the fixtures
GL2_DUAL_RELATIONS = seed_relation_matrix(dual_root_datum(get_fixture("GL2").datum), 8, 0)

small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices, relation_matrices()))
@example([[6, -3, 5, -3], [2, 4, -2, 0], [6, -4, 2, -5]])
@example([[0, 0], [0, 0]])
@example(GL2_DUAL_RELATIONS)
def test_smith_normal_form_matches_dense_reference(a):
    # the sparse columns of v, the early pivot stop and clearing a pivot row
    # in place change no step, so the same (d, u, v) comes out; the
    # recovered data depend on u
    assert smith_normal_form(a) == smith_normal_form_dense(a)


def test_integer_solutions_basic():
    # x + 2y = 5 over Z
    sol = integer_solutions([[1, 2]], [5])
    assert sol is not None
    x0, basis = sol
    assert x0[0] + 2 * x0[1] == 5
    assert len(basis) == 1
    # no integer solution: 2x = 1
    assert integer_solutions([[2]], [1]) is None


def test_lp_feasibility_point():
    # x1 + x2 = 1 with x >= 0: feasible
    x, d = lp_feasible_point([[1, 1]], [1])
    assert d > 0 and sum(x) == d and all(v >= 0 for v in x)
    # x1 - x2 = 1, x1 + x2 = -1 infeasible over x >= 0
    assert lp_feasible_point([[1, -1], [1, 1]], [1, -1]) is None
    # convex combination reaching an interior point
    x, d = lp_feasible_point([[2, -2], [1, 1]], [1, 1])
    assert d > 0 and all(v >= 0 for v in x)
    assert 2 * x[0] - 2 * x[1] == d and x[0] + x[1] == d
    # no rows: the origin
    assert lp_feasible_point([], []) == ([], 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 5))
def test_lp_feasible_point_planted(data, m, n):
    # a planted x* >= 0 makes rows * x = rows * x* feasible
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                              min_size=m, max_size=m))
    planted = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rhs = mat_vec(rows, planted)
    point = lp_feasible_point(rows, rhs)
    assert point is not None
    x, d = point
    assert len(x) == n and all(type(v) is int and v >= 0 for v in x)
    assert type(d) is int and d > 0
    assert [sum(a * v for a, v in zip(row, x)) for row in rows] == [d * b for b in rhs]
    # the sum of all rows cannot reach one more than the sum of rhs
    total = [sum(col) for col in zip(*rows)]
    assert lp_feasible_point(rows + [total], rhs + [sum(rhs) + 1]) is None


@st.composite
def lp_systems(draw):
    """Systems rows * x = rhs, x >= 0, with m <= 5, n <= 8 and entries in
    [-20, 20].  The rhs is either planted (rows * x* for some x* >= 0, so
    feasible) or drawn freely, negative entries included (mostly infeasible).
    Some rows may be replaced by positive multiples of an earlier row, with
    the rhs scaled alike: their ratios tie wherever they meet the earlier
    row's in the ratio test."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    entry = st.integers(-20, 20)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if draw(st.booleans()):
        planted = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = mat_vec(rows, planted)
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    for i in range(1, m):
        if draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            k = draw(st.integers(1, 3))
            rows[i] = [k * x for x in rows[j]]
            rhs[i] = k * rhs[j]
    return rows, rhs


@settings(max_examples=400, deadline=None)
@given(lp_systems())
# every row ties with the first in the first ratio test
@example(([[1, 2], [2, 4], [3, 6]], [3, 6, 9]))
# a tie that Bland's rule breaks towards a later row, and that decides the
# point: breaking ties towards the first row ends at (0, 3/5, 4/5, 1/5)
# instead of (3/4, 0, 1/2, 1/2)
@example(([[0, 1, -1, 1], [2, 2, -1, -2], [0, 1, 0, 2]], [0, 0, 1]))
# infeasible: x1 - x2 = 1 and x1 + x2 = -1
@example(([[1, -1], [1, 1]], [1, -1]))
@example(([[-3, 5, 0, 7], [2, -1, 4, 0]], [-20, 0]))
def test_lp_feasible_point_matches_fraction_tableau(system):
    # the integer tableau pivots exactly as the Fraction tableau does, so its
    # numerators over its denominator are the same point, or None on the
    # same systems
    rows, rhs = system
    point = lp_feasible_point(rows, rhs)
    expected = lp_feasible_point_by_fractions(rows, rhs)
    if point is None:
        assert expected is None
    else:
        x, d = point
        assert d > 0 and [Fraction(v, d) for v in x] == expected
