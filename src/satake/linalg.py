"""Exact integer and rational linear algebra.

Everything is fraction- or integer-exact; no floating point enters any code
path.  Matrices are plain lists of lists (rows), vectors are sequences.
All functions are pure.  The determinant and the phase-1 simplex are
fraction-free: both keep an integer matrix over the last pivot and divide
exactly (Bareiss; Edmonds), and the simplex returns its point as integer
numerators over that pivot.  ``solve_rational`` works on ``Fraction`` rows;
the library no longer calls it.  Integer systems, the coroot fit of
reconstruction included, go through the integral Smith normal form
(Newman).  The Smith form keeps v as sparse columns, since the relation
matrices of reconstruction are wide (GL2^'s is 34 x 218) and their column
operations leave v sparse, and it stops a pivot scan at the first unit
entry.  Neither changes a step, so (d, u, v) is what the dense elimination
gives; the recovered data depend on u.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(r[k] * x[k] for k in range(len(x))) for r in a]


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_rational(columns: Sequence[Sequence[int]],
                   target: Sequence[int | Fraction]) -> tuple[Fraction, ...] | None:
    """Solve sum_j x_j * columns[j] = target exactly over the rationals.

    Returns the coefficients, or None for an inconsistent system; raises
    ValueError on dependent columns.  No library code calls it: it is the
    tests' rational reference, and the benchmark's tracer wraps it by name.
    """
    k = len(columns)
    n = len(target)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            raise ValueError("dependent columns in exact solve")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    return tuple(rows[j][k] for j in range(k))


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with d = u * a * v, u and v unimodular, d diagonal with
    d[0][0] | d[1][1] | ... and nonnegative diagonal entries.

    v is kept as sparse columns while it is built, so a column operation
    touches only the nonzero entries of v and a column swap moves no entry
    of it.  The pivot is the first entry of least absolute value in row-major
    order; the scan stops at the first 1.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity_matrix(m)
    # column i of v as {row: entry}, zeros left out
    v_cols = [{k: 1} for k in range(n)]

    def row_add(i: int, j: int, c: int) -> None:
        if c == 0:
            return
        for k in range(n):
            d[i][k] += c * d[j][k]
        for k in range(m):
            u[i][k] += c * u[j][k]

    def v_add(i: int, j: int, c: int) -> None:
        col = v_cols[i]
        for k, x in v_cols[j].items():
            y = col.get(k, 0) + c * x
            if y:
                col[k] = y
            else:
                del col[k]

    def col_add(i: int, j: int, c: int) -> None:
        if c == 0:
            return
        for row in d:
            row[i] += c * row[j]
        v_add(i, j, c)

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        v_cols[i], v_cols[j] = v_cols[j], v_cols[i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def pivot(t: int) -> tuple[int, int] | None:
        """The first entry of least absolute value in the trailing submatrix."""
        piv = None
        best = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not best or x < best):
                    piv = (i, j)
                    best = x
                    if x == 1:
                        return piv
        return piv

    def reduce_at(t: int) -> bool:
        """Diagonalize position t against the trailing submatrix."""
        piv = pivot(t)
        if piv is None:
            return False
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            i = next((i for i in range(t + 1, m) if d[i][t] != 0), None)
            if i is not None:
                q = d[i][t] // d[t][t]
                row_add(i, t, -q)
                if d[i][t] != 0:
                    row_swap(t, i)
                continue
            # column t is now zero off row t, so clearing d[t][j] changes
            # only that entry and v, and the scan resumes after an exact clear
            row = d[t]
            for j in range(t + 1, n):
                if row[j]:
                    q = row[j] // row[t]
                    if q:
                        row[j] -= q * row[t]
                        v_add(j, t, -q)
                    if row[j]:
                        col_swap(t, j)
                        break
            else:
                break
        if d[t][t] < 0:
            row_negate(t)
        return True

    rank = 0
    for t in range(min(m, n)):
        if not reduce_at(t):
            break
        rank = t + 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                col_add(i, i + 1, 1)
                reduce_at(i)
                reduce_at(i + 1)
                changed = True
    # that pass can leave a diagonal entry negative
    for i in range(rank):
        if d[i][i] < 0:
            row_negate(i)
    v = [[0] * n for _ in range(n)]
    for i, col in enumerate(v_cols):
        for k, x in col.items():
            v[k][i] = x
    return d, u, v


def integer_solutions(a: Sequence[Sequence[int]],
                      b: Sequence[int]) -> tuple[list[int], list[list[int]]] | None:
    """Solve a * x = b over the integers.

    Returns (particular solution, basis of the homogeneous solution lattice),
    or None when no integer solution exists.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [0] * n, [[int(i == j) for j in range(n)] for i in range(n)]
    d, u, v = smith_normal_form(a)
    ub = mat_vec(u, list(b))
    y = [0] * n
    free: list[int] = []
    for i in range(n):
        di = d[i][i] if i < m else 0
        if di != 0:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        else:
            if i < m and ub[i] != 0:
                return None
            free.append(i)
    for i in range(n, m):
        if ub[i] != 0:
            return None
    x0 = mat_vec(v, y)
    basis = [[v[r][i] for r in range(n)] for i in free]
    return x0, basis


def lp_feasible_point(rows: Sequence[Sequence[int]],
                      rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """Exact feasibility for {x >= 0 : rows * x = rhs} by phase-1 simplex.

    Returns a feasible point as (x, d), the integer numerators x over one
    denominator d > 0, or None.  Bland's rule guarantees termination.

    The tableau stays integral (Edmonds' fraction-free pivoting, as in
    Bareiss elimination): it holds d times the rational tableau, where d > 0
    is the last pivot.  A pivot keeps its own row, replaces every other row
    and the objective row by (p * x - f * y) // d, a division that is exact
    by Sylvester's identity, and sets d = p.  Bland's rule reads only signs,
    which d > 0 keeps, and the ratio test cross-multiplies, so the pivots
    are those of the rational tableau and x / d is its point.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n, 1
    # tableau: n structural columns, m artificial columns, rhs; plus objective row
    tab: list[list[int]] = []
    for i in range(m):
        sign = -1 if rhs[i] < 0 else 1
        tab.append([sign * x for x in rows[i]] + [int(i == j) for j in range(m)] + [sign * rhs[i]])
    basis = [n + i for i in range(m)]
    # maximize -(sum of artificials); reduced costs for the initial basis
    obj = [sum(col) for col in zip(*tab)]
    obj[n:n + m] = [0] * m
    d = 1

    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        # some entry of the column is positive, or x[enter] could grow
        # without bound and so would the objective, -sum(artificials) <= 0
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # row[-1] / a against the best ratio, both denominators > 0
                lhs = row[-1] * tab[leave][enter]
                best = tab[leave][-1] * a
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                tab[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        f = obj[enter]
        obj = [(p * x - f * y) // d for x, y in zip(obj, pivot_row)]
        d = p
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x, d
