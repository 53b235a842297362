from __future__ import annotations

import itertools
import random

import pytest

from oracles import inverse_cartan_by_solve
from satake.errors import InvalidDatumError
from satake.lattice import RootDatum, cartan_matrix, cartan_tables, cartan_type, datum_tables, weyl_group_order


def from_cartan(a):
    """Datum in the basis dual to the coroots: root j has coordinates A[:,j]."""
    n = len(a)
    roots = tuple(tuple(a[i][j] for i in range(n)) for j in range(n))
    coroots = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return RootDatum(n, roots, coroots)


def simply_laced(n, edges):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    return a


A3 = simply_laced(3, [(0, 1), (1, 2)])
B3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
D4 = simply_laced(4, [(0, 1), (1, 2), (1, 3)])
D5 = simply_laced(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6 = simply_laced(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
E7 = simply_laced(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
E8 = simply_laced(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])


@pytest.mark.parametrize("a, expected", [
    (A3, "A3"),
    (B3, "B3"),
    (C3, "C3"),
    (B4, "B4"),
    (C4, "C4"),
    (D4, "D4"),
    (D5, "D5"),
    (F4, "F4"),
    (E6, "E6"),
    (E7, "E7"),
    (E8, "E8"),
])
def test_finite_types(a, expected):
    assert cartan_type(from_cartan(a)) == expected


def test_product_type():
    a = [[2, 0, 0], [0, 2, -1], [0, -1, 2]]
    assert cartan_type(from_cartan(a)) == "A1 x A2"


@pytest.mark.parametrize("a", [
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],                       # cycle
    simply_laced(5, [(0, 1), (1, 2), (1, 3), (1, 4)]),             # degree-4 node
    [[2, -4], [-1, 2]],                                            # mark 4
    [[2, -2], [-2, 2]],                                            # affine rank 2
    [[2, -1, 0], [-1, 2, -2], [0, -2, 2]],                         # double edge twice
    simply_laced(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6)]),  # two branch nodes
    [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -2, 0, 2]],    # branch node with double edge
])
def test_not_finite_type(a):
    with pytest.raises(InvalidDatumError):
        cartan_type(from_cartan(a))


@pytest.mark.parametrize("a, order", [
    (A3, 24),
    (B3, 48),
    (C3, 48),
    (D4, 192),
    (F4, 1152),
])
def test_group_orders(a, order):
    assert weyl_group_order(from_cartan(a)) == order


def path(n):
    return simply_laced(n, [(i, i + 1) for i in range(n - 1)])


def marked(a, i, j, mark):
    """Set <alpha_j, alpha_i^vee> = -mark: alpha_j is mark times as long
    as alpha_i in squared length."""
    a = [row[:] for row in a]
    a[i][j] = -mark
    return a


def finite_type(family, n):
    """The Cartan matrix of a connected finite type, nodes numbered along
    the diagram; B_n ends in its short root, C_n in its long one."""
    if family == "A":
        return path(n)
    if family == "B":
        return marked(path(n), n - 1, n - 2, 2)
    if family == "C":
        return marked(path(n), n - 2, n - 1, 2)
    if family == "D":
        return simply_laced(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])
    if family == "E":
        return simply_laced(n, [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)])
    if family == "F":
        return [row[:] for row in F4]
    return [[2, -1], [-3, 2]]


FINITE = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
          + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
          + [("E", n) for n in range(6, 9)] + [("F", 4), ("G", 2)])


def permuted(a, rng):
    p = list(range(len(a)))
    rng.shuffle(p)
    return [[a[p[i]][p[j]] for j in range(len(a))] for i in range(len(a))]


def block_sum(a, b):
    n = len(a) + len(b)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(a):
        out[i][:len(a)] = row
    for i, row in enumerate(b):
        out[len(a) + i][len(a):] = row
    return out


@pytest.mark.parametrize("family, n", FINITE, ids=[f"{f}{n}" for f, n in FINITE])
def test_finite_types_permuted(family, n):
    rng = random.Random(f"{family}{n}")
    assert cartan_type(from_cartan(permuted(finite_type(family, n), rng))) == f"{family}{n}"


BLOCK_SUMS = [(FINITE[k], random.Random(k).choice(FINITE)) for k in range(len(FINITE))]


@pytest.mark.parametrize("first, second", BLOCK_SUMS,
                         ids=[f"{f}{n}+{g}{m}" for (f, n), (g, m) in BLOCK_SUMS])
@pytest.mark.hashseed
def test_block_sums_permuted(first, second):
    rng = random.Random(str((first, second)))
    a = block_sum(finite_type(*first), finite_type(*second))
    expected = " x ".join(sorted(f"{f}{n}" for f, n in (first, second)))
    assert cartan_type(from_cartan(permuted(a, rng))) == expected


# the matrices above: each finite type, numbered along its diagram and
# renumbered, and each block sum, renumbered
MATRICES = ([(f"{f}{n}", finite_type(f, n)) for f, n in FINITE]
            + [(f"{f}{n}-permuted", permuted(finite_type(f, n), random.Random(f"{f}{n}"))) for f, n in FINITE]
            + [(f"{f}{n}+{g}{m}", permuted(block_sum(finite_type(f, n), finite_type(g, m)),
                                           random.Random(str(((f, n), (g, m))))))
               for (f, n), (g, m) in BLOCK_SUMS])


@pytest.mark.parametrize("a", [a for _, a in MATRICES], ids=[name for name, _ in MATRICES])
def test_fundamental_rows_invert_cartan(a):
    # the rows come from the invariant form G, which inverts A up to the
    # diagonal of half root norms; the oracle solves each row
    a = tuple(map(tuple, a))
    tables = cartan_tables(a)
    assert (tables.inverse_rows, tables.denominator) == inverse_cartan_by_solve(a)
    s = len(a)
    ga = [[sum(tables.form[j][k] * a[k][i] for k in range(s)) for i in range(s)] for j in range(s)]
    assert all((ga[j][i] > 0) if i == j else (ga[j][i] == 0) for i in range(s) for j in range(s))



def canonical_matrix(a):
    """A with its nodes in the canonical order that cartan_tables stores."""
    a = tuple(tuple(row) for row in a)
    order = cartan_tables(a).order
    assert sorted(order) == list(range(len(a)))
    return tuple(tuple(a[i][j] for j in order) for i in order)


def assert_canonical_under_permutations(a, rng, count):
    # every numbering gives one matrix, and the datum in canonical order has it
    want = canonical_matrix(a)
    for _ in range(count):
        b = permuted(a, rng)
        assert canonical_matrix(b) == want, b
        assert cartan_matrix(datum_tables(from_cartan(b)).canonical) == want, b


@pytest.mark.parametrize("family, n", FINITE, ids=[f"{f}{n}" for f, n in FINITE])
def test_canonical_order_finite_types(family, n):
    assert_canonical_under_permutations(finite_type(family, n), random.Random(f"canonical {family}{n}"), 4)


@pytest.mark.parametrize("first, second", BLOCK_SUMS,
                         ids=[f"{f}{n}+{g}{m}" for (f, n), (g, m) in BLOCK_SUMS])
@pytest.mark.hashseed
def test_canonical_order_block_sums(first, second):
    a = block_sum(finite_type(*first), finite_type(*second))
    assert_canonical_under_permutations(a, random.Random(f"canonical {first} {second}"), 2)


@pytest.mark.parametrize("a", [D4, block_sum(finite_type("A", 2), finite_type("A", 2)),
                               block_sum(finite_type("G", 2), [[2]])], ids=["D4", "A2+A2", "G2+A1"])
def test_canonical_order_every_numbering(a):
    # automorphisms (triality, swapped equal blocks) tie between orders
    n = len(a)
    want = canonical_matrix(a)
    for p in itertools.permutations(range(n)):
        assert canonical_matrix([[a[p[i]][p[j]] for j in range(n)] for i in range(n)]) == want, p


def diagram_automorphisms(a):
    """Aut(A) from the symmetries cartan_tables stores, the identity first:
    per class, the least walk of each component goes onto a walk of
    another, in every way.  Node p[i] plays the part of node i."""
    a = tuple(tuple(row) for row in a)
    group = [tuple(range(len(a)))]
    for components in cartan_tables(a).symmetries:
        grown = []
        for p in group:
            for sources in itertools.permutations(components):
                for walks in itertools.product(*sources):
                    q = list(p)
                    for slot, walk in zip(components, walks):
                        for node, image in zip(slot[0], walk):
                            q[node] = image
                    grown.append(tuple(q))
        group = grown
    return group


def automorphisms_by_search(a):
    n = len(a)
    return {p for p in itertools.permutations(range(n))
            if all(a[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n))}


AUTOMORPHISM_ORDERS = (
    [(finite_type("A", n), 2) for n in range(2, 9)] + [(finite_type("D", n), 2) for n in range(5, 9)]
    + [(E6, 2), (D4, 6), (finite_type("A", 1), 1), (F4, 1), (finite_type("G", 2), 1), (E7, 1), (E8, 1)]
    + [(finite_type("B", n), 1) for n in range(2, 9)] + [(finite_type("C", n), 1) for n in range(3, 9)]
    + [(block_sum([[2]], [[2]]), 2), (block_sum(finite_type("A", 2), finite_type("A", 2)), 8),
       (block_sum(D4, finite_type("A", 2)), 12), (block_sum(finite_type("G", 2), [[2]]), 1), ([], 1)]
)


@pytest.mark.parametrize("a, order", AUTOMORPHISM_ORDERS,
                         ids=[f"{cartan_type(from_cartan(a))}" for a, _ in AUTOMORPHISM_ORDERS])
def test_diagram_automorphisms(a, order):
    # the group the symmetries generate, for the canonical matrix and for
    # a renumbering of it; small ranks are checked against an s! search
    rng = random.Random(f"automorphisms {a}")
    for b in (canonical_matrix(a), permuted(a, rng)):
        group = diagram_automorphisms(b)
        assert len(group) == len(set(group)) == order
        for p in group:
            assert all(b[p[i]][p[j]] == b[i][j] for i in range(len(b)) for j in range(len(b))), p
        if len(b) <= 6:
            assert set(group) == automorphisms_by_search(b)


def cycle(n):
    return simply_laced(n, [(i, (i + 1) % n) for i in range(n)])


def star(arms):
    """Simply laced tree: node 0 with one path of each given length."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return simply_laced(nxt, edges)


def joined(a, i):
    """a with one more node, simply joined to node i."""
    out = block_sum(a, [[2]])
    out[i][-1] = out[-1][i] = -1
    return out


def forked(n):
    """D-type fork: nodes 0 and 1 on node 2, then a path up to node n - 1."""
    return simply_laced(n, [(0, 2)] + [(i, i + 1) for i in range(1, n - 1)])


# the affine types of rank <= 9 (rank = nodes), then one hyperbolic matrix
AFFINE = (
    [("A1~", [[2, -2], [-2, 2]]), ("A2(2)", [[2, -4], [-1, 2]])]
    + [(f"A{n}~", cycle(n + 1)) for n in range(2, 9)]
    + [(f"B{n}~", marked(forked(n + 1), n, n - 1, 2)) for n in range(3, 9)]
    + [(f"C{n}~", marked(marked(path(n + 1), 1, 0, 2), n - 1, n, 2)) for n in range(2, 9)]
    + [(f"D{n}~", simply_laced(n + 1, [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)]
                               + [(n - 2, n - 1), (n - 2, n)])) for n in range(4, 9)]
    + [("E6~", star([2, 2, 2])), ("E7~", star([1, 3, 3])), ("E8~", star([1, 2, 5]))]
    # the extra node joins the long end of F4 (node 3) and G2 (node 0)
    + [("F4~", joined(F4, 3)), ("G2~", joined(finite_type("G", 2), 0))]
    + [("hyperbolic", [[2, -2, 0], [-2, 2, -1], [0, -1, 2]])]
)


@pytest.mark.parametrize("a", [a for _, a in AFFINE], ids=[name for name, _ in AFFINE])
def test_affine_types_rejected(a):
    with pytest.raises(InvalidDatumError, match="not finite type"):
        cartan_type(from_cartan(a))
