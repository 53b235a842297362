"""Root data, Weyl group combinatorics, and dominance orders, all in exact
integer arithmetic; only ``root_coefficients`` returns ``Fraction`` values.

Weights and coweights are plain integer tuples in a fixed lattice basis; a
coweight of one datum is a weight of its dual, so every operation here takes
the datum it should act through.  Queries read a weight through ``_vector``
(its length and entries) and a count through ``_count``, and raise
DomainError on anything else.  All functions are pure and thread-safe.

Root-system facts that depend only on the Cartan matrix (the positive roots
and coroots in simple-root and simple-coroot coordinates, their Dynkin
labels and norms, the invariant form on labels and the inverse Cartan rows it
gives, the Cartan type and a canonical node order) come from the one cached
``cartan_tables``, shared by every datum with that matrix whatever its
lattice basis.  Its root saturation also decides finite type, since only a
finite-type matrix has finitely many roots, so it is the whole of
``validate_datum``.  Per-datum facts (positive roots and coroots as vectors,
2rho, 2rho^vee, the Smith form of the root lattice, the datum renumbered
into the canonical node order) come from the one cached ``datum_tables``,
which derives its vectors from the Cartan tables and holds one integer map
per datum for the order queries: v's pairings with ``span_rows`` are its
simple-root coordinates times ``denominator``, and v lies in the roots'
rational span iff it pairs to 0 with every row of ``off_span_rows``, so no
order query calls the solver.  X/Q classes are pairings with the Smith
form's rows.  ``_box_points`` enumerates the integer points of a box cut by
linear inequalities, solving the last coordinate's integer interval for each
head of the box; it is the one enumerator behind ``dominant_window`` (a
coordinate box under a coroot-height bound) and ``_dominant_depths`` (the
depth box below a dominant weight, shared by ``dominant_below`` and the
weight diagrams in ``semiring``).

Weights stay vectors at the API.  Internally the dominant chamber fold runs
on Dynkin labels (the pairings with the simple coroots, as in LiE and
Stembridge's "Computational aspects of root systems"): a weight is dominant
when all its labels are >= 0, and the reflection s_i subtracts labels[i]
times column i of the Cartan matrix.  ``dominant_representative`` and the
Freudenthal recursion and Klimyk product in ``semiring`` share that fold,
and ``weyl_orbit`` and the weight diagrams share one orbit walk on labels,
``_label_orbit``.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd, lcm
from operator import index, mul
from typing import Sequence

from .errors import DomainError, InvalidDatumError, ParseError, json_value
from .linalg import lp_feasible_point, smith_normal_form

Weight = tuple[int, ...]
WeylWord = tuple[int, ...]
# per class of equal components, per component, its walks (``CartanTables``)
Symmetries = tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]


@dataclass(frozen=True)
class RootDatum:
    """A based root datum: ambient lattice rank plus simple roots/coroots.

    The full root and coroot systems are derived, never stored.  ``name`` is
    a display label and does not participate in equality.  The hash is
    computed once, since every query looks its tables up by the datum.
    """

    rank: int
    simple_roots: tuple[Weight, ...]
    simple_coroots: tuple[Weight, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "rank", index(self.rank))
            for part in ("simple_roots", "simple_coroots"):
                object.__setattr__(self, part, tuple(tuple(index(c) for c in v) for v in getattr(self, part)))
        except TypeError as exc:
            raise InvalidDatumError(f"rank and root entries must be integers: {exc}") from exc
        if self.rank < 0:
            raise InvalidDatumError("rank must be nonnegative")
        if len(self.simple_roots) != len(self.simple_coroots):
            raise InvalidDatumError("simple roots and coroots must pair up")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != self.rank:
                raise InvalidDatumError("root/coroot length does not match rank")
        object.__setattr__(self, "_hash", hash((self.rank, self.simple_roots, self.simple_coroots)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "RootDatum"
        return f"{label}(rank={self.rank}, roots={list(self.simple_roots)})"


def pairing(weight: Sequence[int], coweight: Sequence[int]) -> int:
    """Natural pairing between the lattice and its dual: the dot product."""
    if len(weight) != len(coweight):
        raise DomainError("pairing of vectors with different lengths")
    return sum(a * b for a, b in zip(weight, coweight))


@lru_cache(maxsize=1024)
def cartan_matrix(rd: RootDatum) -> tuple[tuple[int, ...], ...]:
    """A[i][j] = <simple_roots[j], simple_coroots[i]>."""
    return tuple(
        tuple(pairing(alpha, cov) for alpha in rd.simple_roots)
        for cov in rd.simple_coroots
    )


def cartan_type(rd: RootDatum) -> str:
    """Finite-type label, e.g. 'A2', 'A1 x B2', 'torus', read off the root
    saturation of ``cartan_tables``.  Raises InvalidDatumError otherwise."""
    return cartan_tables(cartan_matrix(rd)).name


def validate_datum(rd: RootDatum) -> None:
    """Check every RootDatum invariant; raises InvalidDatumError on the first
    violation (a Cartan matrix off the structural rules or not of finite
    type).  The check is ``cartan_type``: the Cartan matrix is the product of
    the coroot rows and the root columns, and a finite-type one is
    invertible, so both the simple roots and the simple coroots are
    linearly independent whenever it passes."""
    cartan_type(rd)


def is_dominant(rd: RootDatum, lam: Weight) -> bool:
    lam = _vector(rd, lam)
    return all(sum(map(mul, lam, cov)) >= 0 for cov in rd.simple_coroots)


def reflect(rd: RootDatum, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i acting on a weight."""
    try:
        i = index(i)
    except TypeError as exc:
        raise DomainError(f"Weyl letters must be integers, not {i!r}") from exc
    if not 0 <= i < rd.semisimple_rank:
        raise DomainError(f"Weyl letter {i} out of range")
    return _subtract_roots(rd, lam, [0] * i + [_labels(rd, lam)[i]])


def apply_word(rd: RootDatum, word: Sequence[int], lam: Weight) -> Weight:
    """Apply a Weyl word, rightmost letter first: word=(i, j) acts as s_i s_j."""
    v = tuple(lam)
    for letter in reversed(word):
        v = reflect(rd, letter, v)
    return v


def _fold_labels(cartan: Sequence[Sequence[int]], labels: Sequence[int]
                 ) -> tuple[list[int], list[int], WeylWord]:
    """Fold Dynkin labels into the dominant chamber.

    Reflects at the first negative label i by index until none is left: s_i
    sends label j to labels[j] - c * A[j][i] with c = labels[i], and moves
    the weight by -c alpha_i.  Returns the final labels, the coefficients c_i
    with folded weight = weight - sum(c_i alpha_i), and the word (rightmost
    letter applied first).
    """
    labels = list(labels)
    coeffs = [0] * len(labels)
    applied: list[int] = []
    while True:
        for i, c in enumerate(labels):
            if c < 0:
                break
        else:
            return labels, coeffs, tuple(reversed(applied))
        for j, row in enumerate(cartan):
            labels[j] -= c * row[i]
        coeffs[i] += c
        applied.append(i)


def _vector(rd: RootDatum, v: Sequence) -> tuple[int, ...]:
    """The entries of a weight of rd read with ``operator.index``.  Raises
    DomainError on a wrong length, which a datum without roots would never
    pair, or a non-integer entry, which would pass through the dot products
    as a float or a Fraction."""
    if len(v) != rd.rank:
        raise DomainError(f"weight {tuple(v)} does not have length {rd.rank}")
    try:
        return tuple(map(index, v))
    except TypeError as exc:
        raise DomainError(f"weight entries must be integers: {exc}") from exc


def _weight_cache(fn):
    """fn(rd, weight) behind an lru_cache keyed by the weight read through
    ``_vector``, so a float equal to an integer entry never finds that
    entry's result; ``cache_info`` and ``cache_clear`` stay on the name."""
    cached = lru_cache(maxsize=65536)(fn)

    @wraps(fn)
    def read(rd: RootDatum, lam: Sequence) -> tuple[Weight, ...]:
        return cached(rd, _vector(rd, lam))

    read.cache_info, read.cache_clear = cached.cache_info, cached.cache_clear
    return read


def _count(value, name: str) -> int:
    """A bound or exponent read with ``operator.index``; raises DomainError
    on a non-integer, which would otherwise pass or raise a bare TypeError."""
    try:
        return index(value)
    except TypeError as exc:
        raise DomainError(f"{name} = {value!r}: counts must be integers") from exc


def _labels(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """The Dynkin labels of a weight: its pairings with the simple coroots."""
    lam = _vector(rd, lam)
    return tuple(sum(map(mul, lam, cov)) for cov in rd.simple_coroots)


def _dominant_labels(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """The labels of a dominant weight; raises DomainError on any other."""
    labels = _labels(rd, lam)
    if min(labels, default=0) < 0:
        raise DomainError(f"weight {lam} is not dominant")
    return labels


def dominant_representative(rd: RootDatum, lam: Weight) -> tuple[Weight, WeylWord]:
    """The dominant W-orbit representative and a word carrying lam onto it.

    The fold runs on Dynkin labels (one pairing per simple coroot, then one
    Cartan column per reflection) and always reflects at the smallest
    violating index, so the word is deterministic.  apply_word(rd, word, lam)
    equals the returned weight.
    """
    cartan = cartan_matrix(rd)
    cartan_tables(cartan)  # raises off finite type, where the fold need not end
    _, coeffs, word = _fold_labels(cartan, _labels(rd, lam))
    return _subtract_roots(rd, lam, coeffs), word


def _subtract_roots(rd: RootDatum, v: Sequence[int], coeffs: Sequence[int]) -> Weight:
    """v - sum(c_i alpha_i) over the simple roots."""
    out = list(v)
    for c, alpha in zip(coeffs, rd.simple_roots):
        if c:
            for k, a in enumerate(alpha):
                out[k] -= c * a
    return tuple(out)


@_weight_cache
def weyl_orbit(rd: RootDatum, lam: Weight) -> tuple[Weight, ...]:
    """The W-orbit of a weight, sorted for determinism, walked on labels from
    the fold of lam, whose depth relative to lam is the fold's coefficients."""
    cartan = cartan_matrix(rd)
    cartan_tables(cartan)  # raises off finite type, where the orbit need not be finite
    labels, coeffs, _ = _fold_labels(cartan, _labels(rd, lam))
    orbit = _label_orbit(cartan, tuple(labels), tuple(coeffs))
    return tuple(sorted(_subtract_roots(rd, lam, depth) for depth in orbit.values()))


def _label_orbit(cartan: Sequence[Sequence[int]], labels: tuple[int, ...], depth: tuple[int, ...]
                 ) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The W-orbit of a weight with the given labels and depth d below some
    base, as a map from labels (which fix a weight of the orbit) to depth in
    breadth-first order: s_i subtracts label i times column i of the Cartan
    matrix and deepens the weight by label i at i."""
    orbit = {labels: depth}
    frontier = [labels]
    while frontier:
        nxt = []
        for v in frontier:
            for i, c in enumerate(v):
                if c:
                    w = tuple(x - c * row[i] for x, row in zip(v, cartan))
                    if w not in orbit:
                        d = orbit[v]
                        orbit[w] = d[:i] + (d[i] + c,) + d[i + 1:]
                        nxt.append(w)
        frontier = nxt
    return orbit


def weyl_group_order(rd: RootDatum) -> int:
    """|W|, computed as the orbit size of the strictly dominant weight 2rho."""
    reg = two_rho(rd)
    # 2rho pairs to 2 with every simple coroot, hence has trivial stabilizer
    return len(weyl_orbit(rd, reg))


def _root_span_coordinates(rd: RootDatum, v: Sequence[int]) -> tuple[list[int], int] | None:
    """The simple-root coordinates of v scaled by their denominator (its
    pairings with ``DatumTables.span_rows``), with that denominator, or None
    if v is outside the roots' rational span (a nonzero pairing with an
    ``off_span_rows`` row)."""
    v = _vector(rd, v)
    tables = datum_tables(rd)
    if any(sum(map(mul, row, v)) for row in tables.off_span_rows):
        return None
    return [sum(map(mul, row, v)) for row in tables.span_rows], tables.denominator


def root_coefficients(rd: RootDatum, v: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Coordinates of v in the simple-root basis, or None if v is outside
    their rational span."""
    coords = _root_span_coordinates(rd, v)
    return None if coords is None else tuple(Fraction(n, coords[1]) for n in coords[0])


def leq_dominance(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """lam <= mu: mu - lam is a nonnegative *integer* combination of simple
    roots."""
    if len(lam) != len(mu):
        raise DomainError("leq_dominance of weights with different lengths")
    coords = _root_span_coordinates(rd, [m - l for l, m in zip(lam, mu)])
    return coords is not None and all(n >= 0 and n % coords[1] == 0 for n in coords[0])


def preceq(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """lam ⪯ mu: mu - lam is a nonnegative *rational* combination of simple
    roots (the real-cone weakening of dominance order)."""
    if len(lam) != len(mu):
        raise DomainError("preceq of weights with different lengths")
    coords = _root_span_coordinates(rd, [m - l for l, m in zip(lam, mu)])
    return coords is not None and all(n >= 0 for n in coords[0])


def class_mod_root_lattice(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """Canonical representative of lam in X/Q, via Smith normal form of the
    simple-root lattice.  Two weights get equal tuples iff they differ by an
    integral root-lattice element."""
    tables = datum_tables(rd)
    lam = _vector(rd, lam)
    classes = (sum(map(mul, row, lam)) for row in tables.root_lattice_rows)
    return tuple(t % d if d else t for t, d in zip(classes, tables.root_lattice_divisors))


@dataclass(frozen=True)
class CartanTables:
    """The facts of one Cartan matrix, shared by every datum that has it,
    all read off the one root saturation of ``cartan_tables``.  ``roots``
    pairs each positive root's coefficients k in the simple roots with its
    coroot's coefficients n in the simple coroots, and ``root_labels[r]``
    holds root r's Dynkin labels A k.  ``form`` is the integer matrix G =
    sum over positive coroots of n n^T, so the W-invariant form B(x, y) =
    sum over positive coroots c of <x, c><y, c> is labels(x)^T G labels(y),
    and ``root_norms[r]`` is root r's (alpha, alpha).  ``inverse_rows[j]``
    holds the fundamental coweight w_j in the simple coroots, times
    ``denominator``: row j of G over (alpha_j, alpha_j)/2, as G A is diagonal.
    ``name`` is the Cartan type, e.g. 'A1 x A2', and ``order`` the canonical
    node order: A[order[i]][order[j]] is the same matrix for every numbering
    of the same diagram.

    ``symmetries`` generates Aut(A), the node permutations p with
    A[p[i]][p[j]] = A[i][j].  It holds one entry per class of components
    with equal blocks, leaving out a lone component with no automorphism:
    for each component of the class, the depth-first walks that read its
    block, the least first.  Sending the least walk of one component of a
    class, node by node, onto any walk of any other (or of the same)
    component fixes A, and Aut(A) is made of such moves, one per component,
    that permute the components of each class.  So its order is the product
    over the classes of w^m m!, for m components with w walks each."""

    roots: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    root_labels: tuple[tuple[int, ...], ...]
    form: tuple[tuple[int, ...], ...]
    root_norms: tuple[int, ...]
    inverse_rows: tuple[tuple[int, ...], ...]
    denominator: int
    name: str
    order: tuple[int, ...]
    symmetries: Symmetries


def _check_cartan(a: Sequence[Sequence[int]]) -> None:
    """The structural rules of a generalized Cartan matrix."""
    s = len(a)
    for i in range(s):
        if a[i][i] != 2:
            raise InvalidDatumError("Cartan diagonal != 2")
    for i in range(s):
        for j in range(s):
            if i != j:
                if a[i][j] > 0:
                    raise InvalidDatumError("positive off-diagonal Cartan entry")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise InvalidDatumError("asymmetric zero pattern in Cartan matrix")


def _type_name(components: Sequence[frozenset[int]], supports: Sequence[frozenset[int]],
               norms: Sequence[int]) -> str:
    """The Cartan type of a finite root system from its components, the
    supports of its positive roots and their norms.  A component of rank n
    with N positive roots is A_n when N = n(n+1)/2, D_n or E_n when simply
    laced (all norms equal), B2 or G2 in rank 2, F4 when N = 24 in rank 4,
    and otherwise B_n or C_n as it has n short positive roots or n(n-1)."""
    names = []
    for comp in components:
        lengths = [norm for support, norm in zip(supports, norms) if support <= comp]
        n, count = len(comp), len(lengths)
        short = lengths.count(min(lengths))
        if count == n * (n + 1) // 2:
            names.append(f"A{n}")
        elif short == count:
            names.append(f"D{n}" if count == n * (n - 1) else f"E{n}")
        elif n == 2:
            names.append("B2" if count == 4 else "G2")
        elif n == 4 and count == 24:
            names.append("F4")
        else:
            names.append(f"{'B' if short == n else 'C'}{n}")
    return " x ".join(sorted(names)) if names else "torus"


def _preorders(adjacent: Sequence[Sequence[int]], node: int, parent: int | None
               ) -> list[tuple[int, ...]]:
    """Every depth-first preorder of a tree from node, one per order of the
    children at each node."""
    children = [k for k in adjacent[node] if k != parent]
    return [(node,) + tuple(itertools.chain.from_iterable(walks))
            for kids in itertools.permutations(children)
            for walks in itertools.product(*(_preorders(adjacent, k, node) for k in kids))]


def _canonical_order(a: Sequence[Sequence[int]], components: Sequence[frozenset[int]]
                     ) -> tuple[tuple[int, ...], Symmetries]:
    """A node order whose P A P^T depends only on the diagram, not on how
    its nodes are numbered, and the ``symmetries`` of A.  A finite-type
    component is a tree, so its block is the least P A P^T over the
    depth-first walks from its leaves, as in the tree canonical forms of
    Aho, Hopcroft and Ullman (1974, section 3.2); the components follow in
    the order of their blocks.  Ties go to the least node order.  The walks
    that tie are the component's automorphisms applied to its least walk:
    an automorphism maps a walk from a leaf to one that reads the same
    block, and two walks that read the same block match nodes that A
    cannot tell apart."""
    adjacent = [[j for j in range(len(a)) if j != i and a[i][j]] for i in range(len(a))]
    blocks = []
    for comp in components:
        walks = sorted((tuple(tuple(a[i][j] for j in walk) for i in walk), walk)
                       for leaf in sorted(comp) if len(adjacent[leaf]) <= 1
                       for walk in _preorders(adjacent, leaf, None))
        blocks.append((walks[0][0], tuple(walk for block, walk in walks if block == walks[0][0])))
    blocks.sort()
    symmetries = []
    for _, group in itertools.groupby(blocks, key=lambda entry: entry[0]):
        ties = tuple(walks for _, walks in group)
        if len(ties) > 1 or len(ties[0]) > 1:
            symmetries.append(ties)
    return tuple(itertools.chain.from_iterable(walks[0] for _, walks in blocks)), tuple(symmetries)


@lru_cache(maxsize=1024)
def cartan_tables(a: tuple[tuple[int, ...], ...]) -> CartanTables:
    """Positive roots with coroots by orbit saturation in simple-root and
    simple-coroot coordinates, their labels and norms, the invariant form on
    labels, the inverse Cartan rows, the Cartan type, the canonical node
    order and the diagram symmetries; the last three read the components
    off the maximal root supports.  Raises InvalidDatumError when the matrix breaks the structural rules or
    is not of finite type; the saturation decides the latter, as the roots
    of any other type outgrow every finite one."""
    _check_cartan(a)
    s = len(a)
    # a simple component of rank n has at most max(n^2, 15n) positive roots
    # (n^2 for B_n and C_n, 120 = 15 * 8 for E8), so a finite-type matrix
    # never has more than 2(s^2 + 15s) roots; one of any other type has
    # infinitely many real roots, so its saturation never stops
    cap = 2 * (s * s + 15 * s)
    # s_i moves the root coefficients k by -<root, alpha_i^vee> = -(A k)_i
    # at i, and the coroot coefficients n by -<alpha_i, coroot> = -(A^T n)_i
    unit = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    seen = {(e, e) for e in unit}
    frontier = list(seen)
    while frontier:
        nxt = []
        for k, n in frontier:
            for i in range(s):
                c = sum(x * y for x, y in zip(a[i], k))
                d = sum(n[j] * a[j][i] for j in range(s))
                pair = (k[:i] + (k[i] - c,) + k[i + 1:], n[:i] + (n[i] - d,) + n[i + 1:])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        if len(seen) > cap:
            raise InvalidDatumError(f"not finite type: more than {cap} roots")
        frontier = nxt
    positive = sorted((k, n) for k, n in seen if min(k) >= 0)
    labels = [tuple(sum(x * y for x, y in zip(row, k)) for row in a) for k, _ in positive]
    form = tuple(tuple(sum(n[i] * n[j] for _, n in positive) for j in range(s)) for i in range(s))
    norms = tuple(sum(x * g * y for x, row in zip(lab, form) for g, y in zip(row, lab)) for lab in labels)
    # B(x, alpha_j) = (alpha_j, alpha_j)/2 <x, alpha_j^vee> gives G A = D =
    # diag(half), so A^-1 = D^-1 G: w_j = sum_k G[j][k] / half[j] alpha_k^vee
    half = [sum(a[k][j] * form[k][j] for k in range(s)) for j in range(s)]
    denominator = lcm(*(h // gcd(h, *row) for h, row in zip(half, form)))
    supports = [frozenset(i for i, c in enumerate(k) if c) for k, _ in positive]
    components = [comp for comp in set(supports) if not any(comp < other for other in supports)]
    order, symmetries = _canonical_order(a, components)
    return CartanTables(
        roots=tuple(positive),
        root_labels=tuple(labels),
        form=form,
        root_norms=norms,
        inverse_rows=tuple(tuple(g * denominator // h for g in row) for h, row in zip(half, form)),
        denominator=denominator,
        name=_type_name(components, supports, norms),
        order=order,
        symmetries=symmetries,
    )


def _box_points(box: Sequence[tuple[int, int]], cuts: Sequence[tuple[Sequence[int], int]]
                ) -> list[tuple[int, ...]]:
    """The integer points x of the box lo_k <= x_k <= hi_k with offset +
    <a, x> >= 0 for every cut (a, offset), in lexicographic order.  For each
    head of x in the box the cuts are linear in the last coordinate and
    leave it one integer interval; the empty box holds () if its cuts do."""
    if not box:
        return [()] if all(offset >= 0 for _, offset in cuts) else []
    *head_box, (first, last) = box
    points = []
    for head in itertools.product(*(range(lo, hi + 1) for lo, hi in head_box)):
        lo, hi = first, last
        for a, offset in cuts:
            p = offset + sum(x * y for x, y in zip(head, a))
            q = a[-1]
            if q > 0:
                lo = max(lo, -(p // q))
            elif q < 0:
                hi = min(hi, p // -q)
            elif p < 0:
                hi = lo - 1
                break
        points.extend(head + (x,) for x in range(lo, hi + 1))
    return points


def _dominant_depths(cartan: tuple[tuple[int, ...], ...], labels: Sequence[int]
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every dominant weight below a dominant weight mu with the given
    labels, as (depth d, labels) with weight mu - sum(d_i alpha_i).

    The depth box 0 <= d_j <= <mu, w_j> is provably complete: a dominant
    weight has nonnegative coefficients in the fundamental weights, that is
    in the rows of the inverse Cartan matrix, which are nonnegative for
    finite type.
    """
    tables = cartan_tables(cartan)
    box = [(0, sum(x * y for x, y in zip(row, labels)) // tables.denominator)
           for row in tables.inverse_rows]
    cuts = [(tuple(-x for x in row), l) for l, row in zip(labels, cartan)]
    return [(depth, tuple(l - sum(x * y for x, y in zip(row, depth)) for l, row in zip(labels, cartan)))
            for depth in _box_points(box, cuts)]


@dataclass(frozen=True)
class DatumTables:
    """The facts of one root datum that every layer reads, derived once from
    its Cartan tables.  ``root_lattice_rows`` and ``root_lattice_divisors``
    are u and the diagonal of d (0 past the semisimple rank) in the Smith
    form d = u A v of the simple roots.  ``canonical`` is the datum with its
    simple roots and coroots in the canonical node order of its Cartan
    matrix (the datum itself when that order is the identity): its labels
    are the canonical ones, and the label caches of ``semiring`` are keyed
    by its Cartan matrix.  ``span_rows`` (row i = sum_j inverse_rows[i][j]
    alpha_j^vee) pairs v to its simple-root coordinates times
    ``denominator``.  With R the simple roots as rows, K = denominator I -
    R^T span_rows vanishes exactly on the roots' rational span, and
    ``off_span_rows`` keeps its nonzero rows (none when the roots span the
    lattice, as for semisimple data).  ``weight_rows`` is R^T A^-1 times
    ``denominator`` in the canonical node order: the weight of top - Q whose
    canonical labels are top's minus gap is top - weight_rows gap /
    denominator, as A^-1 gap is its depth."""

    positive_roots_with_coroots: tuple[tuple[Weight, Weight], ...]
    two_rho: Weight
    two_rho_check: Weight
    root_lattice_rows: tuple[tuple[int, ...], ...]
    root_lattice_divisors: tuple[int, ...]
    canonical: RootDatum
    span_rows: tuple[tuple[int, ...], ...]
    off_span_rows: tuple[tuple[int, ...], ...]
    denominator: int
    weight_rows: tuple[tuple[int, ...], ...]


def _combination(rank: int, coeffs: Sequence[int], basis: Sequence[Weight]) -> Weight:
    """sum(c_i basis_i) as a vector of the given length."""
    return tuple(sum(c * b[p] for c, b in zip(coeffs, basis)) for p in range(rank))


@lru_cache(maxsize=1024)
def datum_tables(rd: RootDatum) -> DatumTables:
    """Positive roots and coroots as vectors (root sum k_i alpha_i, coroot
    sum n_i alpha_i^vee from the Cartan tables), 2rho, 2rho^vee and the
    Smith form of the root lattice, the datum in canonical node order, the
    integer map onto the roots' span and the map from canonical labels to
    weights.  Raises InvalidDatumError unless of finite type."""
    shared = cartan_tables(cartan_matrix(rd))
    positive = sorted((_combination(rd.rank, k, rd.simple_roots),
                       _combination(rd.rank, n, rd.simple_coroots)) for k, n in shared.roots)
    s = rd.semisimple_rank
    d, u, _ = smith_normal_form([[alpha[i] for alpha in rd.simple_roots] for i in range(rd.rank)])
    zero = (0,) * rd.rank
    order = shared.order
    canonical = rd if order == tuple(range(s)) else RootDatum(
        rd.rank, tuple(rd.simple_roots[i] for i in order), tuple(rd.simple_coroots[i] for i in order), rd.name)
    span = tuple(_combination(rd.rank, row, rd.simple_coroots) for row in shared.inverse_rows)
    off_span = (tuple(shared.denominator * (p == q) - x for q, x in
                      enumerate(_combination(rd.rank, [alpha[p] for alpha in rd.simple_roots], span)))
                for p in range(rd.rank))
    return DatumTables(
        positive_roots_with_coroots=tuple(positive),
        two_rho=tuple(map(sum, zip(zero, *(root for root, _ in positive)))),
        two_rho_check=tuple(map(sum, zip(zero, *(cov for _, cov in positive)))),
        root_lattice_rows=tuple(map(tuple, u)),
        root_lattice_divisors=tuple(d[i][i] if i < s else 0 for i in range(rd.rank)),
        canonical=canonical,
        span_rows=span,
        off_span_rows=tuple(row for row in off_span if any(row)),
        denominator=shared.denominator,
        # canonical node j is node order[j] of rd
        weight_rows=tuple(tuple(sum(alpha[p] * row[j] for alpha, row in zip(rd.simple_roots, shared.inverse_rows))
                                for j in order) for p in range(rd.rank)),
    )


def positive_roots_with_coroots(rd: RootDatum) -> tuple[tuple[Weight, Weight], ...]:
    """All positive roots paired with their coroots, sorted."""
    return datum_tables(rd).positive_roots_with_coroots


def positive_roots(rd: RootDatum) -> tuple[Weight, ...]:
    return tuple(root for root, _ in positive_roots_with_coroots(rd))


def two_rho(rd: RootDatum) -> Weight:
    """The sum of all positive roots (twice the Weyl vector, kept integral)."""
    return datum_tables(rd).two_rho


def coroot_height(rd: RootDatum, lam: Weight) -> int:
    """Pairing of lam with the sum of all positive coroots.  Nonnegative on
    dominant weights; the natural size measure for enumeration bounds.  On
    the root lattice it is twice the height, since <alpha_i, rho^vee> = 1."""
    return sum(map(mul, _vector(rd, lam), datum_tables(rd).two_rho_check))


def dominant_window(rd: RootDatum, bound: int) -> tuple[Weight, ...]:
    """Dominant weights with coordinates in [-bound, bound] and coroot height
    at most bound, in lexicographic order: the points of that box cut by
    <w, alpha_i^vee> >= 0 and bound - <w, 2rho^vee> >= 0."""
    bound = _count(bound, "bound")
    height = datum_tables(rd).two_rho_check
    cuts = [(cov, 0) for cov in rd.simple_coroots] + [(tuple(-h for h in height), bound)]
    return tuple(_box_points([(-bound, bound)] * rd.rank, cuts))


@_weight_cache
def dominant_below(rd: RootDatum, mu: Weight) -> tuple[Weight, ...]:
    """All dominant weights lam with lam <= mu, sorted.  mu must be dominant."""
    labels = _dominant_labels(rd, mu)
    return tuple(sorted(_subtract_roots(rd, mu, depth)
                        for depth, _ in _dominant_depths(cartan_matrix(rd), labels)))


def saturation_set(rd: RootDatum, mu: Weight) -> tuple[Weight, ...]:
    """All weights nu whose dominant representative is <= mu: the union of
    the W-orbits of the dominant weights below mu."""
    out: set[Weight] = set()
    for lam in dominant_below(rd, mu):
        out.update(weyl_orbit(rd, lam))
    return tuple(sorted(out))


def conv_hull_leq(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """Conv(W lam) ⊆ Conv(W mu), decided by one exact rational feasibility
    LP.  Conv(W mu) is W-stable, so it contains all of W lam as soon as it
    contains lam, and the LP asks only whether lam is a convex combination of
    the points of W mu.  Deliberately independent of preceq."""
    if not is_dominant(rd, lam) or not is_dominant(rd, mu):
        raise DomainError("conv_hull_leq needs dominant weights")
    hull_points = weyl_orbit(rd, mu)
    rows = [[p[i] for p in hull_points] for i in range(rd.rank)]
    rows.append([1] * len(hull_points))
    return lp_feasible_point(rows, list(lam) + [1]) is not None


def dual_root_datum(rd: RootDatum) -> RootDatum:
    """Swap roots with coroots.  An exact involution on the stored data."""
    return RootDatum(
        rank=rd.rank,
        simple_roots=rd.simple_coroots,
        simple_coroots=rd.simple_roots,
        name=None if rd.name is None else f"{rd.name}^",
    )


def datum_to_json(rd: RootDatum) -> str:
    doc = {
        "name": rd.name,
        "rank": rd.rank,
        "simple_roots": [list(v) for v in rd.simple_roots],
        "simple_coroots": [list(v) for v in rd.simple_coroots],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def datum_from_json(text: str) -> RootDatum:
    """Parse the root-datum file format; validates the datum."""
    try:
        doc = json.loads(text)
        rd = RootDatum(
            rank=json_value(doc["rank"], int),
            simple_roots=tuple(tuple(json_value(c, int) for c in v) for v in doc["simple_roots"]),
            simple_coroots=tuple(tuple(json_value(c, int) for c in v) for v in doc["simple_coroots"]),
            name=None if doc.get("name") is None else json_value(doc["name"], str),
        )
    except InvalidDatumError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed root datum file: {exc}") from exc
    validate_datum(rd)
    return rd
