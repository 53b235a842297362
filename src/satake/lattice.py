"""Root data, Weyl group combinatorics, and dominance orders, all in exact
integer/rational arithmetic.

Weights and coweights are plain integer tuples in a fixed lattice basis; a
coweight of one datum is a weight of its dual, so every operation here takes
the datum it should act through.  All functions are pure and safe for
concurrent use.

Root-system facts that depend only on the Cartan matrix (the positive roots
and coroots in simple-root and simple-coroot coordinates, their Dynkin
labels and norms, the invariant form on labels, the inverse Cartan rows and
the Cartan type) come from the one cached ``cartan_tables``, shared by every
datum with that matrix whatever its lattice basis.  Its root saturation also
decides finite type, since only a finite-type matrix has finitely many
roots, so it is the whole of ``validate_datum``.  Per-datum facts (positive
roots and coroots as vectors, 2rho, 2rho^vee, the Smith form of the root
lattice) come from the one cached ``datum_tables``, which derives its
vectors from the Cartan tables; simple-root coordinates and X/Q classes are
integer pairings with its rows.  Windows of dominant weights up to a
coroot-height bound come from ``dominant_window``, which solves the last
coordinate's integer interval for each head of the box instead of filtering
the box; the dominant weights below a dominant weight come from the depth
box of ``_dominant_depths``, which ``dominant_below`` and the weight
diagrams in ``semiring`` share.

Weights stay vectors at the API.  Internally the dominant chamber fold runs
on Dynkin labels (the pairings with the simple coroots, as in LiE and
Stembridge's "Computational aspects of root systems"): a weight is dominant
when all its labels are >= 0, and the reflection s_i subtracts labels[i]
times column i of the Cartan matrix.  ``dominant_representative`` and the
Freudenthal recursion and Klimyk product in ``semiring`` share that fold.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import DomainError, InvalidDatumError, ParseError, json_value
from .linalg import lp_feasible_point, smith_normal_form, solve_rational

Weight = tuple[int, ...]
WeylWord = tuple[int, ...]


@dataclass(frozen=True)
class RootDatum:
    """A based root datum: ambient lattice rank plus simple roots/coroots.

    The full root and coroot systems are derived, never stored.  ``name`` is
    a display label and does not participate in equality.
    """

    rank: int
    simple_roots: tuple[Weight, ...]
    simple_coroots: tuple[Weight, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InvalidDatumError("rank must be nonnegative")
        object.__setattr__(self, "simple_roots", tuple(tuple(int(c) for c in v) for v in self.simple_roots))
        object.__setattr__(self, "simple_coroots", tuple(tuple(int(c) for c in v) for v in self.simple_coroots))
        if len(self.simple_roots) != len(self.simple_coroots):
            raise InvalidDatumError("simple roots and coroots must pair up")
        for v in self.simple_roots + self.simple_coroots:
            if len(v) != self.rank:
                raise InvalidDatumError("root/coroot length does not match rank")

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
    return all(pairing(lam, cov) >= 0 for cov in rd.simple_coroots)


def reflect(rd: RootDatum, i: int, lam: Weight) -> Weight:
    """Simple reflection s_i acting on a weight."""
    c = pairing(lam, rd.simple_coroots[i])
    alpha = rd.simple_roots[i]
    return tuple(x - c * a for x, a in zip(lam, alpha))


def apply_word(rd: RootDatum, word: Sequence[int], lam: Weight) -> Weight:
    """Apply a Weyl word, rightmost letter first: word=(i, j) acts as s_i s_j."""
    v = tuple(lam)
    for letter in reversed(word):
        if not 0 <= letter < rd.semisimple_rank:
            raise DomainError(f"Weyl letter {letter} out of range")
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


def _labels(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """The Dynkin labels of a weight: its pairings with the simple coroots.
    Raises DomainError on a weight of the wrong length, which a datum
    without roots would otherwise never pair."""
    if len(lam) != rd.rank:
        raise DomainError(f"weight {lam} does not have length {rd.rank}")
    return tuple(pairing(lam, cov) for cov in rd.simple_coroots)


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
    _, coeffs, word = _fold_labels(cartan_matrix(rd), _labels(rd, lam))
    return _subtract_roots(rd, lam, coeffs), word


def _subtract_roots(rd: RootDatum, v: Sequence[int], coeffs: Sequence[int]) -> Weight:
    """v - sum(c_i alpha_i) over the simple roots."""
    out = list(v)
    for c, alpha in zip(coeffs, rd.simple_roots):
        if c:
            for k, a in enumerate(alpha):
                out[k] -= c * a
    return tuple(out)


@lru_cache(maxsize=65536)
def weyl_orbit(rd: RootDatum, lam: Weight) -> tuple[Weight, ...]:
    """The W-orbit of a weight, sorted for determinism."""
    seen = {tuple(lam)}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rd.semisimple_rank):
                w = reflect(rd, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(sorted(seen))


def weyl_group_order(rd: RootDatum) -> int:
    """|W|, computed as the orbit size of the strictly dominant weight 2rho."""
    reg = two_rho(rd)
    # 2rho pairs to 2 with every simple coroot, hence has trivial stabilizer
    return len(weyl_orbit(rd, reg))


def _root_span_coordinates(rd: RootDatum, v: Sequence[int]) -> tuple[list[int], int] | None:
    """The simple-root coordinates of v scaled by the tables' denominator,
    with that denominator, or None if v is outside the roots' rational
    span."""
    tables = datum_tables(rd)
    scaled = _scaled_root_coordinates(rd, tables.fundamental_coweights, v)
    for i, x in enumerate(v):
        if sum(n * alpha[i] for n, alpha in zip(scaled, rd.simple_roots)) != tables.denominator * x:
            return None
    return scaled, tables.denominator


def root_coefficients(rd: RootDatum, v: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Coordinates of v in the simple-root basis, or None if v is outside
    their rational span."""
    coords = _root_span_coordinates(rd, v)
    return None if coords is None else tuple(Fraction(n, coords[1]) for n in coords[0])


def leq_dominance(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """lam <= mu: mu - lam is a nonnegative *integer* combination of simple
    roots."""
    coords = _root_span_coordinates(rd, [m - l for l, m in zip(lam, mu)])
    return coords is not None and all(n >= 0 and n % coords[1] == 0 for n in coords[0])


def preceq(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """lam ⪯ mu: mu - lam is a nonnegative *rational* combination of simple
    roots (the real-cone weakening of dominance order)."""
    coords = _root_span_coordinates(rd, [m - l for l, m in zip(lam, mu)])
    return coords is not None and all(n >= 0 for n in coords[0])


def class_mod_root_lattice(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """Canonical representative of lam in X/Q, via Smith normal form of the
    simple-root lattice.  Two weights get equal tuples iff they differ by an
    integral root-lattice element."""
    tables = datum_tables(rd)
    classes = (pairing(row, lam) for row in tables.root_lattice_rows)
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
    holds the coefficients of the fundamental coweight w_j in the simple
    coroots times ``denominator``: the rows of the inverse Cartan matrix,
    kept integral.  ``name`` is the Cartan type, e.g. 'A1 x A2'."""

    roots: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    root_labels: tuple[tuple[int, ...], ...]
    form: tuple[tuple[int, ...], ...]
    root_norms: tuple[int, ...]
    inverse_rows: tuple[tuple[int, ...], ...]
    denominator: int
    name: str


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


def _type_name(roots: Sequence[tuple[tuple[int, ...], tuple[int, ...]]], norms: Sequence[int]) -> str:
    """The Cartan type of a finite root system from its positive roots and
    their norms.  The simple components are the maximal root supports; one
    of rank n with N positive roots is A_n when N = n(n+1)/2, D_n or E_n
    when simply laced (all norms equal), B2 or G2 in rank 2, F4 when N = 24
    in rank 4, and otherwise B_n or C_n as it has n short positive roots or
    n(n-1)."""
    supports = [frozenset(i for i, c in enumerate(k) if c) for k, _ in roots]
    names = []
    for comp in set(supports):
        if any(comp < other for other in supports):
            continue
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


@lru_cache(maxsize=1024)
def cartan_tables(a: tuple[tuple[int, ...], ...]) -> CartanTables:
    """Positive roots with coroots by orbit saturation in simple-root and
    simple-coroot coordinates, their labels and norms, the invariant form on
    labels, the inverse Cartan rows and the Cartan type.  Raises
    InvalidDatumError when the matrix breaks the structural rules or is not
    of finite type; the saturation decides the latter, as the roots of any
    other type outgrow every finite one."""
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
    # w_j = sum_k m_k alpha_k^vee solves sum_k m_k A[k][i] = delta_ij; a
    # finite-type A is invertible and the m_k are nonnegative
    inverse = [solve_rational(a, [int(i == j) for i in range(s)]) for j in range(s)]
    assert all(row is not None and all(c >= 0 for c in row) for row in inverse), \
        "inverse Cartan must be nonnegative"
    denominator = lcm(*(c.denominator for row in inverse for c in row))
    return CartanTables(
        roots=tuple(positive),
        root_labels=tuple(labels),
        form=form,
        root_norms=norms,
        inverse_rows=tuple(tuple(int(c * denominator) for c in row) for row in inverse),
        denominator=denominator,
        name=_type_name(positive, norms),
    )


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
    bounds = [sum(x * y for x, y in zip(row, labels)) // tables.denominator
              for row in tables.inverse_rows]
    found = []
    for depth in itertools.product(*(range(b + 1) for b in bounds)):
        below = tuple(l - sum(x * y for x, y in zip(row, depth)) for l, row in zip(labels, cartan))
        if min(below, default=0) >= 0:
            found.append((depth, below))
    return found


@dataclass(frozen=True)
class DatumTables:
    """The facts of one root datum that every layer reads, derived once from
    its Cartan tables.  ``fundamental_coweights`` and ``denominator`` are
    the Cartan tables' inverse rows and denominator.  ``root_lattice_rows``
    and ``root_lattice_divisors`` are u and the diagonal of d (0 past the
    semisimple rank) in the Smith form d = u A v of the simple roots."""

    positive_roots_with_coroots: tuple[tuple[Weight, Weight], ...]
    two_rho: Weight
    two_rho_check: Weight
    fundamental_coweights: tuple[tuple[int, ...], ...]
    denominator: int
    root_lattice_rows: tuple[tuple[int, ...], ...]
    root_lattice_divisors: tuple[int, ...]


def _scaled_root_coordinates(rd: RootDatum, rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """Denominator times the simple-root coordinates of v's projection onto
    the root span: v's pairings with the simple coroots, paired with rows."""
    labels = [pairing(v, cov) for cov in rd.simple_coroots]
    return [pairing(row, labels) for row in rows]


def _combination(rank: int, coeffs: Sequence[int], basis: Sequence[Weight]) -> Weight:
    """sum(c_i basis_i) as a vector of the given length."""
    return tuple(sum(c * b[p] for c, b in zip(coeffs, basis)) for p in range(rank))


@lru_cache(maxsize=1024)
def datum_tables(rd: RootDatum) -> DatumTables:
    """Positive roots and coroots as vectors (root sum k_i alpha_i, coroot
    sum n_i alpha_i^vee from the Cartan tables), 2rho, 2rho^vee, the inverse
    Cartan rows and the Smith form of the root lattice.  Raises
    InvalidDatumError unless of finite type."""
    shared = cartan_tables(cartan_matrix(rd))
    positive = sorted((_combination(rd.rank, k, rd.simple_roots),
                       _combination(rd.rank, n, rd.simple_coroots)) for k, n in shared.roots)
    s = rd.semisimple_rank
    d, u, _ = smith_normal_form([[alpha[i] for alpha in rd.simple_roots] for i in range(rd.rank)])
    zero = (0,) * rd.rank
    return DatumTables(
        positive_roots_with_coroots=tuple(positive),
        two_rho=tuple(map(sum, zip(zero, *(root for root, _ in positive)))),
        two_rho_check=tuple(map(sum, zip(zero, *(cov for _, cov in positive)))),
        fundamental_coweights=shared.inverse_rows,
        denominator=shared.denominator,
        root_lattice_rows=tuple(map(tuple, u)),
        root_lattice_divisors=tuple(d[i][i] if i < s else 0 for i in range(rd.rank)),
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
    return pairing(lam, datum_tables(rd).two_rho_check)


def dominant_window(rd: RootDatum, bound: int) -> tuple[Weight, ...]:
    """Dominant weights with coordinates in [-bound, bound] and coroot height
    at most bound, in lexicographic order.

    Enumerated directly: for each head in the box over the first rank - 1
    coordinates, every constraint <w, alpha_i^vee> >= 0, <w, 2rho^vee> <=
    bound is linear in the last coordinate x, so together with |x| <= bound
    they cut out one integer interval for x.
    """
    if bound < 0:
        return ()
    if rd.rank == 0:
        return ((),)
    # each (a, offset) requires offset + <head, a[:-1]> + a[-1] * x >= 0 of
    # the last coordinate x: the simple coroots, then bound - <w, 2rho^vee>
    height = datum_tables(rd).two_rho_check
    functionals = [(cov, 0) for cov in rd.simple_coroots]
    functionals.append((tuple(-h for h in height), bound))
    window = []
    for head in itertools.product(range(-bound, bound + 1), repeat=rd.rank - 1):
        lo, hi = -bound, bound
        for a, offset in functionals:
            p = offset + sum(x * y for x, y in zip(head, a))
            q = a[-1]
            if q > 0:
                lo = max(lo, -(p // q))
            elif q < 0:
                hi = min(hi, p // -q)
            elif p < 0:
                hi = lo - 1
                break
        window.extend(head + (x,) for x in range(lo, hi + 1))
    return tuple(window)


@lru_cache(maxsize=65536)
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
    """Conv(W lam) ⊆ Conv(W mu), decided point-by-point with exact rational
    linear feasibility.  Deliberately independent of preceq."""
    if not is_dominant(rd, lam) or not is_dominant(rd, mu):
        raise DomainError("conv_hull_leq needs dominant weights")
    hull_points = weyl_orbit(rd, mu)
    n = len(hull_points)
    for v in weyl_orbit(rd, lam):
        rows = [[hull_points[j][i] for j in range(n)] for i in range(rd.rank)]
        rows.append([1] * n)
        rhs = list(v) + [1]
        if lp_feasible_point(rows, rhs) is None:
            return False
    return True


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
            name=doc.get("name"),
        )
    except InvalidDatumError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed root datum file: {exc}") from exc
    validate_datum(rd)
    return rd
