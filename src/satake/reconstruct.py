"""Reconstruction of a based root datum from an anonymized, truncated
Grothendieck semiring, and the based-isomorphism checker that closes the
round trip.

Truncation semantics: every universally quantified comparison is evaluated
three-valued (True / False / None-for-inconclusive).  A False needs a fully
expandable counterexample; a True needs a witness that passes every
checkable exponent; anything the window cannot settle stays None and is
never silently resolved.  The grade and suppression rules that turn order
evidence into a verdict live in ``_verdict`` alone, so windowed artifacts
degrade to None instead of to wrong verdicts.
"""
from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter, or_
from types import MappingProxyType

from .errors import DomainError, InconclusiveError, InconsistencyError, InvalidDatumError, ParseError, json_value
from .lattice import (
    RootDatum,
    Weight,
    _count,
    cartan_matrix,
    dominant_window,
    is_dominant,
    pairing,
    validate_datum,
)
from .linalg import (
    det_int,
    integer_solutions,
    lp_feasible_point,
    mat_vec,
    smith_normal_form,
)
from .semiring import product_table

Verdict = bool | None
Support = tuple[int, bool]  # id bitmask (bit i is ids[i]), fully-expanded flag
ProductEntry = tuple[tuple[tuple[str, int], ...], bool]  # sorted (id, multiplicity) terms, complete


@dataclass(frozen=True)
class ReconstructionConfig:
    """Bounds for the universally quantified comparisons: ``k_max`` caps
    the tensor-power exponent."""

    k_max: int = 4

    def __post_init__(self) -> None:
        if _count(self.k_max, "k_max") < 2:
            raise DomainError("k_max must be at least 2")


class AbstractSemiring:
    """An anonymized semiring window: opaque ids, a unit, and a partial
    product table.  ``complete=False`` marks products whose constituents may
    fall outside the id window.

    Order evidence reads only which ids occur in a product, never with what
    multiplicity, so it works on supports.  A support is one int: bit i
    marks ``ids[i]``, and the open bit n = len(ids) marks a product that is
    not fully expanded.  Every dump multiplicity is at least 1, so the
    support of a product of sums is the OR of the supports of its term
    products, and the OR also carries the open bit.  The rows hold the
    support of every pairwise product (a product missing from the dump is
    empty and open), built in one pass over the table on the first support
    query; an extra all-open row n lets an open support pass its bit on.
    The column of (b, k) holds the support of b^k * u for every witness u,
    the OR of the rows of the ids in supp(b^k), built once and shared by
    every ``evidence(a, b, ...)``.

    Every stage reads a product as its ``product_table`` entry; ``product``
    returns a dict copy.  Entries share one tuple per distinct (id,
    multiplicity) term.  The row, power, column and evidence caches are
    owned by this class, filled lazily, and only ever grow; entries are
    immutable once written.
    """

    def __init__(self, ids, unit: str, products) -> None:
        self.ids: tuple[str, ...] = tuple(sorted(set(ids)))
        self.id_set = frozenset(self.ids)
        self.unit = unit
        if unit not in self.id_set:
            raise ParseError("semiring unit is not among the ids")
        self._products: dict[tuple[str, str], ProductEntry] = {}
        id_set = self.id_set
        # one tuple per distinct (id, multiplicity) term, shared by every entry
        term = {}.setdefault
        for ab, (terms, complete) in products.items():
            a, b = ab
            if a not in id_set or b not in id_set:
                raise ParseError(f"product ({a},{b}) names an id outside the id set")
            key = ab if a <= b else (b, a)
            if not id_set.issuperset(terms) or min(terms.values(), default=1) < 1:
                raise ParseError(f"product ({a},{b}) has terms outside the id set")
            entry = (tuple([term(t, t) for t in sorted(terms.items())]), bool(complete))
            prior = self._products.setdefault(key, entry)
            if prior is not entry and prior != entry:
                raise ParseError(f"conflicting product entries for ({a},{b})")
        for a in self.ids:
            entry = self._products.get((a, unit) if a <= unit else (unit, a))
            if entry is None or entry[0] != ((a, 1),) or not entry[1]:
                raise ParseError(f"unit product for {a} is missing or wrong")
        self._products = dict(sorted(self._products.items()))
        self._index = {x: i for i, x in enumerate(self.ids)}
        self._open = 1 << len(self.ids)
        self._rows: list[list[int]] | None = None
        self._powers: dict[tuple[str, int], int] = {}
        self._columns: dict[tuple[str, int], list[int]] = {}
        self._evidence: dict[tuple[str, str, int], tuple[Verdict, int]] = {}

    @property
    def product_table(self) -> Mapping[tuple[str, str], ProductEntry]:
        """Read-only view of the canonical entries in key order: (a, b) with
        a <= b maps to the sorted (id, multiplicity) terms and the
        completeness flag."""
        return MappingProxyType(self._products)

    def product(self, a: str, b: str) -> tuple[dict[str, int], bool]:
        terms, complete = self._products.get((a, b) if a <= b else (b, a), ((), False))
        return dict(terms), complete

    def _support_rows(self) -> list[list[int]]:
        """rows[i][j] is the support of ids[i] * ids[j]; row n is all open."""
        rows = self._rows
        if rows is None:
            index = self._index
            bit = {x: 1 << i for x, i in index.items()}.__getitem__
            term_id = itemgetter(0)
            rows = [[self._open] * len(self.ids) for _ in range(len(self.ids) + 1)]
            for (a, b), (terms, complete) in self._products.items():
                support = sum(map(bit, map(term_id, terms))) | (0 if complete else self._open)
                i, j = index[a], index[b]
                rows[i][j] = rows[j][i] = support
            self._rows = rows
        return rows

    def _power(self, a: str, k: int) -> int:
        """The support of a^k for k >= 1."""
        key = (a, k)
        support = self._powers.get(key)
        if support is None:
            j = self._index[a]
            if k == 1:
                support = 1 << j
            else:
                rows = self._support_rows()
                support = 0
                for i in _bits(self._power(a, k - 1)):
                    support |= rows[i][j]
            self._powers[key] = support
        return support

    def _column(self, b: str, k: int) -> list[int]:
        """The supports of b^k * ids[j] for every j."""
        key = (b, k)
        column = self._columns.get(key)
        if column is None:
            rows = self._support_rows()
            positions = _bits(self._power(b, k))
            first = next(positions, None)
            column = [0] * len(self.ids) if first is None else rows[first]
            for i in positions:
                column = list(map(or_, column, rows[i]))
            self._columns[key] = column
        return column

    def power(self, a: str, k: int) -> Support:
        """The support of a^k as (id bitmask, fully expanded); a^0 is the unit."""
        if k < 1:
            return 1 << self._index[self.unit], True
        support = self._power(a, k)
        return support & ~self._open, not support & self._open

    def evidence(self, a: str, b: str, k_max: int) -> tuple[Verdict, int]:
        """One-directional evidence for a ⪯ b up to exponent k_max.

        Returns (verdict, n) where n counts the fully expandable exponents
        of a.  True: some witness u contains every power's constituents,
        found explicitly.  False: every candidate witness fails on complete
        data.  None: the window settles neither.  Containment is a test on
        supports: the support of a^k must lie inside the support of
        b^k * u, read off the column of (b, k).
        """
        key = (a, b, k_max)
        cached = self._evidence.get(key)
        if cached is not None:
            return cached
        if a not in self.id_set or b not in self.id_set:
            raise DomainError("evidence needs ids from the semiring")
        open_bit = self._open
        checks: list[tuple[int, list[int]]] = []  # per checkable exponent k: a^k, column of (b, k)
        for k in range(1, k_max + 1):
            need = self._power(a, k)
            if not need & open_bit:
                checks.append((need, self._column(b, k)))
        clipped = len(checks) < k_max
        verdict: Verdict = False
        for j, u in enumerate(self.ids):
            failed = False
            unknown = False
            for need, column in checks:
                support = column[j]
                if need & support != need:
                    if not support & open_bit:
                        failed = True
                        break
                    unknown = True
            if failed:
                continue
            # when the window clips the checkable exponents, only small
            # witnesses (powers expandable up to k_max) certify a True: a
            # window-sized u makes many pairs look comparable at the few
            # exponents that remain visible
            if unknown or (clipped and self._power(u, k_max) & open_bit):
                verdict = None
                continue
            verdict = True
            break
        # a single checkable exponent cannot separate the two sides of a
        # pair, so strength-1 positives stay inconclusive
        if verdict and len(checks) < 2:
            verdict = None
        result = (verdict, len(checks))
        self._evidence[key] = result
        return result


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dump_semiring(rd: RootDatum, height_bound: int, seed: int) -> tuple[AbstractSemiring, dict[str, Weight]]:
    """Forward direction: anonymize the dominant weights of a datum up to a
    height-and-coordinate bound, with all pairwise tensor products.

    Tokens come from a seeded pseudorandom shuffle, so identical inputs give
    identical dumps and different seeds give differently labeled ones.
    """
    if _count(height_bound, "height bound") < 0:
        raise DomainError("height bound must be nonnegative")
    window = dominant_window(rd, height_bound)
    tokens = [f"x{i:03d}" for i in range(len(window))]
    random.Random(seed).shuffle(tokens)
    label = dict(zip(window, tokens))
    products = {}
    for (i, j), (found, count, _) in product_table(rd, window).items():
        products[(tokens[i], tokens[j])] = ({tokens[k]: m for k, m in found}, len(found) == count)
    semiring = AbstractSemiring(ids=tokens, unit=label[(0,) * rd.rank], products=products)
    return semiring, {token: w for w, token in label.items()}


def _verdict(sr: AbstractSemiring, cfg: ReconstructionConfig,
             a: str, b: str, grade: int) -> Verdict:
    """a ⪯ b at a certification grade, the one reader of evidence strength:
    True when the evidence for a ⪯ b is True with strength >= ``grade`` and no
    True for b ⪯ a of at least that strength suppresses it, False when that
    evidence is False, None otherwise."""
    verdict, strength = sr.evidence(a, b, cfg.k_max)
    if verdict is not True:
        return verdict
    if strength < grade:
        return None
    back, back_strength = sr.evidence(b, a, cfg.k_max)
    return None if back and back_strength >= strength else True


def recover_preceq(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str) -> Verdict:
    """Three-valued a ⪯ b on ids: search a witness u whose products contain
    the constituents of every power of a up to k_max.

    This is ``_verdict`` at grade k_max: a True demands that every exponent
    up to k_max was fully checkable, since a window can make non-comparable
    pairs look comparable at the few exponents it leaves visible.
    """
    if a not in sr.id_set or b not in sr.id_set:
        raise DomainError("recover_preceq needs ids from the semiring")
    return True if a == b else _verdict(sr, cfg, a, b, cfg.k_max)


def _certified_sum(sr: AbstractSemiring, cfg: ReconstructionConfig,
                   a: str, b: str, min_grade: int) -> str:
    """recover_sum with a certification grade: each other constituent drops
    out at its first ``_verdict`` True at ``min_grade``.  Verdicts are asked
    only when read: the scan stops at a second survivor, and the contradiction
    check reads only the verdicts into the one survivor."""
    terms, complete = sr.product_table.get((a, b) if a <= b else (b, a), (None, False))
    if terms is None:
        raise InconclusiveError(f"product ({a},{b}) is not in the dump")
    if not complete:
        raise InconclusiveError(f"incomplete product ({a},{b})")
    names = [t for t, _ in terms]
    if len(names) == 1:
        return names[0]
    survivors = (s for s in names
                 if not any(_verdict(sr, cfg, s, t, min_grade) for t in names if t != s))
    top = next(survivors, None)
    if top is None:
        raise InconsistencyError(f"no maximal constituent left in ({a},{b})")
    if next(survivors, None) is not None:
        raise InconclusiveError(f"ambiguous maximum in product ({a},{b})")
    if any(_verdict(sr, cfg, s, top, min_grade) is False for s in names if s != top):
        raise InconsistencyError(f"constituent order of ({a},{b}) contradicts a unique maximum")
    return top


def recover_sum(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str) -> str:
    """The id of the maximal constituent of v_a * v_b: the monoid sum a + b.

    Requires the product to be complete, and certifies the maximum at the
    most conservative grade (every elimination backed by fully checked
    order evidence).  Raises InconclusiveError when the window cannot
    certify a unique maximum, InconsistencyError when complete data
    contradicts having one.
    """
    if a not in sr.id_set or b not in sr.id_set:
        raise DomainError("recover_sum needs ids from the semiring")
    return _certified_sum(sr, cfg, a, b, min_grade=cfg.k_max)


@dataclass(frozen=True)
class MonoidRecovery:
    """Group completion of the certified part of the id monoid: the
    embedding of every id it labels (the unit at 0) into Z^rank and the
    relations a + b = c behind it."""

    embedding: dict[str, tuple[int, ...]]
    rank: int
    relations: tuple[tuple[str, str, str], ...]


def recover_monoid(sr: AbstractSemiring, cfg: ReconstructionConfig,
                   min_grade: int) -> MonoidRecovery:
    """Group-complete the id monoid in two stages.

    Seed stage: certify sums among the small (twice-expandable) ids through
    the order evidence, each elimination backed by a ``_verdict`` True at
    ``min_grade``, and present the group completion of
    those relations by Smith normal form.  A sum the window leaves
    ambiguous is left to the bootstrap stage.  Character lattices are
    torsion-free, so torsion here signals corrupted input.

    Bootstrap stage: a complete product of two labeled ids has its maximal
    constituent at the sum of the labels.  When a labeled term carries that
    sum it is the maximum; when no label matches and exactly one term is
    unlabeled, that term must be the maximum and inherits the label.  Iterate
    to a fixed point; this extends the embedding across the window without
    any further order queries.  The relations keep the order in which they
    were first found.
    """
    small = [x for x in sr.ids if x != sr.unit and sr.power(x, 2)[1]]
    small_set = set(small) | {sr.unit}
    relations: dict[tuple[str, str, str], None] = {}
    for i, a in enumerate(small):
        for b in small[i:]:
            if not sr.product_table.get((a, b), (None, False))[1]:
                continue
            try:
                c = _certified_sum(sr, cfg, a, b, min_grade=min_grade)
            except InconclusiveError:
                continue
            if c not in small_set:
                # a sum landing outside the twice-expandable range would
                # enter the lattice presentation underdetermined; leave it
                # for the bootstrap stage instead
                continue
            relations[(a, b, c)] = None
    if not relations:
        raise InconclusiveError("no certified sums: dump too small to complete the monoid")
    related = sorted({x for rel in relations for x in rel if x != sr.unit})
    index = {x: i for i, x in enumerate(related)}
    m = len(related)
    matrix = [[0] * len(relations) for _ in range(m)]
    for col, (a, b, c) in enumerate(relations):
        matrix[index[a]][col] += 1
        matrix[index[b]][col] += 1
        if c != sr.unit:
            matrix[index[c]][col] -= 1
    d, u, _ = smith_normal_form(matrix)
    snf_rank = sum(1 for i in range(min(m, len(relations))) if d[i][i] != 0)
    for i in range(snf_rank):
        if d[i][i] != 1:
            raise InconsistencyError("torsion in completion: corrupted semiring")
    free_rows = list(range(snf_rank, m))
    rank = len(free_rows)
    embedding: dict[str, tuple[int, ...]] = {sr.unit: (0,) * rank}
    for x in related:
        j = index[x]
        embedding[x] = tuple(u[i][j] for i in free_rows)
    # the free rows of u annihilate the relation matrix, so the embedding
    # satisfies every relation exactly
    rev = {v: x for x, v in embedding.items()}
    if len(rev) != len(embedding):
        raise InconsistencyError("seed embedding is not injective")
    changed = True
    while changed:
        changed = False
        for (a, b), (terms, complete) in sr.product_table.items():
            if not complete or sr.unit in (a, b) or a not in embedding or b not in embedding:
                continue
            target = tuple(p + q for p, q in zip(embedding[a], embedding[b]))
            match = rev.get(target)
            if match is not None:
                if all(t != match for t, _ in terms):
                    raise InconsistencyError(
                        f"maximal constituent of ({a},{b}) is missing from the dump")
                relations[(a, b, match)] = None
                continue
            unlabeled = [t for t, _ in terms if t not in embedding]
            if not unlabeled:
                raise InconsistencyError(
                    f"no constituent of ({a},{b}) can carry its maximum")
            if len(unlabeled) == 1:
                t = unlabeled[0]
                embedding[t] = target
                rev[target] = t
                relations[(a, b, t)] = None
                changed = True
    return MonoidRecovery(embedding=embedding, rank=rank, relations=tuple(relations))


def recover_Qplus(sr: AbstractSemiring, monoid: MonoidRecovery) -> tuple[tuple[int, ...], ...]:
    """Generating vectors of the positive root cone: differences 2a - c over
    the visible constituents c of each certified square v_a^2.  Visible
    constituents of truncated squares are still genuine, so harvesting them
    is sound."""
    gens: set[tuple[int, ...]] = set()
    embedding = monoid.embedding
    for a in embedding:
        for c, _ in sr.product_table.get((a, a), ((), False))[0]:
            if c not in embedding:
                continue
            delta = tuple(2 * p - q for p, q in zip(embedding[a], embedding[c]))
            if any(delta):
                gens.add(delta)
    return tuple(sorted(gens))


def _positive_functional(gens: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[tuple[int, ...]]]:
    """An integer functional phi, positive on every generator, and the
    irreducible generators: those g for which no generator h makes g - h a
    generator.

    Under any functional positive on the generators, a generator that is
    the sum of two is larger than both, so every generator is a sum of
    irreducible ones and only those become rows.  With phi = p - n and a
    surplus s_g >= 0 per irreducible g, phi(g) - s_g = 1 is one feasibility
    LP for the exact simplex; its point's numerators over its pivot d > 0
    give phi.  phi is accepted only if positive on every generator, so a
    cone that is not pointed, or has no irreducible generator, is rejected.
    ``extract_simple_roots`` uses phi only to order the irreducible
    generators and to rule out cycles, both exact for any phi positive on
    the generators, so its simple roots do not depend on which such phi the
    simplex returns.
    """
    r = len(gens[0])
    gen_set = set(gens)
    irreducible = [g for g in gens if not any(tuple(x - y for x, y in zip(g, h)) in gen_set for h in gens)]
    rows = [list(g) + [-x for x in g] + [-int(i == j) for j in range(len(irreducible))]
            for i, g in enumerate(irreducible)]
    point = lp_feasible_point(rows, [1] * len(irreducible)) if irreducible else None
    if point is not None:
        phi = [p - n for p, n in zip(point[0][:r], point[0][r:])]
        if all(pairing(phi, g) > 0 for g in gens):
            return phi, irreducible
    raise InconsistencyError("harvested root cone is not pointed")


def extract_simple_roots(q_generators: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal nonzero elements of the semigroup generated by the harvested
    cone vectors: the simple roots of the recovered datum, sorted.

    Every atom is an irreducible generator.  Taken in order of phi, an
    irreducible generator is an atom exactly when it is no sum of the atoms
    found before it, since every atom of smaller phi is found by then."""
    gens = sorted(set(g for g in q_generators if any(g)))
    if not gens:
        return ()
    phi, irreducible = _positive_functional(tuple(gens))
    atoms: list[tuple[int, ...]] = []
    # a vector asked about has smaller phi than the generator under test, so
    # it lies in the semigroup exactly when it is a sum of the atoms found so
    # far: a generator's True and every verdict the search stores stay valid
    memo: dict[tuple[int, ...], bool] = dict.fromkeys(gens, True)

    def in_semigroup(v: tuple[int, ...]) -> bool:
        """Nonempty sum of atoms reaching v.  Depth-first on an explicit
        stack of [vector, next atom index] frames, so a long chain of
        subtractions cannot exhaust the interpreter stack."""
        if v in memo:
            return memo[v]
        memo[v] = False  # cycle guard; phi strictly decreases so cycles are vacuous
        stack = [[v, 0]]
        while stack:
            frame = stack[-1]
            u, k = frame
            if k == len(atoms):
                stack.pop()  # no atom reaches u: memo[u] stays False
                continue
            w = tuple(x - y for x, y in zip(u, atoms[k]))
            if not any(w) or memo.get(w):
                memo[u] = True
                stack.pop()
            elif w not in memo and pairing(phi, w) > 0:
                memo[w] = False
                stack.append([w, 0])  # frame u retries atoms[k] once w is decided
            else:
                frame[1] += 1
        return memo[v]

    for g in sorted(irreducible, key=lambda v: pairing(phi, v)):
        rests = (tuple(x - y for x, y in zip(g, a)) for a in atoms)
        if not any(pairing(phi, rest) > 0 and in_semigroup(rest) for rest in rests):
            atoms.append(g)
    return tuple(sorted(atoms))


def extract_simple_coroots(monoid: MonoidRecovery, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """The coroot functional of a recovered simple root: fit the pairing
    values m(mu) = largest m with 2*mu - m*alpha still dominant, read off
    inside the window, then verify the fit on every sample.  The fit solves
    S x = m over the integers by the Smith form d = u S v of the n x r sample
    matrix S: rank below r is inconclusive, then (u m)[i] != 0 for some
    i >= r is no fit, then d[i][i] not dividing (u m)[i] is no integral fit."""
    rev = {v: x for x, v in monoid.embedding.items()}
    samples: list[tuple[tuple[int, ...], int]] = []
    for x, v in sorted(monoid.embedding.items(), key=lambda kv: kv[1]):
        double = tuple(2 * c for c in v)
        if double not in rev:
            continue
        m = 0
        while tuple(d - (m + 1) * a for d, a in zip(double, alpha)) in rev:
            m += 1
        samples.append((v, m))
    r = monoid.rank
    d, u, v = smith_normal_form([list(w) for w, _ in samples])
    if len(samples) < r or any(d[i][i] == 0 for i in range(r)):
        raise InconclusiveError("window too small to determine a coroot")
    ub = mat_vec(u, [m for _, m in samples])
    if any(ub[r:]):
        raise InconsistencyError("non-additive coroot functional: corrupted window")
    if any(ub[i] % d[i][i] for i in range(r)):
        raise InconsistencyError("coroot functional is not integral")
    cov = tuple(mat_vec(v, [ub[i] // d[i][i] for i in range(r)]))
    if sum(a * c for a, c in zip(alpha, cov)) != 2:
        raise InconsistencyError("recovered coroot does not pair to 2 with its root")
    return cov


@dataclass(frozen=True)
class RecoveredDatum:
    """Result of a reconstruction: the datum, the weight of every id, and
    the derivation log."""

    datum: RootDatum
    labeling: dict[str, Weight]
    log: tuple[str, ...]


def verify_reconstruction(sr: AbstractSemiring, recovered: RecoveredDatum) -> list[str]:
    """Recompute every certified product from the recovered datum and diff it
    against the dump.  Any mismatch (including a single edited multiplicity)
    is reported.  Only a product whose dump terms differ from the recomputed
    ones is diffed term by term; the totals are checked for every product."""
    mism: list[str] = []
    labeling = recovered.labeling
    core = sorted(labeling)
    dump = sr.product_table
    table = product_table(recovered.datum, [labeling[x] for x in core])
    # each distinct (index, multiplicity) term of the table as an id term
    named = {(k, m): (core[k], m)
             for k, m in set(itertools.chain.from_iterable(found for found, _, _ in table.values()))}
    for (i, j), (found, _, true_total) in table.items():
        a, b = core[i], core[j]
        entry = dump.get((a, b))
        if entry is None:
            continue
        canon, complete = entry
        # found is sorted by index and core by id, so a dump entry that
        # agrees term for term is equal as a tuple and needs no diff
        expected = tuple(map(named.__getitem__, found))
        if canon != expected:
            terms = dict(canon)
            visible = dict(expected)
            for t, m in terms.items():
                if t in labeling and visible.get(t) != m:
                    mism.append(f"product ({a},{b}): term {t} has multiplicity {m}, expected {visible.get(t, 0)}")
            for t, m in visible.items():
                if t not in terms:
                    mism.append(f"product ({a},{b}): expected term {t} (multiplicity {m}) missing")
        dump_total = sum(map(itemgetter(1), canon))
        if complete and dump_total != true_total:
            mism.append(f"product ({a},{b}): complete but totals {dump_total} != {true_total}")
        if not complete and dump_total >= true_total:
            mism.append(f"product ({a},{b}): marked incomplete but already full")
    return mism


def _reconstruct_at_grade(sr: AbstractSemiring, cfg: ReconstructionConfig,
                          grade: int) -> RecoveredDatum:
    log: list[str] = [f"certification grade {grade}"]
    monoid = recover_monoid(sr, cfg, min_grade=grade)
    log.append(f"monoid: {len(monoid.embedding)} certified ids, {len(monoid.relations)} relations, "
               f"free rank {monoid.rank}")
    q_gens = recover_Qplus(sr, monoid)
    log.append(f"positive cone: {len(q_gens)} harvested generators")
    roots = extract_simple_roots(q_gens)
    log.append(f"simple roots: {len(roots)}")
    coroots = tuple(extract_simple_coroots(monoid, alpha) for alpha in roots)
    log.append("coroot functionals fitted and verified")
    datum = RootDatum(rank=monoid.rank, simple_roots=roots, simple_coroots=coroots, name="recovered")
    try:
        validate_datum(datum)
    except InvalidDatumError as exc:
        raise InconsistencyError(f"recovered datum is invalid: {exc}") from exc
    for x, w in sorted(monoid.embedding.items()):
        if not is_dominant(datum, w):
            raise InconsistencyError(f"labeled id {x} embeds to a non-dominant weight")
    recovered = RecoveredDatum(datum, dict(monoid.embedding), tuple(log))
    mismatches = verify_reconstruction(sr, recovered)
    if mismatches:
        detail = "; ".join(mismatches[:5])
        raise InconsistencyError(f"dump does not match the recovered datum: {detail}")
    # the self-check compares labeled products only, so a labeled subring
    # (the even weights of PGL2^, say) passes it as a different datum
    unlabeled = [x for x in sr.ids if x not in monoid.embedding]
    if unlabeled:
        raise InconclusiveError(f"{len(unlabeled)} ids left unlabeled at grade {grade}: "
                                + ", ".join(unlabeled[:5]))
    return recovered


def reconstruct_root_datum(sr: AbstractSemiring, cfg: ReconstructionConfig) -> RecoveredDatum:
    """Full pipeline: monoid completion, positive cone, simple roots and
    coroots, datum assembly, and the product-table self check.

    Seeds are retried at descending certification grades; a result is only
    accepted when every id is labeled and every labeled product recomputed
    from the recovered datum matches the dump, so a permissive seed can
    never smuggle in a wrong datum.  An accepted result has a relation for
    every complete product of two non-unit ids, ambiguous seed sums
    included: the bootstrap ends with a pass over the complete labeling, in
    which each such product finds its labeled sum among its terms or
    raises.  The error of the most conservative attempt is reported when
    all grades fail.
    """
    first_error: Exception | None = None
    for grade in range(cfg.k_max, 1, -1):
        try:
            return _reconstruct_at_grade(sr, cfg, grade)
        except (InconclusiveError, InconsistencyError) as exc:
            if first_error is None:
                first_error = exc
    if first_error is None:
        raise DomainError("k_max must be at least 2")
    raise first_error


def based_iso(rd1: RootDatum, rd2: RootDatum) -> tuple[tuple[int, ...], ...] | None:
    """A lattice isomorphism carrying the based datum rd1 onto rd2, or None.

    Searches all Cartan-preserving bijections of the simple roots (diagram
    automorphisms included: an anonymized semiring cannot see them), solves
    the induced integer-linear system for the lattice map, and scans a small
    box of the homogeneous solutions for a unimodular representative.
    """
    if rd1.rank != rd2.rank or rd1.semisimple_rank != rd2.semisimple_rank:
        return None
    r = rd1.rank
    s = rd1.semisimple_rank
    if r == 0:
        return ()
    if s == 0:
        # no based data to match: any lattice isomorphism works
        return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    a1 = cartan_matrix(rd1)
    a2 = cartan_matrix(rd2)
    for sigma in itertools.permutations(range(s)):
        if any(a2[sigma[i]][sigma[j]] != a1[i][j] for i in range(s) for j in range(s)):
            continue
        rows: list[list[int]] = []
        rhs: list[int] = []
        for i in range(s):
            for p in range(r):
                row = [0] * (r * r)
                for q in range(r):
                    row[p * r + q] = rd1.simple_roots[i][q]
                rows.append(row)
                rhs.append(rd2.simple_roots[sigma[i]][p])
        for i in range(s):
            for q in range(r):
                row = [0] * (r * r)
                for p in range(r):
                    row[p * r + q] = rd2.simple_coroots[sigma[i]][p]
                rows.append(row)
                rhs.append(rd1.simple_coroots[i][q])
        solved = integer_solutions(rows, rhs)
        if solved is None:
            continue
        x0, basis = solved
        span = 3  # unimodular representatives for the shipped data sit well inside
        for combo in itertools.product(range(-span, span + 1), repeat=len(basis)):
            entries = list(x0)
            for t, vec in zip(combo, basis):
                if t:
                    entries = [e + t * v for e, v in zip(entries, vec)]
            matrix = tuple(tuple(entries[p * r + q] for q in range(r)) for p in range(r))
            if abs(det_int(matrix)) == 1:
                return matrix
    return None


def semiring_to_json(sr: AbstractSemiring) -> str:
    """The dump file: the bytes ``json.dumps(doc, indent=2, sort_keys=True)``
    gives for {"ids", "products": [{"a", "b", "complete", "terms": [{"id",
    "mult"}]}], "unit"}, written directly because with ``indent`` the stdlib
    falls back to its pure-Python encoder.  Each id is quoted once, each
    distinct (id, multiplicity) term is written once, and the file is one
    join of a flat list of pieces: a header per product and the shared
    term texts, each followed by a comma that the array's close replaces."""
    quote = dict(zip(sr.ids, map(encode_basestring_ascii, sr.ids)))
    table = sr.product_table.items()
    distinct = set(itertools.chain.from_iterable(terms for _, (terms, _) in table))
    term_text = {(t, m): f'\n        {{\n          "id": {quote[t]},\n          "mult": {m}\n        }}'
                 for t, m in distinct}
    pieces = ['{\n  "ids": [']
    for q in quote.values():
        pieces += (f"\n    {q}", ",")
    pieces[-1] = '\n  ],\n  "products": ['
    for (a, b), (terms, complete) in table:
        pieces.append(f'\n    {{\n      "a": {quote[a]},\n      "b": {quote[b]},\n'
                      f'      "complete": {"true" if complete else "false"},\n      "terms": [')
        for t in terms:
            pieces += (term_text[t], ",")
        if terms:
            pieces[-1] = "\n      ]\n    }"
        else:
            pieces.append("]\n    }")
        pieces.append(",")
    # the unit's products make ids and products nonempty
    pieces[-1] = f'\n  ],\n  "unit": {quote[sr.unit]}\n}}\n'
    return "".join(pieces)


def semiring_from_json(text: str) -> AbstractSemiring:
    try:
        doc = json.loads(text)
        ids = [json_value(x, str) for x in json_value(doc["ids"], list)]
        if len(set(ids)) < len(ids):
            repeated = next(x for x in ids if ids.count(x) > 1)
            raise ParseError(f"semiring dump lists id {repeated} twice")
        unit = json_value(doc["unit"], str)
        products = {}
        for entry in doc["products"]:
            key = (json_value(entry["a"], str), json_value(entry["b"], str))
            terms = {}
            for t in entry["terms"]:
                tid = json_value(t["id"], str)
                if tid in terms:
                    raise ParseError(f"product ({key[0]},{key[1]}) lists term {tid} twice")
                terms[tid] = json_value(t["mult"], int)
            value = (terms, json_value(entry["complete"], bool))
            if products.setdefault(key, value) != value:
                raise ParseError(f"conflicting product entries for ({key[0]},{key[1]})")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed semiring dump: {exc}") from exc
    return AbstractSemiring(ids=ids, unit=unit, products=products)
