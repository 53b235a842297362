"""Reconstruction of a based root datum from an anonymized, truncated
Grothendieck semiring, and the based-isomorphism checker that closes the
round trip.

Truncation semantics: every universally quantified comparison is evaluated
three-valued (True / False / None-for-inconclusive).  A False needs a fully
expandable counterexample; a True needs a witness that passes every
checkable exponent; anything the window cannot settle stays None and is
never silently resolved.  Mutual-witness conflicts (both directions claiming
True) are resolved by evidence strength or suppressed entirely, so windowed
artifacts degrade to None instead of to wrong verdicts.
"""
from __future__ import annotations

import itertools
import json
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from types import MappingProxyType

from .errors import DomainError, InconclusiveError, InconsistencyError, ParseError, json_value
from .lattice import (
    RootDatum,
    Weight,
    cartan_matrix,
    dominant_window,
    is_dominant,
    pairing,
    validate_datum,
)
from .linalg import (
    det_int,
    in_lattice_span,
    integer_solutions,
    lp_feasible_point,
    smith_normal_form,
    solve_rational,
)
from .semiring import product_table

Verdict = bool | None
Support = tuple[int, bool]  # id bitmask (bit i is ids[i]), fully-expanded flag
ProductEntry = tuple[tuple[tuple[str, int], ...], bool]  # sorted (id, multiplicity) terms, complete


@dataclass(frozen=True)
class ReconstructionConfig:
    """Bounds for the universally quantified comparisons.

    ``k_max`` caps the tensor-power exponent; ``strict`` escalates any
    inconclusive event left at the end of a reconstruction into an error
    instead of a report warning.
    """

    k_max: int = 4
    strict: bool = False

    def __post_init__(self) -> None:
        if self.k_max < 2:
            raise DomainError("k_max must be at least 2")


class AbstractSemiring:
    """An anonymized semiring window: opaque ids, a unit, and a partial
    product table.  ``complete=False`` marks products whose constituents may
    fall outside the id window.

    Order evidence reads only which ids occur in a product, never with what
    multiplicity, so powers and their products with a witness are kept as
    supports: an int whose bit i marks ``ids[i]``, with the fully-expanded
    flag.  Every dump multiplicity is at least 1, so the support of a product
    of sums is the union of the supports of its term products.  One row per
    right factor x holds the supports of ``ids[i] * x``.

    The row, power, witness-product and evidence caches are owned by this
    class, filled lazily, and only ever grow; entries are immutable once
    written.
    """

    def __init__(self, ids, unit: str, products) -> None:
        self.ids: tuple[str, ...] = tuple(sorted(set(ids)))
        self.id_set = frozenset(self.ids)
        self.unit = unit
        if unit not in self.id_set:
            raise ParseError("semiring unit is not among the ids")
        self._products: dict[tuple[str, str], ProductEntry] = {}
        for (a, b), (terms, complete) in products.items():
            if a not in self.id_set or b not in self.id_set:
                raise ParseError(f"product ({a},{b}) names an id outside the id set")
            key = (a, b) if a <= b else (b, a)
            canon = tuple(sorted(terms.items()))
            if any(t not in self.id_set for t, _ in canon) or any(m < 1 for _, m in canon):
                raise ParseError(f"product ({a},{b}) has terms outside the id set")
            prior = self._products.get(key)
            if prior is not None and prior != (canon, bool(complete)):
                raise ParseError(f"conflicting product entries for ({a},{b})")
            self._products[key] = (canon, bool(complete))
        for a in self.ids:
            entry = self._products.get((a, unit) if a <= unit else (unit, a))
            if entry is None or dict(entry[0]) != {a: 1} or not entry[1]:
                raise ParseError(f"unit product for {a} is missing or wrong")
        self._bit = {x: 1 << i for i, x in enumerate(self.ids)}
        self._rows: dict[str, list[Support]] = {}
        self._powers: dict[tuple[str, int], Support] = {}
        self._times: dict[tuple[str, int, str], Support] = {}
        self._evidence: dict[tuple[str, str, int], tuple[str, int]] = {}
        self._expandable: dict[int, tuple[str, ...]] = {}

    @property
    def product_table(self) -> Mapping[tuple[str, str], ProductEntry]:
        """Read-only view of the canonical entries: (a, b) with a <= b maps
        to the sorted (id, multiplicity) terms and the completeness flag."""
        return MappingProxyType(self._products)

    def product(self, a: str, b: str) -> tuple[dict[str, int], bool]:
        key = (a, b) if a <= b else (b, a)
        entry = self._products.get(key)
        if entry is None:
            return {}, False
        return dict(entry[0]), entry[1]

    def has_product(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self._products

    def _row(self, x: str) -> list[Support]:
        """Supports of ids[i] * x; a product missing from the dump is (0, False)."""
        row = self._rows.get(x)
        if row is None:
            bit = self._bit
            row = []
            for y in self.ids:
                entry = self._products.get((y, x) if y <= x else (x, y))
                if entry is None:
                    row.append((0, False))
                else:
                    row.append((sum(bit[t] for t, _ in entry[0]), entry[1]))
            self._rows[x] = row
        return row

    def _multiply(self, support: Support, x: str) -> Support:
        mask, complete = support
        row = self._row(x)
        out = 0
        while mask:
            low = mask & -mask
            pmask, pcomplete = row[low.bit_length() - 1]
            out |= pmask
            complete = complete and pcomplete
            mask ^= low
        return out, complete

    def power(self, a: str, k: int) -> Support:
        if k < 1:
            return self._bit[self.unit], True
        key = (a, k)
        cached = self._powers.get(key)
        if cached is None:
            cached = (self._bit[a], True) if k == 1 else self._multiply(self.power(a, k - 1), a)
            self._powers[key] = cached
        return cached

    def power_times(self, b: str, k: int, u: str) -> Support:
        key = (b, k, u)
        cached = self._times.get(key)
        if cached is None:
            cached = self._multiply(self.power(b, k), u)
            self._times[key] = cached
        return cached

    def expandable_ids(self, k_max: int) -> tuple[str, ...]:
        """Ids whose powers stay fully expandable up to k_max: the abstract
        notion of 'small', used to keep witnesses honest."""
        cached = self._expandable.get(k_max)
        if cached is None:
            cached = tuple(x for x in self.ids if self.power(x, k_max)[1])
            self._expandable[k_max] = cached
        return cached

    def evidence(self, a: str, b: str, k_max: int) -> tuple[str, int]:
        """One-directional evidence for a ⪯ b up to exponent k_max.

        Returns ('T'|'F'|'?', n) where n counts the fully expandable
        exponents of a.  'T': some witness u contains every power's
        constituents, found explicitly.  'F': every candidate witness fails
        on complete data.  Containment is a test on id bitmasks: the support
        of a^k must lie inside the support of b^k * u.
        """
        key = (a, b, k_max)
        cached = self._evidence.get(key)
        if cached is not None:
            return cached
        powers_a: dict[int, int] = {}
        for k in range(1, k_max + 1):
            mask, complete = self.power(a, k)
            if complete:
                powers_a[k] = mask
        checkable = sorted(powers_a)
        small = set(self.expandable_ids(k_max))
        witness_found = False
        any_unknown = False
        for u in self.ids:
            failed = False
            unknown = False
            for k in checkable:
                prod_mask, prod_complete = self.power_times(b, k, u)
                if powers_a[k] & ~prod_mask:
                    if prod_complete:
                        failed = True
                        break
                    unknown = True
            if failed:
                continue
            # when the window clips the checkable exponents, only small
            # witnesses certify a True: a window-sized u makes many pairs
            # look comparable at the few exponents that remain visible
            if unknown or (u not in small and len(checkable) < k_max):
                any_unknown = True
                continue
            witness_found = True
            break
        # a single checkable exponent cannot separate the two sides of a
        # pair, so strength-1 positives stay inconclusive
        if witness_found and len(checkable) < 2:
            witness_found = False
            any_unknown = True
        verdict = "T" if witness_found else ("?" if any_unknown else "F")
        result = (verdict, len(checkable))
        self._evidence[key] = result
        return result


def dump_semiring(rd: RootDatum, height_bound: int, seed: int) -> tuple[AbstractSemiring, dict[str, Weight]]:
    """Forward direction: anonymize the dominant weights of a datum up to a
    height-and-coordinate bound, with all pairwise tensor products.

    Tokens come from a seeded pseudorandom shuffle, so identical inputs give
    identical dumps and different seeds give differently labeled ones.
    """
    if height_bound < 0:
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


def _directed_verdict(sr: AbstractSemiring, cfg: ReconstructionConfig,
                      a: str, b: str) -> tuple[Verdict, int]:
    """Suppression-resolved verdict for a ⪯ b with the evidence strength.

    Opposing witness claims are ranked by how many exponents each side could
    actually check; ties suppress both claims to inconclusive.
    """
    va, sa = sr.evidence(a, b, cfg.k_max)
    vb, sb = sr.evidence(b, a, cfg.k_max)
    if va == "T":
        if vb == "T" and sb >= sa:
            return None, sa
        return True, sa
    if va == "F":
        return False, sa
    return None, sa


def recover_preceq(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str) -> Verdict:
    """Three-valued a ⪯ b on ids: search a witness u whose products contain
    the constituents of every power of a up to k_max.

    A True demands that every exponent up to k_max was fully checkable: a
    window can make non-comparable pairs look comparable at the few
    exponents it leaves visible, so partially checked positives stay None.
    """
    if a not in sr.id_set or b not in sr.id_set:
        raise DomainError("recover_preceq needs ids from the semiring")
    if a == b:
        return True
    verdict, strength = _directed_verdict(sr, cfg, a, b)
    if verdict is True and strength < cfg.k_max:
        return None
    return verdict


def _certified_sum(sr: AbstractSemiring, cfg: ReconstructionConfig,
                   a: str, b: str, min_grade: int) -> str:
    """recover_sum with a certification grade: each non-maximal constituent
    must be eliminated by a True edge of strength >= min_grade."""
    if not sr.has_product(a, b):
        raise InconclusiveError(f"product ({a},{b}) is not in the dump")
    terms, complete = sr.product(a, b)
    if not complete:
        raise InconclusiveError(f"incomplete product ({a},{b})")
    names = sorted(terms)
    if len(names) == 1:
        return names[0]
    verdicts = {(s, t): _directed_verdict(sr, cfg, s, t)
                for s in names for t in names if s != t}
    eliminated = set()
    for s in names:
        strengths = [st for t in names if t != s
                     for v, st in [verdicts[(s, t)]] if v is True]
        if strengths and max(strengths) >= min_grade:
            eliminated.add(s)
    candidates = [t for t in names if t not in eliminated]
    if len(candidates) == 1:
        top = candidates[0]
        if any(verdicts[(s, top)][0] is False for s in names if s != top):
            raise InconsistencyError(
                f"constituent order of ({a},{b}) contradicts a unique maximum")
        return top
    if not candidates:
        raise InconsistencyError(f"no maximal constituent left in ({a},{b})")
    raise InconclusiveError(f"ambiguous maximum in product ({a},{b})")


def recover_sum(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str) -> str:
    """The id of the maximal constituent of v_a * v_b: the monoid sum a + b.

    Requires the product to be complete, and certifies the maximum at the
    most conservative grade (every elimination backed by fully checked
    order evidence).  Raises InconclusiveError when the window cannot
    certify a unique maximum, InconsistencyError when complete data
    contradicts having one.
    """
    return _certified_sum(sr, cfg, a, b, min_grade=cfg.k_max)


@dataclass(frozen=True)
class MonoidRecovery:
    """Group completion of the certified part of the id monoid: the
    embedding of every id it labels (the unit at 0) into Z^rank, the
    relations a + b = c behind it, and the seed sums left ambiguous."""

    embedding: dict[str, tuple[int, ...]]
    rank: int
    relations: tuple[tuple[str, str, str], ...]
    skipped: tuple[str, ...]


def recover_monoid(sr: AbstractSemiring, cfg: ReconstructionConfig,
                   min_grade: int | None = None) -> MonoidRecovery:
    """Group-complete the id monoid in two stages.

    Seed stage: certify sums among the small (twice-expandable) ids through
    the order evidence at the given certification grade, and present the
    group completion of those relations by Smith normal form.  Character
    lattices are torsion-free, so torsion here signals corrupted input.

    Bootstrap stage: a complete product of two labeled ids has its maximal
    constituent at the sum of the labels.  When a labeled term carries that
    sum it is the maximum; when no label matches and exactly one term is
    unlabeled, that term must be the maximum and inherits the label.  Iterate
    to a fixed point; this extends the embedding across the window without
    any further order queries.
    """
    if min_grade is None:
        min_grade = cfg.k_max
    nonunit = [x for x in sr.ids if x != sr.unit]
    small = [x for x in nonunit if sr.power(x, 2)[1]]
    small_set = set(small) | {sr.unit}
    relations: list[tuple[str, str, str]] = []
    unresolved: list[tuple[str, str]] = []
    for i, a in enumerate(small):
        for b in small[i:]:
            if not sr.product(a, b)[1]:
                continue
            try:
                c = _certified_sum(sr, cfg, a, b, min_grade=min_grade)
            except InconclusiveError:
                unresolved.append((a, b))
                continue
            if c not in small_set:
                # a sum landing outside the twice-expandable range would
                # enter the lattice presentation underdetermined; leave it
                # for the bootstrap stage instead
                continue
            relations.append((a, b, c))
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
    for a, b, c in relations:
        left = tuple(p + q for p, q in zip(embedding[a], embedding[b]))
        if left != embedding.get(c, (0,) * rank):
            raise InconsistencyError("relation lattice failed to close")

    rev = {v: x for x, v in embedding.items()}
    if len(rev) != len(embedding):
        raise InconsistencyError("seed embedding is not injective")
    complete_products = [
        (a, b) for i, a in enumerate(nonunit) for b in nonunit[i:]
        if sr.product(a, b)[1]
    ]
    seen = set(relations)
    changed = True
    while changed:
        changed = False
        for a, b in complete_products:
            if a not in embedding or b not in embedding:
                continue
            target = tuple(p + q for p, q in zip(embedding[a], embedding[b]))
            terms, _ = sr.product(a, b)
            match = rev.get(target)
            if match is not None:
                if match not in terms:
                    raise InconsistencyError(
                        f"maximal constituent of ({a},{b}) is missing from the dump")
                if (a, b, match) not in seen:
                    relations.append((a, b, match))
                    seen.add((a, b, match))
                continue
            unlabeled = [t for t in terms if t not in embedding]
            if not unlabeled:
                raise InconsistencyError(
                    f"no constituent of ({a},{b}) can carry its maximum")
            if len(unlabeled) == 1:
                t = unlabeled[0]
                embedding[t] = target
                rev[target] = t
                relations.append((a, b, t))
                seen.add((a, b, t))
                changed = True

    resolved = {(a, b) for a, b, _ in seen}
    skipped = [f"seed sum({a},{b}) ambiguous under truncation"
               for a, b in unresolved if (a, b) not in resolved]
    return MonoidRecovery(
        embedding=embedding,
        rank=rank,
        relations=tuple(relations),
        skipped=tuple(skipped),
    )


def recover_Qplus(sr: AbstractSemiring, monoid: MonoidRecovery) -> tuple[tuple[int, ...], ...]:
    """Generating vectors of the positive root cone: differences 2a - c over
    the visible constituents c of each certified square v_a^2.  Visible
    constituents of truncated squares are still genuine, so harvesting them
    is sound."""
    gens: set[tuple[int, ...]] = set()
    embedding = monoid.embedding
    for a in embedding:
        terms, _ = sr.product(a, a)
        for c in terms:
            if c not in embedding:
                continue
            delta = tuple(2 * p - q for p, q in zip(embedding[a], embedding[c]))
            if any(delta):
                gens.add(delta)
    return tuple(sorted(gens))


def recover_leq(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str,
                monoid: MonoidRecovery | None = None,
                q_generators: tuple[tuple[int, ...], ...] | None = None) -> Verdict:
    """Three-valued a <= b: a ⪯ b and the embedded difference lies in the
    group generated by the recovered positive cone."""
    if monoid is None:
        monoid = recover_monoid(sr, cfg)
    if q_generators is None:
        q_generators = recover_Qplus(sr, monoid)
    emb_a = monoid.embedding.get(a)
    emb_b = monoid.embedding.get(b)
    if emb_a is None or emb_b is None:
        return None
    diff = tuple(q - p for p, q in zip(emb_a, emb_b))
    if not in_lattice_span([list(g) for g in q_generators], list(diff)):
        return False
    return recover_preceq(sr, cfg, a, b)


def _positive_functional(gens: tuple[tuple[int, ...], ...]) -> list[int]:
    """An integer functional phi, positive on every generator.

    Only irreducible ("tight") primitive rays become rows: a ray that is the
    sum of two rays is positive once both are.  With phi = p - n and a
    surplus s_g >= 0 per tight ray g, phi(g) - s_g = 1 is one feasibility LP
    for the exact simplex; its point, scaled by the lcm of its denominators,
    gives phi.  phi is accepted only if positive on every ray, so a cone that
    is not pointed, or has no tight ray, is rejected.  ``extract_simple_roots``
    uses phi only to prune rests below the least generator value and to rule
    out cycles, both exact for any phi positive on the generators, so its
    simple roots do not depend on which such phi the simplex returns.
    """
    r = len(gens[0])
    rays = sorted({tuple(c // gcd(*(abs(x) for x in g)) for c in g) for g in gens})
    ray_set = set(rays)
    tight = [g for g in rays if not any(tuple(x - y for x, y in zip(g, h)) in ray_set for h in rays)]
    rows = [list(g) + [-x for x in g] + [-int(i == j) for j in range(len(tight))]
            for i, g in enumerate(tight)]
    point = lp_feasible_point(rows, [1] * len(tight)) if tight else None
    if point is not None:
        scale = lcm(*(x.denominator for x in point))
        phi = [int((point[i] - point[r + i]) * scale) for i in range(r)]
        if all(pairing(phi, g) > 0 for g in rays):
            return phi
    raise InconsistencyError("harvested root cone is not pointed")


def extract_simple_roots(q_generators: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal nonzero elements of the semigroup generated by the harvested
    cone vectors: the simple roots of the recovered datum."""
    gens = sorted(set(g for g in q_generators if any(g)))
    if not gens:
        return ()
    phi = _positive_functional(tuple(gens))

    def phi_val(v: tuple[int, ...]) -> int:
        return sum(p * c for p, c in zip(phi, v))

    min_phi = min(phi_val(g) for g in gens)
    # every generator is in the semigroup; the depth-first search below
    # would find that only after descending through earlier generators
    memo: dict[tuple[int, ...], bool] = dict.fromkeys(gens, True)

    def in_semigroup(v: tuple[int, ...]) -> bool:
        """Nonempty nonnegative-integer combination reaching v.  Depth-first
        on an explicit stack of [vector, next generator index] frames, so a
        long chain of subtractions cannot exhaust the interpreter stack."""
        if v in memo:
            return memo[v]
        memo[v] = False  # cycle guard; phi strictly decreases so cycles are vacuous
        stack = [[v, 0]]
        while stack:
            frame = stack[-1]
            u, k = frame
            if k == len(gens):
                stack.pop()  # no generator reaches u: memo[u] stays False
                continue
            w = tuple(x - y for x, y in zip(u, gens[k]))
            if not any(w) or (memo.get(w) and phi_val(w) >= min_phi):
                memo[u] = True
                stack.pop()
            elif w not in memo and phi_val(w) >= min_phi:
                memo[w] = False
                stack.append([w, 0])  # frame u retries gens[k] once w is decided
            else:
                frame[1] += 1
        return memo[v]

    simples = []
    for g in gens:
        # a rest already known to lie in the semigroup, such as a generator,
        # decides g without a search: it is nonzero with phi >= min_phi
        if any(memo.get(tuple(x - y for x, y in zip(g, h))) for h in gens):
            continue
        rests = (tuple(x - y for x, y in zip(g, h)) for h in gens)
        if not any(any(rest) and phi_val(rest) >= min_phi and in_semigroup(rest) for rest in rests):
            simples.append(g)
    return tuple(simples)


def extract_simple_coroots(monoid: MonoidRecovery, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """The coroot functional of a recovered simple root: fit the pairing
    values m(mu) = largest m with 2*mu - m*alpha still dominant, read off
    inside the window, then verify the fit on every sample."""
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
    columns = [[v[i] for v, _ in samples] for i in range(monoid.rank)]
    targets = [m for _, m in samples]
    try:
        coeffs = solve_rational(columns, targets)
    except ValueError as exc:
        raise InconclusiveError("window too small to determine a coroot") from exc
    if coeffs is None:
        raise InconsistencyError("non-additive coroot functional: corrupted window")
    if any(c.denominator != 1 for c in coeffs):
        raise InconsistencyError("coroot functional is not integral")
    cov = tuple(int(c) for c in coeffs)
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
    warnings: tuple[str, ...] = field(default=())


def assemble_root_datum(roots: tuple[tuple[int, ...], ...],
                        coroots: tuple[tuple[int, ...], ...],
                        rank: int,
                        labeling: dict[str, Weight],
                        log: tuple[str, ...],
                        warnings: tuple[str, ...] = ()) -> RecoveredDatum:
    """Build and validate the recovered datum; recovered data that fails the
    root-datum axioms signals inconsistency, not a parse problem.  The
    simple roots come sorted from ``extract_simple_roots``."""
    datum = RootDatum(rank=rank, simple_roots=roots, simple_coroots=coroots, name="recovered")
    try:
        validate_datum(datum)
    except Exception as exc:
        raise InconsistencyError(f"recovered datum is invalid: {exc}") from exc
    for x, w in sorted(labeling.items()):
        if not is_dominant(datum, w):
            raise InconsistencyError(f"labeled id {x} embeds to a non-dominant weight")
    return RecoveredDatum(datum=datum, labeling=dict(labeling), log=log, warnings=warnings)


def verify_reconstruction(sr: AbstractSemiring, recovered: RecoveredDatum) -> list[str]:
    """Recompute every certified product from the recovered datum and diff it
    against the dump.  Any mismatch (including a single edited multiplicity)
    is reported."""
    mism: list[str] = []
    labeling = recovered.labeling
    core = sorted(labeling)
    table = product_table(recovered.datum, [labeling[x] for x in core])
    for (i, j), (found, _, true_total) in table.items():
        a, b = core[i], core[j]
        if not sr.has_product(a, b):
            continue
        terms, complete = sr.product(a, b)
        visible = {core[k]: m for k, m in found}
        for t, m in terms.items():
            if t in labeling and visible.get(t) != m:
                mism.append(f"product ({a},{b}): term {t} has multiplicity {m}, expected {visible.get(t, 0)}")
        for t, m in visible.items():
            if t not in terms:
                mism.append(f"product ({a},{b}): expected term {t} (multiplicity {m}) missing")
        dump_total = sum(terms.values())
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
    if q_gens and not roots:
        raise InconsistencyError("positive cone has no minimal elements")
    coroots = tuple(extract_simple_coroots(monoid, alpha) for alpha in roots)
    log.append("coroot functionals fitted and verified")
    recovered = assemble_root_datum(roots, coroots, monoid.rank, monoid.embedding,
                                    log=tuple(log), warnings=monoid.skipped)
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
    accepted when every labeled product recomputed from the recovered datum
    matches the dump, so a permissive seed can never smuggle in a wrong
    datum.  The error of the most conservative attempt is reported when all
    grades fail.
    """
    first_error: Exception | None = None
    for grade in range(cfg.k_max, 1, -1):
        try:
            recovered = _reconstruct_at_grade(sr, cfg, grade)
        except (InconclusiveError, InconsistencyError) as exc:
            if first_error is None:
                first_error = exc
            continue
        if cfg.strict and recovered.warnings:
            raise InconclusiveError("strict mode: " + "; ".join(recovered.warnings[:5]))
        return recovered
    assert first_error is not None
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


def _json_array(items: list[str], indent: str) -> str:
    """Encoded items as a json array in the ``indent=2`` layout, opened at
    the given indentation."""
    if not items:
        return "[]"
    inner = ",\n".join(f"{indent}  {item}" for item in items)
    return f"[\n{inner}\n{indent}]"


def semiring_to_json(sr: AbstractSemiring) -> str:
    """The dump file: the bytes ``json.dumps(doc, indent=2, sort_keys=True)``
    gives for {"ids", "products": [{"a", "b", "complete", "terms": [{"id",
    "mult"}]}], "unit"}, written directly because with ``indent`` the stdlib
    falls back to its pure-Python encoder."""
    quote = encode_basestring_ascii
    products = []
    for (a, b), (terms, complete) in sorted(sr.product_table.items()):
        term_items = [f'{{\n          "id": {quote(t)},\n          "mult": {m}\n        }}'
                      for t, m in terms]
        products.append(
            f'{{\n      "a": {quote(a)},\n      "b": {quote(b)},\n'
            f'      "complete": {"true" if complete else "false"},\n'
            f'      "terms": {_json_array(term_items, "      ")}\n    }}')
    ids = _json_array([quote(x) for x in sr.ids], "  ")
    return (f'{{\n  "ids": {ids},\n  "products": {_json_array(products, "  ")},\n'
            f'  "unit": {quote(sr.unit)}\n}}\n')


def semiring_from_json(text: str) -> AbstractSemiring:
    try:
        doc = json.loads(text)
        ids = [json_value(x, str) for x in doc["ids"]]
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
            products[key] = (terms, json_value(entry["complete"], bool))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed semiring dump: {exc}") from exc
    return AbstractSemiring(ids=ids, unit=unit, products=products)
