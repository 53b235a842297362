"""Independent oracles used to freeze expected values.

The character oracle computes weight multiplicities through the alternating
orbit-sum quotient (full Weyl group enumeration plus exact Laurent-polynomial
division), sharing no code path with the Freudenthal recursion or the
shift-reflect product it checks; its Weyl group enumeration
``weyl_elements`` (matrices closed under the simple reflections) is also the
reference for ``weyl_orbit``, which walks orbits on labels from a fold.  The
box oracle filters a whole coordinate box, the reference for both
enumerations of ``lattice._box_points``: ``dominant_window`` directly, and
``dominant_below`` (the depth box) as the box's dominant weights below the
top weight.  The reflection oracle folds a weight vector one reflection at
a time, the reference for the Dynkin-label fold behind
``dominant_representative``.  The root-coordinate and X/Q
oracles solve each query from scratch (an exact rational solve, a Smith
normal form), the references for the per-datum tables in ``lattice``; the
inverse-Cartan oracle solves one exact rational system per row, the
reference for the rows that ``lattice.cartan_tables`` reads off its
invariant form.  The expansion oracle recomputes order evidence from multiplicity dicts built on
the public ``product``, the reference for the id-bitmask supports of
``AbstractSemiring.evidence``; the witness kernel multiplies out the
support of b^k * u as its loop over witnesses reaches u, the reference for
the whole columns behind ``evidence`` and, run through the same pipeline,
``recover_monoid``.  The directed-verdict oracle reads both
directions' evidence for every ordered pair of a product's constituents
into a full verdict matrix before it picks the maximum, the reference for
the lazy ``_verdict`` queries behind ``recover_preceq`` and
``reconstruct._certified_sum``; the all-subsets oracle tries every rank-sized
subset of the rays by Cramer's rule, deciding independently of the simplex
behind ``reconstruct._positive_functional`` whether the cone is pointed; the
unpruned semigroup search takes its functional from the all-subsets oracle
and tests every difference of two generators by depth-first search over all
generators, the reference for ``reconstruct.extract_simple_roots``, which
tests only the irreducible generators, in order of its functional, against
the atoms found before each.  The doubled-fold oracle
is the Klimyk product keyed by weights, walking the weight diagram from
``weight_multiplicities``, folding twice the rho-shifted labels and halving
each target, the reference for the label-keyed ``_label_product``; the
depth oracle turns a constituent's labels into its weight in two passes, a
depth A^-1 gap and then a subtraction of simple roots, the reference for
the one matrix ``weight_rows`` of ``lattice.datum_tables``; the
``json.dumps`` writer is the reference for the dump writer.  The full
self-check diff compares every labeled product term by term, the reference
for the mismatches that ``verify_reconstruction`` gives by diffing only the
products whose term tuple differs.  The ``Fraction`` simplex is the rational tableau that the integer tableau of
``linalg.lp_feasible_point`` scales, pivot for pivot, so its point is the
integer point over its last pivot, and the orbit hull
test solves one such LP per point of W lam, the reference for the one LP of
``lattice.conv_hull_leq``.  The brute-force character product convolves two
weight diagrams and strips highest weights until the character is
exhausted, the reference for ``tensor_decompose`` in criterion C3.  The
``Fraction`` coroot fit solves the samples by an exact rational solve, the
reference for the value and the error (class and message) of the Smith-form
fit in ``reconstruct.extract_simple_coroots``.  The dense Smith normal
form keeps v as rows and scans the whole trailing submatrix for each
pivot, the reference for the exact (d, u, v) of ``linalg.smith_normal_form``,
which keeps v as sparse columns.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from satake.errors import DomainError, InconclusiveError, InconsistencyError
from satake.lattice import (
    RootDatum,
    Weight,
    WeylWord,
    _dominant_labels,
    _fold_labels,
    _subtract_roots,
    cartan_matrix,
    cartan_tables,
    datum_tables,
    dual_root_datum,
    is_dominant,
    leq_dominance,
    pairing,
    reflect,
    two_rho,
    weyl_orbit,
)
from satake.linalg import det_int, identity_matrix, smith_normal_form, solve_rational
from satake.reconstruct import (
    AbstractSemiring,
    MonoidRecovery,
    ReconstructionConfig,
    RecoveredDatum,
    Support,
    Verdict,
)
from satake.semiring import Decomposition, WeightTable, product_table, weight_multiplicities, weyl_dim


def dominant_box(rd: RootDatum, cap: int, height: int | None = None) -> list[Weight]:
    """Dominant weights with coordinates in [-cap, cap] and, when height is
    given, coroot height at most height, sorted.  The coroot height pairs
    with 2rho of the dual datum, the sum of the positive coroots."""
    rho2_check = two_rho(dual_root_datum(rd))
    return sorted(w for w in itertools.product(range(-cap, cap + 1), repeat=rd.rank)
                  if is_dominant(rd, w) and (height is None or pairing(w, rho2_check) <= height))


def dominant_representative_by_reflection(rd: RootDatum, lam: Weight) -> tuple[Weight, WeylWord]:
    """The dominant W-orbit representative and a word carrying lam onto it,
    reflecting the weight vector at the smallest violating index until it is
    dominant and pairing it with every simple coroot at each step."""
    v = tuple(lam)
    applied: list[int] = []
    while True:
        i = next((i for i, cov in enumerate(rd.simple_coroots) if pairing(v, cov) < 0), None)
        if i is None:
            return v, tuple(reversed(applied))
        v = reflect(rd, i, v)
        applied.append(i)


def root_coefficients_by_solve(rd: RootDatum, v: Weight) -> tuple[Fraction, ...] | None:
    """Simple-root coordinates of v by one exact solve, or None off their span."""
    return solve_rational(rd.simple_roots, v)


def inverse_cartan_by_solve(a: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The rows of the inverse Cartan matrix over their least common
    denominator, with that denominator, by one exact solve per row: w_j =
    sum_k m_k alpha_k^vee solves sum_k m_k A[k][i] = delta_ij."""
    s = len(a)
    inverse = [solve_rational(a, [int(i == j) for i in range(s)]) for j in range(s)]
    denominator = lcm(*(c.denominator for row in inverse for c in row))
    return tuple(tuple(int(c * denominator) for c in row) for row in inverse), denominator


def class_by_smith_form(rd: RootDatum, lam: Weight) -> tuple[int, ...]:
    """Class of lam in X/Q from a fresh Smith normal form of the simple-root
    lattice: u * lam, reduced modulo each nonzero divisor."""
    s = rd.semisimple_rank
    if s == 0:
        return tuple(lam)
    cols = [[rd.simple_roots[j][i] for j in range(s)] for i in range(rd.rank)]
    d, u, _ = smith_normal_form(cols)
    t = [sum(u[i][k] * lam[k] for k in range(rd.rank)) for i in range(rd.rank)]
    out = []
    for i in range(rd.rank):
        di = d[i][i] if i < s else 0
        out.append(t[i] % di if di != 0 else t[i])
    return tuple(out)


def weyl_elements(rd: RootDatum) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """All Weyl group elements as matrices (tuple of columns) with signs."""
    rank = rd.rank
    identity = tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))

    def reflect_vec(i: int, v: tuple[int, ...]) -> tuple[int, ...]:
        c = sum(a * b for a, b in zip(v, rd.simple_coroots[i]))
        return tuple(x - c * a for x, a in zip(v, rd.simple_roots[i]))

    def apply(mat, v):
        return tuple(sum(mat[j][i] * v[j] for j in range(rank)) for i in range(rank))

    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for mat in frontier:
            sign = seen[mat]
            for i in range(rd.semisimple_rank):
                new = tuple(reflect_vec(i, col) for col in mat)
                if new not in seen:
                    seen[new] = -sign
                    nxt.append(new)
        frontier = nxt
    return [(mat, sign) for mat, sign in seen.items()]


def _apply(mat, v):
    rank = len(v)
    return tuple(sum(mat[j][i] * v[j] for j in range(rank)) for i in range(rank))


def _laurent_divide(num: dict[Weight, int], den: dict[Weight, int]) -> dict[Weight, int]:
    """Exact division of Laurent polynomials known to divide evenly."""
    num = dict(num)
    lead_den = max(den)
    quot: dict[Weight, int] = {}
    guard = 0
    while num:
        guard += 1
        assert guard < 200000, "division does not terminate"
        lead_num = max(num)
        coeff, rem = divmod(num[lead_num], den[lead_den])
        assert rem == 0
        expo = tuple(a - b for a, b in zip(lead_num, lead_den))
        quot[expo] = quot.get(expo, 0) + coeff
        for mono, c in den.items():
            key = tuple(a + b for a, b in zip(expo, mono))
            left = num.get(key, 0) - coeff * c
            if left:
                num[key] = left
            else:
                num.pop(key, None)
    return quot


def character_by_weyl_formula(rd: RootDatum, lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible with highest weight lam via
    the alternating orbit-sum quotient, in the integral rho-shifted form."""
    group = weyl_elements(rd)
    rho2 = two_rho(rd)
    num: dict[Weight, int] = {}
    den: dict[Weight, int] = {}
    lam2 = tuple(2 * x + r for x, r in zip(lam, rho2))
    for mat, sign in group:
        shifted_l = _apply(mat, lam2)
        shifted_r = _apply(mat, rho2)
        # divide the rho-shift back out: exponents (w(2lam+2rho) - 2rho)/2
        # and (w(2rho) - 2rho)/2 are integral weights
        key_l = tuple((a - r) for a, r in zip(shifted_l, rho2))
        key_r = tuple((a - r) for a, r in zip(shifted_r, rho2))
        assert all(c % 2 == 0 for c in key_l) and all(c % 2 == 0 for c in key_r)
        key_l = tuple(c // 2 for c in key_l)
        key_r = tuple(c // 2 for c in key_r)
        num[key_l] = num.get(key_l, 0) + sign
        den[key_r] = den.get(key_r, 0) + sign
    return _laurent_divide(num, den)


def character_product(rd: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Pointwise product of two oracle characters (a character of the tensor
    product), for support and multiplicity cross-checks."""
    ca = character_by_weyl_formula(rd, lam)
    cb = character_by_weyl_formula(rd, mu)
    out: dict[Weight, int] = {}
    for a, ma in ca.items():
        for b, mb in cb.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ma * mb
    return out


def character_product_bruteforce(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Independent oracle for tensor_decompose: convolve the two weight
    diagrams, then strip highest weights until the character is exhausted."""
    _dominant_labels(rd, lam)
    _dominant_labels(rd, mu)
    ta = weight_multiplicities(rd, lam)
    tb = weight_multiplicities(rd, mu)
    conv: dict[Weight, int] = {}
    for a, ma in ta.items():
        for b, mb in tb.items():
            key = tuple(x + y for x, y in zip(a, b))
            conv[key] = conv.get(key, 0) + ma * mb
    residue = {k: v for k, v in conv.items() if v}
    out: Decomposition = {}
    tables: dict[Weight, WeightTable] = {}
    while residue:
        if any(v < 0 for v in residue.values()):
            raise InconsistencyError("negative residue while stripping characters")
        dominant = [w for w in residue if is_dominant(rd, w)]
        if not dominant:
            raise InconsistencyError("nonzero residue without dominant support")
        maximal = [w for w in dominant
                   if not any(w != o and leq_dominance(rd, w, o) for o in dominant)]
        top = max(maximal)
        m = residue[top]
        if m < 0:
            raise InconsistencyError("negative residue while stripping characters")
        table = tables.get(top)
        if table is None:
            table = tables[top] = weight_multiplicities(rd, top)
        for w, c in table.items():
            left = residue.get(w, 0) - m * c
            if left:
                residue[w] = left
            else:
                residue.pop(w, None)
        out[top] = out.get(top, 0) + m
    return out


Expansion = tuple[dict[str, int], bool]  # id -> multiplicity, fully-expanded flag


def evidence_by_expansion(sr: AbstractSemiring, k_max: int) -> dict[tuple[str, str], tuple[Verdict, int]]:
    """Evidence (True, False or None for inconclusive, with the number of
    checkable exponents) for a ⪯ b on every ordered pair of ids, multiplying
    out powers with integer multiplicities."""
    powers: dict[tuple[str, int], Expansion] = {}
    times: dict[tuple[str, int, str], Expansion] = {}

    def multiply(expansion: Expansion, x: str) -> Expansion:
        terms, complete = expansion
        out: dict[str, int] = {}
        for y, m in terms.items():
            pterms, pcomplete = sr.product(y, x)
            if not pcomplete:
                complete = False
            for z, mz in pterms.items():
                out[z] = out.get(z, 0) + m * mz
        return out, complete

    def power(a: str, k: int) -> Expansion:
        if k < 1:
            return {sr.unit: 1}, True
        key = (a, k)
        cached = powers.get(key)
        if cached is None:
            cached = ({a: 1}, True) if k == 1 else multiply(power(a, k - 1), a)
            powers[key] = cached
        return cached

    def power_times(b: str, k: int, u: str) -> Expansion:
        key = (b, k, u)
        cached = times.get(key)
        if cached is None:
            cached = multiply(power(b, k), u)
            times[key] = cached
        return cached

    small = {x for x in sr.ids if power(x, k_max)[1]}

    def evidence(a: str, b: str) -> tuple[Verdict, int]:
        powers_a: dict[int, dict[str, int]] = {}
        for k in range(1, k_max + 1):
            terms, complete = power(a, k)
            if complete:
                powers_a[k] = terms
        checkable = sorted(powers_a)
        witness_found = False
        any_unknown = False
        for u in sr.ids:
            failed = False
            unknown = False
            for k in checkable:
                prod_terms, prod_complete = power_times(b, k, u)
                for nu in powers_a[k]:
                    if nu not in prod_terms:
                        if prod_complete:
                            failed = True
                        else:
                            unknown = True
                        break
                if failed:
                    break
            if failed:
                continue
            if unknown or (u not in small and len(checkable) < k_max):
                any_unknown = True
                continue
            witness_found = True
            break
        if witness_found and len(checkable) < 2:
            witness_found = False
            any_unknown = True
        verdict = True if witness_found else (None if any_unknown else False)
        return verdict, len(checkable)

    return {(a, b): evidence(a, b) for a in sr.ids for b in sr.ids}


class WitnessSemiring(AbstractSemiring):
    """``AbstractSemiring`` with the evidence kernel that works one witness
    at a time: a support is an (id bitmask, fully expanded) pair, each row
    holds the supports of ``ids[i] * x`` for one right factor x, and the
    support of b^k * u is multiplied out and cached per (b, k, u) as the
    loop over witnesses reaches u."""

    def __init__(self, ids, unit: str, products) -> None:
        super().__init__(ids, unit, products)
        self._bit = {x: 1 << i for i, x in enumerate(self.ids)}
        self._witness_rows: dict[str, list[Support]] = {}
        self._witness_powers: dict[tuple[str, int], Support] = {}
        self._times: dict[tuple[str, int, str], Support] = {}
        self._witness_evidence: dict[tuple[str, str, int], tuple[Verdict, int]] = {}

    def _row(self, x: str) -> list[Support]:
        row = self._witness_rows.get(x)
        if row is None:
            bit = self._bit
            row = []
            for y in self.ids:
                entry = self.product_table.get((y, x) if y <= x else (x, y))
                if entry is None:
                    row.append((0, False))
                else:
                    row.append((sum(bit[t] for t, _ in entry[0]), entry[1]))
            self._witness_rows[x] = row
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
        cached = self._witness_powers.get(key)
        if cached is None:
            cached = (self._bit[a], True) if k == 1 else self._multiply(self.power(a, k - 1), a)
            self._witness_powers[key] = cached
        return cached

    def power_times(self, b: str, k: int, u: str) -> Support:
        key = (b, k, u)
        cached = self._times.get(key)
        if cached is None:
            cached = self._multiply(self.power(b, k), u)
            self._times[key] = cached
        return cached

    def evidence(self, a: str, b: str, k_max: int) -> tuple[Verdict, int]:
        key = (a, b, k_max)
        cached = self._witness_evidence.get(key)
        if cached is not None:
            return cached
        if a not in self.id_set or b not in self.id_set:
            raise DomainError("evidence needs ids from the semiring")
        powers_a: dict[int, int] = {}
        for k in range(1, k_max + 1):
            mask, complete = self.power(a, k)
            if complete:
                powers_a[k] = mask
        checkable = sorted(powers_a)
        clipped = len(checkable) < k_max
        verdict: Verdict = False
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
            if unknown or (clipped and not self.power(u, k_max)[1]):
                verdict = None
                continue
            verdict = True
            break
        if verdict and len(checkable) < 2:
            verdict = None
        result = (verdict, len(checkable))
        self._witness_evidence[key] = result
        return result


def witness_semiring(sr: AbstractSemiring) -> WitnessSemiring:
    """The same dump as a ``WitnessSemiring``."""
    products = {key: (dict(terms), complete) for key, (terms, complete) in sr.product_table.items()}
    return WitnessSemiring(sr.ids, sr.unit, products)


def evidence_by_witness(sr: AbstractSemiring, k_max: int) -> dict[tuple[str, str], tuple[Verdict, int]]:
    """Evidence for a ⪯ b on every ordered pair of ids from the
    witness-by-witness kernel."""
    oracle = witness_semiring(sr)
    return {(a, b): oracle.evidence(a, b, k_max) for a in sr.ids for b in sr.ids}


def directed_verdict(sr: AbstractSemiring, cfg: ReconstructionConfig,
                     a: str, b: str) -> tuple[Verdict, int]:
    """Suppression-resolved verdict for a ⪯ b with the evidence strength.

    Opposing witness claims are ranked by how many exponents each side could
    actually check; ties suppress both claims to inconclusive.
    """
    va, sa = sr.evidence(a, b, cfg.k_max)
    vb, sb = sr.evidence(b, a, cfg.k_max)
    if va and vb and sb >= sa:
        return None, sa
    return va, sa


def preceq_by_directed_verdict(sr: AbstractSemiring, cfg: ReconstructionConfig, a: str, b: str) -> Verdict:
    """a ⪯ b on ids: the directed verdict, with a True kept only at strength
    k_max."""
    if a == b:
        return True
    verdict, strength = directed_verdict(sr, cfg, a, b)
    if verdict is True and strength < cfg.k_max:
        return None
    return verdict


def certified_sum_by_matrix(sr: AbstractSemiring, cfg: ReconstructionConfig,
                            a: str, b: str, min_grade: int) -> str:
    """The certified maximal constituent of a complete product from the
    directed verdicts of every ordered pair of its constituents: each
    non-maximal constituent must be eliminated by a True edge of strength
    >= min_grade."""
    if ((a, b) if a <= b else (b, a)) not in sr.product_table:
        raise InconclusiveError(f"product ({a},{b}) is not in the dump")
    terms, complete = sr.product(a, b)
    if not complete:
        raise InconclusiveError(f"incomplete product ({a},{b})")
    names = sorted(terms)
    if len(names) == 1:
        return names[0]
    verdicts = {(s, t): directed_verdict(sr, cfg, s, t)
                for s in names for t in names if s != t}
    candidates = [s for s in names
                  if not any(v and st >= min_grade
                             for v, st in (verdicts[(s, t)] for t in names if t != s))]
    if len(candidates) == 1:
        top = candidates[0]
        if any(verdicts[(s, top)][0] is False for s in names if s != top):
            raise InconsistencyError(
                f"constituent order of ({a},{b}) contradicts a unique maximum")
        return top
    if not candidates:
        raise InconsistencyError(f"no maximal constituent left in ({a},{b})")
    raise InconclusiveError(f"ambiguous maximum in product ({a},{b})")


def positive_functional_by_all_subsets(gens: tuple[tuple[int, ...], ...]) -> list[int]:
    """An integer functional positive on every generator: the first
    rank-sized subset of primitive rays, in lexicographic order, whose
    Cramer vertex reaches det(G) on every ray."""
    r = len(gens[0])
    rays = sorted({tuple(c // gcd(*(abs(x) for x in g)) for c in g) for g in gens})
    d, _, _ = smith_normal_form([list(g) for g in rays])
    k = sum(1 for i in range(min(len(rays), r)) if d[i][i] != 0)
    for combo in itertools.combinations(rays, k):
        gram = [[pairing(x, y) for y in combo] for x in combo]
        det = det_int(gram)
        if det == 0:
            continue
        mu = [det_int([row[:t] + [1] + row[t + 1:] for row in gram]) for t in range(k)]
        phi = [sum(m * ray[i] for m, ray in zip(mu, combo)) for i in range(r)]
        if all(pairing(phi, g) >= det for g in rays):
            return phi
    raise InconsistencyError("harvested root cone is not pointed")


def simple_roots_by_search(q_generators: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal nonzero elements of the semigroup generated by the vectors:
    a generator is dropped when some difference g - h with phi(g - h) >=
    min phi lies in the semigroup, decided by depth-first search."""
    gens = sorted(set(g for g in q_generators if any(g)))
    if not gens:
        return ()
    phi = positive_functional_by_all_subsets(tuple(gens))

    def phi_val(v: tuple[int, ...]) -> int:
        return sum(p * c for p, c in zip(phi, v))

    min_phi = min(phi_val(g) for g in gens)
    memo: dict[tuple[int, ...], bool] = {}

    def in_semigroup(v: tuple[int, ...]) -> bool:
        if v in memo:
            return memo[v]
        memo[v] = False
        stack = [[v, 0]]
        while stack:
            frame = stack[-1]
            u, k = frame
            if k == len(gens):
                stack.pop()
                continue
            w = tuple(x - y for x, y in zip(u, gens[k]))
            if not any(w) or (memo.get(w) and phi_val(w) >= min_phi):
                memo[u] = True
                stack.pop()
            elif w not in memo and phi_val(w) >= min_phi:
                memo[w] = False
                stack.append([w, 0])
            else:
                frame[1] += 1
        return memo[v]

    simples = []
    for g in gens:
        decomposable = False
        for h in gens:
            rest = tuple(x - y for x, y in zip(g, h))
            if any(rest) and phi_val(rest) >= min_phi and in_semigroup(rest):
                decomposable = True
                break
        if not decomposable:
            simples.append(g)
    return tuple(simples)


def simple_coroot_by_fractions(monoid: MonoidRecovery, alpha: tuple[int, ...]) -> tuple[int, ...]:
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


def _half(vec: tuple[int, ...]) -> Weight:
    for c in vec:
        if c % 2:
            raise InconsistencyError(f"vector {vec} is not even")
    return tuple(c // 2 for c in vec)


def tensor_by_doubled_fold(rd: RootDatum, lam: Weight, mu: Weight) -> tuple[tuple[Weight, int], ...]:
    """V_lam ⊗ V_mu as sorted (highest weight, multiplicity) pairs: fold
    2(lam + nu) + 2rho on labels for every weight nu of the smaller factor,
    accumulate on the halved target weight."""
    if weyl_dim(rd, mu) > weyl_dim(rd, lam):
        lam, mu = mu, lam
    cartan = cartan_matrix(rd)
    lam2 = [2 * x for x in lam]
    acc: dict[Weight, int] = {}
    for nu, m in weight_multiplicities(rd, mu).items():
        # 2(lam + nu) + 2rho has labels 2 <lam + nu, alpha_i^vee> + 2; its
        # fold minus 2rho is 2(lam + nu) - sum(c_i alpha_i), twice the target
        labels, coeffs, word = _fold_labels(
            cartan, [2 * pairing(lam, cov) + 2 * pairing(nu, cov) + 2 for cov in rd.simple_coroots])
        if 0 in labels:
            continue  # on a wall: cancels
        target = _half(_subtract_roots(rd, [a + 2 * b for a, b in zip(lam2, nu)], coeffs))
        sign = -1 if len(word) % 2 else 1
        acc[target] = acc.get(target, 0) + sign * m
    for m in acc.values():
        if m < 0:
            raise InconsistencyError("negative multiplicity from shift-reflect fold")
    return tuple(sorted((k, m) for k, m in acc.items() if m))


def weight_below_by_depth(rd: RootDatum, top: Weight, gap: Sequence[int]) -> Weight:
    """The weight in top - Q whose canonical labels are top's minus gap:
    top - sum(d_i alpha_i) over the canonical simple roots has labels
    labels(top) - A d, so its depth is d = A^-1 gap."""
    canon = datum_tables(rd).canonical
    tables = cartan_tables(cartan_matrix(canon))
    depth = [sum(r * g for r, g in zip(row, gap)) // tables.denominator for row in tables.inverse_rows]
    return _subtract_roots(canon, top, depth)


def semiring_to_json_by_dumps(sr: AbstractSemiring) -> str:
    """The dump file through the stdlib encoder: ``json.dumps`` of the
    document with ``indent=2`` and sorted keys."""
    products = []
    for (a, b), (terms, complete) in sorted(sr.product_table.items()):
        products.append({
            "a": a,
            "b": b,
            "terms": [{"id": t, "mult": m} for t, m in terms],
            "complete": complete,
        })
    doc = {"unit": sr.unit, "ids": list(sr.ids), "products": products}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def verify_reconstruction_by_diff(sr: AbstractSemiring, recovered: RecoveredDatum) -> list[str]:
    """The self-check's mismatches from a full diff of every labeled
    product, the reference for the term-tuple shortcut of
    ``verify_reconstruction``."""
    mism: list[str] = []
    labeling = recovered.labeling
    core = sorted(labeling)
    table = product_table(recovered.datum, [labeling[x] for x in core])
    for (i, j), (found, _, true_total) in table.items():
        a, b = core[i], core[j]  # i <= j and core is sorted, so a <= b
        if (a, b) not in sr.product_table:
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


def lp_feasible_point_by_fractions(rows, rhs) -> list[Fraction] | None:
    """Exact feasibility for {x >= 0 : rows * x = rhs} by phase-1 simplex
    on a ``Fraction`` tableau, normalizing the pivot row at each pivot, with
    Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [Fraction(0)] * n
    # tableau: n structural columns, m artificial columns, rhs; plus objective row
    tab: list[list[Fraction]] = []
    for i in range(m):
        r = [Fraction(x) for x in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-x for x in r]
            b = -b
        tab.append(r + [Fraction(0)] * m + [b])
        tab[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    # maximize -(sum of artificials); reduced costs for the initial basis
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        obj[j] = sum(tab[i][j] for i in range(m))
    obj[-1] = sum(tab[i][-1] for i in range(m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unreachable for a phase-1 objective; defensive
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x


def conv_hull_leq_by_orbit(rd: RootDatum, lam: Weight, mu: Weight) -> bool:
    """Conv(W lam) ⊆ Conv(W mu), decided point by point: one feasibility LP
    on the ``Fraction`` simplex for each point of W lam."""
    if not is_dominant(rd, lam) or not is_dominant(rd, mu):
        raise DomainError("conv_hull_leq needs dominant weights")
    hull_points = weyl_orbit(rd, mu)
    n = len(hull_points)
    for v in weyl_orbit(rd, lam):
        rows = [[hull_points[j][i] for j in range(n)] for i in range(rd.rank)]
        rows.append([1] * n)
        rhs = list(v) + [1]
        if lp_feasible_point_by_fractions(rows, rhs) is None:
            return False
    return True


def smith_normal_form_dense(a: Sequence[Sequence[int]]
                            ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix, with v kept as dense rows and
    a pivot scan over the whole trailing submatrix.

    Returns (d, u, v) with d = u * a * v, u and v unimodular, d diagonal with
    d[0][0] | d[1][1] | ... and nonnegative diagonal entries.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def row_add(i: int, j: int, c: int) -> None:
        for k in range(n):
            d[i][k] += c * d[j][k]
        for k in range(m):
            u[i][k] += c * u[j][k]

    def col_add(i: int, j: int, c: int) -> None:
        for k in range(m):
            d[k][i] += c * d[k][j]
        for k in range(n):
            v[k][i] += c * v[k][j]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for k in range(m):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        for k in range(n):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def reduce_at(t: int) -> bool:
        """Diagonalize position t against the trailing submatrix."""
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    piv = (i, j)
                    best = abs(d[i][j])
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
            j = next((j for j in range(t + 1, n) if d[t][j] != 0), None)
            if j is not None:
                q = d[t][j] // d[t][t]
                col_add(j, t, -q)
                if d[t][j] != 0:
                    col_swap(t, j)
                continue
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
    return d, u, v
