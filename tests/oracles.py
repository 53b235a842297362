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
normal form), the references for the per-datum tables in ``lattice``.  The
expansion oracle recomputes order evidence from multiplicity dicts built on
the public ``product``, the reference for the id-bitmask supports of
``AbstractSemiring.evidence``; the all-subsets oracle tries every rank-sized
subset of the rays by Cramer's rule, deciding independently of the simplex
behind ``reconstruct._positive_functional`` whether the cone is pointed; the
unpruned semigroup search takes its functional from the all-subsets oracle
and tests every difference of two generators by depth-first search, the
reference for ``reconstruct.extract_simple_roots``.  The doubled-fold oracle
is the Klimyk product keyed by weights, walking the weight diagram from
``weight_multiplicities``, folding twice the rho-shifted labels and halving
each target, the reference for the label-keyed ``_label_product``; the
``json.dumps`` writer is the reference for the dump writer.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

from satake.errors import InconsistencyError
from satake.lattice import (
    RootDatum,
    Weight,
    WeylWord,
    _fold_labels,
    _subtract_roots,
    cartan_matrix,
    dual_root_datum,
    is_dominant,
    pairing,
    reflect,
    two_rho,
)
from satake.linalg import det_int, smith_normal_form, solve_rational
from satake.reconstruct import AbstractSemiring
from satake.semiring import weight_multiplicities, weyl_dim


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


Expansion = tuple[dict[str, int], bool]  # id -> multiplicity, fully-expanded flag


def evidence_by_expansion(sr: AbstractSemiring, k_max: int) -> dict[tuple[str, str], tuple[str, int]]:
    """Evidence ('T'|'F'|'?', checkable exponents) for a ⪯ b on every ordered
    pair of ids, multiplying out powers with integer multiplicities."""
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

    def evidence(a: str, b: str) -> tuple[str, int]:
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
        verdict = "T" if witness_found else ("?" if any_unknown else "F")
        return verdict, len(checkable)

    return {(a, b): evidence(a, b) for a in sr.ids for b in sr.ids}


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
