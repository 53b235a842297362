"""The Grothendieck semiring of a split reductive group: weight
multiplicities, dimensions, tensor decomposition, and PRV components.

A decomposition is a plain dict mapping dominant highest weights to positive
integer multiplicities.  Multiplicities are Python ints, so arbitrary
precision comes for free.

Products follow Brauer-Klimyk on Dynkin labels (Stembridge, MSJ Memoirs 11;
LiE's ``tensor``): the rho-shift adds 1 to each label, terms whose labels
are already positive need no fold, and a weight is computed once per
distinct folded constituent.  ``product_table`` builds the all-pairs table
of a weight list, which both the forward dump and the reconstruction
self-check read.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Sequence

from .errors import DomainError, InconsistencyError
from .lattice import (
    RootDatum,
    Weight,
    WeylWord,
    _fold_labels,
    _subtract_roots,
    apply_word,
    cartan_matrix,
    coroot_height,
    dominant_below,
    dominant_representative,
    is_dominant,
    leq_dominance,
    pairing,
    positive_roots_with_coroots,
    two_rho,
    weyl_orbit,
)

Decomposition = dict[Weight, int]
WeightTable = dict[Weight, int]


def _check_dominant(rd: RootDatum, lam: Weight) -> None:
    if not is_dominant(rd, lam):
        raise DomainError(f"weight {lam} is not dominant")


def _invariant_form(rd: RootDatum):
    """W-invariant symmetric form B(x, y) = sum over positive coroots of
    <x, c><y, c>.  Integer-valued, positive definite on the root span."""
    covs = [cov for _, cov in positive_roots_with_coroots(rd)]

    def form(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(pairing(x, c) * pairing(y, c) for c in covs)

    return form


@lru_cache(maxsize=4096)
def _weight_table(rd: RootDatum, lam: Weight) -> tuple[tuple[Weight, tuple[int, ...], int], ...]:
    """The weight diagram of V_lam as sorted (weight, Dynkin labels, mult)."""
    doms = dominant_below(rd, lam)
    if rd.semisimple_rank == 0:
        return ((tuple(lam), (), 1),)
    form = _invariant_form(rd)
    roots = positive_roots_with_coroots(rd)
    # heights doubled: coroot_height is twice the height on the root lattice
    root_heights = [coroot_height(rd, root) for root, _ in roots]
    rho2 = two_rho(rd)
    lam_height = coroot_height(rd, lam)
    heights = {nu: lam_height - coroot_height(rd, nu) for nu in doms}
    assert all(h % 2 == 0 for h in heights.values())
    by_height = sorted(doms, key=lambda nu: (heights[nu], nu))
    mult: dict[Weight, int] = {}
    lam_vec = tuple(2 * x + r for x, r in zip(lam, rho2))
    lam_norm = form(lam_vec, lam_vec)
    for nu in by_height:
        if nu == tuple(lam):
            mult[nu] = 1
            continue
        height = heights[nu]
        acc = 0
        for (root, _), root_height in zip(roots, root_heights):
            k = 1
            while k * root_height <= height:
                shifted = tuple(x + k * r for x, r in zip(nu, root))
                rep, _ = dominant_representative(rd, shifted)
                m = mult.get(rep)
                if m:
                    acc += m * form(shifted, root)
                k += 1
        nu_vec = tuple(2 * x + r for x, r in zip(nu, rho2))
        denom = lam_norm - form(nu_vec, nu_vec)
        if denom <= 0:
            raise InconsistencyError("Freudenthal denominator must be positive")
        value, rem = divmod(8 * acc, denom)
        if rem != 0 or value <= 0:
            raise InconsistencyError("Freudenthal recursion produced a non-multiplicity")
        mult[nu] = value
    table: dict[Weight, int] = {}
    for nu, m in mult.items():
        for w in weyl_orbit(rd, nu):
            table[w] = m
    return tuple((w, tuple(pairing(w, cov) for cov in rd.simple_coroots), m)
                 for w, m in sorted(table.items()))


def weight_multiplicities(rd: RootDatum, lam: Weight) -> WeightTable:
    """Full weight diagram of the irreducible with highest weight lam, by
    Freudenthal recursion over the dominant weights below lam."""
    _check_dominant(rd, lam)
    return {w: m for w, _, m in _weight_table(rd, tuple(lam))}


@lru_cache(maxsize=65536)
def _weyl_dim_cached(rd: RootDatum, lam: Weight) -> int:
    rho2 = two_rho(rd)
    num = 1
    den = 1
    shifted = tuple(2 * x + r for x, r in zip(lam, rho2))
    for _, cov in positive_roots_with_coroots(rd):
        num *= pairing(shifted, cov)
        den *= pairing(rho2, cov)
    value, rem = divmod(num, den)
    assert rem == 0 and value >= 1
    return value


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam, via the Weyl
    dimension formula in the all-integer 2rho convention."""
    _check_dominant(rd, lam)
    return _weyl_dim_cached(rd, tuple(lam))


@lru_cache(maxsize=65536)
def _tensor_cached(rd: RootDatum, lam: Weight, mu: Weight) -> tuple[tuple[Weight, int], ...]:
    if _weyl_dim_cached(rd, mu) > _weyl_dim_cached(rd, lam):
        lam, mu = mu, lam
    cartan = cartan_matrix(rd)
    # lam + nu + rho has labels lam_i + nu_i + 1: rho's labels are all 1
    shift = tuple(pairing(lam, cov) + 1 for cov in rd.simple_coroots)
    # keyed by folded labels: every target lies in lam + mu + Q, and no
    # nonzero element of Q has all labels 0, so the labels fix the target
    acc: dict[tuple[int, ...], list] = {}
    for nu, nu_labels, m in _weight_table(rd, mu):
        labels = tuple(map(add, shift, nu_labels))
        coeffs = None
        if min(labels, default=1) <= 0:
            folded, coeffs, word = _fold_labels(cartan, labels)
            if 0 in folded:
                continue  # on a wall: cancels
            labels = tuple(folded)
            if len(word) % 2:
                m = -m
        entry = acc.get(labels)
        if entry is None:
            # w(lam + nu + rho) - rho = lam + nu - sum(c_i alpha_i)
            target = tuple(map(add, lam, nu))
            if coeffs is not None:
                target = _subtract_roots(rd, target, coeffs)
            acc[labels] = [target, m]
        else:
            entry[1] += m
    if any(m < 0 for _, m in acc.values()):
        raise InconsistencyError("negative multiplicity from shift-reflect fold")
    return tuple(sorted((target, m) for target, m in acc.values() if m))


def tensor_decompose(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V_lam ⊗ V_mu by the shift-reflect (Klimyk) rule: walk the
    weight diagram of the smaller factor, add 1 to each Dynkin label of
    lam + nu (the rho-shift), and fold the signed terms into the dominant
    chamber, where they cancel or add up by their folded labels."""
    _check_dominant(rd, lam)
    _check_dominant(rd, mu)
    return dict(_tensor_cached(rd, tuple(lam), tuple(mu)))


def product_table(rd: RootDatum, weights: Sequence[Weight]
                  ) -> dict[tuple[int, int], tuple[tuple[Weight, int], ...]]:
    """All pairwise products of a weight list, the table behind a dump and
    its self-check: (i, j) with i <= j maps to V_{weights[i]} ⊗
    V_{weights[j]} as sorted (highest weight, multiplicity) pairs.  Each
    weight is checked for dominance once, and each product comes from the
    cache tensor_decompose reads."""
    weights = [tuple(w) for w in weights]
    for w in weights:
        _check_dominant(rd, w)
    return {(i, j): _tensor_cached(rd, lam, weights[j])
            for i, lam in enumerate(weights) for j in range(i, len(weights))}


def character_product_bruteforce(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Independent oracle for tensor_decompose: convolve the two weight
    diagrams, then strip highest weights until the character is exhausted."""
    _check_dominant(rd, lam)
    _check_dominant(rd, mu)
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
        assert dominant, "nonzero residue without dominant support"
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


def multiply_decompositions(rd: RootDatum, da: Decomposition, db: Decomposition) -> Decomposition:
    """Product in the semiring: bilinear extension of tensor_decompose."""
    out: Decomposition = {}
    for a, ma in da.items():
        for b, mb in db.items():
            for c, mc in tensor_decompose(rd, a, b).items():
                out[c] = out.get(c, 0) + ma * mb * mc
    return out


def unit_decomposition(rd: RootDatum) -> Decomposition:
    return {(0,) * rd.rank: 1}


def power_decompose(rd: RootDatum, lam: Weight, k: int) -> Decomposition:
    """k-fold tensor power of V_lam, by iterated decomposition."""
    if k < 0:
        raise DomainError("tensor power needs k >= 0")
    _check_dominant(rd, lam)
    return tensor_decompose_list(rd, [tuple(lam)] * k)


def tensor_decompose_list(rd: RootDatum, weights: Sequence[Weight]) -> Decomposition:
    """Decomposition of V_{w1} ⊗ ... ⊗ V_{wn} (the unit for an empty list)."""
    acc = unit_decomposition(rd)
    for w in weights:
        _check_dominant(rd, w)
        acc = multiply_decompositions(rd, acc, {tuple(w): 1})
    return acc


def prv_multiplicity(rd: RootDatum, mus: Sequence[Weight], words: Sequence[WeylWord]) -> tuple[Weight, int]:
    """The dominant representative of sum_i w_i(mu_i) and its multiplicity in
    the tensor product of the V_{mu_i}.  The PRV theorem promises >= 1."""
    if not mus or len(mus) != len(words):
        raise DomainError("prv_multiplicity needs matching nonempty lists")
    for mu in mus:
        _check_dominant(rd, mu)
    total = [0] * rd.rank
    for mu, word in zip(mus, words):
        moved = apply_word(rd, word, tuple(mu))
        for i, c in enumerate(moved):
            total[i] += c
    lam, _ = dominant_representative(rd, tuple(total))
    product = tensor_decompose_list(rd, [tuple(m) for m in mus])
    return lam, product.get(lam, 0)
