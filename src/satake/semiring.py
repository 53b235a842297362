"""The Grothendieck semiring of a split reductive group: weight
multiplicities, dimensions, tensor decomposition, and PRV components.

A decomposition is a plain dict mapping dominant highest weights to positive
integer multiplicities.  Multiplicities are Python ints, so arbitrary
precision comes for free.
"""
from __future__ import annotations

from functools import lru_cache
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


def _half(vec: tuple[int, ...]) -> Weight:
    for c in vec:
        if c % 2:
            raise InconsistencyError(f"vector {vec} is not even")
    return tuple(c // 2 for c in vec)


@lru_cache(maxsize=65536)
def _tensor_cached(rd: RootDatum, lam: Weight, mu: Weight) -> tuple[tuple[Weight, int], ...]:
    if weyl_dim(rd, mu) > weyl_dim(rd, lam):
        lam, mu = mu, lam
    cartan = cartan_matrix(rd)
    lam_labels = [2 * pairing(lam, cov) + 2 for cov in rd.simple_coroots]
    lam2 = [2 * x for x in lam]
    acc: dict[Weight, int] = {}
    for nu, nu_labels, m in _weight_table(rd, mu):
        # 2(lam + nu) + 2rho has labels 2 lam_i + 2 nu_i + 2; its fold minus
        # 2rho is 2(lam + nu) - sum(c_i alpha_i), twice the target
        labels, coeffs, word = _fold_labels(cartan, [a + 2 * b for a, b in zip(lam_labels, nu_labels)])
        if 0 in labels:
            continue  # on a wall: cancels
        target = _half(_subtract_roots(rd, [a + 2 * b for a, b in zip(lam2, nu)], coeffs))
        sign = -1 if len(word) % 2 else 1
        acc[target] = acc.get(target, 0) + sign * m
    for m in acc.values():
        if m < 0:
            raise InconsistencyError("negative multiplicity from shift-reflect fold")
    return tuple(sorted((k, m) for k, m in acc.items() if m))


def tensor_decompose(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V_lam ⊗ V_mu by the shift-reflect (Klimyk) rule: walk the
    weight diagram of the smaller factor, rho-shift, and fold signed terms
    into the dominant chamber."""
    _check_dominant(rd, lam)
    _check_dominant(rd, mu)
    return dict(_tensor_cached(rd, tuple(lam), tuple(mu)))


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
