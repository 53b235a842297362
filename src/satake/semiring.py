"""The Grothendieck semiring of a split reductive group: weight
multiplicities, dimensions, tensor decomposition, and PRV components.

A decomposition is a plain dict mapping dominant highest weights to positive
integer multiplicities.  Multiplicities are Python ints, so arbitrary
precision comes for free.

Multiplicities depend only on the Cartan matrix and the Dynkin labels, not
on the lattice basis, so the kernel runs on labels and its caches are keyed
by (Cartan matrix, labels), as in LiE and Stembridge (MSJ Memoirs 11): data
that share a Cartan matrix in different bases, such as a dumped datum and
the one reconstructed from its dump, share every diagram and product.

- ``_label_diagram`` runs Freudenthal's recursion over the dominant weights
  below lam from ``lattice._dominant_depths``, with the invariant form on
  labels from ``lattice.cartan_tables``, and expands each to its orbit with
  ``lattice._label_orbit`` (``dominant_below`` and ``weyl_orbit`` share
  both).  It carries each weight of V_lam as its labels and its depth d, the
  weight being lam - sum(d_i alpha_i).
- ``_label_product`` is the Brauer-Klimyk product: the rho-shift adds 1 to
  each label, and each term's shifted labels go through the chamber memo
  of the Cartan matrix (``_chamber``), which maps them to the labels and
  sign of the constituent they fold to, or to a wall.  A miss folds once
  with ``lattice._fold_labels``; the products of a dump repeat almost every
  fold.  The Freudenthal inner fold in ``_label_diagram`` and
  ``dominant_representative`` still call ``_fold_labels`` directly.
- ``tensor_decompose_list`` multiplies a list of factors on labels and turns
  labels into weights once, at the end: a constituent of V_w1 ⊗ ... ⊗ V_wn
  lies in w1 + ... + wn - Q, where its labels fix it.  ``tensor_decompose``,
  powers and PRV go through it, so ``_label_product`` is the only product
  cache.

``product_table`` builds the all-pairs table of a weight list, which both
the forward dump and the reconstruction self-check read, without building a
weight vector: it matches constituents to the list by labels and X/Q class.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Sequence

from .errors import DomainError, InconsistencyError
from .lattice import (
    CartanTables,
    RootDatum,
    Weight,
    WeylWord,
    _dominant_depths,
    _dominant_labels,
    _fold_labels,
    _label_orbit,
    _labels,
    _subtract_roots,
    apply_word,
    cartan_matrix,
    cartan_tables,
    class_mod_root_lattice,
    datum_tables,
    dominant_representative,
    is_dominant,
    leq_dominance,
)

Decomposition = dict[Weight, int]
WeightTable = dict[Weight, int]
Cartan = tuple[tuple[int, ...], ...]
Labels = tuple[int, ...]


@lru_cache(maxsize=4096)
def _label_diagram(cartan: Cartan, labels: Labels) -> tuple[tuple[Labels, tuple[int, ...], int], ...]:
    """The weight diagram of the irreducible with the given labels, as
    (labels, depth, multiplicity) for every weight.

    Freudenthal: m(nu) (|lam+rho|^2 - |nu+rho|^2) = 2 sum over positive
    roots alpha and k >= 1 of m(nu + k alpha) (nu + k alpha, alpha), taken
    over the dominant nu by increasing depth.  nu + k alpha lies below lam
    only while k times alpha's coefficients stays within nu's depth, which
    bounds k; its multiplicity is that of its folded labels.
    """
    tables = cartan_tables(cartan)
    form = tables.form
    # per positive root: coefficients, labels, G labels and (alpha, alpha)
    roots = []
    for (coeffs, _), root_labels, length in zip(tables.roots, tables.root_labels, tables.root_norms):
        pulled = tuple(sum(g * r for g, r in zip(row, root_labels)) for row in form)
        roots.append((coeffs, root_labels, pulled, length))

    def shifted_norm(nu: Labels) -> int:
        # (nu + rho, nu + rho): rho's labels are all 1
        v = [x + 1 for x in nu]
        return sum(x * sum(g * y for g, y in zip(row, v)) for x, row in zip(v, form))

    top = shifted_norm(labels)
    mult: dict[Labels, int] = {}
    depths: dict[Labels, tuple[int, ...]] = {}
    for depth, nu in sorted(_dominant_depths(cartan, labels), key=lambda e: (sum(e[0]), e[0])):
        depths[nu] = depth
        if not any(depth):
            mult[nu] = 1
            continue
        acc = 0
        for coeffs, root_labels, pulled, length in roots:
            base = sum(x * y for x, y in zip(nu, pulled))
            reach = min(d // c for d, c in zip(depth, coeffs) if c)
            for k in range(1, reach + 1):
                shifted = tuple(x + k * r for x, r in zip(nu, root_labels))
                if min(shifted) < 0:
                    shifted = tuple(_fold_labels(cartan, shifted)[0])
                m = mult.get(shifted)
                if m:
                    acc += m * (base + k * length)
        denom = top - shifted_norm(nu)
        if denom <= 0:
            raise InconsistencyError("Freudenthal denominator must be positive")
        value, rem = divmod(2 * acc, denom)
        if rem != 0 or value <= 0:
            raise InconsistencyError("Freudenthal recursion produced a non-multiplicity")
        mult[nu] = value
    diagram = []
    for nu, m in mult.items():
        diagram.extend((w, d, m) for w, d in _label_orbit(cartan, nu, depths[nu]).items())
    return tuple(diagram)


def weight_multiplicities(rd: RootDatum, lam: Weight) -> WeightTable:
    """Full weight diagram of the irreducible with highest weight lam, by
    Freudenthal recursion over the dominant weights below lam."""
    labels = _dominant_labels(rd, lam)
    return dict(sorted((_subtract_roots(rd, lam, d), m)
                       for _, d, m in _label_diagram(cartan_matrix(rd), labels)))


@lru_cache(maxsize=65536)
def _label_dim(cartan: Cartan, labels: Labels) -> int:
    """Weyl's dimension formula: the product over positive coroots
    sum n_i alpha_i^vee of <lam + rho, coroot> / <rho, coroot>, which is
    sum n_i (labels_i + 1) over sum n_i."""
    num = 1
    den = 1
    for _, n in cartan_tables(cartan).roots:
        num *= sum(c * (x + 1) for c, x in zip(n, labels))
        den *= sum(n)
    value, rem = divmod(num, den)
    assert rem == 0 and value >= 1
    return value


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam, via the Weyl
    dimension formula on Dynkin labels."""
    return _label_dim(cartan_matrix(rd), _dominant_labels(rd, lam))


@lru_cache(maxsize=1024)
def _chamber(cartan: Cartan) -> dict[Labels, tuple[Labels, int] | None]:
    """The chamber memo of a Cartan matrix, filled by ``_label_product``:
    rho-shifted labels map to the labels and sign of the constituent they
    fold to, or to None on a wall."""
    return {}


@lru_cache(maxsize=65536)
def _label_product(cartan: Cartan, a: Labels, b: Labels) -> tuple[tuple[Labels, int], ...]:
    """V_a ⊗ V_b on labels: (labels, multiplicity) of every constituent.

    Walks the weight diagram of the smaller factor and looks up each term's
    rho-shifted labels in the chamber memo; a miss folds them once with
    ``_fold_labels``.  Terms accumulate on their constituent's labels: every
    constituent lies in lam + mu + Q, and no nonzero element of Q has all
    labels 0, so the labels fix the constituent.
    """
    if _label_dim(cartan, b) > _label_dim(cartan, a):
        a, b = b, a
    # lam + nu + rho has labels lam_i + nu_i + 1: rho's labels are all 1
    shift = tuple(x + 1 for x in a)
    chamber = _chamber(cartan)
    acc: dict[Labels, int] = {}
    for nu, _, m in _label_diagram(cartan, b):
        labels = tuple(map(add, shift, nu))
        try:
            entry = chamber[labels]
        except KeyError:
            folded, _, word = _fold_labels(cartan, labels)
            entry = chamber[labels] = None if 0 in folded else (
                tuple([x - 1 for x in folded]), -1 if len(word) % 2 else 1)
        if entry is not None:
            constituent, sign = entry
            acc[constituent] = acc.get(constituent, 0) + sign * m
    if any(m < 0 for m in acc.values()):
        raise InconsistencyError("negative multiplicity from shift-reflect fold")
    return tuple((labels, m) for labels, m in acc.items() if m)


def _product_terms(cartan: Cartan, a: Labels, b: Labels) -> tuple[tuple[Labels, int], ...]:
    """_label_product under one key for both orders of the factors."""
    return _label_product(cartan, a, b) if a <= b else _label_product(cartan, b, a)


def _weight_below(rd: RootDatum, tables: CartanTables, top: Weight, gap: Labels) -> Weight:
    """The weight in top - Q whose labels are top's minus gap: top -
    sum(d_i alpha_i) has labels labels(top) - A d, so its depth is
    d = A^-1 gap."""
    depth = [sum(r * g for r, g in zip(row, gap)) // tables.denominator for row in tables.inverse_rows]
    return _subtract_roots(rd, top, depth)


def tensor_decompose(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V_lam ⊗ V_mu by the shift-reflect (Klimyk) rule: walk the
    weight diagram of the smaller factor, add 1 to each Dynkin label of
    lam + nu (the rho-shift), and fold the signed terms into the dominant
    chamber, where they cancel or add up by their folded labels."""
    return tensor_decompose_list(rd, [lam, mu])


def product_table(rd: RootDatum, weights: Sequence[Weight]
                  ) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], int, int]]:
    """All pairwise products of a weight list, the table behind a dump and
    its self-check.  (i, j) with i <= j maps V_{weights[i]} ⊗ V_{weights[j]}
    to its constituents that are in the list, as sorted (index,
    multiplicity) pairs, the number of its constituents, and their total
    multiplicity.

    Each weight is checked for dominance once.  A constituent is matched to
    the list by its labels and X/Q class, which fix it (labels are injective
    on Q); its class is the sum of the factors' classes.  A weight listed
    twice is matched at its last index.
    """
    cartan = cartan_matrix(rd)
    labels = [_dominant_labels(rd, w) for w in weights]
    classes = [class_mod_root_lattice(rd, w) for w in weights]
    divisors = datum_tables(rd).root_lattice_divisors
    by_class: dict[tuple[int, ...], dict[Labels, int]] = {}
    for k, (lab, cls) in enumerate(zip(labels, classes)):
        by_class.setdefault(cls, {})[lab] = k
    table = {}
    for i, (a, ca) in enumerate(zip(labels, classes)):
        for j in range(i, len(labels)):
            cls = tuple((x + y) % d if d else x + y for x, y, d in zip(ca, classes[j], divisors))
            index = by_class.get(cls, {})
            terms = _product_terms(cartan, a, labels[j])
            found = [(index[nu], m) for nu, m in terms if nu in index]
            table[(i, j)] = (tuple(sorted(found)), len(terms), sum(m for _, m in terms))
    return table


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


def power_decompose(rd: RootDatum, lam: Weight, k: int) -> Decomposition:
    """k-fold tensor power of V_lam, by iterated decomposition."""
    if k < 0:
        raise DomainError("tensor power needs k >= 0")
    _dominant_labels(rd, lam)
    return tensor_decompose_list(rd, [tuple(lam)] * k)


def tensor_decompose_list(rd: RootDatum, weights: Sequence[Weight]) -> Decomposition:
    """Decomposition of V_{w1} ⊗ ... ⊗ V_{wn} (the unit for an empty list),
    sorted by weight.  Each factor is checked for dominance once; the
    products accumulate on labels, from the zero labels, and each
    constituent gets its weight once, below w1 + ... + wn."""
    cartan = cartan_matrix(rd)
    factors = [_dominant_labels(rd, w) for w in weights]
    acc: dict[Labels, int] = {(0,) * len(cartan): 1}
    for b in factors:
        nxt: dict[Labels, int] = {}
        for a, ma in acc.items():
            for c, mc in _product_terms(cartan, a, b):
                nxt[c] = nxt.get(c, 0) + ma * mc
        acc = nxt
    top = tuple(sum(w[i] for w in weights) for i in range(rd.rank))
    top_labels = _labels(rd, top)
    tables = cartan_tables(cartan)
    return dict(sorted((_weight_below(rd, tables, top, tuple(map(sub, top_labels, labels))), m)
                       for labels, m in acc.items()))


def prv_multiplicity(rd: RootDatum, mus: Sequence[Weight], words: Sequence[WeylWord]) -> tuple[Weight, int]:
    """The dominant representative of sum_i w_i(mu_i) and its multiplicity in
    the tensor product of the V_{mu_i}.  The PRV theorem promises >= 1."""
    if not mus or len(mus) != len(words):
        raise DomainError("prv_multiplicity needs matching nonempty lists")
    product = tensor_decompose_list(rd, mus)
    total = [0] * rd.rank
    for mu, word in zip(mus, words):
        moved = apply_word(rd, word, tuple(mu))
        for i, c in enumerate(moved):
            total[i] += c
    lam, _ = dominant_representative(rd, tuple(total))
    return lam, product.get(lam, 0)
