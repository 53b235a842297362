"""The Grothendieck semiring of a split reductive group: weight
multiplicities, dimensions, tensor decomposition, and PRV components.

A decomposition is a plain dict mapping dominant highest weights to positive
integer multiplicities.  Multiplicities are Python ints, so arbitrary
precision comes for free.

Multiplicities depend only on the Cartan matrix and the Dynkin labels, not
on the lattice basis, so the kernel runs on labels and its caches are keyed
by (Cartan matrix, labels), as in LiE and Stembridge (MSJ Memoirs 11).  The
Cartan matrix is taken in its canonical node order
(``lattice.cartan_tables``): the entry points ``weight_multiplicities``,
``weyl_dim``, ``tensor_decompose_list``, ``power_decompose`` and
``product_table`` read labels through
``datum_tables(rd).canonical``, the datum with its simple roots in that
order, and so return the same weights in the datum's own basis.  Data that
share a Cartan matrix up to the numbering of its nodes, in any lattice
basis, share every diagram and product: a dumped datum and the one
reconstructed from its dump, whose simple roots come back sorted, do.

- ``_label_diagram`` runs Freudenthal's recursion over the dominant weights
  below lam from ``lattice._dominant_depths``, with the invariant form on
  labels from ``lattice.cartan_tables``, and expands each to its orbit with
  ``lattice._label_orbit`` (``dominant_below`` and ``weyl_orbit`` share
  both).  It keeps V_lam as two columns, the labels of each weight and its
  multiplicity; ``weight_multiplicities`` reads weights off the labels with
  ``_weights``.
- ``_label_product`` is the Brauer-Klimyk product: the rho-shift adds 1 to
  each label, and each term's shifted labels go through the chamber memo
  of the Cartan matrix (``_chamber``), which maps them to the labels and
  sign of the constituent they fold to, or to a wall.  A miss folds once
  with ``lattice._fold_labels``; the products of a dump repeat almost every
  fold.  The Freudenthal inner fold in ``_label_diagram`` and
  ``dominant_representative`` still call ``_fold_labels`` directly.
- ``tensor_decompose_list`` multiplies a list of factors on labels, one
  ``_times`` step per factor, and turns labels into weights once, at the
  end (``_weights``): a constituent of V_w1 ⊗ ... ⊗ V_wn lies in
  w1 + ... + wn - Q, where its labels fix it, and the ``weight_rows`` of
  ``datum_tables`` give that weight in one matrix-vector product.
  ``tensor_decompose`` and PRV go through it.  ``power_decompose`` takes
  V^k from ``_label_power``, which caches each power on labels and extends
  the cached V^(k-1) by one ``_times`` step, so products are cached twice:
  pairs in ``_label_product`` and powers in ``_label_power``.  Diagrams,
  products and powers are all (labels, multiplicities) column pairs.

``product_table`` builds the all-pairs table of a weight list, which both
the forward dump and the reconstruction self-check read, without building a
weight vector: it matches constituents to the list by canonical labels and
X/Q class, so its table needs no permutation back.

A diagram automorphism p of the canonical Cartan matrix (``symmetries`` in
``lattice.CartanTables``: the A_n and D_n flips, D4's triality, E6's flip
and swaps of equal components) permutes the simple roots and leaves every
label-level computation as it is, so V_(a p) ⊗ V_(b p) is V_a ⊗ V_b with
every constituent's labels permuted by p.  ``product_table`` therefore
computes one product per class of unordered pairs, and
``_label_diagram`` one diagram per class of labels.  ``_label_diagram``
takes the least image of the labels (``_least_image``).
``product_table`` finds each weight's least image once per list and
picks a pair's image from those: the factor with the lesser key leads,
and when exactly one choice of walks reaches the lead's least image
(``_sole_image``) the pair takes those walks with no search; data with no
diagram automorphism take every pair as it is.  The key of a least image
is the same for every image of the weight, so each class of pairs still
gets one image.  This is exact whatever the lattice X: p acts on labels
only, the products never see X, and ``product_table`` takes each
constituent's X/Q class from the factors' weights, then finds it in the
list by its labels permuted by p.  p need not be an automorphism of the
datum (SL2 x PGL2's node swap is not).  Lists, powers and PRV keep taking their products as
they come (``_product_terms``).
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, mul
from typing import Sequence

from .errors import DomainError, InconsistencyError
from .lattice import (
    RootDatum,
    Symmetries,
    Weight,
    WeylWord,
    _count,
    _dominant_depths,
    _dominant_labels,
    _fold_labels,
    _label_orbit,
    _labels,
    apply_word,
    cartan_matrix,
    cartan_tables,
    class_mod_root_lattice,
    datum_tables,
    dominant_representative,
)

Decomposition = dict[Weight, int]
WeightTable = dict[Weight, int]
Cartan = tuple[tuple[int, ...], ...]
Labels = tuple[int, ...]
# constituents or weights beside their multiplicities, one entry each
Terms = tuple[tuple[Labels, ...], tuple[int, ...]]


def _reads(symmetries: Symmetries, labels: Labels) -> tuple[tuple[tuple[Labels, ...], ...], ...]:
    """The labels read along every walk of every component in the
    ``symmetries`` of a Cartan matrix (``lattice.CartanTables``)."""
    return tuple(tuple(tuple(tuple([labels[node] for node in walk]) for walk in walks) for walks in group)
                 for group in symmetries)


def _least_image(symmetries: Symmetries, *reads) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The least image of a tuple of label vectors under the diagram
    automorphisms of a Cartan matrix, from the vectors' ``_reads``, as
    (key, walks).  Per class of components, each component keeps its least
    read over its walks, all vectors at once, and the components are
    sorted by what they keep.  The key is those reads, the same for every
    image of the vectors; ``walks`` holds the walk of each read, in slot
    order.  The cost grows with the number of walks, not with |Aut(A)|."""
    chosen = [entry for *group_reads, group in zip(*reads, symmetries)
              for entry in sorted(map(min, map(zip, *group_reads, group)))]
    return tuple(entry[:-1] for entry in chosen), tuple(entry[-1] for entry in chosen)


def _image_permutation(symmetries: Symmetries, walks: tuple[tuple[int, ...], ...], rank: int
                       ) -> tuple[int, ...]:
    """p such that (labels[p[0]], labels[p[1]], ...) is the image that a
    ``_least_image`` stands for: the least walk of each component reads the
    labels along the walk chosen for it."""
    perm = list(range(rank))
    slots = [component[0] for group in symmetries for component in group]
    for slot, walk in zip(slots, walks):
        for node, source in zip(slot, walk):
            perm[node] = source
    return tuple(perm)


@lru_cache(maxsize=4096)
def _label_diagram(cartan: Cartan, labels: Labels) -> Terms:
    """The weight diagram of the irreducible with the given labels, as two
    columns: the labels of every weight and its multiplicity.

    Freudenthal: m(nu) (|lam+rho|^2 - |nu+rho|^2) = 2 sum over positive
    roots alpha and k >= 1 of m(nu + k alpha) (nu + k alpha, alpha), taken
    over the dominant nu by increasing depth.  nu + k alpha lies below lam
    only while k times alpha's coefficients stays within nu's depth, which
    bounds k; its multiplicity is that of its folded labels.

    A diagram automorphism p of the Cartan matrix permutes the nodes, and
    with them the labels of every diagram, so labels that are not their own
    least image (``_least_image``) get the diagram of that image, permuted
    back.
    """
    tables = cartan_tables(cartan)
    if tables.symmetries:
        _, walks = _least_image(tables.symmetries, _reads(tables.symmetries, labels))
        perm = _image_permutation(tables.symmetries, walks, len(labels))
        least = tuple([labels[x] for x in perm])
        if least != labels:
            back = sorted(range(len(perm)), key=perm.__getitem__)
            weights, mults = _label_diagram(cartan, least)
            return tuple([tuple([w[x] for x in back]) for w in weights]), mults
    roots = tuple(zip(tables.roots, tables.root_labels, tables.root_norms))

    def shifted_norm(nu: Labels) -> int:
        # (nu + rho, nu + rho): rho's labels are all 1
        v = [x + 1 for x in nu]
        return sum(x * sum(g * y for g, y in zip(row, v)) for x, row in zip(v, tables.form))

    top = shifted_norm(labels)
    mult: dict[Labels, int] = {}
    depths: dict[Labels, tuple[int, ...]] = {}
    for depth, nu in sorted(_dominant_depths(cartan, labels), key=lambda e: (sum(e[0]), e[0])):
        depths[nu] = depth
        if not any(depth):
            mult[nu] = 1
            continue
        acc = 0
        for (coeffs, coroot), root_labels, length in roots:
            # (nu, alpha) = (alpha, alpha)/2 <nu, alpha^vee>
            base = length // 2 * sum(x * y for x, y in zip(nu, coroot))
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
    weights: list[Labels] = []
    mults: list[int] = []
    for nu, m in mult.items():
        orbit = _label_orbit(cartan, nu, depths[nu])
        weights.extend(orbit)
        mults.extend([m] * len(orbit))
    return tuple(weights), tuple(mults)


def weight_multiplicities(rd: RootDatum, lam: Weight) -> WeightTable:
    """Full weight diagram of the irreducible with highest weight lam, by
    Freudenthal recursion over the dominant weights below lam, sorted by
    weight; each weight of the diagram lies in lam - Q, so ``_weights``
    reads it off its labels."""
    canon = datum_tables(rd).canonical
    return _weights(rd, lam, _label_diagram(cartan_matrix(canon), _dominant_labels(canon, lam)))


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
    if rem != 0 or value < 1:
        raise InconsistencyError("Weyl's dimension formula produced a non-dimension")
    return value


def weyl_dim(rd: RootDatum, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam, via the Weyl
    dimension formula on Dynkin labels."""
    canon = datum_tables(rd).canonical
    return _label_dim(cartan_matrix(canon), _dominant_labels(canon, lam))


@lru_cache(maxsize=1024)
def _chamber(cartan: Cartan) -> dict[Labels, tuple[Labels, int] | None]:
    """The chamber memo of a Cartan matrix, filled by ``_label_product``:
    rho-shifted labels map to the labels and sign of the constituent they
    fold to, or to None on a wall."""
    return {}


@lru_cache(maxsize=65536)
def _label_product(cartan: Cartan, a: Labels, b: Labels) -> Terms:
    """V_a ⊗ V_b on labels, as two columns: the labels of every constituent
    and its multiplicity.

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
    for nu, m in zip(*_label_diagram(cartan, b)):
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
    if min(acc.values(), default=0) < 0:
        raise InconsistencyError("negative multiplicity from shift-reflect fold")
    if 0 in acc.values():
        acc = {labels: m for labels, m in acc.items() if m}
    return tuple(acc), tuple(acc.values())


def _product_terms(cartan: Cartan, a: Labels, b: Labels) -> Terms:
    """_label_product under one key for both orders of the factors."""
    return _label_product(cartan, a, b) if a <= b else _label_product(cartan, b, a)


def tensor_decompose(rd: RootDatum, lam: Weight, mu: Weight) -> Decomposition:
    """Decompose V_lam ⊗ V_mu by the shift-reflect (Klimyk) rule: walk the
    weight diagram of the smaller factor, add 1 to each Dynkin label of
    lam + nu (the rho-shift), and fold the signed terms into the dominant
    chamber, where they cancel or add up by their folded labels."""
    return tensor_decompose_list(rd, [lam, mu])


def _sole_image(reads: tuple[tuple[tuple[Labels, ...], ...], ...]) -> bool:
    """Whether exactly one choice of walks reaches the least image of
    labels, from their ``_reads``: each component's least read is read by
    one walk only, and no two components of a class share their least
    read.  Then ``_least_image`` of the labels followed by any other labels
    picks the same walks as it does for the labels alone."""
    for group in reads:
        least = [min(component) for component in group]
        if len(set(least)) < len(least) or any(component.count(x) > 1 for component, x in zip(group, least)):
            return False
    return True


def product_table(rd: RootDatum, weights: Sequence[Weight]
                  ) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], int, int]]:
    """All pairwise products of a weight list, the table behind a dump and
    its self-check.  (i, j) with i <= j maps V_{weights[i]} ⊗ V_{weights[j]}
    to its constituents that are in the list, as sorted (index,
    multiplicity) pairs, the number of its constituents, and their total
    multiplicity.

    Each weight is checked for dominance once.  A constituent is matched to
    the list by its labels and X/Q class, which fix it (labels are injective
    on Q); its class is the sum of the factors' classes, read from a table
    of class ids.  A weight listed twice is matched at its last index.

    A pair is computed at one image of its unordered class under the
    diagram automorphisms of the canonical Cartan matrix, so
    ``_label_product`` holds one entry per class.  Each weight's own least
    image (``_least_image``) is found once; its key is the same for every
    image of the weight.  With no automorphism a pair is computed as it
    is, with no ``_least_image`` call.  Otherwise the factor with the
    lesser key leads, and the pair goes to the least image of (lead,
    other): the walks of the lead's own least image when no other choice
    of walks reaches it (``_sole_image``), else one ``_least_image`` call.
    Equal keys take the least image over both orders.  The keys do not
    move under Aut(A), so each class still gets one image.  The
    permutation p that makes the image permutes the labels of every
    constituent the same way and moves no X/Q class, so the constituents
    are matched through the list's labels permuted by p, one index per p
    and class, and each constituent is looked up once.
    """
    tables = datum_tables(rd)
    cartan = cartan_matrix(tables.canonical)
    symmetries = cartan_tables(cartan).symmetries
    labels = [_dominant_labels(tables.canonical, w) for w in weights]
    # X/Q classes as ids; sums[c][e] is the id of class c + class e, or
    # len(ids) when no weight of the list is in that class
    ids: dict[tuple[int, ...], int] = {}
    class_ids = [ids.setdefault(class_mod_root_lattice(rd, w), len(ids)) for w in weights]
    members: list[list[int]] = [[] for _ in range(len(ids) + 1)]
    for k, c in enumerate(class_ids):
        members[c].append(k)
    divisors = tables.root_lattice_divisors
    sums = [[ids.get(tuple((x + y) % d if d else x + y for x, y, d in zip(ca, cb, divisors)), len(ids))
             for cb in ids] for ca in ids]
    # per choice of walks: the list's labels permuted, and per class id the
    # index of the permuted labels, made when a pair first needs it
    views: dict[tuple[tuple[int, ...], ...], tuple[list[Labels], list[dict[Labels, int] | None]]] = {}

    def view(walks: tuple[tuple[int, ...], ...]) -> tuple[list[Labels], list[dict[Labels, int] | None]]:
        if walks not in views:
            perm = _image_permutation(symmetries, walks, len(cartan))
            views[walks] = ([tuple([lab[x] for x in perm]) for lab in labels], [None] * len(members))
        return views[walks]

    # per weight: its reads, the rank of its least image's key among the
    # list's keys, and its view when exactly one choice of walks reaches
    # that image
    reads = [_reads(symmetries, lab) for lab in labels]
    least = [_least_image(symmetries, r) for r in reads]
    position = {key: r for r, key in enumerate(sorted({key for key, _ in least}))}
    keys = [position[key] for key, _ in least]
    sole = [view(walks) if _sole_image(r) else None for (_, walks), r in zip(least, reads)]
    # with no automorphism every pair keeps the identity's view
    images, indexes = view(())
    table = {}
    for i, ci in enumerate(class_ids):
        row = sums[ci]
        for j in range(i, len(labels)):
            if symmetries:
                if keys[i] == keys[j]:
                    images, indexes = view(min(_least_image(symmetries, reads[i], reads[j]),
                                               _least_image(symmetries, reads[j], reads[i]))[1])
                else:
                    lead, other = (i, j) if keys[i] < keys[j] else (j, i)
                    images, indexes = sole[lead] or view(_least_image(symmetries, reads[lead], reads[other])[1])
            cls = row[class_ids[j]]
            index = indexes[cls]
            if index is None:
                index = indexes[cls] = {images[k]: k for k in members[cls]}
            a, b = images[i], images[j]
            constituents, mults = _label_product(cartan, a, b) if a <= b else _label_product(cartan, b, a)
            get = index.get
            found = sorted([(k, m) for nu, m in zip(constituents, mults) if (k := get(nu)) is not None])
            table[(i, j)] = (tuple(found), len(constituents), sum(mults))
    return table


def _times(cartan: Cartan, terms: Terms, b: Labels) -> Terms:
    """terms ⊗ V_b on labels, as (constituents, multiplicities) columns."""
    acc: dict[Labels, int] = {}
    for a, ma in zip(*terms):
        for c, mc in zip(*_product_terms(cartan, a, b)):
            acc[c] = acc.get(c, 0) + ma * mc
    return tuple(acc), tuple(acc.values())


@lru_cache(maxsize=4096)
def _label_power(cartan: Cartan, labels: Labels, k: int) -> Terms:
    """V_labels^k on labels as (constituents, multiplicities) columns:
    ``_times`` of V_labels^(k-1) and V_labels.  Asked for k = 0, 1, ... in
    turn, each call finds k - 1 cached, so the recursion stays one frame
    deep."""
    if k == 0:
        return ((0,) * len(cartan),), (1,)
    return _times(cartan, _label_power(cartan, labels, k - 1), labels)


def _weights(rd: RootDatum, top: Weight, terms: Terms) -> Decomposition:
    """The decomposition, sorted by weight, whose constituents lie in top - Q
    and have the given canonical labels and multiplicities (two columns):
    the one with labels top's minus gap is top - weight_rows gap /
    denominator (``lattice.DatumTables``)."""
    tables = datum_tables(rd)
    top_labels = _labels(tables.canonical, top)
    d = tables.denominator
    rows = tables.weight_rows
    # d top - rows gap = base + rows labels, so a constituent costs one mat-vec
    base = [d * t - sum(map(mul, row, top_labels)) for t, row in zip(top, rows)]
    labels, mults = terms
    return dict(sorted(zip([tuple([(b + sum(map(mul, row, nu))) // d for b, row in zip(base, rows)])
                            for nu in labels], mults)))


def power_decompose(rd: RootDatum, lam: Weight, k: int) -> Decomposition:
    """k-fold tensor power of V_lam, sorted by weight.  V^j is the cached
    V^(j-1) times V_lam (``_label_power``, keyed by the canonical Cartan
    matrix, labels and j).  V^0, ..., V^k are asked for in turn, so each
    finds the one below it cached: a call costs one product step per power
    not yet cached, and no recursion goes deeper than one frame, whatever k
    and whatever the cache has evicted."""
    k = _count(k, "k")
    if k < 0:
        raise DomainError("tensor power needs k >= 0")
    _dominant_labels(rd, lam)
    canon = datum_tables(rd).canonical
    labels = _labels(canon, lam)
    cartan = cartan_matrix(canon)
    for j in range(k + 1):
        terms = _label_power(cartan, labels, j)
    return _weights(rd, tuple(k * x for x in lam), terms)


def tensor_decompose_list(rd: RootDatum, weights: Sequence[Weight]) -> Decomposition:
    """Decomposition of V_{w1} ⊗ ... ⊗ V_{wn} (the unit for an empty list),
    sorted by weight.  Each factor is checked for dominance once; the
    products accumulate on labels, from the zero labels, and each
    constituent gets its weight once, below w1 + ... + wn."""
    canon = datum_tables(rd).canonical
    cartan = cartan_matrix(canon)
    factors = [_dominant_labels(canon, w) for w in weights]
    terms: Terms = ((0,) * len(cartan),), (1,)
    for b in factors:
        terms = _times(cartan, terms, b)
    return _weights(rd, tuple(sum(w[i] for w in weights) for i in range(rd.rank)), terms)


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
