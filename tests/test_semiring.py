from __future__ import annotations

import itertools
import random
from itertools import product
from operator import mul, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import A1SKEW, ALL_DATA, B3_REVERSED, GL3, SL2_PGL2, SL4, TORUS0, TORUS2, datum
import oracles
from oracles import character_by_weyl_formula, character_product_bruteforce, tensor_by_doubled_fold
from test_classification import (B3, C3, D4, FINITE, block_sum, canonical_matrix, diagram_automorphisms,
                                 finite_type, from_cartan)
from satake.cli import sample_pool
from satake.errors import DomainError, InconsistencyError
from satake.lattice import (
    RootDatum,
    _labels,
    _weights_below,
    cartan_matrix,
    datum_tables,
    dominant_below,
    dominant_representative,
    dominant_window,
    leq_dominance,
    saturation_set,
    weyl_orbit,
)
from satake.reconstruct import dump_semiring
from satake.semiring import (
    _chamber,
    _label_diagram,
    _label_power,
    _label_product,
    _weights,
    power_decompose,
    product_table,
    prv_multiplicity,
    tensor_decompose,
    tensor_decompose_list,
    weight_multiplicities,
    weyl_dim,
)


class TestWeightMultiplicities:
    def test_sl2(self):
        assert weight_multiplicities(datum("SL2"), (2,)) == {(2,): 1, (0,): 1, (-2,): 1}

    def test_trivial(self, fixture_datum):
        zero = (0,) * fixture_datum.rank
        assert weight_multiplicities(fixture_datum, zero) == {zero: 1}

    def test_sl3_adjoint(self):
        table = weight_multiplicities(datum("SL3"), (1, 1))
        assert len(table) == 7
        assert table[(0, 0)] == 2
        assert sum(table.values()) == 8

    def test_matches_oracle(self):
        cases = {
            "SL2": [(1,), (4,)],
            "PGL2": [(2,), (3,)],
            "GL2": [(2, 0), (3, -1), (1, 1)],
            "SL3": [(1, 0), (1, 1), (2, 1)],
            "PGL3": [(1, 1), (2, 1)],
            "Sp4": [(1, 0), (1, 1), (2, 1)],
            "G2": [(1, 0), (0, 1), (1, 1)],
        }
        for name, weights in cases.items():
            rd = datum(name)
            for lam in weights:
                assert weight_multiplicities(rd, lam) == character_by_weyl_formula(rd, lam), (name, lam)

    def test_support_is_saturation_set(self):
        for name in ("SL3", "Sp4", "G2"):
            rd = datum(name)
            for lam in dominant_window(rd, 8):
                assert tuple(sorted(weight_multiplicities(rd, lam))) == saturation_set(rd, lam)

    def test_w_invariance(self):
        rd = datum("Sp4")
        table = weight_multiplicities(rd, (2, 1))
        for w, m in table.items():
            for v in weyl_orbit(rd, w):
                assert table[v] == m

    def test_non_dominant_rejected(self):
        with pytest.raises(DomainError):
            weight_multiplicities(datum("SL2"), (-1,))


class TestWeylDim:
    def test_values(self):
        assert weyl_dim(datum("SL2"), (3,)) == 4
        assert weyl_dim(datum("SL3"), (1, 1)) == 8
        assert weyl_dim(datum("G2"), (1, 0)) == 14
        assert weyl_dim(datum("G2"), (0, 1)) == 7
        assert weyl_dim(datum("Sp4"), (1, 0)) == 4
        assert weyl_dim(datum("Sp4"), (1, 1)) == 5
        assert weyl_dim(datum("GL2"), (3, -1)) == 5

    def test_trivial(self, fixture_datum):
        assert weyl_dim(fixture_datum, (0,) * fixture_datum.rank) == 1

    def test_equals_table_total(self):
        for name in ("SL2", "SL3", "Sp4", "G2"):
            rd = datum(name)
            for lam in dominant_window(rd, 8):
                assert weyl_dim(rd, lam) == sum(weight_multiplicities(rd, lam).values())


class TestTensor:
    def test_examples(self):
        assert tensor_decompose(datum("SL2"), (1,), (1,)) == {(2,): 1, (0,): 1}
        assert tensor_decompose(datum("SL3"), (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}
        assert tensor_decompose(datum("PGL2"), (1,), (1,)) == {(2,): 1, (1,): 1, (0,): 1}

    def test_unit(self, fixture_datum):
        rd = fixture_datum
        zero = (0,) * rd.rank
        lam = max(dominant_window(rd, 4))
        assert tensor_decompose(rd, lam, zero) == {lam: 1}

    def test_matches_bruteforce(self):
        cases = [(datum(name), [w for w in dominant_window(datum(name), 5) if abs(max(w, default=0)) <= 4])
                 for name in ("SL2", "PGL2", "GL2", "SL3", "Sp4")]
        # the rank-3 SL4 folds three Dynkin labels at once
        cases += [(datum("PGL3"), dominant_window(datum("PGL3"), 10)),
                  (datum("G2"), dominant_window(datum("G2"), 20)),
                  (SL4, dominant_window(SL4, 10))]
        for rd, weights in cases:
            for lam in weights:
                for mu in weights:
                    assert tensor_decompose(rd, lam, mu) == character_product_bruteforce(rd, lam, mu), (rd.name, lam, mu)

    def test_commutative(self):
        rd = datum("G2")
        assert tensor_decompose(rd, (1, 0), (0, 1)) == tensor_decompose(rd, (0, 1), (1, 0))

    def test_associative(self):
        rd = datum("SL3")
        a, b, c = (1, 0), (0, 1), (1, 1)
        left = tensor_decompose_list(rd, [a, b, c])
        right = tensor_decompose_list(rd, [c, b, a])
        assert left == right

    def test_dimension_multiplicative(self):
        rd = datum("G2")
        lam, mu = (1, 0), (1, 1)
        dec = tensor_decompose(rd, lam, mu)
        assert sum(m * weyl_dim(rd, nu) for nu, m in dec.items()) == weyl_dim(rd, lam) * weyl_dim(rd, mu)

    def test_support_bound(self):
        rd = datum("Sp4")
        lam, mu = (2, 1), (1, 1)
        total = tuple(a + b for a, b in zip(lam, mu))
        for nu in tensor_decompose(rd, lam, mu):
            assert leq_dominance(rd, nu, total)

    def test_list_rejects_non_dominant_factors(self):
        rd = datum("SL3")
        good, bad = [(1, 0), (0, 1), (1, 1)], (1, -1)
        for k in range(len(good) + 1):
            with pytest.raises(DomainError):
                tensor_decompose_list(rd, good[:k] + [bad] + good[k:])
        with pytest.raises(DomainError):
            tensor_decompose_list(rd, [(2, -1)])

    def test_wrong_length_rejected_without_roots(self):
        # with no simple coroots, no pairing checks a weight's length
        rd = TORUS2
        with pytest.raises(DomainError):
            weight_multiplicities(rd, (1,))
        with pytest.raises(DomainError):
            weyl_dim(rd, (1, 2, 3))
        with pytest.raises(DomainError):
            dominant_representative(rd, (1,))
        with pytest.raises(DomainError):
            tensor_decompose_list(rd, [(1,), (2, 3)])
        with pytest.raises(DomainError):
            product_table(rd, [(1, 0), (1,)])

    def test_bruteforce_pgl2(self):
        assert character_product_bruteforce(datum("PGL2"), (1,), (1,)) == {(2,): 1, (1,): 1, (0,): 1}

    def test_bruteforce_unit(self):
        rd = datum("SL3")
        zero = (0, 0)
        assert character_product_bruteforce(rd, zero, zero) == {zero: 1}

    def test_bruteforce_residue_without_dominant_support(self, monkeypatch):
        # a weight diagram that is not W-invariant leaves a residue with no
        # dominant weight to strip: a package error, also under python -O
        monkeypatch.setattr(oracles, "weight_multiplicities",
                            lambda rd, lam: {tuple(-x for x in lam): 1})
        with pytest.raises(InconsistencyError, match="without dominant support"):
            character_product_bruteforce(datum("SL2"), (1,), (1,))


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_doubled_fold(rd, data):
    window = dominant_window(rd, 10)
    weights = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=4))
    table = product_table(rd, weights)
    assert list(table) == [(i, j) for i in range(len(weights)) for j in range(i, len(weights))]
    last = {w: k for k, w in enumerate(weights)}
    for (i, j), (found, count, total) in table.items():
        dec = tensor_decompose(rd, weights[i], weights[j])
        assert dec == dict(tensor_by_doubled_fold(rd, weights[i], weights[j]))
        assert found == tuple(sorted((last[nu], m) for nu, m in dec.items() if nu in last))
        assert (count, total) == (len(dec), sum(dec.values()))


def _list_by_doubled_fold(rd: RootDatum, weights) -> dict:
    """V_w1 ⊗ ... ⊗ V_wn by iterating the doubled-fold reference."""
    want = {(0,) * rd.rank: 1}
    for w in weights:
        acc: dict = {}
        for nu, m in want.items():
            for c, mc in tensor_by_doubled_fold(rd, nu, w):
                acc[c] = acc.get(c, 0) + m * mc
        want = acc
    return want


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_list_matches_doubled_fold(rd, data):
    # GL3 (labels fix a weight only within top - Q) and the rank-0 datum
    # are where turning the accumulated labels into weights can go wrong
    window = dominant_window(rd, 6)
    weights = data.draw(st.lists(st.sampled_from(window), max_size=4))
    dec = tensor_decompose_list(rd, weights)
    assert dec == _list_by_doubled_fold(rd, weights)
    assert list(dec) == sorted(dec)
    lam = data.draw(st.sampled_from(window))
    assert power_decompose(rd, lam, len(weights)) == tensor_decompose_list(rd, [lam] * len(weights))


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0, A1SKEW, B3_REVERSED], ids=lambda rd: rd.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_weight_rows_match_depth_reference(rd, data):
    # a weight with labels top's minus gap, for a random gap = A d of top -
    # Q, gets its weight from one matrix: rd's own rows in its own node
    # order, and the canonical rows that semiring reads
    canon = datum_tables(rd).canonical
    top = tuple(data.draw(st.lists(st.integers(-30, 30), min_size=rd.rank, max_size=rd.rank)))
    for own in (rd, canon):
        cartan = cartan_matrix(own)
        depth = data.draw(st.lists(st.integers(-12, 12), min_size=len(cartan), max_size=len(cartan)))
        gap = [sum(map(mul, row, depth)) for row in cartan]
        want = oracles._subtract_roots(own, top, depth)
        assert _weights_below(own, top, [gap]) == [want]
    assert want == oracles.weight_below_by_depth(rd, top, gap)
    assert _weights(rd, top, ((tuple(map(sub, _labels(canon, top), gap)),), (1,))) == {want: 1}


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2], ids=lambda rd: rd.name)
def test_label_caches_hold_columns(rd):
    # diagrams, products and powers are (labels, multiplicities): two
    # tuples of equal length, not one tuple per weight or constituent
    canon = datum_tables(rd).canonical
    cartan = cartan_matrix(canon)
    window = [_labels(canon, w) for w in dominant_window(rd, 4)]
    results = [_label_diagram(cartan, x) for x in window]
    results += [_label_product(cartan, x, y) for x in window[:4] for y in window[:4] if x <= y]
    results += [_label_power(cartan, window[-1], k) for k in range(4)]
    for result in results:
        assert len(result) == 2 and all(type(column) is tuple for column in result)
        assert len(result[0]) == len(result[1]) > 0


def _change_basis(rd: RootDatum, p, p_inv) -> RootDatum:
    """The datum in the basis x -> p x of X, so coweights go by p^-T."""
    n = rd.rank
    return RootDatum(n, tuple(tuple(sum(p[i][j] * v[j] for j in range(n)) for i in range(n))
                              for v in rd.simple_roots),
                     tuple(tuple(sum(p_inv[j][i] * v[j] for j in range(n)) for i in range(n))
                           for v in rd.simple_coroots),
                     name=f"{rd.name}'")


# data that share a Cartan matrix in different bases, so the label-keyed
# diagrams and products one fills serve the others
SHARED_CARTAN = [
    [datum("SL2"), datum("PGL2"), datum("GL2")],
    [datum("SL3"), datum("PGL3"), GL3],
    [SL4, _change_basis(SL4, ((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((1, -1, 1), (0, 1, -1), (0, 0, 1)))],
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_label_caches_shared_across_bases(data):
    steps = data.draw(st.lists(st.tuples(st.sampled_from(range(len(SHARED_CARTAN))), st.integers(0, 2)),
                               min_size=2, max_size=6))
    for family, member in steps:
        group = SHARED_CARTAN[family]
        rd = group[member % len(group)]
        window = dominant_window(rd, 8 if rd.rank < 3 else 5)
        lam, mu = data.draw(st.sampled_from(window)), data.draw(st.sampled_from(window))
        assert cartan_matrix(rd) == cartan_matrix(group[0])
        assert weight_multiplicities(rd, lam) == character_by_weyl_formula(rd, lam), (rd.name, lam)
        assert tensor_decompose(rd, lam, mu) == dict(tensor_by_doubled_fold(rd, lam, mu)), (rd.name, lam, mu)
        canon = datum_tables(rd).canonical
        labels, _ = _label_diagram(cartan_matrix(canon), _labels(canon, lam))
        dominant = [nu for nu in labels if min(nu) >= 0]
        doms = set(_weights(rd, lam, (dominant, (1,) * len(dominant))))
        assert doms == set(dominant_below(rd, lam))


def _label_window(n: int, total: int) -> list[tuple[int, ...]]:
    return [labels for labels in product(range(total + 1), repeat=n) if sum(labels) <= total]


def _transpose(a):
    return [list(col) for col in zip(*a)]


# transposed Cartan matrices: the same label pairs give different products
@pytest.mark.parametrize("a, b, total", [
    (B3, C3, 2),
    (finite_type("G", 2), _transpose(finite_type("G", 2)), 3),
], ids=["B3-C3", "G2-G2t"])
def test_chamber_memo_keyed_by_cartan(a, b, total):
    _label_product.cache_clear()
    _chamber.cache_clear()
    pair = [from_cartan(a), from_cartan(b)]
    window = _label_window(len(a), total)
    differ = 0
    for i, lam in enumerate(window):
        for mu in window[i:]:
            decs = [tensor_decompose(rd, lam, mu) for rd in pair]
            for rd, dec in zip(pair, decs):
                assert dec == dict(tensor_by_doubled_fold(rd, lam, mu)), (cartan_matrix(rd), lam, mu)
            differ += decs[0] != decs[1]
    assert differ


@pytest.mark.parametrize("family, n", [(f, n) for f, n in FINITE if n <= 4],
                         ids=[f"{f}{n}" for f, n in FINITE if n <= 4])
def test_products_follow_node_permutation(family, n):
    # node i of the permuted matrix is node p[i] of a, and so is label i
    _label_product.cache_clear()
    _chamber.cache_clear()
    a = finite_type(family, n)
    p = list(range(n))
    random.Random(f"{family}{n}").shuffle(p)
    cartan = tuple(tuple(row) for row in a)
    permuted = tuple(tuple(a[p[i]][p[j]] for j in range(n)) for i in range(n))

    def move(labels):
        return tuple(labels[p[i]] for i in range(n))

    window = _label_window(n, 2)
    for i, x in enumerate(window):
        for y in window[i:]:
            want = {move(c): m for c, m in zip(*_label_product(cartan, x, y))}
            assert dict(zip(*_label_product(permuted, move(x), move(y)))) == want, (p, x, y)


@pytest.mark.parametrize("rd", ALL_DATA + [GL3], ids=lambda rd: rd.name)
def test_outputs_follow_datum_node_order(rd):
    # renumbering the simple roots and coroots changes the datum's labels
    # and depths but none of the weights the entry points return
    window = dominant_window(rd, 6 if rd.rank < 3 else 4)
    lists = [window[k::5][:3] for k in range(5)]
    want = (product_table(rd, window), [weyl_dim(rd, lam) for lam in window],
            [list(weight_multiplicities(rd, lam).items()) for lam in window],
            [list(tensor_decompose_list(rd, ws).items()) for ws in lists])
    for p in itertools.permutations(range(rd.semisimple_rank)):
        other = RootDatum(rd.rank, tuple(rd.simple_roots[i] for i in p), tuple(rd.simple_coroots[i] for i in p))
        got = (product_table(other, window), [weyl_dim(other, lam) for lam in window],
               [list(weight_multiplicities(other, lam).items()) for lam in window],
               [list(tensor_decompose_list(other, ws).items()) for ws in lists])
        assert got == want, p


def _moved(p, labels):
    """Labels under a diagram automorphism: node p[i] plays the part of i."""
    return tuple(labels[x] for x in p)


A2_A2 = from_cartan(block_sum(finite_type("A", 2), finite_type("A", 2)))
# equal components tie for their least reads, so product_table falls back
# to a search for some leading factors and meets pairs with equal keys
A1_A1_A1 = from_cartan(block_sum(block_sum([[2]], [[2]]), [[2]]))
A1_A1_A2 = from_cartan(block_sum(block_sum([[2]], [[2]]), finite_type("A", 2)))


@pytest.mark.parametrize("a", [D4, finite_type("A", 3), finite_type("D", 5), finite_type("E", 6),
                               block_sum(finite_type("A", 2), finite_type("A", 2)), block_sum([[2]], [[2]])],
                         ids=["D4", "A3", "D5", "E6", "A2+A2", "A1+A1"])
def test_diagrams_follow_diagram_automorphisms(a):
    # in the fundamental-weight basis of the canonical matrix, weights are
    # labels; D4's automorphisms of order 3 tell p from its inverse
    _label_diagram.cache_clear()
    rd = from_cartan(canonical_matrix(a))
    group = diagram_automorphisms(cartan_matrix(rd))
    for lam in dominant_window(rd, 3 if rd.rank < 6 else 2):
        want = weight_multiplicities(rd, lam)
        for p in group:
            got = weight_multiplicities(rd, _moved(p, lam))
            assert got == dict(sorted((_moved(p, mu), m) for mu, m in want.items())), (p, lam)
    if a is D4:
        for lam in dominant_window(rd, 3):
            assert weight_multiplicities(rd, lam) == character_by_weyl_formula(rd, lam), lam


# data whose canonical Cartan matrix has diagram automorphisms, with
# windows of 11 to 46 weights; GL3 has a central torus
SYMMETRIC = [(SL4, 14), (from_cartan(D4), 12), (SL2_PGL2, 8), (GL3, 4), (A1_A1_A1, 4)]


@pytest.mark.parametrize("rd, bound", SYMMETRIC, ids=["SL4", "D4", "SL2xPGL2", "GL3", "A1xA1xA1"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_product_table_matches_pairwise_reference(rd, bound, data):
    # a sublist that no diagram automorphism maps onto itself, with one
    # weight listed twice, against products taken one pair at a time and
    # matched to the list by weight
    window = dominant_window(rd, bound)
    weights = data.draw(st.lists(st.sampled_from(window), min_size=2, max_size=7, unique=True))
    canon = datum_tables(rd).canonical
    labels = {_labels(canon, w) for w in weights}
    assume(all({_moved(p, lab) for lab in labels} != labels
               for p in diagram_automorphisms(cartan_matrix(canon))[1:]))
    weights.insert(data.draw(st.integers(0, len(weights))), data.draw(st.sampled_from(weights)))
    _label_product.cache_clear()
    table = product_table(rd, weights)
    assert list(table) == [(i, j) for i in range(len(weights)) for j in range(i, len(weights))]
    last = {w: k for k, w in enumerate(weights)}
    for (i, j), (found, count, total) in table.items():
        dec = tensor_decompose(rd, weights[i], weights[j])
        assert found == tuple(sorted((last[nu], m) for nu, m in dec.items() if nu in last)), (i, j)
        assert (count, total) == (len(dec), sum(dec.values()))


class TestProductTable:
    def test_shared_across_bases(self):
        # PGL3 is SL3 in the root basis: its weights' labels are SL3 weights
        sl3, pgl3 = datum("SL3"), datum("PGL3")
        window = dominant_window(pgl3, 12)
        first = product_table(sl3, [_labels(pgl3, w) for w in window])
        before = _label_product.cache_info()
        second = product_table(pgl3, window)
        after = _label_product.cache_info()
        n = len(window)
        assert after.misses == before.misses
        assert after.hits - before.hits == n * (n + 1) // 2
        assert second == first

    @pytest.mark.parametrize("rd, bound", [(SL4, 12), (from_cartan(D4), 24), (SL2_PGL2, 8), (A2_A2, 6),
                                           (A1_A1_A1, 6), (A1_A1_A2, 4)],
                             ids=["SL4-12", "D4-24", "SL2xPGL2-8", "A2xA2-6", "A1xA1xA1-6", "A1xA1xA2-4"])
    def test_one_product_per_class(self, rd, bound):
        # a cold table computes one product per class of unordered label
        # pairs under the diagram automorphisms, found here by brute force
        window = dominant_window(rd, bound)
        canon = datum_tables(rd).canonical
        labels = [_labels(canon, w) for w in window]
        group = diagram_automorphisms(cartan_matrix(canon))
        pairs = {min(min((_moved(p, a), _moved(p, b)), (_moved(p, b), _moved(p, a))) for p in group)
                 for i, a in enumerate(labels) for b in labels[i:]}
        _label_product.cache_clear()
        product_table(rd, window)
        n = len(window)
        assert _label_product.cache_info().misses == len(pairs) < n * (n + 1) // 2

    def test_non_dominant_rejected(self):
        with pytest.raises(DomainError):
            product_table(datum("SL3"), [(1, 0), (1, -1)])

    def test_repeated_dump_hits_cache(self):
        rd = datum("Sp4")
        first, _ = dump_semiring(rd, 10, seed=3)
        before = _label_product.cache_info()
        second, _ = dump_semiring(rd, 10, seed=3)
        after = _label_product.cache_info()
        n = len(first.ids)
        assert after.misses == before.misses
        assert after.hits - before.hits == n * (n + 1) // 2
        assert second.product_table == first.product_table


class TestPower:
    def test_k0(self, fixture_datum):
        zero = (0,) * fixture_datum.rank
        lam = max(dominant_window(fixture_datum, 4))
        assert power_decompose(fixture_datum, lam, 0) == {zero: 1}

    def test_sl2(self):
        assert power_decompose(datum("SL2"), (1,), 2) == {(2,): 1, (0,): 1}
        assert power_decompose(datum("SL2"), (1,), 3) == {(3,): 1, (1,): 2}
        # a float exponent used to raise a bare TypeError
        with pytest.raises(DomainError, match="must be integers"):
            power_decompose(datum("SL3"), (1, 0), 2.0)

    def test_domain_errors_before_any_cache(self):
        # a negative k or a non-dominant weight is a DomainError, also on a
        # datum not of finite type, and leaves the power cache untouched
        affine = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
        before = _label_power.cache_info()
        for rd, lam, k in [(affine, (-1, 0), 2), (datum("SL3"), (1, -1), 2), (datum("SL3"), (1, 0), -1)]:
            with pytest.raises(DomainError):
                power_decompose(rd, lam, k)
        assert _label_power.cache_info() == before

    def test_independent_of_cache_state(self, fixture_datum):
        # V^k extends the cached V^(k-1): asked out of order from a cold
        # cache, each power is the iterated reference, and a caller that
        # mutates the returned dict changes no later result
        rd = fixture_datum
        lam = max(sample_pool(rd))
        _label_power.cache_clear()
        for k in (4, 1, 3, 0, 2):
            want = _list_by_doubled_fold(rd, [lam] * k)
            got = power_decompose(rd, lam, k)
            assert got == want and list(got) == sorted(got), k
            got.clear()
            assert power_decompose(rd, lam, k) == want, k

    def test_large_k_past_cache_size(self):
        # V^5000 runs 5001 powers through a cache of 4096, and a bare
        # recursion from it would overflow the interpreter stack
        assert power_decompose(TORUS2, (1, -2), 5000) == {(5000, -10000): 1}
        assert _label_power.cache_info().currsize == _label_power.cache_info().maxsize
        assert power_decompose(datum("SL2"), (1,), 3) == {(1,): 2, (3,): 1}


class TestPRV:
    def test_sl3_example(self):
        lam, mult = prv_multiplicity(datum("SL3"), [(1, 0), (1, 0)], [(), (0,)])
        assert lam == (0, 1) and mult == 1

    def test_sl2_example(self):
        lam, mult = prv_multiplicity(datum("SL2"), [(1,), (1,)], [(), (0,)])
        assert lam == (0,) and mult == 1

    def test_cartan_component(self):
        rd = datum("G2")
        mus = [(1, 0), (0, 1)]
        lam, mult = prv_multiplicity(rd, mus, [(), ()])
        assert lam == (1, 1) and mult == 1

    @pytest.mark.parametrize("name", ["SL2", "SL3", "Sp4", "G2"])
    def test_randomized_positive(self, name):
        rd = datum(name)
        rng = random.Random(7)
        pool = [w for w in dominant_window(rd, 6) if any(w)] or [(0,) * rd.rank]
        for _ in range(25):
            k = rng.randint(1, 3)
            mus = [pool[rng.randrange(len(pool))] for _ in range(k)]
            words = [tuple(rng.randrange(rd.semisimple_rank) for _ in range(rng.randint(0, 4)))
                     for _ in range(k)]
            _, mult = prv_multiplicity(rd, mus, words)
            assert mult >= 1, (name, mus, words)
