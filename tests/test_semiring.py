from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_DATA, GL3, SL4, TORUS0, TORUS2, datum
from oracles import character_by_weyl_formula, tensor_by_doubled_fold
from satake.errors import DomainError
from satake.lattice import dominant_window, leq_dominance, saturation_set, weyl_orbit
from satake.reconstruct import dump_semiring
from satake.semiring import (
    _tensor_cached,
    character_product_bruteforce,
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

    def test_bruteforce_pgl2(self):
        assert character_product_bruteforce(datum("PGL2"), (1,), (1,)) == {(2,): 1, (1,): 1, (0,): 1}

    def test_bruteforce_unit(self):
        rd = datum("SL3")
        zero = (0, 0)
        assert character_product_bruteforce(rd, zero, zero) == {zero: 1}


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_product_matches_doubled_fold(rd, data):
    window = dominant_window(rd, 10)
    weights = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=4))
    table = product_table(rd, weights)
    assert list(table) == [(i, j) for i in range(len(weights)) for j in range(i, len(weights))]
    for (i, j), terms in table.items():
        dec = tensor_decompose(rd, weights[i], weights[j])
        assert dec == dict(tensor_by_doubled_fold(rd, weights[i], weights[j]))
        assert terms == tuple(sorted(dec.items()))


class TestProductTable:
    def test_non_dominant_rejected(self):
        with pytest.raises(DomainError):
            product_table(datum("SL3"), [(1, 0), (1, -1)])

    def test_repeated_dump_hits_cache(self):
        rd = datum("Sp4")
        first, _ = dump_semiring(rd, 10, seed=3)
        before = _tensor_cached.cache_info()
        second, _ = dump_semiring(rd, 10, seed=3)
        after = _tensor_cached.cache_info()
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
