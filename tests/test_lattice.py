from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_DATA, GL3, SL4, TORUS0, TORUS2, datum
from oracles import (
    _apply,
    class_by_smith_form,
    dominant_box,
    dominant_representative_by_reflection,
    root_coefficients_by_solve,
    weyl_elements,
)
from satake.errors import DomainError, InvalidDatumError
from satake.fixtures import FIXTURES
from satake.lattice import (
    RootDatum,
    apply_word,
    cartan_matrix,
    cartan_tables,
    cartan_type,
    class_mod_root_lattice,
    conv_hull_leq,
    coroot_height,
    datum_tables,
    dominant_below,
    dominant_representative,
    dominant_window,
    dual_root_datum,
    is_dominant,
    leq_dominance,
    pairing,
    positive_roots,
    positive_roots_with_coroots,
    preceq,
    root_coefficients,
    saturation_set,
    two_rho,
    validate_datum,
    weyl_group_order,
    weyl_orbit,
)


class TestValidation:
    def test_fixtures_valid(self, fixture_datum):
        validate_datum(fixture_datum)

    def test_bad_diagonal(self):
        rd = RootDatum(1, ((1,),), ((1,),))
        with pytest.raises(InvalidDatumError, match="diagonal"):
            validate_datum(rd)

    def test_affine_rejected(self):
        # Cartan matrix [[2,-2],[-2,2]] has a mark-4 edge: not finite type
        rd = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
        with pytest.raises(InvalidDatumError, match="not finite type"):
            validate_datum(rd)

    def test_affine_with_independent_roots_rejected(self):
        rd = RootDatum(3, ((1, 0, 0), (0, 1, 0)), ((2, -2, 0), (-2, 2, 1)))
        with pytest.raises(InvalidDatumError, match="not finite type"):
            validate_datum(rd)

    def test_dependent_coroots_rejected(self):
        # independent roots, dependent coroots: the Cartan matrix is singular
        rd = RootDatum(2, ((1, 0), (0, 1)), ((2, -2), (-2, 2)))
        with pytest.raises(InvalidDatumError):
            validate_datum(rd)

    def test_tables_reject_affine(self):
        # orbit saturation never ends off finite type: the tables must refuse
        rd = RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
        with pytest.raises(InvalidDatumError, match="not finite type"):
            coroot_height(rd, (1, 1))

    def test_validation_does_not_build_tables(self):
        rd = RootDatum(3, ((2, 0, 0), (0, 0, 2)), ((1, 0, 0), (0, 0, 1)))
        info = datum_tables.cache_info()
        cartan_matrix(rd)
        cartan_type(rd)
        validate_datum(rd)
        after = datum_tables.cache_info()
        assert after.hits + after.misses == info.hits + info.misses

    def test_positive_offdiagonal(self):
        rd = RootDatum(2, ((2, 1), (1, 2)), ((1, 0), (0, 1)))
        with pytest.raises(InvalidDatumError):
            validate_datum(rd)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidDatumError):
            RootDatum(1, ((2,),), ())
        with pytest.raises(InvalidDatumError):
            RootDatum(2, ((2,),), ((1,),))

    def test_types(self):
        assert cartan_type(datum("SL2")) == "A1"
        assert cartan_type(datum("SL3")) == "A2"
        assert cartan_type(datum("Sp4")) == "B2"
        assert cartan_type(datum("G2")) == "G2"
        assert cartan_type(RootDatum(0, (), ())) == "torus"


class TestCartan:
    def test_matrices(self):
        assert cartan_matrix(datum("SL2")) == ((2,),)
        assert cartan_matrix(datum("SL3")) == ((2, -1), (-1, 2))
        assert cartan_matrix(datum("G2")) == ((2, -1), (-3, 2))

    def test_dual_transposes(self, fixture_datum):
        a = cartan_matrix(fixture_datum)
        b = cartan_matrix(dual_root_datum(fixture_datum))
        assert b == tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a)))

    def test_fundamental_rows_invert_cartan(self, fixture_datum):
        a = cartan_matrix(fixture_datum)
        tables = cartan_tables(a)
        s = fixture_datum.semisimple_rank
        for j, row in enumerate(tables.inverse_rows):
            assert min(row) >= 0
            assert [sum(row[k] * a[k][i] for k in range(s)) for i in range(s)] == \
                [tables.denominator * (i == j) for i in range(s)]

    def test_pairing(self):
        assert pairing((2,), (1,)) == 2
        assert pairing((0, 0), (5, 7)) == 0
        assert pairing((2, -1), (1, 0)) == 2
        with pytest.raises(DomainError):
            pairing((1,), (1, 2))


class TestReflections:
    def test_dominant_representative_sl2(self):
        assert dominant_representative(datum("SL2"), (-3,)) == ((3,), (0,))

    def test_dominant_representative_sl3(self):
        rep, word = dominant_representative(datum("SL3"), (0, -1))
        assert rep == (1, 0)
        assert len(word) == 2
        assert apply_word(datum("SL3"), word, (0, -1)) == (1, 0)

    def test_dominant_input_fixed(self, fixture_datum):
        lam = two_rho(fixture_datum)
        assert dominant_representative(fixture_datum, lam) == (lam, ())

    def test_orbits(self):
        assert set(weyl_orbit(datum("SL2"), (1,))) == {(1,), (-1,)}
        assert set(weyl_orbit(datum("SL3"), (1, 0))) == {(1, 0), (-1, 1), (0, -1)}
        assert weyl_orbit(datum("SL3"), (0, 0)) == ((0, 0),)

    def test_orbit_reflection_stable(self, fixture_datum):
        rd = fixture_datum
        orbit = set(weyl_orbit(rd, two_rho(rd)))
        for i in range(rd.semisimple_rank):
            assert {apply_word(rd, (i,), v) for v in orbit} == orbit

    def test_group_orders(self):
        expected = {"SL2": 2, "PGL2": 2, "GL2": 2, "SL3": 6, "PGL3": 6, "Sp4": 8, "G2": 12}
        for name, order in expected.items():
            assert weyl_group_order(datum(name)) == order

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=6), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_dominant_representative_orbit_invariant(self, word, lam):
        rd = datum("Sp4")
        moved = apply_word(rd, tuple(word), lam)
        assert dominant_representative(rd, moved)[0] == dominant_representative(rd, lam)[0]


class TestOrders:
    def test_leq_examples(self):
        assert leq_dominance(datum("SL2"), (0,), (2,))
        assert not leq_dominance(datum("SL2"), (1,), (2,))
        assert leq_dominance(datum("SL3"), (0, 0), (1, 1))

    def test_preceq_examples(self):
        assert preceq(datum("SL2"), (1,), (2,))
        assert not preceq(datum("SL2"), (2,), (1,))
        assert preceq(datum("SL3"), (1, 1), (3, 0))

    def test_leq_implies_preceq(self, fixture_datum):
        rd = fixture_datum
        weights = dominant_box(rd, 2)
        for lam in weights:
            for mu in weights:
                if leq_dominance(rd, lam, mu):
                    assert preceq(rd, lam, mu)

    def test_class_mod_root_lattice(self):
        sl2 = datum("SL2")
        assert class_mod_root_lattice(sl2, (1,)) == class_mod_root_lattice(sl2, (3,))
        assert class_mod_root_lattice(sl2, (0,)) != class_mod_root_lattice(sl2, (1,))
        pgl2 = datum("PGL2")
        assert class_mod_root_lattice(pgl2, (0,)) == class_mod_root_lattice(pgl2, (5,))

    def test_order_equivalence_small_box(self):
        # leq <=> preceq + equal classes, on a small box for every fixture
        for name in ("SL2", "PGL2", "GL2", "SL3"):
            rd = datum(name)
            weights = dominant_box(rd, 2)
            for lam in weights:
                for mu in weights:
                    lhs = leq_dominance(rd, lam, mu)
                    rhs = (preceq(rd, lam, mu)
                           and class_mod_root_lattice(rd, lam) == class_mod_root_lattice(rd, mu))
                    assert lhs == rhs, (name, lam, mu)


class TestRoots:
    def test_positive_roots(self):
        assert positive_roots(datum("SL2")) == ((2,),)
        assert set(positive_roots(datum("SL3"))) == {(2, -1), (-1, 2), (1, 1)}
        assert len(positive_roots(datum("G2"))) == 6
        assert len(positive_roots(datum("Sp4"))) == 4

    def test_two_rho(self):
        assert two_rho(datum("SL2")) == (2,)
        assert two_rho(datum("SL3")) == (2, 2)
        assert two_rho(datum("PGL2")) == (1,)

    def test_two_rho_pairing(self, fixture_datum):
        rho2 = two_rho(fixture_datum)
        for cov in fixture_datum.simple_coroots:
            assert pairing(rho2, cov) == 2
        rho2_check = datum_tables(fixture_datum).two_rho_check
        for root in fixture_datum.simple_roots:
            assert pairing(root, rho2_check) == 2

    def test_coroot_pairing_is_two(self, fixture_datum):
        for root, cov in positive_roots_with_coroots(fixture_datum):
            assert pairing(root, cov) == 2
            assert coroot_height(fixture_datum, root) == 2 * sum(root_coefficients(fixture_datum, root))


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
def test_dominant_window_matches_box(rd):
    for bound in range(-3, 11):
        assert list(dominant_window(rd, bound)) == dominant_box(rd, bound, height=bound), bound


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
def test_dominant_below_matches_box(rd):
    # lam <= mu lies at depth d_j <= <mu, w_j>, at most half mu's coroot
    # height of 6, so each coordinate of lam is within cap of the origin
    cap = 6 + 3 * sum(max(map(abs, alpha)) for alpha in rd.simple_roots)
    box = dominant_box(rd, cap, height=6)
    window = dominant_window(rd, 6)
    for mu in window[::max(1, len(window) // 8)]:
        assert list(dominant_below(rd, mu)) == [w for w in box if leq_dominance(rd, w, mu)], mu


@pytest.mark.parametrize("rd", ALL_DATA + [GL3], ids=lambda rd: rd.name)
@settings(max_examples=60, deadline=None)
@given(vec=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
def test_dominant_representative_matches_reflection(rd, vec):
    lam = tuple(vec[:rd.rank])
    rep, word = dominant_representative(rd, lam)
    assert (rep, word) == dominant_representative_by_reflection(rd, lam)
    assert apply_word(rd, word, lam) == rep


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2], ids=lambda rd: rd.name)
@settings(max_examples=40, deadline=None)
@given(vec=st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_weyl_orbit_matches_group_elements(rd, vec):
    # any weight, dominant or not: the orbit walk starts from its fold
    lam = tuple(vec[:rd.rank])
    assert weyl_orbit(rd, lam) == tuple(sorted({_apply(g, lam) for g, _ in weyl_elements(rd)}))


@pytest.mark.parametrize("rd", ALL_DATA, ids=lambda rd: rd.name)
@settings(max_examples=50, deadline=None)
@given(vec=st.lists(st.integers(-20, 20), min_size=3, max_size=3))
def test_root_coordinates_match_oracles(rd, vec):
    v = tuple(vec[:rd.rank])
    assert root_coefficients(rd, v) == root_coefficients_by_solve(rd, v)
    assert class_mod_root_lattice(rd, v) == class_by_smith_form(rd, v)


@pytest.mark.parametrize("rd", ALL_DATA + [GL3, TORUS2, TORUS0], ids=lambda rd: rd.name)
@settings(max_examples=50, deadline=None)
@given(lam=st.lists(st.integers(-12, 12), min_size=3, max_size=3),
       mu=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
def test_orders_match_solve_oracle(rd, lam, mu):
    lam, mu = tuple(lam[:rd.rank]), tuple(mu[:rd.rank])
    coeffs = root_coefficients_by_solve(rd, tuple(m - l for l, m in zip(lam, mu)))
    cone = coeffs is not None and all(c >= 0 for c in coeffs)
    assert preceq(rd, lam, mu) == cone
    assert leq_dominance(rd, lam, mu) == (cone and all(c.denominator == 1 for c in coeffs))


def test_root_coefficients_off_span():
    # GL2's one root spans a line in Z^2: off it both sides return None
    gl2 = datum("GL2")
    for v in [(1, 0), (0, 1), (1, 1), (3, -2)]:
        assert root_coefficients(gl2, v) is None
        assert root_coefficients_by_solve(gl2, v) is None
    assert root_coefficients(gl2, (3, -3)) == root_coefficients_by_solve(gl2, (3, -3)) == (3,)


class TestSaturation:
    def test_examples(self):
        assert saturation_set(datum("SL2"), (2,)) == ((-2,), (0,), (2,))
        assert saturation_set(datum("SL2"), (1,)) == ((-1,), (1,))
        assert saturation_set(datum("SL3"), (0, 0)) == ((0, 0),)

    @pytest.mark.parametrize("rd", [fx.datum for fx in FIXTURES.values()] + [GL3, SL4],
                             ids=lambda rd: rd.name)
    def test_enumeration_bound_is_stable(self, rd):
        # widening the coefficient box beyond the proven bound adds nothing:
        # the proven bound <mu, w_j> is at most half of <mu, 2rho^vee>
        window = dominant_window(rd, 12)
        for mu in window[::max(1, len(window) // 6)]:
            side = coroot_height(rd, mu) + 2
            wider = set()
            for coeffs in itertools.product(range(side), repeat=rd.semisimple_rank):
                lam = tuple(m - sum(c * alpha[i] for c, alpha in zip(coeffs, rd.simple_roots))
                            for i, m in enumerate(mu))
                if is_dominant(rd, lam):
                    wider.add(lam)
            assert set(dominant_below(rd, mu)) == wider, mu

    def test_non_dominant_rejected(self):
        with pytest.raises(DomainError):
            saturation_set(datum("SL2"), (-1,))


class TestConvexHull:
    def test_examples(self):
        assert conv_hull_leq(datum("SL2"), (1,), (2,))
        assert not conv_hull_leq(datum("SL2"), (2,), (1,))
        assert conv_hull_leq(datum("G2"), (1, 1), (1, 1))

    def test_matches_preceq_small(self):
        for name in ("SL2", "PGL2", "SL3", "Sp4"):
            rd = datum(name)
            weights = [w for w in dominant_box(rd, 2)]
            for lam in weights:
                for mu in weights:
                    assert conv_hull_leq(rd, lam, mu) == preceq(rd, lam, mu), (name, lam, mu)


class TestDuality:
    def test_involution(self, fixture_datum):
        assert dual_root_datum(dual_root_datum(fixture_datum)) == fixture_datum

    def test_swap(self):
        d = dual_root_datum(datum("SL2"))
        assert d.simple_roots == ((1,),)
        assert d.simple_coroots == ((2,),)


class TestDatumFiles:
    def test_round_trip(self, fixture_datum):
        from satake.lattice import datum_from_json, datum_to_json

        again = datum_from_json(datum_to_json(fixture_datum))
        assert again == fixture_datum

    def test_malformed(self):
        from satake.lattice import datum_from_json

        with pytest.raises(Exception):
            datum_from_json("not json at all{")

    def test_invalid_datum_rejected(self):
        from satake.lattice import datum_from_json

        with pytest.raises(InvalidDatumError):
            datum_from_json('{"rank": 1, "simple_roots": [[1]], "simple_coroots": [[1]]}')


class TestRankZero:
    def test_torus_operations(self):
        rd = RootDatum(0, (), (), name="point")
        validate_datum(rd)
        assert cartan_type(rd) == "torus"
        assert weyl_group_order(rd) == 1
        assert two_rho(rd) == ()
        assert weyl_orbit(rd, ()) == ((),)
        assert leq_dominance(rd, (), ())
        assert saturation_set(rd, ()) == ((),)

    def test_central_torus_in_gl2(self):
        # the central direction is invisible to the root lattice quotient
        rd = datum("GL2")
        assert class_mod_root_lattice(rd, (1, 1)) != class_mod_root_lattice(rd, (0, 0))
        assert class_mod_root_lattice(rd, (2, 1)) == class_mod_root_lattice(rd, (1, 2))
        assert class_mod_root_lattice(rd, (1, -1)) == class_mod_root_lattice(rd, (0, 0))
