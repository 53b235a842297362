from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SL4, datum
from oracles import (
    evidence_by_expansion,
    positive_functional_by_all_subsets,
    semiring_to_json_by_dumps,
    simple_roots_by_search,
)
from test_classification import B3, C3, from_cartan
from satake.errors import InconclusiveError, InconsistencyError, ParseError
from satake.fixtures import FIXTURES
from satake.lattice import RootDatum, cartan_matrix, cartan_type, dual_root_datum, leq_dominance, preceq
from satake.linalg import smith_normal_form
from satake.reconstruct import (
    AbstractSemiring,
    ReconstructionConfig,
    based_iso,
    dump_semiring,
    recover_monoid,
    recover_preceq,
    recover_Qplus,
    recover_leq,
    recover_sum,
    reconstruct_root_datum,
    _positive_functional,
    semiring_from_json,
    semiring_to_json,
    verify_reconstruction,
)

CFG = ReconstructionConfig()


def sl2_dump(bound=4, seed=0):
    sr, truth = dump_semiring(datum("SL2"), bound, seed)
    return sr, truth, {w: t for t, w in truth.items()}


def span_divisors(vectors) -> list[int]:
    """Nonzero Smith invariants of the lattice the vectors span: [1] * r
    exactly when they span all of Z^r."""
    d, _, _ = smith_normal_form([list(v) for v in vectors])
    return [abs(d[i][i]) for i in range(min(len(d), len(d[0]))) if d[i][i]]


def assert_same_text(new: str, old: str) -> None:
    """Equal texts; a mismatch names its first differing line, since a
    full diff of two dumps takes pytest minutes to render."""
    if new == old:
        return
    lines = itertools.zip_longest(new.splitlines(keepends=True), old.splitlines(keepends=True))
    k, (a, b) = next((k, pair) for k, pair in enumerate(lines) if pair[0] != pair[1])
    pytest.fail(f"line {k + 1}: {a!r} != {b!r}")


def sl2_with_edited_multiplicity():
    """The SL2 bound-4 dump with the multiplicity of (0) in (1)x(1) set to 2:
    every support is unchanged, the product table now lies."""
    sr, truth = dump_semiring(datum("SL2"), 4, seed=0)
    inv = {w: t for t, w in truth.items()}
    key = tuple(sorted((inv[(1,)], inv[(1,)])))
    terms, complete = sr.product(*key)
    terms[inv[(0,)]] = 2  # single multiplicity edit
    products = {k: (dict(v[0]), v[1]) for k, v in sr.product_table.items()}
    products[key] = (terms, complete)
    return AbstractSemiring(ids=sr.ids, unit=sr.unit, products=products)


class TestDump:
    def test_sl2_window(self):
        sr, truth, _ = sl2_dump()
        assert len(sr.ids) == 5
        assert sorted(truth.values()) == [(0,), (1,), (2,), (3,), (4,)]

    def test_determinism(self):
        a, _ = dump_semiring(datum("SL3"), 8, seed=5)
        b, _ = dump_semiring(datum("SL3"), 8, seed=5)
        assert semiring_to_json(a) == semiring_to_json(b)

    def test_seeds_change_labels(self):
        a, ta = dump_semiring(datum("SL2"), 4, seed=0)
        b, tb = dump_semiring(datum("SL2"), 4, seed=1)
        assert ta != tb

    def test_rank0(self):
        trivial = RootDatum(0, (), ())
        sr, truth = dump_semiring(trivial, 3, seed=0)
        assert sr.ids == (sr.unit,)
        with pytest.raises(InconclusiveError):
            reconstruct_root_datum(sr, CFG)

    @pytest.mark.parametrize("name, bound", [("SL3", 2), ("Sp4", 3), ("G2", 5), ("PGL3", 1), ("SL2", 1)])
    def test_one_id_dumps_match_rank0(self, name, bound):
        # a one-id window cannot tell the trivial group from any other, so
        # reconstruction must not answer for it
        sr, _ = dump_semiring(dual_root_datum(datum(name)), bound, seed=0)
        trivial, _ = dump_semiring(RootDatum(0, (), ()), bound, seed=0)
        assert sr.ids == (sr.unit,)
        assert semiring_to_json(sr) == semiring_to_json(trivial)

    def test_boundary_flags(self):
        sr, truth, inv = sl2_dump()
        # (1)x(1) = (2)+(0) stays inside; (3)x(4) spills out
        assert sr.product(inv[(1,)], inv[(1,)])[1] is True
        assert sr.product(inv[(3,)], inv[(4,)])[1] is False

    def test_unit_products(self):
        sr, truth, inv = sl2_dump()
        for x in sr.ids:
            terms, complete = sr.product(x, sr.unit)
            assert terms == {x: 1} and complete

    def test_json_round_trip(self):
        sr, _ = dump_semiring(datum("Sp4"), 8, seed=2)
        text = semiring_to_json(sr)
        again = semiring_from_json(text)
        assert semiring_to_json(again) == text

    @pytest.mark.parametrize("rd, bound", [(fx.datum, fx.dump_bound) for fx in FIXTURES.values()]
                             + [(dual_root_datum(fx.datum), fx.dump_bound) for fx in FIXTURES.values()]
                             + [(SL4, 16)], ids=lambda v: getattr(v, "name", str(v)))
    def test_writer_matches_json_dumps(self, rd, bound):
        sr, _ = dump_semiring(rd, bound, seed=0)
        assert_same_text(semiring_to_json(sr), semiring_to_json_by_dumps(sr))

    def test_writer_escapes_tokens(self):
        ids = ["e", 'quo"te', "back\\slash", "caf\u00e9\u2603"]
        products = {("e", x): ({x: 1}, True) for x in ids}
        products[('quo"te', "back\\slash")] = ({}, False)
        products[("caf\u00e9\u2603", "caf\u00e9\u2603")] = ({'quo"te': 2, "e": 1}, True)
        sr = AbstractSemiring(ids=ids, unit="e", products=products)
        text = semiring_to_json(sr)
        assert_same_text(text, semiring_to_json_by_dumps(sr))
        assert '"terms": []' in text and text.isascii()
        assert semiring_from_json(text).product_table == sr.product_table

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            semiring_from_json("{\"unit\": \"a\"}")

    def test_duplicate_term_rejected(self):
        # the same id listed twice in one product: a dict would keep the
        # last multiplicity and read back as the clean dump
        sr, _ = dump_semiring(dual_root_datum(datum("SL2")), 8, seed=0)
        doc = json.loads(semiring_to_json(sr))
        entry = next(e for e in doc["products"] if e["terms"])
        term = entry["terms"][0]
        entry["terms"].insert(0, {"id": term["id"], "mult": term["mult"] + 5})
        with pytest.raises(ParseError) as info:
            semiring_from_json(json.dumps(doc))
        assert str(info.value) == f"product ({entry['a']},{entry['b']}) lists term {term['id']} twice"

    def test_stray_product_key_rejected(self):
        products = {("e", "e"): ({"e": 1}, True), ("e", "ghost"): ({"e": 1}, True)}
        with pytest.raises(ParseError, match="outside the id set"):
            AbstractSemiring(ids=["e"], unit="e", products=products)

    @pytest.mark.parametrize("rd, bound, digest", [
        (dual_root_datum(FIXTURES["SL3"].datum), 30, "acd7dca1fb6e4efc"),
        (dual_root_datum(FIXTURES["G2"].datum), 32, "cf7971c7ce75ca83"),
        (SL4, 16, "42ce87e693e27c4f"),
        (from_cartan(B3), 40, "79f570fe84e0cb7f"),
        (from_cartan(C3), 40, "287c1ff9af59bf63"),
    ], ids=["SL3^-30", "G2^-32", "SL4-16", "B3-40", "C3-40"])
    def test_pinned_dump_digests(self, rd, bound, digest):
        sr, _ = dump_semiring(rd, bound, seed=0)
        assert hashlib.sha256(semiring_to_json(sr).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("rd, bound, digest", [
        (dual_root_datum(FIXTURES["G2"].datum), 32, "1283eb81af763c6c"),
        (dual_root_datum(FIXTURES["GL2"].datum), 8, "24dccc3c85034fc0"),
        (SL4, 16, "7807983c9c4d8f07"),
        (SL4, 20, "a3b4723b22406831"),
    ], ids=["G2^-32", "GL2^-8", "SL4-16", "SL4-20"])
    def test_pinned_reconstruction_digests(self, rd, bound, digest):
        sr, _ = dump_semiring(rd, bound, seed=0)
        rec = reconstruct_root_datum(sr, CFG)
        doc = {"roots": rec.datum.simple_roots, "coroots": rec.datum.simple_coroots,
               "labeling": sorted(rec.labeling.items()), "log": rec.log, "warnings": rec.warnings}
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest
        assert based_iso(rec.datum, rd) is not None


class TestOrderRecovery:
    def test_preceq_examples(self):
        sr, truth, inv = sl2_dump()
        assert recover_preceq(sr, CFG, inv[(0,)], inv[(2,)]) is True
        assert recover_preceq(sr, CFG, inv[(2,)], inv[(0,)]) is False
        assert recover_preceq(sr, CFG, inv[(1,)], inv[(1,)]) is True

    def test_agreement_with_ground_truth(self):
        for name, bound in [("SL2", 8), ("PGL2", 8), ("Sp4", 20)]:
            rd = dual_root_datum(datum(name))
            sr, truth = dump_semiring(rd, FIXTURES[name].dump_bound, seed=0)
            ids = sorted(sr.ids)
            for a in ids:
                for b in ids:
                    verdict = recover_preceq(sr, CFG, a, b)
                    if verdict is None:
                        continue
                    assert verdict == preceq(rd, truth[a], truth[b]), (name, truth[a], truth[b])

    def test_leq_examples(self):
        sr, truth, inv = sl2_dump()
        monoid = recover_monoid(sr, CFG, min_grade=2)
        qgens = recover_Qplus(sr, monoid)
        assert recover_leq(sr, CFG, inv[(1,)], inv[(2,)], monoid, qgens) is False
        assert recover_leq(sr, CFG, inv[(0,)], inv[(2,)], monoid, qgens) is True
        assert recover_leq(sr, CFG, inv[(3,)], inv[(3,)], monoid, qgens) is True
        # the context arguments are optional and recomputed when omitted
        assert recover_leq(sr, CFG, inv[(0,)], inv[(2,)]) is True

    def test_leq_agreement(self):
        name = "PGL2"
        rd = dual_root_datum(datum(name))
        sr, truth = dump_semiring(rd, FIXTURES[name].dump_bound, seed=0)
        monoid = recover_monoid(sr, CFG, min_grade=2)
        qgens = recover_Qplus(sr, monoid)
        for a in sr.ids:
            for b in sr.ids:
                verdict = recover_leq(sr, CFG, a, b, monoid, qgens)
                if verdict is None:
                    continue
                assert verdict == leq_dominance(rd, truth[a], truth[b]), (truth[a], truth[b])


class TestEvidence:
    @pytest.mark.parametrize("make", [
        lambda: dump_semiring(dual_root_datum(datum("GL2")), 8, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("Sp4")), FIXTURES["Sp4"].dump_bound, seed=0)[0],
        lambda: dump_semiring(datum("SL3"), 8, seed=0)[0],
        sl2_with_edited_multiplicity,
    ], ids=["GL2^-8", "Sp4^", "SL3-8", "SL2-edited"])
    def test_matches_expansion_oracle(self, make):
        sr = make()
        for k_max in (2, 3, 4):
            evidence = {(a, b): sr.evidence(a, b, k_max) for a in sr.ids for b in sr.ids}
            assert evidence == evidence_by_expansion(sr, k_max), k_max

    def test_truncated_window_is_unknown_somewhere(self):
        sr, _ = dump_semiring(datum("SL3"), 8, seed=0)
        verdicts = {sr.evidence(a, b, 4)[0] for a in sr.ids for b in sr.ids}
        assert verdicts == {"T", "F", "?"}


class TestSum:
    def test_examples(self):
        sr, truth, inv = sl2_dump()
        assert truth[recover_sum(sr, CFG, inv[(1,)], inv[(1,)])] == (2,)
        assert truth[recover_sum(sr, CFG, inv[(2,)], sr.unit)] == (2,)

    def test_sl3(self):
        sr, truth = dump_semiring(datum("SL3"), 8, seed=0)
        inv = {w: t for t, w in truth.items()}
        assert truth[recover_sum(sr, CFG, inv[(1, 0)], inv[(0, 1)])] == (1, 1)

    def test_incomplete_rejected(self):
        sr, truth, inv = sl2_dump()
        with pytest.raises(InconclusiveError):
            recover_sum(sr, CFG, inv[(4,)], inv[(4,)])

    def test_ground_truth_agreement(self):
        for name in ("PGL2", "Sp4"):
            rd = dual_root_datum(datum(name))
            sr, truth = dump_semiring(rd, FIXTURES[name].dump_bound, seed=0)
            ids = sorted(x for x in sr.ids if x != sr.unit)
            for i, a in enumerate(ids):
                for b in ids[i:]:
                    try:
                        c = recover_sum(sr, CFG, a, b)
                    except InconclusiveError:
                        continue
                    expected = tuple(x + y for x, y in zip(truth[a], truth[b]))
                    assert truth[c] == expected, (name, truth[a], truth[b])


class TestMonoid:
    def test_sl2_generator(self):
        sr, truth, inv = sl2_dump()
        monoid = recover_monoid(sr, CFG, min_grade=2)
        assert monoid.rank == 1
        assert span_divisors(monoid.embedding.values()) == [1]
        assert abs(monoid.embedding[inv[(1,)]][0]) == 1

    def test_sl3_rank(self):
        sr, truth = dump_semiring(datum("SL3"), 8, seed=0)
        monoid = recover_monoid(sr, CFG, min_grade=2)
        assert monoid.rank == 2
        assert span_divisors(monoid.embedding.values()) == [1, 1]

    def test_additivity_on_labels(self):
        sr, truth = dump_semiring(dual_root_datum(datum("Sp4")), 20, seed=0)
        monoid = recover_monoid(sr, CFG, min_grade=2)
        emb = monoid.embedding
        for a, b, c in monoid.relations:
            expected = tuple(x + y for x, y in zip(truth[a], truth[b]))
            assert truth[c] == expected


class TestQplus:
    def test_sl2(self):
        sr, truth, inv = sl2_dump()
        monoid = recover_monoid(sr, CFG, min_grade=2)
        gens = recover_Qplus(sr, monoid)
        scale = monoid.embedding[inv[(1,)]][0]  # +-1
        in_truth = sorted(abs(g[0] * scale) for g in gens)
        assert 2 in in_truth  # the root alpha = (2)
        assert all(v % 2 == 0 for v in in_truth)

    def test_pgl2(self):
        sr, truth = dump_semiring(datum("PGL2"), 8, seed=0)
        monoid = recover_monoid(sr, CFG, min_grade=2)
        gens = recover_Qplus(sr, monoid)
        norms = sorted(abs(g[0]) for g in gens)
        assert 1 in norms  # in PGL2 the root generates the full lattice


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_fixture_round_trip(self, name):
        fx = FIXTURES[name]
        dual = dual_root_datum(fx.datum)
        sr, _ = dump_semiring(dual, fx.dump_bound, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        assert based_iso(recovered.datum, dual) is not None

    def test_seed_independence(self):
        fx = FIXTURES["Sp4"]
        dual = dual_root_datum(fx.datum)
        outs = []
        for seed in (0, 99):
            sr, _ = dump_semiring(dual, fx.dump_bound, seed=seed)
            outs.append(reconstruct_root_datum(sr, CFG).datum)
        assert based_iso(outs[0], outs[1]) is not None

    @pytest.mark.parametrize("rd, bound", [
        (RootDatum(2, ((2, 0), (0, 2)), ((1, 0), (0, 1)), name="SL2xSL2"), 8),
        (RootDatum(1, (), (), name="GL1"), 3),
        (RootDatum(2, (), (), name="T2"), 2),
        (RootDatum(2, ((2, 0),), ((1, 0),), name="SL2xGL1"), 6),
    ])
    def test_non_fixture_round_trips(self, rd, bound):
        dual = dual_root_datum(rd)
        sr, _ = dump_semiring(dual, bound, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        assert based_iso(recovered.datum, dual) is not None

    def test_g2_cartan(self):
        fx = FIXTURES["G2"]
        sr, _ = dump_semiring(dual_root_datum(fx.datum), fx.dump_bound, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        assert cartan_type(recovered.datum) == "G2"

    def test_sl3_recovered_vs_dual_uses_diagram_flip(self):
        # reconstruction is blind to the outer automorphism; based_iso must
        # succeed against both the dual and the dual's flip
        fx = FIXTURES["SL3"]
        dual = dual_root_datum(fx.datum)
        sr, _ = dump_semiring(dual, fx.dump_bound, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        flipped = RootDatum(
            rank=2,
            simple_roots=(dual.simple_roots[1], dual.simple_roots[0]),
            simple_coroots=(dual.simple_coroots[1], dual.simple_coroots[0]),
        )
        assert based_iso(recovered.datum, dual) is not None
        assert based_iso(recovered.datum, flipped) is not None


class TestKnownDefects:
    """Known breaches of the truncation contract in README.  Each test
    states the contract and fails today; once the defect is fixed it
    passes, and strict xfail reports it until its marker is removed."""

    @pytest.mark.xfail(strict=True, raises=InconsistencyError,
                       reason="the clean SL3^ dump at bound 24 is reported as inconsistent")
    def test_clean_sl3_dual_dump_is_not_inconsistent(self):
        dual = dual_root_datum(datum("SL3"))
        sr, _ = dump_semiring(dual, 24, seed=0)
        try:
            recovered = reconstruct_root_datum(sr, CFG)
        except InconclusiveError:
            return
        assert based_iso(recovered.datum, dual) is not None

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="based_iso scans a bounded box of solutions and misses this pair in one order")
    def test_based_iso_finds_both_orders_with_central_torus(self):
        gl3 = RootDatum(3, ((1, -1, 0), (0, 1, -1)), ((1, -1, 0), (0, 1, -1)))
        t = RootDatum(3, ((-30, -4, -43), (-8, -1, -11)), ((4, -9, -2), (-6, 13, 3)))
        assert based_iso(t, gl3) == ((1, 3, -1), (-3, 12, 1), (3, -1, -2))
        assert based_iso(gl3, t) is not None


class TestNegativeControls:
    def test_sl2_vs_pgl2(self):
        assert based_iso(datum("SL2"), datum("PGL2")) is None

    def test_identity(self, fixture_datum):
        assert based_iso(fixture_datum, fixture_datum) is not None

    def test_corrupted_multiplicity_detected(self):
        with pytest.raises(InconsistencyError):
            reconstruct_root_datum(sl2_with_edited_multiplicity(), CFG)

    def test_flipped_completeness_flag_inconclusive(self):
        # x005 has weight 1 and x005 * x005 = x001 + x007; marked incomplete,
        # the even weights alone pass the self-check as PGL2 with four ids
        # left unlabeled
        dual = dual_root_datum(FIXTURES["PGL2"].datum)
        sr, truth = dump_semiring(dual, 8, seed=0)
        assert truth["x005"] == (1,)
        products = {k: (dict(terms), complete) for k, (terms, complete) in sr.product_table.items()}
        products[("x005", "x005")] = (products[("x005", "x005")][0], False)
        flipped = AbstractSemiring(ids=sr.ids, unit=sr.unit, products=products)
        with pytest.raises(InconclusiveError, match="unlabeled"):
            reconstruct_root_datum(flipped, CFG)

    @pytest.mark.parametrize("name, edits, min_inconsistent", [("SL2", 84, 80), ("PGL2", 268, 266)])
    def test_single_edit_census(self, name, edits, min_inconsistent):
        # every single edit of a product entry without the unit: one
        # multiplicity +1 or -1 (kept >= 1), one term dropped, or the
        # completeness flag flipped; none may pass as a datum
        sr, _ = dump_semiring(dual_root_datum(datum(name)), 8, seed=0)
        products = {k: (dict(terms), complete) for k, (terms, complete) in sr.product_table.items()}
        exits = []
        for key, (terms, complete) in products.items():
            if sr.unit in key:
                continue
            variants = [(terms, not complete)]
            for t, m in terms.items():
                variants.append(({**terms, t: m + 1}, complete))
                if m > 1:
                    variants.append(({**terms, t: m - 1}, complete))
                variants.append(({s: n for s, n in terms.items() if s != t}, complete))
            for variant in variants:
                edited = AbstractSemiring(ids=sr.ids, unit=sr.unit, products={**products, key: variant})
                try:
                    reconstruct_root_datum(edited, CFG)
                except (InconclusiveError, InconsistencyError) as exc:
                    exits.append(exc.exit_code)
                else:
                    exits.append(0)
        assert len(exits) == edits
        assert 0 not in exits
        assert exits.count(5) >= min_inconsistent

    def test_hidden_top_id_inconclusive(self):
        # drop weight 8 from every product whose maximum it is and mark those
        # products incomplete: the rest still gives SL2, but nothing labels
        # x006, so the window does not prove the datum
        sr, truth = dump_semiring(datum("SL2"), 8, seed=0)
        assert truth["x006"] == (8,)
        products = {k: (dict(terms), complete) for k, (terms, complete) in sr.product_table.items()}
        for (a, b), (terms, _) in products.items():
            if sr.unit not in (a, b) and truth[a][0] + truth[b][0] == 8:
                del terms["x006"]
                products[(a, b)] = (terms, False)
        hidden = AbstractSemiring(ids=sr.ids, unit=sr.unit, products=products)
        with pytest.raises(InconclusiveError, match="1 ids left unlabeled at grade 4: x006"):
            reconstruct_root_datum(hidden, CFG)

    def test_clean_factor_subring_inconclusive(self):
        # the bound-4 window of A1 x A2 labels only the A1 weights, which
        # pass the self-check as SL2
        a1a2 = RootDatum(3, ((2, 0, 0), (0, 2, -1), (0, -1, 2)),
                         ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="A1xA2")
        sr, _ = dump_semiring(a1a2, 4, seed=0)
        with pytest.raises(InconclusiveError, match="9 ids left unlabeled"):
            reconstruct_root_datum(sr, CFG)

    def test_shrunken_dump_inconclusive(self):
        sr, _ = dump_semiring(datum("SL3"), 4, seed=0)
        with pytest.raises(InconclusiveError):
            reconstruct_root_datum(sr, ReconstructionConfig(strict=True))

    def test_strict_never_flips_verdicts(self):
        sr, truth = dump_semiring(datum("SL2"), 6, seed=0)
        strictcfg = ReconstructionConfig(strict=True)
        for a in sr.ids:
            for b in sr.ids:
                assert recover_preceq(sr, CFG, a, b) == recover_preceq(sr, strictcfg, a, b)


class TestVerify:
    def test_clean_dump_verifies(self):
        fx = FIXTURES["PGL3"]
        sr, _ = dump_semiring(dual_root_datum(fx.datum), fx.dump_bound, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        assert verify_reconstruction(sr, recovered) == []


class TestExtraction:
    def test_simple_roots_minimality(self):
        from satake.reconstruct import extract_simple_roots

        assert extract_simple_roots(((2,), (4,), (6,))) == ((2,),)
        assert set(extract_simple_roots(((1, 0), (0, 1), (1, 1), (2, 1)))) == {(1, 0), (0, 1)}
        assert extract_simple_roots(()) == ()
        # rays spanning a proper subspace of Z^3
        assert extract_simple_roots(((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1))) == \
            ((0, 1, -1), (1, -1, 0))

    def test_simple_roots_long_chain(self):
        from satake.reconstruct import extract_simple_roots

        # (1500,) is 1500 copies of (1,): the semigroup search goes that deep
        assert extract_simple_roots(((1,), (1500,))) == ((1,),)

    def test_simple_roots_reject_unpointed(self):
        from satake.reconstruct import extract_simple_roots

        with pytest.raises(InconsistencyError):
            extract_simple_roots(((1,), (-1,)))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_functional_matches_all_subsets(self, data, dim):
        # a pointed cone: nonnegative combinations of an independent set
        size = data.draw(st.integers(1, dim))
        vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        basis = data.draw(st.lists(vector, min_size=size, max_size=size))
        d, _, _ = smith_normal_form(basis)
        assume(all(d[i][i] != 0 for i in range(size)))
        coeffs = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                                    .filter(any), min_size=1, max_size=6))
        rays = [tuple(sum(c * v[i] for c, v in zip(cs, basis)) for i in range(dim)) for cs in coeffs]
        rays += [tuple(x + y for x, y in zip(g, h)) for g, h in itertools.combinations(rays, 2)]
        # negating some rays puts a line in the cone
        negated = data.draw(st.lists(st.sampled_from(rays), max_size=2))
        gens = tuple(sorted(set(rays) | {tuple(-x for x in g) for g in negated}))
        # any functional positive on the generators will do, so phi is
        # checked against the generators, and the oracle only decides
        # whether the cone is pointed
        try:
            positive_functional_by_all_subsets(gens)
        except InconsistencyError:
            with pytest.raises(InconsistencyError):
                _positive_functional(gens)
            return
        phi = _positive_functional(gens)
        assert len(phi) == dim and all(type(p) is int for p in phi)
        assert all(sum(p * x for p, x in zip(phi, g)) > 0 for g in gens)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_simple_roots_match_search(self, data, dim):
        from satake.reconstruct import extract_simple_roots

        # nonnegative combinations of an independent set, with some of their
        # pairwise sums, so that some differences are generators and some not
        size = data.draw(st.integers(1, dim))
        vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        basis = data.draw(st.lists(vector, min_size=size, max_size=size))
        d, _, _ = smith_normal_form(basis)
        assume(all(d[i][i] != 0 for i in range(size)))
        coeffs = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                                    .filter(any), min_size=1, max_size=8))
        rays = [tuple(sum(c * v[i] for c, v in zip(cs, basis)) for i in range(dim)) for cs in coeffs]
        pairs = data.draw(st.lists(st.tuples(st.integers(0, len(rays) - 1), st.integers(0, len(rays) - 1)),
                                   max_size=6))
        rays += [tuple(x + y for x, y in zip(rays[i], rays[j])) for i, j in pairs]
        gens = tuple(sorted(set(rays)))
        assert extract_simple_roots(gens) == simple_roots_by_search(gens)

    def test_hexagon_rejected(self):
        from satake.reconstruct import extract_simple_roots

        # the A2 roots: every ray is the sum of two others, so none is tight
        gens = tuple(sorted({(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}))
        with pytest.raises(InconsistencyError):
            _positive_functional(gens)
        with pytest.raises(InconsistencyError):
            extract_simple_roots(gens)
        # (2, 1) is the one tight ray: the LP is feasible, and only the check
        # on every ray rejects its phi
        with pytest.raises(InconsistencyError):
            _positive_functional(tuple(sorted(gens + ((2, 1),))))
        # the hexagon in the plane z = 0 below the one tight ray (0, 0, 1):
        # the LP's phi vanishes on the hexagon
        lifted = tuple(sorted([g + (0,) for g in gens] + [(0, 0, 1)]))
        with pytest.raises(InconsistencyError):
            _positive_functional(lifted)

    def test_functional_rejects_unpointed_after_pruning(self):
        # (1,1) = (1,0) + (0,1), (-1,1) = (-1,0) + (0,1) and (0,1) = (1,0) + (-1,1)
        # are pruned, leaving the line through (1,0) and (-1,0)
        gens = ((1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1))
        with pytest.raises(InconsistencyError):
            positive_functional_by_all_subsets(gens)
        with pytest.raises(InconsistencyError):
            _positive_functional(gens)

    def test_coroot_functional_sl2(self):
        from satake.reconstruct import extract_simple_coroots, recover_Qplus, recover_monoid
        from satake.reconstruct import extract_simple_roots

        sr, truth = dump_semiring(datum("SL2"), 6, seed=0)
        monoid = recover_monoid(sr, CFG, min_grade=2)
        roots = extract_simple_roots(recover_Qplus(sr, monoid))
        assert len(roots) == 1
        cov = extract_simple_coroots(monoid, roots[0])
        assert sum(a * c for a, c in zip(roots[0], cov)) == 2
        # the embedded picture is the SL2 one up to a sign: |alpha| = 2, |alpha^| = 1
        assert sorted(abs(c) for c in roots[0]) == [2]
        assert sorted(abs(c) for c in cov) == [1]

