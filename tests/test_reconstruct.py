from __future__ import annotations

import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SL2_PGL2, SL4, datum
from oracles import (
    certified_sum_by_matrix,
    evidence_by_expansion,
    evidence_by_witness,
    positive_functional_by_all_subsets,
    preceq_by_directed_verdict,
    semiring_to_json_by_dumps,
    simple_coroot_by_fractions,
    simple_roots_by_search,
    verify_reconstruction_by_diff,
    witness_semiring,
)
from test_classification import B3, C3, block_sum, finite_type, from_cartan
from satake import reconstruct
from satake.errors import DomainError, InconclusiveError, InconsistencyError, InvalidDatumError, ParseError
from satake.fixtures import FIXTURES
from satake.lattice import RootDatum, cartan_matrix, cartan_type, dual_root_datum, preceq
from satake.linalg import smith_normal_form
from satake.semiring import _label_product
from satake.reconstruct import (
    AbstractSemiring,
    MonoidRecovery,
    ReconstructionConfig,
    RecoveredDatum,
    based_iso,
    dump_semiring,
    extract_simple_coroots,
    recover_monoid,
    recover_preceq,
    recover_Qplus,
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


def sum_outcome(certify, sr, cfg, a, b, grade):
    """The certified sum, or the class and message of the error raised."""
    try:
        return certify(sr, cfg, a, b, grade)
    except (InconclusiveError, InconsistencyError) as exc:
        return type(exc), str(exc)


def monoid_outcome(sr, cfg, grade):
    """The recovered monoid, or the class and message of the error raised."""
    try:
        return recover_monoid(sr, cfg, grade)
    except (InconclusiveError, InconsistencyError) as exc:
        return type(exc), str(exc)


def simple_roots_outcome(extract, gens):
    """The simple roots, or the class and message of the error raised."""
    try:
        return extract(gens)
    except InconsistencyError as exc:
        return type(exc), str(exc)


def coroot_fit_outcome(fit, monoid, alpha):
    """The fitted coroot, or the class and message of the error raised."""
    try:
        return fit(monoid, alpha)
    except (InconclusiveError, InconsistencyError) as exc:
        return type(exc), str(exc)


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


def single_edits(sr):
    """Every single edit of a product entry without the unit: one
    multiplicity +1 or -1 (kept >= 1), one term dropped, or the completeness
    flag flipped, each as its own semiring."""
    products = {k: (dict(terms), complete) for k, (terms, complete) in sr.product_table.items()}
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
            yield AbstractSemiring(ids=sr.ids, unit=sr.unit, products={**products, key: variant})


def toy_with_every_sum_outcome():
    """A four-id table, the dump of no datum, on which ``_certified_sum``
    meets every outcome: a sum, an incomplete product, an ambiguous maximum,
    no maximal constituent and a maximum that the order contradicts."""
    ids = ("i0", "i1", "i2", "i3")
    products = {(x, "i0"): ({x: 1}, True) for x in ids}
    products.update({
        ("i1", "i1"): ({"i0": 1, "i2": 1, "i3": 1}, True),
        ("i1", "i2"): ({"i0": 1, "i1": 1, "i2": 1, "i3": 1}, True),
        ("i1", "i3"): ({"i1": 1, "i2": 1, "i3": 1}, True),
        ("i2", "i2"): ({"i0": 1, "i3": 1}, True),
        ("i2", "i3"): ({"i1": 1}, False),
        ("i3", "i3"): ({"i1": 1, "i3": 1}, True),
    })
    return AbstractSemiring(ids=ids, unit="i0", products=products)


class TestDump:
    def test_sl2_window(self):
        sr, truth, _ = sl2_dump()
        assert len(sr.ids) == 5
        assert sorted(truth.values()) == [(0,), (1,), (2,), (3,), (4,)]
        # a float bound used to raise a bare TypeError
        with pytest.raises(DomainError, match="must be integers"):
            dump_semiring(datum("SL3"), 2.5, seed=0)

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

    @staticmethod
    def one_letter_dump() -> dict:
        """SL2's dump at bound 4 with its five tokens renamed a, b, c, d, e."""
        sr, _ = dump_semiring(datum("SL2"), 4, seed=0)
        text = semiring_to_json(sr)
        for token, letter in zip(sr.ids, "abcde"):
            text = text.replace(json.dumps(token), json.dumps(letter))
        doc = json.loads(text)
        assert doc["ids"] == list("abcde")
        return doc

    def test_ids_given_as_a_string_rejected(self):
        # iterating the string "abcde" gives the five ids one by one
        doc = self.one_letter_dump()
        assert semiring_from_json(json.dumps(doc)).ids == tuple("abcde")
        doc["ids"] = "abcde"
        with pytest.raises(ParseError, match="expected a json list"):
            semiring_from_json(json.dumps(doc))

    def test_duplicate_id_rejected(self):
        # a set of ids would keep one copy and read back as the clean dump
        doc = self.one_letter_dump()
        doc["ids"].insert(2, "d")
        with pytest.raises(ParseError) as info:
            semiring_from_json(json.dumps(doc))
        assert str(info.value) == "semiring dump lists id d twice"

    def test_repeated_product_pair_rejected(self):
        # a second entry for the same ordered pair used to replace the first;
        # either order of the pair now conflicts, and an identical repeat,
        # its terms in any order, is accepted
        doc = self.one_letter_dump()
        entry = next(e for e in doc["products"] if len(e["terms"]) > 1 and e["a"] != e["b"])
        swapped = dict(entry, a=entry["b"], b=entry["a"])
        for repeat in (dict(entry), swapped):
            repeat["terms"] = entry["terms"][::-1]
            doc["products"].append(repeat)
            assert semiring_from_json(json.dumps(doc)).product_table == semiring_from_json(
                json.dumps(self.one_letter_dump())).product_table
            repeat["terms"] = [dict(t, mult=t["mult"] + 1) for t in entry["terms"]]
            with pytest.raises(ParseError) as info:
                semiring_from_json(json.dumps(doc))
            assert str(info.value) == f"conflicting product entries for ({repeat['a']},{repeat['b']})"
            doc["products"].pop()

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
        # data whose Cartan matrix has diagram automorphisms
        (SL4, 20, "e39c8a273c92a7c4"),
        (from_cartan(finite_type("D", 4)), 24, "3515f6bcd148eeed"),
        (SL2_PGL2, 16, "3e2a9154b90cb44f"),
        (from_cartan(block_sum(finite_type("A", 2), finite_type("A", 2))), 10, "03a3a1020131779c"),
    ], ids=["SL3^-30", "G2^-32", "SL4-16", "B3-40", "C3-40", "SL4-20", "D4-24", "SL2xPGL2-16", "A2xA2-10"])
    @pytest.mark.hashseed
    def test_pinned_dump_digests(self, rd, bound, digest):
        sr, _ = dump_semiring(rd, bound, seed=0)
        assert hashlib.sha256(semiring_to_json(sr).encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("rd, bound, digest", [
        (dual_root_datum(FIXTURES["G2"].datum), 32, "1283eb81af763c6c"),
        (dual_root_datum(FIXTURES["GL2"].datum), 8, "24dccc3c85034fc0"),
        (SL4, 16, "7807983c9c4d8f07"),
        (SL4, 20, "a3b4723b22406831"),
        (from_cartan(finite_type("A", 4)), 22, "e2724318da770b8d"),
    ], ids=["G2^-32", "GL2^-8", "SL4-16", "SL4-20", "SL5-22"])
    @pytest.mark.hashseed
    def test_pinned_reconstruction_digests(self, rd, bound, digest):
        sr, _ = dump_semiring(rd, bound, seed=0)
        rec = reconstruct_root_datum(sr, CFG)
        doc = {"roots": rec.datum.simple_roots, "coroots": rec.datum.simple_coroots,
               "labeling": sorted(rec.labeling.items()), "log": rec.log, "warnings": rec.warnings}
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest
        assert based_iso(rec.datum, rd) is not None


@pytest.mark.hashseed
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

    @pytest.mark.parametrize("make", [
        lambda: dump_semiring(dual_root_datum(datum("GL2")), 8, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("Sp4")), FIXTURES["Sp4"].dump_bound, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("G2")), 32, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("SL3")), 24, seed=0)[0],
        sl2_with_edited_multiplicity,
        toy_with_every_sum_outcome,
    ], ids=["GL2^-8", "Sp4^", "G2^-32", "SL3^-24", "SL2-edited", "toy"])
    def test_verdicts_match_directed_verdict_oracle(self, make):
        # the lazily asked verdicts give what the full verdict matrix gave:
        # recover_preceq on every pair at k_max 2, 3 and 4, and the certified
        # sum (or its error) of every product at grades 4, 3 and 2
        sr = make()
        for k_max in (2, 3, 4):
            cfg = ReconstructionConfig(k_max=k_max)
            for a in sr.ids:
                for b in sr.ids:
                    assert recover_preceq(sr, cfg, a, b) == preceq_by_directed_verdict(sr, cfg, a, b), \
                        (k_max, a, b)
        for grade in (4, 3, 2):
            for a, b in sr.product_table:
                assert sum_outcome(reconstruct._certified_sum, sr, CFG, a, b, grade) == \
                    sum_outcome(certified_sum_by_matrix, sr, CFG, a, b, grade), (grade, a, b)


    def test_toy_meets_every_sum_outcome(self):
        sr = toy_with_every_sum_outcome()
        outcomes = {(grade, a, b): sum_outcome(reconstruct._certified_sum, sr, CFG, a, b, grade)
                    for grade in (4, 3, 2) for a, b in sr.product_table}
        assert outcomes[(4, "i3", "i3")] == "i3"
        assert outcomes[(4, "i2", "i3")] == (InconclusiveError, "incomplete product (i2,i3)")
        assert outcomes[(4, "i2", "i2")] == (InconclusiveError, "ambiguous maximum in product (i2,i2)")
        assert outcomes[(2, "i1", "i3")] == (InconsistencyError, "no maximal constituent left in (i1,i3)")
        assert outcomes[(3, "i1", "i3")] == \
            (InconsistencyError, "constituent order of (i1,i3) contradicts a unique maximum")


@pytest.mark.hashseed
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

    def test_id_outside_semiring_rejected(self):
        sr, _, _ = sl2_dump()
        for a, b in [("nope", sr.unit), (sr.unit, "nope")]:
            with pytest.raises(DomainError, match="ids from the semiring"):
                sr.evidence(a, b, 4)

    def test_truncated_window_is_unknown_somewhere(self):
        sr, _ = dump_semiring(datum("SL3"), 8, seed=0)
        verdicts = {sr.evidence(a, b, 4)[0] for a in sr.ids for b in sr.ids}
        assert verdicts == {True, False, None}


@pytest.mark.hashseed
class TestSupportColumns:
    CASES = [
        lambda: dump_semiring(dual_root_datum(datum("SL3")), 30, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("PGL3")), FIXTURES["PGL3"].dump_bound, seed=0)[0],
        lambda: dump_semiring(SL4, 16, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("Sp4")), FIXTURES["Sp4"].dump_bound, seed=0)[0],
        lambda: dump_semiring(dual_root_datum(datum("G2")), FIXTURES["G2"].dump_bound, seed=0)[0],
        sl2_with_edited_multiplicity,
    ]
    IDS = ["SL3^-30", "PGL3^", "SL4-16", "Sp4^", "G2^", "SL2-edited"]

    @pytest.mark.parametrize("make", CASES, ids=IDS)
    def test_evidence_matches_witness_kernel(self, make):
        # the whole-column supports give the witness-by-witness verdicts and
        # strengths on every ordered pair, and the same powers
        sr = make()
        for k_max in (2, 3, 4):
            evidence = {(a, b): sr.evidence(a, b, k_max) for a in sr.ids for b in sr.ids}
            assert evidence == evidence_by_witness(sr, k_max), k_max
        oracle = witness_semiring(sr)
        for x in sr.ids:
            assert [sr.power(x, k) for k in range(5)] == [oracle.power(x, k) for k in range(5)], x

    @pytest.mark.parametrize("make", CASES, ids=IDS)
    def test_monoid_matches_witness_kernel(self, make):
        sr = make()
        oracle = witness_semiring(sr)
        for grade in (4, 3, 2):
            assert monoid_outcome(sr, CFG, grade) == monoid_outcome(oracle, CFG, grade), grade

    def test_rows_wait_for_the_first_support_query(self):
        # a dump that is only written never pays for the support rows
        sr, _ = dump_semiring(datum("SL3"), 8, seed=0)
        semiring_to_json(sr)
        assert sr._rows is None
        sr.power(sr.ids[1], 2)
        assert sr._rows is not None

    def test_missing_product_is_open_and_empty(self):
        # x * x is not in the table: the square and its products are open
        products = {(x, "e"): ({x: 1}, True) for x in ("e", "x")}
        sr = AbstractSemiring(ids=["e", "x"], unit="e", products=products)
        assert sr.power("x", 1) == (0b10, True)
        assert sr.power("x", 2) == (0, False)
        assert sr.power("x", 3) == (0, False)
        assert sr.evidence("e", "x", 4) == witness_semiring(sr).evidence("e", "x", 4)

    def test_empty_complete_product(self):
        # x * x is listed complete with no terms, so every power of x from
        # the square on is empty, and so is each of its witness products
        products = {(t, "e"): ({t: 1}, True) for t in ("e", "x", "y")}
        products.update({("x", "x"): ({}, True), ("x", "y"): ({"y": 1}, True), ("y", "y"): ({"e": 1}, False)})
        sr = AbstractSemiring(ids=["e", "x", "y"], unit="e", products=products)
        assert sr.power("x", 3) == (0, True)
        oracle = witness_semiring(sr)
        for k_max in (2, 3, 4):
            evidence = {(a, b): sr.evidence(a, b, k_max) for a in sr.ids for b in sr.ids}
            assert evidence == evidence_by_witness(sr, k_max), k_max
        assert [sr.power(x, k) for x in sr.ids for k in range(5)] == \
            [oracle.power(x, k) for x in sr.ids for k in range(5)]


@pytest.mark.hashseed
class TestSum:
    def test_examples(self):
        sr, truth, inv = sl2_dump()
        assert truth[recover_sum(sr, CFG, inv[(1,)], inv[(1,)])] == (2,)
        assert truth[recover_sum(sr, CFG, inv[(2,)], sr.unit)] == (2,)

    def test_sl3(self):
        sr, truth = dump_semiring(datum("SL3"), 8, seed=0)
        inv = {w: t for t, w in truth.items()}
        assert truth[recover_sum(sr, CFG, inv[(1, 0)], inv[(0, 1)])] == (1, 1)

    def test_id_outside_semiring_rejected(self):
        # not InconclusiveError, whose exit 4 would report a truncated window
        sr, _, _ = sl2_dump()
        for a, b in [("nope", sr.unit), (sr.unit, "nope")]:
            with pytest.raises(DomainError, match="ids from the semiring"):
                recover_sum(sr, CFG, a, b)

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

    @pytest.mark.parametrize("rd, bound, digest", [
        (dual_root_datum(FIXTURES["GL2"].datum), 8, "24178c7ec6f67406"),
        (dual_root_datum(FIXTURES["SL3"].datum), 30, "c903f1a0e59d7db0"),
        (dual_root_datum(FIXTURES["Sp4"].datum), 20, "f7dd90fa259c16c8"),
        (dual_root_datum(FIXTURES["G2"].datum), 32, "351944199c8a4c53"),
        (SL4, 16, "38bdb7631a5fd4a3"),
    ], ids=["GL2^-8", "SL3^-30", "Sp4^-20", "G2^-32", "SL4-16"])
    @pytest.mark.hashseed
    def test_pinned_monoid_and_sum_digests(self, rd, bound, digest):
        # at grades 4, 3 and 2: the monoid (embedding, rank, relations in
        # order, skipped) and the certified sum of every pair of
        # twice-expandable ids, or the class and message of the error raised
        sr, _ = dump_semiring(rd, bound, seed=0)
        small = [x for x in sr.ids if sr.power(x, 2)[1]]
        doc = []
        for grade in (4, 3, 2):
            try:
                monoid = recover_monoid(sr, CFG, min_grade=grade)
                doc.append([sorted(monoid.embedding.items()), monoid.rank,
                            monoid.relations, monoid.skipped])
            except (InconclusiveError, InconsistencyError) as exc:
                doc.append([type(exc).__name__, str(exc)])
            for i, a in enumerate(small):
                for b in small[i:]:
                    try:
                        doc.append(reconstruct._certified_sum(sr, CFG, a, b, grade))
                    except (InconclusiveError, InconsistencyError) as exc:
                        doc.append([type(exc).__name__, str(exc)])
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16] == digest


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

    def test_validation_bug_propagates(self, monkeypatch):
        # only InvalidDatumError means "recovered datum is invalid" (exit 5);
        # a bug in the validation surfaces as itself
        def broken(rd):
            raise TypeError("bug in validation")

        monkeypatch.setattr(reconstruct, "validate_datum", broken)
        sr, _ = dump_semiring(dual_root_datum(datum("SL2")), 8, seed=0)
        with pytest.raises(TypeError, match="bug in validation"):
            reconstruct_root_datum(sr, CFG)

    def test_invalid_recovered_datum_is_inconsistent(self, monkeypatch):
        def invalid(rd):
            raise InvalidDatumError("not finite type")

        monkeypatch.setattr(reconstruct, "validate_datum", invalid)
        sr, _ = dump_semiring(dual_root_datum(datum("SL2")), 8, seed=0)
        with pytest.raises(InconsistencyError, match="recovered datum is invalid: not finite type"):
            reconstruct_root_datum(sr, CFG)

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

    @pytest.mark.xfail(strict=True, raises=InconsistencyError,
                       reason="the clean SL4 dump at bound 20 is reported as inconsistent at k_max 2")
    def test_clean_sl4_dump_is_not_inconsistent_at_kmax_2(self):
        # k_max 4 and 3 reconstruct A3 from the same dump
        sr, _ = dump_semiring(SL4, 20, seed=0)
        try:
            recovered = reconstruct_root_datum(sr, ReconstructionConfig(k_max=2))
        except InconclusiveError:
            return
        assert based_iso(recovered.datum, SL4) is not None

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
    @pytest.mark.hashseed
    def test_single_edit_census(self, name, edits, min_inconsistent):
        # none of the single edits may pass as a datum
        sr, _ = dump_semiring(dual_root_datum(datum(name)), 8, seed=0)
        exits = []
        for edited in single_edits(sr):
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

    def test_no_grade_to_try_is_a_domain_error(self):
        # a config forced past its own k_max check tries no grade: a package
        # error, also under python -O
        cfg = ReconstructionConfig()
        object.__setattr__(cfg, "k_max", 1)
        sr, _ = dump_semiring(datum("SL2"), 4, seed=0)
        with pytest.raises(DomainError, match="k_max"):
            reconstruct_root_datum(sr, cfg)
        # a float k_max used to be accepted, and a string one to raise a bare
        # TypeError
        for k_max in (2.5, "4"):
            with pytest.raises(DomainError, match="must be integers"):
                ReconstructionConfig(k_max=k_max)

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

    @pytest.mark.parametrize("rd, bound", [
        (SL4, 16),
        (dual_root_datum(FIXTURES["Sp4"].datum), FIXTURES["Sp4"].dump_bound),
        (dual_root_datum(FIXTURES["G2"].datum), 32),
    ], ids=["SL4-16", "Sp4^", "G2^-32"])
    def test_self_check_reuses_dump_products(self, rd, bound, monkeypatch):
        # the recovered simple roots come back in another node order, and the
        # canonical node order still keys their products as the dump's
        added = []

        def counted(sr, recovered):
            before = _label_product.cache_info().misses
            mismatches = verify_reconstruction(sr, recovered)
            added.append(_label_product.cache_info().misses - before)
            return mismatches

        sr, _ = dump_semiring(rd, bound, seed=0)
        monkeypatch.setattr(reconstruct, "verify_reconstruction", counted)
        rec = reconstruct_root_datum(sr, CFG)
        assert cartan_matrix(rec.datum) != cartan_matrix(rd)
        assert added[-1] == 0


@pytest.mark.hashseed
class TestSelfCheckShortcut:
    @pytest.mark.parametrize("name", ["SL2", "PGL2"])
    def test_matches_full_diff_on_single_edits(self, name):
        # every single edit of the census dumps, checked against the clean
        # reconstruction: the same mismatches, in the same order
        sr, _ = dump_semiring(dual_root_datum(datum(name)), 8, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        assert verify_reconstruction(sr, recovered) == verify_reconstruction_by_diff(sr, recovered) == []
        kinds = set()
        for edited in single_edits(sr):
            mismatches = verify_reconstruction(edited, recovered)
            assert mismatches, "a single edit passed the self-check"
            assert mismatches == verify_reconstruction_by_diff(edited, recovered)
            kinds.update(m.split(": ", 1)[1].split()[0] for m in mismatches)
        assert kinds == {"term", "expected", "complete", "marked"}

    def test_unlabeled_term_is_not_a_mismatch(self):
        # a labeling that leaves out an id: terms on it are skipped, the
        # totals still count them
        sr, _ = dump_semiring(dual_root_datum(datum("SL2")), 8, seed=0)
        recovered = reconstruct_root_datum(sr, CFG)
        top = max(recovered.labeling, key=recovered.labeling.get)
        partial = RecoveredDatum(recovered.datum, {x: w for x, w in recovered.labeling.items() if x != top},
                                 recovered.log)
        assert verify_reconstruction(sr, partial) == verify_reconstruction_by_diff(sr, partial)


class TestExtraction:
    def test_simple_roots_minimality(self):
        from satake.reconstruct import extract_simple_roots

        assert extract_simple_roots(((2,), (4,), (6,))) == ((2,),)
        assert set(extract_simple_roots(((1, 0), (0, 1), (1, 1), (2, 1)))) == {(1, 0), (0, 1)}
        assert extract_simple_roots(()) == ()
        # rays spanning a proper subspace of Z^3
        assert extract_simple_roots(((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1))) == \
            ((0, 1, -1), (1, -1, 0))
        # (1, 2) = (1, 0) + 2 (0, 1) is irreducible, as no difference of two
        # generators is (0, 2) or (1, 1), but it is not an atom: the search
        # descends one level below it
        assert extract_simple_roots(((1, 0), (0, 1), (1, 2))) == ((0, 1), (1, 0))

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
        phi, _ = _positive_functional(gens)
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
        # negating some rays puts a line in the cone: both sides must reject it
        negated = data.draw(st.lists(st.sampled_from(rays), max_size=2))
        gens = tuple(sorted(set(rays) | {tuple(-x for x in g) for g in negated}))
        assert simple_roots_outcome(extract_simple_roots, gens) == \
            simple_roots_outcome(simple_roots_by_search, gens)

    @pytest.mark.parametrize("name", ["SL3", "PGL3", "Sp4", "G2"])
    def test_simple_roots_match_search_on_harvests(self, name):
        from satake.reconstruct import extract_simple_roots

        fx = FIXTURES[name]
        sr, _ = dump_semiring(dual_root_datum(fx.datum), fx.dump_bound, seed=0)
        harvests = []
        for grade in range(CFG.k_max, 1, -1):
            try:
                monoid = recover_monoid(sr, CFG, min_grade=grade)
            except (InconclusiveError, InconsistencyError):
                continue
            harvests.append(recover_Qplus(sr, monoid))
        assert harvests
        for gens in harvests:
            assert extract_simple_roots(gens) == simple_roots_by_search(gens)

    def test_hexagon_rejected(self):
        from satake.reconstruct import extract_simple_roots

        # the A2 roots: every generator is the sum of two others, so none is
        # irreducible
        gens = tuple(sorted({(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1)}))
        with pytest.raises(InconsistencyError):
            _positive_functional(gens)
        with pytest.raises(InconsistencyError):
            extract_simple_roots(gens)
        # (2, 1) is the one irreducible generator: the LP is feasible, and
        # only the check on every generator rejects its phi
        with pytest.raises(InconsistencyError):
            _positive_functional(tuple(sorted(gens + ((2, 1),))))
        # the hexagon in the plane z = 0 below the one irreducible generator
        # (0, 0, 1): the LP's phi vanishes on the hexagon
        lifted = tuple(sorted([g + (0,) for g in gens] + [(0, 0, 1)]))
        with pytest.raises(InconsistencyError):
            _positive_functional(lifted)

    def test_functional_rejects_unpointed_after_pruning(self):
        # (1,1) = (1,0) + (0,1), (-1,1) = (-1,0) + (0,1) and (0,1) = (1,0) + (-1,1)
        # are sums of two generators, so only the line through the irreducible
        # (1,0) and (-1,0) is left
        gens = ((1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1))
        with pytest.raises(InconsistencyError):
            positive_functional_by_all_subsets(gens)
        with pytest.raises(InconsistencyError):
            _positive_functional(gens)

    def test_coroot_functional_sl2(self):
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rank=st.integers(1, 3))
    def test_coroot_fit_matches_fractions(self, data, rank):
        # random embeddings with the chain 2v, 2v - alpha, ... often present
        # below a vector v: of a random length, or of length <v, cov> for a
        # drawn functional cov, so that integral fits, non-integral ones,
        # inconsistent samples and too small windows all occur
        vector = st.tuples(*[st.integers(-1, 4)] * rank)
        alpha = data.draw(vector.filter(any))
        cov = data.draw(st.one_of(st.none(), st.tuples(*[st.integers(-1, 1)] * rank)))
        points = []
        for v in data.draw(st.lists(vector, min_size=1, max_size=5, unique=True)):
            double = tuple(2 * x for x in v)
            if cov is None:
                steps = data.draw(st.integers(-1, 2))
            else:
                steps = max(0, sum(x * c for x, c in zip(v, cov)))
            points += [v] + [tuple(x - j * a for x, a in zip(double, alpha)) for j in range(steps + 1)]
        points = list(dict.fromkeys(points))[:12]
        monoid = MonoidRecovery(embedding={f"x{i:03d}": p for i, p in enumerate(points)},
                                rank=rank, relations=(), skipped=())
        assert coroot_fit_outcome(extract_simple_coroots, monoid, alpha) == \
            coroot_fit_outcome(simple_coroot_by_fractions, monoid, alpha)

    def test_coroot_fit_rank_deficient_before_inconsistent(self):
        # the samples (0,0) -> 0, (1,0) -> 2, (2,0) -> 0 disagree, but they
        # span rank 1 of 2: too small a window, not a corrupted one
        embedding = {f"x{i}": p for i, p in enumerate([(0, 0), (1, 0), (2, 0), (4, 0)])}
        monoid = MonoidRecovery(embedding=embedding, rank=2, relations=(), skipped=())
        expected = (InconclusiveError, "window too small to determine a coroot")
        assert coroot_fit_outcome(extract_simple_coroots, monoid, (1, 0)) == expected
        assert coroot_fit_outcome(simple_coroot_by_fractions, monoid, (1, 0)) == expected

    def test_coroot_window_too_small_on_d4(self):
        # a clean dump whose reported error comes from the coroot fit, as does
        # D4 at bound 32: at every grade the samples span less than the rank
        sr, _ = dump_semiring(from_cartan(finite_type("D", 4)), 24, seed=0)
        with pytest.raises(InconclusiveError, match="^window too small to determine a coroot$"):
            reconstruct_root_datum(sr, CFG)
