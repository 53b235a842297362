"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one CRITERION line with its verdict and elapsed time, so a
plain `pytest -s tests/test_acceptance.py` doubles as the acceptance report.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import character_product_bruteforce, dominant_box
from satake.cli import sample_pool
from satake.errors import InconclusiveError
from satake.fixtures import FIXTURES
from satake.lattice import (
    class_mod_root_lattice,
    conv_hull_leq,
    coroot_height,
    dominant_window,
    dual_root_datum,
    leq_dominance,
    preceq,
    root_coefficients,
    saturation_set,
    two_rho,
    pairing,
)
from satake.reconstruct import (
    ReconstructionConfig,
    based_iso,
    dump_semiring,
    recover_monoid,
    reconstruct_root_datum,
)
from satake.semiring import (
    prv_multiplicity,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from satake.shadow import (
    SatakeContext,
    component_parity,
    convolution_decompose,
    orbit_dim,
    semismall_bound,
    stratum,
)

SATAKE = [sys.executable, "-m", "satake.cli"]
ALL = list(FIXTURES)


def _announce(number: int, name: str, started: float) -> None:
    print(f"\nCRITERION {number} ({name}): PASS  [{time.time() - started:.1f}s]")


# sha256 prefixes of the verify-duality json reports: the reports are
# byte-identical for equal inputs, so any change to them shows here
C1_REPORT_DIGESTS = {
    "SL2": "855c04cea9d8e560",
    "PGL2": "226a1f261ade03f7",
    "GL2": "7604a0fc2ce0a995",
    "SL3": "c4b5644d80fd561c",
    "PGL3": "8b5df3494b3bdd90",
    "Sp4": "f247ec2e6bfbbd19",
    "G2": "16ac7d337806d735",
}


def test_c1_round_trip_reconstruction():
    started = time.time()
    for name in ALL:
        proc = subprocess.run(
            SATAKE + ["verify-duality", "--datum", name, "--kmax", "4", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)
        assert json.loads(proc.stdout)["summary"]["verdict"] == "pass", name
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == C1_REPORT_DIGESTS[name], name
    _announce(1, "round-trip reconstruction, 7 fixtures", started)


def test_c2_order_equivalences():
    started = time.time()
    for name in ALL:
        rd = FIXTURES[name].datum
        weights = dominant_box(rd, 4)
        for lam in weights:
            for mu in weights:
                narrow = leq_dominance(rd, lam, mu)
                wide = preceq(rd, lam, mu)
                same_class = class_mod_root_lattice(rd, lam) == class_mod_root_lattice(rd, mu)
                assert narrow == (wide and same_class), (name, lam, mu)
                assert wide == conv_hull_leq(rd, lam, mu), (name, lam, mu)
    _announce(2, "dominance-order equivalences, coords <= 4", started)


def test_c3_oracle_equivalence():
    started = time.time()
    for name in ALL:
        rd = FIXTURES[name].datum
        weights = dominant_window(rd, 12)
        if name == "GL2":  # central shifts: equivariant, capped
            weights = [w for w in weights if max(map(abs, w)) <= 6]
        pairs = [(lam, mu) for lam in weights for mu in weights
                 if coroot_height(rd, lam) + coroot_height(rd, mu) <= 12]
        for lam, mu in pairs:
            fast = tensor_decompose(rd, lam, mu)
            slow = character_product_bruteforce(rd, lam, mu)
            assert fast == slow, (name, lam, mu)
            total = sum(m * weyl_dim(rd, nu) for nu, m in fast.items())
            assert total == weyl_dim(rd, lam) * weyl_dim(rd, mu), (name, lam, mu)
    _announce(3, "tensor oracle equivalence, 2rho-height <= 12", started)


def test_c4_prv_instances():
    started = time.time()
    for name in ALL:
        rd = FIXTURES[name].datum
        rng = random.Random(2026)
        pool = sample_pool(rd)
        for trial in range(200):
            k = rng.randint(1, 3)
            mus = [pool[rng.randrange(len(pool))] for _ in range(k)]
            words = [tuple(rng.randrange(rd.semisimple_rank)
                           for _ in range(rng.randint(0, 2 * rd.semisimple_rank)))
                     if rd.semisimple_rank else ()
                     for _ in range(k)]
            _, mult = prv_multiplicity(rd, mus, words)
            assert mult >= 1, (name, trial, mus, words)
    _announce(4, "200 seeded PRV instances per fixture", started)


def test_c5_satake_shadow_coherence():
    started = time.time()
    for name in ALL:
        ctx = SatakeContext.for_group(FIXTURES[name].datum)
        rd_dual = ctx.rd_dual
        coweights = dominant_window(rd_dual, 8)
        if name == "GL2":
            coweights = [w for w in coweights if max(map(abs, w)) <= 4]
        rho2 = two_rho(ctx.rd_group)
        for mu in coweights:
            assert saturation_set(rd_dual, mu) == tuple(sorted(weight_multiplicities(rd_dual, mu)))
            report = stratum(ctx, mu, mu)
            assert report.nonempty
            assert report.dim == orbit_dim(ctx, mu) == pairing(rho2, mu)
        small = [w for w in coweights if coroot_height(rd_dual, w) <= 4]
        for mu1 in small:
            for mu2 in small:
                total = tuple(a + b for a, b in zip(mu1, mu2))
                parity = component_parity(ctx, total)
                for lam in convolution_decompose(ctx, [mu1, mu2]):
                    assert leq_dominance(rd_dual, lam, total), (name, mu1, mu2, lam)
                    diff = tuple(t - l for t, l in zip(total, lam))
                    assert pairing(rho2, diff) % 2 == 0
                    assert semismall_bound(ctx, [mu1, mu2], lam) >= 0
                    assert component_parity(ctx, lam) == parity
    _announce(5, "orbit/stratum/convolution coherence, height <= 8", started)


def test_c6_positive_cone_window_equality():
    started = time.time()
    cfg = ReconstructionConfig()
    for name in ALL:
        fx = FIXTURES[name]
        dual = dual_root_datum(fx.datum)
        sr, truth = dump_semiring(dual, fx.dump_bound, seed=0)
        recovered = reconstruct_root_datum(sr, cfg)
        labeled = set(recovered.labeling)
        # harvested generators, read in ground-truth coordinates
        gens = set()
        for a in labeled:
            terms, _ = sr.product(a, a)
            for c in terms:
                if c in labeled:
                    delta = tuple(2 * p - q for p, q in zip(truth[a], truth[c]))
                    if any(delta):
                        gens.add(delta)
        # soundness: every generator is a nonnegative integral root combination
        for g in gens:
            coeffs = root_coefficients(dual, g)
            assert coeffs is not None
            assert all(c >= 0 and c.denominator == 1 for c in coeffs), (name, g)
        # completeness inside the window: the generated semigroup reaches
        # every positive-cone point up to the dump bound
        simple = dual.simple_roots
        heights = [coroot_height(dual, g) for g in gens]
        assert heights and min(heights) > 0

        def in_generated(target):
            if not any(target):
                return True
            seen = set()
            stack = [target]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                for g in gens:
                    rest = tuple(x - y for x, y in zip(v, g))
                    if not any(rest):
                        return True
                    if coroot_height(dual, rest) > 0 or all(r == 0 for r in rest):
                        coeffs = root_coefficients(dual, rest)
                        if coeffs is not None and all(c >= 0 for c in coeffs):
                            stack.append(rest)
            return False

        bound = fx.dump_bound
        combos = itertools.product(range(bound + 1), repeat=len(simple))
        for combo in combos:
            q = tuple(sum(c * root[i] for c, root in zip(combo, simple))
                      for i in range(dual.rank))
            if coroot_height(dual, q) > bound or not any(q):
                continue
            assert in_generated(q), (name, combo, q)
    _announce(6, "positive-cone window equality per dump", started)


def test_c7_negative_controls(tmp_path: Path):
    started = time.time()
    assert based_iso(FIXTURES["SL2"].datum, FIXTURES["PGL2"].datum) is None

    dump_file = tmp_path / "sl2.json"
    proc = subprocess.run(SATAKE + ["dump", "--datum", "SL2", "--bound", "4",
                                    "--out", str(dump_file)], capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(dump_file.read_text())
    for entry in doc["products"]:
        if entry["a"] == entry["b"] and len(entry["terms"]) == 2 and entry["complete"]:
            entry["terms"][0]["mult"] = 2
            break
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc))
    proc = subprocess.run(SATAKE + ["reconstruct", "--dump", str(corrupted)],
                          capture_output=True, text=True)
    assert proc.returncode == 5, proc.stderr

    shrunk = tmp_path / "shrunk.json"
    proc = subprocess.run(SATAKE + ["dump", "--datum", "SL3", "--bound", "4",
                                    "--out", str(shrunk)], capture_output=True, text=True)
    assert proc.returncode == 0
    # the window is too small to certify a sum, so it stays inconclusive
    proc = subprocess.run(SATAKE + ["reconstruct", "--dump", str(shrunk)],
                          capture_output=True, text=True)
    assert proc.returncode == 4, (proc.returncode, proc.stderr)
    _announce(7, "negative controls", started)


def test_c8_deterministic_reports():
    started = time.time()
    outs = []
    for _ in range(3):
        proc = subprocess.run(SATAKE + ["verify-duality", "--datum", "Sp4", "--seed", "0",
                                        "--format", "json"], capture_output=True, text=True)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    outs = []
    for _ in range(3):
        proc = subprocess.run(SATAKE + ["prv", "--datum", "G2", "--trials", "25",
                                        "--seed", "9", "--format", "json"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    _announce(8, "byte-identical reports across 3 runs", started)
