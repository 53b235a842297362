"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload roundtrip --seed 1 --case SL3^ [--spans FILE]

A fresh process per pass keeps the library's process-global ``lru_cache``s
cold, as they are for each CLI invocation.  The worker imports ``satake``,
builds its inputs from the seed, prints ``ready``, runs the pass, and prints
one json line with its timings, reference-loop times, correctness counts
and, with ``--spans``, the traced per-layer summary.  The parent measures set-up time as the time
from spawning the worker to reading ``ready``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import random
import re
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import satake
from satake.cli import sample_pool
from satake.errors import SatakeError
from satake.lattice import coroot_height, is_dominant
from satake.linalg import det_int

from tracing import Tracer

SL4 = satake.RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
                       ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="SL4")

# The seven fixtures' duals at their documented dump bounds, plus the rank-3
# stretch case.  SL4 runs at bound 16 because bound 20 takes about a minute
# to reconstruct.  Bound 24 exits 5 in reconstruction (a known breach of the
# truncation contract); that is not why it is left out.
ROUNDTRIP_CASES = {f"{f.name}^": (satake.dual_root_datum(f.datum), f.dump_bound)
                   for f in satake.FIXTURES.values()}
ROUNDTRIP_CASES["SL4-16"] = (SL4, 16)
# Reconstruction time depends on the token order a dump seed draws (SL4-16
# takes 4 to 16 s over dump seeds 0-8), so every run uses the CLI's default
# dump seed and the workload seed renames the tokens without reordering them.
ROUNDTRIP_DUMP_SEED = 0

FORWARD_DUMPS = (("SL3^", satake.dual_root_datum(satake.FIXTURES["SL3"].datum), 30),
                 ("SL4-20", SL4, 20))
FORWARD_POWER = 16         # tensor powers V^k for k = 1..FORWARD_POWER
FORWARD_LISTS = 12         # tensor_decompose_list calls per fixture
FORWARD_PRV_TRIALS = 150   # PRV trials per fixture

ORDER_PAIRS = 1500         # leq/preceq/class triples per fixture
HULL_PAIRS = 200           # conv_hull_leq queries per fixture
STRATA = 600               # stratum queries per fixture
CONVOLUTIONS = 10          # convolutions per fixture, each checked by semismall bounds

TOKEN = re.compile(r'"x(\d+)"')
REFERENCE_ITERATIONS = 40000


def reference_seconds() -> float:
    """Time of a fixed loop of the interpreter work the library does (tuples,
    dicts, ints, Fractions), which no change to the library can alter.  The
    parent scales every time by it, so that the host's speed swings cancel."""
    # the loop makes no cycles; with the collector on, its allocations would
    # trigger collections whose cost grows with the heap the pass left behind
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[tuple[int, ...], int] = {}
        total = 0
        for i in range(REFERENCE_ITERATIONS):
            key = (i % 3, i % 5, i % 7)
            counts[key] = counts.get(key, 0) + i * i
            if i % 4 == 0:
                total += (Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, 3)).numerator % 5
        return time.perf_counter() - start
    finally:
        gc.enable()


def dominant_box(rd: satake.RootDatum, bound: int) -> list[satake.Weight]:
    """Dominant weights with coordinates and coroot height up to the bound."""
    return sorted(w for w in itertools.product(range(-bound, bound + 1), repeat=rd.rank)
                  if is_dominant(rd, w) and coroot_height(rd, w) <= bound)


class Recorder:
    """Correctness counts, stage times and per-case rows of one pass."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.stages: dict[str, float] = defaultdict(float)
        self.cases: list[dict] = []

    def case(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_case(name)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def raised(self, exc: SatakeError, what: str) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    @contextmanager
    def timed(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stages[stage] += time.perf_counter() - start


# -- roundtrip ---------------------------------------------------------------

def prepare_roundtrip(seed: int, case: str):
    rd, bound = ROUNDTRIP_CASES[case]
    return case, rd, bound, random.Random(f"roundtrip:{seed}:{case}")


def rename_tokens(text: str, rng: random.Random) -> str:
    """Give the dump's tokens fresh random names in the same sorted order."""
    old = sorted(set(TOKEN.findall(text)), key=int)
    new = sorted(rng.sample(range(10 ** 7), len(old)))
    mapping = {o: f"t{n:07d}" for o, n in zip(old, new)}
    return TOKEN.sub(lambda m: f'"{mapping[m.group(1)]}"', text)


def run_roundtrip(inputs, rec: Recorder) -> None:
    case, rd, bound, rng = inputs
    rec.case(case)
    try:
        with rec.timed("dump_s"):
            sr, _ = satake.dump_semiring(rd, bound, ROUNDTRIP_DUMP_SEED)
        text = rename_tokens(satake.semiring_to_json(sr), rng)
        received = satake.semiring_from_json(text)
        with rec.timed("reconstruct_s"):
            recovered = satake.reconstruct_root_datum(received, satake.ReconstructionConfig())
        iso = satake.based_iso(recovered.datum, rd)
    except SatakeError as exc:
        rec.raised(exc, case)
        return
    ok = (iso is not None and abs(det_int(iso)) == 1
          and satake.cartan_type(recovered.datum) == satake.cartan_type(rd))
    rec.check(ok, f"{case}: recovered datum is not based-isomorphic to the dual")
    rec.cases.append({"case": case, "ids": len(sr.ids),
                      "dump_s": rec.stages["dump_s"],
                      "reconstruct_s": rec.stages["reconstruct_s"],
                      "grade": int(recovered.log[0].split()[-1])})


# -- forward -----------------------------------------------------------------

def prepare_forward(seed: int, case: str):
    rng = random.Random(f"forward:{seed}")
    fixtures = []
    for fixture in satake.FIXTURES.values():
        rd = fixture.datum
        pool = sample_pool(rd)
        s = rd.semisimple_rank
        lists = [[rng.choice(pool) for _ in range(rng.randint(2, 4))]
                 for _ in range(FORWARD_LISTS)]
        trials = []
        for _ in range(FORWARD_PRV_TRIALS):
            k = rng.randint(1, 3)
            mus = [rng.choice(pool) for _ in range(k)]
            words = [tuple(rng.randrange(s) for _ in range(rng.randint(0, 2 * s))) for _ in mus]
            trials.append((mus, words))
        fixtures.append((fixture.name, rd, [w for w in pool if any(w)], lists, trials))
    return seed, fixtures


def product_dim(rd, decomposition) -> int:
    return sum(m * satake.weyl_dim(rd, nu) for nu, m in decomposition.items())


def check_dump(rec: Recorder, name: str, rd, sr, labels) -> None:
    """Every complete product has the dimension of the tensor product; every
    truncated one has less."""
    dim = {t: satake.weyl_dim(rd, w) for t, w in labels.items()}
    for i, a in enumerate(sr.ids):
        for b in sr.ids[i:]:
            terms, complete = sr.product(a, b)
            total = sum(m * dim[t] for t, m in terms.items())
            want = dim[a] * dim[b]
            rec.check(total == want if complete else total < want,
                      f"{name}: product ({a},{b}) has dimension {total}, expected {want}")


def run_forward(inputs, rec: Recorder) -> None:
    seed, fixtures = inputs
    for name, rd, bound in FORWARD_DUMPS:
        rec.case(f"dump {name}")
        digests = []
        try:
            for _ in range(2):
                with rec.timed("dump_s"):
                    sr, labels = satake.dump_semiring(rd, bound, seed)
                digests.append(hashlib.sha256(satake.semiring_to_json(sr).encode()).hexdigest())
        except SatakeError as exc:
            rec.raised(exc, f"dump {name}")
            continue
        rec.check(digests[0] == digests[1], f"{name}: two dumps with seed {seed} differ")
        check_dump(rec, name, rd, sr, labels)
    for name, rd, pool, lists, trials in fixtures:
        rec.case(f"products {name}")
        for lam in pool:
            for k in range(1, FORWARD_POWER + 1):
                try:
                    dec = satake.power_decompose(rd, lam, k)
                except SatakeError as exc:
                    rec.raised(exc, f"{name}: V{lam}^{k}")
                    continue
                rec.check(product_dim(rd, dec) == satake.weyl_dim(rd, lam) ** k,
                          f"{name}: V{lam}^{k} has the wrong dimension")
        for ws in lists:
            try:
                dec = satake.tensor_decompose_list(rd, ws)
            except SatakeError as exc:
                rec.raised(exc, f"{name}: tensor product of {ws}")
                continue
            want = 1
            for w in ws:
                want *= satake.weyl_dim(rd, w)
            rec.check(product_dim(rd, dec) == want,
                      f"{name}: tensor product of {ws} has the wrong dimension")
        for mus, words in trials:
            try:
                _, mult = satake.prv_multiplicity(rd, mus, words)
            except SatakeError as exc:
                rec.raised(exc, f"{name}: PRV {mus} {words}")
                continue
            rec.check(mult >= 1, f"{name}: PRV component of {mus} {words} vanished")


# -- orders ------------------------------------------------------------------

def prepare_orders(seed: int, case: str):
    rng = random.Random(f"orders:{seed}")
    fixtures = []
    for fixture in satake.FIXTURES.values():
        rd = fixture.datum
        ctx = satake.SatakeContext.for_group(rd)
        box = dominant_box(rd, fixture.dump_bound // 2)
        small = dominant_box(rd, fixture.dump_bound // 3)
        coweights = dominant_box(ctx.rd_dual, fixture.dump_bound // 4)
        r = fixture.dump_bound // 4
        triples = [(rng.choice(box), rng.choice(box)) for _ in range(ORDER_PAIRS)]
        hulls = [(rng.choice(small), rng.choice(small)) for _ in range(HULL_PAIRS)]
        strata = [(rng.choice(coweights), tuple(rng.randint(-r, r) for _ in range(rd.rank)))
                  for _ in range(STRATA)]
        convolutions = [[rng.choice(coweights) for _ in range(rng.randint(2, 3))]
                        for _ in range(CONVOLUTIONS)]
        fixtures.append((fixture.name, rd, ctx, coweights, triples, hulls, strata, convolutions))
    return fixtures


def run_orders(fixtures, rec: Recorder) -> None:
    for name, rd, ctx, coweights, triples, hulls, strata, convolutions in fixtures:
        rec.case(f"orders {name}")
        try:
            for lam, mu in triples:
                leq = satake.leq_dominance(rd, lam, mu)
                cone = satake.preceq(rd, lam, mu)
                same = satake.class_mod_root_lattice(rd, lam) == satake.class_mod_root_lattice(rd, mu)
                rec.check(leq == (cone and same), f"{name}: {lam} <= {mu} disagrees with preceq and X/Q")
            for lam, mu in hulls:
                rec.check(satake.preceq(rd, lam, mu) == satake.conv_hull_leq(rd, lam, mu),
                          f"{name}: preceq({lam}, {mu}) disagrees with the convex hull order")
        except SatakeError as exc:
            rec.raised(exc, f"{name} orders")
        rec.case(f"shadow {name}")
        dual = ctx.rd_dual
        try:
            for lam in coweights:
                for mu in coweights:
                    below = satake.closure_contains(ctx, lam, mu)
                    rec.check(not below or lam == mu
                              or satake.orbit_dim(ctx, lam) < satake.orbit_dim(ctx, mu),
                              f"{name}: orbit {lam} in the closure of {mu} without smaller dimension")
            for mu, nu in strata:
                report = satake.stratum(ctx, mu, nu)
                rep, _ = satake.dominant_representative(dual, nu)
                ok = report.nonempty == satake.closure_contains(ctx, rep, mu)
                if report.nonempty:
                    ok = ok and 0 <= report.dim <= satake.orbit_dim(ctx, mu)
                rec.check(ok, f"{name}: stratum ({mu}, {nu}) is wrong")
            for mus in convolutions:
                for lam in satake.convolution_decompose(ctx, mus):
                    rec.check(satake.semismall_bound(ctx, mus, lam) >= 0,
                              f"{name}: negative semismall bound at {lam} for {mus}")
        except SatakeError as exc:
            rec.raised(exc, f"{name} shadow")


WORKLOADS = {
    "roundtrip": (prepare_roundtrip, run_roundtrip),
    "forward": (prepare_forward, run_forward),
    "orders": (prepare_orders, run_orders),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--case", default="", help="roundtrip case name")
    parser.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    args = parser.parse_args()
    prepare, run = WORKLOADS[args.workload]
    inputs = prepare(args.seed, args.case)
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    rec = Recorder(tracer)
    start = time.perf_counter()
    run(inputs, rec)
    wall = time.perf_counter() - start
    # right after the pass and in its process, so that the loop sees the host
    # as the pass did; one loop per second of pass weights the run's mean by time
    reference = [reference_seconds() for _ in range(max(1, round(wall)))]
    result = {
        "wall_s": wall,
        "reference_s": reference,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "stages": dict(rec.stages),
        "cases": rec.cases,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
