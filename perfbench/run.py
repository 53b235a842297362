"""The satake benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload roundtrip|forward|orders --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src``.  Each
pass runs in a fresh worker interpreter (see ``worker.py``).  Rounds of
passes repeat while the next one is expected to end within ``--seconds``;
at least one always runs.  Every pass checks its results; a check that
fails or a library error counts as a failed operation.

The host's speed swings by up to 2x within minutes on a small shared
machine.  So after its pass every worker times a fixed reference loop that
no library change can alter (``worker.reference_seconds``), once per second
of pass, and the reported times are scaled to the loop's nominal speed:
``t * REFERENCE_NOMINAL_S / mean loop time of the run``.  The raw seconds are
printed beside them.

The last line of standard output is one json object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced:

- ``setup_s``: median over the run's workers of the time from spawning the
  interpreter to the end of ``import satake`` and input generation;
- ``wall_s``: the workload without set-up: the sum over roundtrip cases of
  each case's median time, or the median pass time for forward and orders;
- ``peak_rss_mib``: the largest per-case median of the workers' peak RSS.

With ``--trace 1`` each untraced round is followed by a traced one, and the
metrics are the per-layer ones of the first traced round (see
``tracing.py``) plus ``trace.overhead_s``, the traced rounds' scaled
``wall_s`` minus the untraced rounds'.  Spans go to ``perfbench/out``.  The lines before the json give per-case rows,
``fail_frac``, and the summed ``dump_s`` and ``reconstruct_s`` of the
workloads that dump or reconstruct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import merge_summaries, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = HERE / "out"
REFERENCE_NOMINAL_S = 0.065  # the reference loop's time on an idle host

# one worker per case, mirroring worker.ROUNDTRIP_CASES
ROUNDTRIP_CASES = ("SL2^", "PGL2^", "GL2^", "SL3^", "PGL3^", "Sp4^", "G2^", "SL4-16")
CASES = {"roundtrip": ROUNDTRIP_CASES, "forward": ("",), "orders": ("",)}
STAGES = {"roundtrip": ("dump_s", "reconstruct_s"), "forward": ("dump_s",), "orders": ()}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, case: str, spans: Path | None) -> dict:
    """Run one worker pass; returns its result with ``setup_s`` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if case:
        cmd += ["--case", case]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready" or not rest.strip():
        raise WorkerFailed(f"worker {workload} {case} exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = ready - start
    result["case"] = case
    return result


def run_round(workload: str, seed: int, traced: bool) -> list[dict]:
    results = []
    for case in CASES[workload]:
        spans = None
        if traced:
            label = case.replace("^", "dual") or "pass"
            spans = SPAN_DIR / f"spans-{workload}-{label}.json"
        results.append(spawn(workload, seed, case, spans))
    return results


def per_case_median(results: list[dict], get) -> dict[str, float]:
    by_case: dict[str, list[float]] = {}
    for r in results:
        by_case.setdefault(r["case"], []).append(get(r))
    return {case: statistics.median(values) for case, values in by_case.items()}


def wall_of(results: list[dict]) -> float:
    return sum(per_case_median(results, lambda r: r["wall_s"]).values())


def scale_of(results: list[dict]) -> float:
    """Factor from this run's measured seconds to seconds at the reference
    loop's nominal speed.  The mean, not the median, of the loop times: a
    pass lasts seconds and so averages the host's speed over its time."""
    return REFERENCE_NOMINAL_S / statistics.fmean(t for r in results for t in r["reference_s"])


def report(workload: str, untraced: list[dict], results: list[dict]) -> None:
    """Human-readable lines: per-case rows and stage times of the untraced
    passes, and the failures of all passes."""
    rows = [c for r in untraced for c in r["cases"]]
    if rows:
        print(f"{'case':8s} {'ids':>4s} {'dump_s':>8s} {'reconstruct_s':>14s} {'grade':>5s}")
        for case in ROUNDTRIP_CASES:
            mine = [c for c in rows if c["case"] == case]
            if mine:
                print(f"{case:8s} {mine[0]['ids']:4d} "
                      f"{statistics.median(c['dump_s'] for c in mine):8.3f} "
                      f"{statistics.median(c['reconstruct_s'] for c in mine):14.3f} "
                      f"{','.join(sorted({str(c['grade']) for c in mine})):>5s}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(f"{workload}: {len(results)} worker passes, "
          f"fail_frac {failed / attempted if attempted else 0:.4g} ({failed}/{attempted})")
    scale = scale_of(untraced)
    print(f"reference loop: mean {REFERENCE_NOMINAL_S / scale:.4f} s, scale {scale:.4f}")
    for stage in STAGES[workload]:
        value = sum(per_case_median(untraced, lambda r: r["stages"].get(stage, 0.0)).values())
        print(f"{stage} {value * scale:.4f} s (raw {value:.4f} s)")
    for r in results:
        for failure in r["failures"][:5]:
            print(f"FAIL {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description="satake benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    try:
        untraced: list[dict] = []
        traced: list[dict] = []
        while True:
            round_start = time.perf_counter()
            untraced += run_round(args.workload, args.seed, traced=False)
            if args.trace:
                traced += run_round(args.workload, args.seed, traced=True)
            now = time.perf_counter()
            if now + (now - round_start) > start + args.seconds:
                break
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = untraced + traced
    report(args.workload, untraced, results)
    if args.trace:
        scale = scale_of(results)
        plain = wall_of(untraced) * scale
        overhead = wall_of(traced) * scale - plain
        # the counts repeat exactly from round to round, so one round gives them
        summary = merge_summaries([r["trace"] for r in traced[:len(CASES[args.workload])]])
        metrics = per_layer_metrics(summary, overhead)
        print(f"trace: untraced wall_s {plain:.4f} s, overhead {overhead:.4f} s; "
              f"spans in {SPAN_DIR.relative_to(ROOT)}")
    else:
        scale = scale_of(untraced)
        setup = statistics.median(r["setup_s"] for r in untraced)
        wall = wall_of(untraced)
        metrics = {
            "setup_s": (setup * scale, "s"),
            "wall_s": (wall * scale, "s"),
            "peak_rss_mib": (max(per_case_median(untraced, lambda r: r["rss_kib"]).values()) / 1024,
                             "MiB"),
        }
        print(f"setup_s {setup * scale:.4f} s (raw {setup:.4f} s)")
        print(f"wall_s {wall * scale:.4f} s (raw {wall:.4f} s)")
        print(f"peak_rss_mib {metrics['peak_rss_mib'][0]:.4f} MiB")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
