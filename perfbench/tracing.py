"""Outside-in tracing of the library's public functions.

The benchmark wraps the functions named in ``LAYERS`` from outside the
library: every module namespace that holds one of them gets a wrapper that
records a span (name, start, end, parent span, case id) in memory.  Spans are
written out when the worker ends, and summed into per-layer metrics:
``<module>.<function>.{calls,s,self_s,errors}``.

``s`` counts each span whose name has no active ancestor of the same name,
so recursion is not counted twice.  ``self_s`` is a span's duration minus the
time its child spans cover.  Hot leaf helpers (``pairing``, ``is_dominant``,
``reflect``) run millions of times and stay unwrapped.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from math import gcd
from pathlib import Path

LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": ("solve_rational", "smith_normal_form", "integer_solutions",
               "lp_feasible_point"),
    "lattice": ("dominant_representative", "leq_dominance", "preceq",
                "root_coefficients", "dominant_below", "conv_hull_leq",
                "class_mod_root_lattice"),
    "semiring": ("tensor_decompose", "weight_multiplicities", "weyl_dim",
                 "power_decompose", "prv_multiplicity"),
    "shadow": ("closure_contains", "stratum", "convolution_decompose"),
    "reconstruct": ("dump_semiring", "reconstruct_root_datum", "recover_monoid",
                    "recover_Qplus", "extract_simple_roots",
                    "extract_simple_coroots", "verify_reconstruction",
                    "based_iso", "semiring_to_json", "semiring_from_json"),
}
SPAN_STATS = ("calls", "s", "self_s", "errors")
# counts read from return values; summed over workers
COUNTS = ("rays", "certified_relations", "free_rank", "tensor_distinct")
CACHES = ("weyl_orbit", "dominant_below")


def layer_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in output order."""
    names = [f"{qual}.{stat}" for qual in layer_names() for stat in SPAN_STATS]
    names += [f"lattice.{c}.hit_frac" for c in CACHES]
    names += ["semiring.tensor_decompose.distinct_frac",
              "reconstruct.grades_per_case", "reconstruct.rays",
              "reconstruct.certified_relations", "reconstruct.free_rank",
              "trace.overhead_s"]
    return names


class Tracer:
    """Span recorder.  One per worker process; spans live in flat arrays so
    a million calls cost tens of megabytes, not hundreds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.cases: list[str] = []
        self.case_ix = -1
        self.name_ix = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.outermost = array("b")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._tensor_seen: set = set()
        self._caches: dict[str, object] = {}

    def set_case(self, case: str) -> None:
        self.cases.append(case)
        self.case_ix = len(self.cases) - 1

    def wrap(self, qualname: str, fn, on_return=None):
        ix = len(self.names)
        self.names.append(qualname)
        self._depth.append(0)
        stack, depth = self._stack, self._depth
        name_ix, parent, case, start, end, error, outermost = (
            self.name_ix, self.parent, self.case, self.start, self.end,
            self.error, self.outermost)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            case.append(self.case_ix)
            error.append(0)
            outermost.append(depth[ix] == 0)
            end.append(0.0)
            stack.append(span)
            depth[ix] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[span] = 1
                raise
            finally:
                end[span] = clock()
                depth[ix] -= 1
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS, in every loaded ``satake`` module
        namespace that holds it (``reconstruct.tensor_decompose`` is the same
        object as ``semiring.tensor_decompose``)."""
        hooks = {
            "reconstruct.recover_monoid": self._on_monoid,
            "reconstruct.recover_Qplus": self._on_qplus,
            "semiring.tensor_decompose": self._on_tensor,
        }
        lattice = sys.modules["satake.lattice"]
        self._caches = {name: getattr(lattice, name) for name in CACHES}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "satake" or name.startswith("satake."))]
        for qual in layer_names():
            module, fn_name = qual.split(".")
            original = getattr(sys.modules[f"satake.{module}"], fn_name)
            wrapped = self.wrap(qual, original, hooks.get(qual))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _on_monoid(self, args, monoid) -> None:
        self.counts["certified_relations"] += len(monoid.relations)
        self.counts["free_rank"] += monoid.rank

    def _on_qplus(self, args, gens) -> None:
        # distinct primitive directions: the rays the positive functional sees
        self.counts["rays"] += len({tuple(c // gcd(*map(abs, g)) for c in g)
                                    for g in gens if any(g)})

    def _on_tensor(self, args, result) -> None:
        rd, lam, mu = args[:3]
        key = (rd, tuple(lam), tuple(mu))
        if key not in self._tensor_seen:
            self._tensor_seen.add(key)
            self.counts["tensor_distinct"] += 1

    def summary(self) -> dict:
        """Per-function span totals, counts and cache statistics."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {qual: dict.fromkeys(SPAN_STATS, 0) for qual in self.names}
        for i in range(n):
            row = stats[self.names[self.name_ix[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            row["errors"] += self.error[i]
            if self.outermost[i]:
                row["s"] += dur
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"spans": stats, "counts": dict(self.counts), "caches": caches}

    def write_spans(self, path: Path) -> None:
        """All spans as one json document of parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "cases": self.cases,
            "columns": ["name", "start", "end", "parent", "case", "error"],
            "name": self.name_ix.tolist(),
            "start": [round(t, 7) for t in self.start],
            "end": [round(t, 7) for t in self.end],
            "parent": self.parent.tolist(),
            "case": self.case.tolist(),
            "error": self.error.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum worker summaries into one."""
    spans: dict[str, dict] = {qual: dict.fromkeys(SPAN_STATS, 0) for qual in layer_names()}
    counts = dict.fromkeys(COUNTS, 0)
    caches = {name: {"hits": 0, "misses": 0} for name in CACHES}
    for summary in summaries:
        for qual, row in summary["spans"].items():
            for stat in SPAN_STATS:
                spans[qual][stat] += row[stat]
        for key, value in summary["counts"].items():
            counts[key] += value
        for name, info in summary["caches"].items():
            for key in ("hits", "misses"):
                caches[name][key] += info[key]
    return {"spans": spans, "counts": counts, "caches": caches}


def per_layer_metrics(summary: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    units = {"calls": "count", "s": "s", "self_s": "s", "errors": "count"}
    for qual, row in summary["spans"].items():
        for stat in SPAN_STATS:
            out[f"{qual}.{stat}"] = (row[stat], units[stat])
    for name, info in summary["caches"].items():
        looked = info["hits"] + info["misses"]
        out[f"lattice.{name}.hit_frac"] = (info["hits"] / looked if looked else 0.0, "fraction")
    c = summary["counts"]
    calls = summary["spans"]["semiring.tensor_decompose"]["calls"]
    out["semiring.tensor_decompose.distinct_frac"] = (
        c["tensor_distinct"] / calls if calls else 0.0, "fraction")
    # every grade attempt starts with recover_monoid, raised or not
    grades = summary["spans"]["reconstruct.recover_monoid"]["calls"]
    cases = summary["spans"]["reconstruct.reconstruct_root_datum"]["calls"]
    out["reconstruct.grades_per_case"] = (grades / cases if cases else 0.0, "count")
    out["reconstruct.rays"] = (c["rays"], "count")
    out["reconstruct.certified_relations"] = (c["certified_relations"], "count")
    out["reconstruct.free_rank"] = (c["free_rank"], "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    assert list(out) == per_layer_metric_names()
    return out
