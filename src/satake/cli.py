"""Command-line surface: table emitters, semiring dumps, reconstruction, and
end-to-end duality verification.

Exit codes: 0 ok, 2 parse failure, 3 domain precondition, 4 inconclusive
under truncation, 5 mathematical inconsistency.  All randomness flows from
the explicit --seed flag (default 0), and json reports are byte-identical
across runs with equal inputs.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import click

from . import __version__
from .errors import DomainError, InconsistencyError, ParseError, SatakeError
from .fixtures import get_fixture
from .lattice import (
    RootDatum,
    Weight,
    cartan_matrix,
    cartan_type,
    coroot_height,
    datum_from_json,
    dominant_window,
    dual_root_datum,
    is_dominant,
    leq_dominance,
    saturation_set,
    validate_datum,
)
from .reconstruct import (
    ReconstructionConfig,
    based_iso,
    dump_semiring,
    reconstruct_root_datum,
    semiring_from_json,
    semiring_to_json,
)
from .semiring import prv_multiplicity
from .shadow import (
    SatakeContext,
    component_parity,
    convolution_decompose,
    global_sections_dim,
    orbit_dim,
    semismall_bound,
)

DEFAULT_SEED = 0


@dataclass
class Report:
    """Deterministic command report with canonical row order."""

    command: str
    params: dict
    inputs: dict
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "params": self.params,
            "inputs": self.inputs,
            "rows": self.rows,
            "summary": self.summary,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_tsv(self) -> str:
        lines = [f"# command: {self.command}"]
        for key in sorted(self.params):
            lines.append(f"# {key}: {self.params[key]}")
        if self.rows:
            header = sorted(self.rows[0])
            lines.append("\t".join(header))
            for row in self.rows:
                lines.append("\t".join(str(row[h]) for h in header))
        for key in sorted(self.summary):
            lines.append(f"# {key}: {self.summary[key]}")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str, out: str | None) -> None:
        text = self.to_json() if fmt == "json" else self.to_tsv()
        if out:
            _write_text(Path(out), text)
        else:
            sys.stdout.write(text)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _read_text(path: Path) -> str:
    """The UTF-8 text of an input file; a file that cannot be read or decoded
    is a parse failure, not a crash."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {str(path)!r}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    """Write an output file as UTF-8; a path that cannot be written (a
    directory, a missing parent) is a usage failure, not a crash."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {str(path)!r}: {exc}") from exc


def _load_datum(spec: str) -> tuple[RootDatum, dict]:
    """--datum accepts a shipped fixture name or a JSON file path."""
    try:
        fixture = get_fixture(spec)
    except KeyError:
        fixture = None
    if fixture is not None:
        validate_datum(fixture.datum)
        return fixture.datum, {"datum": f"fixture:{fixture.name}"}
    path = Path(spec)
    if not path.exists():
        raise ParseError(f"no fixture or file named {spec!r}")
    text = _read_text(path)
    return datum_from_json(text), {"datum": str(path), "datum_sha256": _digest(text)}


def _parse_weight(text: str, rank: int) -> Weight:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad weight literal {text!r}") from exc
    if len(coords) != rank:
        raise ParseError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def _fmt_weight(w: Weight) -> str:
    return "[" + ",".join(str(c) for c in w) + "]"


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Exact root-datum, representation-semiring, and orbit combinatorics."""


def _common_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv",
                      show_default=True, help="output format")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="output file (default stdout)")(fn)
    return fn


@main.command()
@click.option("--datum", required=True, help="fixture name or datum file")
@click.option("--mu", "mus", multiple=True, required=True,
              help="dominant coweight, comma-separated coordinates; repeatable")
@_common_options
def decompose(datum: str, mus: tuple[str, ...], fmt: str, out: str | None) -> None:
    """Decompose a convolution of orbit sheaves through the dual group."""
    rd, inputs = _load_datum(datum)
    ctx = SatakeContext.for_group(rd)
    weights = [_parse_weight(m, rd.rank) for m in mus]
    for w in weights:
        if not is_dominant(ctx.rd_dual, w):
            raise DomainError(f"coweight {w} is not dominant")
    dec = convolution_decompose(ctx, weights)
    total = tuple(sum(w[i] for w in weights) for i in range(rd.rank))
    rows = []
    for lam in sorted(dec):
        rows.append({
            "constituent": _fmt_weight(lam),
            "multiplicity": dec[lam],
            "dim": global_sections_dim(ctx, lam),
            "parity": component_parity(ctx, lam),
            "semismall_bound": semismall_bound(ctx, weights, lam),
        })
    report = Report(
        command="decompose",
        params={"mus": [_fmt_weight(w) for w in weights]},
        inputs=inputs,
        rows=rows,
        summary={
            "constituents": len(rows),
            "total_multiplicity": sum(r["multiplicity"] for r in rows),
            "parity_coherent": int(all(r["parity"] == component_parity(ctx, total) for r in rows)),
        },
    )
    report.emit(fmt, out)


@main.command()
@click.option("--datum", required=True, help="fixture name or datum file")
@click.option("--bound", type=int, required=True, help="coweight height bound")
@_common_options
def orbits(datum: str, bound: int, fmt: str, out: str | None) -> None:
    """Tabulate the orbit poset up to a height bound."""
    rd, inputs = _load_datum(datum)
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    ctx = SatakeContext.for_group(rd)
    dom = dominant_window(ctx.rd_dual, bound)
    rows = []
    for mu in dom:
        below = [lam for lam in dom if lam != mu and leq_dominance(ctx.rd_dual, lam, mu)]
        covers = [lam for lam in below
                  if not any(leq_dominance(ctx.rd_dual, lam, nu) and lam != nu for nu in below)]
        rows.append({
            "mu": _fmt_weight(mu),
            "orbit_dim": orbit_dim(ctx, mu),
            "parity": component_parity(ctx, mu),
            "saturation_size": len(saturation_set(ctx.rd_dual, mu)),
            "covers": ";".join(_fmt_weight(c) for c in sorted(covers)),
        })
    report = Report(
        command="orbits",
        params={"bound": bound},
        inputs=inputs,
        rows=rows,
        summary={"orbits": len(rows)},
    )
    report.emit(fmt, out)


@main.command()
@click.option("--datum", required=True, help="fixture name or datum file")
@click.option("--bound", type=int, default=None,
              help="height bound (defaults to the fixture's documented bound)")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="output file (default stdout)")
def dump(datum: str, bound: int | None, seed: int, out: str | None) -> None:
    """Write an anonymized semiring dump of a datum's representation ring."""
    rd, _ = _load_datum(datum)
    if bound is None:
        bound = _default_bound(datum)
    sr, _ = dump_semiring(rd, bound, seed)
    text = semiring_to_json(sr)
    if out:
        _write_text(Path(out), text)
    else:
        sys.stdout.write(text)


def _default_bound(datum: str) -> int:
    try:
        return get_fixture(datum).dump_bound
    except KeyError:
        raise DomainError("--bound is required for datum files")


@main.command()
@click.option("--dump", "dump_file", required=True, type=click.Path(exists=False),
              help="semiring dump file")
@click.option("--kmax", type=int, default=4, show_default=True)
@_common_options
def reconstruct(dump_file: str, kmax: int, fmt: str, out: str | None) -> None:
    """Recover a based root datum from an anonymized semiring dump."""
    path = Path(dump_file)
    if not path.exists():
        raise ParseError(f"no such dump file: {dump_file}")
    text = _read_text(path)
    sr = semiring_from_json(text)
    recovered = reconstruct_root_datum(sr, ReconstructionConfig(k_max=kmax))
    rows = [{"id": x, "weight": _fmt_weight(w)}
            for x, w in sorted(recovered.labeling.items())]
    report = Report(
        command="reconstruct",
        params={"kmax": kmax},
        inputs={"dump": str(path), "dump_sha256": _digest(text)},
        rows=rows,
        summary={
            "rank": recovered.datum.rank,
            "cartan_matrix": [list(r) for r in cartan_matrix(recovered.datum)],
            "cartan_type": cartan_type(recovered.datum),
            "labeled": len(recovered.labeling),
            "log": list(recovered.log),
        },
    )
    report.emit(fmt, out)


@main.command(name="verify-duality")
@click.option("--datum", required=True, help="fixture name or datum file")
@click.option("--bound", type=int, default=None,
              help="dump height bound (defaults to the fixture's documented bound)")
@click.option("--kmax", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@_common_options
def verify_duality(datum: str, bound: int | None, kmax: int, seed: int,
                   fmt: str, out: str | None) -> None:
    """Dump the dual's semiring, reconstruct it, and check the based
    isomorphism back to the dual datum."""
    rd, inputs = _load_datum(datum)
    if bound is None:
        bound = _default_bound(datum)
    dual = dual_root_datum(rd)
    sr, _ = dump_semiring(dual, bound, seed)
    recovered = reconstruct_root_datum(sr, ReconstructionConfig(k_max=kmax))
    iso = based_iso(recovered.datum, dual)
    if iso is None:
        raise InconsistencyError(
            "recovered datum is not isomorphic to the dual (based isomorphism search failed)")
    report = Report(
        command="verify-duality",
        params={"bound": bound, "kmax": kmax, "seed": seed},
        inputs=inputs,
        rows=[{"matrix_row": _fmt_weight(row)} for row in iso] or [{"matrix_row": "[]"}],
        summary={
            "verdict": "pass",
            "ids": len(sr.ids),
            "labeled": len(recovered.labeling),
            "recovered_type": cartan_type(recovered.datum),
        },
    )
    report.emit(fmt, out)


@main.command()
@click.option("--datum", required=True, help="fixture name or datum file")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@_common_options
def prv(datum: str, trials: int, seed: int, fmt: str, out: str | None) -> None:
    """Random tensor components at dominant representatives of orbit sums;
    every multiplicity must be positive."""
    rd, inputs = _load_datum(datum)
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    rng = random.Random(seed)
    pool = sample_pool(rd)
    rows = []
    worst = None
    for trial in range(trials):
        k = rng.randint(1, 3)
        mus = [pool[rng.randrange(len(pool))] for _ in range(k)]
        words = [tuple(rng.randrange(rd.semisimple_rank)
                       for _ in range(rng.randint(0, 2 * rd.semisimple_rank)))
                 if rd.semisimple_rank else ()
                 for _ in range(k)]
        lam, mult = prv_multiplicity(rd, mus, words)
        worst = mult if worst is None else min(worst, mult)
        rows.append({
            "trial": trial,
            "mus": ";".join(_fmt_weight(m) for m in mus),
            "words": ";".join("".join(str(l) for l in w) or "e" for w in words),
            "component": _fmt_weight(lam),
            "multiplicity": mult,
        })
    report = Report(
        command="prv",
        params={"trials": trials, "seed": seed},
        inputs=inputs,
        rows=rows,
        summary={"min_multiplicity": worst if worst is not None else "n/a",
                 "pass": sum(1 for r in rows if r["multiplicity"] >= 1),
                 "fail": sum(1 for r in rows if r["multiplicity"] < 1)},
    )
    report.emit(fmt, out)
    if any(r["multiplicity"] < 1 for r in rows):
        raise InconsistencyError("a tensor component multiplicity vanished")


def sample_pool(rd: RootDatum) -> list[Weight]:
    """Small dominant weights for randomized trials: the nonzero dominants of
    at most twice the minimal positive height, plus zero."""
    for bound in (2, 4, 6, 8, 12, 16, 24, 32):
        window = dominant_window(rd, bound)
        positive = [coroot_height(rd, w) for w in window if any(w)]
        if len(positive) >= 2 and any(positive):
            floor = min(h for h in positive if h > 0)
            pool = [w for w in window if coroot_height(rd, w) <= max(2 * floor, 2)]
            if len(pool) >= 3:
                return pool
    return list(dominant_window(rd, 2))


def run() -> None:
    try:
        main(standalone_mode=False)
    except click.exceptions.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except SatakeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    run()
