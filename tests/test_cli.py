from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satake.fixtures import FIXTURES
from satake.lattice import datum_to_json, dual_root_datum

SATAKE = [sys.executable, "-m", "satake.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, expect=0, cwd=None):
    # a run in another directory finds the package by an absolute path
    env = None if cwd is None else {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(SATAKE + list(args), capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc.stdout


def test_decompose_sl2_table():
    out = run_cli("decompose", "--datum", "SL2", "--mu", "1", "--mu", "1")
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].split("\t") == ["constituent", "dim", "multiplicity", "parity", "semismall_bound"]
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[0] for r in rows] == ["[0]", "[1]", "[2]"]
    assert [r[1] for r in rows] == ["1", "3", "5"]
    assert [r[4] for r in rows] == ["2", "1", "0"]


def test_decompose_single_mu_bound_zero():
    out = run_cli("decompose", "--datum", "SL3", "--mu", "1,1", "--format", "json")
    doc = json.loads(out)
    assert doc["rows"] == [{
        "constituent": "[1,1]", "dim": 8, "multiplicity": 1, "parity": 0, "semismall_bound": 0,
    }]


def test_orbits_pgl2():
    out = run_cli("orbits", "--datum", "PGL2", "--bound", "3", "--format", "json")
    doc = json.loads(out)
    dims = [r["orbit_dim"] for r in doc["rows"]]
    parities = [r["parity"] for r in doc["rows"]]
    assert dims == [0, 1, 2, 3]
    assert parities == [0, 1, 0, 1]


def test_orbits_sl2_dims():
    out = run_cli("orbits", "--datum", "SL2", "--bound", "4", "--format", "json")
    doc = json.loads(out)
    assert [r["orbit_dim"] for r in doc["rows"]] == [0, 2, 4]


def test_dump_reconstruct_cycle(tmp_path: Path):
    dump_file = tmp_path / "sl3.json"
    run_cli("dump", "--datum", "SL3", "--bound", "8", "--out", str(dump_file))
    out = run_cli("reconstruct", "--dump", str(dump_file), "--format", "json")
    doc = json.loads(out)
    assert doc["summary"]["cartan_type"] == "A2"
    assert doc["summary"]["cartan_matrix"] in ([[2, -1], [-1, 2]], [[2, -1], [-1, 2]])


def test_verify_duality_fixtures():
    for name in ("SL2", "PGL2"):
        out = run_cli("verify-duality", "--datum", name, "--format", "json")
        assert json.loads(out)["summary"]["verdict"] == "pass"


def test_prv_runs():
    out = run_cli("prv", "--datum", "SL3", "--trials", "20", "--seed", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["min_multiplicity"] >= 1
    assert len(doc["rows"]) == 20


def test_prv_zero_trials():
    out = run_cli("prv", "--datum", "G2", "--trials", "0", "--format", "json")
    doc = json.loads(out)
    assert doc["rows"] == []


def test_exit_code_parse():
    run_cli("decompose", "--datum", "missing_datum", "--mu", "1", expect=2)


def test_dump_requires_bound_for_files(tmp_path: Path):
    from satake.fixtures import FIXTURES
    from satake.lattice import datum_to_json

    path = tmp_path / "sl2.json"
    path.write_text(datum_to_json(FIXTURES["SL2"].datum))
    run_cli("dump", "--datum", str(path), expect=3)
    run_cli("dump", "--datum", str(path), "--bound", "4", "--out", str(tmp_path / "d.json"))


def test_exit_code_domain():
    run_cli("decompose", "--datum", "SL2", "--mu", "-1", expect=3)


def test_exit_code_inconclusive_strict(tmp_path: Path):
    # the window is too small to certify a sum; reconstruct takes no --strict
    dump_file = tmp_path / "small.json"
    run_cli("dump", "--datum", "SL3", "--bound", "4", "--out", str(dump_file))
    run_cli("reconstruct", "--dump", str(dump_file), expect=4)
    run_cli("reconstruct", "--dump", str(dump_file), "--strict", expect=2)


def test_exit_code_corruption(tmp_path: Path):
    dump_file = tmp_path / "sl2.json"
    run_cli("dump", "--datum", "SL2", "--bound", "4", "--out", str(dump_file))
    doc = json.loads(dump_file.read_text())
    # bump one interior multiplicity: supports unchanged, products now lie
    for entry in doc["products"]:
        if entry["a"] == entry["b"] and len(entry["terms"]) == 2 and entry["complete"]:
            entry["terms"][0]["mult"] = 2
            break
    else:
        pytest.fail("no suitable product found to corrupt")
    dump_file.write_text(json.dumps(doc))
    run_cli("reconstruct", "--dump", str(dump_file), expect=5)


def test_exit_code_flipped_completeness_flag(tmp_path: Path):
    # PGL2^ has roots (2,); x005 (weight 1) squares to x001 + x007
    dump_file = tmp_path / "pgl2_dual.json"
    datum_file = tmp_path / "pgl2_dual_datum.json"
    datum_file.write_text(json.dumps({"name": "PGL2^", "rank": 1, "simple_roots": [[2]],
                                      "simple_coroots": [[1]]}))
    run_cli("dump", "--datum", str(datum_file), "--bound", "8", "--seed", "0", "--out", str(dump_file))
    doc = json.loads(dump_file.read_text())
    entry = next(e for e in doc["products"] if e["a"] == e["b"] == "x005")
    assert [t["id"] for t in entry["terms"]] == ["x001", "x007"] and entry["complete"]
    entry["complete"] = False
    dump_file.write_text(json.dumps(doc))
    run_cli("reconstruct", "--dump", str(dump_file), expect=4)


def test_exit_code_one_id_dump(tmp_path: Path):
    # SL3^ at bound 2 holds only the unit, the same bytes as the rank-0 dump
    dump_file = tmp_path / "sl3_dual.json"
    datum_file = tmp_path / "sl3_dual_datum.json"
    datum_file.write_text(datum_to_json(dual_root_datum(FIXTURES["SL3"].datum)))
    run_cli("dump", "--datum", str(datum_file), "--bound", "2", "--seed", "0", "--out", str(dump_file))
    assert len(json.loads(dump_file.read_text())["ids"]) == 1
    run_cli("reconstruct", "--dump", str(dump_file), expect=4)


def test_exit_code_stray_product_key(tmp_path: Path):
    dump_file = tmp_path / "sl2.json"
    run_cli("dump", "--datum", "SL2", "--bound", "4", "--out", str(dump_file))
    doc = json.loads(dump_file.read_text())
    doc["products"].append({"a": "ghost", "b": doc["unit"], "complete": True,
                            "terms": [{"id": doc["unit"], "mult": 1}]})
    dump_file.write_text(json.dumps(doc))
    run_cli("reconstruct", "--dump", str(dump_file), expect=2)


def test_exit_code_duplicate_term(tmp_path: Path):
    dump_file = tmp_path / "sl2_dual.json"
    datum_file = tmp_path / "sl2_dual_datum.json"
    datum_file.write_text(datum_to_json(dual_root_datum(FIXTURES["SL2"].datum)))
    run_cli("dump", "--datum", str(datum_file), "--bound", "8", "--seed", "0", "--out", str(dump_file))
    doc = json.loads(dump_file.read_text())
    entry = next(e for e in doc["products"] if e["terms"])
    term = entry["terms"][0]
    entry["terms"].insert(0, {"id": term["id"], "mult": term["mult"] + 5})
    dump_file.write_text(json.dumps(doc))
    proc = subprocess.run(SATAKE + ["reconstruct", "--dump", str(dump_file)], capture_output=True, text=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "error:" in proc.stderr and f"lists term {term['id']} twice" in proc.stderr
    assert "Traceback" not in proc.stderr


def _one_letter_dump(tmp_path: Path) -> tuple[Path, dict]:
    """SL2's dump at bound 4 with its five tokens renamed a, b, c, d, e;
    it reconstructs with exit 0."""
    dump_file = tmp_path / "sl2.json"
    run_cli("dump", "--datum", "SL2", "--bound", "4", "--out", str(dump_file))
    text = dump_file.read_text()
    for token, letter in zip(json.loads(text)["ids"], "abcde"):
        text = text.replace(json.dumps(token), json.dumps(letter))
    dump_file.write_text(text)
    run_cli("reconstruct", "--dump", str(dump_file))
    return dump_file, json.loads(text)


@pytest.mark.parametrize("ids", ["abcde", list("abcdde")], ids=["string", "repeated"])
def test_exit_code_malformed_ids(tmp_path: Path, ids):
    dump_file, doc = _one_letter_dump(tmp_path)
    doc["ids"] = ids
    dump_file.write_text(json.dumps(doc))
    proc = subprocess.run(SATAKE + ["reconstruct", "--dump", str(dump_file)], capture_output=True, text=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_numeric_token(tmp_path: Path):
    dump_file = tmp_path / "sl2.json"
    run_cli("dump", "--datum", "SL2", "--bound", "4", "--out", str(dump_file))
    # the unit token becomes the json number 7 everywhere it occurs
    text = dump_file.read_text().replace(json.dumps(json.loads(dump_file.read_text())["unit"]), "7")
    assert json.loads(text)["unit"] == 7
    dump_file.write_text(text)
    run_cli("reconstruct", "--dump", str(dump_file), expect=2)


def _first_mult_one(doc):
    return next(t for entry in doc["products"] for t in entry["terms"] if t["mult"] == 1)


@pytest.mark.parametrize("edit", [
    lambda doc: next(e for e in doc["products"] if not e["complete"]).update(complete="false"),
    lambda doc: _first_mult_one(doc).update(mult=1.5),
    lambda doc: _first_mult_one(doc).update(mult=True),
], ids=["complete-string", "mult-float", "mult-bool"])
def test_exit_code_mistyped_dump(tmp_path: Path, edit):
    dump_file = tmp_path / "sl2.json"
    run_cli("dump", "--datum", "SL2", "--bound", "4", "--out", str(dump_file))
    doc = json.loads(dump_file.read_text())
    edit(doc)
    dump_file.write_text(json.dumps(doc))
    run_cli("reconstruct", "--dump", str(dump_file), expect=2)


@pytest.mark.parametrize("rank, roots, coroots", [
    (1, [[2.5]], [[1]]),
    (1, [[2]], [[True]]),
    (True, [[2]], [[1]]),
], ids=["root-float", "coroot-bool", "rank-bool"])
def test_mistyped_datum_file(tmp_path: Path, rank, roots, coroots):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": rank, "simple_roots": roots, "simple_coroots": coroots}))
    run_cli("orbits", "--datum", str(path), "--bound", "2", expect=2)


def test_datum_file_round_trip(tmp_path: Path):
    from satake.fixtures import FIXTURES
    from satake.lattice import datum_to_json

    path = tmp_path / "sp4.json"
    path.write_text(datum_to_json(FIXTURES["Sp4"].datum))
    out = run_cli("orbits", "--datum", str(path), "--bound", "4", "--format", "json")
    assert json.loads(out)["rows"]


def test_malformed_datum_file(tmp_path: Path):
    path = tmp_path / "bad.json"
    path.write_text("{\"rank\": 1}")
    run_cli("orbits", "--datum", str(path), "--bound", "2", expect=2)


def test_invalid_datum_file(tmp_path: Path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({
        "rank": 2,
        "simple_roots": [[2, -2], [-2, 2]],
        "simple_coroots": [[1, 0], [0, 1]],
    }))
    run_cli("orbits", "--datum", str(path), "--bound", "2", expect=2)


def test_json_reports_deterministic():
    runs = [run_cli("verify-duality", "--datum", "SL2", "--format", "json") for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    runs = [run_cli("prv", "--datum", "SL2", "--trials", "10", "--seed", "11", "--format", "json")
            for _ in range(2)]
    assert runs[0] == runs[1]


# the decompose coweights are dominant for the dual group; for G2 they are
# the coweights with dual labels (1,0), (1,1) and (0,1)
@pytest.mark.parametrize("args, digest", [
    (("prv", "--datum", "SL2", "--seed", "3", "--trials", "200"), "a30414e211244753"),
    (("prv", "--datum", "Sp4", "--seed", "3", "--trials", "200"), "189b7a38e37177f7"),
    (("prv", "--datum", "G2", "--seed", "3", "--trials", "200"), "edac7af2d3a00ec7"),
    (("decompose", "--datum", "Sp4", "--mu", "1,1", "--mu", "2,0"), "f7acdd2597c972cb"),
    (("decompose", "--datum", "G2", "--mu", "2,1", "--mu", "5,3", "--mu", "3,2"), "0ffcec9314e62a00"),
    (("decompose", "--datum", "GL2", "--mu", "2,1", "--mu", "1,0"), "3ae6c0014fed3119"),
    (("reconstruct", "--dump", "SL3.json"), "d50d7fffa415d09d"),
    (("reconstruct", "--dump", "G2.json"), "647cebbeeebef909"),
], ids=["prv-SL2", "prv-Sp4", "prv-G2", "decompose-Sp4", "decompose-G2", "decompose-GL2",
        "reconstruct-SL3", "reconstruct-G2"])
@pytest.mark.hashseed
def test_pinned_report_digests(args, digest, tmp_path: Path):
    # a reconstruct report echoes its dump path, so the fixture's dump (its
    # default bound, seed 0) is read by a relative name
    if args[0] == "reconstruct":
        run_cli("dump", "--datum", Path(args[2]).stem, "--out", str(tmp_path / args[2]))
    out = run_cli(*args, "--format", "json", cwd=tmp_path)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def _unreadable_input(tmp_path: Path, kind: str) -> Path:
    if kind == "directory":
        return tmp_path
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    return path


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
@pytest.mark.parametrize("command", [
    lambda path: ["reconstruct", "--dump", str(path)],
    lambda path: ["orbits", "--datum", str(path), "--bound", "2"],
], ids=["dump", "datum"])
def test_unreadable_input_file(tmp_path: Path, command, kind):
    proc = subprocess.run(SATAKE + command(_unreadable_input(tmp_path, kind)),
                          capture_output=True, text=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("target", ["directory", "missing parent"])
@pytest.mark.parametrize("command", [
    ["dump", "--datum", "SL2", "--bound", "2"],
    ["orbits", "--datum", "PGL2", "--bound", "2"],
], ids=["dump", "orbits"])
def test_unwritable_out(tmp_path: Path, command, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    proc = subprocess.run(SATAKE + command + ["--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "error: cannot write" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["orbits", "--bound", "2"],
    ["prv", "--trials", "1"],
    ["decompose", "--mu", "1", "--mu", "1"],
])
def test_exit_code_non_string_datum_name(tmp_path: Path, command):
    path = tmp_path / "named.json"
    path.write_text('{"name": [1], "rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]}')
    proc = subprocess.run(SATAKE + command[:1] + ["--datum", str(path)] + command[1:],
                          capture_output=True, text=True)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr
