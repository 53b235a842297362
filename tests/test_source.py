"""Checks on the library's source text, walked as syntax trees."""
from __future__ import annotations

import ast
from pathlib import Path

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "satake").glob("*.py"))


def test_library_is_found():
    assert any(path.name == "reconstruct.py" for path in LIBRARY)


def test_no_assert_statement_in_the_library():
    # python -O strips assert statements, so no check in the library may be
    # one; the python -O runs only catch an assert on a path that some test
    # makes fail, and this finds every one
    hits = [f"{path.name}:{node.lineno}" for path in LIBRARY
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)]
    assert hits == []


def test_no_fraction_in_the_pipeline():
    # Fraction may occur only in root_coefficients, whose values are
    # quotients, in the reference solver solve_rational, and in the imports
    # of their two modules
    allowed = {"lattice.py": "root_coefficients", "linalg.py": "solve_rational"}
    hits = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {id(inner) for node in tree.body if path.name in allowed and (
                    isinstance(node, ast.FunctionDef) and node.name == allowed[path.name]
                    or isinstance(node, ast.ImportFrom) and node.module == "fractions")
                for inner in ast.walk(node)}
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if id(node) not in skip and (
            isinstance(node, ast.Name) and node.id == "Fraction"
            or isinstance(node, ast.Attribute) and node.attr == "Fraction"
            or isinstance(node, ast.alias) and "Fraction" in (node.name, node.asname))]
    assert hits == []


def test_every_lru_cache_has_an_integer_maxsize():
    # lru_cache holds its keys and results strongly: with no explicit
    # positive integer maxsize (or as functools.cache) a cache grows for the
    # life of the process
    bounded, hits = 0, []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name not in ("lru_cache", "cache"):
                continue
            call = calls.get(id(node))
            keywords = [] if call is None or call.args else call.keywords
            if (name == "lru_cache" and [kw.arg for kw in keywords] == ["maxsize"]
                    and isinstance(keywords[0].value, ast.Constant)
                    and type(keywords[0].value.value) is int and keywords[0].value.value > 0):
                bounded += 1
            else:
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
    assert bounded
