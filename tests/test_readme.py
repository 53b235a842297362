"""The README's library quick tour runs as written and shows true values."""
from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def leading_literal(comment: str) -> object:
    """The longest prefix of a comment that is a Python literal, not
    counting a trailing comma, which would make the value a 1-tuple."""
    for end in range(len(comment), 0, -1):
        if comment[end - 1] == ",":
            continue
        try:
            return ast.literal_eval(comment[:end])
        except (SyntaxError, ValueError):
            continue
    raise AssertionError(f"comment does not start with a value: {comment!r}")


def test_quick_tour_values():
    source = quick_tour()
    lines = source.splitlines()
    namespace: dict[str, object] = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), str(README), "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        # the statement's comment and the comment lines directly below it
        comment = [lines[stmt.end_lineno - 1].partition("#")[2].strip()]
        for line in lines[stmt.end_lineno:]:
            if not line.startswith("#"):
                break
            comment.append(line[1:].strip())
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        assert repr(value) == repr(leading_literal(" ".join(c for c in comment if c))), \
            ast.get_source_segment(source, stmt)
        checked += 1
    assert checked == 7
