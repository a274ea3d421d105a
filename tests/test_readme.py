"""The README "Library use" section: its example runs as written, and the
names it says the package exports are `mmideals.__all__`."""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import mmideals

ROOT = Path(__file__).resolve().parent.parent


def library_use() -> str:
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def shown(value) -> str:
    """A value as the README comments write it: Fractions as p/q."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(shown(v) for v in value) + "]"
    if isinstance(value, tuple):
        inner = ", ".join(shown(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def test_library_use_runs_as_written_and_names_the_exports(monkeypatch):
    section = library_use()
    monkeypatch.chdir(ROOT)  # the example names its input relative to the repo
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(shown(value)), (ast.unparse(stmt), comment)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == 6

    sentence = re.search(r"The package exports exactly (.*?)\.\s", section, re.S).group(1)
    assert sorted(mmideals.__all__) == sorted(re.findall(r"`([\w.]+)`", sentence))
