"""The README: its command line examples print what it shows, its "Library
use" example runs as written, and the names it says the package exports are
`mmideals.__all__`."""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import mmideals
from mmideals.cli import main

from conftest import EXAMPLE_PATH

ROOT = Path(__file__).resolve().parent.parent


def test_cli_examples_print_what_the_readme_shows(capsys):
    # The README names the example `example.json`; the test fixture holds the
    # same data.  JSON is compared parsed, since the README condenses it; in
    # text, a `...` line stands for the lines the README leaves out.
    text = (ROOT / "README.md").read_text()
    checked = 0
    for block in re.findall(r"```sh\n\$ mmideals (.*?)```", text, re.S):
        command, _, shown = block.partition("\n")
        if not shown:
            continue  # writes a file, prints nothing
        argv = [str(EXAMPLE_PATH) if arg == "example.json" else arg for arg in command.split()]
        assert main(argv) == 0, command
        out = capsys.readouterr().out
        if "text" not in argv:
            assert json.loads(out) == json.loads(shown), command
        else:
            head, dots, tail = shown.partition("...\n")
            got, head, tail = out.splitlines(), head.splitlines(), tail.splitlines()
            if dots:
                assert got[: len(head)] == head and got[len(got) - len(tail) :] == tail, command
                assert len(got) > len(head) + len(tail), command
            else:
                assert got == head, command
        checked += 1
    assert checked == 7


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
    assert checked == 7

    sentence = re.search(r"The package exports exactly (.*?)\.\s", section, re.S).group(1)
    assert sorted(mmideals.__all__) == sorted(re.findall(r"`([\w.]+)`", sentence))
