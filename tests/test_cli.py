"""Command line behavior: output shapes, determinism, exit codes."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

import mmideals
import mmideals.graph
import mmideals.regions
from mmideals import RegionEngine, load_input
from mmideals.cli import _COMMANDS, _read_plain, build_parser, main

from conftest import DATA, EXAMPLE_PATH, GOLDEN, count_closures

INPUT = str(EXAMPLE_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canonical(capsys):
    code, out, err = run(capsys, "canonical", "--input", INPUT)
    assert code == 0 and err == ""
    assert json.loads(out) == list(GOLDEN["canonical"])


def test_canonical_text(capsys):
    code, out, _ = run(capsys, "canonical", "--input", INPUT, "--format", "text")
    assert code == 0
    assert out == "K = (1, 2, 3, 6, 9)\n"


def test_mmi_json(capsys):
    code, out, _ = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["divisor"] == [1, 1, 1, 2, 3, 0, 0]
    assert payload["left_limit"] == [0, 0, 0, 0, 0, 0, 0]
    assert payload["jumping"] is True
    assert payload["lambda"] == ["1/6", "1"]


def test_mmi_fractional_divisor_serialization(capsys):
    # integral coefficients are JSON numbers; point coordinates stay strings
    code, out, _ = run(capsys, "mmi", "--input", INPUT, "--lambda", "0,0")
    payload = json.loads(out)
    assert payload["divisor"] == [0] * 7
    assert payload["lambda"] == ["0", "0"]
    assert "left_limit" not in payload


def test_region(capsys):
    code, out, _ = run(capsys, "region", "--input", INPUT, "--lambda", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["inequalities"] == [
        {"component": "E2", "coeffs": [6, 2], "rhs": "3"},
        {"component": "E5", "coeffs": [21, 6], "rhs": "10"},
    ]
    assert payload["bounded"] is True
    assert payload["m_primary"] is True


def test_enumerate_deterministic(capsys):
    code1, out1, _ = run(capsys, "enumerate", "--input", INPUT, "--box", "1,3")
    code2, out2, _ = run(capsys, "enumerate", "--input", INPUT, "--box", "1,3")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["m_primary"] is True
    assert payload["distinct_ideals"] == len(payload["records"])
    first = payload["records"][0]
    assert first["representative"] == ["0", "0"]
    assert first["divisor"] == [0] * 7
    assert [f["midpoint"] for f in first["cfacets"]] == [["1/6", "1"], ["17/42", "1/4"]]


def test_walls_svg_structure(capsys, full_run):
    code, out, _ = run(capsys, "walls", "--input", INPUT, "--box", "1,3")
    assert code == 0
    assert out.lstrip().startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    total_facets = sum(len(rec.cfacets) for rec in full_run.records)
    assert out.count("<polyline") == total_facets
    # one equation label per facet
    assert out.count("<text") >= total_facets


def test_walls_json_format(capsys):
    code, out, _ = run(capsys, "walls", "--input", INPUT, "--box", "1,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["command"] == "walls"


@pytest.mark.parametrize(
    "box, shown",
    [
        ("1/1" + "0" * 400 + ",1", "0 x 1"),
        ("1,1/1" + "0" * 400, "1 x 0"),
        ("1/1" + "0" * 320 + ",1", "9.99989e-321 x 1"),
    ],
)
def test_walls_svg_of_a_box_too_small_to_draw(capsys, box, shown):
    # the box is exact and positive, but a side rounds to 0.0 (or to a
    # subnormal float whose scale overflows) when it is drawn
    code, out, err = run(capsys, "walls", "--input", INPUT, "--box", box)
    assert (code, out) == (2, "")
    assert err == f"error: PreconditionViolated: box {shown} is too small to draw in floating point\n"
    code, out, err = run(capsys, "walls", "--input", INPUT, "--box", box, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == "walls"


def test_walls_svg_escapes_component_ids(tmp_path, capsys):
    text = EXAMPLE_PATH.read_text().replace('"E2"', '"E<2>&x"')
    assert text.count("E<2>&x") == 6  # its id, two edges, the arrow of A1, a `mult` key per ideal
    source = tmp_path / "markup.json"
    source.write_text(text)
    code, out, err = run(capsys, "walls", "--input", str(source), "--box", "1,3")
    assert (code, err) == (0, "")
    labels = [node.text for node in ElementTree.fromstring(out).iter("{http://www.w3.org/2000/svg}text")]
    assert "E<2>&x: 6z1+2z2=3" in labels


@pytest.mark.parametrize("argv", [["canonical"], ["mmi", "--lambda", "1/6,1"], ["region", "--lambda", "0,0"]])
def test_exit_2_on_an_arrow_crossing_a_component_twice(tmp_path, capsys, argv):
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["affine"][0]["meets"] = ["E2", "E2"]
    source = tmp_path / "twice.json"
    source.write_text(json.dumps(raw))
    code, out, err = run(capsys, argv[0], "--input", str(source), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: NotATree: affine 'A1' crosses 'E2' twice\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "walls.svg"
    code, out, _ = run(capsys, "walls", "--input", INPUT, "--box", "1,3", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().lstrip().startswith("<svg")


def accented_example(tmp_path) -> str:
    """The running example with the exceptional ids E1..E5 renamed E1é..E5é."""
    text = EXAMPLE_PATH.read_text()
    for i in range(1, 6):
        text = text.replace(f'"E{i}"', f'"E{i}\u00e9"')
    source = tmp_path / "accented.json"
    source.write_text(text, encoding="utf-8")
    return str(source)


def run_process(argv, **env) -> subprocess.CompletedProcess:
    """`python -m mmideals.cli` in a child process with extra environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(mmideals.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-m", "mmideals.cli", *argv], capture_output=True, env=env, timeout=120)


def test_walls_svg_writes_non_ascii_ids_as_character_references(tmp_path, capsys):
    code, out, err = run(capsys, "walls", "--input", accented_example(tmp_path), "--box", "1,3")
    assert (code, err) == (0, "")
    assert out.isascii()
    assert "E2&#233;: 6z1+2z2=3" in out
    labels = [node.text for node in ElementTree.fromstring(out).iter("{http://www.w3.org/2000/svg}text")]
    assert "E2\u00e9: 6z1+2z2=3" in labels


@pytest.mark.parametrize(
    "argv",
    [["walls", "--box", "1,3"], ["enumerate", "--box", "1,3"], ["region", "--lambda", "0,0"]],
    ids=lambda argv: argv[0],
)
def test_non_ascii_ids_reach_an_ascii_stdout(tmp_path, argv):
    """SVG and JSON reports are ASCII, so an ASCII stdout takes them."""
    done = run_process([argv[0], "--input", accented_example(tmp_path), *argv[1:]], PYTHONIOENCODING="ascii")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.isascii() and done.stdout.endswith(b"\n")


def test_text_report_that_stdout_cannot_encode_exits_2(tmp_path):
    argv = ["region", "--input", accented_example(tmp_path), "--lambda", "0,0", "--format", "text"]
    done = run_process(argv, PYTHONIOENCODING="ascii")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: PreconditionViolated: stdout (ascii) cannot encode this report; use --output\n"


def test_output_file_is_utf_8_under_an_ascii_locale(tmp_path, capsys):
    source, target = accented_example(tmp_path), tmp_path / "region.txt"
    argv = ["region", "--input", source, "--lambda", "0,0", "--format", "text", "--output", str(target)]
    # the C locale without UTF-8 mode: the locale's encoding is ASCII
    done = run_process(argv, LC_ALL="C", PYTHONUTF8="0")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    code, out, _ = run(capsys, *argv[:-2])
    assert code == 0 and "E2\u00e9: " in out
    assert target.read_bytes() == out.encode("utf-8")


def test_jumping_numbers_ideal(capsys):
    code, out, _ = run(capsys, "jumping-numbers", "--input", INPUT, "--ideal", "a2", "--upto", "2")
    assert code == 0
    assert json.loads(out)["values"] == ["3/2", "2"]


def test_jumping_numbers_direction(capsys):
    code, out, _ = run(
        capsys, "jumping-numbers", "--input", INPUT, "--direction", "1,1", "--upto", "1/2"
    )
    payload = json.loads(out)
    assert payload["values"][0] == GOLDEN["ray_1_1_first"]
    assert payload["direction"] == ["1", "1"]


def test_jumping_numbers_needs_one_source(capsys):
    code, _, err = run(capsys, "jumping-numbers", "--input", INPUT, "--upto", "2")
    assert code == 2
    assert "exactly one of" in err
    code, _, _ = run(
        capsys,
        "jumping-numbers", "--input", INPUT,
        "--ideal", "a2", "--direction", "1,1", "--upto", "2",
    )
    assert code == 2


def test_min_jumping_divisor(capsys):
    code, out, _ = run(capsys, "min-jumping-divisor", "--input", INPUT, "--lambda", "1/6,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == ["E2"]
    assert payload["hyperplanes"] == {"E2": {"coeffs": [6, 2], "rhs": "3"}}
    assert payload["divisor_at"] == [1, 1, 1, 2, 3, 0, 0]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--input", INPUT, "--lambda", "1/2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["kind"] for r in payload["reports"]] == [
        "jump_identity",
        "numeric_conditions",
        "contribution_dichotomy",
    ]
    assert all(r["passed"] for r in payload["reports"])


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--input", INPUT, "--lambda", "1/6,1", "--format", "text")
    assert code == 0
    assert "jump_identity: ok" in out


@pytest.mark.parametrize(
    "argv,want",
    [
        (
            ["mmi", "--lambda", "1/6,1"],
            "lambda = (1/6, 1)\n"
            "divisor = (1, 1, 1, 2, 3, 0, 0)\n"
            "left limit = (0, 0, 0, 0, 0, 0, 0)\n"
            "jumping point: yes\n",
        ),
        (
            ["mmi", "--lambda", "1/12,1/2"],
            "lambda = (1/12, 1/2)\n"
            "divisor = (0, 0, 0, 0, 0, 0, 0)\n"
            "left limit = (0, 0, 0, 0, 0, 0, 0)\n"
            "jumping point: no\n",
        ),
        (["mmi", "--lambda", "0,0"], "lambda = (0, 0)\ndivisor = (0, 0, 0, 0, 0, 0, 0)\n"),
        (["jumping-numbers", "--ideal", "a1", "--upto", "1"], "10/21 13/21 16/21 17/21 19/21 20/21\n"),
        (["min-jumping-divisor", "--lambda", "1/6,1"], "G = E2 at (1/6, 1)\n"),
        (
            ["enumerate", "--box", "1/100,1/100"],
            "R0: rep (0, 0) divisor (0, 0, 0, 0, 0, 0, 0) facets 2\n"
            "representatives: 1\n"
            "distinct ideals: 1\n"
            "warning: BoxTooSmall: the box misses the boundary of the first region; "
            "no jumping point lies inside it\n",
        ),
    ],
    ids=["mmi-jump", "mmi-no-jump", "mmi-origin", "jumping-numbers", "min-jumping-divisor", "enumerate-warning"],
)
def test_text_reports(capsys, argv, want):
    assert run(capsys, *argv, "--input", INPUT, "--format", "text") == (0, want, "")


def test_verify_non_jumping_point_is_input_error(capsys):
    code, _, err = run(capsys, "verify", "--input", INPUT, "--lambda", "1/7,1")
    assert code == 2
    assert "NotAJumpingPoint" in err


# -- exit codes -----------------------------------------------------------------


def test_exit_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"exceptional": [{"id": "E1", "self": 2}], "ideals": [{"mult": {"E1": 1}}]}')
    code, _, err = run(capsys, "canonical", "--input", str(bad))
    assert code == 2
    assert "NotNegativeDefinite" in err


_ONE = {"exceptional": [{"id": "E1", "self": -1}], "ideals": [{"mult": {"E1": 1}}]}


@pytest.mark.parametrize(
    "raw",
    [
        {"exceptional": [1]},
        {"exceptional": {"id": "E1"}},
        dict(_ONE, edges=[5]),
        dict(_ONE, affine=[3]),
        dict(_ONE, ideals=[1]),
    ],
    ids=["exceptional-item", "exceptional-object", "edges-item", "affine-item", "ideals-item"],
)
def test_exit_2_on_malformed_shape(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run(capsys, "mmi", "--input", str(bad), "--lambda", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: PreconditionViolated: ")


@pytest.mark.parametrize(
    "raw,argv,err",
    [
        ([_ONE], ["canonical"], "PreconditionViolated: {path}: top level must be an object"),
        (dict(_ONE, ideals=[]), ["canonical"], "PreconditionViolated: input needs at least one ideal"),
        (
            dict(_ONE, ideals=[{"name": 5, "mult": {"E1": 1}}]),
            ["canonical"],
            "PreconditionViolated: ideal name must be a string, got 5",
        ),
        (
            dict(_ONE, exceptional=[{"id": 5, "self": -1}]),
            ["canonical"],
            "PreconditionViolated: exceptional component without a usable id: {{'id': 5, 'self': -1}}",
        ),
        (
            dict(_ONE, affine=[{"id": "", "meets": ["E1"]}]),
            ["canonical"],
            "PreconditionViolated: affine component without a usable id: {{'id': '', 'meets': ['E1']}}",
        ),
        (
            dict(_ONE, edges=[["E1"]]),
            ["canonical"],
            "PreconditionViolated: edge must join exactly two component ids: ['E1']",
        ),
        (
            dict(_ONE, ideals=[{"mult": {"E1": [1]}}]),
            ["canonical"],
            "PreconditionViolated: ideal 'a1'[E1]: unsupported value [1]",
        ),
        (None, ["enumerate", "--box", "1"], "DimensionMismatch: box needs 2 coordinates"),
    ],
    ids=[
        "top-level-list",
        "no-ideals",
        "ideal-name",
        "exceptional-id",
        "empty-affine-id",
        "one-id-edge",
        "list-multiplicity",
        "box-too-short",
    ],
)
def test_exit_2_with_one_error_line(tmp_path, capsys, raw, argv, err):
    source = tmp_path / "input.json"
    source.write_text(EXAMPLE_PATH.read_text() if raw is None else json.dumps(raw))
    assert run(capsys, *argv, "--input", str(source)) == (2, "", f"error: {err.format(path=source)}\n")


@pytest.mark.parametrize(
    "value,code,err",
    [
        ("1/2", 2, "error: NonIntegralDivisor: ideal 'a1': multiplicities must be integers\n"),
        ("6/2", 0, ""),
        (True, 2, "error: PreconditionViolated: ideal 'a1'[E1]: boolean is not a number\n"),
        (
            1.5,
            2,
            "error: PreconditionViolated: ideal 'a1'[E1]: float 1.5 is inexact, pass an int, Fraction or 'p/q' string\n",
        ),
        ("x", 2, "error: PreconditionViolated: ideal 'a1'[E1]: cannot parse 'x' as a rational\n"),
        (-1, 2, "error: PreconditionViolated: ideal 'a1': multiplicities must be nonnegative\n"),
    ],
    ids=["half", "six-halves", "true", "float", "unparseable", "negative"],
)
def test_one_bad_multiplicity(tmp_path, capsys, value, code, err):
    # a1's E1 is 3 in the example, so "6/2" must print what 3 prints
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["ideals"][0]["mult"]["E1"] = value
    source = tmp_path / "fault.json"
    source.write_text(json.dumps(raw))
    got = run(capsys, "mmi", "--input", str(source), "--lambda", "1/6,1")
    want_out = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,1")[1] if code == 0 else ""
    assert got == (code, want_out, err)


_REPLACEMENTS = {
    "wrong-type": ("x", "1/2", 1.5, None, [], {}, ["E1"], {"id": "E1"}),
    "bool": (True, False),
    "negative": (-1, -2, -7),
    # large, but far below the int-to-str digit limit of 3.11+, so that every
    # message prints the same on 3.10
    "large": (2**64, 10**50, -(10**40)),
}
_IDS = ("E1", "E2", "E3", "E4", "E5", "A1", "A2")


def _locations(value):
    """(container, key) of every value below `value` in a JSON tree."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in list(items):
        yield value, key
        yield from _locations(item)


def _mutate(raw: dict, rng) -> None:
    """One mutation of the example, in place: a key deleted, a value
    replaced, an id reference renamed (unknown, another id, an affine id), or
    an edge added (a duplicate or a self-edge)."""
    kind = rng.choice([*_REPLACEMENTS, "delete", "unknown-id", "other-id", "affine-id", "duplicate-edge", "self-edge"])
    places = list(_locations(raw))
    if kind == "delete":
        container, key = rng.choice([(c, k) for c, k in places if isinstance(c, dict)])
        del container[key]
    elif kind in _REPLACEMENTS:
        container, key = rng.choice(places)
        container[key] = rng.choice(_REPLACEMENTS[kind])
    elif kind.endswith("-id"):
        # an id, an edge end, an arrow's crossing, or a multiplicity key
        refs = [(c, k) for c, k in places if c[k] in _IDS] + [
            (c, k) for c, k in places if isinstance(c, dict) and k in _IDS
        ]
        container, key = rng.choice(refs)
        new = {"unknown-id": "Z9", "other-id": rng.choice(_IDS[:5]), "affine-id": rng.choice(_IDS[5:])}[kind]
        if key in _IDS:
            container[new] = container.pop(key)
        else:
            container[key] = new
    elif kind == "duplicate-edge":
        a, b = rng.choice(raw["edges"])
        raw["edges"].append(rng.choice([[a, b], [b, a]]))
    else:
        cid = rng.choice(_IDS[:5])
        raw["edges"].append([cid, cid])


# sha256 of the (exit code, stderr) list of the sweep below, recorded before
# the one-pass integer set-up: each mutation must fail with the same error
# and message, whichever check reads the input first
MUTATION_SWEEP_SHA256 = "180e88ffeef3c2696c5ce2f4c1ff6f8b8b9d3cee1f7f8e7847e7a5e11121d820"


def test_which_error_wins_on_300_mutations(tmp_path, capsys):
    rng = random.Random(20241019)
    source = tmp_path / "mutant.json"
    outcomes = []
    for _ in range(300):
        raw = json.loads(EXAMPLE_PATH.read_text())
        _mutate(raw, rng)
        source.write_text(json.dumps(raw))
        code, out, err = run(capsys, "mmi", "--input", str(source), "--lambda", "1/6,1")
        assert "Traceback" not in err
        assert (code, err) == (0, "") or (code == 2 and err.count("\n") == 1 and err.startswith("error: ")), err
        outcomes.append((code, err.replace(str(source), "<input>")))
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == MUTATION_SWEEP_SHA256


def closure_count(monkeypatch, capsys, *argv) -> int:
    """Run one CLI call and count its antinef closures."""
    calls = count_closures(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(calls)


@pytest.mark.parametrize(
    "command,most,least",
    [("verify", 5, 0), ("min-jumping-divisor", 2, 2), ("mmi", 2, 2)],
)
def test_closures_per_point(monkeypatch, capsys, command, most, least):
    count = closure_count(monkeypatch, capsys, command, "--input", INPUT, "--lambda", "1/6,1")
    assert least <= count <= most


@pytest.mark.parametrize("command,contexts", [("mmi", 1), ("region", 1), ("min-jumping-divisor", 1), ("verify", 4)])
def test_one_point_context_per_point_command(monkeypatch, capsys, command, contexts):
    # the handler asks for its point once; each verifier enters `at` once
    # and reads gmin from that context
    original = mmideals.regions.RegionEngine.at
    calls = []

    def counted(engine, lam):
        calls.append(lam)
        return original(engine, lam)

    monkeypatch.setattr(mmideals.regions.RegionEngine, "at", counted)
    code, _, _ = run(capsys, command, "--input", INPUT, "--lambda", "1/6,1")
    assert code == 0
    assert len(calls) == contexts


def test_one_tree_elimination_per_call(monkeypatch, capsys):
    # validate_graph and relative_canonical share the graph's cached solve
    original = mmideals.graph._tree_solve
    calls = []

    def counted(graph, rhs):
        calls.append(rhs)
        return original(graph, rhs)

    monkeypatch.setattr(mmideals.graph, "_tree_solve", counted)
    code, _, _ = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,1")
    assert code == 0
    assert len(calls) == 1


def test_a_wrong_solve_fails_validation_before_any_engine(monkeypatch, capsys):
    # the adjunction check of K = X / D runs when the graph is validated
    original = mmideals.graph._tree_solve

    def wrong(graph, rhs):
        nums, det = original(graph, rhs)
        return [nums[0] + 1] + nums[1:], det

    monkeypatch.setattr(mmideals.graph, "_tree_solve", wrong)
    with pytest.raises(mmideals.errors.InternalInvariant, match="^adjunction check failed"):
        mmideals.graph.validate_graph(json.loads(EXAMPLE_PATH.read_text()))
    engines = []
    monkeypatch.setattr(mmideals.regions.RegionEngine, "__init__", lambda engine, ideals: engines.append(ideals))
    code, out, err = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,1")
    assert (code, out, engines) == (4, "", [])
    assert err == "error: InternalInvariant: adjunction check failed for the relative canonical divisor\n"


@pytest.mark.parametrize("command,made", [("mmi", 0), ("region", 0), ("verify", 0), ("jumping-numbers", 0), ("canonical", 1)])
def test_k_is_made_only_for_canonical(monkeypatch, capsys, command, made):
    original = mmideals.regions.relative_canonical
    calls = []

    def counted(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(mmideals.regions, "relative_canonical", counted)
    flags = {"canonical": [], "jumping-numbers": ["--direction", "1,2", "--upto", "1"]}
    code, _, _ = run(capsys, command, "--input", INPUT, *flags.get(command, ["--lambda", "1/6,1"]))
    assert code == 0
    assert len(calls) == made


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf-8", "output-dir-missing"])
def test_exit_2_on_unusable_paths(tmp_path, capsys, case):
    source, target = str(tmp_path / "missing.json"), None
    if case == "directory":
        source = str(tmp_path)
    elif case == "not-utf-8":
        (tmp_path / "latin1.json").write_bytes('{"exceptional": [{"id": "É", "self": -1}]}'.encode("latin-1"))
        source = str(tmp_path / "latin1.json")
    elif case == "output-dir-missing":
        source, target = INPUT, str(tmp_path / "no" / "such" / "dir.json")
    argv = ["canonical", "--input", source] + (["--output", target] if target else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: PreconditionViolated: ")
    assert ("cannot write" if target else "cannot read") in err


def test_exit_2_on_unparseable_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "canonical", "--input", str(bad))
    assert code == 2


def test_exit_2_on_an_integer_over_the_digit_limit(tmp_path, capsys):
    # JSON parsing raises a plain ValueError, not a JSONDecodeError, for an
    # integer longer than the interpreter's int-to-str digit limit
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    source = tmp_path / "long.json"
    source.write_text(EXAMPLE_PATH.read_text().replace('"self": -2', '"self": -' + "2" * 5000, 1))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "canonical", "--input", str(source))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: PreconditionViolated: {source}: not valid JSON (")


def test_exit_2_on_a_coordinate_over_the_digit_limit(capsys):
    # int() refuses a digit string over the interpreter's limit; the
    # coordinate reader falls back to the rational parser, which says so
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    digits = "1" * 5000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "mmi", "--input", INPUT, "--lambda", "1," + digits)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and out == ""
    assert err == f"error: PreconditionViolated: lambda: cannot parse {digits!r} as a rational\n"


def _jumping_numbers_via_fractions(source: dict, upto: str, fmt: str) -> str:
    """The `jumping-numbers` report built from the engine's Fractions, each
    value, direction coordinate and bound written by `str(Fraction)`."""
    engine = RegionEngine(load_input(INPUT)[1])
    if "ideal" in source:
        values = engine.jumping_numbers_of(source["ideal"], upto)
    else:
        direction = source["direction"].split(",")
        values = engine.wall_ray_restriction(direction, upto)
        source = {"direction": [str(Fraction(d)) for d in direction]}
    if fmt == "text":
        return " ".join(map(str, values)) + "\n"
    payload = {"command": "jumping-numbers", "upto": str(Fraction(upto)), "values": list(map(str, values)), **source}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("upto", ["2/4", "1.0", "0", "7/3"])
@pytest.mark.parametrize(
    "source", [{"direction": "2/4,1"}, {"direction": "1.5,1"}, {"direction": "0,1"}, {"direction": "01,2"}, {"ideal": "a1"}]
)
def test_jumping_numbers_report_equals_the_fraction_route(capsys, source, upto, fmt):
    flag, value = next(iter(source.items()))
    code, out, err = run(capsys, "jumping-numbers", "--input", INPUT, f"--{flag}", value, "--upto", upto, "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _jumping_numbers_via_fractions(source, upto, fmt)


def test_the_chain_cap_names_upto_in_lowest_terms(capsys, monkeypatch):
    monkeypatch.setattr(mmideals.regions, "CHAIN_GUARD", 1)
    code, out, err = run(capsys, "jumping-numbers", "--input", INPUT, "--ideal", "a2", "--upto", "4/2")
    assert (code, out) == (2, "")
    assert err == "error: LimitReached: ray passed CHAIN_GUARD = 1 jumping numbers below 2; lower --upto\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mmi", "--lambda", "1e5000,0"],
        ["region", "--lambda", "1e4400,0"],
        ["jumping-numbers", "--ideal", "a1", "--upto", "1e5000"],
        ["mmi", "--lambda", "1E2,0"],
    ],
)
def test_exit_2_on_exponent_notation(capsys, argv):
    # 1e5000 parses to an integer whose digits no report can print
    code, out, err = run(capsys, *argv, "--input", INPUT)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    what, value = ("upto", argv[-1]) if "--upto" in argv else ("lambda", argv[-1].split(",")[0])
    assert err == f"error: PreconditionViolated: {what}: cannot parse {value!r} as a rational\n"


def test_exit_3_on_three_ideals(tmp_path, capsys):
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["ideals"].append(dict(raw["ideals"][0], name="a3"))
    source = tmp_path / "three.json"
    source.write_text(json.dumps(raw))
    code, _, err = run(capsys, "enumerate", "--input", str(source), "--box", "1,1,1")
    assert code == 3
    assert "UnsupportedGeometry" in err


def test_exit_4_on_unloading_cap(capsys, monkeypatch):
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 1)
    code, _, err = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,2")
    assert code == 4
    assert "NonTermination" in err


def test_svg_only_for_wall_commands(capsys):
    code, _, err = run(capsys, "region", "--input", INPUT, "--lambda", "0,0", "--format", "svg")
    assert code == 2
    assert "no SVG rendering" in err


def test_float_lambda_rejected(capsys):
    code, _, err = run(capsys, "mmi", "--input", INPUT, "--lambda", "1/6,")
    assert code == 2


@pytest.mark.parametrize(
    "argv,err",
    [
        (["mmi", "--lambda", "-1,0"], "PreconditionViolated: lambda must lie in the nonnegative orthant"),
        (["enumerate", "--box", "-1,1"], "PreconditionViolated: box coordinates must be positive"),
        (
            ["jumping-numbers", "--direction", "-1,1", "--upto", "1"],
            "PreconditionViolated: direction must be nonzero and nonnegative",
        ),
        (["mmi", "--lam", "-1,0"], "PreconditionViolated: lambda must lie in the nonnegative orthant"),
        (["enumerate", "--bo", "-1,1"], "PreconditionViolated: box coordinates must be positive"),
        (
            ["jumping-numbers", "--dir", "-1,1", "--upto", "1"],
            "PreconditionViolated: direction must be nonzero and nonnegative",
        ),
    ],
    ids=["lambda", "box", "direction", "lambda-abbreviated", "box-abbreviated", "direction-abbreviated"],
)
def test_spaced_negative_coordinates_reach_the_coordinate_parser(capsys, argv, err):
    # argparse reads `--box -1,1` as two flags; the value must reach the
    # parser of points and give its one line, as `--box=-1,1` does, also
    # after a flag abbreviated as argparse abbreviates it
    code, out, got = run(capsys, *argv, "--input", INPUT)
    assert code == 2 and out == ""
    assert got == f"error: {err}\n"
    joined = [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]
    assert run(capsys, *joined, "--input", INPUT) == (code, out, got)


@pytest.mark.parametrize(
    "argv",
    [["mmi", "--lambda", "-x"], ["jumping-numbers", "--ideal", "a1", "--upto", "-1/2"], ["mmi", "--lambda"]],
    ids=["not-a-number", "not-a-coordinate-flag", "no-value"],
)
def test_other_dashed_values_keep_the_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--input", INPUT])
    assert exit_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_an_ambiguous_abbreviation_before_a_negative_list_keeps_the_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["mmi", "--input", INPUT, "--i", "-1,0"])
    assert exit_info.value.code == 2
    assert "ambiguous option: --i could match --input, --ideal" in capsys.readouterr().err


# a value for each option on a plain command line, and others to repeat it with
PLAIN_VALUES = {
    "--input": INPUT,
    "--lambda": "1/6,1",
    "--box": "1,3",
    "--ideal": "a1",
    "--direction": "1,2",
    "--upto": "1",
    "--output": "out.txt",
}
OTHER_VALUES = ("2,2", "a2", "json", "text", "svg", "xml", "")


def _perturb(draw, args: list[str]) -> None:
    """Make a plain command line into one that only argparse may read: one
    flag abbreviated, `=`-joined, repeated or dashed, the tokens in another
    order, --input dropped, a format the command lacks, or `-h`, `--help`
    or `--` put in."""
    pairs = range(1, len(args) - 1, 2)  # after a join, a "pair" may be any two tokens
    how = draw(st.sampled_from(
        ["abbreviate", "join", "repeat", "dash"] * bool(pairs) + ["reorder", "drop-input", "format", "insert"]
    ))
    if how == "abbreviate":
        i = draw(st.sampled_from(pairs))
        args[i] = args[i][: draw(st.integers(2, max(2, len(args[i]) - 1)))]
    elif how == "join":
        i = draw(st.sampled_from(pairs))
        args[i : i + 2] = [args[i] + "=" + args[i + 1]]
    elif how == "repeat":
        i = draw(st.sampled_from(pairs))
        args += [args[i], draw(st.sampled_from((args[i + 1], *OTHER_VALUES)))]
    elif how == "reorder":
        args[:] = draw(st.permutations(args))
    elif how == "dash":
        i = draw(st.sampled_from(pairs))
        args[i + 1] = draw(st.sampled_from(("-", "--", "-x", "-1,0", "-1"))) + args[i + 1]
    elif how == "drop-input" and "--input" in args:
        i = args.index("--input")
        del args[i : i + 2]
    elif how == "format":
        args += ["--format", draw(st.sampled_from(("json", "svg", "text", "xml", "JSON")))]
    elif how == "insert":
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(("-h", "--help", "--"))))


@st.composite
def command_lines(draw):
    """(argv, plain): a plain command line with --input and some other
    options, any of them foreign to the command, in any order; in about half
    the draws perturbed one to three times, and then not plain."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    others = draw(st.lists(st.sampled_from([flag for flag in PLAIN_VALUES if flag != "--input"]), unique=True))
    args = [command]
    for flag in draw(st.permutations(["--input", *others])):
        args += [flag, PLAIN_VALUES[flag]]
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(_COMMANDS[command].formats))]
    if draw(st.booleans()):
        return args, True
    for _ in range(draw(st.integers(1, 3))):
        _perturb(draw, args)
    return args, False


@settings(max_examples=600, deadline=None, derandomize=True)
@given(command_lines())
def test_the_plain_reader_equals_argparse(case):
    # `main` reads a command line with `_read_plain` when it can and with
    # argparse otherwise; both must give the same options
    args, plain = case
    opts = _read_plain(args)
    assert opts is not None or not plain
    if opts is not None:
        assert opts == vars(build_parser().parse_args(args))


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "mmi", "--input", INPUT)
    assert code == 2
    assert "--lambda" in err


def test_flag_of_another_command_rejected(capsys):
    # each subcommand takes only its own flags; argparse exits 2 with usage
    with pytest.raises(SystemExit) as exit_info:
        main(["canonical", "--input", INPUT, "--box", "1,2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --box" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("canonical", "--lambda"),
        ("mmi", "--box"),
        ("region", "--upto"),
        ("enumerate", "--lambda"),
        ("walls", "--ideal"),
        ("jumping-numbers", "--box"),
        ("min-jumping-divisor", "--direction"),
        ("verify", "--upto"),
    ],
)
def test_every_command_rejects_a_foreign_flag(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--input", INPUT, flag, "1,2"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1,2" in capsys.readouterr().err


def test_help_lists_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    commands = (
        "canonical", "mmi", "region", "enumerate", "walls",
        "jumping-numbers", "min-jumping-divisor", "verify",
    )
    flags = (
        "--input", "--lambda", "--box", "--ideal", "--direction", "--upto", "--format", "--output",
    )
    for word in commands + flags:
        assert word in out


def test_exit_2_when_the_ray_chain_reaches_its_cap(capsys, monkeypatch):
    monkeypatch.setattr(mmideals.regions, "CHAIN_GUARD", 1)
    code, out, err = run(capsys, "jumping-numbers", "--input", INPUT, "--ideal", "a2", "--upto", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: LimitReached: ")
    assert "CHAIN_GUARD" in err and "--upto" in err


def test_exit_2_when_the_walk_reaches_its_cap(capsys, monkeypatch):
    monkeypatch.setattr(mmideals.regions, "ENUMERATION_GUARD", 3)
    code, out, err = run(capsys, "enumerate", "--input", INPUT, "--box", "1,3")
    assert code == 2 and out == ""
    assert err.startswith("error: LimitReached: ")
    assert "ENUMERATION_GUARD" in err and "--box" in err
    # the cap counts representatives: the 42-step walk of box 1,3 fits a cap
    # of 42 and stops at 41
    monkeypatch.setattr(mmideals.regions, "ENUMERATION_GUARD", 42)
    code, out, err = run(capsys, "enumerate", "--input", INPUT, "--box", "1,3")
    assert code == 0 and err == ""
    assert len(json.loads(out)["representatives"]) == 42
    monkeypatch.setattr(mmideals.regions, "ENUMERATION_GUARD", 41)
    code, out, err = run(capsys, "enumerate", "--input", INPUT, "--box", "1,3")
    assert code == 2 and out == ""
    assert err.startswith("error: LimitReached: ") and "ENUMERATION_GUARD = 41" in err


FRACTIONAL_K = str(DATA / "fractional_k.json")
TREE3 = str(DATA / "tree3.json")

# stdout sha256[:16] of the walk commands, recorded with the Fraction geometry
WALK_DIGESTS = [
    (INPUT, "enumerate", "1,3", "bb864ec454789b62"),
    (INPUT, "enumerate", "2,6", "c208be95be1a91b8"),
    (INPUT, "enumerate", "4,12", "ad65101fa757a354"),
    (INPUT, "enumerate", "3/4,5/2", "e0dc4d7d7202509f"),
    (INPUT, "walls", "1,3", "485c2e49d5ab2318"),
    (INPUT, "walls", "2,6", "b536e4a3d6b0a5e4"),
    (INPUT, "walls", "4,12", "80c26bb5e185f141"),
    (INPUT, "walls", "3/4,5/2", "d2b09fea86f31cfc"),
    (FRACTIONAL_K, "enumerate", "1,3", "85f85f05d231196b"),
    (FRACTIONAL_K, "enumerate", "3,3", "bdf48033b1e26e28"),
    (FRACTIONAL_K, "walls", "1,3", "c789b530f2d98eee"),
    (FRACTIONAL_K, "walls", "3,3", "1b52d168b79a4fd2"),
    (INPUT, "walls", "6,18", "df7a401eb38bc19e"),
    (FRACTIONAL_K, "walls", "6,18", "01c7dd4da5b1506c"),
    (FRACTIONAL_K, "enumerate", "6,18", "371129ee0861ffcd"),
    # a 7-component tree, K over 13, 4 walls no two of them parallel: 199 ideals
    (TREE3, "enumerate", "1/64,1/32", "dd8e4eb8fcfb3c24"),
    (TREE3, "walls", "1/64,1/32", "293b55bbc972e629"),
    # 766 ideals
    (TREE3, "enumerate", "1/32,1/16", "8ec582ac6a45551b"),
    (TREE3, "walls", "1/32,1/16", "7719e3552f2c1a88"),
]


@pytest.mark.parametrize("source,command,box,digest", WALK_DIGESTS)
def test_walk_output_digests(capsys, source, command, box, digest):
    code, out, _ = run(capsys, command, "--input", source, "--box", box)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


# stdout sha256[:16] of walks on variants of the example, recorded with the
# per-region wall clip: the A1 variant (see POINT_DIGESTS), not m-primary,
# and the single ideal a1, whose facets are drawn as ticks
VARIANT_WALK_DIGESTS = [
    ("a1", "enumerate", "1,3", "9c2116793296a6aa"),
    ("a1", "enumerate", "3/4,5/2", "184bb9886f10f8e6"),
    ("a1", "walls", "1,3", "71af0b7cf58bce3f"),
    ("a1", "walls", "3/4,5/2", "c32bbbcc8ae2c194"),
    ("example-a1", "walls", "3", "b7a8d3f8a2b62b8a"),
]


@pytest.mark.parametrize("source,command,box,digest", VARIANT_WALK_DIGESTS)
def test_variant_walk_output_digests(tmp_path, capsys, source, command, box, digest):
    raw = json.loads(EXAMPLE_PATH.read_text())
    if source == "a1":
        raw["ideals"][1]["mult"]["A1"] = 1
    else:
        raw["ideals"] = raw["ideals"][:1]
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, command, "--input", str(path), "--box", box)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_calls_leave_no_cycles(capsys):
    # With the collector off and DEBUG_SAVEALL, gc.collect() moves every
    # unreachable object into gc.garbage: none may be ours or argparse's.
    calls = [
        ("mmi", "--input", INPUT, "--lambda", "1/6,1"),
        ("verify", "--input", INPUT, "--lambda", "1/6,1"),
        ("enumerate", "--input", INPUT, "--box", "1,3"),
    ]
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in calls:
            gc.collect()
            gc.garbage.clear()
            code, _, _ = run(capsys, *argv)
            assert code == 0
            gc.collect()
            left = {type(o).__module__ + "." + type(o).__qualname__ for o in gc.garbage}
            ours = sorted(name for name in left if name.startswith(("mmideals.", "argparse.")))
            assert ours == [], argv
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


# stdout sha256[:16] of the point queries, recorded with the Fraction value
# rows; every call exits 0.  The A1 variant is the example with multiplicity
# 1 at A1 in the second ideal, so the tuple is not m-primary.
POINT_DIGESTS = {
    ("example", "16/33,32/33"): {
        "mmi": "a88e7b4d0a396c25",
        "region": "542c64d069ae8f2f",
        "min-jumping-divisor": "d611a359aba4f6cd",
        "verify": "4a46e6b6c0ac63d5",
        "canonical": "c0054c03077a11da",
        "jumping-numbers": "e3a2219784286e71",
    },
    ("fractional_k", "11/28,11/14"): {
        "mmi": "612510b10a8f002d",
        "region": "06b04d0801f16a32",
        "min-jumping-divisor": "764faba6cdee36e1",
        "verify": "9c05848c0cb64fe2",
        "canonical": "f7d39a7116ae884f",
        "jumping-numbers": "c44b4067de541b86",
    },
    ("a1", "2/3,4/3"): {
        "mmi": "de49b80c0bf326a6",
        "region": "a48cb79da0e6dd70",
        "min-jumping-divisor": "12cfb85689817fbd",
        "verify": "3d66e0411efbf0ed",
        "jumping-numbers": "f29d80759fe9ff80",
    },
    # G = E2 + A1: an affine member, whose hyperplane has the normal [0, 1]
    ("a1", "1/6,1"): {"min-jumping-divisor": "4bdee0f267694428", "verify": "1838f21a430608e1"},
}


@pytest.mark.parametrize(
    "source,lam,command,digest",
    [(source, lam, command, digest) for (source, lam), table in POINT_DIGESTS.items() for command, digest in table.items()],
)
def test_point_query_digests(tmp_path, capsys, source, lam, command, digest):
    path = {"example": INPUT, "fractional_k": FRACTIONAL_K}.get(source)
    if path is None:
        raw = json.loads(EXAMPLE_PATH.read_text())
        raw["ideals"][1]["mult"]["A1"] = 1
        path = str(tmp_path / "a1.json")
        (tmp_path / "a1.json").write_text(json.dumps(raw))
    if command == "canonical":
        extra = []
    elif command == "jumping-numbers":
        extra = ["--direction", "1,2", "--upto", "1"]
    else:
        extra = ["--lambda", lam]
    code, out, _ = run(capsys, command, "--input", path, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
