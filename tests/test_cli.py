"""Command line behavior: output shapes, determinism, exit codes."""

from __future__ import annotations

import gc
import hashlib
import json
import sys

import pytest

import mmideals.graph
import mmideals.regions
from mmideals.cli import build_parser, main

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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "walls.svg"
    code, out, _ = run(capsys, "walls", "--input", INPUT, "--box", "1,3", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().lstrip().startswith("<svg")


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


FRACTIONAL_K = str(DATA / "fractional_k.json")

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
]


@pytest.mark.parametrize("source,command,box,digest", WALK_DIGESTS)
def test_walk_output_digests(capsys, source, command, box, digest):
    code, out, _ = run(capsys, command, "--input", source, "--box", box)
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
        "verify": "44362a0c2db73f1f",
        "canonical": "c0054c03077a11da",
        "jumping-numbers": "e3a2219784286e71",
    },
    ("fractional_k", "11/28,11/14"): {
        "mmi": "612510b10a8f002d",
        "region": "06b04d0801f16a32",
        "min-jumping-divisor": "764faba6cdee36e1",
        "verify": "7a0c19babde92ba9",
        "canonical": "f7d39a7116ae884f",
        "jumping-numbers": "c44b4067de541b86",
    },
    ("a1", "2/3,4/3"): {
        "mmi": "de49b80c0bf326a6",
        "region": "a48cb79da0e6dd70",
        "min-jumping-divisor": "12cfb85689817fbd",
        "verify": "4ff6e4c560c6da17",
        "jumping-numbers": "f29d80759fe9ff80",
    },
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
