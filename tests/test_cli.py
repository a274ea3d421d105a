"""Command line behavior: output shapes, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

import mmideals.regions
from mmideals.cli import main

from conftest import EXAMPLE_PATH, GOLDEN, count_closures

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


def test_exit_2_on_unparseable_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "canonical", "--input", str(bad))
    assert code == 2


def test_exit_3_on_three_ideals(tmp_path, capsys):
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["ideals"].append(dict(raw["ideals"][0], name="a3"))
    source = tmp_path / "three.json"
    source.write_text(json.dumps(raw))
    code, _, err = run(capsys, "enumerate", "--input", str(source), "--box", "1,1,1")
    assert code == 3
    assert "UnsupportedGeometry" in err


def test_exit_4_on_unloading_cap(capsys, monkeypatch):
    monkeypatch.setenv("MMI_MAX_UNLOAD_ITERS", "1")
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
