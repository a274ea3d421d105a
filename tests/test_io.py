"""The input reader, the canonical JSON writers and the packed predecessor
order of `io`.

`load_input` reads bytes and must return what a text-mode read returned, or
raise the same error; `dump_json` must write exactly the bytes of the
stdlib's `json.dumps(payload, sort_keys=True, indent=2)` plus a newline;
`enumeration_json` and `verification_json` must write exactly what
`dump_json` writes for the report's payload, as the reference dict builders
make it; and `packed_predecessors` must give exactly the componentwise
order.
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmideals import RegionEngine, load_input, next_jumping_number
from mmideals.errors import PreconditionViolated
from mmideals.graph import validate_graph
from mmideals.io import build_ideals, dump_json, enumeration_json, key_json, packed_predecessors, verification_json
from mmideals.jumping import Check, verify_contribution_dichotomy, verify_jump_identity, verify_numeric_conditions

from conftest import DATA, EXAMPLE_PATH, assert_report_matches_its_payload, enumeration_payload
from strategies import _tree_engine


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- reader -------------------------------------------------------------------


def text_mode_load_input(path):
    """`load_input` as a text-mode read with universal newlines: the oracle
    for the byte reader."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolated(f"{path}: cannot read ({exc})") from exc
    except ValueError as exc:
        raise PreconditionViolated(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise PreconditionViolated(f"{path}: top level must be an object")
    graph = validate_graph(raw)
    return graph, build_ideals(graph, raw.get("ideals"))


def _loaded(read, path):
    """The graph and ideals `read` gives, or the class and message it raises."""
    try:
        graph, ideals = read(path)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return graph, ideals.names, [d.coeffs for d in ideals.divisors]


def _padded(data: bytes) -> bytes:
    """The example with a 10 KB string appended, so its end lies past the
    first 8,192-byte chunk a buffered text read decodes."""
    return data.rstrip()[:-1] + b', "pad": "' + b"x" * 10_000 + b'"}\n'


EXAMPLE_BYTES = EXAMPLE_PATH.read_bytes()
# name -> (file bytes, None where the example's graph and ideals come back,
# else a piece of the error message)
READER_CASES = {
    "lf": (EXAMPLE_BYTES, None),
    "crlf": (EXAMPLE_BYTES.replace(b"\n", b"\r\n"), None),
    "cr": (EXAMPLE_BYTES.replace(b"\n", b"\r"), None),
    "crlf-past-8192": (_padded(EXAMPLE_BYTES).replace(b"\n", b"\r\n"), None),
    "utf-8-bom": (b"\xef\xbb\xbf" + EXAMPLE_BYTES, "not valid JSON (Unexpected UTF-8 BOM"),
    "utf-16": (EXAMPLE_BYTES.decode().encode("utf-16"), "cannot read ('utf-8' codec can't decode byte 0xff in position 0"),
    "invalid-byte-past-8192": (
        _padded(EXAMPLE_BYTES)[:10_007] + b"\xff" + _padded(EXAMPLE_BYTES)[10_008:],
        "cannot read ('utf-8' codec can't decode byte 0xff in position 10007",
    ),
    "truncated-utf-8": (EXAMPLE_BYTES + b"\xe2\x82", "unexpected end of data"),
    "cr-in-a-string": (EXAMPLE_BYTES.replace(b'"a1"', b'"a\r1"', 1), "Invalid control character"),
    "crlf-in-a-string": (EXAMPLE_BYTES.replace(b'"a1"', b'"a\r\n1"', 1), "Invalid control character"),
    "cr-then-bad-json": (
        EXAMPLE_BYTES.replace(b"\n", b"\r").replace(b'"self": -4', b'"self": -4,,', 1),
        "not valid JSON (Expecting property name",
    ),
    "empty": (b"", "not valid JSON (Expecting value"),
    "not-an-object": (b"[1,\r2]", "top level must be an object"),
}


@pytest.mark.parametrize("data,want", READER_CASES.values(), ids=READER_CASES)
def test_the_byte_reader_equals_a_text_mode_read(tmp_path, data, want):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    got = _loaded(load_input, path)
    assert got == _loaded(text_mode_load_input, path)
    if want is None:
        assert got == _loaded(load_input, EXAMPLE_PATH)
    else:
        assert got[0] is PreconditionViolated and want in got[1]


# -- writer -------------------------------------------------------------------

# text keys: any text, plus the ones whose escaping or order is easy to get
# wrong ("10" sorts before "9")
keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["10", "9", "", "a", "A", "é", "\x00", "\x1f", '"', "\\", " ", "\U0001f600"]),
)
ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, 1, -1, 2**64 - 1, 2**64, 2**64 + 1, -(2**64), 10**30]),
)
scalars = st.one_of(st.none(), st.booleans(), ints, st.text(max_size=8), keys)
# the lists `dump_json` writes with one join: all strings, or all ints, and
# ints next to booleans (`True == 1`) which must not take the int join
scalar_lists = st.one_of(
    st.lists(st.text(max_size=8), max_size=5),
    st.lists(ints, max_size=5),
    st.lists(st.one_of(st.booleans(), st.sampled_from([0, 1])), max_size=5),
)
payloads = st.recursive(
    st.one_of(scalars, scalar_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payloads)
def test_writer_matches_the_stdlib(payload):
    out = dump_json(payload)
    assert out == stdlib(payload)
    assert out.isascii()


class Kind(enum.IntEnum):
    ONE = 1


class Name(str):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        [{}, [], ()],
        {"a": {}, "b": [[]]},
        {"x": [1.5, -0.5, 1e300], "y": float("inf"), "z": float("nan")},
        collections.OrderedDict([("b", 1), ("a", [2])]),
        [Kind.ONE, Name("é"), {Name("k"): Kind.ONE}],
        [True, 1, False, 0],
        -(2**100),
        "line\nbreak\ttab",
    ],
    ids=repr,
)
def test_writer_matches_the_stdlib_on_edge_payloads(payload):
    assert dump_json(payload) == stdlib(payload)


@pytest.mark.parametrize("payload", [{"a": object()}, [Fraction(1, 2)], {("a",): 1}])
def test_writer_rejects_what_the_stdlib_rejects(payload):
    with pytest.raises(TypeError):
        stdlib(payload)
    with pytest.raises(TypeError):
        dump_json(payload)


def test_writer_takes_only_text_keys():
    """Reports key every object by text; the stdlib's numeric keys are not
    needed, and the writer refuses them rather than guess."""
    with pytest.raises(TypeError):
        dump_json({1: "x"})


def test_writer_pins_the_example_walk_at_box_6_18(engine):
    """A large real payload: the `enumerate` report at box 6,18 (745
    records, 272,640 predecessor pairs), byte for byte."""
    result = engine.enumerate_constancy_regions((Fraction(6), Fraction(18)))
    payload = enumeration_payload(result, "enumerate")
    out = enumeration_json(result, "enumerate")
    assert out == stdlib(payload)
    assert len(out) == 4_457_917
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f80800de505fd0badcf6e7f9bcf4936d699798419a8fde9db50dca175210c611"
    )


# -- the `enumerate` report, written from the records -----------------------------


def _wall_less(r: int) -> RegionEngine:
    """One -1 curve with an arrow per ideal: no component is rupture or
    dicritical, so no region has a wall, an inequality or a facet."""
    arrows = [{"id": f"A{i + 1}", "meets": ["E1"]} for i in range(r)]
    raw = {"exceptional": [{"id": "E1", "self": -1}], "affine": arrows}
    ideals = [{"mult": {"E1": 1, f"A{i + 1}": 1}} for i in range(r)]
    return RegionEngine(build_ideals(validate_graph(raw), ideals))


# (engine, box, max_points): every list of the report is empty in some case
# and not in another (test_report_cases_cover_every_empty_list)
REPORT_CASES = {
    "example-1,3": ("m-primary", ("1", "3"), None),
    "example-2,6": ("m-primary", ("2", "6"), None),
    "example-3/4,5/2": ("m-primary", ("3/4", "5/2"), None),
    "example-1,3-first-9": ("m-primary", ("1", "3"), 9),
    "example-1,3-first-1": ("m-primary", ("1", "3"), 1),
    "example-too-small": ("m-primary", ("1/100", "1/100"), None),
    "a1-variant-1,3": ("affine", ("1", "3"), None),
    "fractional-k-1,1": ("fractional-k", ("1", "1"), None),
    "fractional-k-3,3": ("fractional-k", ("3", "3"), None),
    "example-a1-3": ("example-a1", ("3",), None),
    "example-a2-10": ("example-a2", ("10",), None),
    "fractional-k-a1-3/2": ("fractional-k-a1", ("3/2",), None),
    "wall-less-1,1": ("wall-less-2", ("1", "1"), None),
    "wall-less-1": ("wall-less-1", ("1",), None),
}


@pytest.fixture(scope="module")
def report_engines(engine, affine_engine, fractional_engine, example_raw):
    engines = {"m-primary": engine, "affine": affine_engine, "fractional-k": fractional_engine}
    fractional_raw = json.loads((DATA / "fractional_k.json").read_text())
    for name, raw in [("example", example_raw), ("fractional-k", fractional_raw)]:
        for ideal in raw["ideals"]:
            engines[f"{name}-{ideal['name']}"] = RegionEngine(build_ideals(validate_graph(raw), [ideal]))
    engines.update({f"wall-less-{r}": _wall_less(r) for r in (1, 2)})
    return engines


@pytest.mark.parametrize("which,box,max_points", REPORT_CASES.values(), ids=REPORT_CASES)
def test_report_writer_matches_the_reference_payload(report_engines, which, box, max_points):
    result = report_engines[which].enumerate_constancy_regions(box, max_points=max_points)
    assert_report_matches_its_payload(result)
    assert_report_matches_its_payload(result, "walls")


def test_report_cases_cover_every_empty_list(report_engines):
    results = [report_engines[w].enumerate_constancy_regions(b, max_points=m) for w, b, m in REPORT_CASES.values()]
    records = [rec for result in results for rec in result.records]
    payloads = [enumeration_payload(result, "enumerate") for result in results]
    lengths = {
        "queue": [len(result.queue) for result in results],
        "warnings": [len(result.warnings) for result in results],
        "predecessors": [len(rec["predecessors"]) for payload in payloads for rec in payload["records"]],
        "cfacets": [len(rec.cfacets) for rec in records],
        "inequalities": [len(rec.region.inequalities) for rec in records],
    }
    for name, counts in lengths.items():
        assert min(counts) == 0 < max(counts), name


# -- the `verify` report, written from its verification reports -------------------


def verify_payload(key, reports) -> dict:
    """The `verify` report's payload, as a dict for `dump_json`."""
    return {
        "command": "verify",
        "lambda": key_json(key),
        "passed": all(r.passed for r in reports),
        "reports": [
            {
                "kind": r.kind,
                "passed": r.passed,
                "checks": [{"name": c.name, "passed": c.passed, "details": c.details} for c in r.checks],
            }
            for r in reports
        ],
    }


def _relabelled(engine: RegionEngine, suffix: str) -> RegionEngine:
    """The same graph and ideals with `suffix` appended to every component id."""
    graph = engine.graph
    ids = [cid + suffix for cid in graph.ids]
    raw = {
        "exceptional": [{"id": ids[i], "self": s} for i, s in enumerate(graph.self_int)],
        "edges": [[ids[i], ids[j]] for i, j in graph.edges],
        "affine": [{"id": ids[graph.n_exc + a], "meets": [ids[i] for i in row]} for a, row in enumerate(graph.aff_meets)],
    }
    mults = [{"name": name, "mult": dict(zip(ids, d.coeffs))} for name, d in zip(engine.ideals.names, engine.ideals.divisors)]
    return RegionEngine(build_ideals(validate_graph(raw), mults))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_verify_writer_matches_the_stdlib(data):
    """At a jumping point of a random tree (a jump of a ray), with non-ASCII
    component ids, the `verify` report and the same report with one check
    failed are the stdlib's bytes for their payloads."""
    suffix = data.draw(st.sampled_from(["\u00e9", "\u2603 \"q\"", "\U0001f600\\"]), label="id suffix")
    engine = _relabelled(_tree_engine(data), suffix)
    direction = data.draw(st.lists(st.integers(0, 2), min_size=engine.r, max_size=engine.r).filter(any))
    t = next_jumping_number(engine, direction, 0)
    for _ in range(data.draw(st.integers(0, 2), label="later jumps")):
        t = next_jumping_number(engine, direction, t)
    lam = [t * u for u in direction]
    key = engine.at(lam).key
    reports = [verify(engine, lam) for verify in (verify_jump_identity, verify_numeric_conditions, verify_contribution_dichotomy)]
    assert verification_json(key, reports) == stdlib(verify_payload(key, reports))

    report = data.draw(st.sampled_from([r for r in reports if r.checks]), label="failing report")
    i = data.draw(st.integers(0, len(report.checks) - 1), label="failing check")
    check = report.checks[i]
    report.checks[i] = Check(check.name, False, check.details)
    out = verification_json(key, reports)
    assert out == stdlib(verify_payload(key, reports))
    assert '"passed": false' in out and out.isascii()


# -- packed predecessor order -------------------------------------------------


def componentwise(rows) -> list[list[int]]:
    return [[j for j in range(i) if all(map(operator.le, rows[j], rows[i]))] for i in range(len(rows))]


def rows_of(width: int, values):
    return st.lists(st.lists(values, min_size=width, max_size=width), max_size=12)


# rows of one length: coefficients crossing 0, huge ones, or all equal (a
# zero-bit value field with only its guard bit)
row_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.one_of(
        rows_of(n, st.integers(min_value=-5, max_value=5)),
        rows_of(n, st.integers(min_value=-(2**70), max_value=2**70)),
        st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=0, max_value=6)).map(
            lambda cv: [[cv[0]] * n] * cv[1]
        ),
    )
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row_lists)
def test_packed_predecessors_match_a_componentwise_scan(rows):
    assert list(packed_predecessors(rows)) == componentwise(rows)


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([], []),
        ([[-3, 4]], [[]]),
        ([[2, 2], [2, 2]], [[], [0]]),  # equal rows: one field bit, the guard
        ([[0, -1], [-1, 0], [1, 1]], [[], [], [0, 1]]),
    ],
)
def test_packed_predecessors_small_cases(rows, expected):
    assert list(packed_predecessors(rows)) == expected == componentwise(rows)
