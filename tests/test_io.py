"""The canonical JSON writer and the packed predecessor order of `io`.

`dump_json` must write exactly the bytes of the stdlib's
`json.dumps(payload, sort_keys=True, indent=2)` plus a newline, and
`packed_predecessors` must give exactly the componentwise order.
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

from mmideals.io import dump_json, enumeration_json, packed_predecessors


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
    payload = enumeration_json(engine.enumerate_constancy_regions((Fraction(6), Fraction(18))))
    payload["command"] = "enumerate"
    out = dump_json(payload)
    assert out == stdlib(payload)
    assert len(out) == 4_457_917
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f80800de505fd0badcf6e7f9bcf4936d699798419a8fde9db50dca175210c611"
    )


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
    assert packed_predecessors(rows) == componentwise(rows)


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
    assert packed_predecessors(rows) == expected == componentwise(rows)
