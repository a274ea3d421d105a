"""Input parsing and deterministic JSON reports.

Input files are JSON objects with four keys:

    {
      "exceptional": [{"id": "E1", "self": -2}, ...],
      "edges": [["E1", "E2"], ...],
      "affine": [{"id": "A1", "meets": ["E2"]}],
      "ideals": [{"name": "a1", "mult": {"E1": 3, ..., "A1": 0}}, ...]
    }

Multiplicity keys may be omitted (defaulting to 0) but never unknown.
Reports follow fixed conventions so output is byte-identical across runs:
point coordinates are lowest-terms rational strings, wall normals and
divisor arrays are JSON integers, wall constants are rational strings, the
canonical divisor is a number where integral and a 'p/q' string elsewhere,
and keys are sorted on serialization.  `key_json` writes every point and
every wall constant from its integer key, with no Fraction made.

`load_input` reads the bytes once and decodes them as UTF-8, mapping `\r\n`
and `\r` to `\n` as a text-mode read did, with the same errors.

Every report is exactly `json.dumps(payload, sort_keys=True, indent=2)` and
a newline, pure ASCII, written without the stdlib's pure-Python encoder:
`enumeration_json` and `verification_json` fill fixed templates straight
from the records and the verification reports (property tests hold both to
the stdlib's bytes), and `dump_json`, a small canonical writer, writes
every other report and each check's details.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterator

from .divisors import Divisor
from .errors import PreconditionViolated
from .graph import DualGraph, IdealDivisorSet, _list_of, validate_graph
from .regions import EnumerationResult

__all__ = [
    "load_input",
    "build_ideals",
    "key_json",
    "packed_predecessors",
    "enumeration_json",
    "verification_json",
    "dump_json",
]


def load_input(path) -> tuple[DualGraph, IdealDivisorSet]:
    """Read and validate an input file; returns the graph and ideal tuple."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolated(f"{path}: cannot read ({exc})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the interpreter's digit limit
        raise PreconditionViolated(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise PreconditionViolated(f"{path}: top level must be an object")
    graph = validate_graph(raw)
    return graph, build_ideals(graph, raw.get("ideals"))


def build_ideals(graph: DualGraph, raw_ideals) -> IdealDivisorSet:
    if not raw_ideals:
        raise PreconditionViolated("input needs at least one ideal")
    names = []
    divisors = []
    for pos, entry in enumerate(_list_of(raw_ideals, dict, "'ideals'")):
        name = entry.get("name", f"a{pos + 1}")
        if not isinstance(name, str):
            raise PreconditionViolated(f"ideal name must be a string, got {name!r}")
        mult = entry.get("mult")
        if not isinstance(mult, dict):
            raise PreconditionViolated(f"ideal {name!r}: 'mult' must be an object")
        names.append(name)
        divisors.append(Divisor._of_ints(graph, graph.coefficients(mult, f"ideal {name!r}")))
    return IdealDivisorSet(graph, names, divisors)


# -- JSON value conventions ---------------------------------------------------


def key_json(key) -> list[str]:
    """A point key (n_1, .., n_r, den) as strings, integers included ('1',
    '1/6'): each n / den in lowest terms, as str(Fraction(n, den)) writes
    it, with no Fraction made.  A wall constant is the key (numerator, L)."""
    *nums, den = key
    return [str(n // g) if (g := math.gcd(n, den)) == den else f"{n // g}/{den // g}" for n in nums]


def packed_predecessors(rows) -> Iterator[list[int]]:
    """For each row of integer coefficients, the indices of the earlier rows
    lying componentwise below it (the divisor order), read off one int per
    row instead of pairwise `Divisor.le` calls; yielded one row at a time,
    so a writer holds one list, not all of them.

    Each coefficient, less the least coefficient of all rows, fills a field
    one bit wider than the spread; that top bit is a guard.  Subtracting P
    from P' with every guard set leaves a field's guard set exactly when
    that field of P' is at least that of P, and never borrows across fields;
    so D <= D' is ``((P' | H) - P) & H == H``, H holding the guard bits.
    """
    if not rows:
        return iter(())
    least = min(map(min, rows))
    width = (max(map(max, rows)) - least).bit_length() + 1
    guards = sum(1 << (width * i + width - 1) for i in range(len(rows[0])))
    packed = [sum((c - least) << (width * i) for i, c in enumerate(row)) for row in rows]
    return (
        [j for j, lower in enumerate(packed[:i]) if (upper - lower) & guards == guards]
        for i, upper in enumerate(p | guards for p in packed)
    )


# -- canonical writers ----------------------------------------------------------

_NEWLINE = ["\n" + "  " * depth for depth in range(7)]  # a newline and the indent of each depth
_BOOL = ("false", "true")
# a list of strings at each depth: its text up to the first string, between two, after the last
_KEY = [("[" + inner + '"', '",' + inner + '"', '"' + newline + "]") for newline, inner in zip(_NEWLINE, _NEWLINE[1:])]
# an object with these keys, in sorted order, at this depth, each value a %s slot
_REPORT, _RECORD, _FACET, _INEQUALITY, _VERIFICATION, _VERIFIER, _CHECK = (
    "{" + ",".join(_NEWLINE[depth + 1] + '"' + name + '": %s' for name in names.split()) + _NEWLINE[depth] + "}"
    for depth, names in [
        (0, "box command distinct_ideals m_primary queue records representatives warnings"),
        (2, "cfacets divisor index inequalities predecessors representative representatives truncated"),
        (4, "component from midpoint to"),
        (4, "coeffs component rhs"),
        (0, "command lambda passed reports"),
        (2, "checks kind passed"),
        (4, "details name passed"),
    ]
)
_REPORT += "\n"
_VERIFICATION += "\n"
_STR_LIST = frozenset((str,))  # the lists `_emit` writes with one join
_INT_LIST = frozenset((int,))


def _list_text(items, depth: int) -> str:
    """The JSON texts `items` as a list at `depth`, as `dump_json` writes it.
    No JSON text is empty, so an empty join is an empty list."""
    inner = _NEWLINE[depth + 1]
    text = ("," + inner).join(items)
    return "[" + inner + text + _NEWLINE[depth] + "]" if text else "[]"


def _key_text(strs, depth: int) -> str:
    """The strings `strs` of a point key as a list at `depth`."""
    start, sep, end = _KEY[depth]
    return start + sep.join(strs) + end


def enumeration_json(result: EnumerationResult, command: str) -> str:
    """The `enumerate` report, the bytes `dump_json` writes for its payload:
    each record, facet and inequality fills a fixed template at its indent,
    a point key's coordinates and an inequality (component and constant)
    are written once, and the predecessors come from `packed_predecessors`."""
    coordinates: dict = {}  # point key -> key_json(key)
    walls: dict = {}  # (component, numerator) -> the inequality's text

    def key_text(key, depth):
        return _key_text(coordinates.get(key) or coordinates.setdefault(key, key_json(key)), depth)

    def wall_text(q):
        name = q.component, q.numerator
        return walls.get(name) or walls.setdefault(name, _INEQUALITY % (
            _list_text(map(str, q.coeffs), 5), _encode_str(q.component), '"%s"' % key_json((q.numerator, q.scale))[0],
        ))

    records = result.records
    indices = list(map(str, range(len(records))))
    texts = []
    for rec, below in zip(records, packed_predecessors([r.divisor.coeffs for r in records])):
        facets = [
            _FACET % (_encode_str(f.wall.component), key_text(f.keys[0], 5), key_text(f.keys[2], 5), key_text(f.keys[1], 5))
            for f in rec.cfacets
        ]
        texts.append(_RECORD % (
            _list_text(facets, 3), _list_text(map(str, rec.divisor.coeffs), 3), rec.index,
            _list_text(map(wall_text, rec.region.inequalities), 3),
            _list_text(map(indices.__getitem__, below), 3), key_text(rec.representative, 3),
            _list_text([key_text(key, 4) for key in rec.representatives], 3), _BOOL[rec.truncated],
        ))
    return _REPORT % (
        key_text(result.box, 1), _encode_str(command), len(records), _BOOL[result.m_primary],
        _list_text([key_text(key, 2) for key in result.queue], 1), _list_text(texts, 1),
        _list_text([key_text(key, 2) for key in result.representatives], 1), _list_text(map(_encode_str, result.warnings), 1),
    )


def verification_json(key, reports) -> str:
    """The `verify` report at the point of `key` from its
    `VerificationReport`s, one template per report and check, each check's
    `details` written by `_emit`: the bytes `dump_json` writes for it."""
    texts = []
    for report in reports:
        checks = []
        for check in report.checks:
            details: list[str] = []
            _emit(check.details, _NEWLINE[5], details.append)
            checks.append(_CHECK % ("".join(details), _encode_str(check.name), _BOOL[check.passed]))
        texts.append(_VERIFIER % (_list_text(checks, 3), _encode_str(report.kind), _BOOL[report.passed]))
    passed = all(report.passed for report in reports)
    return _VERIFICATION % ('"verify"', _key_text(key_json(key), 1), _BOOL[passed], _list_text(texts, 1))


def _emit(value, newline: str, put) -> None:
    """Pass `value` to `put` in pieces, as `json.dumps(value, sort_keys=True,
    indent=2)` writes it when it starts on a line ending in `newline` (a
    newline and the current indent).  Dict keys must be text, as in every
    report; any other key raises TypeError."""
    kind = type(value)
    if kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            put(sep + _encode_str(key) + ": ")
            _emit(item, inner, put)
            sep = "," + inner
        put(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        kinds = frozenset(map(type, value))
        if kinds == _STR_LIST:
            put("[" + inner + ("," + inner).join(map(_encode_str, value)) + newline + "]")
        elif kinds == _INT_LIST:
            put("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                put(sep)
                _emit(item, inner, put)
                sep = "," + inner
            put(newline + "]")
    elif kind is str:
        put(_encode_str(value))
    elif kind is int:
        put(int.__repr__(value))
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif value is None:
        put("null")
    elif isinstance(value, dict):  # subclasses, written as the stdlib does
        _emit(dict(value.items()), newline, put)
    elif isinstance(value, (list, tuple)):
        _emit(list(value), newline, put)
    else:  # floats, str and int subclasses; TypeError for anything else
        put(json.dumps(value))


def dump_json(payload) -> str:
    """Canonical serialization: exactly `json.dumps(payload, sort_keys=True,
    indent=2)` and a newline, without the stdlib's pure-Python encoder."""
    out: list[str] = []
    _emit(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)
