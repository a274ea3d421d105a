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

`dump_json` is a small canonical writer: for payloads keyed by text, as
every report is, its bytes are exactly `json.dumps(payload, sort_keys=True,
indent=2)` and a newline, pure ASCII, but it never runs the stdlib's
pure-Python encoder (the C encoder serves only `indent=None`).  Strings go through json's C `encode_basestring_ascii`
and a list of strings or ints is written with one `str.join`.  The
predecessor order of the `enumerate` report is read off one packed int per
divisor (`packed_predecessors`), not off pairwise `Divisor.le` calls.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _encode_str
from fractions import Fraction

from .divisors import Divisor
from .errors import PreconditionViolated
from .graph import DualGraph, IdealDivisorSet, _list_of, validate_graph
from .regions import CFacet, ConstancyRecord, EnumerationResult, RegionPolytope, WallInequality

__all__ = [
    "load_input",
    "build_ideals",
    "rational_json",
    "key_json",
    "divisor_json",
    "inequality_json",
    "facet_json",
    "record_json",
    "packed_predecessors",
    "enumeration_json",
    "dump_json",
]


def load_input(path) -> tuple[DualGraph, IdealDivisorSet]:
    """Read and validate an input file; returns the graph and ideal tuple."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolated(f"{path}: cannot read ({exc})") from exc
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


def rational_json(q: int | Fraction):
    """Integers as JSON numbers, everything else as a 'p/q' string."""
    return q.numerator if q.denominator == 1 else str(q)


def key_json(key) -> list[str]:
    """A point key (n_1, .., n_r, den) as strings, integers included ('1',
    '1/6'): each n / den in lowest terms, as str(Fraction(n, den)) writes
    it, with no Fraction made.  A wall constant is the key (numerator, L)."""
    *nums, den = key
    return [str(n // g) if (g := math.gcd(n, den)) == den else f"{n // g}/{den // g}" for n in nums]


def divisor_json(divisor: Divisor) -> list[int]:
    return list(divisor.coeffs)


def inequality_json(ineq: WallInequality) -> dict:
    return {
        "component": ineq.component,
        "coeffs": list(ineq.coeffs),
        "rhs": key_json((ineq.numerator, ineq.scale))[0],
    }


def region_json(region: RegionPolytope) -> dict:
    return {
        "inequalities": [inequality_json(q) for q in region.inequalities],
        "bounded": region.bounded,
    }


def facet_json(facet: CFacet) -> dict:
    return {
        "component": facet.wall.component,
        "from": key_json(facet.keys[0]),
        "to": key_json(facet.keys[1]),
        "midpoint": key_json(facet.keys[2]),
    }


def record_json(record: ConstancyRecord, predecessors: list[int]) -> dict:
    """One record; `predecessors` are the indices of the records found
    before it whose divisor lies below its own (see `enumeration_json`)."""
    return {
        "index": record.index,
        "representative": key_json(record.representative),
        "representatives": [key_json(key) for key in record.representatives],
        "divisor": divisor_json(record.divisor),
        "inequalities": [inequality_json(q) for q in record.region.inequalities],
        "cfacets": [facet_json(f) for f in record.cfacets],
        "predecessors": predecessors,
        "truncated": record.truncated,
    }


def packed_predecessors(rows) -> list[list[int]]:
    """For each row of integer coefficients, the indices of the earlier rows
    lying componentwise below it (the divisor order), read off one int per
    row instead of pairwise `Divisor.le` calls.

    Each coefficient, less the least coefficient of all rows, fills a field
    one bit wider than the spread; that top bit is a guard.  Subtracting P
    from P' with every guard set leaves a field's guard set exactly when
    that field of P' is at least that of P, and never borrows across fields;
    so D <= D' is ``((P' | H) - P) & H == H``, H holding the guard bits.
    """
    if not rows:
        return []
    least = min(map(min, rows))
    width = (max(map(max, rows)) - least).bit_length() + 1
    guards = sum(1 << (width * i + width - 1) for i in range(len(rows[0])))
    packed = [sum((c - least) << (width * i) for i, c in enumerate(row)) for row in rows]
    return [
        [j for j, lower in enumerate(packed[:i]) if (upper - lower) & guards == guards]
        for i, upper in enumerate(p | guards for p in packed)
    ]


def enumeration_json(result: EnumerationResult) -> dict:
    records = result.records
    predecessors = packed_predecessors([r.divisor.coeffs for r in records])
    return {
        "box": key_json(result.box),
        "records": [record_json(r, below) for r, below in zip(records, predecessors)],
        "representatives": [key_json(key) for key in result.representatives],
        "queue": [key_json(key) for key in result.queue],
        "distinct_ideals": len(records),
        "m_primary": result.m_primary,
        "warnings": list(result.warnings),
    }


# -- canonical writer -----------------------------------------------------------

_STR_LIST = frozenset((str,))
_INT_LIST = frozenset((int,))


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
