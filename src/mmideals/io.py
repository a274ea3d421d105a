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
and keys are sorted on serialization.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .divisors import Divisor
from .errors import PreconditionViolated
from .graph import DualGraph, IdealDivisorSet, _list_of, validate_graph
from .regions import CFacet, ConstancyRecord, EnumerationResult, RegionPolytope, WallInequality

__all__ = [
    "load_input",
    "build_ideals",
    "rational_json",
    "point_json",
    "divisor_json",
    "inequality_json",
    "facet_json",
    "record_json",
    "enumeration_json",
    "dump_json",
]


def load_input(path) -> tuple[DualGraph, IdealDivisorSet]:
    """Read and validate an input file; returns the graph and ideal tuple."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
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
        divisors.append(Divisor(graph, graph.coefficients(mult, f"ideal {name!r}")))
    return IdealDivisorSet(graph, names, divisors)


# -- JSON value conventions ---------------------------------------------------


def rational_json(q: int | Fraction):
    """Integers as JSON numbers, everything else as a 'p/q' string."""
    return q.numerator if q.denominator == 1 else str(q)


def point_json(point) -> list[str]:
    """Coordinates are always strings, integers included ('1', '1/6')."""
    return [str(c) for c in point]


def divisor_json(divisor: Divisor) -> list[int]:
    return list(divisor.coeffs)


def inequality_json(ineq: WallInequality) -> dict:
    return {
        "component": ineq.component,
        "coeffs": list(ineq.coeffs),
        "rhs": str(ineq.constant),
    }


def region_json(region: RegionPolytope) -> dict:
    return {
        "inequalities": [inequality_json(q) for q in region.inequalities],
        "bounded": region.bounded,
    }


def facet_json(facet: CFacet) -> dict:
    return {
        "component": facet.component,
        "from": point_json(facet.start),
        "to": point_json(facet.end),
        "midpoint": point_json(facet.midpoint),
    }


def record_json(record: ConstancyRecord, priors) -> dict:
    """One record; its predecessors index the `priors` (records found before
    it) whose divisor is `le` its own, strictly so as divisors are distinct."""
    return {
        "index": record.index,
        "representative": point_json(record.representative),
        "representatives": [point_json(p) for p in record.representatives],
        "divisor": divisor_json(record.divisor),
        "inequalities": [inequality_json(q) for q in record.region.inequalities],
        "cfacets": [facet_json(f) for f in record.cfacets],
        "predecessors": [p.index for p in priors if p.divisor.le(record.divisor)],
        "truncated": record.truncated,
    }


def enumeration_json(result: EnumerationResult) -> dict:
    return {
        "box": point_json(result.box),
        "records": [record_json(r, result.records[: r.index]) for r in result.records],
        "representatives": [point_json(p) for p in result.representatives],
        "queue": [point_json(p) for p in result.queue],
        "distinct_ideals": len(result.records),
        "m_primary": result.m_primary,
        "warnings": list(result.warnings),
    }


def dump_json(payload) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
