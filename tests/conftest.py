"""Shared fixtures and frozen expected values for the whole suite.

The running example: five exceptional components in a tree

    E1 -- E2 -- E5 -- E4 -- E3      self-intersections -2, -4, -1, -2, -2

with arrows A1 on E2 and A2 on E5, and the two m-primary ideals

    F1 = 3 E1 + 6 E2 + 7 E3 + 14 E4 + 21 E5
    F2 =   E1 + 2 E2 + 2 E3 +  4 E4 +  6 E5.

Every expected value in GOLDEN was derived by hand (floors, one unloading
sweep at a time, 2x2 wall intersections) before the code existed; tests
compare against these frozen numbers, never against the code's own output.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mmideals.divisors
import mmideals.regions
from mmideals import RegionEngine, load_input
from mmideals.graph import relative_canonical, validate_graph
from mmideals.io import build_ideals, dump_json, enumeration_json, key_json
from mmideals.regions import _point_key

DATA = Path(__file__).parent / "data"
EXAMPLE_PATH = DATA / "example_two_ideals.json"


def frac(value) -> Fraction:
    return Fraction(value)


def fracs(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def intersection_matrix(raw) -> tuple[tuple[int, ...], ...]:
    """The dense exceptional intersection matrix, read off the input JSON's
    self-intersections and `edges` list, not off the program's adjacency."""
    ids = [entry["id"] for entry in raw["exceptional"]]
    rows = [[0] * len(ids) for _ in ids]
    for i, entry in enumerate(raw["exceptional"]):
        rows[i][i] = entry["self"]
    for a, b in raw.get("edges", []):
        i, j = ids.index(a), ids.index(b)
        rows[i][j] = rows[j][i] = 1
    return tuple(map(tuple, rows))


def affine_crossings(raw) -> tuple[tuple[int, ...], ...]:
    """The exceptional-by-affine block of the intersection matrix: row i
    counts how often each affine arrow of the input JSON crosses E_i."""
    ids = [entry["id"] for entry in raw["exceptional"]]
    arrows = raw.get("affine", [])
    rows = [[0] * len(arrows) for _ in ids]
    for a, entry in enumerate(arrows):
        for cid in entry["meets"]:
            rows[ids.index(cid)][a] += 1
    return tuple(map(tuple, rows))


def exc(divisor) -> tuple[int, ...]:
    """Exceptional part of a divisor: its first n_exc coefficients, all ints."""
    part = divisor.coeffs[: divisor.graph.n_exc]
    assert all(type(c) is int for c in part)
    return part


# Hand-derived expected values.  Points are pairs of strings to keep the
# table readable; tests parse them with Fraction.
GOLDEN = {
    "canonical": (1, 2, 3, 6, 9),
    "excess_a1": (0, 0, 0, 0, 1),
    "excess_a2": (0, 1, 0, 0, 0),
    "dicritical_ids": ("E2", "E5"),
    "rupture_ids": (),
    # floor of (lam . F) - K before any unloading
    "floors": {
        ("0", "0"): (-1, -2, -3, -6, -9),
        ("1/6", "1"): (0, 1, 0, 0, 0),
        ("23/42", "3/4"): (1, 2, 2, 4, 7),
    },
    # one unloading sweep
    "unload_once": {(0, 1, 0, 0, 0): (1, 1, 0, 0, 1)},
    # full antinef closures
    "closures": {
        (0, 1, 0, 0, 0): (1, 1, 1, 2, 3),
        (1, 2, 1, 2, 3): (1, 2, 2, 4, 6),
        (1, 3, 2, 4, 6): (2, 3, 3, 6, 9),
        (-1, -2, -3, -6, -9): (0, 0, 0, 0, 0),
    },
    # mixed multiplier ideal divisors
    "mmi": {
        ("0", "0"): (0, 0, 0, 0, 0),
        ("1/6", "1"): (1, 1, 1, 2, 3),
        ("17/42", "1/4"): (1, 1, 1, 2, 3),
        ("1/6", "3/2"): (1, 2, 2, 4, 6),
        ("10/21", "1/2"): (1, 2, 2, 4, 6),
        ("23/42", "3/4"): (1, 2, 3, 5, 7),
        ("1/6", "2"): (2, 3, 3, 6, 9),
        ("1/2", "1"): (2, 3, 3, 6, 9),
        ("31/42", "1/4"): (2, 3, 3, 6, 9),
        ("13/21", "1"): (2, 3, 4, 7, 10),
        ("1/6", "5/2"): (2, 4, 4, 8, 12),
        ("1", "3"): (5, 10, 10, 20, 30),
    },
    # left limits at jumping points
    "left": {
        ("1/6", "1"): (0, 0, 0, 0, 0),
        ("17/42", "1/4"): (0, 0, 0, 0, 0),
        ("1/6", "3/2"): (1, 1, 1, 2, 3),
        ("1/2", "1"): (1, 2, 3, 5, 7),
    },
    # componentwise (lam . F) - K at two first-wall points; the jumping
    # component is the one hitting an integer
    "values_minus_k": {
        ("1/6", "1"): ("1/2", "1", "1/6", "1/3", "1/2"),
        ("17/42", "1/4"): ("13/28", "13/14", "1/3", "2/3", "1"),
    },
    # wall constants (E2, E5) of the region holding each point
    "region_constants": {
        ("0", "0"): ("3", "10"),
        ("1/6", "1"): ("4", "13"),
        ("1/6", "3/2"): ("5", "16"),
        ("23/42", "3/4"): ("5", "17"),
        ("1/6", "2"): ("6", "19"),
        ("13/21", "1"): ("6", "20"),
        ("1/6", "5/2"): ("7", "22"),
    },
    "wall_normals": {"E2": (6, 2), "E5": (21, 6)},
    # nine-step walk inside the box [0,1] x [0,3]
    "walk_order": (
        ("0", "0"),
        ("1/6", "1"),
        ("17/42", "1/4"),
        ("1/6", "3/2"),
        ("10/21", "1/2"),
        ("23/42", "3/4"),
        ("1/6", "2"),
        ("1/2", "1"),
        ("31/42", "1/4"),
    ),
    "walk_queue_after": (("1/6", "5/2"), ("13/21", "1")),
    "walk_divisors": (
        (0, 0, 0, 0, 0),
        (1, 1, 1, 2, 3),
        (1, 2, 2, 4, 6),
        (1, 2, 3, 5, 7),
        (2, 3, 3, 6, 9),
    ),
    "walk_constants": (("3", "10"), ("4", "13"), ("5", "16"), ("5", "17"), ("6", "19")),
    # facets of the five walk records: (component, start, end, midpoint)
    "walk_facets": {
        0: (
            ("E2", ("0", "3/2"), ("1/3", "1/2"), ("1/6", "1")),
            ("E5", ("1/3", "1/2"), ("10/21", "0"), ("17/42", "1/4")),
        ),
        1: (
            ("E2", ("0", "2"), ("1/3", "1"), ("1/6", "3/2")),
            ("E5", ("1/3", "1"), ("13/21", "0"), ("10/21", "1/2")),
        ),
        2: (
            ("E2", ("0", "5/2"), ("1/3", "3/2"), ("1/6", "2")),
            ("E5", ("1/3", "3/2"), ("16/21", "0"), ("23/42", "3/4")),
        ),
        3: (
            ("E2", ("1/3", "3/2"), ("2/3", "1/2"), ("1/2", "1")),
            ("E5", ("2/3", "1/2"), ("17/21", "0"), ("31/42", "1/4")),
        ),
        4: (
            ("E2", ("0", "3"), ("1/3", "2"), ("1/6", "5/2")),
            ("E5", ("1/3", "2"), ("19/21", "0"), ("13/21", "1")),
        ),
    },
    "first_vertex": ("1/3", "1/2"),
    # jumping-number chains
    "chain_a2_upto_2": ("3/2", "2"),
    "chain_a1_upto_1": ("10/21", "13/21", "16/21", "17/21", "19/21", "20/21"),
    "ray_1_1_first": "10/27",
    # minimal jumping divisors
    "gmin": {
        ("1/6", "1"): ("E2",),
        ("17/42", "1/4"): ("E5",),
        ("1/6", "3/2"): ("E2",),
        ("1/2", "1"): ("E2",),
        ("13/21", "1"): ("E5",),
    },
}


def point(pair) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(c) for c in pair)


def key_point(key) -> tuple[Fraction, ...]:
    """The point of a walk key (n_1, .., n_r, den), as Fractions."""
    return tuple(Fraction(n, key[-1]) for n in key[:-1])


def membership(engine, lam_prime, lam) -> bool:
    """Does the ideal at lam_prime contain the ideal at lam?

    Decided componentwise: floor(lam' . F - K) <= e(lam) at every component,
    affine ones included.  Agrees with the wall polytope for lam_prime off
    the closure boundary cases by the region theorem; an independent route
    to `RegionPolytope.contains`.
    """
    *nums, m = _point_key(lam_prime, engine.r, "lambda")
    values, den = engine._numerators(nums, m)
    return all(v // den <= e for v, e in zip(values, engine.mmi(lam).coeffs))


def value_rows(context) -> list[tuple[Fraction, Fraction]]:
    """The Fraction value rows of a point context: per component the pair
    (form, q) with form = sum_i lam_i e_{i,j} and q = form - k_j.  Oracle
    for the integer numerators `context.values` over `context.den`."""
    divisors = context.ideals.divisors
    forms = [
        sum((lam * d.coeffs[j] for lam, d in zip(context.coords, divisors)), Fraction(0))
        for j in range(context.graph.n_total)
    ]
    return [(form, form - k) for form, k in zip(forms, relative_canonical(context.graph))]


def reference_setup(graph, ideals) -> dict:
    """What an engine's set-up computes, by the definitions its one integer
    pass replaced: K from the cached solve as Fractions, its adjunction
    checked with `dot_exceptional`; L as the lcm of K's denominators, and L * K; each
    excess as -F . E_i per component; the support, and the engine's
    `wall_relevant` and `ends`, rupture counting exceptional neighbours only.
    Keys are the attribute names of the engine and `ideals`."""
    n = graph.n_exc
    nums, det = graph.canonical_numerators
    nums = nums + [0] * graph.n_aff
    for i in range(n):
        assert graph.dot_exceptional(nums, i) == det * (-2 - graph.self_int[i])
    canonical = tuple(x // det if x % det == 0 else Fraction(x, det) for x in nums)
    scale = math.lcm(*(Fraction(c).denominator for c in canonical))
    scaled_k = [int(c * scale) for c in canonical]
    excess = tuple(tuple(-graph.dot_exceptional(d.coeffs, i) for i in range(n)) for d in ideals.divisors)
    support = frozenset(j for d in ideals.divisors for j, c in enumerate(d.coeffs) if c > 0)
    adj = graph.adjacency
    wall_relevant = tuple(
        j for j in range(n) if sum(nb < n for nb in adj[j]) >= 3 or any(rho[j] > 0 for rho in excess)
    )
    crossed = (j for j in range(n) if any(nb >= n and nb in support for nb in adj[j]))
    return {
        "scale": scale,
        "_columns": list(zip(zip(*(d.coeffs for d in ideals.divisors)), scaled_k)),
        "canonical": canonical,
        "wall_relevant": wall_relevant,
        "ends": frozenset(wall_relevant).union(crossed),
        "excess": excess,
        "support": support,
    }


# -- the `enumerate` report as a payload ------------------------------------------
# The dict builders the report was made with before `io.enumeration_json`
# wrote its text straight from the records: the reference that writer is held
# to, through `dump_json` and the stdlib.  Predecessors come from a pairwise
# componentwise scan, not from `io.packed_predecessors`.


def facet_json(facet) -> dict:
    return {
        "component": facet.wall.component,
        "from": key_json(facet.keys[0]),
        "to": key_json(facet.keys[1]),
        "midpoint": key_json(facet.keys[2]),
    }


def record_json(record, predecessors: list[int]) -> dict:
    """One record; `predecessors` are the indices of the records found
    before it whose divisor lies below its own."""
    return {
        "index": record.index,
        "representative": key_json(record.representative),
        "representatives": [key_json(key) for key in record.representatives],
        "divisor": list(record.divisor.coeffs),
        "inequalities": [
            {"component": q.component, "coeffs": list(q.coeffs), "rhs": key_json((q.numerator, q.scale))[0]}
            for q in record.region.inequalities
        ],
        "cfacets": [facet_json(f) for f in record.cfacets],
        "predecessors": predecessors,
        "truncated": record.truncated,
    }


def enumeration_payload(result, command: str) -> dict:
    """The `enumerate` report of a walk as a dict, `command` naming it."""
    rows = [r.divisor.coeffs for r in result.records]
    return {
        "box": key_json(result.box),
        "command": command,
        "records": [
            record_json(r, [j for j in range(i) if all(map(operator.le, rows[j], rows[i]))])
            for i, r in enumerate(result.records)
        ],
        "representatives": [key_json(key) for key in result.representatives],
        "queue": [key_json(key) for key in result.queue],
        "distinct_ideals": len(result.records),
        "m_primary": result.m_primary,
        "warnings": list(result.warnings),
    }


def assert_report_matches_its_payload(result, command: str = "enumerate") -> None:
    """`io.enumeration_json` writes the bytes `dump_json` writes for the
    reference payload, and those are the stdlib's for the report."""
    out = enumeration_json(result, command)
    assert out == dump_json(enumeration_payload(result, command))
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def count_closures(monkeypatch) -> list:
    """Rebind every alias of `antinef_closure` in the package's modules to a
    wrapper that records its argument; returns the list it appends to."""
    original = mmideals.divisors.antinef_closure
    calls = []

    def counted(divisor):
        calls.append(divisor)
        return original(divisor)

    for name, module in list(sys.modules.items()):
        if name == "mmideals" or name.startswith("mmideals."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture(scope="session", autouse=True)
def bounded_walks():
    """Every walk of the suite stops at 2,000 steps with LimitReached; the
    largest one takes 636 (box 4,12).  A walk that cannot close, say from
    misplaced seeds, then fails at once instead of running for hours."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmideals.regions, "ENUMERATION_GUARD", 2_000)
        yield


@pytest.fixture(scope="session")
def example_raw() -> dict:
    return json.loads(EXAMPLE_PATH.read_text())


@pytest.fixture(scope="session")
def example():
    return load_input(EXAMPLE_PATH)


@pytest.fixture(scope="session")
def graph(example):
    return example[0]


@pytest.fixture(scope="session")
def ideals(example):
    return example[1]


@pytest.fixture(scope="session")
def canonical(graph):
    return relative_canonical(graph)


@pytest.fixture(scope="session")
def engine(ideals):
    return RegionEngine(ideals)


@pytest.fixture(scope="session")
def affine_engine(example_raw):
    """The example with A1 carrying multiplicity 1 in the second ideal, so
    the tuple is not m-primary."""
    raw = copy.deepcopy(example_raw)
    raw["ideals"][1]["mult"]["A1"] = 1
    return RegionEngine(build_ideals(validate_graph(raw), raw["ideals"]))


@pytest.fixture(scope="session")
def fractional_engine():
    """`fractional_k.json`: E2^2 = -3 and E5^2 = -2 make K fractional."""
    _, ideals = load_input(DATA / "fractional_k.json")
    return RegionEngine(ideals)


@pytest.fixture(scope="session")
def golden_run(engine):
    """The nine-step walk; shared because several modules assert against it."""
    return engine.enumerate_constancy_regions(("1", "3"), max_points=9)


@pytest.fixture(scope="session")
def full_run(engine):
    """The complete walk of the box [0,1] x [0,3]."""
    return engine.enumerate_constancy_regions(("1", "3"))
