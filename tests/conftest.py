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
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mmideals.divisors
from mmideals import RegionEngine, load_input
from mmideals.graph import relative_canonical, validate_graph
from mmideals.io import build_ideals

DATA = Path(__file__).parent / "data"
EXAMPLE_PATH = DATA / "example_two_ideals.json"


def frac(value) -> Fraction:
    return Fraction(value)


def fracs(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def exc(divisor) -> tuple[int, ...]:
    """Exceptional part of a divisor as plain ints (all goldens are integral)."""
    part = divisor.exceptional_part()
    assert all(c.denominator == 1 for c in part)
    return tuple(int(c) for c in part)


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
def golden_run(engine):
    """The nine-step walk; shared because several modules assert against it."""
    return engine.enumerate_constancy_regions(("1", "3"), max_points=9)


@pytest.fixture(scope="session")
def full_run(engine):
    """The complete walk of the box [0,1] x [0,3]."""
    return engine.enumerate_constancy_regions(("1", "3"))
