"""Constancy regions: wall polytopes, the region walk, facets, and chains."""

from __future__ import annotations

import contextlib
import json
import math
import operator
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import mmideals.regions
from mmideals import RegionEngine, load_input, next_jumping_number, svg
from mmideals.cli import _enumeration_text, main
from mmideals.divisors import Divisor, antinef_closure
from mmideals.graph import IdealDivisorSet, _as_fraction, _refuse_non_sequence, validate_graph
from mmideals.io import build_ideals, enumeration_json, key_json
from mmideals.jumping import contributes
from mmideals.errors import (
    DanglingReference,
    DimensionMismatch,
    GeometryDegeneracy,
    LimitReached,
    PreconditionViolated,
    UnsupportedGeometry,
)
from mmideals.regions import (
    CFacet,
    RegionPolytope,
    WallInequality,
    _Ray,
    _clip_row,
    _key_point,
    _line_key,
    _point_key,
    _subtract_intervals,
    _wall_table,
)
from mmideals.svg import render_walls

from conftest import DATA, GOLDEN, assert_report_matches_its_payload, count_closures, exc, membership, point, value_rows
from strategies import _definite_graph, _tree_engine, random_trees


# -- wall polytopes -----------------------------------------------------------


@pytest.mark.parametrize("lam,want", sorted(GOLDEN["region_constants"].items()))
def test_region_constants(engine, lam, want):
    region = engine.region_of(point(lam))
    assert tuple(q.component for q in region.inequalities) == ("E2", "E5")
    assert tuple(str(q.constant) for q in region.inequalities) == want


def test_wall_normals(engine):
    region = engine.region_of((0, 0))
    normals = {q.component: q.coeffs for q in region.inequalities}
    assert normals == GOLDEN["wall_normals"]


def test_region_contains_its_point(engine):
    region = engine.region_of(point(("1/6", "1")))
    assert region.contains(point(("1/6", "1")))
    # the wall of the region below passes through the point, but its own
    # walls sit strictly above it
    assert not region.contains(point(("1/6", "2")))
    assert not region.contains((-1, 0))


def test_region_extent_and_bounded(engine):
    region = engine.region_of((0, 0))
    assert _extent(region, 0) == Fraction(10, 21)  # min(3/6, 10/21)
    assert _extent(region, 1) == Fraction(3, 2)  # min(3/2, 10/6)
    assert region.bounded


def test_region_constant_lookup(engine):
    region = engine.region_of((0, 0))
    assert _constant_for(region, "E5") == 10
    assert _constant_for(region, "E1") is None


def test_a_region_with_an_uncapped_axis_is_unbounded(tmp_path, capsys):
    # Every wall normal is positive, so only a region without walls leaves an
    # axis uncapped.  One -1 curve crossed by two arrows is no rupture, and
    # neither ideal has excess on it, so it is not dicritical either.
    raw = {
        "exceptional": [{"id": "E1", "self": -1}],
        "affine": [{"id": "A1", "meets": ["E1"]}, {"id": "A2", "meets": ["E1"]}],
        "ideals": [{"mult": {"E1": 1, "A1": 1}}, {"mult": {"E1": 1, "A2": 1}}],
    }
    region = RegionEngine(build_ideals(validate_graph(raw), raw["ideals"])).region_of(("1/2", "1/3"))
    assert region.inequalities == () and not region.bounded
    assert region.contains(point(("100", "100")))
    assert region.edges == [] and region.vertices() == [(0, 0)]
    source = tmp_path / "uncapped.json"
    source.write_text(json.dumps(raw))
    assert main(["region", "--input", str(source), "--lambda", "1/2,1/3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounded"] is False and payload["inequalities"] == []


@pytest.mark.parametrize(
    "ideals,box",
    [
        ([{"mult": {"E1": 1, "A1": 1}}, {"mult": {"E1": 1, "A2": 1}}], "1,1"),
        ([{"mult": {"E1": 1, "A1": 1}}], "1"),
    ],
    ids=["two-ideals", "one-ideal"],
)
def test_walks_of_an_input_without_walls_draw_what_they_report(tmp_path, capsys, ideals, box):
    # One -1 curve with an arrow per ideal: no region has a wall today (ROADMAP
    # item 1 will give it some), so only the invariants are asserted: one
    # polyline per facet, and one outline per two-ideal record with a wall.
    arrows = [{"id": f"A{i + 1}", "meets": ["E1"]} for i in range(len(ideals))]
    source = tmp_path / "wall-less.json"
    source.write_text(json.dumps({"exceptional": [{"id": "E1", "self": -1}], "affine": arrows, "ideals": ideals}))
    argv = ["--input", str(source), "--box", box]
    assert main(["enumerate", *argv]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert main(["walls", *argv]) == 0
    picture = capsys.readouterr().out
    assert picture.count("<polyline ") == sum(len(rec["cfacets"]) for rec in records)
    outlined = sum(bool(rec["inequalities"]) for rec in records) if len(ideals) == 2 else 0
    assert picture.count("<path ") == outlined


# -- membership ---------------------------------------------------------------


def test_membership_goldens(engine):
    assert membership(engine, ("1/12", "1/2"), ("0", "0"))
    assert not membership(engine, ("1/6", "1"), ("0", "0"))  # on the wall
    assert not membership(engine, ("1/6", "3/2"), ("1/6", "1"))
    assert membership(engine, ("17/42", "1/4"), ("1/6", "1"))  # same region
    assert not membership(engine, ("13/21", "1"), ("1/2", "1"))


def test_membership_is_reflexive(engine):
    for lam in GOLDEN["mmi"]:
        assert membership(engine, point(lam), point(lam))


coords = st.fractions(min_value=0, max_value=3, max_denominator=9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(coords, coords), st.tuples(coords, coords))
def test_membership_agrees_with_polytope(engine, lam, probe):
    # m-primary input, so the wall polytope is exactly the inclusion region
    assert membership(engine, probe, lam) == engine.region_of(lam).contains(probe)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(coords, coords))
def test_membership_means_containment(engine, lam):
    # lam' in the region of lam  <=>  divisor at lam' <= divisor at lam... the
    # forward half: every member keeps the divisor below
    region_divisor = engine.mmi(("1/6", "1"))
    if membership(engine, lam, ("1/6", "1")):
        assert engine.mmi(lam).le(region_divisor)


# -- the golden walk ----------------------------------------------------------


def test_walk_representative_order(golden_run):
    got = tuple(tuple(str(c) for c in _key_point(p)) for p in golden_run.representatives)
    assert got == GOLDEN["walk_order"]


def test_walk_queue_after_nine(golden_run):
    got = tuple(tuple(str(c) for c in _key_point(p)) for p in golden_run.queue)
    assert got == GOLDEN["walk_queue_after"]


def test_walk_divisors_and_constants(golden_run):
    assert len(golden_run.records) == 5
    assert len({rec.divisor for rec in golden_run.records}) == 5
    for rec, want_div, want_consts in zip(
        golden_run.records, GOLDEN["walk_divisors"], GOLDEN["walk_constants"]
    ):
        assert exc(rec.divisor) == want_div
        assert tuple(str(q.constant) for q in rec.region.inequalities) == want_consts


def test_walk_facets(golden_run):
    for idx, want in GOLDEN["walk_facets"].items():
        rec = golden_run.records[idx]
        got = tuple(
            (
                f.wall.component,
                tuple(str(c) for c in f.start),
                tuple(str(c) for c in f.end),
                tuple(str(c) for c in f.midpoint),
            )
            for f in rec.cfacets
        )
        assert got == want


def test_walk_predecessors(golden_run):
    # the relation is derived only where the JSON report emits it
    records = json.loads(enumeration_json(golden_run, "enumerate"))["records"]
    assert [rec["predecessors"] for rec in records] == [
        [],
        [0],
        [0, 1],
        [0, 1, 2],
        [0, 1, 2, 3],
    ]


@pytest.mark.parametrize("which,box", [("affine", ("1", "3")), ("fractional-k", ("3", "3"))])
def test_report_predecessors_match_a_direct_scan(affine_engine, fractional_engine, which, box):
    result = {"affine": affine_engine, "fractional-k": fractional_engine}[which].enumerate_constancy_regions(box)
    records = result.records
    for i, got in enumerate(json.loads(enumeration_json(result, "enumerate"))["records"]):
        # componentwise, without Divisor.le
        below = [j for j in range(i) if all(map(operator.le, records[j].divisor.coeffs, records[i].divisor.coeffs))]
        assert got["predecessors"] == below
    assert len(records) > 5


def test_walk_representatives_map_to_their_records(golden_run, engine):
    for rec in golden_run.records:
        for rep in rec.representatives:
            assert engine.mmi(_key_point(rep)) == rec.divisor


def test_walk_nothing_truncated(golden_run):
    assert not any(rec.truncated for rec in golden_run.records)
    assert golden_run.warnings == []
    assert golden_run.m_primary


def test_full_run_terminates_and_covers(full_run, engine):
    assert len(full_run.queue) == 0
    assert len({rec.divisor for rec in full_run.records}) == len(full_run.records)
    # a grid over the box: every value the family takes inside the box has a
    # record (walls included, box corner included)
    for i in range(0, 13):
        for j in range(0, 13):
            lam = (Fraction(i, 12), Fraction(3 * j, 12))
            assert full_run.by_divisor.get(engine.mmi(lam)) is not None


def test_full_run_truncation_flags(full_run):
    flagged = [rec.index for rec in full_run.records if rec.truncated]
    # the first regions sit entirely inside [0,1] x [0,3]; later ones stick out
    for rec in full_run.records[:5]:
        assert not rec.truncated
    assert flagged, "some region must reach past the box"


def test_box_too_small_warning(engine):
    result = engine.enumerate_constancy_regions(("1/100", "1/100"))
    assert any(w.startswith("BoxTooSmall") for w in result.warnings)
    assert len(result.records) == 1


def test_box_validation(engine):
    with pytest.raises(PreconditionViolated):
        engine.enumerate_constancy_regions(("0", "3"))
    with pytest.raises(PreconditionViolated):
        engine.enumerate_constancy_regions(("1", "3"), max_points=0)


def test_a_string_is_not_a_sequence_of_coordinates(engine):
    # "12" would be read as the point (1, 2), "26" as the box (2, 6), "11" as
    # the direction (1, 1) and "E2" as the components E and 2, one item per
    # character; a number or None is no sequence at all.  Every entry point
    # reads its coordinates through one parser and refuses each the same way.
    lam = point(("1/6", "1"))
    origin = engine.region_of((0, 0))
    entry_points = [
        (engine.at, "12", "lambda", "coordinates"),
        (engine.region_of, "12", "lambda", "coordinates"),
        (engine.enumerate_constancy_regions, "26", "box", "coordinates"),
        (lambda u: engine.wall_ray_restriction(u, 1), "11", "direction", "coordinates"),
        (lambda u: next_jumping_number(engine, u, 0), "11", "direction", "coordinates"),
        (origin.contains, "12", "point", "coordinates"),
        (lambda ids: contributes(engine, ids, lam), "E2", "components", "component ids"),
    ]
    for ask, string, what, items in entry_points:
        for bad, got in [(string, f"the string '{string}'"), (5, "int 5"), (None, "NoneType None")]:
            with pytest.raises(PreconditionViolated, match=f"^{what}: expected a sequence of {items}, got {got}$"):
                ask(bad)
    assert origin.contains(("1/10", "0"))
    with pytest.raises(PreconditionViolated, match="^point: float 0.1 is inexact"):
        origin.contains((0.1, 0))
    with pytest.raises(DimensionMismatch, match="^point needs 2 coordinates$"):
        origin.contains((Fraction(1, 10),))


def _key_via_fractions(values, r: int, what: str) -> tuple[int, ...]:
    """The key every coordinate once made through `_as_fraction`: oracle for
    the integer reader of plain digit strings in `_point_key`."""
    _refuse_non_sequence(values, what, "coordinates")
    coords = [_as_fraction(v, what) for v in values]
    if len(coords) != r:
        raise DimensionMismatch(f"{what} needs {r} coordinates")
    den = math.lcm(*(q.denominator for q in coords))
    return (*(q.numerator * (den // q.denominator) for q in coords), den)


def _key_or_error(read, values, r):
    try:
        return read(values, r, "lambda")
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


# coordinate strings: plain digits with a slash or not, and what the
# Fraction parser also reads or refuses (sign, point, underscore, exponent,
# spaces, a zero denominator, non-ASCII digits, nothing); beside them
# digit strings at and past the interpreter's 4,300-digit limit for int()
coordinate_strings = st.one_of(
    st.text(alphabet="0123456789/.+-_e \u0661\u00b2", max_size=8),
    st.sampled_from(["", "0", "01", "2/4", "0/0", "1/0", "1/-2", "1_0", "\u0661", "\u00b2", " 1", "1.5"]),
    st.sampled_from(["1" * 4300, "1" * 4301, "1" * 5000, "1/" + "1" * 5000, "1" * 5000 + "/3"]),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(coordinate_strings, min_size=1, max_size=3), st.integers(1, 2))
def test_the_integer_coordinate_reader_equals_the_fraction_route(values, r):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        assert _key_or_error(_point_key, values, r) == _key_or_error(_key_via_fractions, values, r)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_max_points_one(engine):
    result = engine.enumerate_constancy_regions(("1", "3"), max_points=1)
    assert len(result.records) == 1
    assert exc(result.records[0].divisor) == (0, 0, 0, 0, 0)
    assert len(result.queue) == 2


# -- one ideal ----------------------------------------------------------------


@pytest.fixture(scope="module")
def single_engine(example_raw):
    graph = validate_graph(example_raw)
    ideals = build_ideals(graph, [example_raw["ideals"][1]])
    return RegionEngine(ideals)


def test_single_ideal_walk(single_engine):
    result = single_engine.enumerate_constancy_regions(("3",))
    got = [(str(_key_point(rec.representative)[0]), exc(rec.divisor)) for rec in result.records]
    assert got == [
        ("0", (0, 0, 0, 0, 0)),
        ("3/2", (1, 1, 1, 2, 3)),
        ("2", (1, 2, 2, 4, 6)),
        ("5/2", (2, 3, 3, 6, 9)),
        ("3", (2, 4, 4, 8, 12)),
    ]
    # facets collapse to the wall points
    for rec in result.records:
        for facet in rec.cfacets:
            assert facet.start == facet.end == facet.midpoint


def test_three_ideals_unsupported(example_raw):
    graph = validate_graph(example_raw)
    third = dict(example_raw["ideals"][0], name="a3")
    trip = build_ideals(graph, example_raw["ideals"] + [third])
    engine = RegionEngine(trip)
    with pytest.raises(UnsupportedGeometry):
        engine.enumerate_constancy_regions(("1", "1", "1"))
    # pointwise data still works in any dimension
    assert exc(engine.mmi(("1/6", "1", "0"))) == (1, 1, 1, 2, 3)


# -- jumping numbers along rays -------------------------------------------------


def test_chain_a2(engine):
    got = tuple(str(v) for v in engine.jumping_numbers_of("a2", 2))
    assert got == GOLDEN["chain_a2_upto_2"]


def test_chain_a1(engine):
    got = tuple(str(v) for v in engine.jumping_numbers_of("a1", 1))
    assert got == GOLDEN["chain_a1_upto_1"]


def test_chain_unknown_name(engine):
    with pytest.raises(DanglingReference):
        engine.jumping_numbers_of("a9", 1)


def test_next_jumping_number_free_function(engine):
    # the ray (0, 1) is the chain of the second ideal
    assert next_jumping_number(engine, (0, 1), 0) == Fraction(3, 2)
    assert next_jumping_number(engine, (0, 1), Fraction(3, 2)) == 2
    # strictly after t_prev even when t_prev is itself a jumping number
    assert next_jumping_number(engine, ("0", "1"), 1) == Fraction(3, 2)


def test_next_jumping_number_refuses_a_negative_start(engine):
    with pytest.raises(PreconditionViolated, match="^t_prev must be nonnegative$"):
        next_jumping_number(engine, (1, 0), -1)


def test_next_jumping_number_checks_the_direction(engine):
    # the step and the ray both refuse a zero, negative or wrong-length direction
    for direction, error, message in [
        ((0, 0), PreconditionViolated, "direction must be nonzero and nonnegative"),
        (("1", "-1/2"), PreconditionViolated, "direction must be nonzero and nonnegative"),
        ((1,), DimensionMismatch, "direction needs 2 coordinates"),
        ((1, 1, 1), DimensionMismatch, "direction needs 2 coordinates"),
    ]:
        with pytest.raises(error, match=message):
            next_jumping_number(engine, direction, 0)
        with pytest.raises(error, match=message):
            engine.wall_ray_restriction(direction, 1)


def test_ray_takes_one_step_per_jump(engine, monkeypatch):
    calls = []
    step = mmideals.regions._Ray.step

    def counted(ray, p, q):
        calls.append((ray, Fraction(p, q)))
        return step(ray, p, q)

    monkeypatch.setattr(mmideals.regions._Ray, "step", counted)
    values = engine.wall_ray_restriction((1, 1), 1)
    # one step per value, and one more that passes the limit, all on one ray
    assert len(calls) == len(values) + 1
    assert [t for *_, t in calls] == [0, *values]
    assert len({id(ray) for ray, _ in calls}) == 1


def test_chain_guard_trips_only_past_its_cap(engine, monkeypatch):
    # the ray (1, 1) has the two jumps 10/27 and 13/27 up to 1/2
    values = engine.wall_ray_restriction((1, 1), "1/2")
    assert values == [Fraction(10, 27), Fraction(13, 27)]
    monkeypatch.setattr(mmideals.regions, "CHAIN_GUARD", len(values))
    assert engine.wall_ray_restriction((1, 1), "1/2") == values
    monkeypatch.setattr(mmideals.regions, "CHAIN_GUARD", len(values) - 1)
    with pytest.raises(LimitReached, match=r"^ray passed CHAIN_GUARD = 1 jumping numbers below 1/2; lower --upto$"):
        engine.wall_ray_restriction((1, 1), "1/2")


def test_ray_restriction(engine):
    values = engine.wall_ray_restriction(("1", "1"), "1/2")
    assert str(values[0]) == GOLDEN["ray_1_1_first"]
    assert values == sorted(values)
    # the first ray value is where t * (1,1) leaves the first region
    region = engine.region_of((0, 0))
    crossings = [
        q.constant / sum(q.coeffs) for q in region.inequalities
    ]
    assert values[0] == min(crossings)


def test_ray_restriction_validates_direction(engine):
    with pytest.raises(PreconditionViolated):
        engine.wall_ray_restriction(("0", "0"), 1)
    with pytest.raises(DimensionMismatch):
        engine.wall_ray_restriction(("1",), 1)


# -- properties ----------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_every_region_has_positive_constants(engine, affine_engine, fractional_engine, data):
    # The closure dominates its floor, so e_j >= floor(lam . F_j - k_j) >
    # lam . F_j - k_j - 1: every component's wall constant at lam's own
    # divisor exceeds lam . F_j >= 0, affine ones included, and a ray step
    # from t, the least (k_j + 1 + e_j(t)) / e_j along the ray, exceeds t.
    which = data.draw(st.sampled_from(["tree", "m-primary", "affine", "fractional-k"]), label="which")
    fixtures = {"m-primary": engine, "affine": affine_engine, "fractional-k": fractional_engine}
    eng = _tree_engine(data) if which == "tree" else fixtures[which]
    lam = data.draw(st.tuples(*[coords] * eng.r), label="lam")
    region = eng.region_of(lam)
    assert all(q.constant > 0 for q in region.inequalities)
    assert region.contains(lam)
    context = eng.at(lam)
    *nums, m = context.key
    for j, (normal, _) in enumerate(eng._columns):
        assert eng.scale * sum(map(operator.mul, nums, normal)) < context.wall(j, context.divisor).numerator * m

    direction = data.draw(st.lists(coords, min_size=eng.r, max_size=eng.r), label="direction")
    if not any(direction):
        direction[0] = Fraction(1)
    t = data.draw(coords, label="t")
    p, q = _Ray(eng, direction).step(t.numerator, t.denominator)
    assert p * t.denominator > t.numerator * q


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.fractions(min_value="1/4", max_value=2, max_denominator=4),
    st.fractions(min_value="1/4", max_value=3, max_denominator=4),
)
def test_walks_of_random_boxes_cover_their_corners(engine, b1, b2):
    result = engine.enumerate_constancy_regions((b1, b2))
    assert result.by_divisor.get(engine.mmi((b1, b2))) is not None
    divisors = [rec.divisor for rec in result.records]
    assert len(set(divisors)) == len(divisors)
    # every seed lies in the closed box, and without max_points the walk
    # ends on an empty queue
    x, y, q = result.box
    assert all(n1 * q <= x * den and n2 * q <= y * den for n1, n2, den in result.representatives)
    assert result.queue == []


def _engines(engine, affine_engine):
    return {"m-primary": engine, "affine": affine_engine}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(coords, coords), st.sampled_from(["m-primary", "affine"]))
def test_integral_values_are_ints_and_the_rest_fractions(engine, affine_engine, lam, which):
    eng = _engines(engine, affine_engine)[which]
    context = eng.at(lam)
    integral = list(context.floor.coeffs) + list(context.divisor.coeffs)
    integral += [rho for row in eng.ideals.excess for rho in row]
    integral += list(context.values) + [context.den]
    if any(lam):
        integral += list(context.left.coeffs)
    assert all(type(c) is int for c in integral)

    region = eng.region_of(lam)
    rational = [q.constant for q in region.inequalities]
    rational += [_extent(region, axis) for axis in range(2)]
    if any(lam):
        rational += eng.wall_ray_restriction(lam, 1)
    assert all(type(q) is Fraction for q in rational if q is not None)

    assert not any(isinstance(v, float) for v in integral + rational + list(context.coords))


@pytest.mark.parametrize("which", ["m-primary", "affine"])
def test_walk_facet_endpoints_are_fractions(engine, affine_engine, which):
    result = _engines(engine, affine_engine)[which].enumerate_constancy_regions(("1", "3"))
    ends = [
        z
        for rec in result.records
        for facet in rec.cfacets
        for z in facet.start + facet.end + facet.midpoint
    ]
    assert ends and all(type(z) is Fraction for z in ends)


def _prioritize_by_rescanning(self, queue):
    """The queue priority as first written: move the first queued point
    strictly below the head to the front, rescanning from the head after
    every move.  Oracle for the single-scan `RegionEngine._prioritize`."""
    guard = 0
    while True:
        head_divisor = self.mmi(queue[0].coords)
        moved = False
        for idx in range(1, len(queue)):
            cand = self.mmi(queue[idx].coords)
            if cand != head_divisor and cand.le(head_divisor):
                queue.insert(0, queue.pop(idx))
                moved = True
                break
        if not moved:
            return
        guard += 1
        if guard > len(queue) + 10_000:
            raise AssertionError("queue prioritization cycled")


@pytest.mark.parametrize("which", ["m-primary", "affine"])
@pytest.mark.parametrize("box", [("1", "3"), ("2", "6"), ("3/4", "5/2")])
@pytest.mark.parametrize("max_points", [None, 7, 30])
def test_prioritize_matches_the_rescanning_oracle(
    engine, affine_engine, monkeypatch, which, box, max_points
):
    eng = _engines(engine, affine_engine)[which]
    fast = eng.enumerate_constancy_regions(box, max_points=max_points)
    monkeypatch.setattr(RegionEngine, "_prioritize", _prioritize_by_rescanning)
    slow = eng.enumerate_constancy_regions(box, max_points=max_points)
    # the report holds every record, the representatives and the queue
    assert enumeration_json(fast, "enumerate") == enumeration_json(slow, "enumerate")


# -- integer geometry against the Fraction oracles -------------------------------


def _value_at(ineq, point):
    """a . z for the wall's normal a, on Fractions."""
    return sum(a * z for a, z in zip(ineq.coeffs, point))


def _extent(region, axis):
    """sup of z_axis over the region closure, None when unbounded."""
    best = None
    for ineq in region.inequalities:
        a = ineq.coeffs[axis]
        if a > 0:
            bound = ineq.constant / a
            if best is None or bound < best:
                best = bound
    return best


def _constant_for(region, component):
    """The constant of the region's wall on `component`, None without one."""
    return next((q.constant for q in region.inequalities if q.component == component), None)


def _contains_fractions(region, point):
    """Strict membership as first written, on Fractions.  Oracle for the
    integer `RegionPolytope.contains`."""
    if any(z < 0 for z in point):
        return False
    return all(_value_at(q, point) < q.constant for q in region.inequalities)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.tuples(coords, coords),
    st.sampled_from(["m-primary", "affine", "fractional-k"]),
    st.sampled_from(["free", "wall", "axis", "negative"]),
    st.tuples(coords, coords),
    st.data(),
)
def test_contains_matches_the_fraction_oracle(
    engine, affine_engine, fractional_engine, lam, which, kind, xy, data
):
    eng = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which]
    region = eng.region_of(lam)
    x, y = xy
    probe = xy
    if kind == "wall":
        # a point of the orthant exactly on one of the walls
        wall = data.draw(st.sampled_from(region.inequalities))
        (a1, a2), c = wall.coeffs, wall.constant
        s = x / 3
        if a1 and a2:
            probe = (s * c / a1, (1 - s) * c / a2)
        elif a1:
            probe = (c / a1, y)
        elif a2:
            probe = (x, c / a2)
        assert _value_at(wall, probe) == c or not (a1 or a2)
    elif kind == "axis":
        probe = data.draw(st.sampled_from([(x, Fraction(0)), (Fraction(0), y)]))
    elif kind == "negative":
        probe = data.draw(st.sampled_from([(-x - Fraction(1, 9), y), (x, -y - Fraction(1, 9))]))
    assert region.contains(probe) == _contains_fractions(region, probe)


def _clip_parameter_fractions(constraints, p0, direction, lo, hi):
    """The line clipper as first written, on Fractions: intersect the line
    p0 + t * direction with half-planes (a1, a2, b) meaning a . z <= b.
    Oracle for the integer `_clip_parameter`."""
    for a1, a2, b in constraints:
        alpha = a1 * direction[0] + a2 * direction[1]
        beta = b - (a1 * p0[0] + a2 * p0[1])
        if alpha == 0:
            if beta < 0:
                return None
            continue
        bound = beta / alpha
        if alpha > 0:
            if hi is None or bound < hi:
                hi = bound
        else:
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _clip_parameter(halfplanes, line, lo, hi):
    """Clip the segment lo <= T <= hi of a wall line by half-planes (b1, b2,
    D) meaning b . z <= D / L; returns (lo, hi), or None if nothing is left.

    `line` = (a1, a2, C, m) is the wall a . z = C / L (a > 0) as z(T) =
    (m C + T a2, -T a1) / (L a1 m), meeting the z1-axis at T = 0 and the
    z2-axis at T = -m C / a2.  A half-plane reads (b1 a2 - b2 a1) T <=
    m (D a1 - b1 C), and m is a multiple of a1, a2 and every b1 a2 - b2 a1,
    so every bound on T is an integer.  The plane clipper the walk first
    ran: oracle for `regions._clip_row` and for the box bounds of
    `RegionEngine._facets_r2`.
    """
    a1, a2, c, m = line
    for b1, b2, d in halfplanes:
        alpha = b1 * a2 - b2 * a1
        beta = d * a1 - b1 * c
        if alpha == 0:
            if beta < 0:
                return None
            continue
        bound = beta * (m // alpha)
        if alpha > 0:
            if bound < hi:
                hi = bound
        elif bound > lo:
            lo = bound
    return (lo, hi) if lo <= hi else None


def _halfplanes(region) -> list[tuple]:
    """A region's walls as rows (a1, a2, C) meaning a . z <= C / L, in the
    order of its inequalities: `_clip_parameter`'s half-planes."""
    return [(*ineq.coeffs, ineq.numerator) for ineq in region.inequalities]


def _fraction_halfplanes(region):
    return [(-1, 0, Fraction(0)), (0, -1, Fraction(0))] + [
        (*ineq.coeffs, ineq.constant) for ineq in region.inequalities
    ]


def _subtract_intervals_fractions(lo, hi, cuts):
    """Interval subtraction as first written: trim the cuts to [lo, hi],
    merge them, then sweep.  Oracle for `regions._subtract_intervals`."""
    trimmed = []
    for u0, u1 in cuts:
        u0 = max(u0, lo)
        u1 = min(u1, hi)
        if u0 <= u1:
            trimmed.append((u0, u1))
    trimmed.sort()
    merged = []
    for u0, u1 in trimmed:
        if merged and u0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], u1)
        else:
            merged.append([u0, u1])
    pieces = []
    cursor = lo
    for u0, u1 in merged:
        if u0 > cursor:
            pieces.append((cursor, u0))
        cursor = max(cursor, u1)
    if hi > cursor:
        pieces.append((cursor, hi))
    return pieces


@st.composite
def _cut_sets(draw):
    """lo < hi and cuts inside [lo, hi]; the narrow range makes overlapping,
    touching, nested and zero-length cuts common."""
    lo = draw(st.integers(-20, 20))
    hi = lo + draw(st.integers(1, 24))
    inside = st.integers(lo, hi)
    cuts = draw(st.lists(st.tuples(inside, inside).map(sorted).map(tuple), max_size=8))
    return lo, hi, cuts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_cut_sets())
@example((0, 10, [(2, 4), (4, 6)]))  # touching
@example((0, 10, [(2, 6), (3, 8)]))  # overlapping
@example((0, 10, [(1, 9), (3, 4)]))  # nested
@example((0, 10, [(5, 5), (0, 0), (10, 10)]))  # zero-length, at both ends too
@example((0, 10, [(0, 10)]))  # nothing left
def test_subtract_intervals_matches_the_trim_and_merge_oracle(case):
    lo, hi, cuts = case
    assert _subtract_intervals(lo, hi, cuts) == _subtract_intervals_fractions(lo, hi, cuts)


def test_drawing_a_walk_clips_no_wall(engine, monkeypatch):
    # each wall is clipped once per region, in the walk; the SVG outline
    # reads the region's edges
    calls = []
    clip = mmideals.regions._clip_row

    def counted(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(mmideals.regions, "_clip_row", counted)
    result = engine.enumerate_constancy_regions(("2", "6"))
    walked = len(calls)
    picture = render_walls(result)
    assert walked > 0 and len(calls) == walked
    assert picture.count("<path ") == sum(rec.region.bounded for rec in result.records) > 0


def _facets_r2_fractions(self, region, priors, box):
    """The facet clipper as first written, on Fraction half-planes and
    parameters.  Oracle for the integer `RegionEngine._facets_r2`."""
    box_pt = _key_point(box)
    box_planes = [(1, 0, box_pt[0]), (0, 1, box_pt[1])]
    facets, seeds = [], []
    for ineq in region.inequalities:
        a1, a2 = ineq.coeffs
        c = ineq.constant
        if a1 == 0 and a2 == 0:
            continue
        p0 = (Fraction(c, a1), Fraction(0)) if a1 != 0 else (Fraction(0), Fraction(c, a2))
        direction = (a2, -a1)
        span = _clip_parameter_fractions(_fraction_halfplanes(region), p0, direction, None, None)
        if span is None:
            continue
        lo, hi = span
        if lo is None or hi is None:
            raise GeometryDegeneracy(f"unbounded wall segment at {ineq.component}")
        if lo == hi:
            continue
        cuts = []
        for prior in priors:
            prior_c = _constant_for(prior, ineq.component)
            if prior_c is not None and prior_c < c:
                continue
            cut = _clip_parameter_fractions(_fraction_halfplanes(prior), p0, direction, lo, hi)
            if cut is not None:
                u0, u1 = cut
                cuts.append((lo if u0 is None else u0, hi if u1 is None else u1))
        at = lambda t: (p0[0] + t * direction[0], p0[1] + t * direction[1])
        for t0, t1 in _subtract_intervals_fractions(lo, hi, cuts):
            ends = (at(t0), at(t1), at((t0 + t1) / 2))
            facets.append(CFacet(ineq, tuple(map(_fraction_key, ends))))
            boxed = _clip_parameter_fractions(box_planes, p0, direction, t0, t1)
            if boxed is None:
                continue
            b0, b1 = boxed
            if b0 < b1:
                seeds.append(at((b0 + b1) / 2))
            elif b0 == b1:
                seeds.append(at(b0))
    if region.inequalities and not facets:
        raise GeometryDegeneracy("a fresh region produced no outer facet")
    return tuple(facets), seeds


def _facets_r1_fractions(self, region, priors, box):
    """The single-ideal facet finder as first written, from the Fraction
    extents.  Oracle for the integer `RegionEngine._facets_r1`."""
    box_pt = _key_point(box)
    best = None
    for ineq in region.inequalities:
        a = ineq.coeffs[0]
        if a > 0:
            bound = ineq.constant / a
            if best is None or bound < best[0]:
                best = (bound, ineq)
    if best is None:
        return (), []
    m, ineq = best
    for prior in priors:
        ext = _extent(prior, 0)
        if ext is not None and m <= ext:
            return (), []
    point = (m,)
    key = _fraction_key(point)
    facet = CFacet(ineq, (key, key, key))
    seeds = [point] if m <= box_pt[0] else []
    return (facet,), seeds


def _fraction_key(point):
    """The walk's point key (n_1, .., n_r, den) of a Fraction point:
    numerators over the lcm of the denominators."""
    den = math.lcm(*(z.denominator for z in point))
    return (*(z.numerator * (den // z.denominator) for z in point), den)


def _prior_regions(priors) -> list:
    """The regions of a walk's prior index: one row per wall, each holding
    (C, region) for every prior region, so row 0 holds them all."""
    return [region for _, region in priors[0]] if priors else []


def _keyed_seeds(facets_fractions):
    """An oracle facet finder that reads the prior regions from the walk's
    prior index and whose Fraction seeds come out as the walk's point keys."""

    def facets(self, region, priors, box):
        found, seeds = facets_fractions(self, region, _prior_regions(priors), box)
        return found, list(map(_fraction_key, seeds))

    return facets


def _truncated_fractions(self, region, box):
    """Truncation as first written, from the Fraction extents."""
    for axis, limit in enumerate(_key_point(box)):
        ext = _extent(region, axis)
        if ext is None or ext > limit:
            return True
    return False


def _region_vertices_fractions(region):
    """The vertices of a region closure as first written, with 2x2 Fraction
    solves of every pair of walls; None when the region is unbounded."""
    ineqs = region.inequalities
    if not ineqs:
        return None
    x_max = _extent(region, 0)
    y_max = _extent(region, 1)
    if x_max is None or y_max is None:
        return None
    candidates = {(Fraction(0), Fraction(0)), (x_max, Fraction(0)), (Fraction(0), y_max)}
    for i in range(len(ineqs)):
        a1, b1 = ineqs[i].coeffs
        c1 = ineqs[i].constant
        for j in range(i + 1, len(ineqs)):
            a2, b2 = ineqs[j].coeffs
            c2 = ineqs[j].constant
            det = Fraction(a1) * b2 - Fraction(a2) * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (Fraction(a1) * c2 - Fraction(a2) * c1) / det
            if x < 0 or y < 0:
                continue
            if all(_value_at(q, (x, y)) <= q.constant for q in ineqs):
                candidates.add((x, y))
    feasible = [p for p in candidates if all(_value_at(q, p) <= q.constant for q in ineqs)]
    outer = sorted((p for p in feasible if p != (0, 0)), key=lambda p: (p[0], -p[1]))
    return [(Fraction(0), Fraction(0))] + outer


def _region_outline_fractions(region, m):
    """The SVG region outline as first written, from the Fraction vertices.
    Oracle for `svg._region_outline`."""
    points = _region_vertices_fractions(region)
    if points is None:
        return None
    path = "M " + " L ".join("%.2f %.2f" % (m.x(px), m.y(py)) for px, py in points) + " Z"
    return f'<path d="{path}" fill="url(#hatch)" fill-opacity="0.35" stroke="none"/>'


def _wall_line(coeffs: tuple[int, int], numerator: int, planes) -> tuple[int, ...]:
    """The line of a wall, as _clip_parameter takes it, for half-planes
    with the normals (b1, b2) of `planes`: its m computed per region, as the
    walk first did.  Oracle for the rows of `regions._wall_table`."""
    a1, a2 = coeffs
    m = math.lcm(a1, a2, *(alpha for b1, b2, *_ in planes if (alpha := b1 * a2 - b2 * a1)))
    return a1, a2, numerator, m


def _edges_by_planes(region) -> list[tuple]:
    """A two-ideal region's edges as the walk first clipped them: each wall's
    line from `_wall_line`, clipped by `_clip_parameter` over `_halfplanes`.
    Oracle for `RegionPolytope.edges` on the wall table."""
    planes = _halfplanes(region)
    edges = []
    for row, wall in enumerate(region.inequalities):
        line = _wall_line(wall.coeffs, wall.numerator, planes)
        _, a2, c, m = line
        span = _clip_parameter(planes, line, -(m // a2) * c, 0)
        if span is not None and span[0] < span[1]:
            edges.append((row, wall, line, *span))
    return edges


# wall normals are positive (every ideal divisor is >= 1 on every exceptional
# component), so a wall line is drawn with a1, a2 >= 1
positive_walls = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(-300, 300))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    wall=positive_walls,
    planes=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-300, 300)), max_size=6),
    bounds=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    scale=st.sampled_from([1, 2, 7, 60]),
)
def test_integer_clip_matches_the_fraction_oracle(wall, planes, bounds, scale):
    a1, a2, c = wall
    line = _wall_line((a1, a2), c, [plane[:2] for plane in planes])
    unit = scale * a1 * line[3]  # the line parameter t is T / unit
    as_t = lambda T: Fraction(T, unit)
    got = _clip_parameter(planes, line, *bounds)
    p0 = (Fraction(c, scale * a1), Fraction(0))
    fraction_planes = [(b1, b2, Fraction(d, scale)) for b1, b2, d in planes]
    want = _clip_parameter_fractions(fraction_planes, p0, (a2, -a1), *map(as_t, bounds))
    assert (got if got is None else tuple(map(as_t, got))) == want
    for t in got or ():  # a bound is a point of the wall line
        x, y = _key_point(_line_key(line, scale, t))
        assert a1 * x + a2 * y == Fraction(c, scale)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    normals=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=5),
    data=st.data(),
)
def test_wall_table_rows_clip_as_the_plane_clip(normals, data):
    # small positive normals, so parallel walls (alpha = 0) are common
    constants = data.draw(st.lists(st.integers(1, 60), min_size=len(normals), max_size=len(normals)))
    planes = [(*normal, c) for normal, c in zip(normals, constants)]
    table = _wall_table(normals)
    for row, (normal, c) in zip(table, zip(normals, constants)):
        line = _wall_line(normal, c, planes)
        assert row[:3] == (*normal, line[3])
        lo = data.draw(st.integers(-(10**4), 0))
        hi = data.draw(st.integers(lo, 10**4))
        assert _clip_row(row, c, constants, lo, hi) == _clip_parameter(planes, line, lo, hi)
    # the box bounds of `_facets_r2` on a piece of the last row's line, with
    # no prior, against the plane clip of the line lifted by the box's q
    scale = data.draw(st.sampled_from([1, 2, 7, 60]))
    q, x, y = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    kind = data.draw(st.sampled_from(["cross", "miss", "touch"]))
    if kind == "touch":  # then q T reaches both box bounds at integer T
        x, y = x * q, y * q
    box_planes, lifted = [(q, 0, x * scale), (0, q, y * scale)], (*line[:3], line[3] * q)
    reach = _clip_parameter(box_planes, lifted, -math.inf, math.inf)
    width = data.draw(st.integers(1, 50))
    if kind == "miss" and reach is not None:
        b0, b1 = reach
        lo = data.draw(st.sampled_from([(b0 - 1) // q - width, b1 // q + 1]))
    elif kind == "touch" and reach is not None:
        lo = data.draw(st.sampled_from([reach[0] // q - width, reach[1] // q]))
    else:
        lo = data.draw(st.integers(-(10**4), 10**4))
    hi = lo + width
    boxed = _clip_parameter(box_planes, lifted, lo * q, hi * q)
    if kind != "cross":
        assert boxed is None if kind == "miss" or reach is None else boxed[0] == boxed[1]
    want = []
    if boxed is not None:
        b0, b1 = boxed
        want = [_line_key(lifted, scale, b0 + b1, 2) if b0 < b1 else _line_key(lifted, scale, b0)]
    engine = SimpleNamespace(scale=scale, _table=table)
    region = SimpleNamespace(edges=[(len(table) - 1, None, line, lo, hi)], inequalities=[None])
    assert RegionEngine._facets_r2(engine, region, [[] for _ in table], (x, y, q))[1] == want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    wall=positive_walls,
    normals=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=6),
    lift=st.integers(1, 12),
    scale=st.sampled_from([1, 2, 7, 60]),
    t=st.integers(-10**6, 10**6),
    k=st.sampled_from([1, 2]),
)
def test_line_key_is_the_reduced_line_point(wall, normals, lift, scale, t, k):
    # a seed key is the point's numerators over the lcm of its denominators
    a1, a2, c = wall
    line = _wall_line((a1, a2), c, normals)
    line = (*line[:3], line[3] * lift)  # as the walk lifts a line to the box
    x, y, den = _line_key(line, scale, t, k)
    # the point of parameter t / k: z2 = -t / (k L m), and a . z = C / L
    z2 = Fraction(-t, k * scale * line[3])
    want = ((Fraction(c, scale) - a2 * z2) / a1, z2)
    assert math.gcd(x, y, den) == 1
    assert den == math.lcm(*(z.denominator for z in want))
    assert _key_point((x, y, den)) == want


# numerators and denominators small enough to share factors often, and large
# ones; a key need not be reduced per coordinate, as (2, 3, 4) is not
key_numerators = st.one_of(st.integers(-60, 60), st.integers(-(10**30), 10**30))
key_denominators = st.one_of(st.integers(1, 60), st.integers(1, 10**30))
point_keys = st.builds(lambda nums, den: (*nums, den), st.lists(key_numerators, min_size=1, max_size=2), key_denominators)


@settings(max_examples=400, deadline=None, derandomize=True)
@example([(2, 3, 4)] * 3)
@example([(0, 6, 3), (6, 0, 3), (3, 3, 6)])
@given(st.lists(point_keys, min_size=3, max_size=3))
def test_a_key_writes_and_draws_as_its_fractions(keys):
    # the report writes a key's text and the SVG its floats with no Fraction
    # made, and a facet built from keys shows the Fraction points it always did
    for key in keys:
        *nums, den = key
        point = tuple(Fraction(n, den) for n in nums)
        assert point == _key_point(key)
        assert key_json(key) == [str(z) for z in point]
        assert [n / den for n in nums] == [float(z) for z in point]
    facet = CFacet(WallInequality("E1", (1, 1), 1, 1), tuple(keys))
    assert (facet.start, facet.end, facet.midpoint) == tuple(map(_key_point, keys))
    assert all(type(z) is Fraction for z in facet.start + facet.end + facet.midpoint)


def test_one_context_per_point_however_written(ideals):
    eng = RegionEngine(ideals)
    context = eng.at(("1/2", "1"))
    assert eng.at(("2/4", "1")) is context
    assert eng.at((Fraction(1, 2), 1)) is context
    assert context.coords == (Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("box", [("2", "6"), ("3/4", "5/2")])
def test_walked_points_need_no_closure_again(ideals, monkeypatch, box):
    # the walk caches a seed under its key, and at(rep) finds it there
    eng = RegionEngine(ideals)
    result = eng.enumerate_constancy_regions(box)
    reps = result.representatives
    assert reps and all(type(n) is int for rep in reps for n in rep)
    points = list(map(_key_point, reps))
    calls = count_closures(monkeypatch)
    assert [eng.at(p).coords for p in points] == points
    assert [eng.at(tuple(map(str, p))).coords for p in points] == points
    assert calls == []


@contextlib.contextmanager
def _fractions_made():
    """The arguments of every Fraction constructed inside the block."""
    made = []
    original = vars(Fraction)["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield made
    finally:
        Fraction.__new__ = original


@pytest.mark.parametrize("path,box", [("example_two_ideals.json", (2, 6)), ("fractional_k.json", (3, 3))])
def test_a_walk_and_its_reports_make_no_fraction(path, box):
    # every point and wall constant is an integer key from seed to report
    eng = RegionEngine(load_input(DATA / path)[1])
    box = tuple(map(Fraction, box))
    with _fractions_made() as made:
        result = eng.enumerate_constancy_regions(box)
        reports = enumeration_json(result, "enumerate"), _enumeration_text(result), render_walls(result)
    assert len(result.records) > 50 and all(reports)
    assert made == []


def test_fractional_k_input(fractional_engine):
    eng = fractional_engine
    assert [str(k) for k in eng.canonical[: eng.graph.n_exc]] == ["-2/7", "-4/7", "-1/7", "-2/7", "-3/7"]
    assert eng.scale == 7
    assert len(eng.enumerate_constancy_regions(("1", "3")).records) == 22
    assert len(eng.enumerate_constancy_regions(("3", "3")).records) == 62


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.tuples(coords, coords), st.sampled_from(["m-primary", "affine", "fractional-k"]))
def test_integer_floor_matches_the_value_rows(engine, affine_engine, fractional_engine, lam, which):
    eng = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which]
    context = eng.at(lam)
    assert list(context.floor.coeffs) == [math.floor(q) for _, q in value_rows(context)]


@pytest.fixture(scope="module")
def single_engines(example_raw):
    """One engine per ideal of the example and of `fractional_k.json`."""
    engines = {}
    for name, raw in [("example", example_raw), ("fractional-k", json.loads((DATA / "fractional_k.json").read_text()))]:
        graph = validate_graph(raw)
        for ideal in raw["ideals"]:
            engines[f"{name}-{ideal['name']}"] = RegionEngine(build_ideals(graph, [ideal]))
    return engines


ORACLE_CASES = [
    pytest.param(which, box, id=f"box{i}-{which}")
    for i, box in enumerate([("1", "3"), ("3", "3"), ("3/4", "5/2")])
    for which in ["affine", "fractional-k", "m-primary"]
] + [
    pytest.param(which, (box,), id=f"{which}-box{i}")
    for which in ["example-a1", "example-a2", "fractional-k-a1", "fractional-k-a2"]
    for i, box in enumerate(["1/3", "3/2", "3", "10"])
]


@pytest.mark.parametrize("which,box", ORACLE_CASES)
def test_integer_geometry_matches_the_fraction_oracle(
    engine, affine_engine, fractional_engine, single_engines, monkeypatch, which, box
):
    engines = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine}, **single_engines)
    eng = engines[which]
    fast = eng.enumerate_constancy_regions(box)
    fast_report, fast_svg = enumeration_json(fast, "enumerate"), render_walls(fast)
    monkeypatch.setattr(RegionEngine, "_facets_r1", _keyed_seeds(_facets_r1_fractions))
    monkeypatch.setattr(RegionEngine, "_facets_r2", _keyed_seeds(_facets_r2_fractions))
    monkeypatch.setattr(RegionEngine, "_truncated", _truncated_fractions)
    monkeypatch.setattr(svg, "_region_outline", _region_outline_fractions)
    slow = eng.enumerate_constancy_regions(box)
    assert fast_report == enumeration_json(slow, "enumerate")
    assert fast_svg == render_walls(slow)


def test_a_context_outlives_its_engine(ideals):
    # contexts keep what they use, not the engine, so a temporary engine
    # still answers through the context it returned
    context = RegionEngine(ideals).at(point(("1/6", "1")))
    assert context.gmin.components == GOLDEN["gmin"][("1/6", "1")]
    assert exc(context.left) == (0, 0, 0, 0, 0)


TWO_IDEAL_CASES = [case for case in ORACLE_CASES if len(case.values[1]) == 2]
SINGLE_IDEAL_CASES = [case for case in ORACLE_CASES if len(case.values[1]) == 1]


@pytest.mark.parametrize("which,box", TWO_IDEAL_CASES)
def test_region_vertices_match_the_fraction_oracle(engine, affine_engine, fractional_engine, which, box):
    # exact vertices: the SVG comparison above only sees them rounded to pixels
    eng = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which]
    for rec in eng.enumerate_constancy_regions(box).records:
        vertices = rec.region.vertices()
        assert vertices == _region_vertices_fractions(rec.region)
        assert all(type(z) is Fraction for p in vertices for z in p)


CERTIFICATE_CASES = [
    pytest.param(
        *case.values,
        id=case.id,
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: walls of a non-m-primary tuple miss the crossed and affine components",
        ),
    )
    if case.values[0] == "affine"
    else case
    for case in TWO_IDEAL_CASES
]


@pytest.mark.parametrize("which,box", CERTIFICATE_CASES)
def test_every_region_certifies_its_wall_set(engine, affine_engine, fractional_engine, which, box):
    # The region theorem: on the open region of the record with divisor e,
    # lam . F_j - k_j < e_j + 1 for every component j, affine ones included.
    # Each bound is linear and the region convex, so it holds there exactly
    # when it holds with <= at every vertex (x, y) / den of the closure; in
    # integers, L (x a_1j + y a_2j) - den L k_j <= den L (e_j + 1).
    eng = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which]
    assert _uncertified(eng.enumerate_constancy_regions(box), eng) == set()


def _uncertified(result, eng) -> set[int]:
    """The records of a walk with a closure vertex where some component's
    bound fails (see test_every_region_certifies_its_wall_set)."""
    scale = eng.scale
    return {
        rec.index
        for rec in result.records
        for x, y, den in rec.region.vertex_keys()
        for ((a1, a2), scaled_k), e in zip(eng._columns, rec.divisor.coeffs)
        if scale * (x * a1 + y * a2) - den * scaled_k > den * scale * (e + 1)
    }


COVERAGE_CASES = [
    pytest.param("m-primary", ("1", "3"), id="m-primary-1,3"),
    pytest.param("m-primary", ("2", "6"), id="m-primary-2,6"),
    pytest.param("fractional-k", ("1", "1"), id="fractional-k-1,1"),
    pytest.param(
        "affine",
        ("1", "3"),
        id="affine-1,3",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1: walls of a non-m-primary tuple miss the crossed and affine components",
        ),
    ),
]


@pytest.mark.parametrize("which,box", COVERAGE_CASES)
def test_walk_coverage_against_closures(engine, affine_engine, fractional_engine, which, box):
    # Each check compares the walk with closures, which the wall set does not
    # decide.  Coverage: at each point of a grid of denominator 12 per box
    # side, the first record in discovery order whose region holds it
    # carries the divisor of that point.  Facet side: a facet midpoint in the
    # box lies on its record's wall and outside every earlier closure, so
    # just before it along its ray the ideal is the record's.  A clipper that
    # keeps a piece an earlier closure covers moves facet ends, not records,
    # and only the second check sees it.
    eng = dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which]
    records = eng.enumerate_constancy_regions(box).records
    width, height = map(Fraction, box)
    for i in range(13):
        for j in range(13):
            p = (width * i / 12, height * j / 12)
            first = next(rec for rec in records if rec.region.contains(p))
            assert first.divisor == eng.at(p).divisor, (p, first.index)
    for rec in records:
        for facet in rec.cfacets:
            mid = facet.midpoint
            if mid[0] <= width and mid[1] <= height:
                assert eng.at(mid).left == rec.divisor, (rec.index, facet)


def _random_m_primary_pair(tree, data) -> RegionEngine:
    """Two ideals on a random tree of at most 10 components, made definite
    where it is not by lowering each E_i^2 to at most -(degree + 1); each
    the antinef closure of a random nonzero 0..3 vector, so m-primary."""
    selfs, edges = tree
    graph = _definite_graph(selfs, edges)
    start = st.lists(st.integers(0, 3), min_size=len(selfs), max_size=len(selfs)).filter(any)
    divisors = [antinef_closure(Divisor(graph, data.draw(start))) for _ in range(2)]
    return RegionEngine(IdealDivisorSet(graph, ("a1", "a2"), divisors))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(random_trees(max_size=10), st.data())
def test_every_region_of_a_random_m_primary_pair_certifies_its_wall_set(tree, data):
    eng = _random_m_primary_pair(tree, data)
    assert eng.ideals.is_m_primary()
    assert _uncertified(eng.enumerate_constancy_regions((1, 1), max_points=300), eng) == set()


def _facets_r2_all_priors(self, region, priors, box):
    """The integer facet clipper with no prior index and no wall table: it
    clips the edges of `_edges_by_planes`, scans every prior region and skips
    those whose copy of the wall has a smaller constant.  Oracle for the
    indexed scan of `RegionEngine._facets_r2`."""
    scale = self.scale
    x, y, q = box
    box_planes = [(q, 0, x * scale), (0, q, y * scale)]
    prior_planes = [_halfplanes(prior) for prior in _prior_regions(priors)]
    facets, seeds = [], []
    for row, ineq, line, lo, hi in _edges_by_planes(region):
        lifted = (*line[:3], line[3] * q)
        cuts = []
        for planes in prior_planes:
            if planes[row][2] < ineq.numerator:
                continue  # prior closure cannot reach this wall line
            cut = _clip_parameter(planes, line, lo, hi)
            if cut is not None:
                cuts.append(cut)
        for t0, t1 in _subtract_intervals(lo, hi, cuts):
            keys = (_line_key(line, scale, t0), _line_key(line, scale, t1), _line_key(line, scale, t0 + t1, 2))
            facets.append(CFacet(ineq, keys))
            boxed = _clip_parameter(box_planes, lifted, t0 * q, t1 * q)
            if boxed is None:
                continue
            b0, b1 = boxed
            if b0 < b1:
                seeds.append(_line_key(lifted, scale, b0 + b1, 2))
            elif b0 == b1:
                seeds.append(_line_key(lifted, scale, b0))
    return tuple(facets), seeds


def _checked_against_all_priors(eng: RegionEngine) -> list:
    """Make `eng` clip each fresh region both ways and require the same facets
    and seeds; returns the list of the regions it checks."""
    indexed, checked = eng._facets_r2, []

    def facets_r2(region, priors, box):
        got, want = indexed(region, priors, box), _facets_r2_all_priors(eng, region, priors, box)
        assert [(f.wall, f.keys) for f in got[0]] == [(f.wall, f.keys) for f in want[0]]
        assert got[1] == want[1]
        checked.append(region)
        return got

    eng._facets_r2 = facets_r2
    return checked


@pytest.mark.parametrize("which,box", TWO_IDEAL_CASES)
def test_prior_index_clips_as_the_all_priors_scan(engine, affine_engine, fractional_engine, which, box):
    eng = RegionEngine(dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which].ideals)
    checked = _checked_against_all_priors(eng)
    eng.enumerate_constancy_regions(box)
    assert len(checked) > 5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_trees(max_size=10), st.data())
def test_prior_index_clips_as_the_all_priors_scan_on_a_random_m_primary_pair(tree, data):
    eng = _random_m_primary_pair(tree, data)
    _checked_against_all_priors(eng)
    eng.enumerate_constancy_regions((1, 1), max_points=300)


def _assert_edges_and_labels_by_planes(result):
    """Every record's edges, clipped on the engine's wall table, are those of
    `_edges_by_planes`, and `render_walls` labels each facet with its own
    wall's equation, however it shares the label text between facets."""
    for rec in result.records:
        assert rec.region.edges == _edges_by_planes(rec.region), rec.index
    labels = re.findall(r'<text [^>]*fill="#1a3d6d">([^<]*)</text>', render_walls(result))
    assert labels == [svg._equation_label(f.wall) for rec in result.records for f in rec.cfacets]


def _doubled_engine(example_raw) -> RegionEngine:
    """The example's F1 + F2 taken twice: every wall is parallel to every
    other, so each region keeps one edge and the others fall to the
    alpha = 0 test of the clip."""
    ideals = example_raw["ideals"]
    mult = {cid: sum(ideal["mult"].get(cid, 0) for ideal in ideals) for cid in ideals[0]["mult"]}
    doubled = [{"name": name, "mult": mult} for name in ("a1", "a2")]
    return RegionEngine(build_ideals(validate_graph(example_raw), doubled))


EDGE_CASES = TWO_IDEAL_CASES + [
    pytest.param("doubled", ("1", "1"), id="doubled"),
    pytest.param("tree3", ("1/64", "1/32"), id="tree3"),
]


@pytest.mark.parametrize("which,box", EDGE_CASES)
def test_edges_on_the_wall_table_are_the_plane_clip(engine, affine_engine, fractional_engine, example_raw, which, box):
    if which == "doubled":
        eng = _doubled_engine(example_raw)
        assert len({tuple(q.coeffs) for q in eng.region_of((0, 0)).inequalities}) == 2  # two parallel walls
    elif which == "tree3":
        eng = RegionEngine(load_input(DATA / "tree3.json")[1])
    else:
        eng = RegionEngine(dict(_engines(engine, affine_engine), **{"fractional-k": fractional_engine})[which].ideals)
    _assert_edges_and_labels_by_planes(eng.enumerate_constancy_regions(box))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_trees(max_size=10), st.data())
def test_edges_on_the_wall_table_are_the_plane_clip_on_a_random_m_primary_pair(tree, data):
    _assert_edges_and_labels_by_planes(_random_m_primary_pair(tree, data).enumerate_constancy_regions((1, 1), max_points=300))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_trees(max_size=10), st.data())
def test_report_of_a_random_m_primary_pair_is_its_payload_written_by_dump_json(tree, data):
    result = _random_m_primary_pair(tree, data).enumerate_constancy_regions((1, 1), max_points=300)
    assert_report_matches_its_payload(result)


@pytest.mark.parametrize("which,box", SINGLE_IDEAL_CASES)
def test_single_ideal_facet_points_strictly_increase(single_engines, which, box):
    # Each region strictly contains its representative, the previous wall
    # point, so no earlier closure [0, extent] reaches a fresh region's wall
    # point: that is why the one-ideal facet finder does not scan the priors.
    records = single_engines[which].enumerate_constancy_regions(box).records
    for i, rec in enumerate(records):
        for facet in rec.cfacets:
            assert _key_point(rec.representative)[0] < facet.midpoint[0]
            assert all(_extent(prior.region, 0) < facet.midpoint[0] for prior in records[:i])
    points = [facet.midpoint[0] for rec in records for facet in rec.cfacets]
    assert points and points == sorted(set(points))


def test_halfplanes_have_one_row_per_wall(engine, single_engines):
    # E2 and E5 at the origin: normals (6, 2) and (21, 6), L * (k + 1) = 3, 10
    assert _halfplanes(engine.region_of((0, 0))) == [(6, 2, 3), (21, 6, 10)]
    region = single_engines["example-a2"].region_of((0,))
    assert _halfplanes(region) == [(2, 3)]  # F2 alone is dicritical at E2 only
    with pytest.raises(UnsupportedGeometry):
        region.vertices()


def test_vertices_of_a_hand_built_region(engine):
    walls = (
        WallInequality("E1", (2, 1), 3, 7),
        WallInequality("E2", (1, 1), 7, 7),
        WallInequality("E3", (1, 2), 5, 7),
    )
    # a stand-in engine: the region reads only its wall table
    stand_in = SimpleNamespace(_table=_wall_table([wall.coeffs for wall in walls]))
    region = RegionPolytope((0, 0, 1), engine.mmi((0, 0)), walls, 7, stand_in)
    # E2 (z1 + z2 < 1) misses the closure, so it gives no edge
    assert [wall.component for _, wall, *_ in region.edges] == ["E1", "E3"]
    want = [(0, 0), (0, Fraction(5, 14)), (Fraction(1, 21), Fraction(1, 3)), (Fraction(3, 14), 0)]
    assert region.vertices() == _region_vertices_fractions(region) == want
