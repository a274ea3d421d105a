"""Constancy regions: wall polytopes, the region walk, facets, and chains."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmideals import RegionEngine, next_jumping_number
from mmideals.divisors import Divisor
from mmideals.graph import validate_graph
from mmideals.io import build_ideals, enumeration_json
from mmideals.errors import (
    DanglingReference,
    DimensionMismatch,
    PreconditionViolated,
    UnsupportedGeometry,
    ZeroDivisor,
)

from conftest import GOLDEN, exc, point


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
    assert region.extent(0) == Fraction(10, 21)  # min(3/6, 10/21)
    assert region.extent(1) == Fraction(3, 2)  # min(3/2, 10/6)
    assert region.bounded


def test_region_constant_lookup(engine):
    region = engine.region_of((0, 0))
    assert region.constant_for("E5") == 10
    assert region.constant_for("E1") is None


# -- membership ---------------------------------------------------------------


def test_membership_goldens(engine):
    member = engine.membership
    assert member(("1/12", "1/2"), ("0", "0"))
    assert not member(("1/6", "1"), ("0", "0"))  # on the wall
    assert not member(("1/6", "3/2"), ("1/6", "1"))
    assert member(("17/42", "1/4"), ("1/6", "1"))  # same region
    assert not member(("13/21", "1"), ("1/2", "1"))


def test_membership_is_reflexive(engine):
    for lam in GOLDEN["mmi"]:
        assert engine.membership(point(lam), point(lam))


coords = st.fractions(min_value=0, max_value=3, max_denominator=9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.tuples(coords, coords), st.tuples(coords, coords))
def test_membership_agrees_with_polytope(engine, lam, probe):
    # m-primary input, so the wall polytope is exactly the inclusion region
    assert engine.membership(probe, lam) == engine.region_of(lam).contains(probe)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(coords, coords))
def test_membership_means_containment(engine, lam):
    # lam' in the region of lam  <=>  divisor at lam' <= divisor at lam... the
    # forward half: every member keeps the divisor below
    region_divisor = engine.mmi(("1/6", "1"))
    if engine.membership(lam, ("1/6", "1")):
        assert engine.mmi(lam).le(region_divisor)


# -- the golden walk ----------------------------------------------------------


def test_walk_representative_order(golden_run):
    got = tuple(tuple(str(c) for c in p) for p in golden_run.representatives)
    assert got == GOLDEN["walk_order"]


def test_walk_queue_after_nine(golden_run):
    got = tuple(tuple(str(c) for c in p) for p in golden_run.queue)
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
                f.component,
                tuple(str(c) for c in f.start),
                tuple(str(c) for c in f.end),
                tuple(str(c) for c in f.midpoint),
            )
            for f in rec.cfacets
        )
        assert got == want


def test_walk_predecessors(golden_run):
    assert [rec.predecessors for rec in golden_run.records] == [
        (),
        (0,),
        (0, 1),
        (0, 1, 2),
        (0, 1, 2, 3),
    ]


def test_walk_representatives_map_to_their_records(golden_run, engine):
    for rec in golden_run.records:
        for rep in rec.representatives:
            assert engine.mmi(rep) == rec.divisor


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
            assert full_run.record_for(engine.mmi(lam)) is not None


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
    got = [(str(rec.representative[0]), exc(rec.divisor)) for rec in result.records]
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


def test_next_jumping_number_free_function(ideals, canonical):
    f2 = ideals.divisors[1]
    assert next_jumping_number(f2, canonical, 0) == Fraction(3, 2)
    assert next_jumping_number(f2, canonical, Fraction(3, 2)) == 2
    # strictly after t_prev even when t_prev is itself a jumping number
    assert next_jumping_number(f2, canonical, 1) == Fraction(3, 2)


def test_next_jumping_number_needs_nonzero(graph, canonical):
    with pytest.raises(ZeroDivisor):
        next_jumping_number(Divisor(graph, (0,) * 7), canonical, 0)


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
@given(st.tuples(coords, coords))
def test_every_region_has_positive_constants(engine, lam):
    region = engine.region_of(lam)
    assert all(q.constant > 0 for q in region.inequalities)
    assert region.contains(lam)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.fractions(min_value="1/4", max_value=2, max_denominator=4),
    st.fractions(min_value="1/4", max_value=3, max_denominator=4),
)
def test_walks_of_random_boxes_cover_their_corners(engine, b1, b2):
    result = engine.enumerate_constancy_regions((b1, b2))
    assert result.record_for(engine.mmi((b1, b2))) is not None
    divisors = [rec.divisor for rec in result.records]
    assert len(set(divisors)) == len(divisors)


def _engines(engine, affine_engine):
    return {"m-primary": engine, "affine": affine_engine}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(coords, coords), st.sampled_from(["m-primary", "affine"]))
def test_integral_values_are_ints_and_the_rest_fractions(engine, affine_engine, lam, which):
    eng = _engines(engine, affine_engine)[which]
    context = eng.at(lam)
    integral = list(context.floor.coeffs) + list(context.divisor.coeffs)
    integral += [rho for row in eng.ideals.excess for rho in row]
    if any(lam):
        integral += list(context.left.coeffs)
    assert all(type(c) is int for c in integral)

    region = eng.region_of(lam)
    rational = [q.constant for q in region.inequalities]
    rational += [region.extent(axis) for axis in range(2)]
    if any(lam):
        rational += eng.wall_ray_restriction(lam, 1)
    assert all(type(q) is Fraction for q in rational if q is not None)

    values = [v for row in context.rows for v in row] + list(context.coords)
    assert not any(isinstance(v, float) for v in integral + rational + values)


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
        head_divisor = self.mmi(queue[0])
        moved = False
        for idx in range(1, len(queue)):
            cand = self.mmi(queue[idx])
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
    # the payload holds every record, the representatives and the queue
    assert enumeration_json(fast) == enumeration_json(slow)
