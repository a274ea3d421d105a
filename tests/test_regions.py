"""Constancy regions: wall polytopes, the region walk, facets, and chains."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmideals.regions
from mmideals import RegionEngine, next_jumping_number, svg
from mmideals.graph import validate_graph
from mmideals.io import build_ideals, enumeration_json
from mmideals.errors import (
    DanglingReference,
    DimensionMismatch,
    GeometryDegeneracy,
    PreconditionViolated,
    UnsupportedGeometry,
)
from mmideals.regions import (
    CFacet,
    RegionPolytope,
    WallInequality,
    _clip_parameter,
    _line_point,
    _subtract_intervals,
    _wall_line,
)
from mmideals.svg import render_walls

from conftest import DATA, GOLDEN, exc, point, value_rows


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


def test_a_region_with_an_uncapped_axis_is_unbounded(engine):
    # no fixture has one: every wall below leaves z2 free
    walls = (WallInequality("E1", (2, 0), Fraction(3, 7), 3), WallInequality("E2", (1, 0), Fraction(1), 7))
    region = RegionPolytope(point(("0", "0")), engine.mmi((0, 0)), walls, 7)
    assert not region.bounded
    assert region.contains(point(("0", "100")))
    assert not region.contains(point(("3/14", "0")))  # on the wall E1
    capped = RegionPolytope(region.lam, region.divisor, walls + (WallInequality("E3", (0, 1), Fraction(5), 35),), 7)
    assert capped.bounded


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


def test_next_jumping_number_free_function(engine):
    # the ray (0, 1) is the chain of the second ideal
    assert next_jumping_number(engine, (0, 1), 0) == Fraction(3, 2)
    assert next_jumping_number(engine, (0, 1), Fraction(3, 2)) == 2
    # strictly after t_prev even when t_prev is itself a jumping number
    assert next_jumping_number(engine, ("0", "1"), 1) == Fraction(3, 2)


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

    def counted(*args):
        calls.append(args)
        return next_jumping_number(*args)

    monkeypatch.setattr(mmideals.regions, "next_jumping_number", counted)
    values = engine.wall_ray_restriction((1, 1), 1)
    # one step per value, and one more that passes the limit
    assert len(calls) == len(values) + 1
    assert [t for *_, t in calls] == [0, *values]


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
    assert result.by_divisor.get(engine.mmi((b1, b2))) is not None
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
    # the payload holds every record, the representatives and the queue
    assert enumeration_json(fast) == enumeration_json(slow)


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
    Oracle for the integer `regions._clip_parameter`."""
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


def _fraction_halfplanes(region):
    return [(-1, 0, Fraction(0)), (0, -1, Fraction(0))] + [
        (*ineq.coeffs, ineq.constant) for ineq in region.inequalities
    ]


def _facets_r2_fractions(self, region, priors, box_pt):
    """The facet clipper as first written, on Fraction half-planes and
    parameters.  Oracle for the integer `RegionEngine._facets_r2`."""
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
            prior_c = _constant_for(prior.region, ineq.component)
            if prior_c is not None and prior_c < c:
                continue
            cut = _clip_parameter_fractions(_fraction_halfplanes(prior.region), p0, direction, lo, hi)
            if cut is not None:
                u0, u1 = cut
                cuts.append((lo if u0 is None else u0, hi if u1 is None else u1))
        at = lambda t: (p0[0] + t * direction[0], p0[1] + t * direction[1])
        for t0, t1 in _subtract_intervals(lo, hi, cuts):
            facets.append(CFacet(ineq.component, ineq.coeffs, c, at(t0), at(t1), at((t0 + t1) / 2)))
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


def _facets_r1_fractions(self, region, priors, box_pt):
    """The single-ideal facet finder as first written, from the Fraction
    extents.  Oracle for the integer `RegionEngine._facets_r1`."""
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
        ext = _extent(prior.region, 0)
        if ext is not None and m <= ext:
            return (), []
    point = (m,)
    facet = CFacet(ineq.component, ineq.coeffs, ineq.constant, point, point, point)
    seeds = [point] if m <= box_pt[0] else []
    return (facet,), seeds


def _truncated_fractions(self, region, box_pt):
    """Truncation as first written, from the Fraction extents."""
    for axis, limit in enumerate(box_pt):
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
    path = "M " + " L ".join(f"{svg._fmt(m.x(px))} {svg._fmt(m.y(py))}" for px, py in points) + " Z"
    return f'<path d="{path}" fill="url(#hatch)" fill-opacity="0.35" stroke="none"/>'


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    wall=st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-300, 300)).filter(
        lambda w: w[:2] != (0, 0)
    ),
    planes=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-300, 300)), max_size=6),
    bounds=st.tuples(st.none() | st.integers(-10**6, 10**6), st.none() | st.integers(-10**6, 10**6)),
    scale=st.sampled_from([1, 2, 7, 60]),
)
def test_integer_clip_matches_the_fraction_oracle(wall, planes, bounds, scale):
    a1, a2, c = wall
    line = _wall_line((a1, a2), c, [plane[:2] for plane in planes])
    unit = scale * line[2] * line[5]  # the line parameter t is T / unit
    as_t = lambda T: None if T is None else Fraction(T, unit)
    got = _clip_parameter(planes, line, *bounds)
    p0 = (Fraction(c, scale * a1), Fraction(0)) if a1 else (Fraction(0), Fraction(c, scale * a2))
    fraction_planes = [(b1, b2, Fraction(d, scale)) for b1, b2, d in planes]
    want = _clip_parameter_fractions(fraction_planes, p0, (a2, -a1), *map(as_t, bounds))
    assert (got if got is None else tuple(map(as_t, got))) == want
    if got is not None:
        for t in got:
            if t is not None:  # a bound is a point of the wall line
                x, y = _line_point(line, scale, t)
                assert a1 * x + a2 * y == Fraction(c, scale)


def test_fractional_k_input(fractional_engine):
    eng = fractional_engine
    assert [str(k) for k in eng.canonical.exceptional_part()] == ["-2/7", "-4/7", "-1/7", "-2/7", "-3/7"]
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
    fast_payload, fast_svg = enumeration_json(fast), render_walls(fast)
    monkeypatch.setattr(RegionEngine, "_facets_r1", _facets_r1_fractions)
    monkeypatch.setattr(RegionEngine, "_facets_r2", _facets_r2_fractions)
    monkeypatch.setattr(RegionEngine, "_truncated", _truncated_fractions)
    monkeypatch.setattr(svg, "_region_outline", _region_outline_fractions)
    slow = eng.enumerate_constancy_regions(box)
    assert fast_payload == enumeration_json(slow)
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


@pytest.mark.parametrize("which,box", SINGLE_IDEAL_CASES)
def test_single_ideal_facet_points_strictly_increase(single_engines, which, box):
    # Each region strictly contains its representative, the previous wall
    # point, so no earlier closure [0, extent] reaches a fresh region's wall
    # point: that is why the one-ideal facet finder does not scan the priors.
    records = single_engines[which].enumerate_constancy_regions(box).records
    for i, rec in enumerate(records):
        for facet in rec.cfacets:
            assert rec.representative[0] < facet.midpoint[0]
            assert all(_extent(prior.region, 0) < facet.midpoint[0] for prior in records[:i])
    points = [facet.midpoint[0] for rec in records for facet in rec.cfacets]
    assert points and points == sorted(set(points))


def test_halfplanes_have_one_axis_row_per_coordinate(engine, single_engines):
    assert engine.region_of((0, 0)).halfplanes[:2] == [(-1, 0, 0), (0, -1, 0)]
    region = single_engines["example-a2"].region_of((0,))
    assert region.halfplanes[0] == (-1, 0)
    assert all(len(row) == 2 for row in region.halfplanes)
    with pytest.raises(UnsupportedGeometry):
        region.vertices()


def test_vertices_of_a_hand_built_region(engine):
    walls = (WallInequality("E1", (2, 0), Fraction(3, 7), 3), WallInequality("E2", (1, 0), Fraction(1), 7))
    region = RegionPolytope(point(("0", "0")), engine.mmi((0, 0)), walls, 7)
    with pytest.raises(GeometryDegeneracy):
        region.vertices()  # z2 is free, so the wall E1 has an unbounded edge
    capped = RegionPolytope(region.lam, region.divisor, walls + (WallInequality("E3", (0, 1), Fraction(5), 35),), 7)
    # E2 (z1 < 1) misses the closure, so it gives no edge
    assert capped.vertices() == [(0, 0), (0, 5), (Fraction(3, 14), 5), (Fraction(3, 14), 0)]
