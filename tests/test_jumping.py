"""Jumping points, minimal jumping divisors, contribution, verification."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmideals import RegionEngine, is_jumping_point
from mmideals.divisors import Divisor, antinef_closure
from mmideals.graph import validate_graph
from mmideals.io import build_ideals
from mmideals.jumping import (
    Contribution,
    MinimalJumpingDivisor,
    _indicator_divisor,
    contributes,
    minimal_jumping_divisor,
    verify_contribution_dichotomy,
    verify_jump_identity,
    verify_numeric_conditions,
)
from mmideals.errors import (
    DanglingReference,
    IntegralityViolated,
    InternalInvariant,
    MMIError,
    NotAJumpingPoint,
    PreconditionViolated,
    ZeroPoint,
)
from mmideals.regions import _Ray

from conftest import EXAMPLE_PATH, GOLDEN, count_closures, key_point, point, value_rows
from strategies import _tree_engine


JUMPING = [lam for lam in GOLDEN["walk_order"] if lam != ("0", "0")]


def test_is_jumping_point(engine):
    for lam in JUMPING:
        assert is_jumping_point(engine, point(lam))
    assert not is_jumping_point(engine, point(("1/7", "1")))
    assert not is_jumping_point(engine, point(("1/12", "1/2")))
    with pytest.raises(ZeroPoint):
        is_jumping_point(engine, (0, 0))


@pytest.mark.parametrize("lam,want", sorted(GOLDEN["gmin"].items()))
def test_minimal_jumping_divisor(engine, ideals, lam, want):
    g = minimal_jumping_divisor(engine, point(lam))
    assert g.components == want
    assert g.point == point(lam)
    # the divisor is the reduced divisor on the member list
    for j, cid in enumerate(ideals.graph.ids):
        assert g.divisor.coeffs[j] == (1 if cid in want else 0)


def test_minimal_jumping_divisor_hyperplane(engine):
    g = minimal_jumping_divisor(engine, point(("1/6", "1")))
    wall = g.hyperplanes["E2"]
    normal, constant = wall.coeffs, wall.constant
    assert normal == GOLDEN["wall_normals"]["E2"]
    assert constant == 3
    # the jumping point satisfies its own hyperplane equation
    lam = point(("1/6", "1"))
    assert sum(a * c for a, c in zip(normal, lam)) == constant


def test_minimal_jumping_divisor_rejects_non_jumps(engine):
    with pytest.raises(NotAJumpingPoint):
        minimal_jumping_divisor(engine, point(("1/7", "1")))
    with pytest.raises(ZeroPoint):
        minimal_jumping_divisor(engine, (0, 0))


def test_affine_member_when_arrow_carries_multiplicity():
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["ideals"][1]["mult"]["A1"] = 1
    graph = validate_graph(raw)
    ideals = build_ideals(graph, raw["ideals"])
    assert not ideals.is_m_primary()
    engine = RegionEngine(ideals)
    g = minimal_jumping_divisor(engine, point(("1/6", "1")))
    # the arrow reaches the critical value together with E2
    assert g.components == ("E2", "A1")
    assert g.valences == {"E2": 1, "A1": 1}
    assert verify_jump_identity(engine, point(("1/6", "1"))).passed


def test_crossed_components_are_classified_once(engine, affine_engine, monkeypatch):
    index = engine.graph.index
    # m-primary: the ends are exactly the dicritical E2 and E5
    assert engine.ends == {index["E2"], index["E5"]}
    # the arrow A1 meets E2 and carries multiplicity in the A1 variant only;
    # there E2 has no excess left, so it is an end through the crossing alone
    assert [affine_engine.graph.exc_ids[j] for j in affine_engine.wall_relevant] == ["E5"]
    assert affine_engine.ends == {index["E2"], index["E5"]}
    assert affine_engine.at(point(("1/6", "1"))).gmin.components == ("E2", "A1")
    fresh = RegionEngine(affine_engine.ideals)
    monkeypatch.setattr(fresh, "ends", frozenset({index["E5"]}))
    with pytest.raises(InternalInvariant, match="neither rupture nor dicritical"):
        fresh.at(point(("1/6", "1"))).gmin


AFFINE_RAYS = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)]


def test_numeric_conditions_on_the_affine_variant(affine_engine):
    # an end of G crossed by the arrow A1, which carries multiplicity, counts
    # as dicritical in the verifier as it does for G itself
    jumps = [tuple(t * u for u in ray) for ray in AFFINE_RAYS for t in affine_engine.wall_ray_restriction(ray, 3)]
    assert len(jumps) == 448
    assert [lam for lam in jumps if not verify_numeric_conditions(affine_engine, lam).passed] == []


# -- contribution --------------------------------------------------------------


def test_contributes_critically(engine):
    assert contributes(engine, ["E2"], point(("1/6", "1"))) is Contribution.CRITICALLY
    assert contributes(engine, ["E5"], point(("17/42", "1/4"))) is Contribution.CRITICALLY


def test_contributes_empty_set(engine):
    assert contributes(engine, [], point(("1/6", "1"))) is Contribution.NO


def test_contributes_superset(engine):
    # E2 + E4 still reaches the left limit, but E2 alone already does, so the
    # pair contributes without being critical
    got = contributes(engine, ["E2", "E4"], point(("1/2", "1")))
    assert got is Contribution.CONTRIBUTES


def test_contributes_wrong_component(engine):
    assert contributes(engine, ["E4"], point(("1/2", "1"))) is Contribution.NO


def test_contributes_integrality(engine):
    with pytest.raises(IntegralityViolated, match="E5"):
        contributes(engine, ["E5"], point(("1/6", "1")))


def test_contributes_validates_components(engine):
    with pytest.raises(DanglingReference):
        contributes(engine, ["E9"], point(("1/6", "1")))
    with pytest.raises(PreconditionViolated, match="twice"):
        contributes(engine, ["E2", "E2"], point(("1/6", "1")))
    with pytest.raises(PreconditionViolated, match="support"):
        contributes(engine, ["A1"], point(("1/6", "1")))


def _contributes_by_subsets(engine, component_ids, lam):
    """The criticality test as first written: close floor - H for G and for
    every nonempty proper subset H of G, 2^n - 1 closures in all.  Oracle
    for the n + 1 closures of `contributes`."""
    context = engine.at(lam)
    graph = engine.graph
    members = sorted(graph.index[cid] for cid in component_ids)
    rows = value_rows(context)
    for j in members:
        _, q = rows[j]
        if q.denominator != 1:
            raise IntegralityViolated(f"value {q} at {graph.ids[j]} is not an integer")

    def closed_without(subset):
        coeffs = list(context.floor.coeffs)
        for j in subset:
            coeffs[j] -= 1
        return antinef_closure(Divisor(graph, coeffs))

    if closed_without(members) == context.divisor:
        return Contribution.NO
    for mask in range(1, (1 << len(members)) - 1):
        subset = [members[i] for i in range(len(members)) if mask >> i & 1]
        if closed_without(subset) != context.divisor:
            return Contribution.CONTRIBUTES
    return Contribution.CRITICALLY


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MMIError as err:
        return type(err).__name__, str(err)


@pytest.fixture(scope="module")
def walk_points(engine, affine_engine):
    """Representatives of the box-[0,1]x[0,3] walk of each tuple: the
    jumping points, where values turn integral and G can contribute."""
    return {
        which: list(map(key_point, eng.enumerate_constancy_regions(("1", "3")).representatives))
        for which, eng in (("m-primary", engine), ("affine", affine_engine))
    }


coords = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_g_at_a_ray_jump_is_attained_with_positive_integer_values(engine, affine_engine, fractional_engine, data):
    # The left limit is antinef, hence effective, so a member's value 1 +
    # e_j(left) is a positive integer and a candidate of the dichotomy; and
    # floor <= left would close to left, so at a jump some j has floor_j >
    # left_j >= left_floor_j, which only a member can.  A ray step lands on
    # a jump: before it the floor stays at or below the closure it starts at.
    which = data.draw(st.sampled_from(["tree", "m-primary", "affine", "fractional-k"]), label="which")
    fixtures = {"m-primary": engine, "affine": affine_engine, "fractional-k": fractional_engine}
    eng = _tree_engine(data) if which == "tree" else fixtures[which]
    direction = data.draw(st.lists(coords, min_size=eng.r, max_size=eng.r), label="direction")
    if not any(direction):
        direction[0] = Fraction(1)
    t = data.draw(coords, label="t")
    p, q = _Ray(eng, direction).step(t.numerator, t.denominator)
    context = eng.at(tuple(Fraction(p, q) * u for u in direction))
    assert min(context.left.coeffs) >= 0
    assert context.gmin.components
    for j in map(eng.graph.index.get, context.gmin.components):
        assert context.values[j] % context.den == 0 and context.values[j] >= context.den


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_contributes_matches_the_all_subsets_oracle(engine, affine_engine, walk_points, data):
    which = data.draw(st.sampled_from(["m-primary", "affine"]))
    eng = engine if which == "m-primary" else affine_engine
    lam = data.draw(st.one_of(st.sampled_from(walk_points[which]), st.tuples(coords, coords)))
    total = [sum(column) for column in zip(*(d.coeffs for d in eng.ideals.divisors))]
    rows = value_rows(eng.at(lam))
    support = [cid for cid, c in zip(eng.graph.ids, total) if c > 0]
    # Mostly components with integral values, where the answer is not an error.
    integral = [cid for cid in support if rows[eng.graph.index[cid]][1].denominator == 1]
    pool = st.sampled_from(integral) if integral else st.sampled_from(support)
    ids = data.draw(st.lists(pool, unique=True) | st.lists(st.sampled_from(support), unique=True))
    assert _outcome(contributes, eng, ids, lam) == _outcome(_contributes_by_subsets, eng, ids, lam)


def _free_point_chain(n):
    """n blow-ups, each at a free point of the newest exceptional curve: the
    chain E1 - ... - En with self-intersections -2, ..., -2, -1, relative
    canonical divisor K = sum_i i E_i, and the maximal ideal m, whose
    divisor is E1 + ... + En."""
    ids = [f"E{i}" for i in range(1, n + 1)]
    raw = {
        "exceptional": [{"id": cid, "self": -2} for cid in ids[:-1]] + [{"id": ids[-1], "self": -1}],
        "edges": [[a, b] for a, b in zip(ids, ids[1:])],
        "ideals": [{"name": "m", "mult": {cid: 1 for cid in ids}}],
    }
    return RegionEngine(build_ideals(validate_graph(raw), raw["ideals"]))


def test_contributes_over_seventeen_components(monkeypatch):
    engine = _free_point_chain(17)
    assert engine.canonical == tuple(range(1, 18))
    # On a smooth surface J(m^2) = m and J(m^(2 - eps)) = O.  At lam = 2 the
    # values 2 - k_j are integers, floor - G closes to 0 (the ideal O), and
    # the jump sits on E1 alone: floor - (G - {E1}) still closes to m.
    lam = (Fraction(2),)
    assert engine.at(lam).divisor.coeffs == (1,) * 17
    support = list(engine.graph.ids)
    calls = count_closures(monkeypatch)
    assert contributes(engine, support, lam) is Contribution.CONTRIBUTES
    assert len(calls) <= len(support) + 1
    assert contributes(engine, ["E1"], lam) is Contribution.CRITICALLY


# -- verification reports --------------------------------------------------------


@pytest.mark.parametrize("lam", JUMPING)
def test_verify_jump_identity(engine, lam):
    report = verify_jump_identity(engine, point(lam))
    assert report.kind == "jump_identity"
    assert report.passed, report.failures()


@pytest.mark.parametrize("lam", JUMPING)
def test_verify_numeric_conditions(engine, lam):
    report = verify_numeric_conditions(engine, point(lam))
    assert report.passed, report.failures()
    # the report carries one block of checks per member of G
    assert report.checks


@pytest.mark.parametrize("lam", JUMPING)
def test_verify_contribution_dichotomy(engine, lam):
    report = verify_contribution_dichotomy(engine, point(lam))
    assert report.passed, report.failures()


def test_numeric_conditions_fail_a_non_integral_expansion(ideals):
    # moving one neighbour's value by 1/den changes the expansion's
    # fractional part, which the integrality check has to catch
    engine = RegionEngine(ideals)
    lam = point(("1/6", "1"))
    assert verify_numeric_conditions(engine, lam).passed
    context = engine.at(lam)
    graph, den = engine.graph, context.den
    cid = next(c for c in context.gmin.components if graph.index[c] < graph.n_exc)
    nb = next(j for j in graph.adjacency[graph.index[cid]] if context.values[j] % den < den - 1)
    context.values[nb] += 1
    report = verify_numeric_conditions(engine, lam)
    failed = {check.name for check in report.failures()}
    assert f"{cid}: integer" in failed and f"{cid}: direct == expansion" in failed
    assert not report.passed


def test_a_left_limit_above_the_ideal_fails_both_lower_bounds(ideals):
    # a left limit that exceeds the ideal at lam on the arrow A1 is not below
    # it, and not below the closure of floor - C either
    engine = RegionEngine(ideals)
    lam = point(("1/6", "1"))
    context = engine.at(lam)
    context.gmin
    coeffs = list(context.left.coeffs)
    coeffs[engine.graph.index["A1"]] = context.divisor.coeffs[engine.graph.index["A1"]] + 1
    context.__dict__["left"] = Divisor(engine.graph, coeffs)
    assert "left limit strictly below" in {c.name for c in verify_jump_identity(engine, lam).failures()}
    failed = {c.name for c in verify_contribution_dichotomy(engine, lam).failures()}
    assert "every candidate ideal sits between the jump levels" in failed


def test_verify_reports_reject_non_jumps(engine):
    with pytest.raises(NotAJumpingPoint):
        verify_jump_identity(engine, point(("1/7", "1")))


def _dichotomy_by_subsets(engine, lam):
    """The contribution dichotomy as first written: close floor - H for all
    2^n reduced divisors H on the n integral-valued candidates and test each
    one.  Oracle for the |G| + 2 closures of `verify_contribution_dichotomy`;
    returns the verdicts of its two checks, against the context's G."""
    context = engine.at(lam)
    graph, left, at = engine.graph, context.left, context.divisor
    rows = value_rows(context)
    candidates = [j for j in sorted(engine.ideals.support) if rows[j][1].denominator == 1 and rows[j][1] >= 1]
    gmin = {graph.index[cid] for cid in context.gmin.components}
    between = iff = True
    for mask in range(1 << len(candidates)):
        subset = {j for i, j in enumerate(candidates) if mask >> i & 1}
        coeffs = [c - (j in subset) for j, c in enumerate(context.floor.coeffs)]
        closed = antinef_closure(Divisor(graph, coeffs))
        between &= left.le(closed) and closed.le(at)
        iff &= (closed == left) == (gmin <= subset)
    return [between, iff]


def _integral_at_least_one(context, j):
    """The value lam . F - k at j is an integer >= 1: j is a candidate."""
    return context.values[j] % context.den == 0 and context.values[j] >= context.den


@pytest.fixture(scope="module")
def jumping_walk_points(engine, affine_engine, fractional_engine):
    """The jumping points among the representatives of each walk at box 1,3
    with at most 12 candidates, so the oracle stays at 2^12 closures."""
    points = {}
    for which, eng in (("m-primary", engine), ("affine", affine_engine), ("fractional-k", fractional_engine)):
        representatives = map(key_point, eng.enumerate_constancy_regions(("1", "3")).representatives)
        points[which] = (eng, [lam for lam in representatives if any(lam) and is_jumping_point(eng, lam)])
        assert points[which][1]
        for lam in points[which][1]:
            context = eng.at(lam)
            assert sum(_integral_at_least_one(context, j) for j in eng.ideals.support) <= 12
    return points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_dichotomy_matches_the_all_subsets_oracle(jumping_walk_points, data):
    eng, lams = jumping_walk_points[data.draw(st.sampled_from(["m-primary", "affine", "fractional-k"]))]
    lam = data.draw(st.sampled_from(lams))
    # A fresh engine, so a mutant G stays in this example's context.
    fresh = RegionEngine(eng.ideals)
    context = fresh.at(lam)
    graph, gmin = fresh.graph, context.gmin
    candidates = [graph.ids[j] for j in sorted(fresh.ideals.support) if _integral_at_least_one(context, j)]
    others = [cid for cid in candidates if cid not in gmin.components]
    mutation = data.draw(st.sampled_from(["none", "drop"] + (["add"] if others else [])))
    if mutation == "drop":
        gone = data.draw(st.sampled_from(gmin.components))
        components = tuple(cid for cid in gmin.components if cid != gone)
    elif mutation == "add":
        extra = data.draw(st.sampled_from(others))
        components = tuple(cid for cid in graph.ids if cid in gmin.components or cid == extra)
    if mutation != "none":
        members = [graph.index[cid] for cid in components]
        context.__dict__["gmin"] = MinimalJumpingDivisor(
            gmin.point, components, {}, {}, _indicator_divisor(fresh.ideals, members)
        )
    report = verify_contribution_dichotomy(fresh, lam)
    assert [check.passed for check in report.checks] == _dichotomy_by_subsets(fresh, lam)
    assert report.passed == (mutation == "none")


@pytest.mark.parametrize("n", [14, 17])
def test_dichotomy_is_exact_in_g_plus_two_closures(monkeypatch, n):
    # At lam = n + 1 all n values n + 1 - k_j are positive integers, so every
    # component is a candidate and the dichotomy spans 2^n subsets.
    engine = _free_point_chain(n)
    lam = (Fraction(n + 1),)
    context = engine.at(lam)
    assert all(_integral_at_least_one(context, j) for j in range(n))
    gmin = context.gmin
    calls = count_closures(monkeypatch)
    report = verify_contribution_dichotomy(engine, lam)
    assert report.passed, report.failures()
    assert len(calls) <= len(gmin.components) + 2
