"""The per-point path on integer numerators against its Fraction oracles.

Point values lam . F - K are integer numerators over one denominator; floors,
left floors, the minimal jumping divisor, the contribution test, the numeric
verifier and the ray step test integrality, membership and fractional parts
on them.  The functions below are those computations as first written, on
the Fraction value rows (`conftest.value_rows`), and the tests require equal
results on the running example, its A1-multiplicity variant and
`fractional_k.json`: at walk representatives (on walls), at points where a
form is integral and at random points.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmideals.regions
from mmideals import RegionEngine, next_jumping_number
from mmideals.cli import main
from mmideals.divisors import Divisor, antinef_closure
from mmideals.graph import validate_graph
from mmideals.errors import (
    IntegralityViolated,
    InternalInvariant,
    MMIError,
    NonIntegralDivisor,
    NotAJumpingPoint,
    ZeroPoint,
)
from mmideals.jumping import (
    Check,
    Contribution,
    MinimalJumpingDivisor,
    VerificationReport,
    _indicator_divisor,
    _reduced_divisor,
    contributes,
    minimal_jumping_divisor,
    verify_numeric_conditions,
)
from mmideals.regions import WallInequality

from conftest import EXAMPLE_PATH, key_point, value_rows
from strategies import _tree_engine


def _left_floor_fractions(context) -> list:
    return [q - 1 if q.denominator == 1 and form > 0 else math.floor(q) for form, q in value_rows(context)]


def _ends_of_the_graph(graph, divisors) -> set[int]:
    """The exceptional components G may end on, from the graph alone:
    rupture (a third exceptional neighbour), dicritical (-F . E_j > 0 for
    some ideal F) or crossed by an affine component where some F is positive."""
    n, adj = graph.n_exc, graph.adjacency
    return {
        j
        for j in range(n)
        if sum(nb < n for nb in adj[j]) >= 3
        or any(graph.dot_exceptional(d.coeffs, j) < 0 for d in divisors)
        or any(nb >= n and any(d.coeffs[nb] for d in divisors) for nb in adj[j])
    }


def _minimal_jumping_divisor_fractions(context) -> MinimalJumpingDivisor:
    coords = context.coords
    if not any(coords):
        raise ZeroPoint("the origin carries no jumping divisor")
    ideals, graph = context.ideals, context.graph
    left = context.left
    if left == context.divisor:
        raise NotAJumpingPoint(f"no jump at {tuple(str(c) for c in coords)}")
    total = [sum(column) for column in zip(*(d.coeffs for d in ideals.divisors))]
    rows = value_rows(context)
    members: list[int] = []
    hyperplanes = {}
    for j in range(graph.n_total):
        if total[j] <= 0:
            continue
        form, q = rows[j]
        if q == 1 + left.coeffs[j]:
            members.append(j)
            normal = tuple(d.coeffs[j] for d in ideals.divisors)
            hyperplanes[graph.ids[j]] = WallInequality(graph.ids[j], normal, form.numerator, form.denominator)
    if not members:
        raise InternalInvariant("jumping point without attaining components")
    for j in members:
        _, q = rows[j]
        if q.denominator != 1 or q < 1:
            raise InternalInvariant(f"member value {q} at {graph.ids[j]} is not a positive integer")
    member_set = set(members)
    valences = {graph.ids[j]: sum(1 for nb in graph.adjacency[j] if nb in member_set) for j in members}
    ends = _ends_of_the_graph(graph, ideals.divisors)
    for j in members:
        if valences[graph.ids[j]] <= 1 and j < graph.n_exc and j not in ends:
            raise InternalInvariant(
                f"end component {graph.ids[j]} of the jumping divisor is neither "
                "rupture nor dicritical nor crossed by an affine component "
                "with multiplicity"
            )
    return MinimalJumpingDivisor(
        coords,
        tuple(graph.ids[j] for j in members),
        valences,
        hyperplanes,
        _indicator_divisor(ideals, members),
    )


def _contributes_fractions(engine, component_ids, lam) -> Contribution:
    context = engine.at(lam)
    ideals = engine.ideals
    members = _reduced_divisor(ideals, component_ids)
    rows = value_rows(context)
    for j in members:
        _, q = rows[j]
        if q.denominator != 1:
            raise IntegralityViolated(f"value {q} at {ideals.graph.ids[j]} is not an integer")
    floor_div, at = context.floor, context.divisor
    if antinef_closure(floor_div - _indicator_divisor(ideals, members)) == at:
        return Contribution.NO
    for j in members:
        rest = [i for i in members if i != j]
        if antinef_closure(floor_div - _indicator_divisor(ideals, rest)) != at:
            return Contribution.CONTRIBUTES
    return Contribution.CRITICALLY


def _verify_numeric_conditions_fractions(engine, lam) -> VerificationReport:
    context = engine.at(lam)
    coords, rows = context.coords, value_rows(context)
    gmin = minimal_jumping_divisor(engine, lam)
    ideals, graph = engine.ideals, engine.graph
    with_g = Divisor(graph, [-c for c in context.floor.coeffs]) + gmin.divisor
    special = _ends_of_the_graph(graph, ideals.divisors)
    member_idx = [graph.index[cid] for cid in gmin.components]
    checks = []
    for i in member_idx:
        if i >= graph.n_exc:
            continue
        cid = graph.ids[i]
        direct = graph.dot_exceptional(with_g.coeffs, i)
        frac_sum = Fraction(0)
        for nb in graph.adjacency[i]:
            _, q = rows[nb]
            frac_sum += q - math.floor(q)
        expansion = (
            Fraction(-2)
            + sum((coords[m] * ideals.excess[m][i] for m in range(ideals.r)), Fraction(0))
            + gmin.valences[cid]
            + frac_sum
        )
        details = {"component": cid, "direct": str(direct), "expansion": str(expansion)}
        checks.append(Check(f"{cid}: direct == expansion", direct == expansion, details))
        checks.append(Check(f"{cid}: integer", expansion.denominator == 1, details))
        checks.append(Check(f"{cid}: nonnegative", direct >= 0, details))
        if i not in special:
            checks.append(Check(f"{cid}: zero off rupture/dicritical", direct == 0, details))
    return VerificationReport("numeric_conditions", coords, checks)


def _next_jumping_number_fractions(graph, ideal_coeffs, canonical, t_prev) -> Fraction:
    t0 = Fraction(t_prev)
    current = antinef_closure(Divisor(graph, [math.floor(t0 * e - k) for e, k in zip(ideal_coeffs, canonical)]))
    best = None
    for j, e in enumerate(ideal_coeffs):
        if e > 0:
            ratio = Fraction(canonical[j] + 1 + current.coeffs[j]) / e
            if best is None or ratio < best:
                best = ratio
    if best is None or best <= t0:
        raise InternalInvariant("jumping-number candidate did not advance")
    return best


# -- strategies -------------------------------------------------------------------

WHICH = ("m-primary", "affine", "fractional-k")


@pytest.fixture(scope="module")
def engines(engine, affine_engine, fractional_engine):
    return dict(zip(WHICH, (engine, affine_engine, fractional_engine)))


@pytest.fixture(scope="module")
def walk_points(engines):
    """Representatives and facet endpoints of each walk at box 1,3: the
    jumping points, on walls and at wall vertices."""
    points = {}
    for which, eng in engines.items():
        result = eng.enumerate_constancy_regions(("1", "3"))
        ends = [p for rec in result.records for f in rec.cfacets for p in (f.start, f.end)]
        points[which] = sorted(set(map(key_point, result.representatives)) | set(ends))
    return points


coords = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def integral_form_points(draw, eng):
    """A point where the form sum_i lam_i e_{i,j} of some component j with
    e_{2,j} > 0 is an integer T."""
    columns = [j for j in range(eng.graph.n_total) if eng.ideals.divisors[1].coeffs[j] > 0]
    j = draw(st.sampled_from(columns))
    e1, e2 = (d.coeffs[j] for d in eng.ideals.divisors)
    lam1 = draw(coords)
    target = draw(st.integers(math.ceil(lam1 * e1), math.ceil(lam1 * e1) + 3 * e2))
    return lam1, Fraction(target - lam1 * e1, e2)


def _draw_point(data, eng, walk):
    return data.draw(
        st.one_of(st.sampled_from(walk), integral_form_points(eng), st.tuples(coords, coords)), label="lam"
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MMIError as err:
        return type(err).__name__, str(err)


def _gmin_fields(gmin):
    if isinstance(gmin, tuple):
        return gmin
    planes = {cid: (h.component, h.coeffs, h.constant) for cid, h in gmin.hyperplanes.items()}
    return gmin.point, gmin.components, gmin.valences, planes, gmin.divisor


def _report_fields(report):
    if isinstance(report, tuple):
        return report
    return [(c.name, c.passed, c.details) for c in report.checks]


# -- the point path ----------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_point_path_matches_the_fraction_oracles(engines, walk_points, data):
    which = data.draw(st.sampled_from(WHICH), label="which")
    eng = engines[which]
    lam = _draw_point(data, eng, walk_points[which])
    fast, slow = RegionEngine(eng.ideals), RegionEngine(eng.ideals)
    context = fast.at(lam)
    rows = value_rows(context)
    assert list(context.floor.coeffs) == [math.floor(q) for _, q in rows]
    assert [Fraction(v, context.den) for v in context.values] == [q for _, q in rows]
    if any(lam):
        assert list(context.left_floor.coeffs) == _left_floor_fractions(context)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmideals.regions, "_minimal_jumping_divisor", _minimal_jumping_divisor_fractions)
        want = _outcome(lambda: slow.at(lam).gmin)
    got = _outcome(lambda: context.gmin)
    assert _gmin_fields(got) == _gmin_fields(want)
    assert type(got) is tuple or all(
        type(h.numerator) is int and h.scale == fast.scale for h in got.hyperplanes.values()
    )

    got = _outcome(verify_numeric_conditions, fast, lam)
    assert _report_fields(got) == _report_fields(_outcome(_verify_numeric_conditions_fractions, fast, lam))

    total = [sum(column) for column in zip(*(d.coeffs for d in eng.ideals.divisors))]
    support = [cid for cid, c in zip(eng.graph.ids, total) if c > 0]
    integral = [cid for j, cid in enumerate(eng.graph.ids) if cid in support and rows[j][1].denominator == 1]
    pool = st.sampled_from(integral) if integral else st.sampled_from(support)
    ids = data.draw(st.lists(pool, unique=True, max_size=4) | st.lists(st.sampled_from(support), unique=True))
    assert _outcome(contributes, fast, ids, lam) == _outcome(_contributes_fractions, slow, ids, lam)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(WHICH),
    st.tuples(st.fractions(0, 3, max_denominator=4), st.fractions(0, 3, max_denominator=4)),
    st.fractions(0, 2, max_denominator=30) | st.integers(0, 2),
)
def test_next_jumping_number_matches_the_fraction_oracle(engines, which, direction, t):
    eng = engines[which]
    if not any(direction):
        direction = (Fraction(1), direction[1])
    f1, f2 = (d.coeffs for d in eng.ideals.divisors)
    combined = [direction[0] * a + direction[1] * b for a, b in zip(f1, f2)]
    got = next_jumping_number(eng, direction, t)
    assert type(got) is Fraction
    assert got == _next_jumping_number_fractions(eng.graph, combined, eng.canonical, t)
    # from the jump itself, the next one too
    assert next_jumping_number(eng, direction, got) == _next_jumping_number_fractions(
        eng.graph, combined, eng.canonical, got
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ray_chains_match_the_cold_fraction_oracle(engines, data):
    # A ray walks its chain with each closure started from the one before;
    # iterating the cold Fraction step from 0 must give the same chain, so a
    # stale or misordered warm closure shows here.  The limit is a multiple
    # of the first jump, below it or up to four times past it.
    which = data.draw(st.just("tree") | st.sampled_from(WHICH), label="which")
    eng = _tree_engine(data) if which == "tree" else engines[which]
    part = st.fractions(0, 3, max_denominator=4)
    direction = data.draw(st.lists(part, min_size=eng.r, max_size=eng.r), label="direction")
    if not any(direction):
        direction[0] = Fraction(1)
    columns = zip(*(d.coeffs for d in eng.ideals.divisors))
    combined = [sum(u * c for u, c in zip(direction, column)) for column in columns]
    want, t = [], _next_jumping_number_fractions(eng.graph, combined, eng.canonical, 0)
    limit = t * data.draw(st.fractions("1/2", 4, max_denominator=12), label="limit / first jump")
    while t <= limit:
        want.append(t)
        t = _next_jumping_number_fractions(eng.graph, combined, eng.canonical, t)
    assert eng.wall_ray_restriction(direction, limit) == want

    # the warm start itself: for t' <= t on the ray, closing max(floor_t,
    # closure(floor_t')) gives closure(floor_t)
    earlier, later = sorted(data.draw(st.lists(st.fractions(0, 2, max_denominator=12), min_size=2, max_size=2)))
    floors = [[math.floor(t * e - k) for e, k in zip(combined, eng.canonical)] for t in (earlier, later)]
    warm = antinef_closure(Divisor(eng.graph, floors[0]))
    cold = antinef_closure(Divisor(eng.graph, floors[1]))
    assert antinef_closure(Divisor(eng.graph, list(map(max, floors[1], warm.coeffs)))) == cold


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_point_values_are_ints(engines, walk_points, data):
    which = data.draw(st.sampled_from(WHICH), label="which")
    eng = engines[which]
    lam = _draw_point(data, eng, walk_points[which])
    context = eng.at(lam)
    total = sum(eng.ideals.divisors[1:], eng.ideals.divisors[0])
    divisors = [*eng.ideals.divisors, total, context.floor, context.divisor, eng.mmi(lam)]
    if any(lam):
        divisors += [context.left_floor, context.left]
    coefficients = [c for d in divisors for c in d.coeffs] + list(context.values) + [context.den]
    assert all(type(c) is int for c in coefficients)


def test_public_constructor_normalises(graph):
    # exact input values are normalised to ints by graph.coefficients; the
    # Divisor built from them holds ints, and the constructor itself takes
    # nothing else
    one = validate_graph({"exceptional": [{"id": "E1", "self": -2}]})
    assert Divisor(one, one.coefficients({"E1": Fraction(2)})).coeffs == (2,)
    assert Divisor(one, one.coefficients({"E1": "4/2"})).coeffs == (2,)
    assert type(Divisor(one, one.coefficients({"E1": "4/2"})).coeffs[0]) is int
    for bad in (Fraction(2), "4/2", "1/2"):
        with pytest.raises(NonIntegralDivisor):
            Divisor(one, [bad])
    with pytest.raises(NonIntegralDivisor):
        one.coefficients({"E1": "1/2"})
    coeffs = graph.coefficients({"E2": 3, "A1": "6/3", "E5": Fraction(4, 2)})
    assert [type(c) for c in coeffs] == [int] * len(coeffs)
    assert coeffs[1] == 3 and coeffs[4] == 2 and coeffs[5] == 2


@pytest.mark.parametrize("value", [True, False])
def test_boolean_multiplicity_exits_2(tmp_path, capsys, value):
    raw = json.loads(EXAMPLE_PATH.read_text())
    raw["ideals"][0]["mult"]["E1"] = value
    source = tmp_path / "bool.json"
    source.write_text(json.dumps(raw))
    code = main(["mmi", "--input", str(source), "--lambda", "1/6,1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: PreconditionViolated: ") and "boolean" in err
