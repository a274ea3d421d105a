"""Jumping points, minimal jumping divisors, contribution, verification."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mmideals.jumping
from mmideals import RegionEngine, is_jumping_point
from mmideals.divisors import Divisor, antinef_closure
from mmideals.graph import validate_graph
from mmideals.io import build_ideals
from mmideals.jumping import (
    Contribution,
    contributes,
    minimal_jumping_divisor,
    verify_contribution_dichotomy,
    verify_jump_identity,
    verify_numeric_conditions,
)
from mmideals.errors import (
    DanglingReference,
    IntegralityViolated,
    MMIError,
    NotAJumpingPoint,
    PreconditionViolated,
    ZeroPoint,
)

from conftest import EXAMPLE_PATH, GOLDEN, count_closures, point


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
    normal, constant = g.hyperplanes["E2"]
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
    for j in members:
        _, q = context.rows[j]
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
        which: eng.enumerate_constancy_regions(("1", "3")).representatives
        for which, eng in (("m-primary", engine), ("affine", affine_engine))
    }


coords = st.fractions(min_value=0, max_value=3, max_denominator=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_contributes_matches_the_all_subsets_oracle(engine, affine_engine, walk_points, data):
    which = data.draw(st.sampled_from(["m-primary", "affine"]))
    eng = engine if which == "m-primary" else affine_engine
    lam = data.draw(st.one_of(st.sampled_from(walk_points[which]), st.tuples(coords, coords)))
    total, rows = eng.ideals.total(), eng.at(lam).rows
    support = [cid for j, cid in enumerate(eng.graph.ids) if total.coeffs[j] > 0]
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
    assert engine.canonical.coeffs == tuple(range(1, 18))
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
    assert not report.partial


def test_verify_reports_reject_non_jumps(engine):
    with pytest.raises(NotAJumpingPoint):
        verify_jump_identity(engine, point(("1/7", "1")))


def test_dichotomy_sampling_above_cap(engine, monkeypatch):
    # force the sampling path with a tiny cap; anchors keep both dichotomy
    # directions covered, and the report says it was partial
    monkeypatch.setattr(mmideals.jumping, "SUBSET_CAP", 1)
    report = verify_contribution_dichotomy(engine, point(("1/2", "1")))
    assert report.passed
    assert report.partial
