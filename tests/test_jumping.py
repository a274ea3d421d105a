"""Jumping points, minimal jumping divisors, contribution, verification."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from mmideals import (
    Contribution,
    RegionEngine,
    build_ideals,
    contributes,
    is_jumping_point,
    minimal_jumping_divisor,
    validate_graph,
    verify_contribution_dichotomy,
    verify_jump_identity,
    verify_numeric_conditions,
)
from mmideals.errors import (
    DanglingReference,
    IntegralityViolated,
    NotAJumpingPoint,
    PreconditionViolated,
    ZeroPoint,
)

from conftest import EXAMPLE_PATH, GOLDEN, point


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
    # indicator and divisor agree with the member list
    for j, flag in enumerate(g.indicator):
        assert (ideals.graph.ids[j] in want) == bool(flag)
        assert g.divisor.coeffs[j] == flag


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


def test_dichotomy_sampling_above_cap(engine):
    # force the sampling path with a tiny cap; anchors keep both dichotomy
    # directions covered, and the report says it was partial
    report = verify_contribution_dichotomy(engine, point(("1/2", "1")), cap=1)
    assert report.passed
    assert report.partial


def test_dichotomy_cap_can_refuse(engine):
    from mmideals.errors import CandidateExplosion

    with pytest.raises(CandidateExplosion):
        verify_contribution_dichotomy(
            engine, point(("1/2", "1")), cap=1, sample_above_cap=False
        )
