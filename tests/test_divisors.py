"""Divisor arithmetic, unloading, closures, and the mixed-ideal maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmideals.divisors import Divisor, antinef_closure, is_antinef, unload_once
from mmideals.errors import (
    DimensionMismatch,
    GraphMismatch,
    NonIntegralDivisor,
    NonTermination,
    PreconditionViolated,
    ZeroPoint,
)

from conftest import GOLDEN, exc, point


def D(graph, exceptional, affine=(0, 0)):
    return Divisor(graph, tuple(exceptional) + tuple(affine))


# -- Divisor basics ---------------------------------------------------------


def test_coefficients_are_exact(graph):
    # ints only: the public constructor keeps ints as given and rejects
    # every other coefficient, integral Fractions and strings included
    d = Divisor(graph, (1, -2, 3, 0, 9, 0, 5))
    assert d.coeffs == (1, -2, 3, 0, 9, 0, 5)
    assert all(type(c) is int for c in d.coeffs)
    for bad in (Fraction(1, 2), Fraction(4, 2), "3", "1/2", True, False, 2.0, 0.5):
        with pytest.raises(NonIntegralDivisor, match="must be ints"):
            Divisor(graph, (1, bad, 3, 6, 9, 0, 0))


def test_as_ints(graph):
    # the coefficient tuple is the integer vector: no conversion step is left
    assert D(graph, (1, 2, 3, 6, 9)).coeffs == (1, 2, 3, 6, 9, 0, 0)
    with pytest.raises(NonIntegralDivisor):
        Divisor(graph, ("1/2", 0, 0, 0, 0, 0, 0))


def test_length_must_match(graph):
    with pytest.raises(DimensionMismatch):
        Divisor(graph, (1, 2, 3))


def test_immutable(graph):
    d = D(graph, (1, 2, 3, 6, 9))
    with pytest.raises(AttributeError):
        d.coeffs = ()


def test_equality_and_hash(graph):
    a = D(graph, (1, 2, 3, 6, 9))
    b = D(graph, (1, 2, 3, 6, 9))
    assert a == b and hash(a) == hash(b)
    assert a != D(graph, (1, 2, 3, 6, 8))


def test_arithmetic(graph):
    a = D(graph, (1, 2, 3, 6, 9))
    b = D(graph, (0, 1, 0, 0, 1))
    assert exc(a + b) == (1, 3, 3, 6, 10)
    assert exc(a - b) == (1, 1, 3, 6, 8)
    assert exc(b - a) == (-1, -1, -3, -6, -8)
    assert b.le(a) and not a.le(b)


def test_cross_graph_arithmetic_rejected(graph):
    from mmideals.graph import validate_graph

    other = validate_graph(
        {"exceptional": [{"id": "E1", "self": -2}], "ideals": [{"mult": {"E1": 1}}]}
    )
    with pytest.raises(GraphMismatch):
        D(graph, (1, 2, 3, 6, 9)) + Divisor(other, (1,))


def test_divisors_need_the_same_graph_object(example_raw, graph):
    from mmideals.graph import validate_graph

    twin = validate_graph(example_raw)
    assert twin == graph  # graphs compare structurally, divisors by identity
    a, b = D(graph, (1, 2, 3, 6, 9)), D(twin, (1, 2, 3, 6, 9))
    assert a != b
    with pytest.raises(GraphMismatch):
        a.le(b)


# -- unloading and closures ---------------------------------------------------


def test_is_antinef(graph, ideals):
    assert is_antinef(ideals.divisors[0])
    assert is_antinef(D(graph, (0, 0, 0, 0, 0)))
    assert not is_antinef(D(graph, (0, 1, 0, 0, 0)))


def test_unload_once_golden(graph):
    start, want = next(iter(GOLDEN["unload_once"].items()))
    assert exc(unload_once(D(graph, start))) == want


def test_unload_once_fixed_point(graph, ideals):
    f = ideals.divisors[1]
    assert unload_once(f) == f


def test_unload_once_raises_by_the_excess(graph):
    # excess at E2 is -1 and E2^2 = -4, so E2 rises by ceil(1/4) = 1
    assert exc(unload_once(D(graph, (1, 0, 0, 0, 0)))) == (1, 1, 0, 0, 0)


@pytest.mark.parametrize("start,want", sorted(GOLDEN["closures"].items()))
def test_antinef_closure_golden(graph, start, want):
    closed = antinef_closure(D(graph, start))
    assert exc(closed) == want
    assert is_antinef(closed)


def test_closure_idempotent_on_goldens(graph):
    for want in GOLDEN["closures"].values():
        closed = D(graph, want)
        assert antinef_closure(closed) == closed


def test_closure_keeps_affine_coordinates(graph):
    d = Divisor(graph, (0, 1, 0, 0, 0, 2, 5))
    closed = antinef_closure(d)
    assert closed.coeffs[5] == 2 and closed.coeffs[6] == 5


def test_closure_iteration_cap(graph, monkeypatch):
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 2)
    with pytest.raises(NonTermination, match="2 sweeps"):
        antinef_closure(D(graph, (0, 3, 0, 0, 0)))


def test_closure_cap_names_the_rising_component(graph, monkeypatch):
    # (0, 3, 0, 0, 0) closes in 12 rounds, as it does in 12 sweeps
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 11)
    with pytest.raises(NonTermination, match=r"11 sweeps: E5 still rising after 11 rounds$"):
        antinef_closure(D(graph, (0, 3, 0, 0, 0)))
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 12)
    assert exc(antinef_closure(D(graph, (0, 3, 0, 0, 0)))) == (2, 3, 3, 6, 9)


def test_closure_cap_from_environment(graph, monkeypatch):
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 1)
    with pytest.raises(NonTermination):
        antinef_closure(D(graph, (0, 3, 0, 0, 0)))
    monkeypatch.setattr("mmideals.divisors.MAX_UNLOAD_ITERS", 50)
    assert exc(antinef_closure(D(graph, (0, 3, 0, 0, 0)))) == (2, 3, 3, 6, 9)


# -- points -------------------------------------------------------------------


def test_parse_point(engine):
    # a point is read by `engine.at`: exact coordinates, one per ideal, none
    # negative, no float
    assert engine.at(("1/6", 1)).coords == (Fraction(1, 6), Fraction(1))
    with pytest.raises(DimensionMismatch):
        engine.at(("1/6",))
    with pytest.raises(PreconditionViolated):
        engine.at(("-1/6", 1))
    with pytest.raises(PreconditionViolated):
        engine.at((0.5, 1))


# -- mixed multiplier ideals --------------------------------------------------


@pytest.mark.parametrize("lam,want", sorted(GOLDEN["floors"].items()))
def test_mixed_divisor_floor(engine, lam, want):
    assert exc(engine.at(point(lam)).floor) == want


@pytest.mark.parametrize("lam,want", sorted(GOLDEN["mmi"].items()))
def test_mmi_golden(engine, lam, want):
    assert exc(engine.at(point(lam)).divisor) == want


@pytest.mark.parametrize("lam,want", sorted(GOLDEN["left"].items()))
def test_left_limit_golden(engine, lam, want):
    assert exc(engine.at(point(lam)).left) == want


def test_left_limit_at_origin(engine):
    with pytest.raises(ZeroPoint):
        engine.at((0, 0)).left


def test_left_limit_off_walls_matches_value(engine):
    lam = point(("1/12", "1/2"))  # interior of the first region
    assert engine.at(lam).left == engine.at(lam).divisor


# -- property tests -----------------------------------------------------------

coeff = st.integers(min_value=-4, max_value=8)
divisors = st.tuples(coeff, coeff, coeff, coeff, coeff)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(divisors)
def test_closure_dominates_and_is_antinef(graph, start):
    d = D(graph, start)
    closed = antinef_closure(d)
    assert d.le(closed)
    assert is_antinef(closed)
    assert all(type(c) is int for c in closed.coeffs)
    assert antinef_closure(closed) == closed


@settings(max_examples=80, deadline=None, derandomize=True)
@given(divisors, st.tuples(*(st.integers(min_value=0, max_value=3),) * 5))
def test_closure_monotone(graph, start, bump):
    lower = D(graph, start)
    upper = D(graph, tuple(a + b for a, b in zip(start, bump)))
    assert antinef_closure(lower).le(antinef_closure(upper))


lam_coords = st.fractions(min_value=0, max_value=3, max_denominator=8)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.tuples(lam_coords, lam_coords), st.tuples(lam_coords, lam_coords))
def test_mmi_monotone_in_lambda(engine, a, b):
    lo = tuple(min(x, y) for x, y in zip(a, b))
    hi = tuple(max(x, y) for x, y in zip(a, b))
    assert engine.at(lo).divisor.le(engine.at(hi).divisor)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.tuples(lam_coords, lam_coords))
def test_left_limit_below_value(engine, lam):
    if all(c == 0 for c in lam):
        return
    left = engine.at(lam).left
    assert left.le(engine.at(lam).divisor)
