"""Acceptance suite: seven end-to-end criteria, all exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Everything asserted here was computed by hand or by an
independent oracle (brute-force lattice search, 2x2 linear solves) before
being frozen; nothing is compared against the library's own output.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from mmideals import RegionEngine
from mmideals.divisors import Divisor, antinef_closure, is_antinef
from mmideals.graph import IdealDivisorSet, validate_graph
from mmideals.jumping import (
    minimal_jumping_divisor,
    verify_contribution_dichotomy,
    verify_jump_identity,
    verify_numeric_conditions,
)
from mmideals.errors import NotNegativeDefinite

from conftest import GOLDEN, exc, point


# -- criterion 1: the nine-step walk reproduces the known table ------------------


def test_criterion_1_golden_walk(graph, canonical, golden_run):
    assert exc(canonical) == GOLDEN["canonical"]
    for start, want in GOLDEN["closures"].items():
        assert exc(antinef_closure(Divisor(graph, start + (0, 0)))) == want

    got_order = tuple(tuple(str(c) for c in p) for p in golden_run.representatives)
    assert got_order == GOLDEN["walk_order"]
    got_queue = tuple(tuple(str(c) for c in p) for p in golden_run.queue)
    assert got_queue == GOLDEN["walk_queue_after"]

    assert len(golden_run.records) == 5
    for rec, want_div, want_consts in zip(
        golden_run.records, GOLDEN["walk_divisors"], GOLDEN["walk_constants"]
    ):
        assert exc(rec.divisor) == want_div
        assert tuple(q.component for q in rec.region.inequalities) == ("E2", "E5")
        assert tuple(str(q.constant) for q in rec.region.inequalities) == want_consts


# -- criterion 2: first-region facets from an independent 2x2 solve --------------


def solve_2x2(a, b):
    """Exact intersection of a1.x = c1 and a2.x = c2."""
    (a1, a2, c1), (b1, b2, c2) = a, b
    det = Fraction(a1 * b2 - a2 * b1)
    assert det != 0
    x = (c1 * b2 - c2 * a2) / det
    y = (a1 * c2 - b1 * c1) / det
    return (x, y)


def test_criterion_2_first_wall_geometry(golden_run):
    rec = golden_run.records[0]
    walls = {q.component: (q.coeffs[0], q.coeffs[1], q.constant) for q in rec.region.inequalities}
    e2, e5 = walls["E2"], walls["E5"]

    vertex = solve_2x2(e2, e5)
    assert vertex == point(GOLDEN["first_vertex"])

    # E2 wall meets the lambda2 axis, E5 wall meets the lambda1 axis
    e2_axis = (Fraction(0), Fraction(e2[2], e2[1]))
    e5_axis = (Fraction(e5[2], e5[0]), Fraction(0))
    assert e2_axis == (0, Fraction(3, 2))
    assert e5_axis == (Fraction(10, 21), 0)

    facets = {f.component: f for f in rec.cfacets}
    assert facets["E2"].start == e2_axis
    assert facets["E2"].end == vertex
    assert facets["E2"].midpoint == tuple((p + q) / 2 for p, q in zip(e2_axis, vertex))
    assert facets["E2"].midpoint == point(("1/6", "1"))
    assert facets["E5"].start == vertex
    assert facets["E5"].end == e5_axis
    assert facets["E5"].midpoint == point(("17/42", "1/4"))


# -- criterion 3: jumping-number chains and the diagonal restriction -------------


def test_criterion_3_chains_and_ray(engine):
    chain_a1 = engine.jumping_numbers_of("a1", 1)
    assert str(chain_a1[0]) == "10/21"  # log canonical threshold of a1
    assert tuple(str(v) for v in chain_a1) == GOLDEN["chain_a1_upto_1"]

    chain_a2 = engine.jumping_numbers_of("a2", 2)
    assert tuple(str(v) for v in chain_a2) == GOLDEN["chain_a2_upto_2"]

    ray = engine.wall_ray_restriction((1, 1), 1)
    assert str(ray[0]) == GOLDEN["ray_1_1_first"]
    # cross-check: the first ray value is where t * (1,1) first leaves the
    # region of the origin, i.e. the smallest constant / (normal . (1,1))
    region = engine.region_of((0, 0))
    first_exit = min(q.constant / Fraction(sum(q.coeffs)) for q in region.inequalities)
    assert ray[0] == first_exit
    assert ray == sorted(set(ray))


# -- criterion 4: closures against a brute-force lattice oracle ------------------


def random_graph(rng: random.Random):
    """A random negative definite tree with zero to two affine arrows."""
    while True:
        n = rng.randint(1, 5)
        raw = {
            "exceptional": [
                {"id": f"E{i + 1}", "self": -rng.randint(1, 5)} for i in range(n)
            ],
            "edges": [
                [f"E{rng.randint(1, i)}", f"E{i + 1}"] for i in range(1, n)
            ],
            "affine": [
                {"id": f"A{a + 1}", "meets": [f"E{rng.randint(1, n)}"]}
                for a in range(rng.randint(0, 2))
            ],
        }
        try:
            return validate_graph(raw)
        except NotNegativeDefinite:
            continue


def lattice_minimum(graph, divisor, closed):
    """Brute force: the unique antinef lattice point in the window
    [max(ceil(D), 0), closure].  Returns the set of antinef points found."""
    n = graph.n_exc
    lower = [max(int(c), 0) for c in divisor.exceptional_part()]
    upper = [int(c) for c in closed.exceptional_part()]
    if any(lo > hi for lo, hi in zip(lower, upper)):
        return None  # closure below its floor: report as failure upstream
    volume = 1
    for lo, hi in zip(lower, upper):
        volume *= hi - lo + 1
    if volume > 400_000:
        return "too-big"

    m = np.array(graph.intersection_matrix(), dtype=np.int64)
    aff = np.zeros(n, dtype=np.int64)
    for a in range(graph.n_aff):
        for j in graph.aff_meets[a]:
            aff[j] += int(divisor.coeffs[graph.n_exc + a])
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(lower, upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    dots = mesh @ m.T + aff
    hits = mesh[np.all(dots <= 0, axis=1)]
    return {tuple(int(v) for v in row) for row in hits}


def test_criterion_4_closure_against_lattice_search():
    rng = random.Random(20260816)
    checked = 0
    attempts = 0
    while checked < 500:
        attempts += 1
        assert attempts < 5000, "too many oversized windows"
        graph = random_graph(rng)
        coeffs = [rng.randint(-3, 6) for _ in range(graph.n_exc)] + [
            rng.randint(0, 3) for _ in range(graph.n_aff)
        ]
        divisor = Divisor(graph, coeffs)
        closed = antinef_closure(divisor)

        assert divisor.le(closed)
        assert closed.is_integral()
        assert is_antinef(closed)
        assert closed.coeffs[graph.n_exc :] == divisor.coeffs[graph.n_exc :]
        # idempotent, and monotone under componentwise bumps
        assert antinef_closure(closed) == closed
        bumped = Divisor(
            graph,
            [c + rng.randint(0, 2) for c in divisor.coeffs[: graph.n_exc]]
            + list(divisor.coeffs[graph.n_exc :]),
        )
        assert closed.le(antinef_closure(bumped))

        hits = lattice_minimum(graph, divisor, closed)
        if hits == "too-big":
            continue
        assert hits is not None
        # exactly one antinef point in the window, and it is the closure
        assert hits == {tuple(int(c) for c in closed.exceptional_part())}
        checked += 1


# -- criterion 5: membership equals the wall polytope on m-primary input ---------


def random_m_primary_engine(rng: random.Random) -> RegionEngine:
    while True:
        graph = random_graph(rng)
        divisors = []
        for _ in range(2):
            coeffs = [rng.randint(0, 6) for _ in range(graph.n_exc)]
            if all(c == 0 for c in coeffs):
                coeffs[rng.randrange(graph.n_exc)] = 1
            divisors.append(
                antinef_closure(Divisor(graph, coeffs + [0] * graph.n_aff))
            )
        if any(all(c == 0 for c in d.coeffs) for d in divisors):
            continue  # closure of a zero-ish vector; try again
        ideals = IdealDivisorSet(graph, ("b1", "b2"), divisors)
        return RegionEngine(ideals)


def random_fraction(rng: random.Random, upper: int) -> Fraction:
    den = rng.randint(1, 8)
    return Fraction(rng.randint(0, upper * den), den)


def test_criterion_5_membership_matches_polytope():
    rng = random.Random(997)
    for _ in range(20):
        engine = random_m_primary_engine(rng)
        assert engine.ideals.is_m_primary()
        for _ in range(10):
            lam = (random_fraction(rng, 3), random_fraction(rng, 3))
            region = engine.region_of(lam)
            for _ in range(100):
                probe = (random_fraction(rng, 4), random_fraction(rng, 4))
                assert engine.membership(probe, lam) == region.contains(probe), (
                    engine.ideals.divisors,
                    lam,
                    probe,
                )


# -- criterion 6: verification reports at every golden jumping point -------------


def test_criterion_6_verifiers_and_facet_constancy(engine, golden_run):
    jumping = [point(lam) for lam in GOLDEN["walk_order"] if lam != ("0", "0")]
    for lam in jumping:
        assert verify_jump_identity(engine, lam).passed
        assert verify_numeric_conditions(engine, lam).passed
        report = verify_contribution_dichotomy(engine, lam)
        assert report.passed and not report.partial

    for rec in golden_run.records:
        for facet in rec.cfacets:
            third = tuple(
                a + (b - a) / 3 for a, b in zip(facet.start, facet.end)
            )
            two_thirds = tuple(
                a + 2 * (b - a) / 3 for a, b in zip(facet.start, facet.end)
            )
            # the ideal is constant along the facet
            mid_divisor = engine.mmi(facet.midpoint)
            assert engine.mmi(third) == mid_divisor
            assert engine.mmi(two_thirds) == mid_divisor
            # so is the minimal jumping divisor, and its hyperplane is the
            # facet's own wall line
            g_mid = minimal_jumping_divisor(engine, facet.midpoint)
            for probe in (third, two_thirds):
                g = minimal_jumping_divisor(engine, probe)
                assert g.components == g_mid.components
            normal, constant = g_mid.hyperplanes[facet.component]
            assert normal == facet.coeffs
            assert constant == facet.constant


# -- criterion 7: the full walk covers every value inside the box ----------------


def test_criterion_7_full_coverage(engine, full_run):
    assert full_run.queue == []
    assert len({rec.divisor for rec in full_run.records}) == len(full_run.records)
    for i in range(51):
        for j in range(51):
            lam = (Fraction(i, 50), Fraction(3 * j, 50))
            divisor = engine.mmi(lam)
            rec = full_run.record_for(divisor)
            assert rec is not None, (lam, exc(divisor))
