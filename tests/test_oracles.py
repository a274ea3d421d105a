"""Independent oracles: closed forms from the theory, not the program.

Toric resolutions are built here from regular fans of the quadrant; the
relative canonical divisor of a toric blow-up is then known in closed form,
and so are Howald's multiplier ideals (Trans. AMS 353, 2001) of the inputs
below.  Curves x^a + y^b with a, b coprime, on the fan that holds the ray
(b, a): their jumping numbers.  Pairs of monomial ideals, on the fan that
holds the inner normals of their Newton polygons: their mixed multiplier
ideals, as divisors.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, gcd

import pytest

from mmideals import RegionEngine
from mmideals.graph import validate_graph
from mmideals.io import build_ideals
from mmideals.jumping import verify_contribution_dichotomy, verify_jump_identity, verify_numeric_conditions

# the 45 coprime pairs 2 <= a < b <= 13
COPRIME_PAIRS = [(a, b) for b in range(3, 14) for a in range(2, b) if gcd(a, b) == 1]
SMALL_PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5)]


def _fan(targets) -> list[tuple[int, int]]:
    """Rays of the regular fan of the first quadrant that has every primitive
    target as a ray, ordered by slope from (1, 0) to (0, 1): u + v is inserted
    between the adjacent rays u, v around a target until it is a ray."""
    rays = [(1, 0), (0, 1)]
    for target in targets:
        while target not in rays:
            # rays[i] is the first ray of larger slope than the target
            i = next(i for i, v in enumerate(rays) if target[0] * v[1] > target[1] * v[0])
            u, v = rays[i - 1], rays[i]
            rays.insert(i, (u[0] + v[0], u[1] + v[1]))
    return rays


def _toric_chain(rays) -> tuple[list[dict], list[list[str]]]:
    """The exceptional curves of a fan and the edges of their chain: each
    inner ray w = (p, q) is E_p_q with E_w^2 = -s where v_prev + v_next = s w."""
    exceptional = []
    for prev, (p, q), nxt in zip(rays, rays[1:-1], rays[2:]):
        s = (prev[0] + nxt[0]) // p
        assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (s * p, s * q)
        exceptional.append({"id": f"E{p}_{q}", "self": -s})
    ids = [e["id"] for e in exceptional]
    return exceptional, [[x, y] for x, y in zip(ids, ids[1:])]


def curve_input(a: int, b: int) -> dict:
    """Input JSON for the curve x^a + y^b on its toric resolution.

    The curve has multiplicity min(a p, b q) on E_p_q, and its strict
    transform is an affine arrow of multiplicity 1 crossing E_b_a."""
    rays = _fan([(b, a)])
    exceptional, edges = _toric_chain(rays)
    mult = {e["id"]: min(a * p, b * q) for e, (p, q) in zip(exceptional, rays[1:-1])}
    mult["C"] = 1
    return {
        "exceptional": exceptional,
        "edges": edges,
        "affine": [{"id": "C", "meets": [f"E{b}_{a}"]}],
        "ideals": [{"name": "f", "mult": mult}],
    }


def curve_engine(a: int, b: int) -> RegionEngine:
    raw = curve_input(a, b)
    return RegionEngine(build_ideals(validate_graph(raw), raw["ideals"]))


def howald_jumps(a: int, b: int, upto: int) -> list[Fraction]:
    """({i/a + j/b < 1 : i, j >= 1} u {1}) + Z_{>=0}, cut at upto: Howald's
    jumping numbers of a non-degenerate curve below 1, and Skoda above."""
    base = {Fraction(i, a) + Fraction(j, b) for i in range(1, a) for j in range(1, b)}
    base = {c for c in base if c < 1} | {Fraction(1)}
    return sorted(c + m for c in base for m in range(upto) if c + m <= upto)


@pytest.mark.parametrize("a, b", COPRIME_PAIRS)
def test_curve_canonical_and_jumping_numbers(a, b):
    engine = curve_engine(a, b)
    graph = engine.graph
    want_k = tuple(p + q - 1 for p, q in (map(int, cid[1:].split("_")) for cid in graph.exc_ids))
    assert engine.canonical[: graph.n_exc] == want_k
    assert engine.jumping_numbers_of("f", 3) == howald_jumps(a, b, 3)


@pytest.mark.parametrize("a, b", SMALL_PAIRS)
def test_curve_jump_identity_and_dichotomy(a, b):
    engine = curve_engine(a, b)
    for t in howald_jumps(a, b, 1):
        assert verify_jump_identity(engine, (t,)).passed, t
        assert verify_contribution_dichotomy(engine, (t,)).passed, t


def test_curve_numeric_conditions():
    failed = []
    for a, b in SMALL_PAIRS:
        engine = curve_engine(a, b)
        failed += [(a, b, t) for t in howald_jumps(a, b, 1) if not verify_numeric_conditions(engine, (t,)).passed]
    assert failed == []


# -- monomial ideals -------------------------------------------------------------


def _order(generators, v) -> int:
    """ord_v of the monomial ideal: the least <v, g> over its generators."""
    return min(v[0] * g[0] + v[1] * g[1] for g in generators)


def monomial_input(ideals) -> tuple[dict, list[tuple[int, int]]]:
    """Input JSON for monomial ideals, each a list of exponents of its
    generators, and the rays of its components in graph order.

    The fan holds (1, 1) and every primitive normal <v, g> = <v, h> of two
    generators of one ideal, so it refines each Newton polygon's normal fan.
    The ideal has multiplicity ord_w on E_w; the axes x = 0 and y = 0 are
    the arrows A1_0 and A0_1, crossing the end rays, with multiplicities
    the least g_x and the least g_y."""
    targets = [(1, 1)]
    for gens in ideals:
        for g in gens:
            for h in gens:
                if g[0] < h[0] and g[1] > h[1]:
                    v = (g[1] - h[1], h[0] - g[0])
                    targets.append((v[0] // gcd(*v), v[1] // gcd(*v)))
    rays = _fan(targets)
    exceptional, edges = _toric_chain(rays)
    ordered = rays[1:-1] + [rays[0], rays[-1]]
    exc_ids = [e["id"] for e in exceptional]
    ids = exc_ids + ["A1_0", "A0_1"]
    raw = {
        "exceptional": exceptional,
        "edges": edges,
        "affine": [{"id": "A1_0", "meets": [exc_ids[0]]}, {"id": "A0_1", "meets": [exc_ids[-1]]}],
        "ideals": [
            {"name": f"a{i}", "mult": {cid: _order(gens, w) for cid, w in zip(ids, ordered)}}
            for i, gens in enumerate(ideals, 1)
        ],
    }
    return raw, ordered


def howald_divisor(ideals, rays, lam) -> list[int]:
    """Howald: x^m lies in the mixed multiplier ideal exactly when
    <v, m + (1, 1)> > sum_i lam_i ord_v(a_i) at every ray v of a fan that
    refines the Newton polygons, axes included.  Per ray w, the least <w, m>
    over those m: each m_x contributes its least m_y, and past the largest
    bound every constraint but the one of (0, 1) is slack."""
    bounds = [sum((c * _order(gens, v) for c, gens in zip(lam, ideals)), Fraction(0)) for v in rays]
    staircase = []
    for mx in range(floor(max(bounds)) + 2):
        if all(v[0] * (mx + 1) > c for v, c in zip(rays, bounds) if v[1] == 0):
            my = max([0] + [floor((c - v[0] * (mx + 1)) / v[1]) for v, c in zip(rays, bounds) if v[1]])
            staircase.append((mx, my))
    return [min(w[0] * mx + w[1] * my for mx, my in staircase) for w in rays]


def _monomial_ideal(rng) -> list[tuple[int, int]]:
    """1-4 generators x^i y^j with 0 <= i, j <= 6, not the unit ideal.  Half
    of the ideals start from pure powers of x and y, so they are m-primary;
    most of the others lack one, so an axis arrow carries multiplicity."""
    while True:
        gens = {(rng.randint(1, 6), 0), (0, rng.randint(1, 6))} if rng.random() < 0.5 else set()
        gens |= {(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 4) - len(gens))}
        if gens and (0, 0) not in gens:
            return sorted(gens)


@pytest.fixture(scope="module")
def monomial_pairs():
    rng = random.Random(20010101)
    pairs = []
    for _ in range(400):
        ideals = [_monomial_ideal(rng), _monomial_ideal(rng)]
        raw, rays = monomial_input(ideals)
        pairs.append((ideals, rays, RegionEngine(build_ideals(validate_graph(raw), raw["ideals"]))))
    return pairs


def test_monomial_canonical_and_mixed_multiplier_ideals(monomial_pairs):
    rng = random.Random(0)
    checked = 0
    for ideals, rays, engine in monomial_pairs:
        want_k = tuple(p + q - 1 for p, q in rays[:-2])
        assert engine.canonical == want_k + (0, 0)
        for _ in range(8):
            den = rng.randint(1, 12)
            lam = (Fraction(rng.randint(0, 2 * den), den), Fraction(rng.randint(0, 2 * den), den))
            assert list(engine.mmi(lam).coeffs) == howald_divisor(ideals, rays, lam), (ideals, lam)
            checked += 1
    assert checked == 3200
    # both kinds occur: m-primary pairs, and pairs where an axis arrow carries multiplicity
    assert 50 < sum(engine.ideals.is_m_primary() for *_, engine in monomial_pairs) < 350


def test_monomial_wall_normals_are_positive(monomial_pairs):
    # every accepted ideal divisor is >= 1 on every exceptional component,
    # m-primary or not, so every wall normal is strictly positive
    walls = 0
    for ideals, _, engine in monomial_pairs:
        n = engine.graph.n_exc
        assert all(min(d.coeffs[:n]) >= 1 for d in engine.ideals.divisors), ideals
        inequalities = engine.region_of((0, 0)).inequalities
        assert all(min(ineq.coeffs) >= 1 for ineq in inequalities), ideals
        walls += len(inequalities)
    assert walls >= len(monomial_pairs)


def test_monomial_verifiers(monomial_pairs):
    for ideals, _, engine in monomial_pairs[:8]:
        for ray in [(1, 0), (0, 1), (1, 1)]:
            for t in engine.wall_ray_restriction(ray, 1):
                lam = (t * ray[0], t * ray[1])
                assert verify_jump_identity(engine, lam).passed, (ideals, lam)
                assert verify_numeric_conditions(engine, lam).passed, (ideals, lam)
                assert verify_contribution_dichotomy(engine, lam).passed, (ideals, lam)


def test_zero_off_rupture_dicritical_fails_a_missed_dicritical(monomial_pairs):
    # On this pair G is a chain through the dicritical E3_1, a member with two
    # member neighbours, so the constructor accepts ends that miss it; the
    # check then sees its nonzero product.  The three example inputs never
    # put a member outside the ends, so only inputs like this one exercise
    # the check.
    ideals, _, engine = monomial_pairs[2]
    fresh, lam = RegionEngine(engine.ideals), (Fraction(0), Fraction(1))
    assert fresh.at(lam).gmin.components == ("E3_1", "E2_1", "E1_1", "A1_0", "A0_1")
    e31 = fresh.graph.index["E3_1"]
    fresh.ends = fresh.ends - {e31}
    report = verify_numeric_conditions(fresh, lam)
    assert [check.name for check in report.failures()] == ["E3_1: zero off rupture/dicritical"], ideals
