"""Independent oracles: closed forms from the theory, not the program.

Curves x^a + y^b with a, b coprime.  The toric resolution is built here from
the regular fan of the quadrant that holds the ray (b, a); the relative
canonical divisor of a toric blow-up and Howald's jumping numbers for
non-degenerate curves are then known in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from mmideals import RegionEngine
from mmideals.graph import validate_graph
from mmideals.io import build_ideals
from mmideals.jumping import verify_contribution_dichotomy, verify_jump_identity, verify_numeric_conditions

# the 45 coprime pairs 2 <= a < b <= 13
COPRIME_PAIRS = [(a, b) for b in range(3, 14) for a in range(2, b) if gcd(a, b) == 1]
SMALL_PAIRS = [(2, 3), (2, 5), (3, 4), (3, 5)]


def _fan(target: tuple[int, int]) -> list[tuple[int, int]]:
    """Rays of the regular fan of the first quadrant that contains `target`,
    ordered by slope from (1, 0) to (0, 1): u + v is inserted into the cone
    {u, v} holding the target until the target is a ray."""
    rays = [(1, 0), (0, 1)]
    u, v = rays
    while target not in rays:
        w = (u[0] + v[0], u[1] + v[1])
        rays.append(w)
        # a target of smaller slope than w lies in the cone {u, w}
        if w[0] * target[1] < w[1] * target[0]:
            v = w
        else:
            u = w
    return sorted(rays, key=lambda r: Fraction(r[1], r[0] + r[1]))


def curve_input(a: int, b: int) -> dict:
    """Input JSON for the curve x^a + y^b on its toric resolution.

    Each inner ray w = (p, q) is an exceptional curve E_p_q with
    E_w^2 = -s where v_prev + v_next = s w; the curve has multiplicity
    min(a p, b q) on it, and its strict transform is an affine arrow of
    multiplicity 1 crossing E_b_a."""
    rays = _fan((b, a))
    exceptional, mult = [], {}
    for prev, (p, q), nxt in zip(rays, rays[1:-1], rays[2:]):
        s = (prev[0] + nxt[0]) // p
        assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (s * p, s * q)
        exceptional.append({"id": f"E{p}_{q}", "self": -s})
        mult[f"E{p}_{q}"] = min(a * p, b * q)
    ids = [e["id"] for e in exceptional]
    mult["C"] = 1
    return {
        "exceptional": exceptional,
        "edges": [[x, y] for x, y in zip(ids, ids[1:])],
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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: an end of the minimal jumping divisor crossed by the curve "
    "(E3_2 for the cusp at 5/6) is neither rupture nor dicritical, so the "
    "'end is rupture or dicritical' check fails",
)
def test_curve_numeric_conditions():
    failed = []
    for a, b in SMALL_PAIRS:
        engine = curve_engine(a, b)
        failed += [(a, b, t) for t in howald_jumps(a, b, 1) if not verify_numeric_conditions(engine, (t,)).passed]
    assert failed == []
