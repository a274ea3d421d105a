"""Jumping points, minimal jumping divisors, and contribution checks.

A point lam > 0 of the parameter orthant is a jumping point when the mixed
multiplier ideal strictly drops there compared to just before it along the
ray through lam.  The minimal jumping divisor G at lam collects every
component (exceptional or affine, inside the support of sum F_i) whose
weighted multiplicity attains the critical value

    sum_i lam_i e_{i,j} = k_j + 1 + e_j(left limit),

and it is the smallest reduced divisor one can subtract from the floor
divisor so that the resulting ideal climbs all the way back to the left
limit.  The verifiers below re-check the theorems behind that sentence on
concrete points; they exist so that test suites (and the CLI) can confirm
the algebraic and the combinatorial routes agree.

Every function takes a :class:`~mmideals.regions.RegionEngine` and a point,
and reads the floors, closures and left limits from the engine's cached
per-point context `engine.at(lam)`, so each is computed once per point.
"""

from __future__ import annotations

import enum
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .divisors import Divisor, antinef_closure
from .errors import (
    DanglingReference,
    IntegralityViolated,
    InternalInvariant,
    NotAJumpingPoint,
    PreconditionViolated,
    ZeroPoint,
)
from .graph import IdealDivisorSet

if TYPE_CHECKING:
    from .regions import RegionEngine

__all__ = [
    "Contribution",
    "MinimalJumpingDivisor",
    "Check",
    "VerificationReport",
    "is_jumping_point",
    "minimal_jumping_divisor",
    "contributes",
    "verify_jump_identity",
    "verify_numeric_conditions",
    "verify_contribution_dichotomy",
    "SUBSET_CAP",
]

# Above this many candidate subsets the contribution dichotomy samples them.
SUBSET_CAP = 2**16


def is_jumping_point(engine: RegionEngine, lam) -> bool:
    """True when the ideal at lam differs from the ideal just before it.

    Raises ZeroPoint at the origin, where there is no left limit."""
    context = engine.at(lam)
    if not any(context.coords):
        raise ZeroPoint("the origin is not eligible as a jumping point")
    return context.left != context.divisor


class MinimalJumpingDivisor:
    """The minimal jumping divisor at a jumping point.

    Attributes:
        point: the jumping point.
        components: ids of the members, in graph order.
        valences: id -> number of other members adjacent to it.
        hyperplanes: id -> (normal, constant) of the supporting hyperplane
            sum_i lam_i e_{i,j} = k_j + 1 + e_j(left).
        divisor: the reduced divisor on the members (0/1 coefficients).
    """

    def __init__(self, point, components, valences, hyperplanes, divisor):
        self.point = point
        self.components = components
        self.valences = valences
        self.hyperplanes = hyperplanes
        self.divisor = divisor

    def __repr__(self):
        return f"MinimalJumpingDivisor({' + '.join(self.components) or '0'})"


def _indicator_divisor(ideals: IdealDivisorSet, members: Iterable[int]) -> Divisor:
    coeffs = [0] * ideals.graph.n_total
    for j in members:
        coeffs[j] = 1
    return Divisor(ideals.graph, coeffs)


def _connected_parts(graph, members: list[int]) -> list[list[int]]:
    member_set = set(members)
    remaining = set(members)
    parts = []
    while remaining:
        start = min(remaining)
        block = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for j in frontier:
                for nb in graph.adjacency[j]:
                    if nb in member_set and nb not in block:
                        block.add(nb)
                        nxt.append(nb)
            frontier = nxt
        parts.append(sorted(block))
        remaining -= block
    return parts


def minimal_jumping_divisor(engine: RegionEngine, lam) -> MinimalJumpingDivisor:
    """Compute the minimal jumping divisor at a jumping point.

    Membership is the value equation against the left-limit divisor; the
    structural invariants (values in Z_{>0}; every end, a member with at most
    one member neighbour, rupture or dicritical) are validated before
    returning.  Affine members are legitimate: they carry the jumps of the
    affine coordinates and count as valuation-carrying ends.
    `engine.at(lam).gmin` caches the result.
    """
    context = engine.at(lam)
    coords = context.coords
    if not any(coords):
        raise ZeroPoint("the origin carries no jumping divisor")
    ideals, graph = engine.ideals, engine.graph
    left = context.left
    if left == context.divisor:
        raise NotAJumpingPoint(f"no jump at {tuple(str(c) for c in coords)}")

    total = ideals.total()
    rows = context.rows
    members: list[int] = []
    hyperplanes: dict[str, tuple[tuple[int, ...], Fraction]] = {}
    for j in range(graph.n_total):
        if total.coeffs[j] <= 0:
            continue
        form, q = rows[j]
        if q == 1 + left.coeffs[j]:
            members.append(j)
            normal = tuple(d.coeffs[j] for d in ideals.divisors)
            hyperplanes[graph.ids[j]] = (normal, form)
    if not members:
        raise InternalInvariant("jumping point without attaining components")
    for j in members:
        _, q = rows[j]
        if q.denominator != 1 or q < 1:
            raise InternalInvariant(f"member value {q} at {graph.ids[j]} is not a positive integer")

    member_set = set(members)
    valences = {
        graph.ids[j]: sum(1 for nb in graph.adjacency[j] if nb in member_set) for j in members
    }

    relevant = set(engine.classification.wall_relevant)
    # An exceptional end may also be crossed by an affine component that
    # carries multiplicity; that crossing plays the dicritical role when the
    # ideals are not m-primary.
    crossed = {
        j
        for j in range(graph.n_exc)
        if any(total.coeffs[a] > 0 for a in graph.aff_cross[j])
    }
    for j in members:
        if valences[graph.ids[j]] <= 1 and j < graph.n_exc and j not in relevant and j not in crossed:
            raise InternalInvariant(
                f"end component {graph.ids[j]} of the jumping divisor is neither "
                "rupture nor dicritical nor crossed by an affine component "
                "with multiplicity"
            )

    return MinimalJumpingDivisor(
        point=coords,
        components=tuple(graph.ids[j] for j in members),
        valences=valences,
        hyperplanes=hyperplanes,
        divisor=_indicator_divisor(ideals, members),
    )


class Contribution(enum.Enum):
    NO = "NoContribution"
    CONTRIBUTES = "Contributes"
    CRITICALLY = "ContributesCritically"


def _reduced_divisor(ideals: IdealDivisorSet, component_ids: Sequence[str]) -> list[int]:
    graph = ideals.graph
    total = ideals.total()
    members: list[int] = []
    seen: set[str] = set()
    for cid in component_ids:
        if cid in seen:
            raise PreconditionViolated(f"component {cid!r} listed twice in a reduced divisor")
        seen.add(cid)
        if cid not in graph.index:
            raise DanglingReference(f"unknown component id {cid!r}")
        j = graph.index[cid]
        if total.coeffs[j] <= 0:
            raise PreconditionViolated(
                f"{cid!r} is outside the support of the ideal divisors"
            )
        members.append(j)
    return sorted(members)


def contributes(engine: RegionEngine, component_ids: Sequence[str], lam) -> Contribution:
    """Does the reduced divisor G on the given components contribute to the
    ideal at lam, and if so, critically?

    G contributes when subtracting it from the floor divisor enlarges the
    ideal; critically when no proper subdivisor does.  Components whose value
    sum_i lam_i e_{i,j} - k_j is not an integer make the question meaningless
    and raise IntegralityViolated.
    """
    context = engine.at(lam)
    ideals = engine.ideals
    members = _reduced_divisor(ideals, component_ids)
    for j in members:
        _, q = context.rows[j]
        if q.denominator != 1:
            raise IntegralityViolated(
                f"value {q} at {ideals.graph.ids[j]} is not an integer"
            )
    floor_div, at = context.floor, context.divisor
    full = antinef_closure(floor_div - _indicator_divisor(ideals, members))
    if full == at:
        return Contribution.NO
    # Closure is monotone, so a proper subdivisor H of G contributes exactly
    # when a maximal one G - {j} containing H does: floor - (G - {j}) <=
    # floor - H puts its closure at or below that of H, strictly below `at`.
    for j in members:
        rest = [i for i in members if i != j]
        if antinef_closure(floor_div - _indicator_divisor(ideals, rest)) != at:
            return Contribution.CONTRIBUTES
    return Contribution.CRITICALLY


class Check:
    __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: dict):
        self.name = name
        self.passed = passed
        self.details = details

    def __repr__(self):
        return f"Check({self.name}: {'ok' if self.passed else 'FAIL'})"


class VerificationReport:
    def __init__(self, kind: str, point, checks: list[Check], partial: bool = False):
        self.kind = kind
        self.point = point
        self.checks = checks
        self.partial = partial

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __repr__(self):
        state = "passed" if self.passed else f"{len(self.failures())} failures"
        return f"VerificationReport({self.kind}, {state})"


def _fmt_divisor(d: Divisor) -> list[str]:
    return [str(c) for c in d.coeffs]


def verify_jump_identity(engine: RegionEngine, lam) -> VerificationReport:
    """Check both unloading identities that characterize the minimal jumping
    divisor G at a jumping point: the closure of (left-limit divisor + G) and
    of (left floor + G) must each equal the divisor at lam."""
    context = engine.at(lam)
    gmin = context.gmin
    at, left = context.divisor, context.left

    from_closed = antinef_closure(left + gmin.divisor)
    from_floor = antinef_closure(context.left_floor + gmin.divisor)
    checks = [
        Check(
            "closure(left_limit + G) == divisor_at",
            from_closed == at,
            {"got": _fmt_divisor(from_closed), "expected": _fmt_divisor(at)},
        ),
        Check(
            "closure(left_floor + G) == divisor_at",
            from_floor == at,
            {"got": _fmt_divisor(from_floor), "expected": _fmt_divisor(at)},
        ),
        Check(
            "left limit strictly below",
            left.le(at) and left != at,
            {"left": _fmt_divisor(left), "at": _fmt_divisor(at)},
        ),
    ]
    return VerificationReport("jump_identity", context.coords, checks)


def verify_numeric_conditions(engine: RegionEngine, lam) -> VerificationReport:
    """Intersection-theoretic sanity of the minimal jumping divisor.

    For every exceptional member E_i of G the product
    (ceil(K - lam.F) + G) . E_i is computed twice: directly, and through the
    adjunction expansion

        -2 + sum_m lam_m rho_{m,i} + a_G(E_i) + sum_{adjacent j} frac(q_j),

    where frac is the fractional part of the value at the neighbor (affine
    neighbors included, with k = 0).  Both routes must agree on a nonnegative
    integer, zero unless E_i is rupture or dicritical.
    """
    context = engine.at(lam)
    coords, rows = context.coords, context.rows
    gmin = context.gmin
    ideals, graph = engine.ideals, engine.graph
    # ceil(K - lam.F) is exactly -floor(lam.F - K)
    ceil_part = Divisor(graph, [-c for c in context.floor.coeffs])
    with_g = ceil_part + gmin.divisor
    special = set(engine.classification.wall_relevant)

    member_idx = [graph.index[cid] for cid in gmin.components]
    checks: list[Check] = []
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
            + sum(
                (coords[m] * ideals.excess[m][i] for m in range(ideals.r)),
                Fraction(0),
            )
            + gmin.valences[cid]
            + frac_sum
        )
        details = {"component": cid, "direct": str(direct), "expansion": str(expansion)}
        checks.append(Check(f"{cid}: direct == expansion", direct == expansion, details))
        checks.append(Check(f"{cid}: integer", direct.denominator == 1, details))
        checks.append(Check(f"{cid}: nonnegative", direct >= 0, details))
        if i not in special:
            checks.append(Check(f"{cid}: zero off rupture/dicritical", direct == 0, details))

    for block in _connected_parts(graph, member_idx):
        for j in block:
            if gmin.valences[graph.ids[j]] <= 1 and j < graph.n_exc:
                checks.append(
                    Check(
                        f"{graph.ids[j]}: end is rupture or dicritical",
                        j in special,
                        {"component": graph.ids[j]},
                    )
                )
    return VerificationReport("numeric_conditions", coords, checks)


def verify_contribution_dichotomy(engine: RegionEngine, lam) -> VerificationReport:
    """Sweep reduced divisors on integral-valued components at a jumping
    point and check the dichotomy: every candidate ideal sits between the
    ideal at lam and its left limit, and it equals the left limit exactly
    when the candidate contains the minimal jumping divisor.

    When the 2^n subsets of the n candidate components exceed SUBSET_CAP,
    a seeded sample of 1024 subsets plus the empty and the full one is
    checked instead and the report is flagged partial.
    """
    context = engine.at(lam)
    gmin = context.gmin
    ideals, graph = engine.ideals, engine.graph
    at, left, floor_div, rows = context.divisor, context.left, context.floor, context.rows
    total = ideals.total()

    candidates = [
        j
        for j in range(graph.n_total)
        if total.coeffs[j] > 0 and rows[j][1].denominator == 1 and rows[j][1] >= 1
    ]
    gmin_idx = frozenset(graph.index[cid] for cid in gmin.components)
    if not gmin_idx <= set(candidates):
        raise InternalInvariant("minimal jumping divisor escapes the candidate set")

    n = len(candidates)
    universe = 1 << n
    partial = universe > SUBSET_CAP
    if partial:
        # Sampling keeps the check useful without 2^n closures; anchor with
        # the empty and the full subset, which pin both sides of the iff.
        rng = random.Random(0)
        masks: Iterable[int] = sorted({rng.randrange(universe) for _ in range(1024)} | {0, universe - 1})
    else:
        masks = range(universe)

    checks: list[Check] = []
    bad_between = 0
    bad_iff = 0
    count = 0
    for mask in masks:
        count += 1
        subset = frozenset(candidates[i] for i in range(n) if mask >> i & 1)
        # The empty subset closes floor - 0, which is `at` itself.
        closed = antinef_closure(floor_div - _indicator_divisor(ideals, subset)) if subset else at
        if not (left.le(closed) and closed.le(at)):
            bad_between += 1
        reaches_left = closed == left
        contains_gmin = gmin_idx <= subset
        if reaches_left != contains_gmin:
            bad_iff += 1
    checks.append(
        Check(
            "every candidate ideal sits between the jump levels",
            bad_between == 0,
            {"violations": bad_between, "checked": count},
        )
    )
    checks.append(
        Check(
            "left limit reached exactly by supersets of G",
            bad_iff == 0,
            {"violations": bad_iff, "checked": count},
        )
    )
    return VerificationReport("contribution_dichotomy", context.coords, checks, partial=partial)
