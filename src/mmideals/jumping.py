"""Jumping points, minimal jumping divisors, and contribution checks.

A point lam > 0 of the parameter orthant is a jumping point when the mixed
multiplier ideal strictly drops there compared to just before it along the
ray through lam.  The minimal jumping divisor G at lam collects every
component (exceptional or affine, inside the support of sum F_i) whose
weighted multiplicity attains the critical value

    sum_i lam_i e_{i,j} = k_j + 1 + e_j(left limit),

that is, whose wall for the ideal just before lam passes through lam (its
hyperplane is that wall, `PointContext.wall`, the walk's formula), and it
is the smallest reduced divisor one can subtract from the floor divisor so
that the resulting ideal climbs all the way back to the left limit.  The
verifiers below re-check the theorems behind that sentence on concrete
points; they exist so that test suites (and the CLI) can confirm the
algebraic and the combinatorial routes agree.  All three are exact:
closure is monotone, so the dichotomy over all 2^n candidate subsets takes
|G| + 2 closures, with no sampling.

Every function takes a :class:`~mmideals.regions.RegionEngine` and a point,
enters `engine.at(lam)` once and reads the floors, closures, left limit
and `gmin` from that cached per-point context: each is computed once.
"""

from __future__ import annotations

import enum
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
from .graph import IdealDivisorSet, _refuse_non_sequence

if TYPE_CHECKING:
    from .regions import PointContext, RegionEngine

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
]


def is_jumping_point(engine: RegionEngine, lam) -> bool:
    """True when the ideal at lam differs from the ideal just before it.

    Raises ZeroPoint at the origin, where there is no left limit."""
    context = engine.at(lam)
    if not any(context.key[:-1]):
        raise ZeroPoint("the origin is not eligible as a jumping point")
    return context.left != context.divisor


class MinimalJumpingDivisor:
    """The minimal jumping divisor at a jumping point.

    Attributes:
        point: the jumping point.
        components: ids of the members, in graph order.
        valences: id -> number of other members adjacent to it.
        hyperplanes: id -> `WallInequality` of the supporting hyperplane
            sum_i lam_i e_{i,j} = k_j + 1 + e_j(left), the member's wall for
            the ideal just before lam (`PointContext.wall`); its `constant`
            is the right-hand side as a Fraction.
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
    return Divisor._of_ints(ideals.graph, coeffs)


def _closed_without(context: PointContext, members: Sequence[int]) -> Divisor:
    """closure(floor - H) for the reduced divisor H on `members`; floor - 0
    closes to the divisor at the point itself."""
    if not members:
        return context.divisor
    return antinef_closure(context.floor - _indicator_divisor(context.ideals, members))


def minimal_jumping_divisor(engine: RegionEngine, lam) -> MinimalJumpingDivisor:
    """The minimal jumping divisor at a jumping point, computed once per
    point and cached as `engine.at(lam).gmin`.

    Membership is the value equation against the left-limit divisor, which
    is antinef, hence effective: member values lie in Z_{>0}, and at a jump
    the floor exceeds it on a member.  Only the end predicate is checked:
    every exceptional end (a member with at most one member neighbour) is
    in `RegionEngine.ends`.  Affine members are legitimate: they carry the
    jumps of the affine coordinates and count as valuation-carrying ends.
    """
    return engine.at(lam).gmin


def _minimal_jumping_divisor(context: PointContext) -> MinimalJumpingDivisor:
    """The computation behind `PointContext.gmin`; see
    :func:`minimal_jumping_divisor`."""
    coords = context.coords
    if not any(coords):
        raise ZeroPoint("the origin carries no jumping divisor")
    ideals, graph, left = context.ideals, context.graph, context.left
    if left == context.divisor:
        raise NotAJumpingPoint(f"no jump at {tuple(str(c) for c in coords)}")

    support, values, den = ideals.support, context.values, context.den
    members = [j for j in range(graph.n_total) if j in support and values[j] == (1 + left.coeffs[j]) * den]
    member_set = set(members)
    valences = {graph.ids[j]: sum(1 for nb in graph.adjacency[j] if nb in member_set) for j in members}

    for j in members:
        if valences[graph.ids[j]] <= 1 and j < graph.n_exc and j not in context.ends:
            raise InternalInvariant(
                f"end component {graph.ids[j]} of the jumping divisor is neither rupture nor dicritical "
                "nor crossed by an affine component with multiplicity"
            )

    return MinimalJumpingDivisor(
        point=coords,
        components=tuple(graph.ids[j] for j in members),
        valences=valences,
        hyperplanes={graph.ids[j]: context.wall(j, left) for j in members},
        divisor=_indicator_divisor(ideals, members),
    )


class Contribution(enum.Enum):
    NO = "NoContribution"
    CONTRIBUTES = "Contributes"
    CRITICALLY = "ContributesCritically"


def _reduced_divisor(ideals: IdealDivisorSet, component_ids: Sequence[str]) -> list[int]:
    _refuse_non_sequence(component_ids, "components", "component ids")
    graph = ideals.graph
    members: list[int] = []
    seen: set[str] = set()
    for cid in component_ids:
        if cid in seen:
            raise PreconditionViolated(f"component {cid!r} listed twice in a reduced divisor")
        seen.add(cid)
        if cid not in graph.index:
            raise DanglingReference(f"unknown component id {cid!r}")
        j = graph.index[cid]
        if j not in ideals.support:
            raise PreconditionViolated(f"{cid!r} is outside the support of the ideal divisors")
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
        if context.values[j] % context.den:
            value = Fraction(context.values[j], context.den)
            raise IntegralityViolated(f"value {value} at {ideals.graph.ids[j]} is not an integer")
    at = context.divisor
    if _closed_without(context, members) == at:
        return Contribution.NO
    # Closure is monotone, so a proper subdivisor H of G contributes exactly
    # when a maximal one G - {j} containing H does: floor - (G - {j}) <=
    # floor - H puts its closure at or below that of H, strictly below `at`.
    for j in members:
        if _closed_without(context, [i for i in members if i != j]) != at:
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
    def __init__(self, kind: str, point, checks: list[Check]):
        self.kind = kind
        self.point = point
        self.checks = checks

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
            left.le(at),  # left != at: else minimal_jumping_divisor raised NotAJumpingPoint
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
    integer, zero unless E_i is rupture or dicritical; a component crossed by
    an affine component with multiplicity counts as dicritical, as it does
    for G (`RegionEngine.ends`).  That every exceptional end of G is one is
    not checked here: the constructor of G raises first, and a member outside
    the ends with at most one member neighbour has a negative expansion.
    """
    context = engine.at(lam)
    coords, values, den = context.coords, context.values, context.den
    gmin = context.gmin
    ideals, graph = engine.ideals, engine.graph
    # ceil(K - lam.F) is exactly -floor(lam.F - K)
    ceil_part = Divisor._of_ints(graph, [-c for c in context.floor.coeffs])
    with_g = ceil_part + gmin.divisor

    member_idx = [graph.index[cid] for cid in gmin.components]
    checks: list[Check] = []
    for i in member_idx:
        if i >= graph.n_exc:
            continue
        cid = graph.ids[i]
        direct = graph.dot_exceptional(with_g.coeffs, i)
        # the expansion times den, on integers: den * lam_m is L * n_m for the
        # key (n_1, .., n_r, m) of lam, and den * frac(q_j) is v_j mod den
        expansion = (
            (gmin.valences[cid] - 2) * den
            + sum(engine.scale * n * rho[i] for n, rho in zip(context.key[:-1], ideals.excess))
            + sum(values[nb] % den for nb in graph.adjacency[i])
        )
        details = {"component": cid, "direct": str(direct), "expansion": str(Fraction(expansion, den))}
        checks.append(Check(f"{cid}: direct == expansion", direct * den == expansion, details))
        checks.append(Check(f"{cid}: integer", expansion % den == 0, details))
        checks.append(Check(f"{cid}: nonnegative", direct >= 0, details))
        if i not in engine.ends:
            checks.append(Check(f"{cid}: zero off rupture/dicritical", direct == 0, details))
    return VerificationReport("numeric_conditions", coords, checks)


def verify_contribution_dichotomy(engine: RegionEngine, lam) -> VerificationReport:
    """Check the contribution dichotomy at a jumping point, exactly over all
    reduced divisors H on the integral-valued candidate components C (they
    hold G: the left limit is effective, so a member's value 1 + e_j(left) is
    at least 1): closure(floor - H) lies between the left limit and the ideal
    at lam, and equals the left limit exactly when H contains G.

    Closure is monotone, so |G| + 2 closures settle all 2^n subsets: the
    lower side holds for every H once it holds for C, and the upper side
    always does; the iff holds once floor - G closes to the left limit and,
    for each j in G, floor - (C - {j}) does not, since every H without j
    lies inside C - {j}.
    """
    context = engine.at(lam)
    gmin = context.gmin
    graph, left = engine.graph, context.left
    values, den = context.values, context.den

    candidates = [j for j in sorted(engine.ideals.support) if values[j] % den == 0 and values[j] >= den]
    members = [graph.index[cid] for cid in gmin.components]

    lowest = _closed_without(context, candidates)
    from_g = lowest if len(members) == len(candidates) else _closed_without(context, members)
    redundant = [
        graph.ids[j] for j in members if _closed_without(context, [i for i in candidates if i != j]) == left
    ]
    reaches_left = from_g == left
    checks = [
        Check(
            "every candidate ideal sits between the jump levels",
            left.le(lowest),
            {"left": list(left.coeffs), "lowest": list(lowest.coeffs)},
        ),
        Check(
            "left limit reached exactly by supersets of G",
            reaches_left and not redundant,
            {"reaches_left": reaches_left, "redundant": redundant},
        ),
    ]
    return VerificationReport("contribution_dichotomy", context.coords, checks)
