"""Constancy regions, walls, facets, and the wall-walking enumerator.

The parameter space is the nonnegative orthant of tuples lam = (lam_1..lam_r)
weighting the ideals.  Around each point the mixed multiplier ideal is
constant on a region cut out by strict inequalities

    sum_i lam'_i e_{i,j}  <  k_j + 1 + e_j(lam)

with one wall per rupture or dicritical exceptional component E_j; e_j(lam)
is the coefficient of the antinef divisor at lam.  For two ideals the regions
are convex polygons containing the origin, and the enumerator walks outward
from 0, one region per distinct ideal, picking one interior point of every
outer facet as the seed for the next region.

All geometry is exact and runs on integers: with L the lcm of the
denominators of K, a wall is the integer normal a and integer constant C
meaning a . z < C / L, and floors come from integer numerators.  Membership,
boundedness, facets and vertices are all answered from these walls: each
wall line is clipped to the region once (`_edges`), and both the facets and
the closure's vertices, which the SVG outline draws, are read off its edge.
A Fraction is built only for a value the walk emits (wall constants, facet
points, seeds).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .divisors import Divisor, antinef_closure, parse_point
from .errors import (
    DanglingReference,
    DimensionMismatch,
    GeometryDegeneracy,
    InternalInvariant,
    LimitReached,
    PreconditionViolated,
    UnsupportedGeometry,
    ZeroPoint,
)
from .graph import Classification, IdealDivisorSet, _as_fraction, relative_canonical
from .jumping import _minimal_jumping_divisor

__all__ = [
    "WallInequality",
    "RegionPolytope",
    "CFacet",
    "ConstancyRecord",
    "EnumerationResult",
    "PointContext",
    "RegionEngine",
    "next_jumping_number",
]

Point = tuple  # tuple[Fraction, ...]

# Size caps a request can reach; hitting one raises LimitReached (exit 2).
ENUMERATION_GUARD = 200_000  # walk steps
CHAIN_GUARD = 100_000  # jumping numbers computed along one ray


class WallInequality:
    """One strict inequality coeffs . z < constant; `numerator` is the
    integer constant * L, L the lcm of the denominators of K."""

    __slots__ = ("component", "coeffs", "constant", "numerator")

    def __init__(self, component: str, coeffs: tuple[int, ...], constant: Fraction, numerator: int):
        self.component = component
        self.coeffs = coeffs
        self.constant = constant
        self.numerator = numerator

    def __repr__(self):
        lhs = " + ".join(f"{a}*z{i + 1}" for i, a in enumerate(self.coeffs))
        return f"{self.component}: {lhs} < {self.constant}"


class RegionPolytope:
    """Constancy region of the ideal at `lam`: open convex polytope
    {z >= 0, coeffs . z < constant for every wall}.

    `halfplanes` lists its closure as integer rows (a, C) meaning a . z <=
    C / L, one axis row -z_i <= 0 per coordinate first; `scale` is L.
    """

    def __init__(self, lam: Point, divisor: Divisor, inequalities: tuple[WallInequality, ...], scale: int):
        self.lam = lam
        self.divisor = divisor
        self.inequalities = inequalities
        self.scale = scale

    @cached_property
    def halfplanes(self) -> list[tuple[int, ...]]:
        r = len(self.lam)
        axes = [(*(-int(i == axis) for i in range(r)), 0) for axis in range(r)]
        return axes + [(*ineq.coeffs, ineq.numerator) for ineq in self.inequalities]

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Strict membership (points on a wall are outside), tested as
        L * (a . nums) < C * m on the point's numerators nums over m."""
        if len(point) != len(self.lam):
            raise DimensionMismatch("point dimension does not match the region")
        if any(z < 0 for z in point):
            return False
        nums, m = _over_lcm(point)
        return all(
            self.scale * sum(map(operator.mul, ineq.coeffs, nums)) < ineq.numerator * m for ineq in self.inequalities
        )

    @property
    def bounded(self) -> bool:
        """Every normal is nonnegative, so the region is bounded exactly when
        each axis has a wall with a positive coefficient there."""
        return all(any(ineq.coeffs[axis] > 0 for ineq in self.inequalities) for axis in range(len(self.lam)))

    def vertices(self) -> list[tuple[Fraction, Fraction]]:
        """Vertices of the closure of a two-ideal region: the origin, then
        the ends of the wall edges by (x, -y).  The closure is convex with
        the axes as two sides, so that order walks its boundary."""
        if len(self.lam) != 2:
            raise UnsupportedGeometry("region vertices are computed for two ideals only")
        ends = {_line_point(line, self.scale, t) for *_, line, lo, hi in _edges(self) for t in (lo, hi)}
        return [(Fraction(0), Fraction(0))] + sorted(ends, key=lambda p: (p[0], -p[1]))

    def __repr__(self):
        return f"RegionPolytope(lam={self.lam}, walls={len(self.inequalities)})"


class CFacet:
    """One facet of a constancy region: a maximal piece of a wall line not
    covered by the closures of previously computed regions.

    `start`/`end` are the endpoints of the closure of the piece; `midpoint`
    is its barycenter and always lies in the relative interior.  For a single
    ideal (r = 1) facets degenerate to points and the three coincide.
    """

    __slots__ = ("component", "coeffs", "constant", "start", "end", "midpoint")

    def __init__(self, component, coeffs, constant, start, end, midpoint):
        self.component = component
        self.coeffs = coeffs
        self.constant = constant
        self.start = start
        self.end = end
        self.midpoint = midpoint

    def __repr__(self):
        return f"CFacet({self.component}, {self.start} -> {self.end})"


class ConstancyRecord:
    """A discovered constancy region: every representative point that landed
    in it, its divisor, its wall polytope, and its outer facets."""

    def __init__(self, index, representative, divisor, region, cfacets, predecessors, truncated):
        self.index = index
        self.representative = representative
        self.representatives = [representative]
        self.divisor = divisor
        self.region = region
        self.cfacets = cfacets
        self.predecessors = predecessors
        self.truncated = truncated

    def __repr__(self):
        return f"ConstancyRecord({self.index}, rep={self.representative})"


class EnumerationResult:
    def __init__(self, box, by_divisor, representatives, queue, warnings, m_primary):
        self.box = box
        self.by_divisor = by_divisor  # divisor -> its record, in discovery order
        self.records = list(by_divisor.values())
        self.representatives = representatives  # processed points, in order (D)
        self.queue = queue  # unprocessed seeds left over (N)
        self.warnings = warnings
        self.m_primary = m_primary


def _over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


# -- exact line clipping ------------------------------------------------------


def _wall_line(coeffs: tuple[int, int], numerator: int, normals) -> tuple[int, ...]:
    """The line of a wall, as _clip_parameter takes it, for half-planes
    with the given normals (b1, b2)."""
    a1, a2 = coeffs
    m = math.lcm(*(alpha for b1, b2 in normals if (alpha := b1 * a2 - b2 * a1)))
    return (a1, a2, a1, numerator, 0, m) if a1 != 0 else (a1, a2, a2, 0, numerator, m)


def _clip_parameter(halfplanes, line, lo, hi):
    """Intersect a wall line with half-planes (b1, b2, D) meaning
    b . z <= D / L; returns (lo, hi), None for an unbounded side, or None.

    `line` = (a1, a2, s, u1, u2, m) is the wall a . z = C / L (a >= 0) as
    z(T) = (m * u + T * (a2, -a1)) / (L * s * m), with s = a1, u = (C, 0)
    when a1 != 0, else s = a2, u = (0, C).  A half-plane reads
    (b1 * a2 - b2 * a1) * T <= m * (D * s - b . u), and m is a multiple of
    every b1 * a2 - b2 * a1, so every bound on T is an integer.
    """
    a1, a2, s, u1, u2, m = line
    for b1, b2, d in halfplanes:
        alpha = b1 * a2 - b2 * a1
        beta = d * s - b1 * u1 - b2 * u2
        if alpha == 0:
            if beta < 0:
                return None
            continue
        bound = beta * (m // alpha)
        if alpha > 0:
            if hi is None or bound < hi:
                hi = bound
        else:
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _line_point(line, scale: int, t: int, k: int = 1) -> Point:
    """The point z(t / k) of a wall line (see _clip_parameter), as Fractions."""
    a1, a2, s, u1, u2, m = line
    den = k * scale * s * m
    return (Fraction(k * m * u1 + t * a2, den), Fraction(k * m * u2 - t * a1, den))


def _edges(region: RegionPolytope, extra_planes=()):
    """The edge of every wall of a two-ideal region: yields (row, wall, line,
    lo, hi), `row` the wall's index in `halfplanes`, for each wall whose
    line meets the closure in a segment [lo, hi] with lo < hi.  The normals
    of `extra_planes` join the line's denominator, so clipping the line to
    them too gives integer bounds."""
    planes = region.halfplanes
    normals = [plane[:2] for plane in (*planes, *extra_planes)]
    for row, wall in enumerate(region.inequalities, start=len(region.lam)):
        if not any(wall.coeffs):
            continue
        line = _wall_line(wall.coeffs, wall.numerator, normals)
        span = _clip_parameter(planes, line, None, None)
        if span is None:
            continue
        lo, hi = span
        if lo is None or hi is None:
            raise GeometryDegeneracy(f"unbounded wall segment at {wall.component}")
        if lo < hi:
            yield row, wall, line, lo, hi


def _subtract_intervals(lo: int, hi: int, cuts: list[tuple[int, int]]):
    """Closed base interval minus a union of closed cuts; returns the
    closures of the surviving open pieces, dropping zero-length remnants."""
    trimmed = []
    for u0, u1 in cuts:
        u0 = max(u0, lo)
        u1 = min(u1, hi)
        if u0 <= u1:
            trimmed.append((u0, u1))
    trimmed.sort()
    merged: list[list[int]] = []
    for u0, u1 in trimmed:
        if merged and u0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], u1)
        else:
            merged.append([u0, u1])
    pieces = []
    cursor = lo
    for u0, u1 in merged:
        if u0 > cursor:
            pieces.append((cursor, u0))
        cursor = max(cursor, u1)
    if hi > cursor:
        pieces.append((cursor, hi))
    return pieces


# -- the engine ---------------------------------------------------------------


class PointContext:
    """Everything asked at one point lam of the orthant.

    Built by :meth:`RegionEngine.at`, which caches it.  Filled at once:
    `coords`; lam . F - K as integer numerators `values` over `den`, with
    whether each form sum_i lam_i e_{i,j} is `positive`; `floor` = values //
    den and its antinef closure `divisor`, which encodes the mixed multiplier
    ideal at lam.  Computed on first use: `left_floor`, its closure `left`
    (the ideal just before lam along the ray) and the minimal jumping divisor
    `gmin`.  A walk therefore pays one closure per point.

    It keeps what it uses, not the engine, so the two form no reference
    cycle.
    """

    def __init__(self, engine: "RegionEngine", coords: Point):
        self.graph, self.ideals = engine.graph, engine.ideals
        self.canonical, self.classification = engine.canonical, engine.classification
        self.coords = coords
        self.values, self.positive, self.den = engine._numerators(coords)
        self.floor = Divisor._of_ints(engine.graph, [v // self.den for v in self.values])
        self.divisor = antinef_closure(self.floor)

    @cached_property
    def left_floor(self) -> Divisor:
        """floor of q = lam . F - K "just before" lam: (v - 1) // den where the
        form is positive (q - 1 at integers, floor(q) elsewhere), v // den
        otherwise.  This is the exact eps -> 0+ limit of floor((1 - eps) *
        form - k): coordinates with form = 0 never move."""
        den = self.den
        return Divisor._of_ints(self.graph, [(v - pos) // den for v, pos in zip(self.values, self.positive)])

    @cached_property
    def left(self) -> Divisor:
        """Antinef divisor of the ideal at (1 - eps) * lam for eps -> 0+.
        Undefined at the origin (there is nothing to the left of 0)."""
        if not any(self.coords):
            raise ZeroPoint("left limit undefined at the origin")
        return antinef_closure(self.left_floor)

    @cached_property
    def gmin(self):
        """The minimal jumping divisor (see :mod:`mmideals.jumping`)."""
        return _minimal_jumping_divisor(self)


class RegionEngine:
    """Bundles a graph, an ideal tuple and the relative canonical divisor,
    and answers all region-level questions about the family.

    Walls come from rupture and dicritical exceptional components only: the
    wall theorem needs no more for m-primary tuples (reports expose
    `m_primary` so callers can tell when that guarantee applies).
    """

    def __init__(self, ideals: IdealDivisorSet):
        self.ideals = ideals
        self.graph = ideals.graph
        self.canonical = relative_canonical(self.graph)
        self.classification = Classification(self.graph, ideals)
        # L = `scale`, the lcm of the denominators of K; per component j the
        # normal (e_{1,j}, ..., e_{r,j}) and L * k_j
        scaled_k, self.scale = _over_lcm(self.canonical.coeffs)
        self._columns = list(zip(zip(*(d.coeffs for d in ideals.divisors)), scaled_k))
        self._points: dict[Point, PointContext] = {}

    @property
    def r(self) -> int:
        return self.ideals.r

    # -- pointwise data ---------------------------------------------------

    def point(self, lam) -> Point:
        return parse_point(lam, self.r)

    def at(self, lam) -> PointContext:
        """The cached per-point context at lam."""
        coords = self.point(lam)
        context = self._points.get(coords)
        if context is None:
            context = self._points[coords] = PointContext(self, coords)
        return context

    def mmi(self, lam) -> Divisor:
        return self.at(lam).divisor

    def _numerators(self, coords: Point) -> tuple[list[int], list[bool], int]:
        """lam . F - K per component as integer numerators v_j over den =
        m * L, m the lcm of the denominators of lam, with the sign of each
        form sum_i lam_i e_{i,j}: returns (v, form > 0, den)."""
        nums, m = _over_lcm(coords)
        forms = [sum(map(operator.mul, nums, normal)) for normal, _ in self._columns]
        values = [self.scale * form - m * k for form, (_, k) in zip(forms, self._columns)]
        return values, [form > 0 for form in forms], m * self.scale

    def membership(self, lam_prime, lam) -> bool:
        """Does the ideal at lam_prime contain the ideal at lam?

        Decided componentwise: floor(lam'-value - k) <= e(lam) at every
        component, affine ones included.  Agrees with the wall polytope for
        lam_prime off the closure boundary cases by the region theorem; kept
        as an independent route on purpose.
        """
        values, _, den = self._numerators(self.point(lam_prime))
        return all(v // den <= e for v, e in zip(values, self.mmi(lam).coeffs))

    def region_of(self, lam) -> RegionPolytope:
        """Wall polytope of the constancy region holding lam.

        One strict inequality per wall-relevant (rupture or dicritical)
        exceptional component; every constant k_j + 1 + e_j(lam) is positive,
        so the origin always lies inside.
        """
        context = self.at(lam)
        divisor = context.divisor
        ineqs = tuple(self._wall(j, divisor) for j in self.classification.wall_relevant)
        region = RegionPolytope(context.coords, divisor, ineqs, self.scale)
        for ineq in region.inequalities:
            if ineq.numerator <= 0:
                raise InternalInvariant(f"wall constant {ineq.constant} <= 0 at {ineq.component}")
        return region

    def _wall(self, j: int, divisor: Divisor) -> WallInequality:
        normal, k = self._columns[j]
        numerator = k + self.scale * (1 + divisor.coeffs[j])
        return WallInequality(self.graph.exc_ids[j], normal, Fraction(numerator, self.scale), numerator)

    # -- enumeration -------------------------------------------------------

    def enumerate_constancy_regions(self, box, max_points: int | None = None) -> EnumerationResult:
        """Walk the constancy regions outward from the origin.

        `box` is the closed search window [0, box_1] x ... ; seeds outside it
        are kept on the queue but never processed, so with `max_points=None`
        the run terminates exactly when every region meeting the box has a
        record.  `max_points` stops the walk once that many representatives
        have been emitted (the region count can be smaller, since points
        landing in a known region only join its representative list).
        """
        box_pt = tuple(_as_fraction(b, "box") for b in box)
        if len(box_pt) != self.r:
            raise DimensionMismatch(f"box needs {self.r} coordinates")
        if any(b <= 0 for b in box_pt):
            raise PreconditionViolated("box coordinates must be positive")
        if max_points is not None and max_points < 1:
            raise PreconditionViolated("max_points must be positive when given")
        if self.r > 2:
            raise UnsupportedGeometry("wall walking is exact for one or two ideals only")

        origin: Point = tuple(Fraction(0) for _ in range(self.r))
        queue: list[PointContext] = [self.at(origin)]  # seeds, evaluated when queued
        seen: set[Point] = {origin}
        representatives: list[Point] = []
        by_divisor: dict[Divisor, ConstancyRecord] = {}
        records = by_divisor.values()  # in discovery order
        warnings: list[str] = []

        steps = 0
        while queue:
            if max_points is not None and len(representatives) >= max_points:
                break
            steps += 1
            if steps > ENUMERATION_GUARD:
                raise LimitReached(f"walk passed ENUMERATION_GUARD = {ENUMERATION_GUARD} steps; shrink --box")

            self._prioritize(queue)
            entry = queue.pop(0)
            lam, divisor = entry.coords, entry.divisor
            representatives.append(lam)

            known = by_divisor.get(divisor)
            if known is not None:
                known.representatives.append(lam)
                continue

            region = self.region_of(lam)
            facets, seeds = self._facets(region, records, box_pt)
            record = ConstancyRecord(
                index=len(records),
                representative=lam,
                divisor=divisor,
                region=region,
                cfacets=facets,
                # `divisor` has no record yet, so `le` here means strictly below
                predecessors=tuple(r.index for r in records if r.divisor.le(divisor)),
                truncated=self._truncated(region, box_pt),
            )
            by_divisor[divisor] = record
            if record.index == 0 and not seeds:
                warnings.append(
                    "BoxTooSmall: the box misses the boundary of the first region; "
                    "no jumping point lies inside it"
                )
            for seed in seeds:
                if seed not in seen:
                    seen.add(seed)
                    queue.append(self.at(seed))

        return EnumerationResult(
            box=box_pt,
            by_divisor=by_divisor,
            representatives=representatives,
            queue=[entry.coords for entry in queue],
            warnings=warnings,
            m_primary=self.ideals.is_m_primary(),
        )

    def _prioritize(self, queue: list[PointContext]):
        # Repeatedly moving the first point strictly below the head to the
        # front, in one scan: after picks x_1..x_k the queue is [x_k, ...,
        # x_1, head, rest], and no point before x_k is strictly below x_k (it
        # would be below x_{k-1} and picked first), so x_{k+1} follows x_k.
        current = queue[0].divisor
        picked, rest = [queue[0]], []
        for entry in queue[1:]:
            cand = entry.divisor
            if cand != current and cand.le(current):
                picked.append(entry)
                current = cand
            else:
                rest.append(entry)
        queue[:] = picked[::-1] + rest

    def _truncated(self, region: RegionPolytope, box_pt: Point) -> bool:
        # The region stays within the box limit b on an axis exactly when some
        # wall a . z < C / L with a_axis > 0 caps it there: C / (L * a_axis) <= b.
        for axis, limit in enumerate(box_pt):
            p, q = limit.numerator * self.scale, limit.denominator  # L * b = p / q
            if not any(
                (a := ineq.coeffs[axis]) > 0 and ineq.numerator * q <= p * a for ineq in region.inequalities
            ):
                return True
        return False

    def _facets(self, region: RegionPolytope, priors: list[ConstancyRecord], box_pt: Point):
        if self.r == 1:
            return self._facets_r1(region, priors, box_pt)
        return self._facets_r2(region, priors, box_pt)

    def _facets_r1(self, region: RegionPolytope, priors, box_pt):
        # The ray meets the wall a * z < C / L at z = C / (L * a); the first
        # wall it meets has the least C / a, found by cross-multiplication.
        # No prior closure reaches that point: the walk holds one seed at a
        # time and each region strictly contains its representative, so the
        # wall points strictly increase and `priors` is not read.
        best: WallInequality | None = None
        for ineq in region.inequalities:
            a = ineq.coeffs[0]
            if a > 0 and (best is None or ineq.numerator * best.coeffs[0] < best.numerator * a):
                best = ineq
        if best is None:
            return (), []
        point = (Fraction(best.numerator, self.scale * best.coeffs[0]),)
        facet = CFacet(best.component, best.coeffs, best.constant, point, point, point)
        seeds = [point] if point[0] <= box_pt[0] else []
        return (facet,), seeds

    def _facets_r2(self, region: RegionPolytope, priors, box_pt):
        scale = self.scale
        box_planes = [
            (box_pt[0].denominator, 0, box_pt[0].numerator * scale),
            (0, box_pt[1].denominator, box_pt[1].numerator * scale),
        ]
        # Every region of the engine has the same walls in the same order, so
        # row `row` of a prior's half-planes is the prior's copy of this wall.
        prior_planes = [prior.region.halfplanes for prior in priors]
        facets: list[CFacet] = []
        seeds: list[Point] = []
        for row, ineq, line, lo, hi in _edges(region, box_planes):
            cuts = []
            for planes in prior_planes:
                if planes[row][2] < ineq.numerator:
                    continue  # prior closure cannot reach this wall line
                cut = _clip_parameter(planes, line, lo, hi)
                if cut is not None:
                    cuts.append(cut)

            for t0, t1 in _subtract_intervals(lo, hi, cuts):
                facets.append(
                    CFacet(
                        ineq.component,
                        ineq.coeffs,
                        ineq.constant,
                        _line_point(line, scale, t0),
                        _line_point(line, scale, t1),
                        _line_point(line, scale, t0 + t1, 2),
                    )
                )
                boxed = _clip_parameter(box_planes, line, t0, t1)
                if boxed is None:
                    continue
                b0, b1 = boxed
                if b0 < b1:
                    seeds.append(_line_point(line, scale, b0 + b1, 2))
                elif b0 == b1:
                    # The facet touches the box in a single point (a corner or
                    # a grazing endpoint); it still seeds the region above.
                    seeds.append(_line_point(line, scale, b0))
        if region.inequalities and not facets:
            raise GeometryDegeneracy("a fresh region produced no outer facet")
        return tuple(facets), seeds

    # -- rays and chains ---------------------------------------------------

    def jumping_numbers_of(self, name: str, upto) -> list[Fraction]:
        """Jumping numbers of one ideal of the tuple: the ray along its unit
        direction."""
        if name not in self.ideals.names:
            raise DanglingReference(f"unknown ideal name {name!r}")
        direction = [int(n == name) for n in self.ideals.names]
        return self.wall_ray_restriction(direction, upto)

    def wall_ray_restriction(self, direction, t_max) -> list[Fraction]:
        """Jumping values of t for the family along the ray t * direction.

        The restriction is the single-ideal chain of sum_i u_i F_i, so walls
        crossed by the ray appear exactly at these parameters.
        """
        u = tuple(_as_fraction(x, "direction") for x in direction)
        t = next_jumping_number(self, u, 0)  # checks the direction before --upto is read
        limit = _as_fraction(t_max, "upto")
        values: list[Fraction] = []
        for _ in range(CHAIN_GUARD):
            if t > limit:
                return values
            values.append(t)
            t = next_jumping_number(self, u, t)
        raise LimitReached(f"ray passed CHAIN_GUARD = {CHAIN_GUARD} jumping numbers below {limit}; lower --upto")


def next_jumping_number(engine: RegionEngine, direction, t_prev) -> Fraction:
    """Smallest jumping number strictly after t_prev along the ray t * u.

    The ideals on the ray form the single-ideal chain of sum_i u_i F_i: with
    e = u . F and e(t) the antinef divisor at t, the next jump is the
    minimum over components with e_j > 0 of (k_j + 1 + e_j(t)) / e_j;
    affine components compete too (their k is 0), which is what picks up
    jumps of non-m-primary ideals.  Runs on the engine's integer columns:
    e = E / m with E = U . F for u = U / m, and k = K / L.
    """
    u = [_as_fraction(x, "direction") for x in direction]
    if len(u) != engine.r:
        raise DimensionMismatch(f"direction needs {engine.r} coordinates")
    nums, m = _over_lcm(u)
    if min(nums) < 0 or not any(nums):
        raise PreconditionViolated("direction must be nonzero and nonnegative")
    t0 = _as_fraction(t_prev, "t_prev")
    if t0 < 0:
        raise PreconditionViolated("t_prev must be nonnegative")
    scale = engine.scale
    columns = [(sum(map(operator.mul, nums, normal)), k) for normal, k in engine._columns]
    # t0 e_j - k_j = (p L E_j - q m K_j) / (q m L) with t0 = p / q
    p, q = t0.numerator, t0.denominator
    den = q * m * scale
    floor = [(p * scale * e - q * m * k) // den for e, k in columns]
    current = antinef_closure(Divisor._of_ints(engine.graph, floor))
    # candidate j: (k_j + 1 + e_j(t)) / e_j = m (K_j + L (1 + e_j(t))) / (L E_j)
    best_num, best_den = None, 1
    for (e, k), c in zip(columns, current.coeffs):
        if e > 0:
            num, cand_den = m * (k + scale * (1 + c)), scale * e
            if best_num is None or num * best_den < best_num * cand_den:
                best_num, best_den = num, cand_den
    if best_num is None or best_num * q <= p * best_den:
        raise InternalInvariant("jumping-number candidate did not advance")
    return Fraction(best_num, best_den)
