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

All geometry is exact: points are Fraction pairs, facets are clipped with
rational 2x2 solves, nothing is ever rounded.
"""

from __future__ import annotations

import math
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
    ZeroDivisor,
    ZeroPoint,
)
from .graph import Classification, IdealDivisorSet, _as_fraction, relative_canonical
from .jumping import minimal_jumping_divisor

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
    """One strict inequality coeffs . z < constant."""

    __slots__ = ("component", "coeffs", "constant")

    def __init__(self, component: str, coeffs: tuple[int, ...], constant: Fraction):
        self.component = component
        self.coeffs = coeffs
        self.constant = constant

    def value_at(self, point: Sequence[Fraction]) -> Fraction:
        return sum(a * z for a, z in zip(self.coeffs, point))

    def __repr__(self):
        lhs = " + ".join(f"{a}*z{i + 1}" for i, a in enumerate(self.coeffs))
        return f"{self.component}: {lhs} < {self.constant}"


class RegionPolytope:
    """Constancy region of the ideal at `lam`: open convex polytope
    {z >= 0, coeffs . z < constant for every wall}.

    For two ideals, `halfplanes` lists its closure as triples (a1, a2, b)
    meaning a . z <= b, the two axes first; every b is a Fraction.
    """

    def __init__(self, lam: Point, divisor: Divisor, inequalities: tuple[WallInequality, ...]):
        self.lam = lam
        self.divisor = divisor
        self.inequalities = inequalities
        self._by_component = {ineq.component: ineq for ineq in inequalities}

    @cached_property
    def halfplanes(self) -> list[tuple[int, int, Fraction]]:
        return [(-1, 0, Fraction(0)), (0, -1, Fraction(0))] + [
            (*ineq.coeffs, ineq.constant) for ineq in self.inequalities
        ]

    @property
    def dim(self) -> int:
        return len(self.lam)

    def constant_for(self, component: str) -> Fraction | None:
        ineq = self._by_component.get(component)
        return None if ineq is None else ineq.constant

    def contains(self, point: Sequence[Fraction]) -> bool:
        """Strict membership (points on a wall are outside)."""
        if len(point) != self.dim:
            raise DimensionMismatch("point dimension does not match the region")
        if any(z < 0 for z in point):
            return False
        return all(ineq.value_at(point) < ineq.constant for ineq in self.inequalities)

    def extent(self, axis: int) -> Fraction | None:
        """sup of z_axis over the region closure, None when unbounded."""
        best: Fraction | None = None
        for ineq in self.inequalities:
            a = ineq.coeffs[axis]
            if a > 0:
                bound = ineq.constant / a
                if best is None or bound < best:
                    best = bound
        return best

    @property
    def bounded(self) -> bool:
        return all(self.extent(i) is not None for i in range(self.dim))

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

    def record_for(self, divisor: Divisor) -> ConstancyRecord | None:
        return self.by_divisor.get(divisor)


# -- exact line clipping ------------------------------------------------------


def _clip_parameter(constraints, p0, direction, lo, hi):
    """Intersect the parametrized line p0 + t * direction with half-planes
    given as (a1, a2, b) meaning a . z <= b.  Returns (lo, hi) with None for
    an unbounded side, or None when empty."""
    for a1, a2, b in constraints:
        alpha = a1 * direction[0] + a2 * direction[1]
        beta = b - (a1 * p0[0] + a2 * p0[1])
        if alpha == 0:
            if beta < 0:
                return None
            continue
        bound = beta / alpha
        if alpha > 0:
            if hi is None or bound < hi:
                hi = bound
        else:
            if lo is None or bound > lo:
                lo = bound
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _subtract_intervals(lo: Fraction, hi: Fraction, cuts: list[tuple[Fraction, Fraction]]):
    """Closed base interval minus a union of closed cuts; returns the
    closures of the surviving open pieces, dropping zero-length remnants."""
    trimmed = []
    for u0, u1 in cuts:
        u0 = max(u0, lo)
        u1 = min(u1, hi)
        if u0 <= u1:
            trimmed.append((u0, u1))
    trimmed.sort()
    merged: list[list[Fraction]] = []
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
    `coords`; the value `rows`, pairs (form, q) with form = sum_i lam_i e_{i,j}
    and q = form - k_j per component; `floor` = floor(lam . F - K); and its
    antinef closure `divisor`, which encodes the mixed multiplier ideal at lam.
    Computed on first use: `left_floor`, its closure `left` (the ideal just
    before lam along the ray) and the minimal jumping divisor `gmin`.  A walk
    therefore pays one closure per point.
    """

    def __init__(self, engine: "RegionEngine", coords: Point):
        self.engine = engine
        self.coords = coords
        self.rows = engine.value_rows(coords)
        self.floor = Divisor(engine.graph, [math.floor(q) for _, q in self.rows])
        self.divisor = antinef_closure(self.floor)

    @cached_property
    def left_floor(self) -> Divisor:
        """floor of q "just before" lam: q - 1 at integers whose form is
        positive, plain floor otherwise.  This is the exact eps -> 0+ limit
        of floor((1 - eps) * form - k): coordinates with form = 0 never
        move, so they keep their plain floor."""
        return Divisor(
            self.engine.graph,
            [q - 1 if q.denominator == 1 and form > 0 else math.floor(q) for form, q in self.rows],
        )

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
        return minimal_jumping_divisor(self.engine, self.coords)


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

    def value_rows(self, coords: Point) -> list[tuple[Fraction, Fraction]]:
        """Per-component pairs (form, q): form = sum_i lam_i e_{i,j} and
        q = form - k_j."""
        k = self.canonical.coeffs
        rows = []
        for j in range(self.graph.n_total):
            form = self.ideals.value(coords, j)
            rows.append((form, form - k[j]))
        return rows

    def membership(self, lam_prime, lam) -> bool:
        """Does the ideal at lam_prime contain the ideal at lam?

        Decided componentwise: floor(lam'-value - k) <= e(lam) at every
        component, affine ones included.  Agrees with the wall polytope for
        lam_prime off the closure boundary cases by the region theorem; kept
        as an independent route on purpose.
        """
        coords = self.point(lam_prime)
        divisor = self.mmi(lam)
        rows = self.value_rows(coords)
        return all(math.floor(q) <= divisor.coeffs[j] for j, (_, q) in enumerate(rows))

    def region_of(self, lam) -> RegionPolytope:
        """Wall polytope of the constancy region holding lam.

        One strict inequality per wall-relevant (rupture or dicritical)
        exceptional component; every constant k_j + 1 + e_j(lam) is positive,
        so the origin always lies inside.
        """
        coords = self.point(lam)
        divisor = self.mmi(coords)
        ineqs = tuple(self._wall(j, divisor) for j in self.classification.wall_relevant)
        region = RegionPolytope(coords, divisor, ineqs)
        for ineq in region.inequalities:
            if ineq.constant <= 0:
                raise InternalInvariant(f"wall constant {ineq.constant} <= 0 at {ineq.component}")
        return region

    def _wall(self, j: int, divisor: Divisor) -> WallInequality:
        normal = tuple(d.coeffs[j] for d in self.ideals.divisors)
        constant = Fraction(self.canonical.coeffs[j] + 1 + divisor.coeffs[j])
        return WallInequality(self.graph.exc_ids[j], normal, constant)

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
        queue: list[Point] = [origin]
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
            lam = queue.pop(0)
            representatives.append(lam)
            divisor = self.mmi(lam)

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
                    queue.append(seed)

        return EnumerationResult(
            box=box_pt,
            by_divisor=by_divisor,
            representatives=representatives,
            queue=list(queue),
            warnings=warnings,
            m_primary=self.ideals.is_m_primary(),
        )

    def _prioritize(self, queue: list[Point]):
        # Repeatedly moving the first point strictly below the head to the
        # front, in one scan: after picks x_1..x_k the queue is [x_k, ...,
        # x_1, head, rest], and no point before x_k is strictly below x_k (it
        # would be below x_{k-1} and picked first), so x_{k+1} follows x_k.
        current = self.mmi(queue[0])
        picked, rest = [queue[0]], []
        for lam in queue[1:]:
            cand = self.mmi(lam)
            if cand != current and cand.le(current):
                picked.append(lam)
                current = cand
            else:
                rest.append(lam)
        queue[:] = picked[::-1] + rest

    def _truncated(self, region: RegionPolytope, box_pt: Point) -> bool:
        for axis, limit in enumerate(box_pt):
            ext = region.extent(axis)
            if ext is None or ext > limit:
                return True
        return False

    def _facets(self, region: RegionPolytope, priors: list[ConstancyRecord], box_pt: Point):
        if self.r == 1:
            return self._facets_r1(region, priors, box_pt)
        return self._facets_r2(region, priors, box_pt)

    def _facets_r1(self, region: RegionPolytope, priors, box_pt):
        best: tuple[Fraction, WallInequality] | None = None
        for ineq in region.inequalities:
            a = ineq.coeffs[0]
            if a > 0:
                bound = ineq.constant / a
                if best is None or bound < best[0]:
                    best = (bound, ineq)
        if best is None:
            return (), []
        m, ineq = best
        for prior in priors:
            ext = prior.region.extent(0)
            if ext is not None and m <= ext:
                return (), []  # the wall point already belongs to an older closure
        point = (m,)
        facet = CFacet(ineq.component, ineq.coeffs, ineq.constant, point, point, point)
        seeds = [point] if m <= box_pt[0] else []
        return (facet,), seeds

    def _facets_r2(self, region: RegionPolytope, priors, box_pt):
        box_planes = [(1, 0, box_pt[0]), (0, 1, box_pt[1])]
        facets: list[CFacet] = []
        seeds: list[Point] = []
        for ineq in region.inequalities:
            a1, a2 = ineq.coeffs
            c = ineq.constant
            if a1 == 0 and a2 == 0:
                continue
            if a1 != 0:
                p0 = (Fraction(c, a1), Fraction(0))
            else:
                p0 = (Fraction(0), Fraction(c, a2))
            direction = (a2, -a1)
            span = _clip_parameter(region.halfplanes, p0, direction, None, None)
            if span is None:
                continue
            lo, hi = span
            if lo is None or hi is None:
                raise GeometryDegeneracy(f"unbounded wall segment at {ineq.component}")
            if lo == hi:
                continue

            cuts = []
            for prior in priors:
                prior_c = prior.region.constant_for(ineq.component)
                if prior_c is not None and prior_c < c:
                    continue  # prior closure cannot reach this wall line
                cut = _clip_parameter(prior.region.halfplanes, p0, direction, lo, hi)
                if cut is not None:
                    u0, u1 = cut
                    cuts.append((lo if u0 is None else u0, hi if u1 is None else u1))

            at = lambda t: (p0[0] + t * direction[0], p0[1] + t * direction[1])
            for t0, t1 in _subtract_intervals(lo, hi, cuts):
                facets.append(
                    CFacet(
                        ineq.component,
                        ineq.coeffs,
                        c,
                        at(t0),
                        at(t1),
                        at((t0 + t1) / 2),
                    )
                )
                boxed = _clip_parameter(box_planes, p0, direction, t0, t1)
                if boxed is None:
                    continue
                b0, b1 = boxed
                if b0 < b1:
                    seeds.append(at((b0 + b1) / 2))
                elif b0 == b1:
                    # The facet touches the box in a single point (a corner or
                    # a grazing endpoint); it still seeds the region above.
                    seeds.append(at(b0))
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
        if len(u) != self.r:
            raise DimensionMismatch(f"direction needs {self.r} coordinates")
        if any(x < 0 for x in u) or all(x == 0 for x in u):
            raise PreconditionViolated("direction must be nonzero and nonnegative")
        combined = self.ideals.divisors[0].scaled(u[0])
        for i in range(1, self.r):
            combined = combined + self.ideals.divisors[i].scaled(u[i])
        limit = _as_fraction(t_max, "upto")
        values: list[Fraction] = []
        t = Fraction(0)
        for _ in range(CHAIN_GUARD):
            t = next_jumping_number(combined, self.canonical, t)
            if t > limit:
                return values
            values.append(t)
        raise LimitReached(f"ray passed CHAIN_GUARD = {CHAIN_GUARD} jumping numbers below {limit}; lower --upto")


def next_jumping_number(ideal_divisor: Divisor, canonical: Divisor, t_prev) -> Fraction:
    """Smallest jumping number of a single ideal strictly after t_prev.

    With e = multiplicities of the ideal divisor and e(t) the antinef
    divisor at the current parameter, the next jump is
    min over components with e_j > 0 of (k_j + 1 + e_j(t)) / e_j; affine
    components compete too (their k is 0), which is what picks up jumps of
    non-m-primary ideals.
    """
    ideal_divisor._check_same_graph(canonical)
    t0 = _as_fraction(t_prev, "t_prev")
    if t0 < 0:
        raise PreconditionViolated("t_prev must be nonnegative")
    if not ideal_divisor.is_effective() or all(c == 0 for c in ideal_divisor.coeffs):
        raise ZeroDivisor("jumping numbers need a nonzero effective divisor")
    scaled = ideal_divisor.scaled(t0)
    current = antinef_closure((scaled - canonical).floor())
    best: Fraction | None = None
    for j, e in enumerate(ideal_divisor.coeffs):
        if e > 0:
            ratio = Fraction(canonical.coeffs[j] + 1 + current.coeffs[j]) / e
            if best is None or ratio < best:
                best = ratio
    if best is None or best <= t0:
        raise InternalInvariant("jumping-number candidate did not advance")
    return best
