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
meaning a . z < C / L, and floors come from integer numerators.  Every
ideal divisor is at least 1 on every exceptional component (a nonzero
effective antinef divisor on a connected negative definite tree is), so
every normal is strictly positive: a wall crosses both axes, and a region
with a wall is bounded.  The regions of an engine share their normals, so
for two ideals one wall table per engine clips each wall between the axes
by the other walls (`RegionPolytope.edges`, kept by the region) and by the
priors, and two integer bounds on its line clip a facet to the box; the
walk's facets and the SVG outline read those edges.  The walk
makes no Fraction: the box, seeds, representatives, facet points and
vertices are integer keys (n_1, .., n_r, den) with gcd 1, a wall constant
is its numerator over L, and Fractions are made only for a caller that asks
(`PointContext.coords`, `CFacet.start`, `RegionPolytope.vertices()`,
`WallInequality.constant`).
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .divisors import Divisor, antinef_closure
from .errors import (
    DanglingReference,
    DimensionMismatch,
    GeometryDegeneracy,
    LimitReached,
    PreconditionViolated,
    UnsupportedGeometry,
    ZeroPoint,
)
from .graph import IdealDivisorSet, _as_fraction, _refuse_non_sequence, relative_canonical
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

# Size caps a request can reach; hitting one raises LimitReached (exit 2).
ENUMERATION_GUARD = 200_000  # walk steps
CHAIN_GUARD = 100_000  # jumping numbers computed along one ray


class WallInequality:
    """One strict inequality coeffs . z < numerator / scale, `scale` being
    L, the lcm of the denominators of K."""

    __slots__ = ("component", "coeffs", "numerator", "scale")

    def __init__(self, component: str, coeffs: tuple[int, ...], numerator: int, scale: int):
        self.component = component
        self.coeffs = coeffs
        self.numerator = numerator
        self.scale = scale

    constant = property(lambda self: Fraction(self.numerator, self.scale))

    def __repr__(self):
        lhs = " + ".join(f"{a}*z{i + 1}" for i, a in enumerate(self.coeffs))
        return f"{self.component}: {lhs} < {self.constant}"


class RegionPolytope:
    """Constancy region of the ideal at `lam`: open convex polytope
    {z >= 0, coeffs . z < constant for every wall}, every coeffs > 0.
    `constants` are the walls' C, in the order of `inequalities`; `scale`
    is L.  `key` is lam's; `engine` holds the wall table."""

    def __init__(self, key: tuple[int, ...], divisor: Divisor, inequalities: tuple[WallInequality, ...], scale: int, engine):
        self.key = key
        self.divisor = divisor
        self.inequalities = inequalities
        self.scale = scale
        self.engine = engine
        self.constants = [ineq.numerator for ineq in inequalities]

    def contains(self, point) -> bool:
        """Strict membership (points on a wall or off the orthant are
        outside): L * (a . nums) < C * m on the point's key (*nums, m)."""
        *nums, m = _point_key(point, len(self.key) - 1, "point")
        if min(nums) < 0:
            return False
        return all(
            self.scale * sum(map(operator.mul, ineq.coeffs, nums)) < ineq.numerator * m for ineq in self.inequalities
        )

    @property
    def bounded(self) -> bool:
        """Every normal is positive, so any wall caps every axis."""
        return bool(self.inequalities)

    def vertex_keys(self) -> list[tuple[int, int, int]]:
        """Vertices of the closure of a two-ideal region as point keys: the
        origin, then the ends of the wall edges by (x, -y).  The closure is
        convex with the axes as two sides, so that order walks its boundary."""
        if len(self.key) != 3:
            raise UnsupportedGeometry("region vertices are computed for two ideals only")
        ends = {_line_key(line, self.scale, t) for *_, line, lo, hi in self.edges for t in (lo, hi)}
        common = math.lcm(*(den for *_, den in ends))
        return [(0, 0, 1)] + sorted(ends, key=lambda k: (k[0] * (common // k[2]), -k[1] * (common // k[2])))

    def vertices(self) -> list[tuple[Fraction, Fraction]]:
        """The points of `vertex_keys`, as Fractions."""
        return [_key_point(key) for key in self.vertex_keys()]

    @cached_property
    def edges(self) -> list[tuple]:
        """(row, wall, (a1, a2, C, m), lo, hi) per wall of a two-ideal region
        keeping a piece lo < hi of -(m // a2) C <= T <= 0 clipped by the
        other walls on the engine's wall table."""
        table = self.engine._table
        edges = []
        for row, wall in enumerate(self.inequalities):
            a1, a2, m, _ = table[row]
            c = wall.numerator
            span = _clip_row(table[row], c, self.constants, -(m // a2) * c, 0)
            if span is not None and span[0] < span[1]:
                edges.append((row, wall, (a1, a2, c, m), *span))
        return edges

    def __repr__(self):
        return f"RegionPolytope(key={self.key}, walls={len(self.inequalities)})"


class CFacet:
    """One facet of a constancy region: a maximal piece of its `wall`'s line
    not covered by the closures of previously computed regions.

    `keys` are the point keys (n_1, .., n_r, den) of the endpoints of the
    closure of the piece and of its barycenter, which always lies in the
    relative interior; `start`, `end` and `midpoint` make their Fraction
    points.  For a single ideal (r = 1) facets degenerate to points and the
    three coincide.
    """

    __slots__ = ("wall", "keys")

    def __init__(self, wall: WallInequality, keys):
        self.wall = wall
        self.keys = keys

    start = property(lambda self: _key_point(self.keys[0]))
    end = property(lambda self: _key_point(self.keys[1]))
    midpoint = property(lambda self: _key_point(self.keys[2]))

    def __repr__(self):
        return f"CFacet({self.wall.component}, {self.start} -> {self.end})"


class ConstancyRecord:
    """A discovered constancy region: the key of every representative that
    landed in it, its divisor, its wall polytope, and its outer facets."""

    def __init__(self, index, representative, divisor, region, cfacets, truncated):
        self.index = index
        self.representative = representative
        self.representatives = [representative]
        self.divisor = divisor
        self.region = region
        self.cfacets = cfacets
        self.truncated = truncated

    def __repr__(self):
        return f"ConstancyRecord({self.index}, rep={self.representative})"


class EnumerationResult:
    def __init__(self, box, by_divisor, representatives, queue, warnings, m_primary):
        self.box = box
        self.by_divisor = by_divisor  # divisor -> its record, in discovery order
        self.records = list(by_divisor.values())
        self.representatives = representatives  # keys of the processed points, in order (D)
        self.queue = queue  # keys of the seeds `max_points` left unprocessed (N)
        self.warnings = warnings
        self.m_primary = m_primary


def _coordinate(value, what: str) -> tuple[int, int]:
    """One coordinate from outside as a reduced (num, den): a plain ASCII 'n'
    or 'n/d' read straight into ints, anything else (digits over the int()
    limit too) by `_as_fraction`, whose messages it keeps."""
    if type(value) is str and value.isascii():
        n, slash, d = value.partition("/")
        if n.isdigit() and (d.isdigit() or not slash):
            try:
                num, den = int(n), int(d or 1)
            except ValueError:  # over the interpreter's digit limit
                den = 0
            if den:
                g = math.gcd(num, den)
                return num // g, den // g
    q = _as_fraction(value, what)
    return q.numerator, q.denominator


def _point_key(values, r: int, what: str) -> tuple[int, ...]:
    """The reduced key (n_1, .., n_r, den) of r coordinates from outside,
    each read by `_coordinate`: the one reader of a point, box or direction.
    Each caller checks the signs it needs."""
    _refuse_non_sequence(values, what, "coordinates")
    coords = [_coordinate(v, what) for v in values]
    if len(coords) != r:
        raise DimensionMismatch(f"{what} needs {r} coordinates")
    den = math.lcm(*(d for _, d in coords))
    return (*(n * (den // d) for n, d in coords), den)


# -- exact line clipping ------------------------------------------------------


def _wall_table(normals) -> list[tuple]:
    """Per normal (a1, a2) the row (a1, a2, m, clips) of its wall's line
    (see _clip_row): m = lcm(a1, a2, every nonzero alpha = b1 a2 - b2
    a1), and `clips` holds (b1, alpha, m // alpha or 0) per normal (b1, b2)."""
    table = []
    for a1, a2 in normals:
        alphas = [b1 * a2 - b2 * a1 for b1, b2 in normals]
        m = math.lcm(a1, a2, *filter(None, alphas))
        table.append((a1, a2, m, [(b1, alpha, alpha and m // alpha) for (b1, _), alpha in zip(normals, alphas)]))
    return table


def _clip_row(row, c: int, constants, lo: int, hi: int):
    """Clip the segment lo <= T <= hi of the line a . z = c / L of a wall
    table `row` by half-planes b . z <= D / L, the D in `constants`;
    returns (lo, hi), or None if nothing is left.

    The line is z(T) = (m c + T a2, -T a1) / (L a1 m), meeting the z1-axis
    at T = 0 and the z2-axis at T = -m c / a2.  A half-plane reads alpha T
    <= m (D a1 - b1 c), and m is a multiple of a1, a2 and every alpha = b1
    a2 - b2 a1, so every bound on T is an integer.
    """
    a1, _, _, clips = row
    for (b1, alpha, step), d in zip(clips, constants):
        beta = d * a1 - b1 * c
        if not alpha:
            if beta < 0:
                return None
        elif alpha > 0:
            if beta * step < hi:
                hi = beta * step
        elif beta * step > lo:
            lo = beta * step
    return (lo, hi) if lo <= hi else None


def _line_key(line, scale: int, t: int, k: int = 1) -> tuple[int, int, int]:
    """The point z(t / k) of a wall line (see _clip_row) as a reduced
    key (x, y, den)."""
    a1, a2, c, m = line
    x, y, den = k * m * c + t * a2, -t * a1, k * scale * a1 * m
    g = math.gcd(x, y, den)
    return x // g, y // g, den // g


def _key_point(key) -> tuple[Fraction, ...]:
    """The point of a key (n_1, .., n_r, den), as Fractions."""
    den = key[-1]
    return tuple(Fraction(n, den) for n in key[:-1])


def _subtract_intervals(lo: int, hi: int, cuts: list[tuple[int, int]]):
    """Closed base interval minus a union of closed cuts inside it; returns
    the closures of the surviving open pieces, dropping zero-length ones."""
    pieces = []
    cursor = lo
    for u0, u1 in sorted(cuts):
        if u0 > cursor:
            pieces.append((cursor, u0))
        cursor = max(cursor, u1)
    if hi > cursor:
        pieces.append((cursor, hi))
    return pieces


# -- the engine ---------------------------------------------------------------


class PointContext:
    """Everything asked at one point lam of the orthant.

    Cached by :meth:`RegionEngine.at` under lam's `key` (n_1, .., n_r, den),
    a walk seed's form.  Filled at once: lam . F - K as integer numerators
    `values` over `den`, `floor` = values // den and its antinef closure
    `divisor`, encoding the mixed multiplier ideal at lam.  Computed on
    first use, from the key alone: lam's Fractions `coords`, `left_floor`,
    its closure `left` (the ideal just before lam along the ray) and the
    minimal jumping divisor `gmin`; so a walk pays one closure per point.
    `wall` is the one wall formula, on the engine's integer `columns`
    (normal, L k_j) and `scale`.  It keeps what it uses, not the engine, so
    the two form no reference cycle.
    """

    def __init__(self, engine: "RegionEngine", key: tuple[int, ...]):
        self.graph, self.ideals, self.ends = engine.graph, engine.ideals, engine.ends
        self.columns, self.scale = engine._columns, engine.scale
        self.key = key
        self.values, self.den = engine._numerators(key[:-1], key[-1])
        self.floor = Divisor._of_ints(engine.graph, [v // self.den for v in self.values])
        self.divisor = antinef_closure(self.floor)

    coords = cached_property(lambda self: _key_point(self.key))

    @cached_property
    def left_floor(self) -> Divisor:
        """floor of q = lam . F - K "just before" lam: (v - 1) // den where the
        form sum_i lam_i e_{i,j} is positive (q - 1 at integers, floor(q)
        elsewhere), v // den otherwise.  This is the exact eps -> 0+ limit of
        floor((1 - eps) * form - k): coordinates with form = 0 never move.
        With m = key[-1], v_j + m L k_j is L times the form's numerator."""
        m = self.key[-1]
        floor = [(v - (v + m * k > 0)) // self.den for v, (_, k) in zip(self.values, self.columns)]
        return Divisor._of_ints(self.graph, floor)

    @cached_property
    def left(self) -> Divisor:
        """Antinef divisor of the ideal at (1 - eps) * lam for eps -> 0+.
        Undefined at the origin (there is nothing to the left of 0)."""
        if not any(self.key[:-1]):
            raise ZeroPoint("left limit undefined at the origin")
        return antinef_closure(self.left_floor)

    @cached_property
    def gmin(self):
        """The minimal jumping divisor (see :mod:`mmideals.jumping`)."""
        return _minimal_jumping_divisor(self)

    def wall(self, j: int, divisor: Divisor) -> WallInequality:
        """Component j's wall for the ideal of the antinef divisor `divisor`,
        lam . F_j < k_j + 1 + d_j, as its normal and L k_j + L (1 + d_j)
        over L.  At a jumping point, a member's wall at the left limit is its
        hyperplane in G; the walk's walls are those at lam's own divisor."""
        normal, k = self.columns[j]
        return WallInequality(self.graph.ids[j], normal, k + self.scale * (1 + divisor.coeffs[j]), self.scale)


class RegionEngine:
    """Bundles a graph, an ideal tuple and the relative canonical divisor,
    and answers all region-level questions about the family.

    Walls come from rupture and dicritical exceptional components only: the
    wall theorem needs no more for m-primary tuples (reports expose
    `m_primary` so callers can tell when that guarantee applies).

    Set-up runs on integers: L (`scale`) and L * K come from the graph's
    cached solve K = X / D.  `canonical`, computed on first access, is K as
    `relative_canonical` returns it.
    """

    def __init__(self, ideals: IdealDivisorSet):
        self.ideals = ideals
        self.graph = ideals.graph
        # L = `scale`, the lcm of the denominators of K = X / D, is D / g
        # for g = gcd(D, X_1, ..), and L k_j is X_j / g.  Per component j
        # the normal (e_{1,j}, .., e_{r,j}) and L k_j (0 on affine ones).
        nums, det = self.graph.canonical_numerators
        g = math.gcd(det, *nums)
        self.scale = det // g
        scaled_k = [x // g for x in nums] + [0] * self.graph.n_aff
        self._columns = list(zip(zip(*(d.coeffs for d in ideals.divisors)), scaled_k))
        # Walls live on `wall_relevant`: rupture components (a third
        # exceptional neighbour; rows list those first, so affine arrows never
        # make one) and dicritical ones (positive excess for some ideal, i.e.
        # a nonzero column).  `ends` adds those an affine member of the
        # support crosses: its strict transform carries multiplicity there and
        # plays the dicritical role, so the jumping divisor may end there too.
        n, adj = self.graph.n_exc, self.graph.adjacency
        self.wall_relevant = tuple(
            j for j, column in enumerate(zip(*ideals.excess)) if any(column) or len(adj[j]) > 2 and adj[j][2] < n
        )
        self.ends = frozenset(self.wall_relevant).union(j for a in ideals.support if a >= n for j in adj[a])
        self._points: dict[tuple[int, ...], PointContext] = {}

    canonical = cached_property(lambda self: relative_canonical(self.graph))
    _table = cached_property(lambda self: _wall_table([self._columns[j][0] for j in self.wall_relevant]))

    @property
    def r(self) -> int:
        return self.ideals.r

    # -- pointwise data ---------------------------------------------------

    def at(self, lam) -> PointContext:
        """The cached per-point context at lam, one coordinate per ideal,
        none negative; it is looked up and built from lam's key alone."""
        key = _point_key(lam, self.r, "lambda")
        if min(key) < 0:  # the last entry, den, is positive
            raise PreconditionViolated("lambda must lie in the nonnegative orthant")
        return self._context(key)

    def _context(self, key: tuple[int, ...]) -> PointContext:
        context = self._points.get(key)
        if context is None:
            context = self._points[key] = PointContext(self, key)
        return context

    def mmi(self, lam) -> Divisor:
        return self.at(lam).divisor

    def _numerators(self, nums: Sequence[int], m: int) -> tuple[list[int], int]:
        """lam . F - K per component as integer numerators v_j over den =
        m * L, for lam = nums / m: returns (v, den).  L scales nums once."""
        nums = [self.scale * n for n in nums]
        if len(nums) == 2:
            x, y = nums
            values = [x * u + y * v - m * k for (u, v), k in self._columns]
        else:
            values = [sum(map(operator.mul, nums, normal)) - m * k for normal, k in self._columns]
        return values, m * self.scale

    def region_of(self, lam) -> RegionPolytope:
        """Wall polytope of the constancy region holding lam.

        One strict inequality per wall-relevant (rupture or dicritical)
        exceptional component.  The closure dominates its floor, so e_j(lam)
        >= floor(lam . F_j - k_j) > lam . F_j - k_j - 1: every constant k_j +
        1 + e_j(lam) exceeds lam . F_j >= 0, and lam and the origin lie inside.
        """
        return self._region(self.at(lam))

    def _region(self, context: PointContext) -> RegionPolytope:
        divisor = context.divisor
        ineqs = tuple(context.wall(j, divisor) for j in self.wall_relevant)
        return RegionPolytope(context.key, divisor, ineqs, self.scale, self)

    # -- enumeration -------------------------------------------------------

    def enumerate_constancy_regions(self, box, max_points: int | None = None) -> EnumerationResult:
        """Walk the constancy regions outward from the origin.

        `box` is the closed search window [0, box_1] x ... ; the result holds
        it, the representatives and the queue as keys.  Only seeds inside it
        are queued, and the walk ends on an empty queue, when every region
        meeting the box has a record, unless `max_points` stops it after that
        many representatives (a point in a known region only joins its
        representative list); the queue holds the seeds left then.
        """
        box_key = _point_key(box, self.r, "box")
        if min(box_key) <= 0:
            raise PreconditionViolated("box coordinates must be positive")
        if max_points is not None and max_points < 1:
            raise PreconditionViolated("max_points must be positive when given")
        if self.r > 2:
            raise UnsupportedGeometry("wall walking is exact for one or two ideals only")

        origin = (0,) * self.r + (1,)
        queue: list[PointContext] = [self._context(origin)]  # seeds, evaluated when queued
        seen = {origin}  # seed keys
        representatives: list[tuple[int, ...]] = []
        by_divisor: dict[Divisor, ConstancyRecord] = {}
        # per wall row, (C, region) per record, sorted by C
        priors: list[list[tuple]] = [[] for _ in self.wall_relevant]
        warnings: list[str] = []

        while queue:
            if max_points is not None and len(representatives) >= max_points:
                break
            if len(representatives) == ENUMERATION_GUARD:
                raise LimitReached(f"walk passed ENUMERATION_GUARD = {ENUMERATION_GUARD} steps; shrink --box")

            self._prioritize(queue)
            entry = queue.pop(0)
            key, divisor = entry.key, entry.divisor
            representatives.append(key)

            known = by_divisor.get(divisor)
            if known is not None:
                known.representatives.append(key)
                continue

            region = self._region(entry)
            facets, seeds = self._facets(region, priors, box_key)
            record = ConstancyRecord(len(by_divisor), key, divisor, region, facets, self._truncated(region, box_key))
            by_divisor[divisor] = record
            for column, ineq in zip(priors, region.inequalities):
                bisect.insort(column, (ineq.numerator, region), key=operator.itemgetter(0))
            if record.index == 0 and not seeds:
                warnings.append(
                    "BoxTooSmall: the box misses the boundary of the first region; "
                    "no jumping point lies inside it"
                )
            for seed in seeds:
                if seed not in seen:
                    seen.add(seed)
                    queue.append(self._context(seed))

        return EnumerationResult(
            box=box_key,
            by_divisor=by_divisor,
            representatives=representatives,
            queue=[entry.key for entry in queue],
            warnings=warnings,
            m_primary=self.ideals.is_m_primary(),
        )

    def _prioritize(self, queue: list[PointContext]):
        # Move the first point strictly below the head to the front, again
        # and again, in one scan: after picks x_1..x_k the queue is [x_k, ..,
        # x_1, head, rest], and a point before x_k below it would have been
        # picked first, so x_{k+1} follows x_k.
        current = queue[0].divisor.coeffs
        picked, rest = [queue[0]], []
        for entry in queue[1:]:
            cand = entry.divisor.coeffs
            if cand != current and all(map(operator.le, cand, current)):
                picked.append(entry)
                current = cand
            else:
                rest.append(entry)
        queue[:] = picked[::-1] + rest

    def _truncated(self, region: RegionPolytope, box: tuple[int, ...]) -> bool:
        # The region stays within the box limit n / den on an axis exactly
        # when some wall a . z < C / L caps it there: C * den <= L * n * a_axis.
        *limits, den = box
        for axis, n in enumerate(limits):
            if not any(ineq.numerator * den <= self.scale * n * ineq.coeffs[axis] for ineq in region.inequalities):
                return True
        return False

    def _facets(self, region: RegionPolytope, priors: list[list[tuple]], box: tuple[int, ...]):
        if self.r == 1:
            return self._facets_r1(region, priors, box)
        return self._facets_r2(region, priors, box)

    def _facets_r1(self, region: RegionPolytope, priors, box):
        # The first wall a * z < C / L the ray meets has the least C / a.  No
        # prior closure reaches it: the walk holds one seed at a time and
        # each region strictly contains its representative, so the wall
        # points strictly increase and `priors` is not read.
        best: WallInequality | None = None
        for ineq in region.inequalities:
            if best is None or ineq.numerator * best.coeffs[0] < best.numerator * ineq.coeffs[0]:
                best = ineq
        if best is None:
            return (), []
        num, den = best.numerator, self.scale * best.coeffs[0]
        g = math.gcd(num, den)
        key = (num // g, den // g)
        facet = CFacet(best, (key, key, key))
        seeds = [key] if num * box[1] <= box[0] * den else []
        return (facet,), seeds

    def _facets_r2(self, region: RegionPolytope, priors, box):
        scale = self.scale
        x, y, q = box
        table = self._table
        # On the box's denominator q, z1 <= x / q is q T <= (x L a1 - q C)
        # (m // a2) and z2 <= y / q is q T >= -y L m, on integers as m is a
        # multiple of a1 and a2.  A prior's row `row` is its copy of this
        # wall, and its closure reaches this line only if that copy's
        # constant is at least C: `priors[row]` is sorted by it, and
        # bisect_left finds the first.
        facets: list[CFacet] = []
        seeds: list[tuple[int, int, int]] = []
        for row, ineq, line, lo, hi in region.edges:
            a1, a2, c, m = line
            column = priors[row]
            reach = column[bisect.bisect_left(column, c, key=operator.itemgetter(0)) :]
            cuts = [cut for _, prior in reach if (cut := _clip_row(table[row], c, prior.constants, lo, hi)) is not None]
            top, bottom = (x * scale * a1 - q * c) * (m // a2), -y * scale * m

            for t0, t1 in _subtract_intervals(lo, hi, cuts):
                keys = (_line_key(line, scale, t0), _line_key(line, scale, t1), _line_key(line, scale, t0 + t1, 2))
                facets.append(CFacet(ineq, keys))
                b0, b1 = max(t0 * q, bottom), min(t1 * q, top)
                if b0 < b1:
                    seeds.append(_line_key(line, scale, b0 + b1, 2 * q))
                elif b0 == b1:
                    # a facet touching the box in one point (a corner or a
                    # grazing end) still seeds the region above
                    seeds.append(_line_key(line, scale, b0, q))
        if region.inequalities and not facets:
            raise GeometryDegeneracy(
                f"a fresh region produced no outer facet at lambda ({', '.join(map(str, _key_point(region.key)))})"
            )
        return tuple(facets), seeds

    # -- rays and chains ---------------------------------------------------

    def jumping_numbers_of(self, name: str, upto) -> list[Fraction]:
        """Jumping numbers of one ideal of the tuple: the ray along its unit
        direction."""
        return [Fraction(p, q) for p, q in self._chain(self._ideal_direction(name), upto)[2]]

    def wall_ray_restriction(self, direction, t_max) -> list[Fraction]:
        """Jumping values of t for the family along the ray t * direction.

        The restriction is the single-ideal chain of sum_i u_i F_i, so walls
        crossed by the ray appear exactly at these parameters."""
        return [Fraction(p, q) for p, q in self._chain(direction, t_max)[2]]

    def _ideal_direction(self, name: str) -> list[int]:
        if name not in self.ideals.names:
            raise DanglingReference(f"unknown ideal name {name!r}")
        return [int(n == name) for n in self.ideals.names]

    def _chain(self, direction, t_max):
        """The one ray chain: the direction's key, `t_max` as a reduced (num,
        den) and each jump t <= t_max as a reduced (p, q), from one `_Ray`
        whose closures start warm from the one before."""
        ray = _Ray(self, direction)  # checks the direction before --upto is read
        num, den = _coordinate(t_max, "upto")
        jumps: list[tuple[int, int]] = []
        p, q = ray.step(0, 1)
        while p * den <= num * q:
            if len(jumps) == CHAIN_GUARD:
                limit = Fraction(num, den)  # made only for the message
                raise LimitReached(f"ray passed CHAIN_GUARD = {CHAIN_GUARD} jumping numbers below {limit}; lower --upto")
            jumps.append((p, q))
            p, q = ray.step(p, q)
        return ray.key, (num, den), jumps


class _Ray:
    """The ray t * u as the single-ideal chain of sum_i u_i F_i, its
    direction checked once (nonnegative, not zero).  With u = U / m, E = U .
    F and K = K' / L, a column (L E_j, m K'_j) gives t e_j - k_j = (p L E_j
    - q m K'_j) / (q m L) at t = p / q, and a term (j, m (K'_j + L), L E_j)
    per E_j > 0 the candidate jump (k_j + 1 + e_j(t)) / e_j = (m (K'_j + L)
    + m L e_j(t)) / (L E_j); affine components compete too (K' is 0 there),
    which picks up jumps of non-m-primary ideals."""

    def __init__(self, engine: RegionEngine, direction):
        self.key = _point_key(direction, engine.r, "direction")  # U + (m,), as the report writes it
        *nums, m = self.key
        if min(nums) < 0 or not any(nums):
            raise PreconditionViolated("direction must be nonzero and nonnegative")
        scale = engine.scale
        self.graph, self.den = engine.graph, m * scale
        columns = [(sum(map(operator.mul, nums, normal)), k) for normal, k in engine._columns]
        self.columns = [(scale * e, m * k) for e, k in columns]
        self.terms = [(j, m * (k + scale), scale * e) for j, (e, k) in enumerate(columns) if e > 0]
        self.last = None  # (p, q, closure coefficients) of the last step

    def step(self, p: int, q: int) -> tuple[int, int]:
        """The least jump after t = p / q >= 0 as a reduced (num, den).  The
        floor never decreases along the ray, and closure is monotone and
        idempotent, so after a step at t' <= t the closure D' of t' starts
        this one: closure(max(floor, D')) = closure(floor).  The closure
        dominates its floor, so every candidate exceeds t (see `region_of`)."""
        den = q * self.den
        floor = [(p * e - q * k) // den for e, k in self.columns]
        if self.last is not None and self.last[0] * q <= p * self.last[1]:
            floor = list(map(max, floor, self.last[2]))
        current = antinef_closure(Divisor._of_ints(self.graph, floor)).coeffs
        self.last = p, q, current
        best_num, best_den = None, 1
        for j, base, cand_den in self.terms:
            num = base + self.den * current[j]
            if best_num is None or num * best_den < best_num * cand_den:
                best_num, best_den = num, cand_den
        g = math.gcd(best_num, best_den)
        return best_num // g, best_den // g


def next_jumping_number(engine: RegionEngine, direction, t_prev) -> Fraction:
    """Smallest jumping number strictly after t_prev along the ray t * u:
    one cold step of a fresh `_Ray`, closing the floor at t_prev from
    scratch."""
    ray = _Ray(engine, direction)
    t0 = _as_fraction(t_prev, "t_prev")
    if t0 < 0:
        raise PreconditionViolated("t_prev must be nonnegative")
    return Fraction(*ray.step(t0.numerator, t0.denominator))
