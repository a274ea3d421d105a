"""Hand-rolled SVG diagrams of walls and constancy regions (two ideals).

The picture maps the search box affinely onto a fixed viewport, shades each
discovered region with a hatch pattern and draws every C-facet as one solid
`<polyline>` (exactly one per facet, so diagrams stay checkable against the
JSON report), labelled with its wall equation.  For a single ideal the facets
are points and are drawn as vertical ticks.

Everything is plain string assembly; output is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .regions import EnumerationResult, RegionPolytope

__all__ = ["render_walls"]

WIDTH = 720.0
HEIGHT = 560.0
MARGIN = 64.0

PREAMBLE = """<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %(w).0f %(h).0f" font-family="Helvetica, Arial, sans-serif">
<defs>
<pattern id="hatch" width="8" height="8" patternTransform="rotate(45)" patternUnits="userSpaceOnUse">
<line x1="0" y1="0" x2="0" y2="8" stroke="#7a9cc4" stroke-width="1"/>
</pattern>
</defs>
<rect x="0" y="0" width="%(w).0f" height="%(h).0f" fill="white"/>
"""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Mapper:
    def __init__(self, box):
        self.bx = float(box[0])
        self.by = float(box[1]) if len(box) > 1 else 1.0
        self.sx = (WIDTH - 2 * MARGIN) / self.bx
        self.sy = (HEIGHT - 2 * MARGIN) / self.by

    def x(self, v) -> float:
        return MARGIN + float(v) * self.sx

    def y(self, v) -> float:
        return HEIGHT - MARGIN - float(v) * self.sy


def _axes(m: _Mapper) -> list[str]:
    parts = [
        f'<line x1="{_fmt(m.x(0))}" y1="{_fmt(m.y(0))}" x2="{_fmt(m.x(m.bx))}" y2="{_fmt(m.y(0))}" stroke="black" stroke-width="1.5"/>',
        f'<line x1="{_fmt(m.x(0))}" y1="{_fmt(m.y(0))}" x2="{_fmt(m.x(0))}" y2="{_fmt(m.y(m.by))}" stroke="black" stroke-width="1.5"/>',
        f'<text x="{_fmt(m.x(m.bx) + 8)}" y="{_fmt(m.y(0) + 4)}" font-size="14">z1</text>',
        f'<text x="{_fmt(m.x(0) - 6)}" y="{_fmt(m.y(m.by) - 8)}" font-size="14" text-anchor="end">z2</text>',
        f'<text x="{_fmt(m.x(0) - 6)}" y="{_fmt(m.y(0) + 16)}" font-size="12" text-anchor="end">0</text>',
        f'<text x="{_fmt(m.x(m.bx))}" y="{_fmt(m.y(0) + 16)}" font-size="12" text-anchor="middle">{m.bx:g}</text>',
        f'<text x="{_fmt(m.x(0) - 6)}" y="{_fmt(m.y(m.by) + 4)}" font-size="12" text-anchor="end">{m.by:g}</text>',
    ]
    return parts


def _region_outline(region: RegionPolytope, m: _Mapper) -> str | None:
    """Closed path through the vertices of the region closure, for shading."""
    if not region.bounded:
        return None
    # The vertices are the feasible pairwise intersections of the half-planes,
    # the two axes included, which gives the origin and the axis intercepts
    # too.  Half-planes are the integer triples (a1, a2, C) meaning a . z <=
    # C / L, and an intersection is (x, y) / (L * det), so it is tested on
    # its integer numerators and converted only if it survives.
    planes = region.halfplanes
    candidates = set()
    for i, (a1, b1, c1) in enumerate(planes):
        for a2, b2, c2 in planes[i + 1 :]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
            if det < 0:
                det, x, y = -det, -x, -y
            if all(q1 * x + q2 * y <= c * det for q1, q2, c in planes):
                den = region.scale * det
                candidates.add((Fraction(x, den), Fraction(y, den)))
    # The closure is convex with the axes as two sides; ordering the outer
    # vertices by x gives the boundary walk.
    outer = sorted((p for p in candidates if p != (0, 0)), key=lambda p: (p[0], -p[1]))
    points = [(Fraction(0), Fraction(0))] + outer
    path = "M " + " L ".join(f"{_fmt(m.x(px))} {_fmt(m.y(py))}" for px, py in points) + " Z"
    return f'<path d="{path}" fill="url(#hatch)" fill-opacity="0.35" stroke="none"/>'


def _equation_label(facet) -> str:
    terms = []
    for i, a in enumerate(facet.coeffs):
        if a:
            coeff = "" if a == 1 else f"{a}"
            terms.append(f"{coeff}z{i + 1}")
    lhs = "+".join(terms) if terms else "0"
    return f"{facet.component}: {lhs}={facet.constant}"


def render_walls(result: EnumerationResult) -> str:
    """Full diagram for an enumeration run: hatched regions, solid facet
    polylines, equation labels."""
    box = result.box
    if len(box) == 1:
        box = (box[0], Fraction(1))
    m = _Mapper(box)
    parts = [PREAMBLE % {"w": WIDTH, "h": HEIGHT}]
    for rec in result.records:
        if len(result.box) == 2:
            outline = _region_outline(rec.region, m)
            if outline:
                parts.append(outline)
    for part in _axes(m):
        parts.append(part)
    for rec in result.records:
        for facet in rec.cfacets:
            if len(result.box) == 1:
                x = facet.midpoint[0]
                x1, y1 = m.x(x), m.y(0)
                x2, y2 = m.x(x), m.y(m.by)
            else:
                x1, y1 = m.x(facet.start[0]), m.y(facet.start[1])
                x2, y2 = m.x(facet.end[0]), m.y(facet.end[1])
            parts.append(
                f'<polyline points="{_fmt(x1)},{_fmt(y1)} {_fmt(x2)},{_fmt(y2)}" '
                'fill="none" stroke="#1a3d6d" stroke-width="2"/>'
            )
            lx, ly = (x1 + x2) / 2 + 5, (y1 + y2) / 2 - 5
            parts.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="10" fill="#1a3d6d">'
                f"{_equation_label(facet)}</text>"
            )
    parts.append("</svg>\n")
    return "\n".join(parts)
