"""Hand-rolled SVG diagrams of walls and constancy regions (two ideals).

The picture maps the search box affinely onto a fixed viewport, shades each
discovered region with a hatch pattern and draws every C-facet as one solid
`<polyline>` (exactly one per facet, so diagrams stay checkable against the
JSON report), labelled with its wall equation.  For a single ideal the facets
are points and are drawn as vertical ticks.  A region's shading is the path
through `RegionPolytope.vertex_keys()`, read off the edges each region kept
when the walk clipped it; no geometry is computed here.  Every point, the box
included, is a key (n_1, .., n_r, den) and maps through n / den, which is
float(Fraction(n, den)); `io.key_json` writes the wall constants.  Component
ids in labels are XML-escaped, and non-ASCII characters become character
references (`&#233;`), so the SVG is pure ASCII.

Everything is plain string assembly; output is deterministic.  Each facet is
one `%` template, and a render writes each wall's label once per (component,
constant), however many facets repeat it.
"""

from __future__ import annotations

import math

from .errors import PreconditionViolated
from .io import key_json
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


class _Mapper:
    def __init__(self, box):
        # int true division is correctly rounded: n / den is float(Fraction(n, den))
        self.bx, self.by = box[0] / box[2], box[1] / box[2]
        # an exact side can round to 0.0, or to a float whose scale overflows
        self.sx = (WIDTH - 2 * MARGIN) / self.bx if self.bx else math.inf
        self.sy = (HEIGHT - 2 * MARGIN) / self.by if self.by else math.inf
        if math.isinf(self.sx + self.sy):
            raise PreconditionViolated(f"box {self.bx:g} x {self.by:g} is too small to draw in floating point")

    def x(self, v) -> float:
        return MARGIN + v * self.sx

    def y(self, v) -> float:
        return HEIGHT - MARGIN - v * self.sy

    def point(self, key) -> tuple[float, float]:
        x, y, den = key
        return self.x(x / den), self.y(y / den)


def _axes(m: _Mapper) -> list[str]:
    x0, y0, x1, y1 = m.x(0), m.y(0), m.x(m.bx), m.y(m.by)
    return [
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1.5"/>' % (x0, y0, x1, y0),
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1.5"/>' % (x0, y0, x0, y1),
        '<text x="%.2f" y="%.2f" font-size="14">z1</text>' % (x1 + 8, y0 + 4),
        '<text x="%.2f" y="%.2f" font-size="14" text-anchor="end">z2</text>' % (x0 - 6, y1 - 8),
        '<text x="%.2f" y="%.2f" font-size="12" text-anchor="end">0</text>' % (x0 - 6, y0 + 16),
        '<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">%g</text>' % (x1, y0 + 16, m.bx),
        '<text x="%.2f" y="%.2f" font-size="12" text-anchor="end">%g</text>' % (x0 - 6, y1 + 4, m.by),
    ]


def _region_outline(region: RegionPolytope, m: _Mapper) -> str | None:
    """Closed path through the vertices of the region closure, for shading."""
    if not region.bounded:
        return None
    path = "M " + " L ".join(map("%.2f %.2f".__mod__, map(m.point, region.vertex_keys()))) + " Z"
    return f'<path d="{path}" fill="url(#hatch)" fill-opacity="0.35" stroke="none"/>'


def _equation_label(wall) -> str:
    # wall normals are positive: every coefficient is written
    lhs = "+".join(f"{'' if a == 1 else a}z{i + 1}" for i, a in enumerate(wall.coeffs))
    label = f"{wall.component}: {lhs}={key_json((wall.numerator, wall.scale))[0]}"
    # XML character data, as xml.sax.saxutils.escape gives it (importing that
    # module loads urllib and http, 45 modules and ~7 MB of resident memory),
    # with non-ASCII characters as character references: the SVG is ASCII
    label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return label.encode("ascii", "xmlcharrefreplace").decode("ascii")


# one facet: its polyline and its label, coordinates written %.2f
FACET = (
    '<polyline points="%.2f,%.2f %.2f,%.2f" fill="none" stroke="#1a3d6d" stroke-width="2"/>\n'
    '<text x="%.2f" y="%.2f" font-size="10" fill="#1a3d6d">%s</text>'
)


def render_walls(result: EnumerationResult) -> str:
    """Full diagram for an enumeration run: hatched regions, solid facet
    polylines, equation labels.  The walls of one walk differ only in their
    constants, so each label is made once per (component, constant)."""
    box = result.box
    two = len(box) == 3
    m = _Mapper(box if two else (box[0], box[1], box[1]))  # one ideal: height 1
    parts = [PREAMBLE % {"w": WIDTH, "h": HEIGHT}]
    for rec in result.records:
        if two:
            outline = _region_outline(rec.region, m)
            if outline:
                parts.append(outline)
    parts += _axes(m)
    labels: dict = {}  # (component, numerator) -> the label of that wall
    for rec in result.records:
        for facet in rec.cfacets:
            if not two:
                x, den = facet.keys[2]
                x1, y1 = m.x(x / den), m.y(0)
                x2, y2 = x1, m.y(m.by)
            else:
                (x1, y1), (x2, y2) = map(m.point, facet.keys[:2])
            wall = facet.wall
            name = wall.component, wall.numerator
            label = labels.get(name) or labels.setdefault(name, _equation_label(wall))
            parts.append(FACET % (x1, y1, x2, y2, (x1 + x2) / 2 + 5, (y1 + y2) / 2 - 5, label))
    parts.append("</svg>\n")
    return "\n".join(parts)
