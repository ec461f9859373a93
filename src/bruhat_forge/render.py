"""
SVG rendering of the alcove tessellation.

Two modes: the radius picture shades every alcove of word length <= R
by its region (lightest to darkest gray: X, Theta1, Theta2, Theta), and
the interval picture shades exactly the alcoves of a Bruhat interval.
The identity alcove is always the yellow triangle.  Alcove edges are
stroked by the wall generator: s0 blue, s1 green, s2 red.

Geometry stays exact (integer weight coordinates) until the final
float formatting; each alcove becomes one <polygon> carrying data-word
and data-region attributes, which is what the structural golden tests
count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from . import poset, weyl
from .weyl import Element

__all__ = ["render_regions", "render_interval", "alcove_vertices", "REGION_FILLS", "EDGE_COLORS"]

# keyed by data-region name, which a RegionKind (a str enum) also indexes
REGION_FILLS = {
    "X": "#e8e8e8",
    "Theta1": "#c0c0c0",
    "Theta2": "#909090",
    "Theta": "#585858",
    "Identity": "#ffd700",
}

EDGE_COLORS = {0: "#1f4fd8", 1: "#1a9c3e", 2: "#d82f2f"}  # s0 blue, s1 green, s2 red

_SCALE = 60.0
_SQRT3 = math.sqrt(3.0)


def alcove_vertices(w: Element) -> tuple[tuple[Fraction, Fraction], ...]:
    """Cartesian vertices of w(A0), second coordinates as multiples of sqrt(3)."""
    # weight point a*w1 + b*w2 with w1 = (1, 0), w2 = (1/2, sqrt(3)/2);
    # the second coordinate is returned as the rational multiple of sqrt(3)
    return tuple((Fraction(2 * a + b, 2), Fraction(b, 2)) for a, b in w.alcove_vertices())


def _xy(frac_pair) -> tuple[float, float]:
    fx, fy = frac_pair
    # SVG's y axis points down; flip so the picture matches the plane
    return (float(fx) * _SCALE, -float(fy) * _SQRT3 * _SCALE)


def _polygon(w: Element, fill: str, region: str) -> list[str]:
    verts = [_xy(v) for v in alcove_vertices(w)]
    pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in verts)
    word = w.word()
    out = [
        f'<polygon points="{pts}" fill="{fill}" stroke="none" '
        f'data-word="{word}" data-region="{region}" class="alcove region-{region}"/>'
    ]
    # alcove edges: [v0, v2] is the s1 wall, [v0, v1] the s2 wall,
    # [v1, v2] the s0 wall of A0, transported by w
    for s, (i, j) in ((1, (0, 2)), (2, (0, 1)), (0, (1, 2))):
        (x1, y1), (x2, y2) = verts[i], verts[j]
        out.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="{EDGE_COLORS[s]}" stroke-width="1.2"/>'
        )
    return out


def _document(alcoves: list[tuple[Element, str, str]]) -> str:
    xs: list[float] = []
    ys: list[float] = []
    for w, _, _ in alcoves:
        for v in alcove_vertices(w):
            x, y = _xy(v)
            xs.append(x)
            ys.append(y)
    pad = 10.0
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad
    body: list[str] = []
    for w, fill, region in alcoves:
        body.extend(_polygon(w, fill, region))
    width = max_x - min_x
    height = max_y - min_y
    return "\n".join(
        [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{min_x:.3f} {min_y:.3f} {width:.3f} {height:.3f}" '
            f'width="{width:.0f}" height="{height:.0f}">',
            *body,
            "</svg>",
        ]
    )


def render_regions(radius: int) -> str:
    """Tessellation of all alcoves with word length <= radius, shaded by
    region, the identity alcove highlighted."""
    from . import regions

    alcoves = []
    for w in weyl.enumerate_up_to_length(radius):
        kind = regions.classify(w).kind.value
        alcoves.append((w, REGION_FILLS[kind], kind))
    return _document(alcoves)


def render_interval(x: Element, y: Element) -> str:
    """Exactly the alcoves of [x, y], shaded, identity in yellow when
    it belongs to the interval."""
    interval = poset.build_interval(x, y)
    alcoves = []
    for w in interval.members:
        if w.is_identity:
            alcoves.append((w, REGION_FILLS["Identity"], "Identity"))
        else:
            alcoves.append((w, "#9bb7e8", "member"))
    return _document(alcoves)
