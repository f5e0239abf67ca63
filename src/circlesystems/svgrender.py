"""Deterministic SVG rendering for packings and realizations.

Output is byte-identical for identical inputs and options: coordinates are
formatted with a fixed precision and elements are emitted in a fixed order
(shading, circles, arcs, points, labels).
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import NamedTuple

from .errors import EmptyInput, NotRenderable
from .packing import Packing
from .realization import Realization


CIRCLE_STROKE = 1.5
ARC_STROKE = 2.5
POINT_RADIUS = 4.0
ARC_PALETTE = ("#c62828", "#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a",
               "#00838f", "#9e9d24", "#4e342e")


class RenderOptions(NamedTuple):
    """Viewport size in pixels and the layers to draw; stroke widths and
    the point radius are the module constants above, in pixels."""

    width: int = 800
    height: int = 800
    show_circles: bool = True
    show_points: bool = True
    show_arcs: bool = True
    show_labels: bool = False
    shade_gray: bool = False


def _fmt(x):
    if not math.isfinite(x):  # the drawing overflows the float range
        raise ValueError(f"cannot draw: a coordinate comes out as {x}")
    return f"{x:.4f}"


class _Transform:
    """Fit the circle bounding box into the viewport with a 5% margin."""

    def __init__(self, circles, width, height):
        xs = [c.cx - c.r for c in circles] + [c.cx + c.r for c in circles]
        ys = [c.cy - c.r for c in circles] + [c.cy + c.r for c in circles]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        margin = 0.05
        span_x = max(x1 - x0, 1e-9)
        span_y = max(y1 - y0, 1e-9)
        self.scale = min(
            width * (1 - 2 * margin) / span_x,
            height * (1 - 2 * margin) / span_y,
        )
        self.ox = width / 2.0 - self.scale * (x0 + x1) / 2.0
        self.oy = height / 2.0 + self.scale * (y0 + y1) / 2.0

    def point(self, x, y):
        return (self.ox + self.scale * x, self.oy - self.scale * y)

    def length(self, r):
        return self.scale * r


def render_svg(obj, opts: RenderOptions = RenderOptions()) -> str:
    """Render a Realization or Packing to an SVG document string."""
    for name, side in (("width", opts.width), ("height", opts.height)):
        if isinstance(side, bool):  # would be written as True or False
            raise ValueError(f"render {name} must be a number, got {side!r}")
    if not all(0 < side <= sys.float_info.max
               for side in (opts.width, opts.height)):
        raise ValueError("render dimensions must be positive and within "
                         "the float range")

    if not isinstance(obj, (Packing, Realization)):
        raise NotRenderable(
            f"only packings and realizations render, not {type(obj).__name__}")
    circles = list(obj.circles)
    points, arcs = ((obj.points, obj.arcs) if isinstance(obj, Realization)
                    else ((), ()))
    if not circles:
        raise EmptyInput("nothing to render")

    tr = _Transform(circles, opts.width, opts.height)

    def disc(cls, x, y, r, paint):
        px, py = tr.point(x, y)
        return (f'<circle class="{cls}" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'r="{_fmt(r)}" {paint}/>')

    def arc(i, a):
        ci, from_angle, to_angle, _ = a
        cx, cy, cr = circles[ci]
        x0, y0 = tr.point(cx + cr * math.cos(from_angle),
                          cy + cr * math.sin(from_angle))
        x1, y1 = tr.point(cx + cr * math.cos(to_angle),
                          cy + cr * math.sin(to_angle))
        r = _fmt(tr.length(cr))
        large = 1 if a.extent > math.pi else 0
        # math-ccw becomes sweep=0 after the y flip
        return (f'<path class="arc" d="M {_fmt(x0)} {_fmt(y0)} A {r} {r} 0 '
                f'{large} 0 {_fmt(x1)} {_fmt(y1)}" fill="none" '
                f'stroke="{ARC_PALETTE[i % len(ARC_PALETTE)]}" '
                f'stroke-width="{_fmt(ARC_STROKE)}"/>')

    # (group class, shown, elements): a generator formats nothing until
    # its layer is drawn; an empty layer writes no group
    layers = (
        ("shading", opts.shade_gray,
         (disc("shade", c.cx, c.cy, tr.length(c.r),
               'fill="#dddddd" stroke="none"') for c in circles)),
        ("circles", opts.show_circles,
         (disc("circle", c.cx, c.cy, tr.length(c.r),
               f'fill="none" stroke="#333333" '
               f'stroke-width="{_fmt(CIRCLE_STROKE)}"') for c in circles)),
        ("arcs", opts.show_arcs, (arc(i, a) for i, a in enumerate(arcs))),
        ("points", opts.show_points,
         (disc("point", p.x, p.y, POINT_RADIUS, 'fill="#000000"')
          for p in points)),
        ("labels", opts.show_labels, chain(
            (f'<text class="label" x="{_fmt(x)}" y="{_fmt(y)}" '
             f'font-size="14" text-anchor="middle">c{i}</text>'
             for i, (x, y) in enumerate(tr.point(c.cx, c.cy) for c in circles)),
            (f'<text class="label" x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
             f'font-size="12">p{i}</text>'
             for i, (x, y) in enumerate(tr.point(p.x, p.y) for p in points)))),
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    ]
    for cls, shown, elements in layers:
        elements = list(elements) if shown else ()
        if elements:
            parts += [f'<g class="{cls}">', *elements, "</g>"]
    if len(parts) == 1:  # every layer is off, or holds what obj lacks
        raise ValueError("at least one enabled layer must have something "
                         "to draw")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
