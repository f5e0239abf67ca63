"""Deterministic SVG rendering for packings and realizations.

Output is byte-identical for identical inputs and options: coordinates are
formatted with a fixed precision and elements are emitted in a fixed order
(shading, circles, arcs, points, labels).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import EmptyInput, NotRenderable
from .packing import Packing
from .realization import Realization


CIRCLE_STROKE = 1.5
ARC_STROKE = 2.5
POINT_RADIUS = 4.0


@dataclass(frozen=True)
class RenderOptions:
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
    if not all(0 < side <= sys.float_info.max
               for side in (opts.width, opts.height)):
        raise ValueError("render dimensions must be positive and within "
                         "the float range")
    if not (opts.show_circles or opts.show_points or opts.show_arcs
            or opts.show_labels or opts.shade_gray):
        raise ValueError("at least one layer must be enabled")

    if isinstance(obj, Packing):
        circles = list(obj.circles)
        points = []
        arcs = []
    elif isinstance(obj, Realization):
        circles = list(obj.circles)
        points = list(obj.points)
        arcs = list(obj.arcs)
    else:
        raise NotRenderable(
            f"only packings and realizations render, not {type(obj).__name__}")
    if not circles:
        raise EmptyInput("nothing to render")

    tr = _Transform(circles, opts.width, opts.height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{opts.width}" height="{opts.height}" '
        f'viewBox="0 0 {opts.width} {opts.height}">'
    ]

    if opts.shade_gray:
        parts.append('<g class="shading">')
        for c in circles:
            cx, cy = tr.point(c.cx, c.cy)
            parts.append(
                f'<circle class="shade" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(tr.length(c.r))}" fill="#dddddd" stroke="none"/>'
            )
        parts.append("</g>")

    if opts.show_circles:
        parts.append('<g class="circles">')
        for c in circles:
            cx, cy = tr.point(c.cx, c.cy)
            parts.append(
                f'<circle class="circle" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(tr.length(c.r))}" fill="none" stroke="#333333" '
                f'stroke-width="{_fmt(CIRCLE_STROKE)}"/>'
            )
        parts.append("</g>")

    if opts.show_arcs and arcs:
        palette = ("#c62828", "#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a",
                   "#00838f", "#9e9d24", "#4e342e")
        parts.append('<g class="arcs">')
        for i, a in enumerate(arcs):
            c = circles[a.circle]
            x0 = c.cx + c.r * math.cos(a.from_angle)
            y0 = c.cy + c.r * math.sin(a.from_angle)
            x1 = c.cx + c.r * math.cos(a.to_angle)
            y1 = c.cy + c.r * math.sin(a.to_angle)
            p0 = tr.point(x0, y0)
            p1 = tr.point(x1, y1)
            large = 1 if a.extent > math.pi else 0
            # math-ccw becomes sweep=0 after the y flip
            parts.append(
                f'<path class="arc" d="M {_fmt(p0[0])} {_fmt(p0[1])} '
                f'A {_fmt(tr.length(c.r))} {_fmt(tr.length(c.r))} 0 '
                f'{large} 0 {_fmt(p1[0])} {_fmt(p1[1])}" fill="none" '
                f'stroke="{palette[i % len(palette)]}" '
                f'stroke-width="{_fmt(ARC_STROKE)}"/>'
            )
        parts.append("</g>")

    if opts.show_points and points:
        parts.append('<g class="points">')
        for p in points:
            px, py = tr.point(p.x, p.y)
            parts.append(
                f'<circle class="point" cx="{_fmt(px)}" cy="{_fmt(py)}" '
                f'r="{_fmt(POINT_RADIUS)}" fill="#000000"/>'
            )
        parts.append("</g>")

    if opts.show_labels:
        parts.append('<g class="labels">')
        for i, c in enumerate(circles):
            cx, cy = tr.point(c.cx, c.cy)
            parts.append(
                f'<text class="label" x="{_fmt(cx)}" y="{_fmt(cy)}" '
                f'font-size="14" text-anchor="middle">c{i}</text>'
            )
        for i, p in enumerate(points):
            px, py = tr.point(p.x, p.y)
            parts.append(
                f'<text class="label" x="{_fmt(px + 6)}" y="{_fmt(py - 6)}" '
                f'font-size="12">p{i}</text>'
            )
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
