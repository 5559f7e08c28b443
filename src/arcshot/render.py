"""Static SVG renders: top-down scene views and bench charts.

The SVG is assembled by hand with fixed number formatting, so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .bench import BenchResult
from .discontinuity import Discontinuity
from .local_planner import Tree
from .shot import GlobalPath, Pose4
from .world import AxisBox, CollisionModel, Cylinder


def _f(value: float) -> str:
    return f"{value:.3f}"


class _Canvas:
    """World (x, y) to SVG pixel mapping; world y-up flips to SVG y-down."""

    def __init__(self, bounds: AxisBox, width: int, pad: float = 30.0):
        self.pad = pad
        span_x = bounds.max.x - bounds.min.x
        span_y = bounds.max.y - bounds.min.y
        self.scale = (width - 2 * pad) / span_x
        self.width = width
        self.height = int(round(span_y * self.scale + 2 * pad))
        self.min_x = bounds.min.x
        self.max_y = bounds.max.y

    def x(self, wx: float) -> float:
        return self.pad + (wx - self.min_x) * self.scale

    def y(self, wy: float) -> float:
        return self.pad + (self.max_y - wy) * self.scale


def _polyline(canvas: _Canvas, points: Iterable[tuple[float, float]],
              style: str) -> str:
    """Polyline through world (x, y) points."""
    coords = " ".join(f"{_f(canvas.x(x))},{_f(canvas.y(y))}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" {style}/>'


def _xy(poses: Iterable[Pose4]) -> list[tuple[float, float]]:
    return [(p.position.x, p.position.y) for p in poses]


def _obstacle_svg(canvas: _Canvas, obstacle, style: str) -> str:
    if isinstance(obstacle, Cylinder):
        c = obstacle.base_center
        return (f'<circle cx="{_f(canvas.x(c.x))}" cy="{_f(canvas.y(c.y))}" '
                f'r="{_f(obstacle.radius * canvas.scale)}" {style}/>')
    w = (obstacle.max.x - obstacle.min.x) * canvas.scale
    h = (obstacle.max.y - obstacle.min.y) * canvas.scale
    return (f'<rect x="{_f(canvas.x(obstacle.min.x))}" '
            f'y="{_f(canvas.y(obstacle.max.y))}" '
            f'width="{_f(w)}" height="{_f(h)}" {style}/>')


def render_scene(model: CollisionModel, *,
                 arc: GlobalPath | None = None,
                 discontinuities: Sequence[Discontinuity] | None = None,
                 final_path: GlobalPath | None = None,
                 trees: Sequence[Tree] | None = None,
                 trajectory: np.ndarray | None = None,
                 width: int = 900) -> str:
    """Top-down orthographic view of a scenario and any planning artifacts.

    Draws `model.world` with `model.inflated` dashed around its obstacles.
    `trajectory` holds state log rows whose first two columns are x and y.
    """
    world = model.world
    canvas = _Canvas(world.bounds, width)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width}" '
        f'height="{canvas.height}" '
        f'viewBox="0 0 {canvas.width} {canvas.height}">',
        f'<rect width="{canvas.width}" height="{canvas.height}" fill="#ffffff"/>',
    ]

    b = world.bounds
    parts.append('<g id="bounds">')
    parts.append(
        f'<rect x="{_f(canvas.x(b.min.x))}" y="{_f(canvas.y(b.max.y))}" '
        f'width="{_f((b.max.x - b.min.x) * canvas.scale)}" '
        f'height="{_f((b.max.y - b.min.y) * canvas.scale)}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>')
    parts.append('</g>')

    parts.append('<g id="inflated">')
    for o in model.inflated:
        parts.append(_obstacle_svg(
            canvas, o,
            'fill="none" stroke="#c06060" stroke-width="1" stroke-dasharray="6,4"'))
    parts.append('</g>')

    parts.append('<g id="obstacles">')
    for o in world.obstacles:
        parts.append(_obstacle_svg(
            canvas, o, 'fill="#9a9a9a" stroke="#5a5a5a" stroke-width="1"'))
    parts.append('</g>')

    parts.append('<g id="target">')
    tx, ty = canvas.x(world.target.x), canvas.y(world.target.y)
    parts.append(f'<circle cx="{_f(tx)}" cy="{_f(ty)}" r="5" fill="none" '
                 f'stroke="#cc2222" stroke-width="2"/>')
    parts.append(f'<line x1="{_f(tx - 8)}" y1="{_f(ty)}" x2="{_f(tx + 8)}" '
                 f'y2="{_f(ty)}" stroke="#cc2222" stroke-width="1"/>')
    parts.append(f'<line x1="{_f(tx)}" y1="{_f(ty - 8)}" x2="{_f(tx)}" '
                 f'y2="{_f(ty + 8)}" stroke="#cc2222" stroke-width="1"/>')
    parts.append('</g>')

    if trees:
        parts.append('<g id="tree">')
        for tree in trees:
            positions = tree.positions
            for child in range(1, len(tree)):
                parent = tree.parents[child]
                x1 = canvas.x(positions[parent][0])
                y1 = canvas.y(positions[parent][1])
                x2 = canvas.x(positions[child][0])
                y2 = canvas.y(positions[child][1])
                parts.append(
                    f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" '
                    f'y2="{_f(y2)}" stroke="#b8b8b8" stroke-width="0.6"/>')
        parts.append('</g>')

    if arc is not None:
        if discontinuities:
            parts.append('<g id="discontinuities">')
            for d in discontinuities:
                parts.append(_polyline(
                    canvas, _xy(arc.poses[d.entry_index:d.exit_index + 1]),
                    'stroke="#ff9900" stroke-width="5" stroke-opacity="0.5"'))
            parts.append('</g>')
        parts.append('<g id="arc">')
        parts.append(_polyline(canvas, _xy(arc.poses),
                               'stroke="#4477cc" stroke-width="1"'))
        parts.append('</g>')

    if final_path is not None:
        parts.append('<g id="final">')
        parts.append(_polyline(canvas, _xy(final_path.poses),
                               'stroke="#117733" stroke-width="2.5"'))
        parts.append('</g>')

    if trajectory is not None and len(trajectory):
        parts.append('<g id="trajectory">')
        parts.append(_polyline(
            canvas, np.asarray(trajectory)[:, :2].tolist(),
            'stroke="#7733aa" stroke-width="1.2" stroke-dasharray="3,3"'))
        parts.append('</g>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def render_bench_chart(result: BenchResult, width: int = 640,
                       height: int = 420) -> str:
    """Mean planning duration against the RRT* loop budget."""
    pad = 50.0
    rows = sorted(result.rows, key=lambda r: r.max_loops)
    max_loops = max(r.max_loops for r in rows)
    max_dur = max(r.max_duration_s for r in rows) or 1e-9

    def sx(loops: float) -> float:
        return pad + loops / max_loops * (width - 2 * pad)

    def sy(duration: float) -> float:
        return height - pad - duration / max_dur * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<line x1="{_f(pad)}" y1="{_f(height - pad)}" x2="{_f(width - pad)}" '
        f'y2="{_f(height - pad)}" stroke="#222222" stroke-width="1"/>',
        f'<line x1="{_f(pad)}" y1="{_f(height - pad)}" x2="{_f(pad)}" '
        f'y2="{_f(pad)}" stroke="#222222" stroke-width="1"/>',
        f'<text x="{_f(width / 2)}" y="{_f(height - 12)}" font-size="13" '
        f'text-anchor="middle">planner loops</text>',
        f'<text x="14" y="{_f(height / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {_f(height / 2)})">mean duration (s)</text>',
    ]

    coords = " ".join(f"{_f(sx(r.max_loops))},{_f(sy(r.mean_duration_s))}"
                      for r in rows)
    parts.append(f'<polyline points="{coords}" fill="none" stroke="#4477cc" '
                 f'stroke-width="2"/>')
    for r in rows:
        x, y = sx(r.max_loops), sy(r.mean_duration_s)
        parts.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="3.5" fill="#4477cc"/>')
        parts.append(f'<text x="{_f(x)}" y="{_f(height - pad + 16)}" '
                     f'font-size="11" text-anchor="middle">{r.max_loops}</text>')
        parts.append(f'<text x="{_f(x)}" y="{_f(y - 8)}" font-size="11" '
                     f'text-anchor="middle">{r.mean_duration_s:.3f}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
