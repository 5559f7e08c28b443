"""Static SVG renders: top-down scene views and bench charts.

The SVG is assembled by hand with fixed number formatting, so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bench import BenchResult
from .discontinuity import Discontinuity
from .local_planner import Tree
from .shot import GlobalPath
from .world import AXIS_X, AXIS_Y, INDEX, MAX, MIN, RADIUS, AxisBox, CollisionModel

DEFAULT_WIDTH = 900  # pixels


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


def _columns(template: str, columns: Sequence[np.ndarray], sep: str) -> str:
    """`template`, whose fields take one value from each of `columns` in turn,
    filled once per row and joined by `sep`. `"%.3f" % v` formats as `_f(v)`."""
    values = np.column_stack(columns).ravel().tolist()
    return sep.join([template] * len(columns[0])) % tuple(values)


def _polyline(canvas: _Canvas, points: np.ndarray, style: str) -> str:
    """Polyline through the world (x, y) rows of `points`."""
    coords = _columns("%.3f,%.3f", (canvas.x(points[:, 0]), canvas.y(points[:, 1])), " ")
    return f'<polyline points="{coords}" fill="none" {style}/>'


def _obstacle_layer(canvas: _Canvas, rows: np.ndarray, style: str) -> list[str]:
    """A circle or rect per packed obstacle row (layout in `world.py`), in
    world order, as one element of the returned list (none for no rows)."""
    if not len(rows):
        return []
    rows = rows[np.argsort(rows[:, INDEX])]
    lo, hi = rows[:, MIN].T, rows[:, MAX].T
    # the canvas mapping on whole columns gives the bits it gives each float;
    # a row holds a rect's x, y, width and height, or a circle's cx, cy and r
    values = np.column_stack((canvas.x(lo[0]), canvas.y(hi[1]), (hi[0] - lo[0]) * canvas.scale,
                              (hi[1] - lo[1]) * canvas.scale))
    is_box = np.isnan(rows[:, RADIUS])
    circles = rows[~is_box]
    values[~is_box, :3] = np.column_stack((canvas.x(circles[:, AXIS_X]),
                                           canvas.y(circles[:, AXIS_Y]),
                                           circles[:, RADIUS] * canvas.scale))
    used = is_box[:, None] | np.array([True, True, True, False])
    style = style.replace("%", "%%")
    rect = f'<rect x="%.3f" y="%.3f" width="%.3f" height="%.3f" {style}/>'
    circle = f'<circle cx="%.3f" cy="%.3f" r="%.3f" {style}/>'
    template = "\n".join([rect if box else circle for box in is_box.tolist()])
    return [template % tuple(values[used].tolist())]


def render_scene(model: CollisionModel, *,
                 arc: GlobalPath | None = None,
                 discontinuities: Sequence[Discontinuity] | None = None,
                 final_path: GlobalPath | None = None,
                 trees: Sequence[Tree] | None = None,
                 trajectory: np.ndarray | None = None,
                 width: int = DEFAULT_WIDTH) -> str:
    """Top-down orthographic view of a scenario and any planning artifacts.

    Draws `model.raw`, the obstacles of `model.world`, with `model.inflated`
    dashed around them.
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
    parts += _obstacle_layer(
        canvas, model.inflated,
        'fill="none" stroke="#c06060" stroke-width="1" stroke-dasharray="6,4"')
    parts.append('</g>')

    parts.append('<g id="obstacles">')
    parts += _obstacle_layer(canvas, model.raw,
                             'fill="#9a9a9a" stroke="#5a5a5a" stroke-width="1"')
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
            if len(tree) > 1:
                parent, child = tree.positions[tree.parents[1:]], tree.positions[1:]
                parts.append(_columns(
                    '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
                    'stroke="#b8b8b8" stroke-width="0.6"/>',
                    (canvas.x(parent[:, 0]), canvas.y(parent[:, 1]),
                     canvas.x(child[:, 0]), canvas.y(child[:, 1])), "\n"))
        parts.append('</g>')

    if arc is not None:
        if discontinuities:
            parts.append('<g id="discontinuities">')
            for d in discontinuities:
                parts.append(_polyline(
                    canvas, arc.rows[d.entry_index:d.exit_index + 1, :2],
                    'stroke="#ff9900" stroke-width="5" stroke-opacity="0.5"'))
            parts.append('</g>')
        parts.append('<g id="arc">')
        parts.append(_polyline(canvas, arc.rows[:, :2],
                               'stroke="#4477cc" stroke-width="1"'))
        parts.append('</g>')

    if final_path is not None:
        parts.append('<g id="final">')
        parts.append(_polyline(canvas, final_path.rows[:, :2],
                               'stroke="#117733" stroke-width="2.5"'))
        parts.append('</g>')

    if trajectory is not None and len(trajectory):
        parts.append('<g id="trajectory">')
        parts.append(_polyline(
            canvas, np.asarray(trajectory, dtype=float)[:, :2],
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
