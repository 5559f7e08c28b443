"""The per-element SVG formatting that render replaced with one template per
layer, kept as the oracle its bytes are checked against."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from arcshot.render import _f
from arcshot.world import AXIS_X, AXIS_Y, INDEX, MAX, MIN, RADIUS


def polyline(canvas, points: Iterable[Sequence[float]], style: str) -> str:
    """Polyline through world (x, y) points."""
    coords = " ".join(f"{_f(canvas.x(x))},{_f(canvas.y(y))}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" {style}/>'


def obstacle_layer(canvas, rows: np.ndarray, style: str) -> list[str]:
    """A circle or rect per packed obstacle row, in world order."""
    rows = rows[np.argsort(rows[:, INDEX])]
    lo, hi = rows[:, MIN].T, rows[:, MAX].T
    columns = (canvas.x(lo[0]), canvas.y(hi[1]), (hi[0] - lo[0]) * canvas.scale,
               (hi[1] - lo[1]) * canvas.scale, canvas.x(rows[:, AXIS_X]),
               canvas.y(rows[:, AXIS_Y]), rows[:, RADIUS] * canvas.scale)
    elements = []
    for x, y, w, h, cx, cy, r in zip(*(c.tolist() for c in columns)):
        if math.isnan(r):
            elements.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" '
                            f'height="{_f(h)}" {style}/>')
        else:
            elements.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" {style}/>')
    return elements


def tree_lines(canvas, tree) -> list[str]:
    """One line per tree edge, parent to child, in child order."""
    lines = []
    positions = tree.positions
    for child in range(1, len(tree)):
        parent = tree.parents[child]
        x1 = canvas.x(positions[parent][0])
        y1 = canvas.y(positions[parent][1])
        x2 = canvas.x(positions[child][0])
        y2 = canvas.y(positions[child][1])
        lines.append(f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" '
                     f'y2="{_f(y2)}" stroke="#b8b8b8" stroke-width="0.6"/>')
    return lines
