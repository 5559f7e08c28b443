"""The `AxisBox` window arithmetic that `SearchWindow`'s (3,) rows replaced:
`expanded`, `scaled_about_center` and `clipped_to`, one `Vec3` component at a
time, with Python's `min` and `max`.

Kept as the oracle the row code is checked against: on the same inputs its
corners must have the same bits, the sign of a zero included.
"""

from __future__ import annotations

from arcshot.discontinuity import Discontinuity
from arcshot.world import AxisBox, Vec3
from world_reference import expanded


def center(box: AxisBox) -> Vec3:
    return Vec3((box.min.x + box.max.x) / 2.0,
                (box.min.y + box.max.y) / 2.0,
                (box.min.z + box.max.z) / 2.0)


def scaled_about_center(box: AxisBox, factor: float) -> AxisBox:
    c = center(box)
    hx = (box.max.x - box.min.x) / 2.0 * factor
    hy = (box.max.y - box.min.y) / 2.0 * factor
    hz = (box.max.z - box.min.z) / 2.0 * factor
    return AxisBox(Vec3(c.x - hx, c.y - hy, c.z - hz),
                   Vec3(c.x + hx, c.y + hy, c.z + hz))


def clipped_to(box: AxisBox, other: AxisBox) -> AxisBox:
    """Intersection with `other`; the boxes must overlap."""
    return AxisBox(
        Vec3(max(box.min.x, other.min.x), max(box.min.y, other.min.y),
             max(box.min.z, other.min.z)),
        Vec3(min(box.max.x, other.max.x), min(box.max.y, other.max.y),
             min(box.max.z, other.max.z)),
    )


def initial_window(d: Discontinuity, pad: float, bounds: AxisBox) -> AxisBox:
    """Bounding box of the entry and exit, padded, clamped to world bounds."""
    a = Vec3(*d.entry)
    b = Vec3(*d.exit)
    box = AxisBox(
        Vec3(min(a.x, b.x), min(a.y, b.y), min(a.z, b.z)),
        Vec3(max(a.x, b.x), max(a.y, b.y), max(a.z, b.z)),
    )
    return clipped_to(expanded(box, pad), bounds)


def expand_window(box: AxisBox, growth: float, bounds: AxisBox) -> AxisBox:
    """Scale the window about its center and clamp it to bounds."""
    return clipped_to(scaled_about_center(box, growth), bounds)
