"""The per-obstacle inflation that `CollisionModel` replaced with array
arithmetic, kept as the oracle its packed rows are checked against."""

from __future__ import annotations

import math

import numpy as np

from arcshot.world import AxisBox, Cylinder, Obstacle, QuadModel, Vec3


def inflate(obstacle: Obstacle, quad: QuadModel) -> Obstacle:
    """Grow an obstacle by the vehicle's bounding radius plus safety margin.

    Cylinders grow radially and upward; their base also drops by the growth
    amount but never below ground (z=0), so pillars stay grounded. Boxes grow
    outward in every axis.
    """
    g = quad.growth
    if isinstance(obstacle, Cylinder):
        base = obstacle.base_center
        top = base.z + obstacle.height + g
        # never raise the base: keeps inflation monotone for sunken cylinders
        new_base_z = min(base.z, max(0.0, base.z - g))
        return Cylinder(
            base_center=Vec3(base.x, base.y, new_base_z),
            radius=obstacle.radius + g,
            height=top - new_base_z,
        )
    return obstacle.expanded(g)


def bounding_box(o: Obstacle) -> tuple[float, ...]:
    """(min x, min y, min z, max x, max y, max z) of an obstacle."""
    if isinstance(o, Cylinder):
        c = o.base_center
        return (c.x - o.radius, c.y - o.radius, c.z,
                c.x + o.radius, c.y + o.radius, c.z + o.height)
    return (o.min.x, o.min.y, o.min.z, o.max.x, o.max.y, o.max.z)


def inflated_rows(obstacles, quad: QuadModel) -> np.ndarray:
    """The packed rows `CollisionModel` should hold for `obstacles`: each one
    inflated alone, cylinders first, then boxes, each in world order."""
    rows = []
    for i, o in sorted(enumerate(obstacles), key=lambda io: isinstance(io[1], AxisBox)):
        grown = inflate(o, quad)
        if isinstance(grown, Cylinder):
            c = grown.base_center
            tail = (c.x, c.y, grown.radius, grown.radius * grown.radius)
        else:
            tail = (math.nan,) * 4
        rows.append((*bounding_box(grown), *tail, i))
    return np.array(rows, dtype=float).reshape(-1, 11)


def packed_arrays(obstacles, quad: QuadModel):
    """The query arrays the model packed before it held one pack: (cylinder
    rows of x, y, r^2, bottom, top), box minima and box maxima."""
    grown = [inflate(o, quad) for o in obstacles]
    cyls = [o for o in grown if isinstance(o, Cylinder)]
    boxes = [o for o in grown if isinstance(o, AxisBox)]
    cyl = np.array([[c.base_center.x, c.base_center.y, c.radius * c.radius,
                     c.base_center.z, c.base_center.z + c.height] for c in cyls],
                   dtype=float).reshape(len(cyls), 5)
    box_min = np.array([[b.min.x, b.min.y, b.min.z] for b in boxes],
                       dtype=float).reshape(len(boxes), 3)
    box_max = np.array([[b.max.x, b.max.y, b.max.z] for b in boxes],
                       dtype=float).reshape(len(boxes), 3)
    return cyl, box_min, box_max
