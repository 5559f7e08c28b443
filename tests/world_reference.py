"""The per-obstacle inflation that `CollisionModel` replaced with array
arithmetic, kept as the oracle its packed rows are checked against, and the
closed-form distances and segment sampling that the segment predicate's
tests check its answers with."""

from __future__ import annotations

import math

import numpy as np

from arcshot.world import CULL_PAD, AxisBox, Cylinder, Obstacle, QuadModel, Vec3, World


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
    return expanded(obstacle, g)


def expanded(box: AxisBox, amount: float) -> AxisBox:
    """`box` grown by `amount` on every side."""
    return AxisBox(
        Vec3(box.min.x - amount, box.min.y - amount, box.min.z - amount),
        Vec3(box.max.x + amount, box.max.y + amount, box.max.z + amount),
    )


def pad_distance(obstacle: Obstacle, p) -> float:
    """How far the point `p` (three floats) lies outside the closed obstacle
    in the measure CULL_PAD grows it by: the largest per-axis excess for a
    box, the larger of the radial and the vertical excess for a cylinder;
    0 inside it. It is at most the Euclidean distance, which is at most
    sqrt(3) times it."""
    x, y, z = p
    if isinstance(obstacle, Cylinder):
        c = obstacle.base_center
        radial = math.hypot(x - c.x, y - c.y) - obstacle.radius
        return max(radial, c.z - z, z - (c.z + obstacle.height), 0.0)
    lo, hi = obstacle.min, obstacle.max
    return max(lo.x - x, x - hi.x, lo.y - y, y - hi.y, lo.z - z, z - hi.z, 0.0)


def segment_pad_distance(obstacle: Obstacle, a, b) -> float:
    """Least `pad_distance` from the segment a->b to the obstacle, by
    ternary search over the segment's parameter: that distance is convex
    along a line, as a largest of convex functions, so the search closes in
    on its minimum."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def at(t: float) -> float:
        return pad_distance(obstacle, (a + t * (b - a)).tolist())

    lo, hi = 0.0, 1.0
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if at(m1) <= at(m2):
            hi = m2
        else:
            lo = m1
    return min(at(0.0), at(1.0), at((lo + hi) / 2))


def pad_margin(world: World, quad: QuadModel, a, b) -> float:
    """How far the segment a->b keeps inside what `segment_free` accepts:
    the least of its `segment_pad_distance` to each obstacle inflated for
    `quad`, less CULL_PAD, and of its ends' distances inside the bounds
    shrunk by CULL_PAD (a bottom at exactly 0.0, the ground, is not shrunk).
    The predicate must refuse a segment whose margin is below zero and
    accept one whose margin is above it, up to rounding."""
    lo = world.bounds.min.as_array() + CULL_PAD
    if world.bounds.min.z == 0.0:
        lo[2] = 0.0
    hi = world.bounds.max.as_array() - CULL_PAD
    ends = np.array([a, b], dtype=float)
    gap = min((segment_pad_distance(inflate(o, quad), a, b) for o in world.obstacles),
              default=math.inf)
    return min(float((ends - lo).min()), float((hi - ends).min()), gap - CULL_PAD)


def segment_samples(a, b, step: float) -> np.ndarray:
    """Points along a->b at most `step` apart, both ends included, each
    a + t * (b - a) with t = k * (1 / n) and the last t exactly 1: the
    sampled edge check the program used before its segment predicate."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = float(max(math.ceil(math.dist(a.tolist(), b.tolist()) / step), 1))
    t = np.arange(n + 1.0) * (1.0 / n)
    t[-1] = 1.0
    return a + t[:, None] * (b - a)


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
