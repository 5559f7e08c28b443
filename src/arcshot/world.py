"""World model: bounds, obstacles, c-space inflation and collision queries.

Obstacles are grown by the vehicle's bounding-sphere radius plus a safety
margin so every later check can treat the vehicle as a point. A point on an
inflated obstacle's surface collides; a point on a world-bounds face is free.
A segment is free when it keeps CULL_PAD from every inflated obstacle and
from every bounds face but the ground (`CollisionModel.segment_free`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class Vec3:
    """Position in the world frame, meters, z up."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Vec3.{name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array((self.x, self.y, self.z), dtype=float)


@dataclass(frozen=True)
class AxisBox:
    """Axis-aligned box; degenerate (zero-extent) boxes are allowed."""

    min: Vec3
    max: Vec3

    def __post_init__(self):
        if self.min.x > self.max.x or self.min.y > self.max.y or self.min.z > self.max.z:
            raise ValueError(f"AxisBox min must be <= max componentwise: {self}")

    def contains(self, p: Vec3) -> bool:
        return (self.min.x <= p.x <= self.max.x
                and self.min.y <= p.y <= self.max.y
                and self.min.z <= p.z <= self.max.z)


@dataclass(frozen=True)
class Cylinder:
    """Vertical pillar: base disk center, radius, height upward from the base."""

    base_center: Vec3
    radius: float
    height: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"Cylinder.radius must be > 0, got {self.radius}")
        if self.height <= 0:
            raise ValueError(f"Cylinder.height must be > 0, got {self.height}")


Obstacle = Union[Cylinder, AxisBox]


@dataclass(frozen=True)
class QuadModel:
    """Vehicle bounding sphere plus clearances and kinematic limits."""

    body_radius: float = 0.3
    safety_margin: float = 0.2
    max_speed: float = 2.0
    max_yaw_rate: float = 1.5

    def __post_init__(self):
        # negated comparisons, so NaN fails them too
        if not self.body_radius > 0:
            raise ValueError(f"QuadModel.body_radius must be > 0, got {self.body_radius}")
        if not self.safety_margin >= 0:
            raise ValueError(f"QuadModel.safety_margin must be >= 0, got {self.safety_margin}")
        if not self.max_speed > 0:
            raise ValueError(f"QuadModel.max_speed must be > 0, got {self.max_speed}")
        if not self.max_yaw_rate > 0:
            raise ValueError(f"QuadModel.max_yaw_rate must be > 0, got {self.max_yaw_rate}")

    @property
    def growth(self) -> float:
        """Obstacle inflation amount: bounding radius plus margin."""
        return self.body_radius + self.safety_margin


# Columns of a packed obstacle row: its closed bounding box (MIN, MAX, whose z
# columns are a cylinder's BOTTOM and TOP), then a cylinder's axis, radius,
# squared radius and HEIGHT, which are NaN for a box, then its INDEX in the
# world. Cylinder rows come first, then box rows, each in world order.
MIN, MAX = slice(0, 3), slice(3, 6)
BOTTOM, TOP = 2, 5
AXIS_X, AXIS_Y, RADIUS, RADIUS_SQ, HEIGHT, INDEX = range(6, 12)


def _cylinder_rows(x, y, bottom, height, radius, index) -> np.ndarray:
    # a radius or top near the float limit rounds its square or sum to inf
    with np.errstate(over="ignore"):
        return np.column_stack((x - radius, y - radius, bottom, x + radius, y + radius,
                                bottom + height, x, y, radius, radius * radius, height,
                                index))


def pack_rows(cylinders: np.ndarray, boxes: np.ndarray, is_box) -> np.ndarray:
    """Packed rows of cylinders given as (n, 5) rows (x, y, z of the base
    center, radius, height) and boxes as (m, 6) rows (min, max), each kind in
    world order; `is_box[i]` is the kind of the world's obstacle i."""
    is_box = np.asarray(is_box, dtype=bool)
    x, y, z, radius, height = cylinders.T
    return np.vstack((
        _cylinder_rows(x, y, z, height, radius, np.flatnonzero(~is_box)),
        np.column_stack((boxes, np.full((len(boxes), 5), math.nan), np.flatnonzero(is_box))),
    ))


def obstacle_rows(obstacles: Sequence[Obstacle]) -> np.ndarray:
    """The obstacles as packed rows, as they are (not inflated)."""
    cylinders = [(o.base_center.x, o.base_center.y, o.base_center.z, o.radius, o.height)
                 for o in obstacles if isinstance(o, Cylinder)]
    boxes = [(o.min.x, o.min.y, o.min.z, o.max.x, o.max.y, o.max.z)
             for o in obstacles if isinstance(o, AxisBox)]
    return pack_rows(np.array(cylinders, dtype=float).reshape(-1, 5),
                     np.array(boxes, dtype=float).reshape(-1, 6),
                     [isinstance(o, AxisBox) for o in obstacles])


def unpack_rows(rows: np.ndarray) -> tuple[Obstacle, ...]:
    """The obstacles that `rows` packs, as dataclasses in world order."""
    obstacles = [None] * len(rows)
    for x0, y0, z0, x1, y1, z1, x, y, radius, _, height, i in rows.tolist():
        obstacles[int(i)] = (AxisBox(Vec3(x0, y0, z0), Vec3(x1, y1, z1))
                             if math.isnan(radius) else Cylinder(Vec3(x, y, z0), radius, height))
    return tuple(obstacles)


@dataclass(frozen=True, eq=False)
class World:
    """Static planning volume: bounds, obstacles, and the filming target.

    The obstacles are held once, as read-only packed `rows` (layout above;
    `obstacle_rows` packs dataclasses). `obstacles` builds them as
    dataclasses on its first read.
    """

    bounds: AxisBox
    rows: np.ndarray
    target: Vec3

    def __post_init__(self):
        b = self.bounds
        if not (b.min.x < b.max.x and b.min.y < b.max.y and b.min.z < b.max.z):
            raise ValueError("World.bounds must have positive extent in every axis")
        if not b.contains(self.target):
            raise ValueError(f"World.target {self.target} lies outside bounds")
        rows = np.array(self.rows, dtype=float).reshape(-1, INDEX + 1)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, World) and self.bounds == other.bounds
                and self.target == other.target
                and np.array_equal(self.rows, other.rows, equal_nan=True))

    @functools.cached_property
    def obstacles(self) -> tuple[Obstacle, ...]:
        return unpack_rows(self.rows)


# Pad, meters, of every segment test and cull: far above the rounding of
# computed points and of the tests themselves.
CULL_PAD = 1e-6


class CollisionModel:
    """Point/segment c-free queries against one world inflated for one vehicle.

    `inflated` holds the inflated obstacles as packed rows (layout above), so
    batches of points are classified in one pass per obstacle kind; `raw`
    holds the same obstacles as they are, row for row: the world's `rows`.
    Cylinders grow radially and upward; their base also drops by the growth
    but never below ground (z=0), so pillars stay grounded. Boxes grow
    outward in every axis.

    Which tests cull: `segments_free` tests its polyline against the model
    culled to the polyline's bounding box (`within`), so every edge check of
    a command (the path scan and validation, each path endpoint as a
    two-row polyline, the takeoff column) pays only for the obstacles near
    it, and `in_bounds` reads the bounds alone. `segment_free`,
    `point_blocked` and `free_points` test every row of the model they are
    asked on: the planner asks them on a model culled to its window.
    """

    def __init__(self, world: World, quad: QuadModel):
        rows = world.rows
        g = quad.growth
        n = np.count_nonzero(rows[:, RADIUS] > 0)
        cyl, box = rows[:n], rows[n:]
        z = cyl[:, BOTTOM]
        lowered = np.where(z - g > 0.0, z - g, 0.0)
        # min(z, max(0, z - g)), signed zeros included: never raise the base,
        # which keeps inflation monotone for sunken cylinders
        bottom = np.where(lowered < z, lowered, z)
        inflated = np.vstack((
            _cylinder_rows(cyl[:, AXIS_X], cyl[:, AXIS_Y], bottom, cyl[:, TOP] + g - bottom,
                           cyl[:, RADIUS] + g, cyl[:, INDEX]),
            np.column_stack((box[:, MIN] - g, box[:, MAX] + g, box[:, AXIS_X:])),
        ))
        self._adopt(world, quad, inflated, rows)

    def _adopt(self, world: World, quad: QuadModel, inflated: np.ndarray,
               raw: np.ndarray) -> None:
        self.world = world
        self.quad = quad
        self.inflated = inflated
        self.raw = raw
        n = np.count_nonzero(inflated[:, RADIUS] > 0)
        self._cyl, self._box = inflated[:n], inflated[n:]
        self._lo = world.bounds.min.as_array()
        self._hi = world.bounds.max.as_array()

    def within(self, lo: np.ndarray, hi: np.ndarray) -> "CollisionModel":
        """This model restricted to the inflated obstacles whose bounding box
        touches the box [`lo`, `hi`] (two (3,) rows; closed, padded by twice
        CULL_PAD).

        Any point or segment inside that box gets the same `free_points` or
        `segment_free` answer from the result as from this model, at the cost
        of only the kept obstacles: `segment_free` grows each row by one pad,
        and the second covers the rounding of both tests.
        """
        (lx, ly, lz), (hx, hy, hz) = (lo - 2 * CULL_PAD).tolist(), (hi + 2 * CULL_PAD).tolist()
        rows = self.inflated
        # one column against one float at a time: a third of the time of an
        # (n, 3) compare reduced along its rows, on a world of 1000 rows
        keep = ((rows[:, 0] <= hx) & (rows[:, 1] <= hy) & (rows[:, 2] <= hz)
                & (rows[:, 3] >= lx) & (rows[:, 4] >= ly) & (rows[:, 5] >= lz))
        local = object.__new__(CollisionModel)
        local._adopt(self.world, self.quad, rows[keep], self.raw[keep])
        return local

    def segment_free(self, a, b) -> bool:
        """True iff the closed segment a->b (two points of three floats,
        (3,) rows or sequences) lies in the bounds shrunk by CULL_PAD and
        misses every inflated obstacle grown by CULL_PAD: a box by a slab
        test, a cylinder by clipping the segment to its z-range and testing
        the clipped part against its disk in the plane (Ericson, *Real-Time
        Collision Detection*, 2004, 5.3). A zero-length segment tests one
        point.

        This is the program's one segment predicate. False means an end
        lies outside the shrunk bounds or the segment comes within CULL_PAD
        of an inflated obstacle. True leaves every point of the segment at
        least CULL_PAD inside the bounds and outside every inflated
        obstacle, up to rounding far below the pad, so any point computed on
        it gets a True `free_points` answer. A bounds bottom of exactly 0.0
        (the ground) is not shrunk: no point between two ends with z >= 0
        lies below 0. One scalar pass over this model's rows, which stops at
        the first it cannot clear, keeps the test cheap on a model culled
        with `within`. A numpy row is read as Python floats, which a
        subnormal direction divides to inf without a warning.
        """
        ax, ay, az = a.tolist() if isinstance(a, np.ndarray) else a
        bx, by, bz = b.tolist() if isinstance(b, np.ndarray) else b
        (lx, ly, lz), (hx, hy, hz), cylinders, boxes = self._scalar_rows
        if not (lx <= ax <= hx and lx <= bx <= hx and ly <= ay <= hy
                and ly <= by <= hy and lz <= az <= hz and lz <= bz <= hz):
            return False
        dx, dy, dz = bx - ax, by - ay, bz - az
        dd = dx * dx + dy * dy
        for cx, cy, bottom, top, radius in cylinders:
            t0, t1 = _clip(az, dz, bottom, top, 0.0, 1.0)
            if t0 <= t1:
                # the clipped part's closest point to the axis in the plane
                ex, ey = cx - ax, cy - ay
                t = (ex * dx + ey * dy) / dd if dd > 0.0 else t0
                t = t0 if t < t0 else t1 if t > t1 else t
                ex, ey = ex - t * dx, ey - t * dy
                if ex * ex + ey * ey <= radius * radius:
                    return False
        for x0, y0, z0, x1, y1, z1 in boxes:
            t0, t1 = _clip(ax, dx, x0, x1, 0.0, 1.0)
            if t0 <= t1:
                t0, t1 = _clip(ay, dy, y0, y1, t0, t1)
                if t0 <= t1:
                    t0, t1 = _clip(az, dz, z0, z1, t0, t1)
                    if t0 <= t1:
                        return False
        return True

    def point_blocked(self, p) -> bool:
        """True iff the point `p` (three floats) lies outside the bounds as
        `segment_free` shrinks them or in a closed inflated obstacle, not
        grown by CULL_PAD; a numpy row is read as Python floats.

        True means `segment_free(a, p)` and `segment_free(p, a)` are False
        for every `a`: a box refuses `p`'s end of the edge in every slab
        clip, exactly, since rounding is monotone; for a cylinder, that end
        is a full pad inside the padded disk and z-range, which the rounding
        of the computed closest point, far below the pad, cannot clear.
        `segment_free(p, p)` is no such test: at the padded surface it has
        no margin.
        """
        x, y, z = p.tolist() if isinstance(p, np.ndarray) else p
        # `in_bounds` inline: the planner asks this once per loop
        (lx, ly, lz), (hx, hy, hz) = self._bounds
        if not (lx <= x <= hx and ly <= y <= hy and lz <= z <= hz):
            return True
        cylinders, boxes = self._point_rows
        for cx, cy, bottom, top, radius_sq in cylinders:
            if bottom <= z <= top:
                ex, ey = x - cx, y - cy
                if ex * ex + ey * ey <= radius_sq:
                    return True
        for x0, y0, z0, x1, y1, z1 in boxes:
            if x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1:
                return True
        return False

    @functools.cached_property
    def _point_rows(self) -> tuple[list, list]:
        """`point_blocked`'s inputs as Python floats, built on its first
        call: the inflated cylinders as (axis x, axis y, bottom, top,
        squared radius) and boxes as (MIN, MAX), as they are."""
        return (self._cyl[:, [AXIS_X, AXIS_Y, BOTTOM, TOP, RADIUS_SQ]].tolist(),
                self._box[:, :6].tolist())

    def in_bounds(self, p) -> bool:
        """True iff the point `p` (three floats) lies in the bounds as
        `segment_free` shrinks them. It reads the bounds alone, never the
        obstacles, so it costs the same on the full model as on a culled one."""
        (lx, ly, lz), (hx, hy, hz) = self._bounds
        x, y, z = p
        return lx <= x <= hx and ly <= y <= hy and lz <= z <= hz

    @functools.cached_property
    def _bounds(self) -> tuple[list, list]:
        """The bounds' min and max as Python floats, moved in by CULL_PAD (a
        bottom at 0.0 stays), built on the first call that reads them."""
        lo, hi = self._lo + CULL_PAD, self._hi - CULL_PAD
        if self._lo[2] == 0.0:
            lo[2] = 0.0
        return lo.tolist(), hi.tolist()

    @functools.cached_property
    def _scalar_rows(self) -> tuple[list, list, list, list]:
        """`segment_free`'s inputs as Python floats, built on its first
        call: `_bounds`, then the cylinders as (axis x, axis y, bottom, top,
        radius) and the boxes as (MIN, MAX), grown by CULL_PAD."""
        lo, hi = self._bounds
        cyl = self._cyl[:, [AXIS_X, AXIS_Y, BOTTOM, TOP, RADIUS]]
        return (lo, hi,
                (cyl + (0.0, 0.0, -CULL_PAD, CULL_PAD, CULL_PAD)).tolist(),
                (self._box[:, :6] + ((-CULL_PAD,) * 3 + (CULL_PAD,) * 3)).tolist())

    def separates(self, a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> bool:
        """True iff, for some axis, one inflated box contains the box
        [`lo`, `hi`] in the other two axes and has its slab along it
        strictly between points `a` and `b`.

        Such a box cuts every continuous path from `a` to `b` inside
        [`lo`, `hi`].
        """
        bmin, bmax = self._box[:, MIN], self._box[:, MAX]
        covers = (bmin <= lo) & (bmax >= hi)  # (boxes, axes)
        covers_others = covers[:, [1, 2, 0]] & covers[:, [2, 0, 1]]
        between = ((a < bmin) & (bmax < b)) | ((b < bmin) & (bmax < a))
        return bool((covers_others & between).any())

    def free_points(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, 3) array: True where the point is in c-free."""
        # the bounds test stays even for a model culled to a window clipped to
        # the bounds: a computed point can leave that window by an ulp
        free = ((pts >= self._lo) & (pts <= self._hi)).all(axis=1)
        cyl = self._cyl
        if cyl.size:
            dx = pts[:, 0, None] - cyl[:, AXIS_X]
            dy = pts[:, 1, None] - cyl[:, AXIS_Y]
            z = pts[:, 2, None]
            hit = ((dx * dx + dy * dy <= cyl[:, RADIUS_SQ])
                   & (z >= cyl[:, BOTTOM]) & (z <= cyl[:, TOP]))
            free &= ~hit.any(axis=1)
        box = self._box
        if box.size:
            p = pts[:, None, :]
            inside = ((p >= box[:, MIN]) & (p <= box[:, MAX])).all(axis=2)
            free &= ~inside.any(axis=1)
        return free

    def segments_free(self, positions: np.ndarray) -> np.ndarray:
        """Mask over the n-1 segments of an (n, 3) polyline: `segment_free`
        of positions[i] -> positions[i+1], against the obstacles near the
        polyline: every segment lies in the bounding box of the positions.
        """
        local = self.within(positions.min(axis=0), positions.max(axis=0))
        rows = positions.tolist()
        return np.array([local.segment_free(a, b) for a, b in zip(rows, rows[1:])],
                        dtype=bool)


def collision_model(world: World, quad: QuadModel) -> CollisionModel:
    """A new `CollisionModel(world, quad)`; nothing is cached."""
    return CollisionModel(world, quad)


def _clip(p: float, d: float, lo: float, hi: float, t0: float,
          t1: float) -> tuple[float, float]:
    """The part of [t0, t1] where p + t * d lies in [lo, hi]; empty (first
    above second) when there is none."""
    if d == 0.0:
        return (t0, t1) if lo <= p <= hi else (1.0, 0.0)
    u, v = (lo - p) / d, (hi - p) / d
    if u > v:
        u, v = v, u
    return (u if u > t0 else t0), (v if v < t1 else t1)
