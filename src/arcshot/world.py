"""World model: bounds, obstacles, c-space inflation and collision queries.

Obstacles are grown by the vehicle's bounding-sphere radius plus a safety
margin so every later check can treat the vehicle as a point. A point on an
inflated obstacle's surface collides; a point on a world-bounds face is free.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import compress
from typing import Union

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

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).norm()

    def horizontal_distance_to(self, other: "Vec3") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array((self.x, self.y, self.z), dtype=float)

    @classmethod
    def from_array(cls, arr) -> "Vec3":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


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

    def center(self) -> Vec3:
        return Vec3((self.min.x + self.max.x) / 2.0,
                    (self.min.y + self.max.y) / 2.0,
                    (self.min.z + self.max.z) / 2.0)

    def expanded(self, amount: float) -> "AxisBox":
        return AxisBox(
            Vec3(self.min.x - amount, self.min.y - amount, self.min.z - amount),
            Vec3(self.max.x + amount, self.max.y + amount, self.max.z + amount),
        )

    def scaled_about_center(self, factor: float) -> "AxisBox":
        c = self.center()
        hx = (self.max.x - self.min.x) / 2.0 * factor
        hy = (self.max.y - self.min.y) / 2.0 * factor
        hz = (self.max.z - self.min.z) / 2.0 * factor
        return AxisBox(Vec3(c.x - hx, c.y - hy, c.z - hz),
                       Vec3(c.x + hx, c.y + hy, c.z + hz))

    def clipped_to(self, other: "AxisBox") -> "AxisBox":
        """Intersection with `other`; the boxes must overlap."""
        return AxisBox(
            Vec3(max(self.min.x, other.min.x), max(self.min.y, other.min.y),
                 max(self.min.z, other.min.z)),
            Vec3(min(self.max.x, other.max.x), min(self.max.y, other.max.y),
                 min(self.max.z, other.max.z)),
        )


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
        if self.body_radius <= 0:
            raise ValueError(f"QuadModel.body_radius must be > 0, got {self.body_radius}")
        if self.safety_margin < 0:
            raise ValueError(f"QuadModel.safety_margin must be >= 0, got {self.safety_margin}")
        if self.max_speed <= 0:
            raise ValueError(f"QuadModel.max_speed must be > 0, got {self.max_speed}")
        if self.max_yaw_rate <= 0:
            raise ValueError(f"QuadModel.max_yaw_rate must be > 0, got {self.max_yaw_rate}")

    @property
    def growth(self) -> float:
        """Obstacle inflation amount: bounding radius plus margin."""
        return self.body_radius + self.safety_margin


@dataclass(frozen=True)
class World:
    """Static planning volume: bounds, obstacles, and the filming target."""

    bounds: AxisBox
    obstacles: tuple[Obstacle, ...]
    target: Vec3

    def __post_init__(self):
        b = self.bounds
        if not (b.min.x < b.max.x and b.min.y < b.max.y and b.min.z < b.max.z):
            raise ValueError("World.bounds must have positive extent in every axis")
        if not b.contains(self.target):
            raise ValueError(f"World.target {self.target} lies outside bounds")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))


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


# Culling pad, meters: interpolated points may stray from their box by rounding.
CULL_PAD = 1e-6


def _bounding_box(o: Obstacle) -> tuple[float, ...]:
    """(min x, min y, min z, max x, max y, max z) of an obstacle."""
    if isinstance(o, Cylinder):
        c = o.base_center
        return (c.x - o.radius, c.y - o.radius, c.z,
                c.x + o.radius, c.y + o.radius, c.z + o.height)
    return (o.min.x, o.min.y, o.min.z, o.max.x, o.max.y, o.max.z)


class CollisionModel:
    """Point/segment c-free queries against one world inflated for one vehicle.

    `inflated` lists the inflated obstacles in world order; their parameters
    are packed into arrays so batches of points are classified in one pass.
    """

    def __init__(self, world: World, quad: QuadModel):
        self.world = world
        self.quad = quad
        self.inflated = tuple(inflate(o, quad) for o in world.obstacles)

        self._is_cyl = np.array([isinstance(o, Cylinder) for o in self.inflated],
                                dtype=bool)
        self._extent = np.array([_bounding_box(o) for o in self.inflated],
                                dtype=float).reshape(len(self.inflated), 6)
        cyls = [o for o in self.inflated if isinstance(o, Cylinder)]
        boxes = [o for o in self.inflated if isinstance(o, AxisBox)]
        self._cyl = np.array(
            [[c.base_center.x, c.base_center.y, c.radius * c.radius,
              c.base_center.z, c.base_center.z + c.height] for c in cyls],
            dtype=float,
        ).reshape(len(cyls), 5)
        self._box_min = np.array([[b.min.x, b.min.y, b.min.z] for b in boxes],
                                 dtype=float).reshape(len(boxes), 3)
        self._box_max = np.array([[b.max.x, b.max.y, b.max.z] for b in boxes],
                                 dtype=float).reshape(len(boxes), 3)
        self._lo = world.bounds.min.as_array()
        self._hi = world.bounds.max.as_array()

    def within(self, box: AxisBox) -> "CollisionModel":
        """This model restricted to the inflated obstacles whose bounding box
        touches `box` (closed, padded by CULL_PAD).

        Any point inside `box` gets the same `free_points` answer from the
        result as from this model, at the cost of only the kept obstacles.
        """
        lo = box.min.as_array() - CULL_PAD
        hi = box.max.as_array() + CULL_PAD
        keep = np.all((self._extent[:, :3] <= hi) & (self._extent[:, 3:] >= lo), axis=1)
        local = copy.copy(self)
        local.inflated = tuple(compress(self.inflated, keep))
        local._is_cyl = self._is_cyl[keep]
        local._extent = self._extent[keep]
        local._cyl = self._cyl[keep[self._is_cyl]]
        local._box_min = self._box_min[keep[~self._is_cyl]]
        local._box_max = self._box_max[keep[~self._is_cyl]]
        return local

    def free_points(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, 3) array: True where the point is in c-free."""
        pts = np.atleast_2d(pts)
        free = np.all((pts >= self._lo) & (pts <= self._hi), axis=1)
        if self._cyl.size:
            dx = pts[:, 0, None] - self._cyl[:, 0]
            dy = pts[:, 1, None] - self._cyl[:, 1]
            z = pts[:, 2, None]
            hit = ((dx * dx + dy * dy <= self._cyl[:, 2])
                   & (z >= self._cyl[:, 3]) & (z <= self._cyl[:, 4]))
            free &= ~hit.any(axis=1)
        if self._box_min.size:
            inside = np.all(
                (pts[:, None, :] >= self._box_min) & (pts[:, None, :] <= self._box_max),
                axis=2,
            )
            free &= ~inside.any(axis=1)
        return free

    def point_free(self, p: Vec3) -> bool:
        """True iff the vehicle can exist at `p`: inside bounds, outside every
        inflated obstacle; bounds faces count as free, inflated surfaces not."""
        return bool(self.free_points(p.as_array()[None, :])[0])

    def segment_free(self, a: Vec3, b: Vec3, step: float) -> bool:
        """True iff every sample `edge_points` takes along a->b is in c-free."""
        pts, _ = edge_points(a.as_array()[None, :], b.as_array(), step)
        return bool(self.free_points(pts).all())


def collision_model(world: World, quad: QuadModel) -> CollisionModel:
    """A new `CollisionModel(world, quad)`; nothing is cached."""
    return CollisionModel(world, quad)


def edge_points(origins: np.ndarray, end: np.ndarray,
                step: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples of every edge origins[i] -> end, stacked in one array, and the
    row where each edge's samples start. `end` is one (3,) point shared by
    every edge or an (n, 3) array with edge i ending at end[i]; either way
    each edge gets the same bits as it would alone.

    Edge i gets n = max(1, ceil(length / step)) intervals spaced at most
    `step` apart: t = k * (1 / n), as in numpy's linspace, with the last t
    exactly 1, so both endpoints are always sampled.
    """
    if step <= 0:
        raise ValueError(f"collision step must be > 0, got {step}")
    d = origins - end
    lengths = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
    n = np.maximum(np.ceil(lengths / step), 1.0)
    counts = n.astype(np.intp) + 1
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    edge = np.repeat(np.arange(len(origins)), counts)
    t = (np.arange(last[-1] + 1) - first[edge]) * (1.0 / n)[edge]
    t[last] = 1.0
    return origins[edge] + t[:, None] * (end - origins)[edge], first
