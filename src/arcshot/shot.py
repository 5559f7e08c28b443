"""Desired-path generation: arc shots swept around a filming target.

The arc ignores obstacles on purpose; it is the ideal camera move that the
rest of the pipeline repairs where the world gets in the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArc, DegenerateHeading
from .world import Vec3

CLOCKWISE = "clockwise"
COUNTERCLOCKWISE = "counterclockwise"

DEFAULT_SAMPLE_COUNT = 64


def wrap_to_pi(angle: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    return math.pi if wrapped == -math.pi else wrapped


def _radius(p: Vec3, center: Vec3) -> float:
    """Horizontal distance from `p` to the vertical axis through `center`."""
    return math.hypot(p.x - center.x, p.y - center.y)


@dataclass(frozen=True)
class ArcShotSpec:
    """Arc shot: sweep from start to end around the target, camera on target."""

    start: Vec3
    end: Vec3
    target: Vec3
    direction: str = COUNTERCLOCKWISE
    sample_count: int = DEFAULT_SAMPLE_COUNT

    def __post_init__(self):
        if self.direction not in (CLOCKWISE, COUNTERCLOCKWISE):
            raise ValueError(
                f"direction must be {CLOCKWISE!r} or {COUNTERCLOCKWISE!r}, "
                f"got {self.direction!r}")
        if self.sample_count < 2:
            raise ValueError(f"sample_count must be >= 2, got {self.sample_count}")
        if _radius(self.start, self.target) == 0.0:
            raise DegenerateArc("shot start sits on the target's vertical axis")
        if _radius(self.end, self.target) == 0.0:
            raise DegenerateArc("shot end sits on the target's vertical axis")


@dataclass(frozen=True, eq=False)
class GlobalPath:
    """Ordered pose sequence of a desired or final shot: read-only (n, 4) float
    rows (x, y, z, yaw), each yaw wrapped to (-pi, pi] by `wrap_to_pi`."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        if rows.size == 0:
            raise ValueError("GlobalPath needs at least one pose")
        if rows.ndim != 2 or rows.shape[1] != 4 or not np.isfinite(rows).all():
            raise ValueError(f"GlobalPath needs finite (n, 4) rows, got shape {rows.shape}")
        # `wrap_to_pi` returns a yaw in (-pi, pi] as it is, so wrap only the rest
        yaws = rows[:, 3]
        outside = ~((yaws > -math.pi) & (yaws <= math.pi))
        yaws[outside] = [wrap_to_pi(yaw) for yaw in yaws[outside].tolist()]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, GlobalPath) and np.array_equal(self.rows, other.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def position_array(self) -> np.ndarray:
        """Read-only (n, 3) view of the rows' positions."""
        return self.rows[:, :3]


def aimed_row(x: float, y: float, z: float, target: Vec3) -> tuple[float, ...]:
    """Path row (x, y, z, yaw) whose yaw faces the target horizontally."""
    dx = target.x - x
    dy = target.y - y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateHeading(
            f"position {Vec3(x, y, z)} is horizontally coincident with target {target}")
    return x, y, z, wrap_to_pi(math.atan2(dy, dx))


def _sweep(angle_start: float, angle_end: float, direction: str) -> float:
    """Signed angular travel in the requested direction, magnitude in (0, 2*pi].

    Coincident start/end angles mean a full revolution, so a shot can orbit
    the long way around even when the short way lies in the other direction.
    """
    if direction == COUNTERCLOCKWISE:
        delta = (angle_end - angle_start) % math.tau
        return math.tau if delta == 0.0 else delta
    delta = (angle_start - angle_end) % math.tau
    return -math.tau if delta == 0.0 else -delta


def generate_arc(spec: ArcShotSpec) -> GlobalPath:
    """Sample the arc shot into a pose sequence.

    In the horizontal plane centered on the target, the polar angle sweeps
    uniformly from the start's angle to the end's angle in the requested
    direction while radius and altitude interpolate linearly. Every row's
    yaw faces the target. Each sample uses libm's `math.cos`, `math.sin` and
    `math.atan2`, whose bits numpy's versions need not match.
    """
    r0 = _radius(spec.start, spec.target)
    r1 = _radius(spec.end, spec.target)
    if r0 == 0.0 or r1 == 0.0:
        raise DegenerateArc("arc radius is zero")

    a0 = math.atan2(spec.start.y - spec.target.y, spec.start.x - spec.target.x)
    a1 = math.atan2(spec.end.y - spec.target.y, spec.end.x - spec.target.x)
    sweep = _sweep(a0, a1, spec.direction)

    n = spec.sample_count
    rows = []
    for i in range(n):
        t = i / (n - 1)
        angle = a0 + sweep * t
        radius = r0 + (r1 - r0) * t
        rows.append(aimed_row(spec.target.x + radius * math.cos(angle),
                              spec.target.y + radius * math.sin(angle),
                              spec.start.z + (spec.end.z - spec.start.z) * t, spec.target))
    return GlobalPath(rows)
