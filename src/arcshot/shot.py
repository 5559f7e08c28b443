"""Desired-path generation: arc shots swept around a filming target.

The arc ignores obstacles on purpose; it is the ideal camera move that the
rest of the pipeline repairs where the world gets in the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass(frozen=True)
class Pose4:
    """Planning state: 3-D position plus yaw, yaw normalized to (-pi, pi]."""

    position: Vec3
    yaw: float

    def __post_init__(self):
        if not math.isfinite(self.yaw):
            raise ValueError(f"Pose4.yaw must be finite, got {self.yaw!r}")
        object.__setattr__(self, "yaw", wrap_to_pi(self.yaw))


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
        if self.start.horizontal_distance_to(self.target) == 0.0:
            raise DegenerateArc("shot start sits on the target's vertical axis")
        if self.end.horizontal_distance_to(self.target) == 0.0:
            raise DegenerateArc("shot end sits on the target's vertical axis")


@dataclass(frozen=True)
class GlobalPath:
    """Ordered pose sequence tracing a desired or final shot."""

    poses: tuple[Pose4, ...]
    spec: Optional[ArcShotSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 1:
            raise ValueError("GlobalPath needs at least one pose")

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, i: int) -> Pose4:
        return self.poses[i]

    def position_array(self) -> np.ndarray:
        """The poses' positions as an (n, 3) float array."""
        return np.array([(p.position.x, p.position.y, p.position.z)
                         for p in self.poses], dtype=float)


def face_target(p: Vec3, target: Vec3) -> float:
    """Yaw that points the camera's forward axis at the target, horizontally."""
    dx = target.x - p.x
    dy = target.y - p.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateHeading(
            f"position {p} is horizontally coincident with target {target}")
    return wrap_to_pi(math.atan2(dy, dx))


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
    direction while radius and altitude interpolate linearly. Every pose's
    yaw faces the target.
    """
    r0 = spec.start.horizontal_distance_to(spec.target)
    r1 = spec.end.horizontal_distance_to(spec.target)
    if r0 == 0.0 or r1 == 0.0:
        raise DegenerateArc("arc radius is zero")

    a0 = math.atan2(spec.start.y - spec.target.y, spec.start.x - spec.target.x)
    a1 = math.atan2(spec.end.y - spec.target.y, spec.end.x - spec.target.x)
    sweep = _sweep(a0, a1, spec.direction)

    n = spec.sample_count
    poses = []
    for i in range(n):
        t = i / (n - 1)
        angle = a0 + sweep * t
        radius = r0 + (r1 - r0) * t
        pos = Vec3(
            spec.target.x + radius * math.cos(angle),
            spec.target.y + radius * math.sin(angle),
            spec.start.z + (spec.end.z - spec.start.z) * t,
        )
        poses.append(Pose4(pos, face_target(pos, spec.target)))
    return GlobalPath(tuple(poses), spec)
