"""The per-pose path code that `GlobalPath`'s (n, 4) rows replaced: a path as
a tuple of `Pose`, the arc sampler and splice that built one pose at a
time, the path loader that validated each pose on its own, and the path
file text those poses map to. Positions are `Vec3` records, and `add`,
`sub` and `length` below do their arithmetic.

Kept as the oracle the array code is checked against: on the same inputs it
must give equal paths, equal file bytes and the same SchemaError text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from arcshot.discontinuity import Discontinuity
from arcshot.errors import DegenerateArc, DegenerateHeading, SchemaError, SpliceMismatch
from arcshot.shot import ArcShotSpec, _sweep, wrap_to_pi
from arcshot.world import Vec3

PATH_SCHEMA = "path/1"
SPLICE_TOLERANCE = 1e-6


def add(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x + b.x, a.y + b.y, a.z + b.z)


def sub(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x - b.x, a.y - b.y, a.z - b.z)


def length(v: Vec3) -> float:
    return math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)


def horizontal_distance(a: Vec3, b: Vec3) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Pose:
    """Planning state: 3-D position plus yaw, yaw normalized to (-pi, pi]."""

    position: Vec3
    yaw: float

    def __post_init__(self):
        if not math.isfinite(self.yaw):
            raise ValueError(f"Pose.yaw must be finite, got {self.yaw!r}")
        object.__setattr__(self, "yaw", wrap_to_pi(self.yaw))


@dataclass(frozen=True)
class PosePath:
    """Ordered pose sequence, one `Pose` per sample."""

    poses: tuple[Pose, ...]

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 1:
            raise ValueError("GlobalPath needs at least one pose")


def face_target(p: Vec3, target: Vec3) -> float:
    dx = target.x - p.x
    dy = target.y - p.y
    if dx == 0.0 and dy == 0.0:
        raise DegenerateHeading(
            f"position {p} is horizontally coincident with target {target}")
    return wrap_to_pi(math.atan2(dy, dx))


def generate_arc(spec: ArcShotSpec) -> PosePath:
    r0 = horizontal_distance(spec.start, spec.target)
    r1 = horizontal_distance(spec.end, spec.target)
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
        poses.append(Pose(pos, face_target(pos, spec.target)))
    return PosePath(tuple(poses))


def splice(path: PosePath, d: Discontinuity, positions: tuple[Vec3, ...],
           target: Vec3) -> PosePath:
    first, last = positions[0], positions[-1]
    if length(sub(first, Vec3(*d.entry))) > SPLICE_TOLERANCE:
        raise SpliceMismatch(f"local path starts {(first.x, first.y, first.z)} "
                             f"but discontinuity enters at {d.entry}")
    if length(sub(last, Vec3(*d.exit))) > SPLICE_TOLERANCE:
        raise SpliceMismatch(f"local path ends {(last.x, last.y, last.z)} "
                             f"but discontinuity exits at {d.exit}")
    inserted = tuple(Pose(p, face_target(p, target)) for p in positions[1:-1])
    poses = path.poses[:d.entry_index + 1] + inserted + path.poses[d.exit_index:]
    return PosePath(poses)


def path_text(path: PosePath) -> str:
    """The path/1 file of `path`, as the indented JSON encoder writes it."""
    poses = [{"x": p.position.x, "y": p.position.y, "z": p.position.z, "yaw": p.yaw}
             for p in path.poses]
    return json.dumps({"schema": PATH_SCHEMA, "poses": poses}, indent=2,
                      sort_keys=True) + "\n"


# -- the loader ----------------------------------------------------------------

def _expect_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _expect_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise SchemaError(
            f"{path}: expected a number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number, got {number!r}")
    return number


def _check_keys(obj: dict, allowed, required, path: str) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: required field is missing")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown field")


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def path_from_json(data: Any, path: str = "path") -> PosePath:
    obj = _expect_mapping(data, path)
    tag = obj.get("schema")
    if tag != PATH_SCHEMA:
        raise SchemaError(f"{path}.schema: expected {PATH_SCHEMA!r}, got {tag!r}")
    _check_keys(obj, {"schema", "poses"}, ("schema", "poses"), path)
    poses = []
    for i, entry in enumerate(_expect_list(obj["poses"], f"{path}.poses")):
        p = _expect_mapping(entry, f"{path}.poses[{i}]")
        _check_keys(p, {"x", "y", "z", "yaw", "t"}, ("x", "y", "z", "yaw"),
                    f"{path}.poses[{i}]")
        poses.append(_build(
            f"{path}.poses[{i}]", Pose,
            position=Vec3(_expect_number(p["x"], f"{path}.poses[{i}].x"),
                          _expect_number(p["y"], f"{path}.poses[{i}].y"),
                          _expect_number(p["z"], f"{path}.poses[{i}].z")),
            yaw=_expect_number(p["yaw"], f"{path}.poses[{i}].yaw"),
        ))
        if "t" in p:
            _expect_number(p["t"], f"{path}.poses[{i}].t")
    _check_finite_steps(poses, path)
    return _build(path, PosePath, poses=tuple(poses))


def _check_finite_steps(poses: list[Pose], path: str) -> None:
    coords = [(q.position.x, q.position.y, q.position.z) for q in poses]
    for i in range(1, len(coords)):
        for axis, a, b in zip("xyz", coords[i - 1], coords[i]):
            if not math.isfinite(b - a):
                raise SchemaError(f"{path}.poses[{i}].{axis}: expected a finite "
                                  f"difference from poses[{i - 1}], got {b - a!r}")
