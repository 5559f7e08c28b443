"""File formats for worlds, shots, paths, configs, and bench specs.

Everything is JSON with a `schema` tag per file. Loaders validate every
field and raise SchemaError with the offending field path; writers emit
sorted, indented JSON so identical inputs produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import numpy as np

from .bench import BenchSpec
from .errors import SchemaError
from .executor import LOG_COLUMNS, FollowConfig
from .local_planner import RrtParams
from .pipeline import PlanReport
from .shot import ArcShotSpec, GlobalPath, Pose4
from .world import AxisBox, Cylinder, Obstacle, QuadModel, Vec3, World

WORLD_SCHEMA = "world/1"
SHOT_SCHEMA = "shot/1"
PATH_SCHEMA = "path/1"
CONFIG_SCHEMA = "config/1"
BENCH_SCHEMA = "bench/1"
REPORT_SCHEMA = "plan_report/1"
BENCH_RESULT_SCHEMA = "bench_result/1"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Aggregated tool configuration; every field has a usable default."""

    quad: QuadModel = QuadModel()
    rrt: RrtParams = RrtParams()
    follow: FollowConfig = FollowConfig()
    margin: int = 2
    collision_step: float | None = None  # None -> validation step, quad.body_radius / 2
    render_width: int = 900

    def __post_init__(self):
        if self.margin < 1:
            raise ValueError(f"margin must be >= 1, got {self.margin}")
        if self.collision_step is not None and self.collision_step <= 0:
            raise ValueError(f"collision_step must be > 0, got {self.collision_step}")
        if self.render_width < 100:
            raise ValueError(f"render_width must be >= 100, got {self.render_width}")


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
    return float(value)


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {value!r}")
    return value


def _expect_vec3(value: Any, path: str) -> Vec3:
    items = _expect_list(value, path)
    if len(items) != 3:
        raise SchemaError(f"{path}: expected [x, y, z], got {len(items)} values")
    coords = [_expect_number(v, f"{path}[{i}]") for i, v in enumerate(items)]
    try:
        return Vec3(*coords)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: required field is missing")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}: unknown field")


def _check_schema(obj: dict, expected: str, path: str) -> None:
    tag = obj.get("schema")
    if tag != expected:
        raise SchemaError(f"{path}.schema: expected {expected!r}, got {tag!r}")


def _build(path: str, factory, **kwargs):
    """Construct a domain object, mapping invariant violations to SchemaError."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _read_json(file: Path) -> Any:
    return json.loads(Path(file).read_text(encoding="utf-8"))


def _write_json(file: Path, data: Any) -> None:
    Path(file).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# -- world ------------------------------------------------------------------

def _obstacle_from_json(obj: Any, path: str) -> Obstacle:
    mapping = _expect_mapping(obj, path)
    kind = _expect_str(mapping.get("kind"), f"{path}.kind")
    if kind == "cylinder":
        _check_keys(mapping, {"kind", "base_center", "radius", "height"},
                    {"base_center", "radius", "height"}, path)
        return _build(
            path, Cylinder,
            base_center=_expect_vec3(mapping["base_center"], f"{path}.base_center"),
            radius=_expect_number(mapping["radius"], f"{path}.radius"),
            height=_expect_number(mapping["height"], f"{path}.height"),
        )
    if kind == "box":
        _check_keys(mapping, {"kind", "min", "max"}, {"min", "max"}, path)
        box = _build(path, AxisBox,
                     min=_expect_vec3(mapping["min"], f"{path}.min"),
                     max=_expect_vec3(mapping["max"], f"{path}.max"))
        if (box.min.x == box.max.x or box.min.y == box.max.y
                or box.min.z == box.max.z):
            raise SchemaError(f"{path}: box obstacle needs positive extent")
        return box
    raise SchemaError(f"{path}.kind: expected 'cylinder' or 'box', got {kind!r}")


def world_from_json(data: Any, path: str = "world") -> World:
    obj = _expect_mapping(data, path)
    _check_schema(obj, WORLD_SCHEMA, path)
    _check_keys(obj, {"schema", "bounds", "target", "obstacles"},
                {"schema", "bounds", "target", "obstacles"}, path)
    bounds_obj = _expect_mapping(obj["bounds"], f"{path}.bounds")
    _check_keys(bounds_obj, {"min", "max"}, {"min", "max"}, f"{path}.bounds")
    bounds = _build(f"{path}.bounds", AxisBox,
                    min=_expect_vec3(bounds_obj["min"], f"{path}.bounds.min"),
                    max=_expect_vec3(bounds_obj["max"], f"{path}.bounds.max"))
    obstacles = tuple(
        _obstacle_from_json(o, f"{path}.obstacles[{i}]")
        for i, o in enumerate(_expect_list(obj["obstacles"], f"{path}.obstacles"))
    )
    return _build(path, World, bounds=bounds, obstacles=obstacles,
                  target=_expect_vec3(obj["target"], f"{path}.target"))


def world_to_json(world: World) -> dict:
    obstacles = []
    for o in world.obstacles:
        if isinstance(o, Cylinder):
            obstacles.append({
                "kind": "cylinder",
                "base_center": [o.base_center.x, o.base_center.y, o.base_center.z],
                "radius": o.radius,
                "height": o.height,
            })
        else:
            obstacles.append({
                "kind": "box",
                "min": [o.min.x, o.min.y, o.min.z],
                "max": [o.max.x, o.max.y, o.max.z],
            })
    return {
        "schema": WORLD_SCHEMA,
        "bounds": {
            "min": [world.bounds.min.x, world.bounds.min.y, world.bounds.min.z],
            "max": [world.bounds.max.x, world.bounds.max.y, world.bounds.max.z],
        },
        "target": [world.target.x, world.target.y, world.target.z],
        "obstacles": obstacles,
    }


def load_world(file: Path) -> World:
    return world_from_json(_read_json(file))


def save_world(world: World, file: Path) -> None:
    _write_json(file, world_to_json(world))


# -- shot -------------------------------------------------------------------

def shot_from_json(data: Any, path: str = "shot") -> ArcShotSpec:
    obj = _expect_mapping(data, path)
    _check_schema(obj, SHOT_SCHEMA, path)
    _check_keys(obj, {"schema", "start", "end", "target", "direction", "samples"},
                {"schema", "start", "end", "target", "direction"}, path)
    direction = _expect_str(obj["direction"], f"{path}.direction")
    samples = _expect_int(obj.get("samples", 64), f"{path}.samples")
    try:
        return ArcShotSpec(
            start=_expect_vec3(obj["start"], f"{path}.start"),
            end=_expect_vec3(obj["end"], f"{path}.end"),
            target=_expect_vec3(obj["target"], f"{path}.target"),
            direction=direction,
            sample_count=samples,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def shot_to_json(spec: ArcShotSpec) -> dict:
    return {
        "schema": SHOT_SCHEMA,
        "start": [spec.start.x, spec.start.y, spec.start.z],
        "end": [spec.end.x, spec.end.y, spec.end.z],
        "target": [spec.target.x, spec.target.y, spec.target.z],
        "direction": spec.direction,
        "samples": spec.sample_count,
    }


def load_shot(file: Path) -> ArcShotSpec:
    return shot_from_json(_read_json(file))


def save_shot(spec: ArcShotSpec, file: Path) -> None:
    _write_json(file, shot_to_json(spec))


# -- path / trajectory ------------------------------------------------------

def path_from_json(data: Any, path: str = "path") -> GlobalPath:
    obj = _expect_mapping(data, path)
    _check_schema(obj, PATH_SCHEMA, path)
    _check_keys(obj, {"schema", "poses"}, {"schema", "poses"}, path)
    poses = []
    for i, entry in enumerate(_expect_list(obj["poses"], f"{path}.poses")):
        p = _expect_mapping(entry, f"{path}.poses[{i}]")
        _check_keys(p, {"x", "y", "z", "yaw", "t"}, {"x", "y", "z", "yaw"},
                    f"{path}.poses[{i}]")
        poses.append(_build(
            f"{path}.poses[{i}]", Pose4,
            position=Vec3(_expect_number(p["x"], f"{path}.poses[{i}].x"),
                          _expect_number(p["y"], f"{path}.poses[{i}].y"),
                          _expect_number(p["z"], f"{path}.poses[{i}].z")),
            yaw=_expect_number(p["yaw"], f"{path}.poses[{i}].yaw"),
        ))
    return _build(path, GlobalPath, poses=tuple(poses))


def load_path(file: Path) -> GlobalPath:
    return path_from_json(_read_json(file))


# Pose keys in the order `json.dumps(sort_keys=True)` writes them.
PATH_KEYS = ("x", "y", "yaw", "z")
TRAJECTORY_KEYS = ("t", "x", "y", "yaw", "z")
_TRAJECTORY_COLUMNS = [LOG_COLUMNS.index(k) for k in TRAJECTORY_KEYS]


def _poses_json(keys: tuple[str, ...], values: list) -> str:
    """Text of a path file whose poses map the sorted `keys` to consecutive
    runs of `values` (one or more poses).

    Equals `json.dumps(data, indent=2, sort_keys=True) + "\\n"` byte for byte:
    each number is formatted by the compact C encoder, whose tokens are the
    indented encoder's, and placed into a fixed per-pose template.
    """
    tokens = json.dumps(values)[1:-1].split(", ")
    pose = "    {\n" + ",\n".join(f'      "{k}": %s' for k in keys) + "\n    }"
    body = ",\n".join([pose] * (len(tokens) // len(keys))) % tuple(tokens)
    return ('{\n  "poses": [\n' + body
            + f'\n  ],\n  "schema": "{PATH_SCHEMA}"\n}}\n')


def _write_poses(file: Path, keys: tuple[str, ...], values: list) -> None:
    Path(file).write_text(_poses_json(keys, values), encoding="utf-8")


def save_path(path_obj: GlobalPath, file: Path) -> None:
    _write_poses(file, PATH_KEYS, [
        v for pose in path_obj.poses
        for v in (pose.position.x, pose.position.y, pose.yaw, pose.position.z)])


def save_trajectory(log: np.ndarray, file: Path) -> None:
    """Write a state log (rows with columns LOG_COLUMNS) as a path file with times."""
    rows = np.asarray(log, dtype=float)[:, _TRAJECTORY_COLUMNS]
    _write_poses(file, TRAJECTORY_KEYS, rows.ravel().tolist())


# -- config -----------------------------------------------------------------

_QUAD_FIELDS = {"body_radius", "safety_margin", "max_speed", "max_yaw_rate"}
_RRT_FIELDS = {"extend_dist", "neighbor_factor", "max_loops", "goal_radius",
               "window_pad", "window_growth", "fail_limit", "seed"}
_FOLLOW_FIELDS = {"dt", "k_p", "waypoint_tolerance", "max_time"}
_RRT_INT_FIELDS = {"max_loops", "fail_limit", "seed"}


def _section(obj: dict, name: str, fields: set[str], int_fields: set[str],
             factory, path: str):
    section = _expect_mapping(obj.get(name, {}), f"{path}.{name}")
    _check_keys(section, fields, set(), f"{path}.{name}")
    kwargs = {}
    for key, value in section.items():
        field_path = f"{path}.{name}.{key}"
        kwargs[key] = (_expect_int(value, field_path) if key in int_fields
                       else _expect_number(value, field_path))
    return _build(f"{path}.{name}", factory, **kwargs)


def config_from_json(data: Any, path: str = "config") -> RunConfig:
    obj = _expect_mapping(data, path)
    _check_schema(obj, CONFIG_SCHEMA, path)
    _check_keys(obj, {"schema", "quad", "rrt", "follow", "margin",
                      "collision_step", "render_width"}, {"schema"}, path)
    quad = _section(obj, "quad", _QUAD_FIELDS, set(), QuadModel, path)
    rrt = _section(obj, "rrt", _RRT_FIELDS, _RRT_INT_FIELDS, RrtParams, path)
    follow = _section(obj, "follow", _FOLLOW_FIELDS, set(), FollowConfig, path)
    step = obj.get("collision_step")
    if step is not None:
        step = _expect_number(step, f"{path}.collision_step")
    return _build(
        path, RunConfig, quad=quad, rrt=rrt, follow=follow,
        margin=_expect_int(obj.get("margin", 2), f"{path}.margin"),
        collision_step=step,
        render_width=_expect_int(obj.get("render_width", 900),
                                 f"{path}.render_width"),
    )


def load_config(file: Path | None) -> RunConfig:
    if file is None:
        return RunConfig()
    return config_from_json(_read_json(file))


# -- bench ------------------------------------------------------------------

def bench_from_json(data: Any, path: str = "bench") -> BenchSpec:
    obj = _expect_mapping(data, path)
    _check_schema(obj, BENCH_SCHEMA, path)
    _check_keys(obj, {"schema", "loops", "repetitions"},
                {"schema", "loops", "repetitions"}, path)
    loops = tuple(
        _expect_int(v, f"{path}.loops[{i}]")
        for i, v in enumerate(_expect_list(obj["loops"], f"{path}.loops"))
    )
    return _build(path, BenchSpec, loops=loops,
                  repetitions=_expect_int(obj["repetitions"], f"{path}.repetitions"))


def load_bench(file: Path) -> BenchSpec:
    return bench_from_json(_read_json(file))


# -- plan report ------------------------------------------------------------

def report_to_json(report: PlanReport) -> dict:
    """Deterministic report payload: wall-clock durations are deliberately
    left out so identical inputs always produce identical report bytes."""
    return {
        "schema": REPORT_SCHEMA,
        "seed": report.seed,
        "margin": report.margin,
        "collision_step": report.collision_step,
        "validation_step": report.validation_step,
        "params": dataclasses.asdict(report.params),
        "quad": dataclasses.asdict(report.quad),
        "discontinuities": [
            {
                "entry_index": r.entry_index,
                "exit_index": r.exit_index,
                "node_count": r.node_count,
                "loops": r.loops,
                "expansion_level": r.expansion_level,
                "cost": r.cost,
            }
            for r in report.discontinuities
        ],
        "totals": {
            "discontinuities": len(report.discontinuities),
            "nodes": report.total_nodes,
            "loops": report.total_loops,
        },
    }


def save_report(report: PlanReport, file: Path) -> None:
    _write_json(file, report_to_json(report))


def save_json(data: Any, file: Path) -> None:
    _write_json(file, data)
