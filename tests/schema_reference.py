"""The world, shot, config and bench loaders, and the world and shot writers,
as they were hand-written before `arcshot.fileio` derived them from the
dataclasses they build.

Kept verbatim as a reference: for an input with one fault, the record codec
must raise the same SchemaError text as these loaders, and it must write the
same JSON as these writers.
"""

from __future__ import annotations

from typing import Any

from arcshot.bench import BenchSpec
from arcshot.errors import SchemaError
from arcshot.executor import FollowConfig
from arcshot.fileio import RunConfig
from arcshot.local_planner import RrtParams
from arcshot.shot import ArcShotSpec
from arcshot.world import AxisBox, Cylinder, Obstacle, QuadModel, Vec3, World, obstacle_rows

WORLD_SCHEMA = "world/1"
SHOT_SCHEMA = "shot/1"
CONFIG_SCHEMA = "config/1"
BENCH_SCHEMA = "bench/1"


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
    obstacles = obstacles_from_json(obj["obstacles"], f"{path}.obstacles")
    return _build(path, World, bounds=bounds, rows=obstacle_rows(obstacles),
                  target=_expect_vec3(obj["target"], f"{path}.target"))


def obstacles_from_json(data: Any, path: str = "world.obstacles") -> tuple:
    """A world file's obstacles as the dataclasses they describe."""
    return tuple(_obstacle_from_json(o, f"{path}[{i}]")
                 for i, o in enumerate(_expect_list(data, path)))


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
                      "render_width"}, {"schema"}, path)
    quad = _section(obj, "quad", _QUAD_FIELDS, set(), QuadModel, path)
    rrt = _section(obj, "rrt", _RRT_FIELDS, _RRT_INT_FIELDS, RrtParams, path)
    follow = _section(obj, "follow", _FOLLOW_FIELDS, set(), FollowConfig, path)
    return _build(
        path, RunConfig, quad=quad, rrt=rrt, follow=follow,
        margin=_expect_int(obj.get("margin", 2), f"{path}.margin"),
        render_width=_expect_int(obj.get("render_width", 900),
                                 f"{path}.render_width"),
    )


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
