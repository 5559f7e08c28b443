"""File formats for worlds, shots, paths, configs, and bench specs.

Everything is JSON with a `schema` tag per file. Loaders validate every
field and raise SchemaError with the offending field path; writers emit
sorted, indented JSON so identical inputs produce identical bytes.

World, shot, config and bench files are declared once, by the dataclasses
they build: a record's keys are its fields, a key is required exactly when
its field has no default, and the field's annotation picks the parser
(`_FIELD_CODECS`, or a nested record for a dataclass). The exceptions are
listed in one place, above `_Record`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import typing
from pathlib import Path
from typing import Any

import numpy as np

from .bench import BenchSpec
from .discontinuity import DEFAULT_MARGIN
from .errors import SchemaError
from .executor import LOG_COLUMNS, FollowConfig
from .local_planner import RrtParams
from .pipeline import PlanReport
from .render import DEFAULT_WIDTH
from .shot import ArcShotSpec, GlobalPath
from .world import (AxisBox, Cylinder, Obstacle, QuadModel, Vec3, World, obstacle_rows,
                    pack_rows, unpack_rows)

WORLD_SCHEMA = "world/1"
SHOT_SCHEMA = "shot/1"
PATH_SCHEMA = "path/1"
CONFIG_SCHEMA = "config/1"
BENCH_SCHEMA = "bench/1"
REPORT_SCHEMA = "plan_report/1"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Aggregated tool configuration; every field has a usable default."""

    quad: QuadModel = QuadModel()
    rrt: RrtParams = RrtParams()
    follow: FollowConfig = FollowConfig()
    margin: int = DEFAULT_MARGIN
    render_width: int = DEFAULT_WIDTH

    def __post_init__(self):
        if self.margin < 1:
            raise ValueError(f"margin must be >= 1, got {self.margin}")
        if self.render_width < 100:
            raise ValueError(f"render_width must be >= 100, got {self.render_width}")


def _at(path) -> str:
    """Text of a field path: a string, or a (parent path, key or list index)
    pair, which loaders pass so that the text is only built when they raise."""
    if isinstance(path, str):
        return path
    parent, key = path
    if isinstance(key, int):
        return f"{_at(parent)}[{key}]"
    return f"{_at(parent)}.{key}"


def _expect_mapping(value: Any, path) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{_at(path)}: expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{_at(path)}: expected an array, got {type(value).__name__}")
    return value


def _as_float(value: Any, path) -> float:
    """A JSON number as a float, which may be NaN or infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{_at(path)}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(
            f"{_at(path)}: expected a number, got an integer too large for a float") from None


def _expect_number(value: Any, path) -> float:
    number = _as_float(value, path)
    if not math.isfinite(number):
        raise SchemaError(f"{_at(path)}: expected a finite number, got {number!r}")
    return number


def _expect_int(value: Any, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{_at(path)}: expected an integer, got {value!r}")
    return value


def _expect_str(value: Any, path) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{_at(path)}: expected a string, got {value!r}")
    return value


def _expect_vec3(value: Any, path) -> Vec3:
    items = _expect_list(value, path)
    if len(items) != 3:
        raise SchemaError(f"{_at(path)}: expected [x, y, z], got {len(items)} values")
    x, y, z = items
    # Vec3 itself rejects a non-finite component, naming it
    return _build(path, Vec3, x=_as_float(x, (path, 0)),
                  y=_as_float(y, (path, 1)), z=_as_float(z, (path, 2)))


def _check_keys(obj: dict, allowed, required, path) -> None:
    """Name the first missing key in `required`'s order, else the first unknown key."""
    for key in required:
        if key not in obj:
            raise SchemaError(f"{_at(path)}.{key}: required field is missing")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{_at(path)}.{key}: unknown field")


def _check_schema(obj: dict, expected: str, path: str) -> None:
    tag = obj.get("schema")
    if tag != expected:
        raise SchemaError(f"{path}.schema: expected {expected!r}, got {tag!r}")


def _build(path, factory, **kwargs):
    """Construct a domain object, mapping invariant violations to SchemaError."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{_at(path)}: {exc}") from exc


def _read_json(file: Path) -> Any:
    return json.loads(Path(file).read_text(encoding="utf-8"))


def _write_json(file: Path, data: Any) -> None:
    Path(file).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


# -- world, shot, config and bench files -------------------------------------
# The exceptions to "a record's keys are its dataclass fields":
# - every file carries a `schema` tag, checked before its keys;
# - shot/1 names `sample_count` `samples`, and requires `direction` although
#   the dataclass defaults it;
# - world/1 obstacles are a list tagged by `kind`, and a box obstacle needs
#   positive extent in every axis (`_expect_obstacle`); they load as the
#   packed rows of `World.rows`, the one field of type `np.ndarray`.

def _same(value):
    return value


class _Record:
    """Loads and dumps one dataclass as a JSON object. `tag` is a (key, value)
    pair that is written first and allowed on load, where the caller checks
    it; `keys` renames fields; `required` requires keys of defaulted fields."""

    def __init__(self, cls, tag: tuple[str, str] | None = None,
                 keys: dict[str, str] | None = None, required: tuple[str, ...] = ()):
        hints = typing.get_type_hints(cls)
        self.cls, self.tag = cls, tag
        self.fields = []  # (key, field name, load, dump) in declared order
        self.required = []  # keys in declared order
        for f in dataclasses.fields(cls):
            key = (keys or {}).get(f.name, f.name)
            self.fields.append((key, f.name, *_field_codec(hints[f.name])))
            if key in required or (f.default is dataclasses.MISSING
                                   and f.default_factory is dataclasses.MISSING):
                self.required.append(key)
        self.allowed = {key for key, *_ in self.fields} | ({tag[0]} if tag else set())

    def load(self, value: Any, path):
        obj = _expect_mapping(value, path)
        _check_keys(obj, self.allowed, self.required, path)
        kwargs = {}
        for key, name, load, _ in self.fields:
            if key in obj:
                kwargs[name] = load(obj[key], (path, key))
        return _build(path, self.cls, **kwargs)

    def load_file(self, data: Any, path: str):
        _check_schema(_expect_mapping(data, path), self.tag[1], path)
        return self.load(data, path)

    def dump(self, record) -> dict:
        data = dict([self.tag]) if self.tag else {}
        for key, name, _, dump in self.fields:
            data[key] = dump(getattr(record, name))
        return data


def _expect_obstacle(value: Any, path) -> Obstacle:
    kind = _expect_str(_expect_mapping(value, path).get("kind"), (path, "kind"))
    if kind not in _OBSTACLES:
        raise SchemaError(f"{_at(path)}.kind: expected 'cylinder' or 'box', got {kind!r}")
    obstacle = _OBSTACLES[kind].load(value, path)
    if kind == "box" and (obstacle.min.x == obstacle.max.x
                          or obstacle.min.y == obstacle.max.y
                          or obstacle.min.z == obstacle.max.z):
        raise SchemaError(f"{_at(path)}: box obstacle needs positive extent")
    return obstacle


def _list_of(load_item):
    """Loader of a JSON array into a tuple whose items `load_item` loads."""
    return lambda value, path: tuple([load_item(v, (path, i))
                                      for i, v in enumerate(_expect_list(value, path))])


_expect_obstacles = _list_of(_expect_obstacle)
_CYLINDER_KEYS = {"kind", "base_center", "radius", "height"}
_BOX_KEYS = {"kind", "min", "max"}
_NUMBER_TYPES = {int, float}


def _is_vec3(value) -> bool:
    return type(value) is list and len(value) == 3


def _obstacles_in_bulk(value: Any) -> np.ndarray | None:
    """The packed rows of the obstacles `_expect_obstacles` loads, checked as
    whole arrays, or None where any check fails, so the caller can name the
    fault with it.

    Passes exactly the lists that loader passes and whose every number is a
    plain int or float: numpy converts an int to the float `float()` gives,
    and raises OverflowError where `float()` does.
    """
    if type(value) is not list:
        return None
    is_box, cylinders, boxes = [], [], []
    for entry in value:
        if type(entry) is not dict:
            return None
        keys = entry.keys()
        if keys == _CYLINDER_KEYS and entry["kind"] == "cylinder":
            center = entry["base_center"]
            if not _is_vec3(center):
                return None
            cylinders += center
            cylinders += (entry["radius"], entry["height"])
            is_box.append(False)
        elif keys == _BOX_KEYS and entry["kind"] == "box":
            lo, hi = entry["min"], entry["max"]
            if not (_is_vec3(lo) and _is_vec3(hi)):
                return None
            boxes += lo
            boxes += hi
            is_box.append(True)
        else:
            return None
    if not set(map(type, cylinders + boxes)) <= _NUMBER_TYPES:
        return None
    try:
        cyl = np.array(cylinders, dtype=float).reshape(-1, 5)
        box = np.array(boxes, dtype=float).reshape(-1, 6)
    except OverflowError:
        return None
    # a box needs min < max on every axis; -0.0 against 0.0 is no extent
    if not (np.isfinite(cyl).all() and np.isfinite(box).all()
            and (cyl[:, 3:] > 0).all() and (box[:, :3] < box[:, 3:]).all()):
        return None
    return pack_rows(cyl, box, is_box)


def _load_obstacles(value: Any, path) -> np.ndarray:
    rows = _obstacles_in_bulk(value)
    return obstacle_rows(_expect_obstacles(value, path)) if rows is None else rows


# (load, dump) per field annotation; any other dataclass is a nested record
_FIELD_CODECS = {
    float: (_expect_number, _same),
    int: (_expect_int, _same),
    str: (_expect_str, _same),
    Vec3: (_expect_vec3, lambda v: [v.x, v.y, v.z]),
    tuple[int, ...]: (_list_of(_expect_int), list),
    np.ndarray: (_load_obstacles, lambda rows: [_OBSTACLES[_KIND[type(o)]].dump(o)
                                                for o in unpack_rows(rows)]),
}


def _field_codec(hint) -> tuple:
    if hint in _FIELD_CODECS:
        return _FIELD_CODECS[hint]
    if not dataclasses.is_dataclass(hint):
        raise TypeError(f"no file codec for fields of type {hint!r}")
    record = _Record(hint)
    return record.load, record.dump


_KIND = {Cylinder: "cylinder", AxisBox: "box"}
_OBSTACLES = {kind: _Record(cls, tag=("kind", kind)) for cls, kind in _KIND.items()}
_WORLD = _Record(World, tag=("schema", WORLD_SCHEMA), keys={"rows": "obstacles"})
_SHOT = _Record(ArcShotSpec, tag=("schema", SHOT_SCHEMA),
                keys={"sample_count": "samples"}, required=("direction",))
_CONFIG = _Record(RunConfig, tag=("schema", CONFIG_SCHEMA))
_BENCH = _Record(BenchSpec, tag=("schema", BENCH_SCHEMA))


def world_from_json(data: Any, path: str = "world") -> World:
    return _WORLD.load_file(data, path)


def load_world(file: Path) -> World:
    return world_from_json(_read_json(file))


def save_world(world: World, file: Path) -> None:
    _write_json(file, _WORLD.dump(world))


def shot_from_json(data: Any, path: str = "shot") -> ArcShotSpec:
    return _SHOT.load_file(data, path)


def load_shot(file: Path) -> ArcShotSpec:
    return shot_from_json(_read_json(file))


def save_shot(spec: ArcShotSpec, file: Path) -> None:
    _write_json(file, _SHOT.dump(spec))


def config_from_json(data: Any, path: str = "config") -> RunConfig:
    return _CONFIG.load_file(data, path)


def load_config(file: Path | None) -> RunConfig:
    if file is None:
        return RunConfig()
    return config_from_json(_read_json(file))


def bench_from_json(data: Any, path: str = "bench") -> BenchSpec:
    return _BENCH.load_file(data, path)


def load_bench(file: Path) -> BenchSpec:
    return bench_from_json(_read_json(file))


# -- path / trajectory ------------------------------------------------------

def _pose_values_in_bulk(poses: Any) -> np.ndarray | None:
    """The (n, 5) values (x, y, z, yaw, t) of the poses the per-pose checks in
    `path_from_json` load, checked as one array, or None where any check
    fails, so the caller can name the fault with those checks."""
    if type(poses) is not list:
        return None
    values = []
    for entry in poses:
        if type(entry) is not dict:
            return None
        keys = entry.keys()
        if keys == _TIMED_POSE_KEYS:
            values += _timed_pose(entry)
        elif keys == _UNTIMED_POSE_KEYS:
            values += _untimed_pose(entry)
            values.append(0.0)
        else:
            return None
    if not set(map(type, values)) <= _NUMBER_TYPES:
        return None
    try:
        rows = np.array(values, dtype=float).reshape(-1, len(_POSE_KEYS))
    except OverflowError:
        return None
    return rows if np.isfinite(rows).all() else None


def path_from_json(data: Any, path: str = "path") -> GlobalPath:
    obj = _expect_mapping(data, path)
    _check_schema(obj, PATH_SCHEMA, path)
    _check_keys(obj, {"schema", "poses"}, ("schema", "poses"), path)
    values = _pose_values_in_bulk(obj["poses"])
    if values is None:
        values = []
        for i, entry in enumerate(_expect_list(obj["poses"], f"{path}.poses")):
            at = f"{path}.poses[{i}]"
            _check_keys(_expect_mapping(entry, at), _POSE_KEYS, _POSE_KEYS[:4], at)
            # only trajectory logs carry `t`; a pose without one passes as t = 0
            values += [_expect_number(entry.get(key, 0.0), (at, key))
                       for key in _POSE_KEYS]
    rows = np.reshape(values, (-1, len(_POSE_KEYS)))[:, :4]
    # following a path steers along the steps between consecutive positions
    with np.errstate(over="ignore"):
        steps = np.diff(rows[:, :3], axis=0)
    bad = np.argwhere(~np.isfinite(steps))
    if bad.size:
        i, axis = bad[0].tolist()
        raise SchemaError(f"{path}.poses[{i + 1}].{'xyz'[axis]}: expected a finite "
                          f"difference from poses[{i}], got {float(steps[i, axis])!r}")
    return _build(path, GlobalPath, rows=rows)


def load_path(file: Path) -> GlobalPath:
    return path_from_json(_read_json(file))


# A pose's keys as the path loader reads them: a path row's columns, then time.
_POSE_KEYS = ("x", "y", "z", "yaw", "t")
_TIMED_POSE_KEYS, _UNTIMED_POSE_KEYS = set(_POSE_KEYS), set(_POSE_KEYS[:4])
_timed_pose, _untimed_pose = (operator.itemgetter(*_POSE_KEYS),
                              operator.itemgetter(*_POSE_KEYS[:4]))
# Pose keys in the order `json.dumps(sort_keys=True)` writes them.
PATH_KEYS = ("x", "y", "yaw", "z")
TRAJECTORY_KEYS = ("t", "x", "y", "yaw", "z")
_PATH_COLUMNS = [0, 1, 3, 2]  # PATH_KEYS' columns in an (x, y, z, yaw) path row
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
    _write_poses(file, PATH_KEYS, path_obj.rows[:, _PATH_COLUMNS].ravel().tolist())


def save_trajectory(log: np.ndarray, file: Path) -> None:
    """Write a state log (rows with columns LOG_COLUMNS) as a path file with times."""
    rows = np.asarray(log, dtype=float)[:, _TRAJECTORY_COLUMNS]
    _write_poses(file, TRAJECTORY_KEYS, rows.ravel().tolist())


# -- plan report ------------------------------------------------------------

def report_to_json(report: PlanReport) -> dict:
    """Deterministic report payload: wall-clock durations are deliberately
    left out so identical inputs always produce identical report bytes."""
    return {
        "schema": REPORT_SCHEMA,
        "seed": report.seed,
        "margin": report.margin,
        # planner and validation share one step; both keys keep the report/1 layout
        "collision_step": report.step,
        "validation_step": report.step,
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
