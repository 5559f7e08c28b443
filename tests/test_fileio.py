import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcshot import fileio
from arcshot.bench import BenchSpec
from arcshot.errors import ArcshotError, SchemaError
from arcshot.executor import FollowConfig
from arcshot.local_planner import RrtParams
from arcshot.pipeline import plan_shot
from arcshot.shot import GlobalPath
from arcshot.world import CollisionModel, Cylinder, QuadModel, obstacle_rows
from conftest import demo_shot, demo_world, make_world
import schema_reference
from world_reference import unpack_rows


def test_world_round_trip(tmp_path):
    world = demo_world()
    file = tmp_path / "world.json"
    fileio.save_json(schema_reference.world_to_json(world), file)
    assert fileio.load_world(file) == world


def test_shot_round_trip(tmp_path):
    spec = demo_shot()
    file = tmp_path / "shot.json"
    fileio.save_json(schema_reference.shot_to_json(spec), file)
    assert fileio.load_shot(file) == spec


def test_path_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(31)
    rows = [(*rng.uniform(-20, 20, 3), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(40)]
    path = GlobalPath(rows)
    file = tmp_path / "path.json"
    fileio.save_path(path, file)
    loaded = fileio.load_path(file)
    assert np.array_equal(loaded.rows, path.rows)  # exact float equality
    assert loaded == path

    # writing the loaded path again reproduces identical bytes
    file2 = tmp_path / "again.json"
    fileio.save_path(loaded, file2)
    assert file.read_bytes() == file2.read_bytes()


def test_trajectory_serialization_keeps_time(tmp_path):
    log = np.array([(0, 0, 0, 0.0, 0.0), (0, 0, 1, 0.1, 0.02)])
    file = tmp_path / "traj.json"
    fileio.save_trajectory(log, file)
    data = json.loads(file.read_text())
    assert data["schema"] == "path/1"
    assert data["poses"][1]["t"] == 0.02
    # a trajectory file parses as a plain path too
    assert len(fileio.load_path(file)) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_trajectory_writer_refuses_a_non_finite_log(value, tmp_path):
    # the path loader refuses NaN and Infinity, so no such file is written
    log = np.array([(0, 0, 0, 0.0, 0.0), (0, 0, 1, 0.1, 0.02), (0, 0, 2, 0.1, 0.04)])
    log[1, 2] = value
    file = tmp_path / "traj.json"
    with pytest.raises(ValueError, match="non-finite"):
        fileio.save_trajectory(log, file)
    assert not file.exists()


def indented_json(keys, values) -> str:
    """Reference for the pose writer: the indented encoder on built dicts."""
    m = len(keys)
    poses = [dict(zip(keys, values[i:i + m])) for i in range(0, len(values), m)]
    return json.dumps({"schema": "path/1", "poses": poses}, indent=2,
                      sort_keys=True) + "\n"


_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7,
                     1e-5, 9999999999999998.0, 0.1, 1.7976931348623157e308]),
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([fileio.PATH_KEYS, fileio.TRAJECTORY_KEYS]),
       st.integers(1, 40), st.data())
def test_pose_writer_equals_the_indented_encoder(keys, count, data):
    assert list(keys) == sorted(keys)
    values = data.draw(st.lists(_NUMBER, min_size=count * len(keys),
                                max_size=count * len(keys)))
    assert fileio._poses_json(keys, values) == indented_json(keys, values)


def test_pose_writer_equals_the_indented_encoder_on_many_poses():
    rng = np.random.default_rng(5)
    rows = rng.normal(scale=10.0, size=(3000, 5)) ** 3
    values = rows.ravel().tolist()
    assert (fileio._poses_json(fileio.TRAJECTORY_KEYS, values)
            == indented_json(fileio.TRAJECTORY_KEYS, values))


def test_trajectory_file_equals_the_indented_encoder(tmp_path):
    # what save_trajectory used to write: one dict per state, time included
    log = np.random.default_rng(8).uniform(-20, 20, size=(50, 5))
    file = tmp_path / "traj.json"
    fileio.save_trajectory(log, file)
    poses = [{"x": x, "y": y, "z": z, "yaw": yaw, "t": t}
             for x, y, z, yaw, t in log.tolist()]
    assert file.read_text() == json.dumps({"schema": "path/1", "poses": poses},
                                          indent=2, sort_keys=True) + "\n"


def test_config_defaults_and_partial_files(tmp_path):
    assert fileio.load_config(None) == fileio.RunConfig()
    file = tmp_path / "config.json"
    file.write_text(json.dumps({
        "schema": "config/1",
        "rrt": {"extend_dist": 0.2, "seed": 9},
        "quad": {"body_radius": 0.25},
    }))
    config = fileio.load_config(file)
    assert config.rrt.extend_dist == 0.2
    assert config.rrt.seed == 9
    assert config.rrt.max_loops == 500  # untouched default
    assert config.quad.body_radius == 0.25
    assert config.follow.dt == 0.02


@pytest.mark.parametrize("payload, needle", [
    ({"schema": "nope/9"}, "world.schema"),
    ({"schema": "world/1", "target": [0, 0, 1], "obstacles": []},
     "world.bounds: required"),
    ({"schema": "world/1", "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},
      "target": [1, 2], "obstacles": []}, "world.target"),
    ({"schema": "world/1", "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},
      "target": [1, 2, 1], "obstacles": [{"kind": "sphere"}]},
     "world.obstacles[0].kind"),
    ({"schema": "world/1", "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},
      "target": [1, 2, 1],
      "obstacles": [{"kind": "cylinder", "base_center": [1, 1, 0],
                     "radius": -1, "height": 2}]},
     "world.obstacles[0]: Cylinder.radius"),
    ({"schema": "world/1", "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},
      "target": [1, 2, 1], "obstacles": [], "extra": 1}, "world.extra"),
])
def test_world_schema_errors_carry_field_paths(payload, needle):
    with pytest.raises(SchemaError) as err:
        fileio.world_from_json(payload)
    assert needle in str(err.value)


def test_shot_schema_rejects_bad_direction():
    payload = {"schema": "shot/1", "start": [5, 0, 2], "end": [-5, 0, 2],
               "target": [0, 0, 0], "direction": "sideways"}
    with pytest.raises(SchemaError) as err:
        fileio.shot_from_json(payload)
    assert "shot" in str(err.value)


def test_config_schema_error_names_the_nested_field():
    payload = {"schema": "config/1", "rrt": {"extend_dist": -1.0}}
    with pytest.raises(SchemaError) as err:
        fileio.config_from_json(payload)
    assert "config.rrt" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ('{"schema": "config/1", "quad": {"body_radius": NaN}}',
     "config.quad.body_radius: expected a finite number, got nan"),
    ('{"schema": "world/1", "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},'
     ' "target": [1, 2, 1], "obstacles": [{"kind": "cylinder",'
     ' "base_center": [1, 1, 0], "radius": Infinity, "height": 2}]}',
     "world.obstacles[0].radius: expected a finite number, got inf"),
], ids=["config", "world"])
def test_non_finite_numbers_are_schema_errors(text, message):
    # json.loads accepts NaN and Infinity; the range checks would let NaN by
    data = json.loads(text)
    load = fileio.config_from_json if data["schema"] == "config/1" else fileio.world_from_json
    with pytest.raises(SchemaError) as err:
        load(data)
    assert str(err.value) == message


@pytest.mark.parametrize("t, message", [
    ("abc", "path.poses[1].t: expected a number, got 'abc'"),
    ([1, 2], "path.poses[1].t: expected a number, got [1, 2]"),
    (True, "path.poses[1].t: expected a number, got True"),
    (math.inf, "path.poses[1].t: expected a finite number, got inf"),
])
def test_path_pose_time_must_be_a_finite_number(t, message):
    pose = {"x": 0.0, "y": 0.0, "z": 1.0, "yaw": 0.0}
    payload = {"schema": "path/1", "poses": [{**pose, "t": 0.0}, {**pose, "t": t}]}
    with pytest.raises(SchemaError) as err:
        fileio.path_from_json(payload)
    assert str(err.value) == message
    del payload["poses"][1]["t"]    # a pose without `t` is a plain path pose
    assert len(fileio.path_from_json(payload)) == 2


@pytest.mark.parametrize("first, second, message", [
    ((1.7e308, 0.0, 2.0), (-1.7e308, 0.0, 2.0),
     "path.poses[1].x: expected a finite difference from poses[0], got -inf"),
    ((0.0, -1e308, 2.0), (0.0, 1e308, 2.0),
     "path.poses[1].y: expected a finite difference from poses[0], got inf"),
    ((0.0, 0.0, -1.7976931348623157e308), (0.0, 0.0, 1e292),
     "path.poses[1].z: expected a finite difference from poses[0], got inf"),
])
def test_path_poses_must_differ_by_finite_amounts(first, second, message):
    # following a path steers along the differences of consecutive poses
    poses = [dict(zip("xyz", p), yaw=0.0) for p in (first, second)]
    with pytest.raises(SchemaError) as err:
        fileio.path_from_json({"schema": "path/1", "poses": poses})
    assert str(err.value) == message
    # the same extremes a finite step apart load
    near = [dict(zip("xyz", p), yaw=0.0) for p in (first, first)]
    assert len(fileio.path_from_json({"schema": "path/1", "poses": near})) == 2


def test_config_rejects_unknown_keys():
    payload = {"schema": "config/1", "rrt": {"extend_distance": 1.0}}
    with pytest.raises(SchemaError) as err:
        fileio.config_from_json(payload)
    assert "config.rrt.extend_distance" in str(err.value)


def test_bench_spec_load_and_validation(tmp_path):
    file = tmp_path / "bench.json"
    file.write_text(json.dumps(
        {"schema": "bench/1", "loops": [150, 500], "repetitions": 3}))
    spec = fileio.load_bench(file)
    assert spec == BenchSpec((150, 500), 3)
    with pytest.raises(SchemaError):
        fileio.bench_from_json(
            {"schema": "bench/1", "loops": [], "repetitions": 3})
    with pytest.raises(SchemaError):
        fileio.bench_from_json(
            {"schema": "bench/1", "loops": [100], "repetitions": 0})


def test_report_json_is_deterministic_and_has_no_wall_clock(quad):
    model = CollisionModel(demo_world(), quad)
    params = RrtParams(extend_dist=0.2, seed=3)
    a = plan_shot(model, demo_shot(), params)
    b = plan_shot(model, demo_shot(), params)
    ja, jb = fileio.report_to_json(a), fileio.report_to_json(b)
    assert ja == jb
    assert "duration" not in json.dumps(ja)
    assert ja["totals"]["nodes"] == sum(len(r.tree) for r in a.detours)


# -- the record codec against the hand-written loaders it replaced -----------

REFERENCE_LOADERS = {
    "world/1": (fileio.world_from_json, schema_reference.world_from_json),
    "shot/1": (fileio.shot_from_json, schema_reference.shot_from_json),
    "config/1": (fileio.config_from_json, schema_reference.config_from_json),
    "bench/1": (fileio.bench_from_json, schema_reference.bench_from_json),
}


def _num(lo, hi):
    """JSON numbers in [lo, hi]: integers where the range holds any, and floats."""
    ints = [st.integers(math.ceil(lo), math.floor(hi))] if math.ceil(lo) <= hi else []
    return st.one_of(*ints, st.floats(lo, hi))


def _vec(lo=-30, hi=30):
    return st.lists(_num(lo, hi), min_size=3, max_size=3)


@st.composite
def _cylinders(draw):
    return {"kind": "cylinder", "base_center": draw(_vec()),
            "radius": draw(_num(0.01, 9)), "height": draw(_num(0.01, 9))}


@st.composite
def _boxes(draw):
    lo = draw(_vec())
    return {"kind": "box", "min": lo,
            "max": [v + draw(_num(0.01, 9)) for v in lo]}


@st.composite
def world_files(draw, min_obstacles=0):
    return {"schema": "world/1",
            "bounds": {"min": draw(_vec(-30, -2)), "max": draw(_vec(2, 30))},
            "target": draw(_vec(-1, 1)),
            "obstacles": draw(st.lists(st.one_of(_cylinders(), _boxes()),
                                       min_size=min_obstacles, max_size=3))}


@st.composite
def shot_files(draw):
    target = draw(_vec(-9, 9))
    data = {"schema": "shot/1",
            "start": [target[0] + draw(_num(1, 20)), target[1], draw(_num(0, 9))],
            "end": [target[0] - draw(_num(1, 20)), target[1], draw(_num(0, 9))],
            "target": target,
            "direction": draw(st.sampled_from(["clockwise", "counterclockwise"]))}
    if draw(st.booleans()):
        data["samples"] = draw(st.integers(2, 200))
    return data


CONFIG_VALUES = {
    "quad": {"body_radius": _num(0.05, 1), "safety_margin": _num(0, 1),
             "max_speed": _num(0.5, 5), "max_yaw_rate": _num(0.5, 3)},
    "rrt": {"extend_dist": _num(0.1, 2), "neighbor_factor": _num(1.5, 3),
            "max_loops": st.integers(1, 5000), "goal_radius": _num(0.1, 2),
            "window_pad": _num(0, 3), "window_growth": _num(1.2, 3),
            "fail_limit": st.integers(1, 9), "seed": st.integers(0, 2 ** 64 - 1)},
    "follow": {"dt": _num(0.005, 0.05), "k_p": _num(0.1, 10),
               "waypoint_tolerance": _num(0.05, 1), "max_time": _num(1, 300)},
    "": {"margin": st.integers(1, 5), "render_width": st.integers(100, 2000)},
}


@st.composite
def config_files(draw):
    data = {"schema": "config/1"}
    for section, values in CONFIG_VALUES.items():
        if draw(st.booleans()):
            keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
            fields = {key: draw(values[key]) for key in keys}
            data.update({section: fields} if section else fields)
    return data


@st.composite
def bench_files(draw):
    return {"schema": "bench/1",
            "loops": draw(st.lists(st.integers(1, 5000), min_size=1, max_size=4,
                                   unique=True)),
            "repetitions": draw(st.integers(1, 50))}


REQUIRED = {
    "world/1": ("schema", "bounds", "target", "obstacles"), "bounds": ("min", "max"),
    "cylinder": ("kind", "base_center", "radius", "height"), "box": ("kind", "min", "max"),
    "shot/1": ("schema", "start", "end", "target", "direction"),
    "config/1": ("schema",), "quad": (), "rrt": (), "follow": (),
    "bench/1": ("schema", "loops", "repetitions"),
}
VEC_KEYS = {"min", "max", "target", "start", "end", "base_center"}
INT_KEYS = {"samples", "max_loops", "fail_limit", "seed", "margin", "render_width",
            "repetitions", "loops"}
OUT_OF_RANGE = {
    "radius": [0, -1.5], "height": [0, -2], "samples": [1, 0, -4],
    "repetitions": [0, -1], "loops": [0, -3], "margin": [0, -2],
    "render_width": [99, 0],
    "body_radius": [0, -1], "safety_margin": [-0.1], "max_speed": [0, -1],
    "max_yaw_rate": [0, -0.5], "extend_dist": [0, -1], "neighbor_factor": [1, 0.5],
    "max_loops": [0, -10], "goal_radius": [0, -1], "window_pad": [-1],
    "window_growth": [1, 0.5], "fail_limit": [0], "seed": [-1, 2 ** 64],
    "dt": [0, -0.01], "k_p": [0, -1, 1000], "waypoint_tolerance": [0, -0.1],
    "max_time": [0, -5], "direction": ["sideways", "Clockwise"],
}


def _walk(value, loc=()):
    """(location, value) of every value in a JSON tree, the root first."""
    yield loc, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _walk(item, loc + (key,))


def _key(loc) -> str:
    return next(k for k in reversed(loc) if isinstance(k, str))


def _get(data, loc):
    for key in loc:
        data = data[key]
    return data


def _replaced(data, loc, value):
    if not loc:
        return value
    _get(data, loc[:-1])[loc[-1]] = value
    return data


def _category(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _missing_key(draw, data):
    required = [(obj, REQUIRED[obj.get("kind") or obj.get("schema") or loc[-1]])
                for loc, obj in _walk(data) if isinstance(obj, dict)]
    obj, keys = draw(st.sampled_from([(obj, keys) for obj, keys in required if keys]))
    del obj[draw(st.sampled_from(keys))]
    return data


def _unknown_key(draw, data):
    obj = draw(st.sampled_from([v for _, v in _walk(data) if isinstance(v, dict)]))
    key = draw(st.sampled_from(
        [k for k in ("extra", "Min", "sample_count", "kind", "schema", "t")
         if k not in obj]))
    obj[key] = draw(st.sampled_from([1, "x", None]))
    return data


def _wrong_type(draw, data):
    loc, value = draw(st.sampled_from(list(_walk(data))))
    valid = {_category(value)}
    pool = [v for v in (None, True, 3, "x", [], {}) if _category(v) not in valid]
    if loc and _key(loc) in INT_KEYS and _category(value) == "number":
        pool.append(2.5)
    return _replaced(data, loc, draw(st.sampled_from(pool)))


def _wrong_length(draw, data):
    loc = draw(st.sampled_from(
        [loc for loc, v in _walk(data) if loc and loc[-1] in VEC_KEYS]))
    length = draw(st.sampled_from([0, 1, 2, 4, 5]))
    return _replaced(data, loc, draw(st.lists(_num(-9, 9), min_size=length,
                                              max_size=length)))


def _bad_kind(draw, data):
    obstacle = draw(st.sampled_from(data["obstacles"]))
    obstacle["kind"] = draw(st.sampled_from(["sphere", "", "Box", "cylinders"]))
    return data


def _out_of_range(draw, data):
    """One value out of its field's range: a number, a coordinate, or a
    relation between fields (bounds, target, box extent, arc radius)."""
    numbers = [(loc, OUT_OF_RANGE[_key(loc)]) for loc, v in _walk(data)
               if loc and _key(loc) in OUT_OF_RANGE and not isinstance(v, (dict, list))]
    coordinates = [(loc, [math.inf, -math.inf, math.nan]) for loc, v in _walk(data)
                   if len(loc) > 1 and loc[-2] in VEC_KEYS]
    relations = []
    schema = data["schema"]
    if schema == "config/1":  # a value the file left at its default
        numbers += [(((section,) if section else ()) + (key,), OUT_OF_RANGE[key])
                    for section, values in CONFIG_VALUES.items() for key in values]
        for section in ("quad", "rrt", "follow"):
            data.setdefault(section, {})
    if schema == "bench/1":
        relations.append((("loops",), [[], data["loops"] + data["loops"][:1]]))
    if schema == "world/1":
        lo, hi = data["bounds"]["min"], data["bounds"]["max"]
        for axis in range(3):
            relations += [(("bounds", "max", axis), [lo[axis], lo[axis] - 1]),
                          (("target", axis), [hi[axis] + 1, lo[axis] - 1])]
            relations += [(("obstacles", i, "max", axis),
                           [o["min"][axis], o["min"][axis] - 1])
                          for i, o in enumerate(data["obstacles"]) if o["kind"] == "box"]
    if schema == "shot/1":
        relations += [((end,), [list(data["target"])]) for end in ("start", "end")]
    places = draw(st.sampled_from([g for g in (numbers, coordinates, relations) if g]))
    loc, values = draw(st.sampled_from(places))
    return _replaced(data, loc, draw(st.sampled_from(values)))


FILES = {"world/1": world_files(), "shot/1": shot_files(),
         "config/1": config_files(), "bench/1": bench_files()}
# fault -> (injector, the file kinds it applies to)
FAULTS = {
    "missing key": (_missing_key, FILES),
    "unknown key": (_unknown_key, FILES),
    "wrong type": (_wrong_type, FILES),
    "wrong length": (_wrong_length, ("world/1", "shot/1")),
    "bad kind": (_bad_kind, ("world/1",)),
    "out of range": (_out_of_range, FILES),
}


def _outcome(load, data):
    try:
        load(data)
    except ArcshotError as exc:  # SchemaError, or DegenerateArc for a shot on the axis
        return type(exc).__name__, str(exc)
    return ("ok",)


@pytest.mark.parametrize("fault, schema", [
    (fault, schema) for fault, (_, schemas) in FAULTS.items() for schema in schemas])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_fault_raises_the_reference_error(fault, schema, data):
    inject = FAULTS[fault][0]
    file = data.draw(world_files(min_obstacles=1) if fault == "bad kind" else FILES[schema])
    new, reference = REFERENCE_LOADERS[schema]
    assert _outcome(new, copy.deepcopy(file)) == ("ok",)
    broken = inject(data.draw, copy.deepcopy(file))
    want = _outcome(reference, copy.deepcopy(broken))
    assert want[0] != "ok", f"{fault} left the file valid: {broken}"
    assert _outcome(new, broken) == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(world_files(), shot_files()))
def test_loaders_equal_the_reference_loaders(file):
    # equal values, and equal bits as the reference writer shows them (-0.0
    # stays -0.0), on every file the strategies draw
    if file["schema"] == "world/1":
        load, reference, write = (fileio.world_from_json, schema_reference.world_from_json,
                                  schema_reference.world_to_json)
    else:
        load, reference, write = (fileio.shot_from_json, schema_reference.shot_from_json,
                                  schema_reference.shot_to_json)
    got, want = load(copy.deepcopy(file)), reference(file)
    assert got == want
    assert json.dumps(write(got)) == json.dumps(write(want))


@pytest.mark.parametrize("section, name", [
    (section, f.name)
    for section, cls in (("quad", QuadModel), ("rrt", RrtParams), ("follow", FollowConfig))
    for f in dataclasses.fields(cls)])
def test_every_config_field_loads_under_its_own_name(section, name):
    default = getattr(getattr(fileio.RunConfig(), section), name)
    value = default + 1 if isinstance(default, int) else default + 0.25
    config = fileio.config_from_json({"schema": "config/1", section: {name: value}})
    loaded = getattr(config, section)
    assert getattr(loaded, name) == value
    assert type(getattr(loaded, name)) is type(default)
    assert loaded == dataclasses.replace(type(loaded)(), **{name: value})


def test_missing_keys_are_reported_in_declared_order_under_any_hash_seed():
    code = ("from arcshot import fileio\n"
            "for load, data in ((fileio.shot_from_json, {'schema': 'shot/1'}),\n"
            "                   (fileio.world_from_json, {'schema': 'world/1'})):\n"
            "    try:\n"
            "        load(data)\n"
            "    except fileio.SchemaError as exc:\n"
            "        print(exc)\n")
    src = str(Path(fileio.__file__).resolve().parents[1])
    outputs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": src,
                                        "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")]
    assert outputs[0] == outputs[1] == ("shot.start: required field is missing\n"
                                        "world.bounds: required field is missing\n")


def test_several_faults_report_the_first_declared_field():
    payload = {"schema": "shot/1", "start": [1, 2], "end": "x", "target": [0, 0, 0],
               "direction": 5, "extra": 1}
    with pytest.raises(SchemaError) as err:
        fileio.shot_from_json(payload)
    assert str(err.value) == "shot.extra: unknown field"
    del payload["extra"]
    with pytest.raises(SchemaError) as err:
        fileio.shot_from_json(payload)
    assert str(err.value) == "shot.start: expected [x, y, z], got 2 values"


# -- the bulk loaders against the per-field checks they stand in front of -----

GOLDEN = Path(__file__).parent / "golden"
# JSON numbers as a file may hold them: integers (also above 2^53, where a
# float rounds them), -0.0, and floats
_COORD = st.one_of(st.floats(-30, 30), st.integers(-30, 30),
                   st.integers(-2 ** 1020, 2 ** 1020),
                   st.sampled_from([0.0, -0.0, 2 ** 53 + 1, -(2 ** 53 + 1), 2 ** 60 + 3,
                                    2 ** 1000 + 1, 1e300]))
_SIZE = st.one_of(st.floats(0.01, 9), st.integers(1, 9),
                  st.sampled_from([5e-324, 2 ** 53 + 1, 2 ** 1000]))


# numbers that every check passes, so one fault is the only one in its list
_PLAIN_COORD = st.one_of(st.floats(-30, 30), st.integers(-30, 30))
_PLAIN_SIZE = st.one_of(st.floats(0.01, 9), st.integers(1, 9))


@st.composite
def _bulk_obstacles(draw, coord=_COORD, size=_SIZE):
    lo = draw(st.lists(coord, min_size=3, max_size=3))
    if draw(st.booleans()):
        return {"kind": "cylinder", "base_center": lo, "radius": draw(size),
                "height": draw(size)}
    # a huge integer plus a small size can round to the same float: no extent
    return {"kind": "box", "min": lo, "max": [v + draw(size) for v in lo]}


# faults the bulk pass must hand to the per-field checks
_NOT_A_NUMBER = st.sampled_from([True, False, "1", None])
_NOT_AN_ENTRY = st.sampled_from([None, "box", 1.0, [], ["kind", "box"], ("kind", "box")])


@st.composite
def _malformed_obstacle(draw):
    """A plain `_bulk_obstacles` entry with one fault that the loader refuses."""
    obstacle = draw(_bulk_obstacles(_PLAIN_COORD, _PLAIN_SIZE))
    vectors = [k for k in ("base_center", "min", "max") if k in obstacle]
    fault = draw(st.sampled_from(["extra key", "missing key", "kind", "number", "vector",
                                  "not a dict"]))
    if fault == "extra key":
        key = draw(st.sampled_from(sorted({"extra", "base_center", "radius", "height", "min",
                                           "max"} - set(obstacle))))
        obstacle[key] = [0.0, 0.0, 0.0] if key in ("base_center", "min", "max") else 1.0
    elif fault == "missing key":
        del obstacle[draw(st.sampled_from(sorted(obstacle)))]
    elif fault == "kind":
        obstacle["kind"] = draw(st.sampled_from(
            ["box" if obstacle["kind"] == "cylinder" else "cylinder", "sphere", "", 1, None]))
    elif fault == "number":
        key = draw(st.sampled_from(sorted(set(obstacle) - {"kind"})))
        if key in vectors:
            obstacle[key][draw(st.integers(0, 2))] = draw(_NOT_A_NUMBER)
        else:
            obstacle[key] = draw(_NOT_A_NUMBER)
    elif fault == "vector":
        key = draw(st.sampled_from(vectors))
        obstacle[key] = draw(st.sampled_from([tuple(obstacle[key]), obstacle[key][:2],
                                              obstacle[key] + [0.0]]))
    else:
        return draw(_NOT_AN_ENTRY)
    return obstacle


@st.composite
def _obstacle_lists(draw):
    """Lists of `_bulk_obstacles`, or of plain ones with one malformed entry."""
    if draw(st.booleans()):
        return draw(st.lists(_bulk_obstacles(), max_size=8))
    obstacles = draw(st.lists(_bulk_obstacles(_PLAIN_COORD, _PLAIN_SIZE), max_size=7))
    obstacles.insert(draw(st.integers(0, len(obstacles))), draw(_malformed_obstacle()))
    return obstacles


def _floats(obstacle) -> list:
    if isinstance(obstacle, Cylinder):
        c = obstacle.base_center
        return [c.x, c.y, c.z, obstacle.radius, obstacle.height]
    lo, hi = obstacle.min, obstacle.max
    return [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]


_CYL = {"kind": "cylinder", "base_center": [1, 2.5, 0], "radius": 1, "height": 2.0}
_BOX = {"kind": "box", "min": [0, 0, 0], "max": [1.0, 1, 2]}


@settings(max_examples=500, deadline=None)
@given(_obstacle_lists())
# one of each fault, after a valid entry
@example([_CYL, dict(_CYL, extra=1)])
@example([_BOX, {"kind": "cylinder", "base_center": [0, 0, 0], "radius": 1}])
@example([_CYL, {"kind": "box", "base_center": [0, 0, 0], "radius": 1, "height": 1}])
@example([_CYL, dict(_BOX, kind="cylinder")])
@example([_BOX, dict(_CYL, radius=True)])
@example([_CYL, dict(_BOX, min=[0, "1", 0])])
@example([_BOX, dict(_CYL, base_center=[0, 0, None])])
@example([_BOX, dict(_CYL, base_center=(1, 2.5, 0))])
@example([_CYL, dict(_BOX, max=(1.0, 1, 2))])
@example([_CYL, dict(_BOX, max=[1.0, 1])])
@example([_CYL, dict(_BOX, max=[1.0, 1, 2, 3])])
@example([_BOX, dict(_CYL, base_center=[1, 2.5])])
@example([_CYL, ["kind", "box"]])
@example([_CYL, _BOX])
def test_bulk_obstacles_equal_the_per_field_codec(obstacles):
    # the codec's exact bytes or None, and None whenever the codec raises:
    # on valid lists and on lists with one malformed entry anywhere
    try:
        want = fileio._expect_obstacles(copy.deepcopy(obstacles), "world.obstacles")
    except SchemaError:
        assert fileio._obstacles_in_bulk(obstacles) is None
        return
    got = fileio._obstacles_in_bulk(obstacles)
    # the same bits: -0.0 stays -0.0, and a box's NaN columns are the same NaN
    assert got.tobytes() == obstacle_rows(want).tobytes()
    with mock.patch.object(fileio, "_obstacles_in_bulk", return_value=None):
        fallback = fileio._load_obstacles(copy.deepcopy(obstacles), "world.obstacles")
    assert fallback.tobytes() == got.tobytes()
    unpacked = unpack_rows(got)
    assert unpacked == want
    assert all(type(v) is float for o in unpacked for v in _floats(o))
    assert np.array([v for o in unpacked for v in _floats(o)]).tobytes() == np.array(
        [v for o in want for v in _floats(o)]).tobytes()
    file = {"schema": "world/1", "bounds": {"min": [-1e301, -1e301, -1e301],
                                            "max": [1e301, 1e301, 1e301]},
            "target": [0, 0, 1], "obstacles": obstacles}
    world = fileio.world_from_json(file)
    assert world == schema_reference.world_from_json(file)
    assert unpack_rows(world.rows) == schema_reference.obstacles_from_json(obstacles)


def _clutter_file(count: int = 1003) -> dict:
    """A world file shaped like the benchmark's clutter: cylinders at odd
    indices, boxes at even ones."""
    rng = np.random.default_rng(18)
    obstacles = []
    for i in range(count):
        x, y = np.round(rng.uniform(-24, 24, size=2), 6).tolist()
        size, height = np.round(rng.uniform((0.2, 1.0), (0.5, 6.0)), 6).tolist()
        if i % 2:
            obstacles.append({"kind": "cylinder", "base_center": [x, y, 0.0],
                              "radius": size, "height": height})
        else:
            obstacles.append({"kind": "box", "min": [x - size, y - size, 0],
                              "max": [x + size, y + size, height]})
    return {"schema": "world/1", "bounds": {"min": [-25, -25, 0], "max": [25, 25, 10]},
            "target": [0, 0, 1.5], "obstacles": obstacles}


def _set(key, index, value):
    def fault(obstacle):
        obstacle[key][index] = value
    return fault


# fault -> (index of the faulty obstacle, change to it); 901 is a cylinder
DEEP_FAULTS = {
    "negative radius": (901, lambda o: o.update(radius=-0.5)),
    "zero height": (901, lambda o: o.update(height=0)),
    "bool coordinate": (901, _set("base_center", 1, True)),
    "string coordinate": (900, _set("max", 2, "3")),
    "short vector": (900, lambda o: o["min"].pop()),
    "missing key": (901, lambda o: o.pop("height")),
    "unknown key": (900, lambda o: o.update(radius=1.0)),
    "unknown kind": (900, lambda o: o.update(kind="sphere")),
    "a cylinder key in a box": (900, lambda o: o.update(base_center=o.pop("min"))),
    "signed zero extent": (900, lambda o: (o["min"].__setitem__(0, -0.0),
                                           o["max"].__setitem__(0, 0.0))),
    "min above max": (900, lambda o: o["max"].__setitem__(1, o["min"][1] - 1)),
}


@pytest.mark.parametrize("fault", DEEP_FAULTS)
def test_a_fault_deep_in_a_large_world_raises_the_reference_message(fault):
    index, change = DEEP_FAULTS[fault]
    file = _clutter_file()
    change(file["obstacles"][index])
    with pytest.raises(SchemaError) as want:
        schema_reference.world_from_json(copy.deepcopy(file))
    with pytest.raises(SchemaError) as got:
        fileio.world_from_json(file)
    assert str(got.value) == str(want.value)
    assert f"world.obstacles[{index}]" in str(got.value)


@pytest.mark.parametrize("index, key, value, message", [
    (901, "radius", math.nan,
     "world.obstacles[901].radius: expected a finite number, got nan"),
    (900, "min", [1.0, math.inf, 0.0],
     "world.obstacles[900].min: Vec3.y must be finite, got inf"),
    (901, "height", 2 ** 1024, "world.obstacles[901].height: expected a number, "
     "got an integer too large for a float"),
    (900, "max", [1.0, 2.0, -2 ** 1024], "world.obstacles[900].max[2]: expected a number, "
     "got an integer too large for a float"),
])
def test_a_non_finite_number_deep_in_a_large_world_names_its_field(index, key, value,
                                                                   message):
    file = _clutter_file()
    file["obstacles"][index][key] = value
    with pytest.raises(SchemaError) as err:
        fileio.world_from_json(file)
    assert str(err.value) == message


def _counting(monkeypatch, name) -> list:
    """Record the calls to the fileio function `name`, which still runs."""
    calls, original = [], getattr(fileio, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(fileio, name, counted)
    return calls


def test_a_valid_clutter_world_takes_the_bulk_path(monkeypatch):
    file = _clutter_file()
    want = schema_reference.world_from_json(copy.deepcopy(file))
    reference = schema_reference.obstacles_from_json(copy.deepcopy(file["obstacles"]))
    per_field = _counting(monkeypatch, "_expect_obstacles")
    world = fileio.world_from_json(copy.deepcopy(file))
    assert world == want
    assert world.rows.tobytes() == obstacle_rows(reference).tobytes()
    assert per_field == []
    # a faulty file goes to the per-field checks, which name the fault
    file["obstacles"][500]["kind"] = "sphere"
    with pytest.raises(SchemaError):
        fileio.world_from_json(file)
    assert len(per_field) == 1


def test_a_model_of_a_loaded_world_equals_one_of_its_dataclasses(quad):
    file = _clutter_file()
    world = fileio.world_from_json(copy.deepcopy(file))
    built = CollisionModel(make_world(schema_reference.obstacles_from_json(file["obstacles"]),
                                      lo=(-25, -25, 0), hi=(25, 25, 10)), quad)
    loaded = CollisionModel(world, quad)
    assert loaded.world is world
    assert world.rows.tobytes() == built.world.rows.tobytes()
    assert loaded.inflated.tobytes() == built.inflated.tobytes()


@settings(max_examples=100, deadline=None)
@given(world_files(), st.sampled_from([QuadModel(), QuadModel(0.05, 0.0),
                                       QuadModel(1.0, 1.0)]))
def test_every_loaded_world_packs_as_its_dataclasses_do(file, quad):
    world = fileio.world_from_json(copy.deepcopy(file))
    obstacles = schema_reference.obstacles_from_json(file["obstacles"])
    assert unpack_rows(world.rows) == obstacles
    loaded = CollisionModel(world, quad)
    built = CollisionModel(dataclasses.replace(world, rows=obstacle_rows(obstacles)), quad)
    assert world.rows.tobytes() == built.world.rows.tobytes()
    assert loaded.inflated.tobytes() == built.inflated.tobytes()


@pytest.mark.parametrize("name", ["plan/path.json", "exec/trajectory.json"])
def test_golden_paths_take_the_bulk_path(monkeypatch, name):
    data = json.loads((GOLDEN / name).read_text())
    per_field = _counting(monkeypatch, "_expect_number")
    path = fileio.path_from_json(data)
    assert per_field == []
    assert len(path) == len(data["poses"]) > 50
    monkeypatch.setattr(fileio, "_pose_values_in_bulk", lambda poses: None)
    assert fileio.path_from_json(data) == path
    assert len(per_field) == 5 * len(path)


# pose values as a file may hold them, and some that no path may hold
_POSE_VALUE = st.one_of(st.floats(-1e3, 1e3), st.integers(-10, 10),
                        st.sampled_from([-0.0, 2 ** 53 + 1, 1e308, -1.7e308]),
                        st.sampled_from([math.nan, math.inf, True, "1", None, 2 ** 1024]))


@st.composite
def _pose_lists(draw):
    poses = []
    for _ in range(draw(st.integers(0, 6))):
        keys = ["x", "y", "z", "yaw"] + (["t"] if draw(st.booleans()) else [])
        keys = draw(st.permutations(keys))
        if draw(st.integers(0, 9)) == 0:   # a missing or an unknown key
            keys = keys[1:] if draw(st.booleans()) else keys + ["w"]
        poses.append({key: draw(_POSE_VALUE) for key in keys})
    if poses and draw(st.integers(0, 9)) == 0:
        poses[draw(st.integers(0, len(poses) - 1))] = draw(st.sampled_from([[], 1, "x"]))
    return poses


def _path_outcome(data):
    try:
        return ("ok", fileio.path_from_json(data).rows.tobytes())
    except SchemaError as exc:
        return ("SchemaError", str(exc))


@settings(max_examples=400, deadline=None)
@given(_pose_lists())
def test_bulk_poses_load_as_the_per_pose_checks_do(poses):
    data = {"schema": "path/1", "poses": poses}
    got = _path_outcome(copy.deepcopy(data))
    with mock.patch.object(fileio, "_pose_values_in_bulk", lambda poses: None):
        want = _path_outcome(data)
    assert got == want
