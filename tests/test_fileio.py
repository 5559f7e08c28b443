import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot import fileio
from arcshot.bench import BenchSpec
from arcshot.errors import SchemaError
from arcshot.local_planner import RrtParams
from arcshot.pipeline import plan_shot
from arcshot.shot import GlobalPath, Pose4
from arcshot.world import CollisionModel, Vec3
from conftest import demo_shot, demo_world


def test_world_round_trip(tmp_path):
    world = demo_world()
    file = tmp_path / "world.json"
    fileio.save_world(world, file)
    assert fileio.load_world(file) == world


def test_shot_round_trip(tmp_path):
    spec = demo_shot()
    file = tmp_path / "shot.json"
    fileio.save_shot(spec, file)
    assert fileio.load_shot(file) == spec


def test_path_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(31)
    poses = tuple(
        Pose4(Vec3(*rng.uniform(-20, 20, 3)), float(rng.uniform(-math.pi, math.pi)))
        for _ in range(40))
    path = GlobalPath(poses)
    file = tmp_path / "path.json"
    fileio.save_path(path, file)
    loaded = fileio.load_path(file)
    assert loaded.poses == path.poses  # exact float equality

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
    ja, jb = fileio.report_to_json(a.report), fileio.report_to_json(b.report)
    assert ja == jb
    assert "duration" not in json.dumps(ja)
    assert ja["totals"]["nodes"] == a.report.total_nodes
