"""The array path code against the per-pose code it replaced
(`path_reference`): equal paths, equal file bytes, equal error text."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import path_reference as ref
from arcshot import fileio
from arcshot.discontinuity import Discontinuity
from arcshot.errors import ArcshotError
from arcshot.local_planner import LocalPath
from arcshot.pipeline import splice
from arcshot.shot import CLOCKWISE, COUNTERCLOCKWISE, ArcShotSpec, generate_arc
from arcshot.world import Vec3


def _bits(rows) -> list[int]:
    return np.asarray(rows, dtype=float).view(np.int64).ravel().tolist()


def assert_same_path(new, old: ref.PosePath) -> None:
    """Every coordinate and yaw equal bit for bit, the sign of zero too."""
    old_rows = [(p.position.x, p.position.y, p.position.z, p.yaw) for p in old.poses]
    assert _bits(new.rows) == _bits(old_rows)


def _outcome(run):
    try:
        return "ok", run()
    except (ArcshotError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# -- arcs and splices ------------------------------------------------------------

def _arc_spec(rng, i: int) -> ArcShotSpec:
    """Specs of every size from 1e-3 to 1e3; `i` cycles the direction, full
    revolutions (the end straight above or below the start) and the count."""
    direction = (CLOCKWISE, COUNTERCLOCKWISE)[i % 2]
    scale = 10.0 ** rng.uniform(-3, 3)
    while True:
        target, start, end = (Vec3(*(rng.uniform(-1, 1, 3) * scale).tolist())
                              for _ in range(3))
        if i % 4 >= 2:
            end = Vec3(start.x, start.y, end.z)
        if ref.horizontal_distance(start, target) and ref.horizontal_distance(end, target):
            break
    count = (int(rng.integers(2, 13)), int(rng.integers(2, 2001)), 2000)[i % 3]
    return ArcShotSpec(start, end, target, direction, count)


def test_arc_file_bytes_equal_the_per_pose_arc(tmp_path):
    rng = np.random.default_rng(171)
    file = tmp_path / "path.json"
    for i in range(120):
        spec = _arc_spec(rng, i)
        arc = generate_arc(spec)
        old = ref.generate_arc(spec)
        assert_same_path(arc, old)
        fileio.save_path(arc, file)
        assert file.read_text(encoding="utf-8") == ref.path_text(old), spec


def test_splices_equal_the_per_pose_splice():
    rng = np.random.default_rng(172)
    outcomes = []
    for i in range(300):
        spec = _arc_spec(rng, i)
        arc, old_arc = generate_arc(spec), ref.generate_arc(spec)
        entry = int(rng.integers(0, len(arc) - 1))
        exit_ = int(rng.integers(entry + 1, len(arc)))
        d = Discontinuity(entry, exit_, tuple(arc.rows[entry, :3].tolist()),
                          tuple(arc.rows[exit_, :3].tolist()))
        scale = max(abs(v) for v in (*arc.rows[entry, :3], *arc.rows[exit_, :3]))
        interior = [Vec3(*(rng.uniform(-1, 1, 3) * scale).tolist())
                    for _ in range(int(rng.integers(0, 21)))]
        ends = [Vec3(*d.entry), Vec3(*d.exit)]
        if i % 10 == 9:
            # a detour that misses one end by about the tolerance or more
            offset = float(rng.choice([1e-6, 2e-6, 0.5]))
            ends[i % 20 // 10] = ref.add(ends[i % 20 // 10], Vec3(offset, 0.0, 0.0))
        positions = (ends[0], *interior, ends[1])
        detour = LocalPath([(p.x, p.y, p.z) for p in positions], 1.0)
        got = _outcome(lambda: splice(arc, d, detour, spec.target))
        want = _outcome(lambda: ref.splice(old_arc, d, positions, spec.target))
        assert got[0] == want[0]
        if got[0] == "ok":
            assert_same_path(got[1], want[1])
        else:
            assert got == want
        outcomes.append(got[0])
    assert 250 <= outcomes.count("ok") < 300


# -- path files ----------------------------------------------------------------

_FIELDS = ("x", "y", "z", "yaw")
# one step between any two of these stays finite
_NUMBER = st.one_of(st.floats(-50, 50), st.integers(-100, 100),
                    st.floats(-1e307, 1e307),
                    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 3 * math.pi, 5e-324]))


@st.composite
def path_files(draw):
    poses = []
    for _ in range(draw(st.integers(1, 12))):
        pose = {key: draw(_NUMBER) for key in _FIELDS}
        if draw(st.booleans()):
            pose["t"] = draw(_NUMBER)
        poses.append(pose)
    return {"schema": "path/1", "poses": poses}


@settings(max_examples=200, deadline=None)
@given(path_files())
def test_path_files_load_to_the_per_pose_path(tmp_path_factory, data):
    path = fileio.path_from_json(copy.deepcopy(data))
    old = ref.path_from_json(copy.deepcopy(data))
    assert_same_path(path, old)
    file = tmp_path_factory.mktemp("path") / "path.json"
    fileio.save_path(path, file)
    assert file.read_text(encoding="utf-8") == ref.path_text(old)


def _pose_field(draw, data):
    pose = draw(st.sampled_from(data["poses"]))
    return pose, draw(st.sampled_from([k for k in pose]))


def _missing_key(draw, data):
    obj = draw(st.sampled_from([data, *data["poses"]]))
    del obj[draw(st.sampled_from([k for k in obj if k != "t"]))]
    return data


def _unknown_key(draw, data):
    obj = draw(st.sampled_from([data, *data["poses"]]))
    obj[draw(st.sampled_from(["extra", "T", "position", "Schema"]))] = 1.0
    return data


def _wrong_type(draw, data):
    value = draw(st.sampled_from([None, True, False, "1.0", [], {}, [1.0, 2.0]]))
    place = draw(st.sampled_from(["root", "poses", "pose", "field"]))
    if place == "root":
        return value if not isinstance(value, dict) else [data]
    if place == "poses":
        data["poses"] = value if not isinstance(value, list) else {"0": data["poses"]}
    elif place == "pose":
        data["poses"][draw(st.integers(0, len(data["poses"]) - 1))] = (
            value if not isinstance(value, dict) else [1.0])
    else:
        pose, key = _pose_field(draw, data)
        pose[key] = value
    return data


def _not_finite(draw, data):
    pose, key = _pose_field(draw, data)
    pose[key] = draw(st.sampled_from([math.inf, -math.inf, math.nan,
                                      10 ** 400, -(10 ** 400)]))
    return data


def _infinite_step(draw, data):
    data["poses"].append(copy.deepcopy(data["poses"][-1]))
    i = draw(st.integers(1, len(data["poses"]) - 1))
    axis = draw(st.sampled_from(["x", "y", "z"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    data["poses"][i - 1][axis] = sign * 1.7976931348623157e308
    data["poses"][i][axis] = -sign * draw(st.sampled_from([1.7e308, 1e292]))
    return data


def _bad_schema(draw, data):
    data["schema"] = draw(st.sampled_from(["path/2", "world/1", "", None]))
    return data


def _no_poses(draw, data):
    data["poses"] = []
    return data


PATH_FAULTS = {"missing key": _missing_key, "unknown key": _unknown_key,
               "wrong type": _wrong_type, "not finite": _not_finite,
               "infinite step": _infinite_step, "bad schema": _bad_schema,
               "no poses": _no_poses}


@pytest.mark.parametrize("fault", PATH_FAULTS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_path_fault_raises_the_per_pose_error(fault, data):
    file = data.draw(path_files())
    broken = PATH_FAULTS[fault](data.draw, copy.deepcopy(file))
    want = _outcome(lambda: ref.path_from_json(copy.deepcopy(broken)))
    assert want[0] == "SchemaError", f"{fault} left the file valid: {broken}"
    assert _outcome(lambda: fileio.path_from_json(broken)) == want
