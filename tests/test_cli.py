import gc
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcshot import cli, fileio, pipeline
from arcshot.shot import GlobalPath
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel
from conftest import SCENARIO_DIR
import schema_reference
from world_reference import pad_margin

DEMO = SCENARIO_DIR / "demo"
GOLDEN = Path(__file__).parent / "golden"


def demo_args(out, seed=7):
    return ["--world", str(DEMO / "world.json"), "--shot", str(DEMO / "shot.json"),
            "--config", str(DEMO / "config.json"), "--seed", str(seed),
            "--out", str(out)]


def test_plan_bundled_scenario(tmp_path, capsys):
    code = cli.main(["plan", *demo_args(tmp_path / "out")])
    assert code == cli.EXIT_OK
    out = tmp_path / "out"
    assert (out / "path.json").exists()
    assert (out / "report.json").exists()
    assert (out / "plan.svg").exists()
    path = fileio.load_path(out / "path.json")
    shot = fileio.load_shot(DEMO / "shot.json")
    assert len(path) >= shot.sample_count
    assert "planned" in capsys.readouterr().out


def test_demo_outputs_match_committed_bytes(tmp_path):
    # `tests/golden` holds the README quick-start outputs of plan, execute, render
    golden = Path(__file__).parent / "golden"
    plan_path = str(tmp_path / "plan" / "path.json")
    assert cli.main(["plan", *demo_args(tmp_path / "plan")]) == cli.EXIT_OK
    assert cli.main(["execute", "--world", str(DEMO / "world.json"),
                     "--path", plan_path, "--config", str(DEMO / "config.json"),
                     "--out", str(tmp_path / "exec")]) == cli.EXIT_OK
    assert cli.main(["render", "--world", str(DEMO / "world.json"),
                     "--shot", str(DEMO / "shot.json"), "--path", plan_path,
                     "--out", str(tmp_path / "render")]) == cli.EXIT_OK
    for artifact in ("plan/path.json", "plan/report.json", "plan/plan.svg",
                     "exec/trajectory.json", "exec/execute.svg", "render/render.svg"):
        assert (tmp_path / artifact).read_bytes() == (golden / artifact).read_bytes(), \
            artifact


def _command_args(command, tmp_path):
    world = ["--world", str(DEMO / "world.json"), "--config", str(DEMO / "config.json"),
             "--out", str(tmp_path / command)]
    if command == "plan":
        return ["plan", *demo_args(tmp_path / command)]
    if command == "execute":
        return ["execute", *world, "--path", str(GOLDEN / "plan" / "path.json")]
    if command == "render":
        return ["render", *world, "--shot", str(DEMO / "shot.json"),
                "--path", str(GOLDEN / "plan" / "path.json")]
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({"schema": "bench/1", "loops": [60], "repetitions": 2}))
    return ["bench", *world, "--shot", str(DEMO / "shot.json"), "--bench", str(spec)]


@pytest.mark.parametrize("command", ["plan", "execute", "render", "bench"])
def test_each_command_builds_one_collision_model_and_frees_it(command, tmp_path,
                                                              monkeypatch):
    # every stage of a command shares one model; nothing keeps it alive after
    built = []
    init = CollisionModel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(CollisionModel, "__init__", recording_init)
    assert cli.main(_command_args(command, tmp_path)) == cli.EXIT_OK
    assert len(built) == 1
    gc.collect()
    assert built[0]() is None


def _cluttered_demo_world(count: int = 1000) -> dict:
    """The demo world in bounds of 50 m with `count` more obstacles, every
    number a float, in a ring beyond the demo shot's windows: cylinders at
    odd indices, boxes at even ones."""
    rng = np.random.default_rng(22)
    world = json.loads((DEMO / "world.json").read_text(), parse_int=float)
    world["bounds"] = {"min": [-25.0, -25.0, 0.0], "max": [25.0, 25.0, 10.0]}
    for i in range(count):
        angle, distance = rng.uniform(0.0, 2 * np.pi), rng.uniform(18.0, 23.0)
        x, y = np.round(distance * np.array([np.cos(angle), np.sin(angle)]), 6).tolist()
        size, height = np.round(rng.uniform((0.2, 1.0), (0.5, 6.0)), 6).tolist()
        if i % 2:
            world["obstacles"].append({"kind": "cylinder", "base_center": [x, y, 0.0],
                                       "radius": size, "height": height})
        else:
            world["obstacles"].append({"kind": "box", "min": [x - size, y - size, 0.0],
                                       "max": [x + size, y + size, height]})
    return world


def test_no_command_builds_an_obstacle_dataclass(tmp_path, monkeypatch):
    # the loader hands the model packed rows; `World.obstacles` is built only
    # when something reads it
    data = _cluttered_demo_world()
    world_file = tmp_path / "world.json"
    world_file.write_text(json.dumps(data))
    built = {Cylinder: 0, AxisBox: 0}
    for cls in built:
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built[type(self)] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting_init)
    world = ["--world", str(world_file), "--config", str(DEMO / "config.json")]
    path = str(tmp_path / "plan" / "path.json")
    assert cli.main(["plan", *world, "--shot", str(DEMO / "shot.json"), "--seed", "7",
                     "--out", str(tmp_path / "plan")]) == cli.EXIT_OK
    assert cli.main(["execute", *world, "--path", path,
                     "--out", str(tmp_path / "exec")]) == cli.EXIT_OK
    assert cli.main(["render", *world, "--shot", str(DEMO / "shot.json"), "--path", path,
                     "--out", str(tmp_path / "render")]) == cli.EXIT_OK
    # one box per command: the world's bounds
    assert built == {Cylinder: 0, AxisBox: 3}
    loaded = fileio.load_world(world_file)
    assert loaded.obstacles == schema_reference.obstacles_from_json(data["obstacles"])
    fileio.save_world(loaded, tmp_path / "saved.json")
    assert (tmp_path / "saved.json").read_text() == json.dumps(data, indent=2,
                                                                sort_keys=True) + "\n"


def test_benchmark_tracer_still_wraps_the_planner(tmp_path, monkeypatch):
    # perfbench wraps functions by the names callers look them up; a rename
    # would silently drop their spans from traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.begin_op(0)
        assert cli.main(["plan", *demo_args(tmp_path / "plan")]) == cli.EXIT_OK
        tracer.end_op()
    # nearest_vertex and extend spans also feed loop_growth, nearest_ms, extend_ms;
    # the path layers feed arc_ms, scan_ms, splice_ms, validate_ms, load_ms, save_ms
    for name in ("local_planner.rrt_star_run", "local_planner.best_parent",
                 "local_planner.nearest_vertex", "local_planner.extend",
                 "shot.generate_arc", "discontinuity.find_discontinuities",
                 "pipeline.splice", "pipeline.validate", "fileio.load", "fileio.save"):
        assert tracing.span_ms(tracer, name), name
    # best-parent collision work must reach the wrapped model.segment_free:
    # x_new lies within extend_dist < neighbour radius of a node, so every
    # call has a candidate and tests at least the cheapest one's edge
    op = tracer.ops[0]
    best = np.flatnonzero(op["name"] == tracer.names.index("local_planner.best_parent"))
    segments = op["parent"][op["name"] == tracer.names.index("world.segment_free")]
    points = op["parent"][op["name"] == tracer.names.index("world.free_points")]
    assert best.size and np.isin(best, segments).all()
    # nothing samples an edge: no best-parent call, and no stage of a plan,
    # classifies points
    assert not np.isin(best, points).any()
    assert points.size == 0 and op["counters"].get("point_obstacle_pairs", 0) == 0


def test_each_traced_attempt_makes_one_nearest_vertex_call_per_loop(tmp_path, monkeypatch):
    # perfbench's loop_growth takes a loop to be the gap between successive
    # nearest_vertex calls under an attempt, so the blocked loop still makes
    # one call per loop of the budget, degenerate samples included
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.begin_op(0)
        assert cli.main(["plan", *demo_args(tmp_path / "plan")]) == cli.EXIT_OK
        tracer.end_op()
    op = tracer.ops[0]
    attempts = np.flatnonzero(op["name"] == tracer.names.index("local_planner.rrt_star_run"))
    nearest = op["parent"][op["name"] == tracer.names.index("local_planner.nearest_vertex")]
    max_loops = fileio.load_config(DEMO / "config.json").rrt.max_loops
    assert attempts.size >= 1
    assert [int((nearest == a).sum()) for a in attempts] == [max_loops] * attempts.size


def test_benchmark_tracer_still_wraps_the_replay(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    assert cli.main(["plan", *demo_args(tmp_path / "plan")]) == cli.EXIT_OK
    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.begin_op(0)
        assert cli.main(["execute", "--world", str(DEMO / "world.json"),
                         "--path", str(tmp_path / "plan" / "path.json"),
                         "--config", str(DEMO / "config.json"),
                         "--out", str(tmp_path / "exec")]) == cli.EXIT_OK
        tracer.end_op()
    for name in ("executor.follow", "fileio.load", "fileio.save", "render.render_scene"):
        assert tracing.span_ms(tracer, name), name
    # the executor.follow span's value is the number of logged states
    op = tracer.ops[0]
    states = op["value"][op["name"] == tracer.names.index("executor.follow")]
    poses = json.loads((tmp_path / "exec" / "trajectory.json").read_text())["poses"]
    assert states.tolist() == [len(poses)]


def test_execute_overflow_is_a_schema_error_without_a_trajectory(tmp_path, capsys):
    # the replay would meet an infinite coordinate difference between the two
    # poses; the path loader refuses such a path before anything runs
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": "path/1", "poses": [
        {"x": 1.7e308, "y": 0.0, "z": 2.0, "yaw": 0.0},
        {"x": -1.7e308, "y": 0.0, "z": 2.0, "yaw": 0.0}]}))
    out = tmp_path / "exec"
    code = cli.main(["execute", "--world", str(DEMO / "world.json"),
                     "--path", str(path), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"kind": "SchemaError", "message":
                   "path.poses[1].x: expected a finite difference from poses[0], got -inf"}
    assert not (out / "trajectory.json").exists()


def test_execute_climb_overflow_is_a_schema_error_before_any_output(tmp_path, capsys):
    # the takeoff climbs from the bounds bottom to the first pose; an infinite
    # climb is an input fault, found before the output directory is made
    world = json.loads((DEMO / "world.json").read_text())
    world["bounds"]["min"][2] = -1e308
    world_file = tmp_path / "world.json"
    world_file.write_text(json.dumps(world))
    path = tmp_path / "high.json"
    path.write_text(json.dumps({"schema": "path/1", "poses": [
        {"x": 8.0, "y": 0.0, "z": 1e308, "yaw": 0.0}]}))
    out = tmp_path / "exec"
    code = cli.main(["execute", "--world", str(world_file), "--path", str(path),
                     "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "SchemaError", "message": "path.poses[0].z: expected a finite "
                                          "difference from world.bounds.min.z, got inf"}
    assert not out.exists()


def _execute(path_rows, out) -> int:
    path = out.parent / f"{out.name}-path.json"
    fileio.save_path(GlobalPath(np.asarray(path_rows, dtype=float)), path)
    return cli.main(["execute", "--world", str(DEMO / "world.json"), "--path", str(path),
                     "--config", str(DEMO / "config.json"), "--out", str(out)])


def test_execute_refuses_a_path_through_an_obstacle(tmp_path, capsys):
    # the demo pillar at (0, 8.8), radius 0.8 and 1.3 inflated, stands across
    # the second segment; nothing is replayed or written
    out = tmp_path / "exec"
    rows = [(0.0, 2.0, 2.0, 0.0), (0.0, 5.0, 2.0, 0.0), (0.0, 12.0, 2.0, 0.0)]
    assert _execute(rows, out) == cli.EXIT_VALIDATION_FAILED
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "ValidationFailed", "message": "path segment 1 is in collision", "segment": 1}
    assert not out.exists()


def test_execute_tests_a_one_pose_path_as_a_zero_length_segment(tmp_path, capsys):
    # a pose inside the pillar, or on the bounds top, is refused; one beside
    # the pillar and below the top is flown
    for i, (x, z, code) in enumerate(((0.0, 2.0, cli.EXIT_VALIDATION_FAILED),
                                      (3.0, 10.0, cli.EXIT_VALIDATION_FAILED),
                                      (3.0, 9.0, cli.EXIT_OK))):
        out = tmp_path / f"exec-{i}"
        assert _execute([(x, 8.8, z, 0.0)], out) == code
        assert out.exists() is (code == cli.EXIT_OK)
    errors = [json.loads(line)["error"] for line in capsys.readouterr().err.splitlines()]
    assert [e["segment"] for e in errors] == [0, 0]


def _crossing_path(seed: int) -> tuple[np.ndarray, int | None]:
    """Poses in the demo world with one segment through the middle of a raw
    obstacle, and the first segment that `pad_margin` puts below zero; None
    when a segment's margin lies within rounding of zero."""
    rng = np.random.default_rng(seed)
    world = fileio.load_world(DEMO / "world.json")
    obstacle = world.obstacles[int(rng.integers(len(world.obstacles)))]
    if hasattr(obstacle, "radius"):
        c = obstacle.base_center
        middle = np.array([c.x, c.y, c.z + obstacle.height * rng.uniform(0.2, 0.8)])
    else:
        middle = rng.uniform(obstacle.min.as_array(), obstacle.max.as_array())
    u = rng.normal(size=3)
    u *= rng.uniform(1.0, 4.0) / np.linalg.norm(u)
    before = rng.uniform((-14, -14, 0.5), (14, 14, 9.5), size=(int(rng.integers(0, 4)), 3))
    after = rng.uniform((-14, -14, 0.5), (14, 14, 9.5), size=(int(rng.integers(0, 4)), 3))
    positions = np.vstack([before, middle - u, middle + u, after])
    for i, (a, b) in enumerate(zip(positions, positions[1:])):
        margin = pad_margin(world, QuadModel(), a, b)
        if abs(margin) < 1e-9:
            return positions, None
        if margin < 0:
            return positions, i
    raise AssertionError("the crossing segment is blocked")


def test_execute_refuses_every_path_that_crosses_an_obstacle(tmp_path, capsys):
    # exit 6 names the first segment the oracle finds blocked, and no output
    # directory is made
    runs = iter(range(10 ** 6))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        positions, first = _crossing_path(seed)
        assume(first is not None)
        out = tmp_path / f"exec-{next(runs)}"
        rows = np.column_stack((positions, np.zeros(len(positions))))
        capsys.readouterr()
        assert _execute(rows, out) == cli.EXIT_VALIDATION_FAILED
        assert json.loads(capsys.readouterr().err)["error"]["segment"] == first
        assert not out.exists()

    check()


def _plan_then_execute(seed: int, run: Path) -> bool:
    """Plan a demo shot of another radius and height at `seed`; whatever
    plan writes, `execute` accepts and flies. Whether the plan succeeded."""
    rng = np.random.default_rng(seed)
    radius, z = rng.uniform(6.5, 9.5), rng.uniform(1.0, 3.5)
    shot = json.loads((DEMO / "shot.json").read_text())
    run.mkdir()
    (run / "shot.json").write_text(json.dumps(dict(shot, start=[radius, 0.0, z],
                                                   end=[-radius, 0.0, z])))
    world, config = ["--world", str(DEMO / "world.json")], ["--config", str(DEMO / "config.json")]
    if cli.main(["plan", *world, *config, "--shot", str(run / "shot.json"),
                 "--seed", str(seed), "--out", str(run / "plan")]) != cli.EXIT_OK:
        return False
    assert cli.main(["execute", *world, *config, "--path", str(run / "plan" / "path.json"),
                     "--out", str(run / "exec")]) == cli.EXIT_OK
    return True


def test_every_path_plan_writes_executes(tmp_path):
    # a fixed seed sweep carries the floor, as in the planner's properties
    assert sum(_plan_then_execute(seed, tmp_path / f"sweep-{seed}") for seed in range(6)) >= 4
    runs = iter(range(10 ** 6))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _plan_then_execute(seed, tmp_path / f"run-{next(runs)}")

    check()


def _group(svg: str, name: str) -> str:
    start = svg.index(f'<g id="{name}">')
    return svg[start:svg.index("</g>", start) + len("</g>")]


def test_render_trajectory_draws_the_execute_trajectory_group(tmp_path):
    # `render --trajectory` reads a trajectory file as a path file and draws
    # its x, y as execute does
    out = tmp_path / "render"
    assert cli.main(["render", "--world", str(DEMO / "world.json"),
                     "--config", str(DEMO / "config.json"),
                     "--trajectory", str(GOLDEN / "exec" / "trajectory.json"),
                     "--out", str(out)]) == cli.EXIT_OK
    got = _group((out / "render.svg").read_text(encoding="utf-8"), "trajectory")
    want = _group((GOLDEN / "exec" / "execute.svg").read_text(encoding="utf-8"),
                  "trajectory")
    assert got.count("<polyline") == 1
    assert got == want


def test_an_internal_value_error_exits_1(tmp_path, capsys, monkeypatch):
    # only input faults map to exit 3; a ValueError the program raises on
    # valid inputs is its own fault
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "plan_shot", broken)
    assert cli.main(["plan", *demo_args(tmp_path / "out")]) == cli.EXIT_INTERNAL
    assert json.loads(capsys.readouterr().err)["error"] == {"kind": "ValueError",
                                                            "message": "internal"}


def test_a_seed_out_of_range_is_a_schema_error(tmp_path, capsys):
    code = cli.main(["plan", *demo_args(tmp_path / "out", seed=-1)])
    assert code == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "SchemaError",
        "message": "--seed: seed must be an unsigned 64-bit integer, got -1"}


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "world.json"
    bad.write_bytes(b'{"schema": "world/1\xff"}')
    code = cli.main(["plan", "--world", str(bad), "--shot", str(DEMO / "shot.json"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "UnicodeDecodeError"


def test_plan_is_byte_identical_across_runs(tmp_path):
    for name in ("a", "b"):
        assert cli.main(["plan", *demo_args(tmp_path / name)]) == cli.EXIT_OK
    for artifact in ("path.json", "report.json", "plan.svg"):
        assert (tmp_path / "a" / artifact).read_bytes() == \
            (tmp_path / "b" / artifact).read_bytes()


def test_plan_machine_format_emits_json(tmp_path, capsys):
    code = cli.main(["plan", *demo_args(tmp_path / "out"), "--format", "machine"])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["discontinuities"] == 1


def test_plan_overlay_tree_adds_edges(tmp_path):
    base = tmp_path / "plain"
    overlay = tmp_path / "overlay"
    assert cli.main(["plan", *demo_args(base)]) == cli.EXIT_OK
    assert cli.main(["plan", *demo_args(overlay), "--overlay-tree"]) == cli.EXIT_OK
    plain_svg = (base / "plan.svg").read_text()
    overlay_svg = (overlay / "plan.svg").read_text()
    assert '<g id="tree">' not in plain_svg
    report = json.loads((overlay / "report.json").read_text())
    edges = overlay_svg.split('<g id="tree">')[1].split("</g>")[0].count("<line")
    assert edges == report["totals"]["nodes"] - report["totals"]["discontinuities"]


def test_malformed_world_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = cli.main(["plan", "--world", str(bad), "--shot",
                     str(DEMO / "shot.json"), "--out", str(out)])
    assert code == cli.EXIT_PARSE
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "JSONDecodeError"
    assert not (out / "path.json").exists()


def test_invalid_field_is_a_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad_world.json"
    world = json.loads((DEMO / "world.json").read_text())
    world["obstacles"][0]["radius"] = -2.0
    bad.write_text(json.dumps(world))
    code = cli.main(["plan", "--world", str(bad), "--shot",
                     str(DEMO / "shot.json"), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA
    err = json.loads(capsys.readouterr().err)
    assert "obstacles[0]" in err["error"]["message"]


def test_integer_too_large_for_a_float_is_a_schema_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"schema": "config/1", "follow": {"dt": 1' + "0" * 400 + "}}")
    out = tmp_path / "out"
    code = cli.main(["plan", "--world", str(DEMO / "world.json"), "--shot",
                     str(DEMO / "shot.json"), "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "SchemaError",
        "message": "config.follow.dt: expected a number, got an integer too large for a float"}
    assert not out.exists()


def test_config_that_sets_collision_step_is_a_schema_error(tmp_path, capsys):
    # config/1 no longer has a planner step: every segment check runs at
    # body_radius / 2, so the key is refused like any other unknown field
    config = json.loads((DEMO / "config.json").read_text())
    config["collision_step"] = 0.6
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = cli.main(["plan", "--world", str(DEMO / "world.json"), "--shot",
                     str(DEMO / "shot.json"), "--config", str(bad), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "SchemaError", "message": "config.collision_step: unknown field"}
    assert not out.exists()


def test_blocked_endpoint_exit_code(tmp_path, capsys):
    world = json.loads((DEMO / "world.json").read_text())
    world["obstacles"].append({"kind": "cylinder", "base_center": [8.0, 0.0, 0.0],
                               "radius": 1.0, "height": 5.0})
    bad = tmp_path / "blocked.json"
    bad.write_text(json.dumps(world))
    code = cli.main(["plan", "--world", str(bad), "--shot",
                     str(DEMO / "shot.json"), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_ENDPOINT_BLOCKED
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "EndpointBlocked"


@pytest.mark.parametrize("start, message", [
    # on the bounds top: outside the bounds as the predicate shrinks them
    ([8.0, 0.0, 10.0], "path endpoint at sample 0 (8.0, 0.0, 10.0) lies outside the world "
     "bounds (-15.0, -15.0, 0.0) to (15.0, 15.0, 10.0) shrunk by 1e-06 m (a ground at "
     "0.0 is not shrunk)"),
    # 1.22 m from the pillar's axis: outside its 0.8 m, inside its inflated 1.3 m
    ([1.0, 9.5, 2.0], "path endpoint at sample 0 is in collision"),
])
def test_a_blocked_endpoint_names_its_cause(start, message, tmp_path, capsys):
    shot = json.loads((DEMO / "shot.json").read_text())
    (tmp_path / "shot.json").write_text(json.dumps(dict(shot, start=start)))
    out = tmp_path / "out"
    code = cli.main(["plan", "--world", str(DEMO / "world.json"), "--shot",
                     str(tmp_path / "shot.json"), "--out", str(out)])
    assert code == cli.EXIT_ENDPOINT_BLOCKED
    assert json.loads(capsys.readouterr().err)["error"] == {"kind": "EndpointBlocked",
                                                            "message": message}
    assert not out.exists()


def test_execute_writes_trajectory_and_render(tmp_path):
    plan_out = tmp_path / "plan"
    assert cli.main(["plan", *demo_args(plan_out)]) == cli.EXIT_OK
    exec_out = tmp_path / "exec"
    code = cli.main(["execute", "--world", str(DEMO / "world.json"),
                     "--path", str(plan_out / "path.json"),
                     "--config", str(DEMO / "config.json"),
                     "--out", str(exec_out)])
    assert code == cli.EXIT_OK
    log = json.loads((exec_out / "trajectory.json").read_text())
    assert log["poses"][0]["t"] == 0.0
    assert len(log["poses"]) > 100
    assert (exec_out / "execute.svg").exists()


def test_bench_rejects_unobstructed_scenarios(tmp_path, capsys):
    world = json.loads((DEMO / "world.json").read_text())
    world["obstacles"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(world))
    code = cli.main(["bench", "--world", str(empty),
                     "--shot", str(DEMO / "shot.json"),
                     "--bench", str(DEMO / "bench.json"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VACUOUS_BENCH
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "VacuousBench"


def test_bench_small_sweep_writes_all_artifacts(tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps(
        {"schema": "bench/1", "loops": [60, 120], "repetitions": 2}))
    out = tmp_path / "out"
    code = cli.main(["bench", "--world", str(DEMO / "world.json"),
                     "--shot", str(DEMO / "shot.json"),
                     "--config", str(DEMO / "config.json"),
                     "--bench", str(spec), "--seed", "3", "--out", str(out)])
    assert code == cli.EXIT_OK
    rows = json.loads((out / "bench.json").read_text())["rows"]
    assert [r["max_loops"] for r in rows] == [60, 120]
    table = (out / "bench.txt").read_text()
    assert "loops" in table and "hardware-relative" in table
    assert (out / "bench.svg").exists()


def test_bench_counts_a_repetition_that_fails_validation_as_failed(tmp_path, monkeypatch):
    # the scan, the planner and validation share one segment check, so a
    # planned detour passes validation; the safety gate is made to reject the
    # second path it sees, and the sweep must go on without that plan
    calls = []
    real_validate = pipeline.validate

    def validate_rejecting_once(path, model):
        calls.append(path)
        return 0 if len(calls) == 2 else real_validate(path, model)

    monkeypatch.setattr(pipeline, "validate", validate_rejecting_once)
    out = tmp_path / "out"
    code = cli.main(["bench", "--world", str(DEMO / "world.json"),
                     "--shot", str(DEMO / "shot.json"),
                     "--config", str(DEMO / "config.json"),
                     "--bench", str(DEMO / "bench.json"), "--seed", "3",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    result = json.loads((out / "bench.json").read_text())
    failed = [s for s in result["samples"] if s["cost"] is None]
    assert failed and len(failed) < len(result["samples"])
    assert min(r["success_rate"] for r in result["rows"]) < 1.0


def test_render_subcommand(tmp_path):
    plan_out = tmp_path / "plan"
    assert cli.main(["plan", *demo_args(plan_out)]) == cli.EXIT_OK
    out = tmp_path / "render"
    code = cli.main(["render", "--world", str(DEMO / "world.json"),
                     "--shot", str(DEMO / "shot.json"),
                     "--path", str(plan_out / "path.json"),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    svg = (out / "render.svg").read_text()
    assert '<g id="arc">' in svg and '<g id="final">' in svg


def test_console_entry_point_runs():
    exe = shutil.which("arcshot")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "plan" in proc.stdout and "bench" in proc.stdout


def test_cli_module_invocation_help():
    proc = subprocess.run([sys.executable, "-m", "arcshot.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
