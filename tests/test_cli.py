import gc
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from arcshot import cli, fileio
from arcshot.world import CollisionModel
from conftest import SCENARIO_DIR

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


def test_benchmark_tracer_still_wraps_the_planner(tmp_path, monkeypatch):
    # perfbench wraps functions by the names callers look them up; a rename
    # would silently drop their spans from traced benchmark runs
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import tracing

    with tracing.installed(tracing.Tracer()) as tracer:
        tracer.begin_op(0)
        assert cli.main(["plan", *demo_args(tmp_path / "plan")]) == cli.EXIT_OK
        tracer.end_op()
    # nearest_vertex and extend spans also feed loop_growth, nearest_ms, extend_ms
    for name in ("local_planner.rrt_star_run", "local_planner.best_parent",
                 "local_planner.nearest_vertex", "local_planner.extend"):
        assert tracing.span_ms(tracer, name), name


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
    for name in ("executor.follow", "fileio.save", "render.render_scene"):
        assert tracing.span_ms(tracer, name), name
    # the executor.follow span's value is the number of logged states
    op = tracer.ops[0]
    states = op["value"][op["name"] == tracer.names.index("executor.follow")]
    poses = json.loads((tmp_path / "exec" / "trajectory.json").read_text())["poses"]
    assert states.tolist() == [len(poses)]


def test_execute_overflow_is_a_schema_error_without_a_trajectory(tmp_path, capsys):
    # the replay meets an infinite coordinate difference between the two poses
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": "path/1", "poses": [
        {"x": 1.7e308, "y": 0.0, "z": 2.0, "yaw": 0.0},
        {"x": -1.7e308, "y": 0.0, "z": 2.0, "yaw": 0.0}]}))
    out = tmp_path / "exec"
    code = cli.main(["execute", "--world", str(DEMO / "world.json"),
                     "--path", str(path), "--out", str(out)])
    assert code == cli.EXIT_SCHEMA
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"kind": "ValueError", "message": "Vec3.x must be finite, got inf"}
    assert not (out / "trajectory.json").exists()


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
