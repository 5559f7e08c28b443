"""Tests of the benchmark itself: generators, checks and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import checks
import geometry
import run
import tracing
import workloads

cli = run.load_program()


def _files(name: str, seed: int, directory) -> dict[str, bytes]:
    gen = workloads.Generator(name, seed)
    world, config = gen.write_run_files(directory)
    files = {"world": world.read_bytes(), "config": config.read_bytes()}
    for i in range(5):
        op = gen.operation(i)
        shot = workloads.write_json(directory / f"shot{i}.json", op.shot)
        files[f"shot{i}"] = shot.read_bytes() + str(op.rrt_seed).encode()
    return files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_shots(name, tmp_path):
    first = _files(name, 5, tmp_path / "a")
    assert first == _files(name, 5, tmp_path / "b")
    other = _files(name, 6, tmp_path / "c")
    assert all(first[f"shot{i}"] != other[f"shot{i}"] for i in range(5))
    if name == "clutter-survey":
        assert first["world"] != other["world"]


def test_clutter_stays_off_the_arc_band_and_endpoints_are_free():
    gen = workloads.Generator("clutter-survey", 3)
    obstacles = gen.world["obstacles"]
    assert len(obstacles) == workloads.CLUTTER_COUNT + workloads.BLOCKERS
    clutter = dict(gen.world, obstacles=obstacles[:workloads.CLUTTER_COUNT])
    clutter_model = geometry.PointModel(clutter, workloads.GROWTH)
    for i in range(40):
        shot = gen.operation(i).shot
        pos, _ = geometry.arc(shot)
        assert clutter_model.free(pos).all()
        assert gen.model.free(pos[[0, -1]]).all()
        clear = i % workloads.CLEAR_EVERY == workloads.CLEAR_EVERY - 1
        assert gen.model.free(pos).all() == clear


def _plan(name: str, seed: int, index: int, out) -> tuple[dict, dict]:
    gen = workloads.Generator(name, seed)
    world, config = gen.write_run_files(out)
    op = gen.operation(index)
    shot = workloads.write_json(out / "shot.json", op.shot)
    code = cli.main(["plan", "--world", str(world), "--shot", str(shot),
                     "--config", str(config), "--seed", str(op.rrt_seed),
                     "--out", str(out / "plan")])
    assert code == 0
    return op.shot, json.loads((out / "plan" / "report.json").read_text())


def test_wall_expand_plans_need_window_expansion(tmp_path):
    for i in range(3):
        _, report = _plan("wall-expand", 2, i, tmp_path / str(i))
        assert [d["expansion_level"] >= 1 for d in report["discontinuities"]] == [True]


def test_demo_deep_trees_reach_a_thousand_nodes(tmp_path):
    for i in range(2):
        _, report = _plan("demo-deep", 2, i, tmp_path / str(i))
        assert report["totals"]["nodes"] >= 1000


def test_plan_check_passes_real_output_and_catches_a_moved_pose(tmp_path):
    gen = workloads.Generator("demo-deep", 4)
    shot, report = _plan("demo-deep", 4, 0, tmp_path)
    out = tmp_path / "plan"
    assert checks.check_plan(gen.model, shot, out) == []

    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    data = json.loads((out / "path.json").read_text())
    data["poses"][1]["x"] += 1e-6
    (broken / "path.json").write_text(json.dumps(data))
    assert checks.check_plan(gen.model, shot, broken) != []

    entry = report["discontinuities"][0]["entry_index"]
    data = json.loads((out / "path.json").read_text())
    data["poses"][entry + 1]["x"] = 0.0     # into the pillar at (0, 8.8)
    data["poses"][entry + 1]["y"] = 8.8
    (broken / "path.json").write_text(json.dumps(data))
    assert any("collide" in p for p in checks.check_plan(gen.model, shot, broken))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; lone [20, 21]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_wrapped_calls_nest_under_the_open_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", lambda t, r, a: float(r))
    outer = tracer.wrap(lambda x: inner(x) * inner(x), "outer")
    tracer.begin_op(7)
    root = tracer.open("op")
    assert outer(2) == 9
    tracer.close(root)
    tracer.end_op()
    (op,) = tracer.ops
    names = [tracer.names[i] for i in op["name"]]
    assert names == ["op", "outer", "inner", "inner"]
    assert op["parent"].tolist() == [-1, 0, 1, 1]
    assert op["value"].tolist() == [0.0, 0.0, 3.0, 3.0]
    assert op["op"] == 7
    assert np.all(tracing.self_times(op["parent"], op["start"], op["end"]) >= 0)


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()]
    layers = list(tracing.layer_metrics(tracing.Tracer()))
    layers += ["trace.overhead_share", "fail_share"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tracing.unit_of(name)) for name in layers]
