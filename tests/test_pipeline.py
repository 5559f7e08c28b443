import ast
import dataclasses
import hashlib
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arcshot
from arcshot import fileio, local_planner
from arcshot.discontinuity import Discontinuity
from arcshot.errors import EndpointBlocked, LocalPlanFailed, SpliceMismatch
from arcshot.local_planner import LocalPath, RrtParams
from arcshot.pipeline import plan_shot, splice, validate
from arcshot.shot import ArcShotSpec, GlobalPath, aimed_row, generate_arc
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, obstacle_rows
from conftest import (SCENARIO_DIR, demo_shot, demo_world, make_world, point_free, spaced_quad,
                      wall_shot, wall_world)
from test_discontinuity import thin_obstacles


def fake_disc(path: GlobalPath, entry: int, exit_: int) -> Discontinuity:
    return Discontinuity(entry, exit_, path[entry], path[exit_])


# splice ---------------------------------------------------------------------

def test_splice_straight_detour_drops_the_blocked_samples():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 10, 16)
    lp = LocalPath(arc.position_array()[[10, 16]],
                   d.entry_pose.position.distance_to(d.exit_pose.position))
    out = splice(arc, d, lp)
    assert len(out) == len(arc) - (16 - 10 - 1)
    assert np.array_equal(out.rows[:11], arc.rows[:11])
    assert np.array_equal(out.rows[11:], arc.rows[16:])


def test_splice_inserts_the_detour_interior_verbatim():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 20, 30)
    interior = (Vec3(1.0, 9.0, 2.0), Vec3(0.0, 9.5, 2.1), Vec3(-1.0, 9.0, 2.0))
    cost = sum(a.distance_to(b) for a, b in zip(
        (d.entry_pose.position, *interior),
        (*interior, d.exit_pose.position)))
    out = splice(arc, d, LocalPath(
        [p.as_array() for p in (d.entry_pose.position, *interior, d.exit_pose.position)],
        cost))
    replaced = [out[i] for i in range(21, 21 + len(interior))]
    assert tuple(p.position for p in replaced) == interior
    target = arc.spec.target
    for pose in replaced:
        p = pose.position
        assert pose.yaw == aimed_row(p.x, p.y, p.z, target)[3]
    # outside the span nothing moved
    assert np.array_equal(out.rows[:21], arc.rows[:21])
    assert np.array_equal(out.rows[21 + len(interior):], arc.rows[30:])


def test_splice_rejects_mismatched_endpoints():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 10, 16)
    off = d.entry_pose.position + Vec3(1e-4, 0, 0)
    with pytest.raises(SpliceMismatch):
        splice(arc, d, LocalPath([off.as_array(), d.exit_pose.position.as_array()], 1.0))


def test_splice_requires_a_shot_spec_for_yaw():
    arc = generate_arc(demo_shot())
    bare = GlobalPath(arc.rows)  # no spec attached
    d = fake_disc(bare, 10, 16)
    lp = LocalPath(bare.position_array()[[10, 16]], 1.0)
    with pytest.raises(SpliceMismatch):
        splice(bare, d, lp)


# validate -------------------------------------------------------------------

def test_validate_passes_a_clean_arc(quad):
    world = make_world()
    arc = generate_arc(demo_shot())
    assert validate(arc, CollisionModel(world, quad)) is None


def test_validate_reports_the_first_offending_segment(quad):
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    path = GlobalPath([(x, 0.0, 2.0, 0.0) for x in (-5.0, -3.0, 3.0, 5.0)])
    model = CollisionModel(world, quad)
    assert model.check_step == 0.15
    assert validate(path, model) == 1


def test_validate_finer_step_never_passes_where_coarser_failed(quad):
    # two quads of the default growth: checks 0.25 and 0.125 apart
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),), target=(0.0, 5.0, 1.0))
    coarse, fine = (CollisionModel(world, QuadModel(body, quad.growth - body))
                    for body in (0.5, 0.25))
    assert (coarse.check_step, fine.check_step) == (0.25, 0.125)
    assert coarse.inflated.tobytes() == fine.inflated.tobytes()
    path = GlobalPath([(x, 0.0, 2.0, 0.0) for x in (-6.0, 0.0, 6.0)])
    assert validate(path, coarse) is not None
    assert validate(path, fine) is not None


def test_no_stage_takes_or_reads_a_check_spacing():
    # every stage asks the model's one segment predicate, so nothing samples
    # a segment: no function takes a spacing, and the model's check_step is
    # read only where the report records it
    takers = []
    for info in pkgutil.iter_modules(arcshot.__path__):
        module = importlib.import_module(f"arcshot.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                functions = [(f"{name}.{attr}", f) for attr, f in vars(obj).items()
                             if inspect.isfunction(f)]
            else:
                functions = [(name, obj)] if inspect.isfunction(obj) else []
            takers += [f"{module.__name__}.{qualified}" for qualified, f in functions
                       if "step" in inspect.signature(f).parameters]
    # the report records report/1's collision_step and validation_step
    assert takers == ["arcshot.pipeline.PlanReport.__init__"]
    readers = [f"{path.name}: {line.strip()}"
               for path in sorted(Path(arcshot.__file__).parent.glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if ".check_step" in line]
    assert readers == ["pipeline.py: step=model.check_step,"]


def sequential_validate(path, model):
    """Reference for `validate`: one `segment_free` call per segment, and a
    single pose as one zero-length segment."""
    positions = path.position_array()
    if len(path) == 1:
        return None if model.segment_free(positions[0], positions[0]) else 0
    for i in range(len(path) - 1):
        if not model.segment_free(positions[i], positions[i + 1]):
            return i
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_validate_matches_the_per_segment_oracle(seed):
    # random walks through a few obstacles: often several blocked segments,
    # sometimes none, sometimes a single pose; validate culls the model to the
    # walk, and clutter across a wider world is mostly far from it
    rng = np.random.default_rng(seed)

    def obstacle(lo):
        if rng.random() < 0.5:
            return Cylinder(Vec3.from_array(lo), float(rng.uniform(0.1, 1.2)),
                            float(rng.uniform(0.5, 4.0)))
        return AxisBox(Vec3.from_array(lo), Vec3.from_array(lo + rng.uniform(0.1, 2.5, 3)))

    obstacles = [obstacle(rng.uniform((-5, -5, 0), (5, 5, 4)))
                 for _ in range(int(rng.integers(0, 5)))]
    obstacles += [obstacle(rng.uniform((-30, -30, 0), (28, 28, 4)))
                  for _ in range(int(rng.integers(0, 40)))]
    world = make_world(tuple(obstacles), lo=(-30, -30, 0), hi=(30, 30, 8))
    steps = rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 30)), 3))
    walk = rng.uniform((-6, -6, 1), (6, 6, 7)) + np.cumsum(steps, axis=0)
    path = GlobalPath(np.column_stack((walk, np.zeros(len(walk)))))
    growth = QuadModel(body_radius=float(rng.uniform(0.1, 0.4)), safety_margin=0.1).growth
    model = CollisionModel(world, spaced_quad(float(rng.uniform(0.05, 0.5)), growth))
    assert validate(path, model) == sequential_validate(path, model)


# plan_shot ------------------------------------------------------------------

def test_plan_shot_in_an_empty_world_returns_the_arc(quad):
    world = make_world()
    spec = demo_shot()
    result = plan_shot(CollisionModel(world, quad), spec, RrtParams(seed=0))
    arc = generate_arc(spec)
    assert np.array_equal(result.final_path.rows, arc.rows)
    assert result.final_path == arc
    assert result.discontinuities == []
    assert result.local_paths == []
    assert result.report.total_nodes == 0
    assert result.report.discontinuities == ()


def test_plan_shot_demo_repairs_exactly_one_span(quad):
    model = CollisionModel(demo_world(), quad)
    spec = demo_shot()
    result = plan_shot(model, spec, RrtParams(extend_dist=0.2, seed=7))
    assert len(result.discontinuities) == 1
    d = result.discontinuities[0]
    arc = generate_arc(spec)

    # locality of repair: untouched outside [entry, exit]
    final = result.final_path
    assert np.array_equal(final.rows[:d.entry_index + 1], arc.rows[:d.entry_index + 1])
    tail = len(arc) - d.exit_index
    assert np.array_equal(final.rows[-tail:], arc.rows[d.exit_index:])

    # spliced result is densely safe and keeps the camera on target
    assert validate(final, model) is None
    for x, y, _, yaw in final.rows.tolist():
        off_x = spec.target.x - x
        off_y = spec.target.y - y
        norm = math.hypot(off_x, off_y)
        dot = (math.cos(yaw) * off_x + math.sin(yaw) * off_y) / norm
        assert dot >= 1.0 - 1e-9


def test_plan_shot_two_obstacles_two_spans(quad):
    world = make_world((
        Cylinder(Vec3(5.0, 6.2, 0.0), 0.6, 5.0),
        Cylinder(Vec3(-5.0, 6.2, 0.0), 0.6, 5.0),
    ))
    spec = demo_shot()
    result = plan_shot(CollisionModel(world, quad), spec, RrtParams(extend_dist=0.3, seed=3))
    assert len(result.discontinuities) == 2
    arc = generate_arc(spec)
    spans = [(d.entry_index, d.exit_index) for d in result.discontinuities]
    # every index outside the repaired spans matches the raw arc exactly
    outside = [i for i in range(len(arc))
               if not any(lo <= i <= hi for lo, hi in spans)]
    final = result.final_path
    arc_positions = {tuple(p) for p in final.position_array().tolist()}
    for i in outside:
        p = arc[i].position
        assert (p.x, p.y, p.z) in arc_positions


def test_plan_shot_propagates_endpoint_blocked(quad):
    world = make_world((Cylinder(Vec3(8.0, 0.0, 0.0), 1.0, 5.0),))
    with pytest.raises(EndpointBlocked):
        plan_shot(CollisionModel(world, quad), demo_shot(), RrtParams(seed=0))


@pytest.mark.parametrize("samples", [8, 10, 12, 16])
def test_plan_shot_repairs_a_thin_wall_between_samples(samples, quad):
    # inflated to 1.1 m thick, the wall falls between two arc samples: the
    # blocked-span scan must see the segment that validation would reject
    world = dataclasses.replace(
        demo_world(), rows=obstacle_rows((AxisBox(Vec3(-0.05, 7, 0), Vec3(0.05, 9, 5)),)))
    model = CollisionModel(world, quad)
    spec = ArcShotSpec(Vec3(8, 0, 2), Vec3(-8, 0, 2), world.target,
                       "counterclockwise", samples)
    assert model.free_points(generate_arc(spec).position_array()).all()
    result = plan_shot(model, spec, RrtParams())
    assert len(result.discontinuities) == 1
    assert validate(result.final_path, model) is None


@settings(max_examples=100, deadline=None)
@given(thin_obstacles, st.floats(6.0, 10.0), st.floats(1.0, 4.0),
       st.integers(6, 70), st.integers(0, 2 ** 32 - 1))
def test_plan_shot_never_rejects_its_own_plan(obstacles, radius, z, samples, seed):
    model = CollisionModel(make_world(tuple(obstacles)), QuadModel())
    spec = ArcShotSpec(Vec3(radius, 0.0, z), Vec3(-radius, 0.0, z),
                       Vec3(0.0, 0.0, 1.5), "counterclockwise", samples)
    assume(point_free(model, spec.start) and point_free(model, spec.end))
    try:
        plan_shot(model, spec, RrtParams(max_loops=60, seed=seed))
    except LocalPlanFailed:
        pass  # a small loop budget may give up; it must not plan unsafely


def test_plan_shot_annotates_local_failures(quad):
    world = wall_world()
    params = RrtParams(extend_dist=1.0, goal_radius=1.0, max_loops=400,
                       fail_limit=1, seed=0)
    with pytest.raises(LocalPlanFailed) as err:
        plan_shot(CollisionModel(world, quad), wall_shot(), params)
    assert err.value.discontinuity_index == 0


def test_plan_shot_report_snapshot(quad):
    world = demo_world()
    params = RrtParams(extend_dist=0.2, seed=11)
    result = plan_shot(CollisionModel(world, quad), demo_shot(), params, margin=2)
    report = result.report
    assert report.seed == 11
    assert report.params == params
    assert report.quad == quad
    assert report.margin == 2
    assert report.step == quad.body_radius / 2
    assert report.total_loops == sum(r.loops for r in report.discontinuities)
    assert report.total_nodes == sum(len(t) for t in result.trees)
    for r in report.discontinuities:
        assert r.duration_s >= 0.0


def test_plan_shot_is_deterministic(quad):
    model = CollisionModel(demo_world(), quad)
    params = RrtParams(extend_dist=0.2, seed=5)
    a = plan_shot(model, demo_shot(), params)
    b = plan_shot(model, demo_shot(), params)
    assert np.array_equal(a.final_path.rows, b.final_path.rows)
    assert [lp.cost for lp in a.local_paths] == [lp.cost for lp in b.local_paths]
    assert a.report.total_nodes == b.report.total_nodes


# Each winning RRT* tree as sha256 over its positions bytes, costs bytes and
# parents (int64, root -1). report.json keeps only counts and costs, so these
# catch drift in the nodes the final path does not use; a change that moves
# any node's bits on purpose re-records them and says why.
TREE_SHA256 = {
    "demo": ["5feb2637858355ccf03f3a14845c3034082fe5d6b8d9913e91373ebbf6eb9891"],
    # 1408 nodes: the tree buffer doubles past 64, 128, 256, 512 and 1024
    "demo-2000": ["092dbf0067c4b514c9f80cf7dcf7b9142ed410baa4691fd9014c260a5d46ff3a"],
    "wall": ["e02e86f22db40e37e73e87bc0c34402794a5f1516cd837e675cfda0e9ccf968b"],
}


def _tree_sha256(tree) -> str:
    digest = hashlib.sha256(tree.positions.tobytes())
    digest.update(np.array(tree.node_costs).tobytes())
    digest.update(np.array([-1] + tree.parents[1:], dtype=np.int64).tobytes())
    return digest.hexdigest()


def _plan(case: str, seed: int):
    if case.startswith("demo"):  # the README quick start plans the bundled files at seed 7
        demo = SCENARIO_DIR / "demo"
        config = fileio.load_config(demo / "config.json")
        model = CollisionModel(fileio.load_world(demo / "world.json"), config.quad)
        rrt = dataclasses.replace(config.rrt, seed=seed)
        if case == "demo-2000":
            rrt = dataclasses.replace(rrt, max_loops=2000)
        return plan_shot(model, fileio.load_shot(demo / "shot.json"), rrt,
                         margin=config.margin)
    # acceptance criterion 7 at seed 1: levels 0 and 1 fail, level 2 wins
    params = RrtParams(extend_dist=1.0, goal_radius=1.0, max_loops=800, seed=seed)
    return plan_shot(CollisionModel(wall_world(), QuadModel()), wall_shot(), params)


@pytest.mark.parametrize("case", sorted(TREE_SHA256))
def test_rrt_star_trees_keep_their_recorded_bytes(case):
    result = _plan(case, {"demo": 7, "demo-2000": 7, "wall": 1}[case])
    assert [_tree_sha256(t) for t in result.trees] == TREE_SHA256[case]


def _dynamic_openblas() -> bool:
    """Whether numpy runs on an OpenBLAS that picks its kernel at run time."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _openblas_core(output: str) -> str:
    """The kernel OpenBLAS names at load time under OPENBLAS_VERBOSE=2."""
    return next(line.split(":", 1)[1].strip() for line in output.splitlines()
                if line.startswith("Core:"))


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's OpenBLAS is not DYNAMIC_ARCH")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Prescott"])
def test_tree_pins_hold_under_every_openblas_kernel(kernel):
    # the kernel OpenBLAS picks for the CPU must not move a tree's bits, so
    # the pins hold on every host; some requested kernels load under another
    # name (Prescott as Katmai here), so the check is that the kernel moved
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(filter(None, (str(root / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    env.pop("OPENBLAS_CORETYPE", None)
    default = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                             capture_output=True, text=True, timeout=60)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_rrt_star_trees_keep_their_recorded_bytes"],
        cwd=root, env=dict(env, OPENBLAS_CORETYPE=kernel), capture_output=True, text=True,
        timeout=600)
    output = run.stdout + run.stderr
    core = _openblas_core(output)
    assert core == kernel or core != _openblas_core(default.stdout + default.stderr)
    assert run.returncode == 0, output
    assert f"{len(TREE_SHA256)} passed" in output


def test_no_source_sends_floats_through_blas():
    # ndarray.dot, @, np.dot and a norm over a whole 1-D array call BLAS,
    # whose bits follow the kernel OpenBLAS picks for the CPU
    calls = []
    for path in sorted(Path(arcshot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                calls.append(f"{where} @")
            elif isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if (name.endswith(".dot") or name in ("np.dot", "np.vdot", "np.inner", "np.matmul")
                        or (name.endswith("linalg.norm")
                            and not any(k.arg == "axis" for k in node.keywords))):
                    calls.append(f"{where} {name}")
    assert calls == []


def _plan_facts(result):
    """Final path, report without its wall-clock durations, winning trees."""
    report = dataclasses.replace(
        result.report, total_duration_s=0.0,
        discontinuities=tuple(dataclasses.replace(r, duration_s=0.0)
                              for r in result.report.discontinuities))
    return result.final_path, report, [_tree_sha256(t) for t in result.trees]


@pytest.mark.parametrize("case, seed", [(case, seed) for case in ("demo", "wall")
                                        for seed in (11, 12, 13)])
def test_skipping_walled_off_levels_changes_no_plan(case, seed, monkeypatch):
    fired = []
    certify = local_planner.walled_off

    def recording(*args):
        fired.append(certify(*args))
        return fired[-1]

    monkeypatch.setattr(local_planner, "walled_off", recording)
    with_skips = _plan_facts(_plan(case, seed))
    monkeypatch.setattr(local_planner, "walled_off", lambda *args: False)
    assert _plan_facts(_plan(case, seed)) == with_skips
    assert any(fired) == (case == "wall")
