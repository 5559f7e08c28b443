"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured evidence (run with -s to see them live)."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from arcshot import bench, cli, fileio
from arcshot.bench import BenchSpec, run_bench
from arcshot.discontinuity import Discontinuity, find_discontinuities
from arcshot.errors import LocalPlanFailed
from arcshot.executor import follow
from arcshot.local_planner import RrtParams, level_window, rrt_star_run
from arcshot.pipeline import plan_shot, validate
from arcshot.shot import CLOCKWISE, COUNTERCLOCKWISE, ArcShotSpec, generate_arc, wrap_to_pi
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, World
from conftest import (SCENARIO_DIR, demo_shot, demo_world, distance, horizontal_distance,
                      make_world, wall_shot, wall_world)
import schema_reference
from test_discontinuity import (only_sample_hits, reference_spans, sample_reference_spans,
                                segment_flags)

DEMO = SCENARIO_DIR / "demo"


def _ok(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {detail}")


# -- 1. determinism ----------------------------------------------------------

def _blocking_cylinder(angle_deg: float, arc_radius: float, raw_radius: float):
    angle = math.radians(angle_deg)
    reach = arc_radius + raw_radius
    return Cylinder(Vec3(reach * math.cos(angle), reach * math.sin(angle), 0.0),
                    raw_radius, 5.0)


def _determinism_scenarios(tmp_path):
    """Ten solvable plan scenarios: the bundled demo plus nine variants."""
    scenarios = [(DEMO / "world.json", DEMO / "shot.json", DEMO / "config.json", 7)]
    variants = [
        (60.0, 8.0, 0.7, 2.0, COUNTERCLOCKWISE, 64, 1),
        (75.0, 8.0, 0.8, 2.5, COUNTERCLOCKWISE, 48, 2),
        (90.0, 7.0, 0.8, 1.5, COUNTERCLOCKWISE, 64, 3),
        (105.0, 8.0, 0.6, 2.0, COUNTERCLOCKWISE, 80, 4),
        (120.0, 9.0, 0.9, 3.0, COUNTERCLOCKWISE, 64, 5),
        (-70.0, 8.0, 0.8, 2.0, CLOCKWISE, 64, 6),
        (-95.0, 7.5, 0.7, 2.0, CLOCKWISE, 56, 7),
        (-110.0, 8.5, 0.8, 2.5, CLOCKWISE, 72, 8),
        (-90.0, 8.0, 0.8, 1.8, CLOCKWISE, 96, 9),
    ]
    for i, (angle, radius, raw, z, direction, samples, seed) in enumerate(variants):
        world = make_world((_blocking_cylinder(angle, radius, raw),))
        spec = ArcShotSpec(Vec3(radius, 0, z), Vec3(-radius, 0, z),
                           Vec3(0, 0, 1.5), direction, samples)
        base = tmp_path / f"scenario_{i}"
        base.mkdir()
        fileio.save_json(schema_reference.world_to_json(world), base / "world.json")
        fileio.save_json(schema_reference.shot_to_json(spec), base / "shot.json")
        fileio.save_json({"schema": "config/1", "rrt": {"extend_dist": 0.25}},
                         base / "config.json")
        scenarios.append((base / "world.json", base / "shot.json",
                          base / "config.json", seed))
    return scenarios


def test_criterion_1_plans_are_byte_identical(tmp_path):
    started = time.perf_counter()
    for i, (world, shot, config, seed) in enumerate(_determinism_scenarios(tmp_path)):
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"run_{i}_{attempt}"
            code = cli.main(["plan", "--world", str(world), "--shot", str(shot),
                             "--config", str(config), "--seed", str(seed),
                             "--out", str(out)])
            assert code == cli.EXIT_OK, f"scenario {i} failed to plan"
            outputs.append(out)
        for artifact in ("path.json", "report.json"):
            assert (outputs[0] / artifact).read_bytes() == \
                (outputs[1] / artifact).read_bytes(), \
                f"scenario {i}: {artifact} differs between runs"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(1, f"10 scenarios x 2 runs byte-identical in {elapsed:.1f}s")


# -- 2. arc correctness ------------------------------------------------------

def test_criterion_2_arc_properties_hold_on_100_random_specs():
    rng = np.random.default_rng(20240404)
    rel = 1e-9
    for _ in range(100):
        while True:
            start = Vec3(*rng.uniform(-10, 10, 2), rng.uniform(0, 6))
            end = Vec3(*rng.uniform(-10, 10, 2), rng.uniform(0, 6))
            target = Vec3(*rng.uniform(-3, 3, 2), rng.uniform(0, 3))
            if (horizontal_distance(start, target) > 0.5
                    and horizontal_distance(end, target) > 0.5):
                break
        direction = CLOCKWISE if rng.random() < 0.5 else COUNTERCLOCKWISE
        spec = ArcShotSpec(start, end, target, direction, int(rng.integers(8, 100)))
        path = generate_arc(spec)
        n = len(path) - 1

        for got, want in ((path.rows[0, :3], start), (path.rows[-1, :3], end)):
            want = (want.x, want.y, want.z)
            assert distance(got, want) <= rel * max(1.0, distance(want, (0.0, 0.0, 0.0)))

        angles = [math.atan2(y - target.y, x - target.x)
                  for x, y, _, _ in path.rows.tolist()]
        deltas = [wrap_to_pi(b - a) for a, b in zip(angles, angles[1:])]
        sign = 1.0 if direction == COUNTERCLOCKWISE else -1.0
        r0 = horizontal_distance(start, target)
        r1 = horizontal_distance(end, target)
        for i, d in enumerate(deltas):
            assert math.copysign(1.0, d) == sign
            assert abs(d - deltas[0]) <= rel * abs(deltas[0]) + 1e-12
        for i, (x, y, z, yaw) in enumerate(path.rows.tolist()):
            t = i / n
            want_r = r0 + (r1 - r0) * t
            want_z = start.z + (end.z - start.z) * t
            assert horizontal_distance(Vec3(x, y, z), target) == pytest.approx(want_r, rel=rel)
            assert z == pytest.approx(want_z, rel=rel, abs=1e-12)
            off_x = target.x - x
            off_y = target.y - y
            norm = math.hypot(off_x, off_y)
            dot = (math.cos(yaw) * off_x + math.sin(yaw) * off_y) / norm
            assert dot >= 1.0 - rel
    _ok(2, "endpoints, spacing, linearity, and yaw verified on 100 specs")


# -- 3. discontinuity oracle equivalence -------------------------------------

def _ring_world(rng) -> World:
    obstacles = []
    for _ in range(rng.integers(1, 4)):
        angle = math.radians(rng.uniform(25, 155))
        reach = rng.uniform(5.5, 10.5)
        obstacles.append(Cylinder(
            Vec3(reach * math.cos(angle), reach * math.sin(angle), 0.0),
            rng.uniform(0.3, 1.2), rng.uniform(2.0, 8.0)))
    return make_world(tuple(obstacles))


def _half_arc(rng) -> ArcShotSpec:
    radius = rng.uniform(6.0, 10.0)
    return ArcShotSpec(Vec3(radius, 0, rng.uniform(1, 4)),
                       Vec3(-radius, 0, rng.uniform(1, 4)),
                       Vec3(0, 0, 1.5), COUNTERCLOCKWISE,
                       int(rng.integers(24, 96)))


def test_criterion_3_matches_the_reference_scan():
    rng = np.random.default_rng(333)
    quad = QuadModel()
    compared = 0
    differs = []
    for _ in range(20):
        world = _ring_world(rng)
        model = CollisionModel(world, quad)
        for _ in range(5):
            path = generate_arc(_half_arc(rng))
            flags = model.free_points(path.rows[:, :3]).tolist()
            assert flags[0] and flags[-1], "arc endpoints must stay clear"
            got = [(d.entry_index, d.exit_index)
                   for d in find_discontinuities(path, model, margin=2)]
            seg_free = segment_flags(path, model)
            assert got == reference_spans(seg_free, 2)
            old = sample_reference_spans(flags, 2)
            if got != old:
                # only a segment blocked between two free samples, which the
                # per-sample scan cannot see and validation rejects
                assert not only_sample_hits(flags, seg_free)
                differs.append((got, old))
            compared += 1
    assert compared == 100
    # the exact predicate also finds an arc segment that cuts 0.6 mm into an
    # inflated pillar between two samples 0.15 m apart, which sampling passed
    assert differs == [([(4, 7)], []), ([(14, 17)], [])]
    _ok(3, "spans equal the segment scan + merge reference on 20x5 cases; "
           "two cases find a span the per-sample scan missed")


# -- 4. local-planner safety -------------------------------------------------

def test_criterion_4_dense_validation_of_random_single_obstacle_plans():
    rng = np.random.default_rng(4444)
    quad = QuadModel()
    successes = 0
    for _ in range(50):
        angle = math.radians(rng.uniform(35, 145))
        radius = rng.uniform(6.5, 9.5)
        if rng.random() < 0.5:
            raw = rng.uniform(0.5, 1.0)
            reach = radius + raw
            obstacle = Cylinder(
                Vec3(reach * math.cos(angle), reach * math.sin(angle), 0.0),
                raw, rng.uniform(4.0, 8.0))
        else:
            half = rng.uniform(0.6, 1.2)
            reach = radius + half
            cx, cy = reach * math.cos(angle), reach * math.sin(angle)
            obstacle = AxisBox(Vec3(cx - half, cy - half, 0.0),
                               Vec3(cx + half, cy + half, rng.uniform(4.0, 8.0)))
        model = CollisionModel(make_world((obstacle,)), quad)
        spec = ArcShotSpec(Vec3(radius, 0, rng.uniform(1.5, 3.0)),
                           Vec3(-radius, 0, rng.uniform(1.5, 3.0)),
                           Vec3(0, 0, 1.5), COUNTERCLOCKWISE, 64)
        try:
            result = plan_shot(model, spec,
                               RrtParams(seed=int(rng.integers(0, 2 ** 32))))
        except LocalPlanFailed:
            continue
        successes += 1
        assert validate(result.final_path, model) is None
    assert successes >= 40, f"only {successes}/50 scenarios planned"
    _ok(4, f"{successes}/50 plans succeeded, zero dense-validation violations")


# -- 5. empty-world near-optimality ------------------------------------------

def test_criterion_5_near_optimal_in_the_open():
    started = time.perf_counter()
    quad = QuadModel()
    model = CollisionModel(make_world(lo=(-20, -20, 0), hi=(20, 20, 10)), quad)
    d = Discontinuity(1, 3, (-3.0, 0.0, 2.0), (3.0, 0.0, 2.0))
    distance = math.dist(d.entry, d.exit)
    within = 0
    for seed in range(100):
        params = RrtParams(extend_dist=distance / 10, max_loops=500, seed=seed)
        run = rrt_star_run(d, *level_window(d, model, params, 0), params)
        if run.path is not None and run.path.cost <= 1.15 * distance:
            within += 1
    elapsed = time.perf_counter() - started
    assert within >= 95, f"only {within}/100 within 1.15x of straight line"
    assert elapsed < 120.0
    _ok(5, f"{within}/100 seeds within 1.15x straight line in {elapsed:.1f}s")


# -- 6 & 10. bench trade-off and tree integrity ------------------------------

@pytest.fixture(scope="module")
def bench_result():
    return run_bench(CollisionModel(demo_world(), QuadModel()), demo_shot(),
                     RrtParams(seed=2025), BenchSpec((150, 500), 20))


def test_criterion_6_loops_buy_quality_with_time(bench_result):
    by_loops = {row.max_loops: row for row in bench_result.rows}
    fast, slow = by_loops[150], by_loops[500]
    assert fast.success_rate == 1.0 and slow.success_rate == 1.0
    assert slow.mean_duration_s > fast.mean_duration_s
    assert slow.mean_cost <= fast.mean_cost
    _ok(6, f"150 loops: {fast.mean_duration_s:.3f}s/{fast.mean_cost:.3f}m, "
           f"500 loops: {slow.mean_duration_s:.3f}s/{slow.mean_cost:.3f}m")


def test_criterion_10_bench_trees_are_internally_consistent():
    quad = QuadModel()
    model = CollisionModel(demo_world(), quad)
    params = RrtParams(seed=2025)
    radius = params.neighbor_radius
    trees_checked = 0
    # the 40 plans of the criterion-6 sweep, seeded as run_bench seeds them
    for loops, rep in itertools.product((150, 500), range(20)):
        run_params = dataclasses.replace(
            params, max_loops=loops, seed=bench._rep_seed(2025, loops, rep))
        for tree in [r.tree for r in plan_shot(model, demo_shot(), run_params).detours]:
            positions = tree.positions
            costs = np.array(tree.node_costs)
            recomputed = np.zeros(len(tree))
            for j in range(1, len(tree)):
                parent = tree.parents[j]
                edge = float(np.linalg.norm(positions[j] - positions[parent]))
                recomputed[j] = recomputed[parent] + edge
                assert abs(costs[j] - recomputed[j]) <= 1e-9 * max(1.0, costs[j])
                # exhaustive scan: any cheaper in-radius parent must be blocked
                dists = np.linalg.norm(positions[:j] - positions[j], axis=1)
                totals = costs[:j] + dists
                cheaper = np.flatnonzero(
                    (dists <= radius) & (totals < costs[j] - 1e-9 * max(1.0, costs[j])))
                for i in cheaper:
                    assert not model.segment_free(positions[i], positions[j])
            trees_checked += 1
    assert trees_checked == 40
    _ok(10, f"{trees_checked} bench trees: costs consistent, parents optimal")


# -- 7. window expansion -----------------------------------------------------

def test_criterion_7_wall_needs_window_expansion():
    model = CollisionModel(wall_world(), QuadModel())
    spec = wall_shot()
    params = RrtParams(extend_dist=1.0, goal_radius=1.0, max_loops=800, seed=1)

    with pytest.raises(LocalPlanFailed):
        plan_shot(model, spec, dataclasses.replace(params, fail_limit=1))

    result = plan_shot(model, spec, params)
    level = fileio.report_to_json(result)["discontinuities"][0]["expansion_level"]
    assert level >= 1
    _ok(7, f"fail_limit=1 aborts, fail_limit=4 recovers at level {level}")


# -- 8. locality of repair ---------------------------------------------------

def _bundled_plan():
    world = fileio.load_world(DEMO / "world.json")
    spec = fileio.load_shot(DEMO / "shot.json")
    config = fileio.load_config(DEMO / "config.json")
    params = dataclasses.replace(config.rrt, seed=7)
    model = CollisionModel(world, config.quad)
    return world, spec, config, plan_shot(model, spec, params, margin=config.margin)


def test_criterion_8_repair_is_local():
    world, spec, config, result = _bundled_plan()
    arc = generate_arc(spec)
    assert len(result.discontinuities) == 1
    d = result.discontinuities[0]
    final = result.final_path
    assert np.array_equal(final.rows[:d.entry_index + 1], arc.rows[:d.entry_index + 1])
    tail = len(arc) - d.exit_index
    assert np.array_equal(final.rows[-tail:], arc.rows[d.exit_index:])
    _ok(8, f"poses outside [{d.entry_index}, {d.exit_index}] equal the raw arc")


# -- 9. executor safety ------------------------------------------------------

def test_criterion_9_replay_avoids_raw_obstacles():
    started = time.perf_counter()
    world, spec, config, result = _bundled_plan()
    path = result.final_path
    start = (*path.rows[0, :2].tolist(), world.bounds.min.z, 0.0, 0.0)
    log = follow(path, start, config.follow, config.quad)
    point_quad = QuadModel(body_radius=1e-9, safety_margin=0.0)
    raw_model = CollisionModel(world, point_quad)
    free = raw_model.free_points(log[:, :3])
    elapsed = time.perf_counter() - started
    assert free.all(), f"{(~free).sum()} of {len(log)} states collide"
    assert elapsed < 30.0
    _ok(9, f"{len(log)} replayed states clear of raw obstacles in {elapsed:.1f}s")
