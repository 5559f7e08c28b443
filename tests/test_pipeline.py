import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.discontinuity import Discontinuity
from arcshot.errors import EndpointBlocked, LocalPlanFailed, SpliceMismatch
from arcshot.local_planner import LocalPath, RrtParams
from arcshot.pipeline import plan_shot, splice, validate
from arcshot.shot import GlobalPath, Pose4, face_target, generate_arc
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3
from conftest import demo_shot, demo_world, make_world, wall_shot, wall_world


def fake_disc(path: GlobalPath, entry: int, exit_: int) -> Discontinuity:
    return Discontinuity(entry, exit_, path[entry], path[exit_],
                         tuple(range(entry + 1, exit_)))


# splice ---------------------------------------------------------------------

def test_splice_straight_detour_drops_the_blocked_samples():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 10, 16)
    lp = LocalPath((d.entry_pose.position, d.exit_pose.position),
                   d.entry_pose.position.distance_to(d.exit_pose.position))
    out = splice(arc, d, lp)
    assert len(out) == len(arc) - (16 - 10 - 1)
    assert out.poses[:11] == arc.poses[:11]
    assert out.poses[11:] == arc.poses[16:]


def test_splice_inserts_the_detour_interior_verbatim():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 20, 30)
    interior = (Vec3(1.0, 9.0, 2.0), Vec3(0.0, 9.5, 2.1), Vec3(-1.0, 9.0, 2.0))
    cost = sum(a.distance_to(b) for a, b in zip(
        (d.entry_pose.position, *interior),
        (*interior, d.exit_pose.position)))
    out = splice(arc, d, LocalPath(
        (d.entry_pose.position, *interior, d.exit_pose.position), cost))
    replaced = out.poses[21:21 + len(interior)]
    assert tuple(p.position for p in replaced) == interior
    target = arc.spec.target
    for pose in replaced:
        assert pose.yaw == face_target(pose.position, target)
    # outside the span nothing moved
    assert out.poses[:21] == arc.poses[:21]
    assert out.poses[21 + len(interior):] == arc.poses[30:]


def test_splice_rejects_mismatched_endpoints():
    arc = generate_arc(demo_shot())
    d = fake_disc(arc, 10, 16)
    off = d.entry_pose.position + Vec3(1e-4, 0, 0)
    with pytest.raises(SpliceMismatch):
        splice(arc, d, LocalPath((off, d.exit_pose.position), 1.0))


def test_splice_requires_a_shot_spec_for_yaw():
    arc = generate_arc(demo_shot())
    bare = GlobalPath(arc.poses)  # no spec attached
    d = fake_disc(bare, 10, 16)
    lp = LocalPath((d.entry_pose.position, d.exit_pose.position), 1.0)
    with pytest.raises(SpliceMismatch):
        splice(bare, d, lp)


# validate -------------------------------------------------------------------

def test_validate_passes_a_clean_arc(quad):
    world = make_world()
    arc = generate_arc(demo_shot())
    assert validate(arc, CollisionModel(world, quad), quad.body_radius / 2) is None


def test_validate_reports_the_first_offending_segment(quad):
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    poses = tuple(Pose4(Vec3(x, 0.0, 2.0), 0.0) for x in (-5.0, -3.0, 3.0, 5.0))
    path = GlobalPath(poses)
    assert validate(path, CollisionModel(world, quad), 0.15) == 1


def test_validate_finer_step_never_passes_where_coarser_failed(quad):
    model = CollisionModel(make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),),
                                      target=(0.0, 5.0, 1.0)), quad)
    poses = tuple(Pose4(Vec3(x, 0.0, 2.0), 0.0) for x in (-6.0, 0.0, 6.0))
    path = GlobalPath(poses)
    coarse = validate(path, model, 1.0)
    assert coarse is not None
    assert validate(path, model, 0.25) is not None


def sequential_validate(path, model, step):
    """Reference for `validate`: one `segment_free` call per segment."""
    for i in range(len(path) - 1):
        if not model.segment_free(path[i].position, path[i + 1].position, step):
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
    path = GlobalPath(tuple(Pose4(Vec3.from_array(p), 0.0) for p in walk))
    quad = QuadModel(body_radius=float(rng.uniform(0.1, 0.4)), safety_margin=0.1)
    step = float(rng.uniform(0.05, 0.5))
    model = CollisionModel(world, quad)
    assert validate(path, model, step) == sequential_validate(path, model, step)


# plan_shot ------------------------------------------------------------------

def test_plan_shot_in_an_empty_world_returns_the_arc(quad):
    world = make_world()
    spec = demo_shot()
    result = plan_shot(CollisionModel(world, quad), spec, RrtParams(seed=0))
    arc = generate_arc(spec)
    assert result.final_path.poses == arc.poses
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
    assert final.poses[:d.entry_index + 1] == arc.poses[:d.entry_index + 1]
    tail = len(arc) - d.exit_index
    assert final.poses[-tail:] == arc.poses[d.exit_index:]

    # spliced result is densely safe and keeps the camera on target
    assert validate(final, model, quad.body_radius / 2) is None
    for pose in final.poses:
        off_x = spec.target.x - pose.position.x
        off_y = spec.target.y - pose.position.y
        norm = math.hypot(off_x, off_y)
        dot = (math.cos(pose.yaw) * off_x + math.sin(pose.yaw) * off_y) / norm
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
    arc_positions = {
        (p.position.x, p.position.y, p.position.z) for p in final.poses}
    for i in outside:
        p = arc.poses[i].position
        assert (p.x, p.y, p.z) in arc_positions


def test_plan_shot_propagates_endpoint_blocked(quad):
    world = make_world((Cylinder(Vec3(8.0, 0.0, 0.0), 1.0, 5.0),))
    with pytest.raises(EndpointBlocked):
        plan_shot(CollisionModel(world, quad), demo_shot(), RrtParams(seed=0))


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
    assert report.collision_step == pytest.approx(quad.body_radius / 2)
    assert report.total_loops == sum(r.loops for r in report.discontinuities)
    assert report.total_nodes == sum(len(t) for t in result.trees)
    for r in report.discontinuities:
        assert r.duration_s >= 0.0


def test_plan_shot_is_deterministic(quad):
    model = CollisionModel(demo_world(), quad)
    params = RrtParams(extend_dist=0.2, seed=5)
    a = plan_shot(model, demo_shot(), params)
    b = plan_shot(model, demo_shot(), params)
    assert a.final_path.poses == b.final_path.poses
    assert [lp.cost for lp in a.local_paths] == [lp.cost for lp in b.local_paths]
    assert a.report.total_nodes == b.report.total_nodes
