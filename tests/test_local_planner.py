import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcshot.discontinuity import Discontinuity, find_discontinuities
from arcshot.errors import DegenerateExtend, LocalPlanFailed
from arcshot.local_planner import (LocalPath, RrtParams, SearchWindow, Tree,
                                   _best_parent, expand_window, extend,
                                   initial_window, nearest_vertex, plan_local_run,
                                   rrt_star_run, sample)
from arcshot.shot import Pose4, generate_arc
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, edge_points
from conftest import demo_shot, demo_world, make_world, wall_shot, wall_world

BIG_BOUNDS = AxisBox(Vec3(-100, -100, -100), Vec3(100, 100, 100))
_coord = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord, _coord)


def disc_between(a: Vec3, b: Vec3) -> Discontinuity:
    return Discontinuity(0, 2, Pose4(a, 0.0), Pose4(b, 0.0), (1,))


# windows --------------------------------------------------------------------

def test_initial_window_pads_the_entry_exit_box():
    d = disc_between(Vec3(0, 0, 2), Vec3(4, 0, 2))
    w = initial_window(d, 1.0, BIG_BOUNDS)
    assert w.box.min == Vec3(-1, -1, 1)
    assert w.box.max == Vec3(5, 1, 3)
    assert w.level == 0


def test_initial_window_degenerate_point_box():
    p = Vec3(2, 2, 2)
    d = disc_between(p, p)
    w = initial_window(d, 0.0, BIG_BOUNDS)
    assert w.box.min == w.box.max == p
    rng = np.random.default_rng(0)
    assert Vec3.from_array(sample(w, rng, 1)[0]) == p


def test_initial_window_clamped_to_world_bounds():
    bounds = AxisBox(Vec3(0, 0, 0), Vec3(10, 10, 5))
    d = disc_between(Vec3(0.5, 0.5, 4.5), Vec3(2, 2, 4.5))
    w = initial_window(d, 2.0, bounds)
    assert w.box.min == Vec3(0, 0, 2.5)
    assert w.box.max == Vec3(4, 4, 5)


def test_expand_window_scales_about_center():
    box = AxisBox(Vec3(-2, -1, -1), Vec3(2, 1, 1))
    w = expand_window(SearchWindow(box), 1.5, BIG_BOUNDS)
    assert w.box.min == Vec3(-3, -1.5, -1.5)
    assert w.box.max == Vec3(3, 1.5, 1.5)
    assert w.level == 1


def test_expand_window_is_a_clamp_fixpoint_at_full_bounds():
    bounds = AxisBox(Vec3(-1, -1, -1), Vec3(1, 1, 1))
    w = SearchWindow(bounds, level=3)
    grown = expand_window(w, 2.0, bounds)
    assert grown.box == bounds
    assert grown.level == 4


def test_expanding_twice_composes_growth_factors():
    box = AxisBox(Vec3(-1, -1, -1), Vec3(1, 1, 1))
    twice = expand_window(expand_window(SearchWindow(box), 1.5, BIG_BOUNDS),
                          1.5, BIG_BOUNDS)
    once_squared = expand_window(SearchWindow(box), 2.25, BIG_BOUNDS)
    assert twice.box.min.x == pytest.approx(once_squared.box.min.x)
    assert twice.box.max.y == pytest.approx(once_squared.box.max.y)


def test_expand_window_requires_growth_above_one():
    with pytest.raises(ValueError):
        expand_window(SearchWindow(BIG_BOUNDS), 1.0, BIG_BOUNDS)


# sampling -------------------------------------------------------------------

def test_sample_is_uniform_in_the_unit_box():
    w = SearchWindow(AxisBox(Vec3(0, 0, 0), Vec3(1, 1, 1)))
    rng = np.random.default_rng(123)
    pts = sample(w, rng, 10_000)
    for axis in range(3):
        assert abs(pts[:, axis].mean() - 0.5) < 0.02
    assert pts.min() >= 0.0 and pts.max() <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 50), _point, _point)
def test_one_sample_draw_equals_single_draws(seed, count, a, b):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    w = SearchWindow(AxisBox(Vec3.from_array(lo), Vec3.from_array(hi)))
    batch = sample(w, np.random.default_rng(seed), count)
    rng = np.random.default_rng(seed)
    singles = np.array([rng.uniform(lo, hi) for _ in range(count)]).reshape(count, 3)
    assert batch.tobytes() == singles.tobytes()


def test_sample_sequences_repeat_with_the_seed():
    w = SearchWindow(AxisBox(Vec3(-2, 0, 1), Vec3(3, 4, 2)))
    first = [sample(w, np.random.default_rng(5), 1).tolist() for _ in range(10)]
    second = [sample(w, np.random.default_rng(5), 1).tolist() for _ in range(10)]
    assert first == second


# nearest_vertex -------------------------------------------------------------

def test_nearest_on_single_node_tree():
    tree = Tree(Vec3(1, 2, 3))
    assert nearest_vertex(tree, np.array([50.0, 50.0, 50.0])) == 0


def test_nearest_prefers_earlier_insertion_on_ties():
    tree = Tree(Vec3(0, 0, 0))
    tree.add(np.array([10.0, 0.0, 0.0]), 0)
    assert nearest_vertex(tree, np.array([5.0, 0.0, 0.0])) == 0


def test_nearest_matches_linear_scan_oracle():
    rng = np.random.default_rng(21)
    tree = Tree(Vec3(0, 0, 0))
    for _ in range(199):
        parent = int(rng.integers(0, len(tree)))
        tree.add(rng.uniform(-10, 10, 3), parent)
    for _ in range(50):
        q = rng.uniform(-12, 12, 3)
        want = min(range(len(tree)),
                   key=lambda i: Vec3.from_array(tree.positions[i]).distance_to(
                       Vec3.from_array(q)))
        assert nearest_vertex(tree, q) == want


# extend ---------------------------------------------------------------------

def row(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def test_extend_steps_toward_distant_points():
    assert extend(row(0, 0, 0), row(10, 0, 0), 1.0).tolist() == [1, 0, 0]


def test_extend_returns_nearby_points_directly():
    assert extend(row(0, 0, 0), row(0.5, 0, 0), 1.0).tolist() == [0.5, 0, 0]


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
       st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
       st.floats(0.05, 5))
def test_extend_travels_min_of_step_and_distance(ax, ay, az, bx, by, bz, step):
    a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
    if a.distance_to(b) == 0.0:
        return
    moved = Vec3.from_array(extend(a.as_array(), b.as_array(), step)).distance_to(a)
    assert moved == pytest.approx(min(step, a.distance_to(b)), rel=1e-9)


def test_extend_rejects_degenerate_input():
    with pytest.raises(DegenerateExtend):
        extend(row(1, 1, 1), row(1, 1, 1), 0.5)


# _best_parent ---------------------------------------------------------------

def test_best_parent_single_node_tree(quad):
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(1, 0, 2), 2.0, model, quad.body_radius) == 0


def test_best_parent_breaks_cost_ties_by_insertion_order(quad):
    # root: 0 + 1.5 vs child: 1 + 0.5 -> tie at 1.5, root wins
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    child = tree.add(row(1, 0, 2), 0)
    assert tree.costs[child] == pytest.approx(1.0)
    x_new = row(1.5, 0, 2)
    root_total = tree.costs[0] + Vec3(0, 0, 2).distance_to(Vec3.from_array(x_new))
    child_total = tree.costs[child] + Vec3(1, 0, 2).distance_to(Vec3.from_array(x_new))
    assert root_total == pytest.approx(child_total)
    model = CollisionModel(world, quad)
    assert _best_parent(tree, x_new, 2.0, model, quad.body_radius) == 0


def test_best_parent_skips_blocked_edges(quad):
    world = make_world((AxisBox(Vec3(0.9, -5, 0), Vec3(1.1, 5, 8)),))
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(2.2, 0, 2), 3.0, model, quad.body_radius) is None


def test_best_parent_ignores_nodes_outside_radius(quad):
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(5, 0, 2), 1.0, model, quad.body_radius) is None


def sequential_best_parent(tree, x_new, radius, model, step):
    """Reference for `_best_parent`: walk the in-radius candidates in stable
    cost order and return the first whose edge is free, one segment at a time."""
    dists = np.linalg.norm(tree.positions - x_new, axis=1)
    candidates = np.flatnonzero(dists <= radius)
    totals = tree.costs[candidates] + dists[candidates]
    for idx in candidates[np.argsort(totals, kind="stable")]:
        if model.segment_free(Vec3.from_array(tree.positions[idx]),
                              Vec3.from_array(x_new), step):
            return int(idx)
    return None


def segment_points(a: Vec3, b: Vec3, step: float) -> np.ndarray:
    """Reference for `edge_points`: inclusive samples along a->b spaced at most
    `step` apart, in numpy's linspace form."""
    n = max(1, math.ceil(a.distance_to(b) / step))
    ts = np.linspace(0.0, 1.0, n + 1)
    return a.as_array()[None, :] + ts[:, None] * (b.as_array() - a.as_array())


@st.composite
def _axis_multiple_edge(draw):
    """An edge along one axis whose length is a whole number of steps."""
    step = draw(st.sampled_from([0.1, 0.15, 0.25, 0.3, 0.375, 1.0]))
    k = draw(st.integers(0, 40))
    axis = draw(st.integers(0, 2))
    origin = [draw(_coord), draw(_coord), draw(_coord)]
    origin[axis] = 0.0
    end = list(origin)
    end[axis] = k * step * draw(st.sampled_from([1.0, -1.0]))
    return [tuple(origin)], tuple(end), step


_step = st.floats(1e-3, 5.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(_point, min_size=1, max_size=8), _point, _step),
    _axis_multiple_edge(),
    # one end per edge
    st.tuples(st.lists(st.tuples(_point, _point), min_size=1, max_size=8), _step).map(
        lambda c: ([o for o, _ in c[0]], [e for _, e in c[0]], c[1]))))
def test_edge_points_match_segment_points_bit_for_bit(case):
    origins, end, step = case
    end = np.array(end, dtype=float)
    pts, first = edge_points(np.array(origins, dtype=float), end, step)
    bounds = list(first[1:]) + [len(pts)]
    ends = np.broadcast_to(end, (len(origins), 3))
    for origin, e, lo, hi in zip(origins, ends, first, bounds):
        expected = segment_points(Vec3(*origin), Vec3.from_array(e), step)
        assert pts[lo:hi].tobytes() == expected.tobytes()


def _grow_tree(positions: np.ndarray, rng: np.random.Generator) -> Tree:
    """Tree over `positions` in order, each node under a random earlier one."""
    tree = Tree(Vec3.from_array(positions[0]))
    for p in positions[1:]:
        tree.add(p, int(rng.integers(0, len(tree))))
    return tree


def _random_case(seed: int, grid: bool):
    """A world, a tree and a query point; on a grid, cost ties and edges of a
    whole number of steps are common."""
    rng = np.random.default_rng(seed)

    def coords(n):
        pts = rng.uniform((-5, -5, 0), (5, 5, 5), size=(n, 3))
        return np.round(pts * 4) / 4 if grid else pts

    obstacles = []
    for (x, y, z), r, h in zip(coords(rng.integers(0, 10)), rng.uniform(0.1, 1.5, 10),
                               rng.uniform(0.5, 5.0, 10)):
        if rng.random() < 0.5:
            obstacles.append(Cylinder(Vec3(x, y, z), r, h))
        else:
            obstacles.append(AxisBox(Vec3(x, y, z), Vec3(x + r, y + h / 2, z + h)))
    world = make_world(tuple(obstacles), lo=(-6, -6, 0), hi=(6, 6, 6))
    tree = _grow_tree(coords(int(rng.integers(1, 60)) + 1), rng)
    x_new = coords(1)[0]
    radius = float(rng.choice([2.0, 4.0, 6.0]) if grid else rng.uniform(1.5, 6.0))
    step = float(rng.choice([0.125, 0.25, 0.5]) if grid else rng.uniform(0.05, 0.6))
    return world, tree, x_new, radius, step


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_best_parent_matches_sequential_oracle(seed, grid):
    quad = QuadModel(body_radius=0.2, safety_margin=0.1)
    world, tree, x_new, radius, step = _random_case(seed, grid)
    model = CollisionModel(world, quad)
    expected = sequential_best_parent(tree, x_new, radius, model, step)
    assert _best_parent(tree, x_new, radius, model, step) == expected
    # culled to a box holding the tree and x_new, as in an RRT* attempt
    pts = np.vstack([tree.positions, x_new])
    box = AxisBox(Vec3.from_array(pts.min(axis=0)), Vec3.from_array(pts.max(axis=0)))
    assert _best_parent(tree, x_new, radius, model.within(box), step) == expected


BP_QUAD = QuadModel(body_radius=0.2, safety_margin=0.1)


def _assert_matches_oracle(world, tree, x_new, radius, step):
    model = CollisionModel(world, BP_QUAD)
    expected = sequential_best_parent(tree, x_new, radius, model, step)
    assert _best_parent(tree, x_new, radius, model, step) == expected
    return expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_best_parent_falls_back_when_the_cheapest_edge_is_blocked(seed):
    # the root costs nothing, so root -> x_new is the cheapest edge; a box
    # centred on its midpoint blocks it
    rng = np.random.default_rng(seed)
    root = rng.uniform(-4, 4, 3)
    u = rng.normal(size=3)
    x_new = root + rng.uniform(1.5, 3.0) * u / np.linalg.norm(u)
    mid, half = (root + x_new) / 2, rng.uniform(0.05, 0.3, 3)
    world = make_world((AxisBox(Vec3.from_array(mid - half), Vec3.from_array(mid + half)),),
                       lo=(-10, -10, -10), hi=(10, 10, 10))
    model = CollisionModel(world, BP_QUAD)
    assume(model.free_points(np.vstack([root, x_new])).all())
    others = x_new + rng.uniform(-3, 3, size=(int(rng.integers(1, 30)), 3))
    tree = _grow_tree(np.vstack([root, others]), rng)
    step = float(rng.uniform(0.05, 0.4))
    dists = np.linalg.norm(tree.positions - x_new, axis=1)
    near = np.flatnonzero(dists <= 4.0)
    cheapest = near[np.argsort(tree.costs[near] + dists[near], kind="stable")[0]]
    assume(not model.segment_free(Vec3.from_array(tree.positions[cheapest]),
                                  Vec3.from_array(x_new), step))
    _assert_matches_oracle(world, tree, x_new, 4.0, step)


def _random_obstacle(rng):
    lo = rng.uniform(-3, 3, 3)
    if rng.random() < 0.5:
        return Cylinder(Vec3.from_array(lo), float(rng.uniform(0.1, 1.0)),
                        float(rng.uniform(0.5, 3.0)))
    return AxisBox(Vec3.from_array(lo), Vec3.from_array(lo + rng.uniform(0.1, 2.0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_best_parent_rejects_a_new_node_inside_an_obstacle(seed):
    rng = np.random.default_rng(seed)
    world = make_world(tuple(_random_obstacle(rng) for _ in range(int(rng.integers(1, 4)))),
                       lo=(-10, -10, -10), hi=(10, 10, 10))
    inflated = CollisionModel(world, BP_QUAD).inflated[0]
    if isinstance(inflated, Cylinder):
        c = inflated.base_center
        r, a = inflated.radius * rng.uniform(0, 0.95), rng.uniform(0, 2 * np.pi)
        x_new = np.array([c.x + r * np.cos(a), c.y + r * np.sin(a),
                          c.z + inflated.height * rng.uniform(0.05, 0.95)])
    else:
        lo, hi = inflated.min.as_array(), inflated.max.as_array()
        x_new = lo + (hi - lo) * rng.uniform(0.05, 0.95, 3)
    tree = _grow_tree(x_new + rng.uniform(-3, 3, size=(int(rng.integers(1, 30)), 3)), rng)
    assert _assert_matches_oracle(world, tree, x_new, 4.0,
                                  float(rng.uniform(0.05, 0.4))) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_best_parent_on_an_obstacle_face_tests_the_last_edge_sample(seed):
    # x_new lies exactly on a face of an inflated box and every node on its
    # free side: an edge is free iff its last sample, origin + (x_new - origin),
    # rounds off the face, which x_new itself never does
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-6, 6, 3)
    raw = AxisBox(Vec3.from_array(lo), Vec3.from_array(lo + rng.uniform(1, 4, 3)))
    world = make_world((raw,), lo=(-20, -20, -20), hi=(20, 20, 20))
    box = CollisionModel(world, BP_QUAD).inflated[0]
    bmin, bmax = box.min.as_array(), box.max.as_array()
    axis, outward = int(rng.integers(0, 3)), float(rng.choice([-1.0, 1.0]))
    x_new = bmin + (bmax - bmin) * rng.uniform(0.2, 0.8, 3)
    x_new[axis] = bmax[axis] if outward > 0 else bmin[axis]
    nodes = x_new + rng.uniform(-2, 2, size=(int(rng.integers(1, 30)), 3))
    nodes[:, axis] = x_new[axis] + outward * rng.uniform(0.05, 2.5, len(nodes))
    tree = _grow_tree(nodes, rng)
    _assert_matches_oracle(world, tree, x_new, 4.0, float(rng.uniform(0.05, 0.4)))


# rrt_star_run ---------------------------------------------------------------

def empty_world_disc(distance=6.0):
    world = make_world(lo=(-20, -20, 0), hi=(20, 20, 10))
    half = distance / 2
    d = disc_between(Vec3(-half, 0, 2), Vec3(half, 0, 2))
    return world, d


def test_rrt_star_finds_near_straight_paths_in_the_open(quad):
    world, d = empty_world_disc()
    model = CollisionModel(world, quad)
    for seed in range(5):
        lp = rrt_star_run(d, model, RrtParams(extend_dist=1.0, seed=seed), 0,
                          step=quad.body_radius).path
        assert lp is not None
        assert lp.positions[0] == d.entry_pose.position
        assert lp.positions[-1] == d.exit_pose.position
        assert lp.cost <= 6.9


def test_rrt_star_returns_none_for_an_enclosed_exit(quad):
    exit_p = Vec3(5, 0, 2)
    shell = (
        AxisBox(Vec3(3.4, -1.6, 0.4), Vec3(3.6, 1.6, 3.6)),
        AxisBox(Vec3(6.4, -1.6, 0.4), Vec3(6.6, 1.6, 3.6)),
        AxisBox(Vec3(3.4, -1.6, 0.4), Vec3(6.6, -1.4, 3.6)),
        AxisBox(Vec3(3.4, 1.4, 0.4), Vec3(6.6, 1.6, 3.6)),
        AxisBox(Vec3(3.4, -1.6, 0.4), Vec3(6.6, 1.6, 0.6)),
        AxisBox(Vec3(3.4, -1.6, 3.4), Vec3(6.6, 1.6, 3.6)),
    )
    model = CollisionModel(make_world(shell), quad)
    assert model.point_free(exit_p)
    d = disc_between(Vec3(0, 0, 2), exit_p)
    params = RrtParams(seed=3, max_loops=300)
    assert rrt_star_run(d, model, params, 0, step=quad.body_radius).path is None


def test_rrt_star_detour_survives_dense_revalidation(quad):
    # cylinder sits off-axis so a detour fits inside the level-0 window
    world = make_world((Cylinder(Vec3(0, 0.9, 0), 0.5, 5.0),),
                       target=(0.0, 5.0, 1.5))
    d = disc_between(Vec3(-3, 0, 2), Vec3(3, 0, 2))
    step = quad.body_radius / 2
    model = CollisionModel(world, quad)
    for seed in range(5):
        lp = rrt_star_run(d, model, RrtParams(seed=seed), 0, step=step).path
        assert lp is not None
        for a, b in zip(lp.positions, lp.positions[1:]):
            assert model.segment_free(a, b, step / 2)


def test_rrt_star_tree_invariants(quad):
    model = CollisionModel(demo_world(), quad)
    arc = generate_arc(demo_shot())
    d = find_discontinuities(arc, model)[0]
    params = RrtParams(seed=8)
    run = rrt_star_run(d, model, params, 0, step=quad.body_radius)
    tree = run.tree

    # cost consistency: stored costs equal recomputed root sums
    recomputed = [0.0] * len(tree)
    for i in range(1, len(tree)):
        parent = tree.parents[i]
        assert parent is not None and parent < i
        edge = Vec3.from_array(tree.positions[i]).distance_to(
            Vec3.from_array(tree.positions[parent]))
        recomputed[i] = recomputed[parent] + edge
        assert tree.costs[i] == pytest.approx(recomputed[i], rel=1e-9)

    # edge validity at the configured collision step
    for i in range(1, len(tree)):
        assert model.segment_free(
            Vec3.from_array(tree.positions[tree.parents[i]]),
            Vec3.from_array(tree.positions[i]), quad.body_radius / 2)

    # window containment
    for i in range(len(tree)):
        assert run.window.box.contains(Vec3.from_array(tree.positions[i]))


def test_rrt_star_best_cost_trace_is_monotone(quad):
    world, d = empty_world_disc()
    run = rrt_star_run(d, CollisionModel(world, quad), RrtParams(seed=4), 0,
                       step=quad.body_radius)
    trace = run.best_costs
    assert len(trace) == 500
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier


def test_rrt_star_is_deterministic(quad):
    model = CollisionModel(demo_world(), quad)
    arc = generate_arc(demo_shot())
    d = find_discontinuities(arc, model)[0]
    params = RrtParams(seed=17)
    a = rrt_star_run(d, model, params, 0, step=quad.body_radius)
    b = rrt_star_run(d, model, params, 0, step=quad.body_radius)
    assert len(a.tree) == len(b.tree)
    assert a.path is not None and b.path is not None
    assert a.path.positions == b.path.positions
    assert a.path.cost == b.path.cost
    # a different discontinuity index derives a different stream
    c = rrt_star_run(d, model, params, 0, step=quad.body_radius, disc_index=1)
    assert c.path is None or c.path.positions != a.path.positions


# plan_local_run -------------------------------------------------------------

def test_plan_local_succeeds_at_level_zero_when_easy(quad):
    world, d = empty_world_disc()
    out = plan_local_run(d, CollisionModel(world, quad), RrtParams(seed=2),
                         step=quad.body_radius)
    assert out.window.level == 0
    assert out.loops == 500
    assert out.path.cost < 9.0


WALL_PARAMS = RrtParams(extend_dist=1.0, goal_radius=1.0, max_loops=800, seed=1)


def wall_disc(quad):
    model = CollisionModel(wall_world(), quad)
    arc = generate_arc(wall_shot())
    return model, find_discontinuities(arc, model)[0]


def test_plan_local_expands_past_a_wide_wall(quad):
    model, d = wall_disc(quad)
    # level 0 alone cannot cross: the wall covers the whole initial window
    assert rrt_star_run(d, model, WALL_PARAMS, 0, step=quad.body_radius).path is None
    out = plan_local_run(d, model, WALL_PARAMS, step=quad.body_radius)
    assert out.window.level >= 1
    assert out.loops == (out.window.level + 1) * WALL_PARAMS.max_loops


def test_plan_local_fail_limit_one_gives_up_immediately(quad):
    model, d = wall_disc(quad)
    import dataclasses
    params = dataclasses.replace(WALL_PARAMS, fail_limit=1)
    with pytest.raises(LocalPlanFailed) as err:
        plan_local_run(d, model, params, step=quad.body_radius, disc_index=0)
    assert err.value.discontinuity_index == 0
    assert err.value.levels_tried == 1


# params / tree validation ---------------------------------------------------

def test_rrt_params_validation():
    with pytest.raises(ValueError):
        RrtParams(extend_dist=0.0)
    with pytest.raises(ValueError):
        RrtParams(neighbor_factor=1.0)
    with pytest.raises(ValueError):
        RrtParams(window_growth=1.0)
    with pytest.raises(ValueError):
        RrtParams(seed=-1)
    assert RrtParams().neighbor_radius == pytest.approx(1.5)


def test_tree_rejects_unknown_parents():
    tree = Tree(Vec3(0, 0, 0))
    with pytest.raises(ValueError):
        tree.add(row(1, 0, 0), 5)


def test_tree_node_accessor_and_root_path():
    tree = Tree(Vec3(0, 0, 0))
    a = tree.add(row(1, 0, 0), 0)
    b = tree.add(row(1, 1, 0), a)
    assert tree.parents[b] == a
    assert Vec3.from_array(tree.positions[b]) == Vec3(1, 1, 0)
    assert tree.costs[b] == pytest.approx(2.0)
    assert tree.path_from_root(b) == [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)]


def test_local_path_needs_two_positions():
    with pytest.raises(ValueError):
        LocalPath((Vec3(0, 0, 0),), 0.0)
