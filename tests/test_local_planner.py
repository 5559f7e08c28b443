import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from arcshot import local_planner
from arcshot.discontinuity import Discontinuity, find_discontinuities
from arcshot.errors import DegenerateExtend, LocalPlanFailed
from arcshot.local_planner import (LocalPath, RrtParams, SearchWindow, Tree,
                                   _best_parent, _distances, expand_window, extend,
                                   initial_window, level_window, nearest_vertex,
                                   plan_local_run, rrt_star_run, sample, walled_off)
from arcshot.shot import Pose4, generate_arc
from arcshot.world import (AXIS_X, AXIS_Y, BOTTOM, CULL_PAD, MAX, MIN, RADIUS, TOP, AxisBox,
                           CollisionModel, Cylinder, QuadModel, Vec3, World, obstacle_rows)
from conftest import (demo_shot, demo_world, make_world, point_free, spaced_quad, wall_shot,
                      wall_world)
import rrt_reference
import window_reference
from world_reference import inflate, pad_margin, segment_samples

BIG_BOUNDS = AxisBox(Vec3(-100, -100, -100), Vec3(100, 100, 100))
_coord = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
_point = st.tuples(_coord, _coord, _coord)


def disc_between(a: Vec3, b: Vec3) -> Discontinuity:
    return Discontinuity(0, 2, Pose4(a, 0.0), Pose4(b, 0.0))


def window(lo, hi, level: int = 0) -> SearchWindow:
    return SearchWindow(np.array(lo, dtype=float), np.array(hi, dtype=float), level)


# windows --------------------------------------------------------------------

def test_initial_window_pads_the_entry_exit_box():
    d = disc_between(Vec3(0, 0, 2), Vec3(4, 0, 2))
    w = initial_window(d, 1.0, BIG_BOUNDS)
    assert w.lo.tolist() == [-1, -1, 1]
    assert w.hi.tolist() == [5, 1, 3]
    assert w.level == 0


def test_initial_window_degenerate_point_box():
    p = Vec3(2, 2, 2)
    d = disc_between(p, p)
    w = initial_window(d, 0.0, BIG_BOUNDS)
    assert w.lo.tolist() == w.hi.tolist() == [2, 2, 2]
    rng = np.random.default_rng(0)
    assert Vec3.from_array(sample(w, rng, 1)[0]) == p


def test_initial_window_clamped_to_world_bounds():
    bounds = AxisBox(Vec3(0, 0, 0), Vec3(10, 10, 5))
    d = disc_between(Vec3(0.5, 0.5, 4.5), Vec3(2, 2, 4.5))
    w = initial_window(d, 2.0, bounds)
    assert w.lo.tolist() == [0, 0, 2.5]
    assert w.hi.tolist() == [4, 4, 5]


def test_expand_window_scales_about_center():
    w = expand_window(window((-2, -1, -1), (2, 1, 1)), 1.5, BIG_BOUNDS)
    assert w.lo.tolist() == [-3, -1.5, -1.5]
    assert w.hi.tolist() == [3, 1.5, 1.5]
    assert w.level == 1


def test_expand_window_is_a_clamp_fixpoint_at_full_bounds():
    bounds = AxisBox(Vec3(-1, -1, -1), Vec3(1, 1, 1))
    grown = expand_window(window((-1, -1, -1), (1, 1, 1), level=3), 2.0, bounds)
    assert grown.lo.tolist() == [-1, -1, -1]
    assert grown.hi.tolist() == [1, 1, 1]
    assert grown.level == 4


def test_expanding_twice_composes_growth_factors():
    box = window((-1, -1, -1), (1, 1, 1))
    twice = expand_window(expand_window(box, 1.5, BIG_BOUNDS), 1.5, BIG_BOUNDS)
    once_squared = expand_window(box, 2.25, BIG_BOUNDS)
    assert twice.lo[0] == pytest.approx(once_squared.lo[0])
    assert twice.hi[1] == pytest.approx(once_squared.hi[1])


def test_expand_window_requires_growth_above_one():
    with pytest.raises(ValueError):
        expand_window(window((-1, -1, -1), (1, 1, 1)), 1.0, BIG_BOUNDS)


def _corners(box: AxisBox) -> tuple[bytes, bytes]:
    return (np.array([box.min.x, box.min.y, box.min.z]).tobytes(),
            np.array([box.max.x, box.max.y, box.max.z]).tobytes())


def _window_case(seed: int):
    """(discontinuity, pad, growth, level, bounds) drawn from `seed`. Bounds
    faces and coordinates are often 0.0 or -0.0, boxes often degenerate in
    some axis, pads often zero of either sign and growths often the least
    above 1; entry and exit lie in the bounds, often on a face."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    lo = [pick([0.0, -0.0, float(rng.uniform(-50.0, 10.0))]) for _ in range(3)]
    hi = [v + pick([0.0, float(rng.uniform(0.0, 60.0))]) for v in lo]

    def inside(v, w):
        return pick([v, w, float(rng.uniform(v, w))] + ([0.0, -0.0] if v <= 0.0 <= w else []))

    ends = [Vec3(*(inside(v, w) for v, w in zip(lo, hi))) for _ in range(2)]
    if rng.random() < 0.2:
        ends[1] = ends[0]
    pad = pick([0.0, -0.0, float(rng.uniform(0.0, 1e-3)), float(rng.uniform(0.0, 30.0))])
    least = float(np.nextafter(1.0, 2.0))
    growth = pick([least, least + float(rng.uniform(0.0, 3.0))])
    bounds = AxisBox(Vec3(*lo), Vec3(*hi))
    return disc_between(*ends), pad, growth, int(rng.integers(4)), bounds


def _window_matches_reference(seed: int) -> tuple[bool, bool, bool, bool]:
    """Every level of `_window_case(seed)` up to its own against the
    `AxisBox` reference, bit for bit. Returns whether some window was
    clamped to a bounds face, was degenerate in some axis, held a -0.0, and
    differed from np.minimum/np.maximum on a 0.0/-0.0 tie."""
    d, pad, growth, level, bounds = _window_case(seed)
    first = w = initial_window(d, pad, bounds)
    box = window_reference.initial_window(d, pad, bounds)
    b_lo, b_hi = bounds.min.as_array(), bounds.max.as_array()
    clamped = degenerate = negative_zero = False
    for k in range(level + 1):
        if k:
            w = expand_window(w, growth, bounds)
            box = window_reference.expand_window(box, growth, bounds)
        assert (w.lo.tobytes(), w.hi.tobytes()) == _corners(box)
        assert w.level == k
        corners = np.concatenate((w.lo, w.hi))
        clamped |= bool((w.lo == b_lo).any() or (w.hi == b_hi).any())
        degenerate |= bool((w.lo == w.hi).any())
        negative_zero |= bool(np.signbit(corners[corners == 0.0]).any())
    a, b = d.entry_pose.position.as_array(), d.exit_pose.position.as_array()
    naive = (np.maximum(np.minimum(a, b) - pad, b_lo).tobytes(),
             np.minimum(np.maximum(a, b) + pad, b_hi).tobytes())
    return clamped, degenerate, negative_zero, naive != (first.lo.tobytes(), first.hi.tobytes())


def test_windows_equal_the_axis_box_reference():
    # a fixed seed sweep carries the floors, as in the best-parent tests
    counts = np.sum([_window_matches_reference(seed) for seed in range(500)], axis=0)
    clamped, degenerate, negative_zero, tie = counts.tolist()
    assert clamped >= 250 and degenerate >= 200 and negative_zero >= 150 and tie >= 80

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _window_matches_reference(seed)

    check()


def test_a_window_that_overflows_is_refused():
    # the reference's Vec3 refuses an infinite corner; so do the rows
    huge = AxisBox(Vec3(-1e308, -1e308, -1e308), Vec3(1e308, 1e308, 1e308))
    d = disc_between(Vec3(-1e308, 0, 0), Vec3(1e308, 0, 0))
    with np.errstate(over="ignore"):
        for build in (initial_window, window_reference.initial_window):
            with pytest.raises(ValueError):
                build(d, 1e308, huge)
        with pytest.raises(ValueError):
            expand_window(initial_window(d, 0.0, huge), 1.5, huge)
        with pytest.raises(ValueError):
            window_reference.expand_window(huge, 1.5, huge)


# sampling -------------------------------------------------------------------

def test_sample_is_uniform_in_the_unit_box():
    w = window((0, 0, 0), (1, 1, 1))
    rng = np.random.default_rng(123)
    pts = sample(w, rng, 10_000)
    for axis in range(3):
        assert abs(pts[:, axis].mean() - 0.5) < 0.02
    assert pts.min() >= 0.0 and pts.max() <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 50), _point, _point)
def test_one_sample_draw_equals_single_draws(seed, count, a, b):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    w = SearchWindow(lo, hi)
    batch = sample(w, np.random.default_rng(seed), count)
    rng = np.random.default_rng(seed)
    singles = np.array([rng.uniform(lo, hi) for _ in range(count)]).reshape(count, 3)
    assert batch.tobytes() == singles.tobytes()


def test_sample_sequences_repeat_with_the_seed():
    w = window((-2, 0, 1), (3, 4, 2))
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


# coordinates: ordinary, with a full 53-bit mantissa (so sums of squares
# round), subnormal, and large but with finite squared distances
_wide = st.one_of(st.floats(-10.0, 10.0),
                  st.integers(0, 2 ** 32 - 1).map(
                      lambda seed: np.random.default_rng(seed).uniform(-10.0, 10.0)),
                  st.floats(-1e-300, 1e-300), st.floats(-1e150, 1e150))


@st.composite
def _near_tie_tree(draw):
    """Query point and tree rows where distance ties are common: every row
    after the first either is new or remakes an earlier row j, most often the
    nearest so far, as a copy (an exact tie), a 1-ulp step, a mirror image
    about the query (a tie up to rounding), or a permutation of j's offset
    from the query (the same three squares summed in another order)."""
    p = draw(hnp.arrays(np.float64, 3, elements=_wide))
    rows = [draw(hnp.arrays(np.float64, 3, elements=_wide))]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 3)):
            j = min(rows, key=lambda r: float(((r - p) ** 2).sum()))
        else:
            j = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(("new", "copy", "ulp", "mirror", "permute")))
        if kind == "new":
            rows.append(draw(hnp.arrays(np.float64, 3, elements=_wide)))
        elif kind == "copy":
            rows.append(j.copy())
        elif kind == "ulp":
            toward = draw(st.sampled_from((-np.inf, np.inf)))
            rows.append(np.nextafter(j, toward))
        elif kind == "mirror":
            rows.append(p - (j - p))
        else:
            swap = draw(st.sampled_from(((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1))))
            rows.append(p + (j - p)[list(swap)])
    return p, np.array(rows)


def _einsum_nearest(tree: Tree, p: np.ndarray) -> int:
    """Reference nearest scan: einsum over C-ordered (n, 3) rows. Its summing
    order follows the memory layout, so the rows are made C-ordered here."""
    d = np.ascontiguousarray(tree.positions - p)
    return int(np.einsum("ij,ij->i", d, d).argmin())


@settings(max_examples=400, deadline=None)
@given(_near_tie_tree())
def test_nearest_breaks_near_ties_as_einsum_does(case):
    # the per-axis scan picks the node the (n, 3) einsum scan picks, or a
    # 1-ulp near-tie would grow a different tree
    p, rows = case
    tree = _grow_tree(rows, np.random.default_rng(0))
    assert nearest_vertex(tree, p) == _einsum_nearest(tree, p)


def test_nearest_sums_squares_in_einsum_order():
    # two nodes whose offsets hold the same three squares in another order:
    # summed x, z, y node 0 is nearer, summed x, y, z node 1 would be
    rows = np.array([[0.6, 0.3, 0.7], [0.6, 0.7, 0.3]])
    q = rows * rows
    assert (q[0, 0] + q[0, 2]) + q[0, 1] < (q[0, 0] + q[0, 1]) + q[0, 2]
    tree = _grow_tree(rows, np.random.default_rng(0))
    assert nearest_vertex(tree, np.zeros(3)) == _einsum_nearest(tree, np.zeros(3)) == 0


def _split_nearest_agrees(rows: np.ndarray, p: np.ndarray) -> collections.Counter:
    """At every block boundary `count` of the tree over `rows`: a block scan
    of `p` over the first `count` nodes, then `nearest_vertex` with that
    answer once the rest are added, must pick the oracle's full-scan node.
    Counts the boundaries where the best node before it and the best node
    after it tie exactly or differ by 1 ulp in squared distance."""
    seen = collections.Counter()
    for count in range(1, len(rows)):
        tree = _grow_tree(rows[:count], np.random.default_rng(count))
        dist2 = local_planner._square_distances(tree, p[None])[0]
        near = int(dist2.argmin())
        for r in rows[count:]:
            tree.add(r, 0)
        got = nearest_vertex(tree, p.tolist(), (near, float(dist2[near]), count))
        assert got == rrt_reference.nearest_vertex(tree, p) == nearest_vertex(tree, p)
        old, new = dist2[near], local_planner._square_distances(tree, p[None])[0, count:].min()
        seen["exact_tie"] += bool(old == new)
        seen["ulp_tie"] += bool(new in (np.nextafter(old, -np.inf), np.nextafter(old, np.inf)))
    return seen


def _tie_case(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`_near_tie_tree`'s rows drawn with numpy: on a 0.25 m grid or not, each
    row after the first new or remade from the nearest so far (or another
    row) as a copy, a 1-ulp step, a mirror image about the query or a
    permutation of its offset from the query."""
    rng = np.random.default_rng(seed)
    grid = rng.random() < 0.5

    def point():
        v = rng.uniform(-3, 3, 3)
        return np.round(v * 4) / 4 if grid else v

    p, rows = point(), [point()]
    for _ in range(int(rng.integers(1, 25))):
        j = (min(rows, key=lambda r: float(((r - p) ** 2).sum())) if rng.random() < 0.75
             else rows[int(rng.integers(len(rows)))])
        kind = rng.integers(5)
        if kind == 0:
            rows.append(point())
        elif kind == 1:
            rows.append(j.copy())
        elif kind == 2:
            rows.append(np.nextafter(j, rng.choice([-np.inf, np.inf])))
        elif kind == 3:
            rows.append(p - (j - p))
        else:
            rows.append(p + (j - p)[rng.permutation(3)])
    return np.array(rows), p


def test_nearest_keeps_the_full_scan_answer_across_a_block_boundary():
    # a fixed seed sweep carries the floors; 1-ulp ties come from permuted
    # and mirrored offsets, whose squares round apart
    seen = sum((_split_nearest_agrees(*_tie_case(seed)) for seed in range(150)),
               collections.Counter())
    assert seen["exact_tie"] >= 400 and seen["ulp_tie"] >= 70

    @settings(max_examples=100, deadline=None)
    @given(_near_tie_tree())
    def check(case):
        p, rows = case
        _split_nearest_agrees(rows, p)

    check()


def _older_candidates_hold_every_in_radius_node(seed: int) -> int:
    """A block of samples round a root, and nodes at the neighbour radius
    behind each sample's new node as seen from the sample (where the
    triangle inequality is tight), some moved by an ulp: every in-radius
    node of a sample's new node must be in its run of `_older_candidates`.
    Returns how many in-radius nodes lay beyond the bound without its pad."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(-5, 5, 3)
    extend_dist = float(rng.uniform(0.1, 2.0))
    radius = extend_dist * float(rng.uniform(1.5, 3.0))
    directions = rng.normal(size=(local_planner.BLOCK, 3))
    block = root + rng.uniform(0.0, 6.0, (local_planner.BLOCK, 1)) * (
        directions / np.linalg.norm(directions, axis=1, keepdims=True))
    tree = Tree(Vec3.from_array(root))
    for x_rand in block:
        away = np.array(extend(root.tolist(), x_rand.tolist(), extend_dist)) - x_rand
        if away.any():
            node = x_rand + away * (1.0 + radius / np.linalg.norm(away))
            for _ in range(3):
                tree.add(np.nextafter(node, rng.choice([-np.inf, np.inf], 3))
                         if rng.random() < 0.5 else node, 0)
    dist2 = local_planner._square_distances(tree, block)
    nearest = dist2.argmin(axis=1)
    near_dist2 = dist2[np.arange(len(block)), nearest]
    older, ends = local_planner._older_candidates(dist2, near_dist2, radius, extend_dist)
    beyond, begin = 0, 0
    for scan, x_rand, near, end in zip(dist2, block.tolist(), nearest.tolist(), ends):
        run, begin = older[begin:end], end
        if x_rand == tree.rows[near]:
            continue
        x_new = extend(tree.rows[near], x_rand, extend_dist)
        in_radius = [i for i, dist in enumerate(_distances(tree, x_new, range(len(tree))))
                     if dist <= radius]
        assert set(in_radius) <= set(run)
        bare = radius + max(math.sqrt(scan[near]) - extend_dist, 0.0)
        beyond += int((scan[in_radius] > bare * bare).sum())
    return beyond


def test_older_candidates_hold_every_in_radius_node():
    # the pad is what keeps the nodes where the bound is tight: a fixed seed
    # sweep shows that it is needed
    assert sum(_older_candidates_hold_every_in_radius_node(seed) for seed in range(300)) >= 40

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _older_candidates_hold_every_in_radius_node(seed)

    check()


# extend ---------------------------------------------------------------------

def row(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def test_extend_steps_toward_distant_points():
    assert extend([0.0, 0.0, 0.0], [10.0, 0.0, 0.0], 1.0) == [1, 0, 0]


def test_extend_returns_nearby_points_directly():
    toward = [0.5, 0.0, 0.0]
    assert extend([0.0, 0.0, 0.0], toward, 1.0) is toward


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
       st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
       st.floats(0.05, 5))
def test_extend_travels_min_of_step_and_distance(ax, ay, az, bx, by, bz, step):
    a, b = Vec3(ax, ay, az), Vec3(bx, by, bz)
    if a.distance_to(b) == 0.0:
        return
    moved = Vec3(*extend([ax, ay, az], [bx, by, bz], step)).distance_to(a)
    assert moved == pytest.approx(min(step, a.distance_to(b)), rel=1e-9)


def test_extend_rejects_degenerate_input():
    with pytest.raises(DegenerateExtend):
        extend([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 0.5)


# _best_parent ---------------------------------------------------------------

def test_best_parent_single_node_tree(quad):
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(1, 0, 2), 2.0, model) == 0


def test_best_parent_breaks_cost_ties_by_insertion_order(quad):
    # root: 0 + 1.5 vs child: 1 + 0.5 -> tie at 1.5, root wins
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    child = tree.add(row(1, 0, 2), 0)
    assert tree.node_costs[child] == pytest.approx(1.0)
    x_new = row(1.5, 0, 2)
    root_total = tree.node_costs[0] + Vec3(0, 0, 2).distance_to(Vec3.from_array(x_new))
    child_total = tree.node_costs[child] + Vec3(1, 0, 2).distance_to(Vec3.from_array(x_new))
    assert root_total == pytest.approx(child_total)
    model = CollisionModel(world, quad)
    assert _best_parent(tree, x_new, 2.0, model) == 0


def test_best_parent_skips_blocked_edges(quad):
    world = make_world((AxisBox(Vec3(0.9, -5, 0), Vec3(1.1, 5, 8)),))
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(2.2, 0, 2), 3.0, model) is None


def test_best_parent_ignores_nodes_outside_radius(quad):
    world = make_world()
    tree = Tree(Vec3(0, 0, 2))
    model = CollisionModel(world, quad)
    assert _best_parent(tree, row(5, 0, 2), 1.0, model) is None


def sequential_best_parent(tree, x_new, radius, model):
    """Reference for `_best_parent`: walk the in-radius candidates in stable
    cost order and return the first whose edge is free, one segment at a time."""
    dists = np.linalg.norm(tree.positions - x_new, axis=1)
    candidates = np.flatnonzero(dists <= radius)
    totals = np.array(tree.node_costs)[candidates] + dists[candidates]
    for idx in candidates[np.argsort(totals, kind="stable")]:
        if model.segment_free(tree.positions[idx], x_new):
            return int(idx)
    return None


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 80), st.just(3)), elements=_wide),
       hnp.arrays(np.float64, 3, elements=_wide), st.integers(0, 2 ** 32 - 1))
def test_candidate_distances_equal_linalg_norm(rows, p, seed):
    # _best_parent's Python-float distances to any insertion-ordered subset
    # of the tree give np.linalg.norm's bits, as the full-tree per-axis pass
    # they replaced (the oracle) does
    tree = _grow_tree(rows, np.random.default_rng(0))
    want = np.linalg.norm(np.ascontiguousarray(tree.positions - p), axis=1)
    assert rrt_reference._distances(tree, p).tobytes() == want.tobytes()
    assert np.array(_distances(tree, p.tolist(), range(len(tree)))).tobytes() == want.tobytes()
    ids = np.flatnonzero(np.random.default_rng(seed).random(len(tree)) < 0.5).tolist()
    assert np.array(_distances(tree, p.tolist(), ids), dtype=float).tobytes() == \
        want[ids].tobytes()


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
    world, tree, x_new, radius, step = _random_case(seed, grid)
    model = bp_model(world, step)
    expected = sequential_best_parent(tree, x_new, radius, model)
    assert _best_parent(tree, x_new, radius, model) == expected
    # culled to a box holding the tree and x_new, as in an RRT* attempt
    pts = np.vstack([tree.positions, x_new])
    local = model.within(pts.min(axis=0), pts.max(axis=0))
    assert _best_parent(tree, x_new, radius, local) == expected


BP_QUAD = QuadModel(body_radius=0.2, safety_margin=0.1)


def bp_model(world: World, step: float) -> CollisionModel:
    """`world` inflated as BP_QUAD inflates it, checked `step` apart, or
    BP_QUAD.growth / 2 apart when `step` is coarser than that growth allows."""
    return CollisionModel(world, spaced_quad(step, BP_QUAD.growth))


def _assert_matches_oracle(world, tree, x_new, radius, step):
    model = bp_model(world, step)
    expected = sequential_best_parent(tree, x_new, radius, model)
    assert _best_parent(tree, x_new, radius, model) == expected
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
    cheapest = near[np.argsort(np.array(tree.node_costs)[near] + dists[near], kind="stable")[0]]
    assume(not bp_model(world, step).segment_free(tree.positions[cheapest], x_new))
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
    inflated = inflate(world.obstacles[0], BP_QUAD)
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


def _cheapest_endpoint_blocked_case(seed: int):
    """A `_random_case` variant: x_new on a face of an inflated box, every node
    on its free side and within the radius, and the root's last edge sample
    rounding onto the face while another node's stays off it. The root costs
    nothing, so its edge is the cheapest. None if the draws never give that."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-6, 6, 3)
    raw = AxisBox(Vec3.from_array(lo), Vec3.from_array(lo + rng.uniform(1, 4, 3)))
    world = make_world((raw,), lo=(-20, -20, -20), hi=(20, 20, 20))
    model = CollisionModel(world, BP_QUAD)
    box, = model.inflated
    bmin, bmax = box[MIN], box[MAX]
    for _ in range(20):
        axis, outward = int(rng.integers(0, 3)), float(rng.choice([-1.0, 1.0]))
        x_new = bmin + (bmax - bmin) * rng.uniform(0.2, 0.8, 3)
        x_new[axis] = bmax[axis] if outward > 0 else bmin[axis]
        nodes = x_new + rng.uniform(-2, 2, size=(int(rng.integers(2, 30)), 3))
        nodes[:, axis] = x_new[axis] + outward * rng.uniform(0.05, 2.5, len(nodes))
        ends_free = model.free_points(nodes + (x_new - nodes))
        if ends_free.any() and not ends_free.all():
            root = int(np.argmin(ends_free))
            nodes = np.vstack([nodes[root], np.delete(nodes, root, axis=0)])
            return world, _grow_tree(nodes, rng), x_new, float(rng.uniform(0.05, 0.4))
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_best_parent_when_the_cheapest_endpoint_is_blocked(seed):
    # x_new lies on a face of an inflated box, so every edge ends on the
    # obstacle and none passes: no parent, although some edges' last
    # samples, origin + (x_new - origin), round off the face, which once let
    # the sampled check accept those edges
    case = _cheapest_endpoint_blocked_case(seed)
    assume(case is not None)
    world, tree, x_new, step = case
    dists = np.linalg.norm(tree.positions - x_new, axis=1)
    assert (dists <= 4.0).all()
    assert np.argsort(np.array(tree.node_costs) + dists, kind="stable")[0] == 0
    assert _assert_matches_oracle(world, tree, x_new, 4.0, step) is None


# segment_free: the one segment predicate -------------------------------------

# how far a touching segment lies from what it touches: from touching, through
# rounding-sized gaps the test's CULL_PAD must cover, to just clear of CULL_PAD
_TOUCH = (0.0, 1e-15, 1e-12, CULL_PAD - 1e-9, CULL_PAD, CULL_PAD + 1e-12,
          CULL_PAD + 1e-9, CULL_PAD + 1e-7)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _segment_case(seed: int):
    """(model, a, b, toward, touching, grounded): boxes and
    cylinders, some sunken, in bounds that reach below ground or stop at it
    (a bottom of 0.0 or -0.0), and a segment a->b that mostly touches a box
    face or corner, a cylinder's side, top or bottom, or a bounds face
    (`_TOUCH`), lying in the plane that supports it there; `toward` is the
    unit normal of that plane toward what it touches. Some segments are
    axis-parallel, some have zero length, some lie on a ground at z = 0
    (`grounded`), and some have one end below ground."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform((-8, -8, -3), (-4, -4, 0))
    ground = rng.random() < 0.3
    if ground:
        lo[2] = rng.choice([0.0, -0.0])
    hi = rng.uniform((4, 4, 3), (8, 8, 8))
    obstacles = []
    for _ in range(int(rng.integers(1, 5))):
        base = rng.uniform(lo + 1, hi - 1)
        if rng.random() < 0.5:
            if rng.random() < 0.4:
                base[2] = rng.uniform(-2.0, 0.0)  # sunken: inflation keeps its base
            obstacles.append(Cylinder(Vec3.from_array(base), float(rng.uniform(0.1, 1.0)),
                                      float(rng.uniform(0.5, 3.0))))
        else:
            obstacles.append(AxisBox(Vec3.from_array(base),
                                     Vec3.from_array(base + rng.uniform(0.1, 2.0, 3))))
    world = World(AxisBox(Vec3.from_array(lo), Vec3.from_array(hi)), obstacle_rows(obstacles),
                  Vec3.from_array((lo + hi) / 2))
    model = CollisionModel(world, BP_QUAD)
    gap = float(rng.choice(_TOUCH))
    rows = model.inflated
    boxes, cylinders = rows[np.isnan(rows[:, RADIUS])], rows[rows[:, RADIUS] > 0]
    mode = int(rng.integers(7))
    if mode == 1 and len(boxes):        # a box face
        row = boxes[rng.integers(len(boxes))]
        axis, side = int(rng.integers(3)), int(rng.integers(2))
        p = rng.uniform(row[MIN], row[MAX])
        p[axis] = row[MAX][axis] + gap if side else row[MIN][axis] - gap
        outward = np.eye(3)[axis] * (1.0 if side else -1.0)
    elif mode == 2 and len(boxes):      # a box corner or edge
        row = boxes[rng.integers(len(boxes))]
        outward = _unit(rng.uniform(0.0, 1.0, 3) * (rng.random(3) < 0.7) + 1e-3)
        signs = rng.choice([-1.0, 1.0], 3)
        p = np.where(signs > 0, row[MAX], row[MIN]) + gap * outward * signs
        outward = outward * signs
    elif mode == 3 and len(cylinders):  # a cylinder's side
        row = cylinders[rng.integers(len(cylinders))]
        a = rng.uniform(0, 2 * np.pi)
        outward = np.array([np.cos(a), np.sin(a), 0.0])
        p = np.array([row[AXIS_X], row[AXIS_Y],
                      rng.uniform(row[BOTTOM], row[TOP])]) + (row[RADIUS] + gap) * outward
    elif mode == 4 and len(cylinders):  # a cylinder's top or bottom
        row = cylinders[rng.integers(len(cylinders))]
        a, k = rng.uniform(0, 2 * np.pi), row[RADIUS] * np.sqrt(rng.uniform())
        up = bool(rng.integers(2))
        p = np.array([row[AXIS_X] + k * np.cos(a), row[AXIS_Y] + k * np.sin(a),
                      row[TOP] + gap if up else row[BOTTOM] - gap])
        outward = np.array([0.0, 0.0, 1.0 if up else -1.0])
    elif mode == 5:                     # a bounds face
        axis, side = int(rng.integers(3)), int(rng.integers(2))
        p = rng.uniform(lo, hi)
        p[axis] = hi[axis] - gap if side else lo[axis] + gap
        outward = np.eye(3)[axis] * (-1.0 if side else 1.0)
    else:
        p, outward, mode = rng.uniform(lo, hi), _unit(rng.normal(size=3)), 0
    if rng.random() < 0.3:
        # the coordinate axis closest to the plane; in it for a face
        u = np.eye(3)[int(np.argmin(np.abs(outward)))]
    else:
        u = _unit(np.cross(outward, rng.normal(size=3)))
    length = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.0, 3.0))
    before = length * float(rng.choice([0.0, rng.uniform(), 1.0]))
    a, b = p - before * u, p + (length - before) * u
    grounded = ground and rng.random() < 0.3
    if grounded:                        # lying on the ground
        a[2] = b[2] = 0.0
    elif rng.random() < 0.1:            # one end below ground
        (a, b)[int(rng.integers(2))][2] = -float(rng.choice([5e-324, 1e-12, 1e-3, 0.5]))
    return model, a, b, -outward, mode > 0, grounded


# the rounding the predicate's answers are checked to: far below CULL_PAD
_ROUNDING = 1e-12


def _check_segment(seed: int) -> tuple[bool, bool, bool]:
    """`segment_free` of `_segment_case(seed)`'s segment, on the model and
    on the model culled round it, which must agree, and whether the segment
    touches and whether it lies on the ground.

    True: every point of a sampling at `check_step` and at `check_step / 16`
    is free, and so are those points moved half the pad toward what the
    segment touches (the pad, not luck in the rounding, keeps them free; on
    a ground at z = 0 the move stops at the ground, which is not padded).
    False: an end lies outside the shrunk bounds, or the segment comes
    within CULL_PAD plus rounding of an inflated obstacle, in the measure the
    pad grows it by; away from that rounding, the converse holds too
    (`pad_margin`)."""
    model, a, b, toward, touching, grounded = _segment_case(seed)
    free = model.segment_free(a, b)
    assert model.within(np.minimum(a, b), np.maximum(a, b)).segment_free(a, b) is free
    step = model.check_step
    if free:
        for pts in (segment_samples(a, b, step), segment_samples(a, b, step / 16)):
            assert model.free_points(pts).all()
            moved = pts + CULL_PAD / 2 * toward
            if model.world.bounds.min.z == 0.0:
                moved[:, 2] = np.maximum(moved[:, 2], 0.0)
            assert model.free_points(moved).all()
        assert model.free_points((a + (b - a))[None, :]).all()
    margin = pad_margin(model.world, model.quad, a, b)
    assert margin > -_ROUNDING if free else margin < _ROUNDING
    return free, touching, grounded


def test_a_clear_segment_frees_every_edge_point():
    # the floors count a fixed seed sweep, so no loaded module can move them
    # (hypothesis seeds its draws with constants from every loaded module)
    free, touching, grounded = np.array([_check_segment(seed) for seed in range(400)]).T
    assert free.sum() >= 100
    assert (free & touching).sum() >= 40
    assert (free & grounded).sum() >= 10
    assert (~free & touching).sum() >= 100

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _check_segment(seed)

    check()


def _cheapest(tree: Tree, x_new: np.ndarray, radius: float) -> int | None:
    """The in-radius node of least cost plus distance, as `_best_parent`
    picks it; None when no node lies within the radius."""
    dists = rrt_reference._distances(tree, x_new)
    near = np.flatnonzero(dists <= radius)
    return int(near[(np.array(tree.node_costs)[near] + dists[near]).argmin()]) if near.size else None


def _clustered_case(seed: int):
    """A `_random_case` world with a small radius and the tree's nodes near
    x_new, so the cheapest edge is often free; on a grid, cost ties are
    common. A third of the cases add a box across the cheapest edge, which
    then fails."""
    rng = np.random.default_rng(seed)
    world, _, x_new, _, step = _random_case(int(rng.integers(2 ** 32)), bool(rng.integers(2)))
    radius = float(rng.uniform(0.2, 1.2))
    nodes = x_new + rng.uniform(-1.5, 1.5, size=(int(rng.integers(1, 30)), 3)) * radius
    if rng.random() < 0.5:
        nodes = np.round(nodes * 8) / 8
    tree = _grow_tree(nodes, rng)
    best = _cheapest(tree, x_new, radius)
    if rng.random() < 1 / 3 and best is not None:
        mid, half = (tree.positions[best] + x_new) / 2, rng.uniform(0.01, 0.1, 3)
        world = dataclasses.replace(world, rows=obstacle_rows(world.obstacles + (
            AxisBox(Vec3.from_array(mid - half), Vec3.from_array(mid + half)),)))
    return world, tree, x_new, radius, step


def _best_parent_agrees(seed: int) -> bool | None:
    """`_clustered_case(seed)` against the sequential oracle, on the model
    and culled round the tree as in an attempt. Whether the cheapest edge
    is free; None when no node lies within the radius."""
    world, tree, x_new, radius, step = _clustered_case(seed)
    model = bp_model(world, step)
    expected = sequential_best_parent(tree, x_new, radius, model)
    assert _best_parent(tree, x_new, radius, model) == expected
    pts = np.vstack([tree.positions, x_new])
    local = model.within(pts.min(axis=0), pts.max(axis=0))
    assert _best_parent(tree, x_new, radius, local) == expected
    best = _cheapest(tree, x_new, radius)
    return None if best is None else model.segment_free(tree.positions[best], x_new)


def test_best_parent_matches_the_oracle_with_and_without_a_certificate():
    # a fixed seed sweep carries the floors, as above
    cleared = [_best_parent_agrees(seed) for seed in range(300)]
    assert cleared.count(True) >= 100
    assert cleared.count(False) >= 50

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _best_parent_agrees(seed)

    check()


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
        lp = rrt_star_run(d, model, RrtParams(extend_dist=1.0, seed=seed), 0).path
        assert lp is not None
        assert Vec3.from_array(lp.positions[0]) == d.entry_pose.position
        assert Vec3.from_array(lp.positions[-1]) == d.exit_pose.position
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
    assert point_free(model, exit_p)
    d = disc_between(Vec3(0, 0, 2), exit_p)
    params = RrtParams(seed=3, max_loops=300)
    assert rrt_star_run(d, model, params, 0).path is None


def test_rrt_star_detour_survives_dense_revalidation(quad):
    # cylinder sits off-axis so a detour fits inside the level-0 window
    world = make_world((Cylinder(Vec3(0, 0.9, 0), 0.5, 5.0),),
                       target=(0.0, 5.0, 1.5))
    d = disc_between(Vec3(-3, 0, 2), Vec3(3, 0, 2))
    model = CollisionModel(world, quad)
    for seed in range(5):
        lp = rrt_star_run(d, model, RrtParams(seed=seed), 0).path
        assert lp is not None
        for a, b in zip(lp.positions, lp.positions[1:]):
            assert model.free_points(segment_samples(a, b, model.check_step / 16)).all()


def test_rrt_star_tree_invariants(quad):
    model = CollisionModel(demo_world(), quad)
    arc = generate_arc(demo_shot())
    d = find_discontinuities(arc, model)[0]
    params = RrtParams(seed=8)
    run = rrt_star_run(d, model, params, 0)
    tree = run.tree

    # cost consistency: stored costs equal recomputed root sums
    recomputed = [0.0] * len(tree)
    for i in range(1, len(tree)):
        parent = tree.parents[i]
        assert parent is not None and parent < i
        edge = Vec3.from_array(tree.positions[i]).distance_to(
            Vec3.from_array(tree.positions[parent]))
        recomputed[i] = recomputed[parent] + edge
        assert tree.node_costs[i] == pytest.approx(recomputed[i], rel=1e-9)

    # every edge passes the predicate
    for i in range(1, len(tree)):
        assert model.segment_free(tree.positions[tree.parents[i]], tree.positions[i])

    # window containment
    assert ((run.window.lo <= tree.positions) & (tree.positions <= run.window.hi)).all()


def test_a_sample_a_subnormal_away_from_its_nearest_node_is_skipped(quad, monkeypatch):
    # 5e-324 from a node at 0.0 squares to 0, so `extend` refuses the sample;
    # the loop skips it as it skips a sample on a node, and grows the same
    # tree from the samples after it (it once raised DegenerateExtend)
    d = disc_between(Vec3(0, 0, 2), Vec3(3, 0, 2))
    model = CollisionModel(make_world(), quad)
    params = RrtParams(max_loops=40, seed=3)
    with pytest.raises(DegenerateExtend):
        extend([0.0, 0.0, 2.0], [5e-324, 0.0, 2.0], params.extend_dist)
    window, _ = level_window(d, model, params, 0)
    rest = sample(window, np.random.default_rng(1), params.max_loops - 1)
    runs = []
    for first in ([5e-324, 0.0, 2.0], [0.0, -5e-324, 2.0], [0.0, 0.0, 2.0]):
        samples = np.vstack([first, rest])
        monkeypatch.setattr(local_planner, "sample", lambda *args: samples)
        run = rrt_star_run(d, model, params, 0)
        assert len(run.tree) > 1
        runs.append(_run_facts(run))
    assert runs[0] == runs[1] == runs[2]


def test_rrt_star_is_deterministic(quad):
    model = CollisionModel(demo_world(), quad)
    arc = generate_arc(demo_shot())
    d = find_discontinuities(arc, model)[0]
    params = RrtParams(seed=17)
    a = rrt_star_run(d, model, params, 0)
    b = rrt_star_run(d, model, params, 0)
    assert len(a.tree) == len(b.tree)
    assert a.path is not None and b.path is not None
    assert np.array_equal(a.path.positions, b.path.positions)
    assert a.path.cost == b.path.cost
    assert a.path == b.path
    # a different discontinuity index derives a different stream
    c = rrt_star_run(d, model, params, 0, disc_index=1)
    assert c.path is None or not np.array_equal(c.path.positions, a.path.positions)


# the blocked loop against the loop it replaced ------------------------------

def _grid_sample(window, rng, count):
    """`sample` snapped to a 0.5 m grid, with a tenth of the coordinates
    moved one ulp up or down: exact and 1-ulp distance ties are common, and
    a zero moved one ulp differs from a node at zero by a subnormal whose
    square is 0, a sample `extend` refuses."""
    pts = np.round(rng.uniform(window.lo, window.hi, size=(count, 3)) * 2) / 2
    nudged = np.nextafter(pts, np.where(rng.random((count, 3)) < 0.5, -np.inf, np.inf))
    return np.where(rng.random((count, 3)) < 0.1, nudged, pts)


def _blocked_case(seed: int):
    """(discontinuity, model, params, level, grid) drawn from `seed`: boxes
    and cylinders round the entry-exit segment, budgets below BLOCK, equal to
    it and off its multiples, a window pad that is often zero with entry and
    exit sharing some coordinates (a window with zero-extent axes), and half
    the cases sampled on a grid."""
    rng = np.random.default_rng(seed)
    entry = rng.uniform((-3, -3, 1), (3, 3, 4))
    exit_ = entry + rng.uniform(-4, 4, 3)
    exit_[2] = max(exit_[2], 0.5)
    flat = rng.random() < 0.4
    if flat:
        shared = rng.random(3) < 0.5
        exit_ = np.where(shared, entry, exit_)
    obstacles = []
    for _ in range(int(rng.integers(0, 5))):
        at = entry + (exit_ - entry) * rng.uniform(0.2, 0.8) + rng.uniform(-1, 1, 3)
        size = rng.uniform(0.1, 0.8, 3)
        if rng.random() < 0.5:
            obstacles.append(Cylinder(Vec3(at[0], at[1], max(at[2] - size[2], 0.0)),
                                      float(size[0]), float(2 * size[2])))
        else:
            obstacles.append(AxisBox(Vec3.from_array(at - size), Vec3.from_array(at + size)))
    world = make_world(tuple(obstacles), lo=(-12, -12, 0), hi=(12, 12, 10))
    quad = QuadModel(body_radius=float(rng.uniform(0.1, 0.4)),
                     safety_margin=float(rng.uniform(0.0, 0.3)))
    budgets = (1, 3, local_planner.BLOCK - 1, local_planner.BLOCK,
               2 * local_planner.BLOCK + 3, 45, 100)
    grid = rng.random() < 0.5
    # on a grid, a long step mostly lands x_new on x_rand, so nodes are grid points
    params = RrtParams(extend_dist=3.0 if grid else float(rng.choice([0.2, 0.5, 1.0])),
                       neighbor_factor=float(rng.uniform(1.5, 3.0)),
                       max_loops=int(rng.choice(budgets)),
                       goal_radius=float(rng.uniform(0.3, 1.5)),
                       window_pad=0.0 if flat else float(rng.uniform(0.0, 2.0)),
                       seed=seed)
    d = disc_between(Vec3.from_array(entry), Vec3.from_array(exit_))
    return d, CollisionModel(world, quad), params, int(rng.integers(0, 3)), grid


def _run_facts(run):
    tree = run.tree
    path = None if run.path is None else (run.path.positions.tobytes(), run.path.cost)
    return (tree.positions.tobytes(), np.array(tree.node_costs).tobytes(), tree.parents, path,
            run.loops, run.window.lo.tobytes(), run.window.hi.tobytes(), run.window.level)


def _blocked_run_matches_the_oracle(seed: int, monkeypatch) -> collections.Counter:
    """`_blocked_case(seed)` run by `rrt_star_run` and by the oracle, which
    must give the same facts. Counts what the blocked run went through:
    degenerate samples (those that differ from their nearest node by a
    subnormal on their own), nearest nodes added inside the current block, exact
    and 1-ulp ties between the best node before the block and the best node
    added in it, and best-parent calls won by the cheapest candidate and by
    a later one."""
    d, model, params, level, grid = _blocked_case(seed)
    seen = collections.Counter(short=params.max_loops < local_planner.BLOCK,
                               ragged=params.max_loops % local_planner.BLOCK != 0)
    nearest, best_parent = local_planner.nearest_vertex, local_planner._best_parent

    def recording_nearest(tree, p, block=None):
        near = nearest(tree, p, block)
        count = block[2]
        seen["degenerate"] += tree.rows[near] == p
        dx, dy, dz = (q - r for q, r in zip(p, tree.rows[near]))
        seen["subnormal"] += tree.rows[near] != p and dx * dx + dy * dy + dz * dz == 0.0
        seen["in_block"] += near >= count
        if count < len(tree):
            q = tree.xyz - np.array(p)[:, None]
            q *= q
            dist2 = q[0] + q[2] + q[1]
            old, new = dist2[:count].min(), dist2[count:].min()
            seen["exact_tie"] += bool(old == new)
            seen["ulp_tie"] += bool(new in (np.nextafter(old, -np.inf),
                                            np.nextafter(old, np.inf)))
        return near

    def recording_best_parent(tree, x_new, radius, model, near=None):
        parent = best_parent(tree, x_new, radius, model, near)
        if parent is not None:
            cheapest = min((tree.node_costs[i] + d, i)
                           for i, d in zip(near, _distances(tree, x_new, near)) if d <= radius)
            seen["cheapest" if parent == cheapest[1] else "later"] += 1
        return parent

    with monkeypatch.context() as m:
        if grid:
            m.setattr(local_planner, "sample", _grid_sample)
            m.setattr(rrt_reference, "sample", _grid_sample)
        want = _run_facts(rrt_reference.rrt_star_run(d, model, params, level))
        m.setattr(local_planner, "nearest_vertex", recording_nearest)
        m.setattr(local_planner, "_best_parent", recording_best_parent)
        got = _run_facts(rrt_star_run(d, model, params, level))
    assert got == want
    seen["cases"] += 1
    return seen


def test_blocked_loop_grows_the_oracle_tree(monkeypatch):
    # a fixed seed sweep carries the floors, as above
    seen = sum((_blocked_run_matches_the_oracle(seed, monkeypatch) for seed in range(200)),
               collections.Counter())
    # (1-ulp ties across a boundary are rare here; the test above has them)
    assert seen["short"] >= 50 and seen["ragged"] >= 100
    assert seen["degenerate"] >= 150 and seen["subnormal"] >= 2
    assert seen["exact_tie"] >= 15
    assert seen["in_block"] >= 400
    assert seen["cheapest"] >= 1200 and seen["later"] >= 100

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _blocked_run_matches_the_oracle(seed, monkeypatch)

    check()


def _goal_checks(d, model, params, level, monkeypatch) -> tuple[int, int]:
    """Runs `rrt_star_run` with `segment_free` recorded and requires the
    oracle's facts and, of every goal check, that its cost could beat the
    best goal cost so far. Returns the goal checks made and the nodes within
    `goal_radius` of the exit."""
    goal = d.exit_pose.position.as_array().tolist()

    def goal_dist(p) -> float:
        dx, dy, dz = p[0] - goal[0], p[1] - goal[1], p[2] - goal[2]
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    checks, segment_free = [], CollisionModel.segment_free

    def recording(self, a, b):
        free = segment_free(self, a, b)
        if list(b) == goal:
            checks.append((tuple(a), free))
        return free

    want = _run_facts(rrt_reference.rrt_star_run(d, model, params, level))
    with monkeypatch.context() as m:
        m.setattr(CollisionModel, "segment_free", recording)
        run = rrt_star_run(d, model, params, level)
    assert _run_facts(run) == want
    node_of = {tuple(row): i for i, row in reversed(list(enumerate(run.tree.rows)))}
    best = math.inf
    for a, free in checks:
        candidate = run.tree.node_costs[node_of[a]] + goal_dist(a)
        assert candidate < best
        if free:
            best = candidate
    assert best == (math.inf if run.path is None else run.path.cost)
    return len(checks), sum(goal_dist(p) <= params.goal_radius for p in run.tree.rows[1:])


def test_no_goal_check_is_made_for_a_cost_that_cannot_win(quad, monkeypatch):
    model = CollisionModel(demo_world(), quad)
    d, = find_discontinuities(generate_arc(demo_shot()), model)
    checks, in_reach = _goal_checks(d, model, RrtParams(extend_dist=0.2, seed=7), 0,
                                    monkeypatch)
    assert 0 < checks < in_reach / 4
    totals = [_goal_checks(*_blocked_case(seed)[:4], monkeypatch) for seed in range(40)]
    assert sum(checks for checks, _ in totals) < sum(in_reach for _, in_reach in totals)


# plan_local_run -------------------------------------------------------------

def test_plan_local_succeeds_at_level_zero_when_easy(quad):
    world, d = empty_world_disc()
    out = plan_local_run(d, CollisionModel(world, quad), RrtParams(seed=2))
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
    assert rrt_star_run(d, model, WALL_PARAMS, 0).path is None
    out = plan_local_run(d, model, WALL_PARAMS)
    assert out.window.level >= 1
    assert out.loops == (out.window.level + 1) * WALL_PARAMS.max_loops


def test_plan_local_fail_limit_one_gives_up_immediately(quad):
    model, d = wall_disc(quad)
    params = dataclasses.replace(WALL_PARAMS, fail_limit=1)
    with pytest.raises(LocalPlanFailed) as err:
        plan_local_run(d, model, params, disc_index=0)
    assert err.value.discontinuity_index == 0
    assert err.value.levels_tried == 1


def test_plan_local_never_runs_a_walled_off_level(quad, monkeypatch):
    model, d = wall_disc(quad)
    levels = []
    run = local_planner.rrt_star_run

    def recording(d, model, params, level, *args, **kwargs):
        levels.append(level)
        return run(d, model, params, level, *args, **kwargs)

    monkeypatch.setattr(local_planner, "rrt_star_run", recording)
    out = plan_local_run(d, model, WALL_PARAMS)
    # levels 0 and 1 are walled off: 1 by the wall's closed top face at 3.5 m
    assert levels == [2]
    assert out.loops == (out.window.level + 1) * WALL_PARAMS.max_loops

    levels.clear()
    params = dataclasses.replace(WALL_PARAMS, fail_limit=1)
    with pytest.raises(LocalPlanFailed) as err:
        plan_local_run(d, model, params)
    assert err.value.levels_tried == 1
    assert levels == []


# walled_off -------------------------------------------------------------------

OPEN_BOUNDS = dict(lo=(-20, -20, -20), hi=(20, 20, 20))
# inflated by the default quad's 0.5: x -1..1, y -5.5..5.5, z -5.5..5.5
SLAB = AxisBox(Vec3(-0.5, -5, -5), Vec3(0.5, 5, 5))


def certified(obstacles, a=Vec3(-3, 0, 0), b=Vec3(3, 0, 0), quad=QuadModel()):
    """walled_off at level 0 of the default window (x -4..4, y and z -1..1)."""
    model = CollisionModel(make_world(obstacles, **OPEN_BOUNDS), quad)
    d = disc_between(a, b)
    return walled_off(d, *level_window(d, model, RrtParams(), 0))


def _swap(v: Vec3, axis: int) -> Vec3:
    c = [v.x, v.y, v.z]
    c[0], c[axis] = c[axis], c[0]
    return Vec3(*c)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_walled_off_fires_on_a_thick_slab_across_the_window(axis):
    slab = AxisBox(_swap(SLAB.min, axis), _swap(SLAB.max, axis))
    assert certified([slab], _swap(Vec3(-3, 0, 0), axis), _swap(Vec3(3, 0, 0), axis))
    assert certified([slab], _swap(Vec3(3, 0, 0), axis), _swap(Vec3(-3, 0, 0), axis))


def _slab_case(seed: int):
    """(slab, entry, exit, growth, two body radii) drawn from `seed`: a slab
    across the default window along a random axis and two quads of one
    growth below 2/3 of CULL_PAD, so the inflated slab is often thinner than
    the pad, or the slab is flat."""
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(3))
    growth = float(rng.uniform(1e-7, 6.6e-7))
    bodies = rng.uniform(0.0, growth, 2)
    thickness = max(0.0, CULL_PAD - 2 * growth + float(rng.uniform(-0.1, 0.6)) * growth)
    x = float(rng.uniform(-1.0, 1.0))
    lo, hi = np.full(3, -5.0), np.full(3, 5.0)
    lo[axis], hi[axis] = x, x + float(rng.choice([0.0, thickness]))
    ends = [Vec3(-3, 0, 0), Vec3(3, 0, 0)]
    if rng.random() < 0.5:
        ends.reverse()
    return (AxisBox(Vec3.from_array(lo), Vec3.from_array(hi)), _swap(ends[0], axis),
            _swap(ends[1], axis), growth, bodies.tolist())


def _slab_walls_off(seed: int) -> int:
    """`walled_off` on `_slab_case(seed)` fires for each quad, however thin
    the inflated slab, and an attempt at that level finds no path. Returns
    how many of the two inflated slabs were thinner than CULL_PAD."""
    slab, a, b, growth, bodies = _slab_case(seed)
    axis = int(np.argmax(np.abs(b.as_array() - a.as_array())))
    thin = 0
    for body in bodies:
        quad = spaced_quad(body / 2, growth)
        model = CollisionModel(make_world([slab], **OPEN_BOUNDS), quad)
        row, = model.inflated
        thin += row[MAX][axis] - row[MIN][axis] < CULL_PAD
        assert certified([slab], a, b, quad=quad)
        params = RrtParams(max_loops=60, seed=seed)
        assert rrt_star_run(disc_between(a, b), model, params, 0).path is None
    return thin


def test_walled_off_fires_on_a_slab_of_any_thickness():
    # an edge chain is continuous, so no thickness is needed: a slab that
    # covers the span cuts every chain, and `segment_free` refuses the edge
    # that crosses it. A fixed seed sweep carries the floor, as in the
    # best-parent tests
    assert sum(_slab_walls_off(seed) for seed in range(100)) >= 50

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _slab_walls_off(seed)

    check()


def test_walled_off_needs_the_cover_to_exceed_the_window_by_the_pad():
    # the window's top in y is 1.0; the inflated slab ends just past it
    short = AxisBox(SLAB.min, Vec3(0.5, 0.5 + CULL_PAD / 2, 5))
    assert not certified([short])
    padded = AxisBox(SLAB.min, Vec3(0.5, 0.5 + 2 * CULL_PAD, 5))
    assert certified([padded])


# entry and exit at z = 2 give a window z span of 1..3, all >= 0; 3.0 has an
# even significand
UP_A, UP_B = Vec3(-3, 0, 2), Vec3(3, 0, 2)


def _topped(top):
    """SLAB with its inflated top face at z = `top` (the growth 0.5 is exact)."""
    return AxisBox(SLAB.min, Vec3(SLAB.max.x, SLAB.max.y, top - 0.5))


def _even(x):
    """True where a float64's significand is even: its lowest stored bit is 0."""
    return (np.asarray(x, dtype=np.float64).view(np.int64) & 1) == 0


def test_walled_off_takes_a_closed_face_on_an_even_one_signed_window_face():
    assert _even(3.0)
    assert certified([_topped(3.0)], UP_A, UP_B)
    assert not certified([_topped(float(np.nextafter(3.0, 0)))], UP_A, UP_B)
    # the mirror: z span -3..-1, the inflated bottom face at -3.0
    low = AxisBox(Vec3(SLAB.min.x, SLAB.min.y, -2.5), SLAB.max)
    assert certified([low], Vec3(-3, 0, -2), Vec3(3, 0, -2))


def test_walled_off_pads_an_odd_or_mixed_sign_window_face():
    # endpoints one ulp above 2 put the window top one ulp above 3: odd
    z = float(np.nextafter(2.0, 3))
    top = z + 1.0
    assert not _even(top) and top == float(np.nextafter(3.0, 4))
    a, b = Vec3(-3, 0, z), Vec3(3, 0, z)
    assert not certified([_topped(top)], a, b)
    assert certified([_topped(top + 2 * CULL_PAD)], a, b)
    # y spans -1..1: a face on the even top 1.0 still needs the pad
    assert _even(1.0)
    assert not certified([AxisBox(SLAB.min, Vec3(0.5, 0.5, 5))])


def test_walled_off_needs_entry_and_exit_on_both_sides():
    assert not certified([SLAB], b=Vec3(-1.5, 0, 0))
    assert not certified([SLAB], a=Vec3(1.5, 0, 0))


def test_walled_off_ignores_cylinders():
    # this pillar walls the window off too, but only boxes are certified
    assert not certified([Cylinder(Vec3(0, 0, -20), 3.0, 40.0)])


def test_walled_off_never_fires_on_the_demo(quad):
    model = CollisionModel(demo_world(), quad)
    d, = find_discontinuities(generate_arc(demo_shot()), model)
    for level in range(RrtParams().fail_limit):
        assert not walled_off(d, *level_window(d, model, RrtParams(), level))


def _single_box_span(seed: int):
    """(model, discontinuity, params) drawn from `seed`: one box, entry and
    exit in a random order along a random axis, near the box or across it.
    The model's quad has a drawn body radius, which no answer depends on.

    Often one of the other two axes is one-signed, as z is above the ground,
    and the inflated box's face on it lies exactly on one level's window
    face, as the wall's top does on level 1 of `wall-expand`."""
    rng = np.random.default_rng(seed)
    u = rng.uniform

    def maybe(options):
        return None if rng.random() < 0.5 else options[int(rng.integers(len(options)))]

    axis = int(rng.integers(3))
    others = [i for i in range(3) if i != axis]

    def along(v):
        c = [0.0] * 3
        c[axis], c[others[0]], c[others[1]] = v
        return Vec3(*c)

    half = u(0.05, 1.0)
    # past the world bounds in both other axes, except perhaps on one side
    reach = [u(20.5, 28.0) for _ in range(4)]
    short = maybe([0, 1, 2, 3])
    if short is not None:
        reach[short] = u(-0.5, 3.0)
    box_lo, box_hi = [-half, -reach[0], -reach[1]], [half, reach[2], reach[3]]
    lo = [-20.0, -u(2.0, 20.0), -u(2.0, 20.0)]
    hi = [20.0, u(2.0, 20.0), u(2.0, 20.0)]
    far = (1.2, 5.0) if rng.random() < 0.5 else (-5.0, 5.0)
    ends = [[-u(1.2, 5.0), u(-1.0, 1.0), u(-1.0, 1.0)],
            [u(*far), u(-1.0, 1.0), u(-1.0, 1.0)]]
    flat = maybe([1, 2])
    if flat is not None:
        up = rng.random() < 0.5
        (lo if up else hi)[flat] = 0.0
        for end in ends:
            end[flat] = u(0.5, 2.0) * (1.0 if up else -1.0)
    if rng.random() < 0.5:
        ends.reverse()
    params = RrtParams(extend_dist=u(0.3, 2.5), goal_radius=u(0.3, 2.0), max_loops=150,
                       window_pad=u(0.2, 1.5), window_growth=u(1.2, 2.0),
                       seed=int(rng.integers(0, 2 ** 32, endpoint=True)))
    d = disc_between(along(ends[0]), along(ends[1]))
    quad = QuadModel()
    bounds = AxisBox(along(lo), along(hi))
    if flat is not None:
        # windows are nested, so a face on level 2's leaves levels 0 and 1
        # covered as well
        open_world = CollisionModel(World(bounds, (), Vec3(0, 0, 0)), quad)
        window, _ = level_window(d, open_world, params, int(rng.integers(3)))
        k = others[flat - 1]
        # the window face is at least 0.7 from 0, so the growth adds back exactly
        if up:
            box_hi[flat] = window.hi[k] - quad.growth
            box_lo[flat] = min(box_lo[flat], box_hi[flat])
        else:
            box_lo[flat] = window.lo[k] + quad.growth
            box_hi[flat] = max(box_hi[flat], box_lo[flat])
    world = World(bounds, obstacle_rows((AxisBox(along(box_lo), along(box_hi)),)),
                  Vec3(0, 0, 0))
    return CollisionModel(world, spaced_quad(u(0.1, 2.5), quad.growth)), d, params


def _span(d, window):
    """The box spanned by `window` and both endpoints, as (lo, hi)."""
    ends = (d.entry_pose.position.as_array(), d.exit_pose.position.as_array())
    return (np.minimum.reduce((window.lo, *ends)),
            np.maximum.reduce((window.hi, *ends)))


def _padded_walled_off(d, window, model):
    """`walled_off` with CULL_PAD on every face of the span."""
    lo, hi = _span(d, window)
    return model.separates(d.entry_pose.position.as_array(),
                           d.exit_pose.position.as_array(), lo - CULL_PAD, hi + CULL_PAD)


def _walled_off_levels(seed: int) -> tuple[int, int]:
    """Levels 0-2 of `_single_box_span(seed)`: every level `walled_off`
    certifies runs and finds no path, and every level the all-padded rule
    certifies is certified. Returns (certified, certified by a closed face)."""
    model, d, params = _single_box_span(seed)
    fired = exact = 0
    for level in range(3):
        window, local = level_window(d, model, params, level)
        padded = _padded_walled_off(d, window, local)
        if walled_off(d, window, local):
            fired += 1
            exact += not padded
            assert rrt_star_run(d, model, params, level).path is None
        else:
            assert not padded
    return fired, exact


def test_a_walled_off_level_never_finds_a_path():
    # a fixed seed sweep carries the floors, as in the best-parent tests
    fired, exact = np.sum([_walled_off_levels(seed) for seed in range(100)], axis=0)
    assert fired >= 60
    assert exact >= 8

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _walled_off_levels(seed)

    check()


def test_no_tested_coordinate_passes_an_unpadded_span_face(monkeypatch):
    # the induction behind walled_off's closed-face rule, against both ends of
    # every segment an attempt hands to segment_free
    seen = []
    segment_free = CollisionModel.segment_free

    def recording(self, a, b):
        seen.append(np.array([a, b], dtype=float))
        return segment_free(self, a, b)

    monkeypatch.setattr(CollisionModel, "segment_free", recording)

    def unpadded_faces(d, model, params, level):
        lo, hi = _span(d, level_window(d, model, params, level)[0])
        top = (lo >= 0) & _even(hi)
        bottom = (hi <= 0) & _even(lo)
        seen.clear()
        rrt_star_run(d, model, params, level)
        pts = np.concatenate(seen)
        assert (pts[:, top] <= hi[top]).all()
        assert (pts[:, bottom] >= lo[bottom]).all()
        return pts, top | bottom

    # level 1 of the acceptance wall: z spans 0.5..3.5, the inflated top
    model, d = wall_disc(QuadModel())
    pts, faces = unpadded_faces(d, model, WALL_PARAMS, 1)
    assert faces[2] and pts[:, 2].max() > 3.4

    def faces_checked(seed):
        model, d, params = _single_box_span(seed)
        return sum(unpadded_faces(d, model, params, level)[1].sum()
                   for level in range(3))

    # a fixed seed sweep carries the floor, as in the test above
    assert sum(faces_checked(seed) for seed in range(40)) >= 30

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        faces_checked(seed)

    check()


def _succ(x: float) -> float:
    return float(np.nextafter(x, math.inf))


@st.composite
def _interpolations(draw):
    """(a, b, t) with a, b >= 0. Half are t = 1 with b - a a rounding tie,
    the one way a + t * (b - a) can pass max(a, b)."""
    b = draw(st.floats(0.0, 1e300))
    if draw(st.booleans()):
        # b - a lies halfway between two floats while it stays in b's binade
        return (2 * draw(st.integers(0, 2 ** 20)) + 1) * float(np.spacing(b)) / 2, b, 1.0
    return draw(st.floats(0.0, 1e300)), b, draw(st.floats(0.0, 1.0))


def _seeded_interpolation(seed: int):
    """`_interpolations` drawn from a numpy rng, over every binade up to 1e300."""
    rng = np.random.default_rng(seed)

    def wide():
        return float(np.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-1021, 997))))

    b = wide()
    if rng.random() < 0.5:
        k = int(rng.integers(0, 2 ** 20, endpoint=True))
        return (2 * k + 1) * float(np.spacing(b)) / 2, b, 1.0
    return wide(), b, rng.uniform(0.0, 1.0)


def _overshoots(a: float, b: float, t: float) -> bool:
    """Whether a + t * (b - a), the form of every coordinate an attempt
    computes, passes max(a, b); it may only by one ulp, from an odd end."""
    v = a + t * (b - a)
    top = max(a, b)
    assert 0.0 <= v <= _succ(top)
    assert v <= top or not _even(top)
    return v > top


def test_nonnegative_interpolation_passes_its_larger_end_only_on_an_odd_tie():
    # a fixed seed sweep carries the floor, as in the tests above
    assert sum(_overshoots(*_seeded_interpolation(seed)) for seed in range(1000)) >= 15

    @settings(max_examples=1000, deadline=None)
    @given(_interpolations())
    def check(case):
        _overshoots(*case)

    check()


def test_the_interpolation_bound_needs_its_sign_and_parity_conditions():
    # odd significand: the interpolation at t = 1 passes the larger end
    a, b = 0.015199091831556488, 0.6837413448974007
    assert not _even(b)
    assert a + 1.0 * (b - a) == _succ(b)
    # mixed signs: an even significand is passed too
    a, b = -0.4535801222885679, 0.7884287034284043
    assert _even(b) and a + (b - a) == _succ(b)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 53))
def test_edge_sample_fractions_stay_at_most_one(n):
    # the reference sampler's t = k * (1 / n) rises with k, so k = n - 1
    # bounds every k < n: the oracle's samples stay on the segment
    assert (n - 1.0) * (1.0 / n) <= 1.0
    if n <= 4000:
        # from 0 to 1 along x each sample's x is its t
        pts = segment_samples(np.zeros(3), np.array([1.0, 0.0, 0.0]), 1.0 / n)
        assert (pts[:, 0] <= 1.0).all() and pts[-1, 0] == 1.0


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


@pytest.mark.parametrize("field", ["extend_dist", "neighbor_factor", "goal_radius",
                                   "window_pad", "window_growth"])
def test_rrt_params_reject_nan(field):
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got nan$"):
        RrtParams(**{field: math.nan})


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
    assert tree.node_costs[b] == pytest.approx(2.0)
    assert tree.path_from_root(b).tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0]]


def test_local_path_needs_two_positions():
    with pytest.raises(ValueError):
        LocalPath(np.zeros((1, 3)), 0.0)
    with pytest.raises(ValueError):
        LocalPath(np.zeros((2, 2)), 0.0)
    lp = LocalPath([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], 1.0)
    with pytest.raises(ValueError, match="read-only"):
        lp.positions[0, 0] = 1.0
