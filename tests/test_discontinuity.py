import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcshot.discontinuity import Discontinuity, find_discontinuities
from arcshot.errors import EndpointBlocked
from arcshot.shot import ArcShotSpec, GlobalPath, generate_arc
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3
from conftest import make_world, point_free


def straight_path(n=21, x0=-10.0, x1=10.0, z=2.0) -> GlobalPath:
    xs = np.linspace(x0, x1, n)
    return GlobalPath([(x, 0.0, z, 0.0) for x in xs.tolist()])


def segment_flags(path: GlobalPath, model: CollisionModel) -> list[bool]:
    """Free flag of every segment i (samples i -> i+1), one `segment_free`
    call each against the whole model."""
    positions = path.position_array()
    return [model.segment_free(positions[i], positions[i + 1])
            for i in range(len(path) - 1)]


def sample_flags(path: GlobalPath, model: CollisionModel) -> list[bool]:
    return [point_free(model, Vec3(*p)) for p in path.position_array().tolist()]


def blocked_segments(path: GlobalPath, model: CollisionModel) -> tuple[int, ...]:
    free = model.segments_free(path.position_array())
    return tuple(np.flatnonzero(~free).tolist())


def _merge(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def reference_spans(seg_free: list[bool], margin: int) -> list[tuple[int, int]]:
    """Direct segment scan + run merge, written independently of the
    implementation: a run of blocked segments a..b touches samples a..b+1;
    pad it by `margin` samples each side, walk each bracket outward until the
    segment just outside it is free (or the path ends), then merge spans that
    share a sample."""
    last = len(seg_free)
    spans = []
    i = 0
    while i < last:
        if seg_free[i]:
            i += 1
            continue
        j = i
        while j < last and not seg_free[j]:
            j += 1
        lo, hi = max(0, i + 1 - margin), min(last, j - 1 + margin)
        while lo > 0 and not seg_free[lo - 1]:
            lo -= 1
        while hi < last and not seg_free[hi]:
            hi += 1
        spans.append((lo, hi))
        i = j
    return _merge(spans)


def sample_reference_spans(flags: list[bool], margin: int) -> list[tuple[int, int]]:
    """The per-sample scan the segment scan replaced: pad each run of blocked
    samples, walk brackets to free samples, then merge spans that share
    indices. It misses a segment blocked only between two free samples, and
    otherwise agrees with `reference_spans`."""
    n = len(flags)
    spans = []
    i = 0
    while i < n:
        if flags[i]:
            i += 1
            continue
        j = i
        while j < n and not flags[j]:
            j += 1
        lo, hi = max(0, i - margin), min(n - 1, j - 1 + margin)
        while not flags[lo]:
            lo -= 1
        while not flags[hi]:
            hi += 1
        spans.append((lo, hi))
        i = j
    return _merge(spans)


def only_sample_hits(flags: list[bool], seg_free: list[bool]) -> bool:
    """True iff every blocked segment has a blocked end sample."""
    return all(free or not (flags[i] and flags[i + 1])
               for i, free in enumerate(seg_free))


def assert_spans_cover_exactly_the_blocked_segments(path, model, discs):
    """Sound, complete, ordered, disjoint: every blocked segment lies inside a
    span, and the segments just outside each bracket are free."""
    free = model.segments_free(path.position_array()).tolist()
    inside = [False] * len(free)
    previous_exit = -1
    for d in discs:
        assert d.entry_index > previous_exit
        previous_exit = d.exit_index
        assert point_free(model, Vec3(*d.entry))
        assert point_free(model, Vec3(*d.exit))
        for i in range(d.entry_index, d.exit_index):
            inside[i] = True
    for i, ok in enumerate(free):
        assert ok or inside[i], f"blocked segment {i} outside every span"
        assert inside[i] or ok, f"segment {i} outside the spans is blocked"


def test_obstacle_free_world_yields_nothing(quad):
    world = make_world()
    assert find_discontinuities(straight_path(), CollisionModel(world, quad)) == []


def test_one_pose_path_yields_nothing(quad):
    path = GlobalPath([(0.0, 0.0, 2.0, 0.0)])
    assert find_discontinuities(path, CollisionModel(make_world(), quad)) == []


def test_single_cylinder_blocks_three_middle_samples(quad):
    # inflated r = 1.5 blocks |x| < 1.5 on the 21-sample line: indices 9..11,
    # so segments 8..11 are blocked
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    model = CollisionModel(world, quad)
    flags = sample_flags(path, model)
    assert [i for i, ok in enumerate(flags) if not ok] == [9, 10, 11]

    discs = find_discontinuities(path, model, margin=2)
    assert len(discs) == 1
    d = discs[0]
    assert (d.entry_index, d.exit_index) == (7, 13)
    assert blocked_segments(path, model) == (8, 9, 10, 11)
    rows = path.position_array().tolist()
    assert d.entry == tuple(rows[7]) and d.exit == tuple(rows[13])
    assert reference_spans(segment_flags(path, model), 2) == [(7, 13)]
    assert sample_reference_spans(flags, 2) == [(7, 13)]


def test_touching_padded_runs_merge_into_one(quad):
    # cylinders at x=-2 and x=2 leave one free sample between padded spans
    world = make_world((Cylinder(Vec3(-2.0, 0.0, 0.0), 1.0, 5.0),
                        Cylinder(Vec3(2.0, 0.0, 0.0), 1.0, 5.0)),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    model = CollisionModel(world, quad)
    flags = sample_flags(path, model)
    assert [i for i, ok in enumerate(flags) if not ok] == [7, 8, 9, 11, 12, 13]

    discs = find_discontinuities(path, model, margin=2)
    assert len(discs) == 1
    d = discs[0]
    assert (d.entry_index, d.exit_index) == (5, 15)
    # sample 10 stays free, but both of its segments end in a blocked sample
    assert flags[10]
    assert blocked_segments(path, model) == tuple(range(6, 14))
    assert reference_spans(segment_flags(path, model), 2) == [(5, 15)]
    assert sample_reference_spans(flags, 2) == [(5, 15)]


def test_padding_walks_outward_through_a_nearby_run(quad):
    # margin lands inside the second run; entry/exit must walk to free samples
    world = make_world((AxisBox(Vec3(-5.7, -1, 0), Vec3(-4.8, 1, 5)),
                        AxisBox(Vec3(-3.7, -1, 0), Vec3(-2.8, 1, 5))),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    model = CollisionModel(world, quad)
    flags = sample_flags(path, model)
    discs = find_discontinuities(path, model, margin=1)
    got = [(d.entry_index, d.exit_index) for d in discs]
    assert got == reference_spans(segment_flags(path, model), 1)
    assert got == sample_reference_spans(flags, 1)
    for d in discs:
        assert flags[d.entry_index] and flags[d.exit_index]
    assert_spans_cover_exactly_the_blocked_segments(path, model, discs)


def test_wall_between_two_free_samples_is_found(quad):
    # a 0.1 m wall, 1.1 m thick inflated, sits between the samples at
    # x = -1.11 and x = 1.11: no sample is blocked, segment 4 is
    world = make_world((AxisBox(Vec3(-0.05, -1, 0), Vec3(0.05, 1, 5)),),
                       target=(0.0, 5.0, 1.0))
    path = straight_path(n=10)
    model = CollisionModel(world, quad)
    flags = sample_flags(path, model)
    assert all(flags) and sample_reference_spans(flags, 2) == []

    assert blocked_segments(path, model) == (4,)
    discs = find_discontinuities(path, model, margin=2)
    assert [(d.entry_index, d.exit_index) for d in discs] == [(3, 6)]
    assert reference_spans(segment_flags(path, model), 2) == [(3, 6)]
    assert_spans_cover_exactly_the_blocked_segments(path, model, discs)


def test_blocked_endpoint_is_rejected(quad):
    world = make_world((Cylinder(Vec3(-10.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    with pytest.raises(EndpointBlocked) as err:
        find_discontinuities(straight_path(), CollisionModel(world, quad))
    assert err.value.index == 0
    assert str(err.value) == "path endpoint at sample 0 is in collision"


def test_an_endpoint_on_a_bounds_face_is_blocked_unless_it_is_the_ground(quad):
    # the endpoints are zero-length segments: the bounds shrink by CULL_PAD,
    # except a bottom at exactly 0.0
    model = CollisionModel(make_world(), quad)
    path = GlobalPath([(-5.0, 0.0, 0.0, 0.0), (0.0, 0.0, 5.0, 0.0), (5.0, 0.0, 10.0, 0.0)])
    with pytest.raises(EndpointBlocked) as err:
        find_discontinuities(path, model)
    assert err.value.index == 2
    assert "lies outside the world bounds" in str(err.value)
    assert find_discontinuities(GlobalPath(path.rows[:2]), model) == []


def test_margin_must_be_positive(quad):
    with pytest.raises(ValueError):
        find_discontinuities(straight_path(), CollisionModel(make_world(), quad), margin=0)


def test_discontinuity_invariant_validation():
    p = (0.0, 0.0, 0.0)
    Discontinuity(0, 1, p, p)
    for entry, exit_ in ((3, 3), (5, 3), (-1, 3)):
        with pytest.raises(ValueError):
            Discontinuity(entry, exit_, p, p)


def _random_scan_world(rng):
    obstacles = []
    for _ in range(rng.integers(1, 4)):
        obstacles.append(Cylinder(
            Vec3(rng.uniform(-8, 8), rng.uniform(-8, 8), 0.0),
            rng.uniform(0.3, 1.5), rng.uniform(2.0, 8.0)))
    return make_world(tuple(obstacles), target=(0.0, 0.0, 1.5))


def _random_arc(rng) -> ArcShotSpec:
    return ArcShotSpec(
        Vec3(rng.uniform(6, 10), 0.0, rng.uniform(1, 4)),
        Vec3(rng.uniform(-10, -6), 0.0, rng.uniform(1, 4)),
        Vec3(0.0, 0.0, 1.5),
        "counterclockwise" if rng.random() < 0.5 else "clockwise",
        int(rng.integers(24, 80)),
    )


def test_matches_reference_scan_on_random_worlds(quad):
    rng = np.random.default_rng(99)
    checked = agreed = 0
    while checked < 40:
        world = _random_scan_world(rng)
        path = generate_arc(_random_arc(rng))
        model = CollisionModel(world, quad)
        flags = sample_flags(path, model)
        if not (flags[0] and flags[-1]):
            continue
        checked += 1
        discs = find_discontinuities(path, model, margin=2)
        got = [(d.entry_index, d.exit_index) for d in discs]
        seg_free = segment_flags(path, model)
        assert got == reference_spans(seg_free, 2)
        if only_sample_hits(flags, seg_free):
            assert got == sample_reference_spans(flags, 2)
            agreed += 1
        assert_spans_cover_exactly_the_blocked_segments(path, model, discs)
    assert agreed > 0


def thin_obstacle(angle: float, reach: float, thickness: float, length: float,
                  height: float, kind: str):
    """A thin box across the arc, or a thin pillar, centered at polar
    (angle, reach) around the origin."""
    x, y = reach * math.cos(angle), reach * math.sin(angle)
    if kind == "cylinder":
        return Cylinder(Vec3(x, y, 0.0), thickness / 2, height)
    # the box is thin along the axis closer to the arc's direction of travel
    hx, hy = (thickness / 2, length / 2) if abs(y) > abs(x) else (length / 2, thickness / 2)
    return AxisBox(Vec3(x - hx, y - hy, 0.0), Vec3(x + hx, y + hy, height))


thin_obstacles = st.lists(st.builds(
    thin_obstacle,
    angle=st.floats(math.radians(25), math.radians(155)),
    reach=st.floats(5.0, 11.0),
    thickness=st.floats(0.02, 0.4),
    length=st.floats(0.5, 3.0),
    height=st.floats(1.0, 6.0),
    kind=st.sampled_from(["box", "cylinder"]),
), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(thin_obstacles, st.floats(6.0, 10.0), st.floats(1.0, 4.0),
       st.integers(6, 70), st.integers(1, 4))
def test_spans_cover_exactly_the_blocked_segments(obstacles, radius, z, samples,
                                                  margin):
    model = CollisionModel(make_world(tuple(obstacles)), QuadModel())
    path = generate_arc(ArcShotSpec(Vec3(radius, 0.0, z), Vec3(-radius, 0.0, z),
                                    Vec3(0.0, 0.0, 1.5), "counterclockwise", samples))
    assume(point_free(model, Vec3(*path.rows[0, :3].tolist()))
           and point_free(model, Vec3(*path.rows[-1, :3].tolist())))
    discs = find_discontinuities(path, model, margin)
    assert [(d.entry_index, d.exit_index) for d in discs] == \
        reference_spans(segment_flags(path, model), margin)
    assert_spans_cover_exactly_the_blocked_segments(path, model, discs)
