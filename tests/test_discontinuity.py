import numpy as np
import pytest

from arcshot.discontinuity import Discontinuity, find_discontinuities
from arcshot.errors import EndpointBlocked
from arcshot.shot import ArcShotSpec, GlobalPath, Pose4, generate_arc
from arcshot.world import AxisBox, Cylinder, Vec3, collision_model
from conftest import make_world


def straight_path(n=21, x0=-10.0, x1=10.0, z=2.0) -> GlobalPath:
    xs = np.linspace(x0, x1, n)
    return GlobalPath(tuple(Pose4(Vec3(float(x), 0.0, z), 0.0) for x in xs))


def reference_spans(flags: list[bool], margin: int) -> list[tuple[int, int]]:
    """Direct per-sample scan + run merge, written independently of the
    implementation: pad each blocked run, walk brackets to free samples,
    then merge any spans that share indices."""
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
    merged = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def test_obstacle_free_world_yields_nothing(quad):
    world = make_world()
    assert find_discontinuities(straight_path(), world, quad) == []


def test_single_cylinder_blocks_three_middle_samples(quad):
    # inflated r = 1.5 blocks |x| < 1.5 on the 21-sample line: indices 9..11
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    flags = [collision_model(world, quad).point_free(p.position) for p in path.poses]
    assert [i for i, ok in enumerate(flags) if not ok] == [9, 10, 11]

    discs = find_discontinuities(path, world, quad, margin=2)
    assert len(discs) == 1
    d = discs[0]
    assert (d.entry_index, d.exit_index) == (7, 13)
    assert d.blocked_range == (9, 10, 11)
    assert d.entry_pose == path[7] and d.exit_pose == path[13]
    assert reference_spans(flags, 2) == [(7, 13)]


def test_touching_padded_runs_merge_into_one(quad):
    # cylinders at x=-2 and x=2 leave one free sample between padded spans
    world = make_world((Cylinder(Vec3(-2.0, 0.0, 0.0), 1.0, 5.0),
                        Cylinder(Vec3(2.0, 0.0, 0.0), 1.0, 5.0)),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    flags = [collision_model(world, quad).point_free(p.position) for p in path.poses]
    assert [i for i, ok in enumerate(flags) if not ok] == [7, 8, 9, 11, 12, 13]

    discs = find_discontinuities(path, world, quad, margin=2)
    assert len(discs) == 1
    d = discs[0]
    assert (d.entry_index, d.exit_index) == (5, 15)
    assert d.blocked_range == (7, 8, 9, 11, 12, 13)  # sample 10 stays free
    assert reference_spans(flags, 2) == [(5, 15)]


def test_padding_walks_outward_through_a_nearby_run(quad):
    # margin lands inside the second run; entry/exit must walk to free samples
    world = make_world((AxisBox(Vec3(-5.7, -1, 0), Vec3(-4.8, 1, 5)),
                        AxisBox(Vec3(-3.7, -1, 0), Vec3(-2.8, 1, 5))),
                       target=(0.0, 5.0, 1.0))
    path = straight_path()
    flags = [collision_model(world, quad).point_free(p.position) for p in path.poses]
    discs = find_discontinuities(path, world, quad, margin=1)
    got = [(d.entry_index, d.exit_index) for d in discs]
    assert got == reference_spans(flags, 1)
    for d in discs:
        assert flags[d.entry_index] and flags[d.exit_index]


def test_blocked_endpoint_is_rejected(quad):
    world = make_world((Cylinder(Vec3(-10.0, 0.0, 0.0), 1.0, 5.0),),
                       target=(0.0, 5.0, 1.0))
    with pytest.raises(EndpointBlocked) as err:
        find_discontinuities(straight_path(), world, quad)
    assert err.value.index == 0


def test_margin_must_be_positive(quad):
    with pytest.raises(ValueError):
        find_discontinuities(straight_path(), make_world(), quad, margin=0)


def test_discontinuity_invariant_validation():
    pose = Pose4(Vec3(0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        Discontinuity(3, 5, pose, pose, (2,))  # blocked outside the bracket
    with pytest.raises(ValueError):
        Discontinuity(3, 5, pose, pose, ())


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
    checked = 0
    while checked < 40:
        world = _random_scan_world(rng)
        path = generate_arc(_random_arc(rng))
        flags = [collision_model(world, quad).point_free(p.position) for p in path.poses]
        if not (flags[0] and flags[-1]):
            continue
        checked += 1
        discs = find_discontinuities(path, world, quad, margin=2)
        assert [(d.entry_index, d.exit_index) for d in discs] == \
            reference_spans(flags, 2)
        # soundness, completeness, order, disjointness
        covered = set()
        previous_exit = -1
        for d in discs:
            assert d.entry_index > previous_exit
            previous_exit = d.exit_index
            assert flags[d.entry_index] and flags[d.exit_index]
            for i in d.blocked_range:
                assert not flags[i]
            covered.update(range(d.entry_index, d.exit_index + 1))
        for i, ok in enumerate(flags):
            if not ok:
                assert i in covered
