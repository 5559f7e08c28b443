import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, World, inflate
from conftest import make_world


# independent closed-form oracles -------------------------------------------

def point_in_cylinder(c: Cylinder, p: Vec3) -> bool:
    if not c.base_center.z <= p.z <= c.base_center.z + c.height:
        return False
    return math.hypot(p.x - c.base_center.x, p.y - c.base_center.y) <= c.radius


def point_in_box(b: AxisBox, p: Vec3) -> bool:
    return (b.min.x <= p.x <= b.max.x and b.min.y <= p.y <= b.max.y
            and b.min.z <= p.z <= b.max.z)


def point_in_obstacle(o, p: Vec3) -> bool:
    return point_in_cylinder(o, p) if isinstance(o, Cylinder) else point_in_box(o, p)


def dist_to_cylinder(c: Cylinder, p: Vec3) -> float:
    dr = max(0.0, math.hypot(p.x - c.base_center.x, p.y - c.base_center.y) - c.radius)
    dz = max(c.base_center.z - p.z, p.z - (c.base_center.z + c.height), 0.0)
    return math.hypot(dr, dz)


def dist_to_box(b: AxisBox, p: Vec3) -> float:
    dx = max(b.min.x - p.x, p.x - b.max.x, 0.0)
    dy = max(b.min.y - p.y, p.y - b.max.y, 0.0)
    dz = max(b.min.z - p.z, p.z - b.max.z, 0.0)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def dist_to_obstacle(o, p: Vec3) -> float:
    return dist_to_cylinder(o, p) if isinstance(o, Cylinder) else dist_to_box(o, p)


# inflate --------------------------------------------------------------------

def test_inflate_cylinder_grows_radius_and_top():
    c = Cylinder(Vec3(2.0, 3.0, 0.0), 1.0, 3.0)
    grown = inflate(c, QuadModel(body_radius=0.3, safety_margin=0.2))
    assert grown.radius == pytest.approx(1.5)
    assert grown.height == pytest.approx(3.5)
    assert grown.base_center == c.base_center  # grounded base stays put


def test_inflate_box_pushes_every_face_outward():
    box = AxisBox(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 1.0, 1.0))
    grown = inflate(box, QuadModel(body_radius=0.25, safety_margin=0.0))
    assert grown.min == Vec3(-0.25, -0.25, -0.25)
    assert grown.max == Vec3(1.25, 1.25, 1.25)


def test_inflate_zero_growth_is_identity():
    eps = 1e-12
    quad = QuadModel(body_radius=eps, safety_margin=0.0)
    c = Cylinder(Vec3(0.0, 0.0, 0.0), 2.0, 4.0)
    grown = inflate(c, quad)
    assert grown.radius == pytest.approx(2.0, rel=1e-9)
    assert grown.height == pytest.approx(4.0, rel=1e-9)
    box = AxisBox(Vec3(-1.0, -1.0, 0.0), Vec3(1.0, 1.0, 2.0))
    grown_box = inflate(box, quad)
    assert grown_box.min.x == pytest.approx(-1.0, rel=1e-9)
    assert grown_box.max.z == pytest.approx(2.0, rel=1e-9)


def test_inflate_is_pure():
    c = Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 3.0)
    quad = QuadModel()
    assert inflate(c, quad) == inflate(c, quad)
    assert c.radius == 1.0 and c.height == 3.0


@settings(max_examples=200, deadline=None)
@given(
    cx=st.floats(-5, 5), cy=st.floats(-5, 5),
    r=st.floats(0.1, 3), h=st.floats(0.5, 6),
    px=st.floats(-8, 8), py=st.floats(-8, 8), pz=st.floats(0, 8),
    body=st.floats(0.05, 1.0), margin=st.floats(0, 1.0),
)
def test_inflate_is_monotone(cx, cy, r, h, px, py, pz, body, margin):
    # any point colliding with the raw obstacle collides with the grown one
    quad = QuadModel(body_radius=body, safety_margin=margin)
    c = Cylinder(Vec3(cx, cy, 0.0), r, h)
    p = Vec3(px, py, pz)
    if point_in_cylinder(c, p):
        assert point_in_cylinder(inflate(c, quad), p)
    box = AxisBox(Vec3(cx - r, cy - r, 0.0), Vec3(cx + r, cy + r, h))
    if point_in_box(box, p):
        assert point_in_box(inflate(box, quad), p)


# point_free -----------------------------------------------------------------

def test_is_free_empty_world():
    world = make_world()
    quad = QuadModel()
    assert CollisionModel(world, quad).point_free(Vec3(3.0, -4.0, 5.0))


def test_is_free_rejects_out_of_bounds():
    world = make_world()
    model = CollisionModel(world, QuadModel())
    assert not model.point_free(Vec3(16.0, 0.0, 5.0))
    assert not model.point_free(Vec3(0.0, 0.0, -0.1))


def test_is_free_inside_inflated_cylinder():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    assert not CollisionModel(world, quad).point_free(Vec3(0.0, 0.0, 2.5))  # on the axis


def test_is_free_near_inflated_boundary():
    # raw r=1.0 plus growth 0.5 -> inflated r=1.5: 1.49 collides, 1.51 clears
    cyl = Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0)
    world = make_world((cyl,))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    inflated = inflate(cyl, quad)
    model = CollisionModel(world, quad)
    for dist, expected in ((1.49, False), (1.51, True)):
        p = Vec3(dist, 0.0, 2.0)
        assert model.point_free(p) is expected
        # closed-form point-in-cylinder oracle agrees
        assert point_in_cylinder(inflated, p) is (not expected)


def test_is_free_boundary_counts_as_collision():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    assert not CollisionModel(world, quad).point_free(Vec3(1.5, 0.0, 2.0))


def test_bounds_faces_are_free_and_inflated_box_faces_are_blocked():
    # bounds are (-15, -15, 0)..(15, 15, 10); the box inflates by 0.5 to
    # (1.5, -1.5, -0.5)..(4.5, 1.5, 3.5)
    world = make_world((AxisBox(Vec3(2.0, -1.0, 0.0), Vec3(4.0, 1.0, 3.0)),))
    model = CollisionModel(world, QuadModel(body_radius=0.3, safety_margin=0.2))
    for p in (Vec3(-15.0, 0.0, 5.0), Vec3(0.0, 15.0, 5.0), Vec3(0.0, 0.0, 0.0),
              Vec3(0.0, 0.0, 10.0), Vec3(15.0, -15.0, 10.0)):
        assert model.point_free(p), p
    for p in (Vec3(1.5, 0.0, 2.0), Vec3(4.5, 0.0, 2.0), Vec3(3.0, -1.5, 2.0),
              Vec3(3.0, 1.5, 2.0), Vec3(3.0, 0.0, 3.5), Vec3(1.5, 1.5, 3.5)):
        assert not model.point_free(p), p


def _random_world(rng) -> World:
    obstacles = []
    for _ in range(rng.integers(1, 4)):
        if rng.random() < 0.5:
            obstacles.append(Cylinder(
                Vec3(rng.uniform(-8, 8), rng.uniform(-8, 8), 0.0),
                rng.uniform(0.3, 2.0), rng.uniform(1.0, 7.0)))
        else:
            lo = Vec3(rng.uniform(-8, 4), rng.uniform(-8, 4), 0.0)
            obstacles.append(AxisBox(lo, Vec3(
                lo.x + rng.uniform(0.5, 4), lo.y + rng.uniform(0.5, 4),
                rng.uniform(1.0, 6.0))))
    return make_world(tuple(obstacles))


def test_free_points_keep_clearance_from_raw_surfaces():
    # point_free => distance to every raw obstacle surface >= growth
    rng = np.random.default_rng(2024)
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    for _ in range(20):
        world = _random_world(rng)
        model = CollisionModel(world, quad)
        for _ in range(200):
            p = Vec3(rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(0, 10))
            if model.point_free(p):
                clearance = min(dist_to_obstacle(o, p) for o in world.obstacles)
                assert clearance >= quad.growth - 1e-9


def test_is_free_is_pure():
    world = make_world((Cylinder(Vec3(1.0, 1.0, 0.0), 1.0, 4.0),))
    quad = QuadModel()
    p = Vec3(0.2, 0.2, 1.0)
    model = CollisionModel(world, quad)
    assert model.point_free(p) == model.point_free(p)


# within (culled models) -----------------------------------------------------

# Quarter-meter grid coordinates and a 0.5 m growth keep inflation exact, so
# obstacles often end exactly on a face, edge or corner of the query box.
_quarters = st.integers(-24, 24).map(lambda k: k * 0.25)


@st.composite
def _grid_obstacle(draw):
    x, y = draw(_quarters), draw(_quarters)
    z = draw(st.integers(0, 12).map(lambda k: k * 0.25))
    if draw(st.booleans()):
        return Cylinder(Vec3(x, y, z), draw(st.integers(1, 12).map(lambda k: k * 0.25)),
                        draw(st.integers(1, 16).map(lambda k: k * 0.25)))
    size = st.integers(0, 16).map(lambda k: k * 0.25)
    return AxisBox(Vec3(x, y, z), Vec3(x + draw(size), y + draw(size), z + draw(size)))


@st.composite
def _grid_box(draw):
    lo = [draw(_quarters) for _ in range(3)]
    return AxisBox(Vec3(*lo), Vec3(*(v + draw(st.integers(0, 20).map(lambda k: k * 0.25))
                                     for v in lo)))


def _probe_points(box: AxisBox, fractions: np.ndarray) -> np.ndarray:
    """Interior points at `fractions`, the same points pushed onto each face,
    and the eight corners."""
    lo, hi = box.min.as_array(), box.max.as_array()
    inner = lo + fractions * (hi - lo)
    faces = []
    for axis in range(3):
        for bound in (lo, hi):
            on_face = inner.copy()
            on_face[:, axis] = bound[axis]
            faces.append(on_face)
    corners = np.array([[(lo, hi)[i >> a & 1][a] for a in range(3)] for i in range(8)])
    return np.vstack([inner, *faces, corners])


@settings(max_examples=150, deadline=None)
@given(st.lists(_grid_obstacle(), max_size=8), _grid_box(),
       st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=6))
def test_within_matches_full_model_inside_its_box(obstacles, box, fractions):
    world = make_world(tuple(obstacles), lo=(-8.0, -8.0, -1.0), hi=(8.0, 8.0, 8.0))
    quad = QuadModel(body_radius=0.25, safety_margin=0.25)
    full = CollisionModel(world, quad)
    local = full.within(box)
    pts = _probe_points(box, np.array(fractions))
    assert np.array_equal(local.free_points(pts), full.free_points(pts))
    assert set(local.inflated) <= set(full.inflated)


def test_within_keeps_touching_obstacles_and_drops_distant_ones():
    quad = QuadModel(body_radius=0.25, safety_margin=0.25)
    touching = AxisBox(Vec3(2.5, 0.0, 0.0), Vec3(3.0, 1.0, 1.0))     # inflated min.x = 2
    corner = Cylinder(Vec3(3.0, 3.0, 0.0), 0.5, 1.0)                 # inflated bbox from (2, 2)
    distant = Cylinder(Vec3(-6.0, -6.0, 0.0), 0.5, 1.0)
    world = make_world((touching, corner, distant))
    local = CollisionModel(world, quad).within(AxisBox(Vec3(0.0, 0.0, 0.0),
                                                       Vec3(2.0, 2.0, 2.0)))
    assert local.inflated == (inflate(touching, quad), inflate(corner, quad))
    assert not local.point_free(Vec3(2.0, 0.5, 0.5))   # on the shared face
    assert local.point_free(Vec3(2.0, 2.0, 0.5))       # bbox corner, outside the disk


# segment_free ---------------------------------------------------------------

def test_segment_free_in_empty_world():
    world = make_world()
    quad = QuadModel()
    assert CollisionModel(world, quad).segment_free(Vec3(-5, 0, 2), Vec3(5, 0, 2), 0.5)


def test_segment_through_cylinder_axis_is_blocked():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel()
    assert not CollisionModel(world, quad).segment_free(Vec3(-5, 0, 2), Vec3(5, 0, 2), 0.5)


def test_grazing_segment_matches_fine_sampling_oracle():
    # closest approach = inflated radius - step/2; both resolutions agree here
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)  # inflated r=1.5
    a, b = Vec3(-3.0, 1.4, 2.0), Vec3(3.0, 1.4, 2.0)
    step = 0.2
    model = CollisionModel(world, quad)
    coarse = model.segment_free(a, b, step)
    fine = model.segment_free(a, b, step / 10)
    assert coarse is fine is False


def test_segment_endpoints_checked():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel()
    # start point sits inside the inflated cylinder
    assert not CollisionModel(world, quad).segment_free(Vec3(0.5, 0, 2), Vec3(5, 0, 2),
                                                         0.25)


def test_coarse_sampling_is_optimistic():
    # with nested sample points: fine says free => coarse says free
    rng = np.random.default_rng(77)
    quad = QuadModel()
    for _ in range(10):
        world = _random_world(rng)
        model = CollisionModel(world, quad)
        for _ in range(30):
            a = Vec3(rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(0, 9))
            b = Vec3(rng.uniform(-12, 12), rng.uniform(-12, 12), rng.uniform(0, 9))
            if a.distance_to(b) == 0.0:
                continue
            step = a.distance_to(b) / 6  # divides evenly: halving nests points
            fine = model.segment_free(a, b, step / 2)
            coarse = model.segment_free(a, b, step)
            if fine:
                assert coarse


def test_segment_free_default_step_is_body_radius():
    # a gap a body_radius step would sample: obstacle thinner than body_radius
    world = make_world((AxisBox(Vec3(-0.05, -5, 0), Vec3(0.05, 5, 5)),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.0)
    assert not CollisionModel(world, quad).segment_free(Vec3(-3, 0, 2), Vec3(3, 0, 2),
                                                         quad.body_radius)


def test_segment_free_requires_positive_step():
    world = make_world()
    with pytest.raises(ValueError):
        CollisionModel(world, QuadModel()).segment_free(Vec3(0, 0, 1), Vec3(1, 0, 1), 0.0)


# type invariants ------------------------------------------------------------

def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0.0, 0.0)


def test_cylinder_rejects_bad_extents():
    with pytest.raises(ValueError):
        Cylinder(Vec3(0, 0, 0), -1.0, 3.0)
    with pytest.raises(ValueError):
        Cylinder(Vec3(0, 0, 0), 1.0, 0.0)


def test_axisbox_rejects_inverted_corners():
    with pytest.raises(ValueError):
        AxisBox(Vec3(1, 0, 0), Vec3(0, 1, 1))


def test_world_requires_target_inside_bounds():
    with pytest.raises(ValueError):
        make_world(target=(99.0, 0.0, 1.0))


def test_quad_model_invariants():
    with pytest.raises(ValueError):
        QuadModel(body_radius=0.0)
    with pytest.raises(ValueError):
        QuadModel(safety_margin=-0.1)
    assert QuadModel(body_radius=0.4, safety_margin=0.1).growth == pytest.approx(0.5)
