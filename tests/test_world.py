import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.world import (AXIS_X, AXIS_Y, BOTTOM, CULL_PAD, INDEX, MAX, MIN, RADIUS,
                           RADIUS_SQ, TOP, AxisBox, CollisionModel, Cylinder, QuadModel,
                           Vec3, World, obstacle_rows)
from conftest import TOUCH, demo_world, make_world, point_free, spaced_quad
from world_reference import (bounding_box, inflate, inflated_rows, packed_arrays,
                             segment_pad_distance, segment_samples, unpack_rows)


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


def point_in_row(row: np.ndarray, p: Vec3) -> bool:
    """Closed-form membership of `p` in a packed obstacle row."""
    x0, y0, z0, x1, y1, z1, cx, cy, r, *_ = row.tolist()
    if not z0 <= p.z <= z1:
        return False
    if math.isnan(r):
        return x0 <= p.x <= x1 and y0 <= p.y <= y1
    return math.hypot(p.x - cx, p.y - cy) <= r


def inflated_row(obstacle, quad: QuadModel) -> np.ndarray:
    """The packed row of `obstacle` inflated, alone in a world."""
    row, = CollisionModel(make_world((obstacle,)), quad).inflated
    return row


# inflate --------------------------------------------------------------------

def test_inflate_cylinder_grows_radius_and_top():
    c = Cylinder(Vec3(2.0, 3.0, 0.0), 1.0, 3.0)
    grown = inflated_row(c, QuadModel(body_radius=0.3, safety_margin=0.2))
    assert grown[RADIUS] == pytest.approx(1.5)
    assert grown[RADIUS_SQ] == pytest.approx(1.5 ** 2)
    assert grown[TOP] - grown[BOTTOM] == pytest.approx(3.5)
    # grounded base stays put
    assert (grown[AXIS_X], grown[AXIS_Y], grown[BOTTOM]) == (2.0, 3.0, 0.0)
    assert grown[MIN].tolist() == pytest.approx([0.5, 1.5, 0.0])
    assert grown[MAX].tolist() == pytest.approx([3.5, 4.5, 3.5])


def test_inflate_box_pushes_every_face_outward():
    box = AxisBox(Vec3(0.0, 0.0, 0.0), Vec3(1.0, 1.0, 1.0))
    grown = inflated_row(box, QuadModel(body_radius=0.25, safety_margin=0.0))
    assert grown[MIN].tolist() == [-0.25, -0.25, -0.25]
    assert grown[MAX].tolist() == [1.25, 1.25, 1.25]
    assert np.isnan(grown[AXIS_X:INDEX]).all()


def test_inflate_zero_growth_is_identity():
    eps = 1e-12
    quad = QuadModel(body_radius=eps, safety_margin=0.0)
    c = Cylinder(Vec3(0.0, 0.0, 0.0), 2.0, 4.0)
    grown = inflated_row(c, quad)
    assert grown[RADIUS] == pytest.approx(2.0, rel=1e-9)
    assert grown[TOP] - grown[BOTTOM] == pytest.approx(4.0, rel=1e-9)
    box = AxisBox(Vec3(-1.0, -1.0, 0.0), Vec3(1.0, 1.0, 2.0))
    grown_box = inflated_row(box, quad)
    assert grown_box[MIN][0] == pytest.approx(-1.0, rel=1e-9)
    assert grown_box[MAX][2] == pytest.approx(2.0, rel=1e-9)


def test_inflate_is_pure():
    c = Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 3.0)
    quad = QuadModel()
    assert inflated_row(c, quad).tobytes() == inflated_row(c, quad).tobytes()
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
        assert point_in_row(inflated_row(c, quad), p)
    box = AxisBox(Vec3(cx - r, cy - r, 0.0), Vec3(cx + r, cy + r, h))
    if point_in_box(box, p):
        assert point_in_row(inflated_row(box, quad), p)


_coord = st.floats(-6, 6)


@st.composite
def _any_world(draw):
    """(world, quad, query box): cylinders sunken, grounded at 0 or -0.0,
    standing at exactly the growth, or floating; boxes of any size down to
    zero; either kind, or both, may be absent. The query box is random or
    has a corner within a few CULL_PADs of an obstacle's."""
    quad = QuadModel(body_radius=draw(st.floats(0.01, 1.0)),
                     safety_margin=draw(st.floats(0.0, 1.0)))
    obstacles = []
    for is_cylinder in draw(st.lists(st.booleans(), max_size=8)):
        lo = Vec3(draw(_coord), draw(_coord), draw(st.one_of(
            st.sampled_from([0.0, -0.0, quad.growth]), st.floats(-3, 3))))
        if is_cylinder:
            obstacles.append(Cylinder(lo, draw(st.floats(0.01, 3)), draw(st.floats(0.01, 5))))
        else:
            obstacles.append(AxisBox(lo, Vec3(*(v + draw(st.floats(0, 4))
                                                for v in (lo.x, lo.y, lo.z)))))
    size = [draw(st.floats(0, 6)) for _ in range(3)]
    if obstacles and draw(st.booleans()):
        # a corner within a few pads of a corner of an inflated bounding box
        bb = bounding_box(inflate(draw(st.sampled_from(obstacles)), quad))
        near = st.sampled_from([-1.5, -0.5, 0.0, 0.5, 1.5]).map(lambda k: k * CULL_PAD)
        if draw(st.booleans()):
            box_lo = [bb[3 + k] + draw(near) for k in range(3)]
        else:
            box_lo = [bb[k] + draw(near) - size[k] for k in range(3)]
    else:
        box_lo = [draw(_coord) for _ in range(3)]
    box = AxisBox(Vec3(*box_lo), Vec3(*(v + d for v, d in zip(box_lo, size))))
    return make_world(tuple(obstacles)), quad, box


@settings(max_examples=300, deadline=None)
@given(_any_world())
def test_pack_equals_the_per_obstacle_oracle(case):
    world, quad, box = case
    full = CollisionModel(world, quad)
    assert full.inflated.tobytes() == inflated_rows(unpack_rows(world.rows), quad).tobytes()
    # within keeps exactly the rows whose bounding box touches the box padded
    # by twice CULL_PAD
    lo = [v - 2 * CULL_PAD for v in (box.min.x, box.min.y, box.min.z)]
    hi = [v + 2 * CULL_PAD for v in (box.max.x, box.max.y, box.max.z)]
    keep = [all(row[k] <= hi[k] and row[3 + k] >= lo[k] for k in range(3))
            for row in full.inflated.tolist()]
    local = full.within(box.min.as_array(), box.max.as_array())
    assert local.inflated.tobytes() == full.inflated[np.array(keep, dtype=bool)].tobytes()
    # the world's rows, which the render draws, list the obstacles in the
    # inflated rows' order
    assert world.rows.tobytes() == obstacle_rows(unpack_rows(world.rows)).tobytes()
    assert world.rows[:, INDEX].tolist() == full.inflated[:, INDEX].tolist()


# free_points of one point -------------------------------------------------------

def test_is_free_empty_world():
    world = make_world()
    quad = QuadModel()
    assert point_free(CollisionModel(world, quad), Vec3(3.0, -4.0, 5.0))


def test_is_free_rejects_out_of_bounds():
    world = make_world()
    model = CollisionModel(world, QuadModel())
    assert not point_free(model, Vec3(16.0, 0.0, 5.0))
    assert not point_free(model, Vec3(0.0, 0.0, -0.1))


def test_is_free_inside_inflated_cylinder():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    assert not point_free(CollisionModel(world, quad), Vec3(0.0, 0.0, 2.5))  # on the axis


def test_is_free_near_inflated_boundary():
    # raw r=1.0 plus growth 0.5 -> inflated r=1.5: 1.49 collides, 1.51 clears
    cyl = Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0)
    world = make_world((cyl,))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    model = CollisionModel(world, quad)
    inflated, = model.inflated
    for dist, expected in ((1.49, False), (1.51, True)):
        p = Vec3(dist, 0.0, 2.0)
        assert point_free(model, p) is expected
        # closed-form point-in-cylinder oracle agrees
        assert point_in_row(inflated, p) is (not expected)


def test_is_free_boundary_counts_as_collision():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    assert not point_free(CollisionModel(world, quad), Vec3(1.5, 0.0, 2.0))


def test_bounds_faces_are_free_and_inflated_box_faces_are_blocked():
    # bounds are (-15, -15, 0)..(15, 15, 10); the box inflates by 0.5 to
    # (1.5, -1.5, -0.5)..(4.5, 1.5, 3.5)
    world = make_world((AxisBox(Vec3(2.0, -1.0, 0.0), Vec3(4.0, 1.0, 3.0)),))
    model = CollisionModel(world, QuadModel(body_radius=0.3, safety_margin=0.2))
    for p in (Vec3(-15.0, 0.0, 5.0), Vec3(0.0, 15.0, 5.0), Vec3(0.0, 0.0, 0.0),
              Vec3(0.0, 0.0, 10.0), Vec3(15.0, -15.0, 10.0)):
        assert point_free(model, p), p
    for p in (Vec3(1.5, 0.0, 2.0), Vec3(4.5, 0.0, 2.0), Vec3(3.0, -1.5, 2.0),
              Vec3(3.0, 1.5, 2.0), Vec3(3.0, 0.0, 3.5), Vec3(1.5, 1.5, 3.5)):
        assert not point_free(model, p), p


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
    # a free point => distance to every raw obstacle surface >= growth
    rng = np.random.default_rng(2024)
    quad = QuadModel(body_radius=0.3, safety_margin=0.2)
    for _ in range(20):
        world = _random_world(rng)
        model, obstacles = CollisionModel(world, quad), unpack_rows(world.rows)
        for _ in range(200):
            p = Vec3(rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(0, 10))
            if point_free(model, p):
                clearance = min(dist_to_obstacle(o, p) for o in obstacles)
                assert clearance >= quad.growth - 1e-9


def test_is_free_is_pure():
    world = make_world((Cylinder(Vec3(1.0, 1.0, 0.0), 1.0, 4.0),))
    quad = QuadModel()
    p = Vec3(0.2, 0.2, 1.0)
    model = CollisionModel(world, quad)
    assert point_free(model, p) == point_free(model, p)


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
    local = full.within(box.min.as_array(), box.max.as_array())
    pts = _probe_points(box, np.array(fractions))
    assert np.array_equal(local.free_points(pts), full.free_points(pts))
    assert ({row.tobytes() for row in local.inflated}
            <= {row.tobytes() for row in full.inflated})


def _lifted(o, dz: float):
    """Obstacle `o` moved up by `dz`."""
    def up(p: Vec3) -> Vec3:
        return Vec3(p.x, p.y, p.z + dz)

    if isinstance(o, Cylinder):
        return Cylinder(up(o.base_center), o.radius, o.height)
    return AxisBox(up(o.min), up(o.max))


def _edge_probes(model: CollisionModel, fractions: np.ndarray) -> np.ndarray:
    """Points inside, on the faces and at the corners of the bounds as
    `segment_free` shrinks them and of each inflated obstacle's bounding box
    grown by CULL_PAD, and on each inflated cylinder's side grown by
    CULL_PAD: the padded faces where a segment test has no margin."""
    lo, hi = model._bounds
    boxes = [AxisBox(Vec3(*lo), Vec3(*hi))]
    sides = []
    for row in model.inflated:
        boxes.append(AxisBox(Vec3(*(row[MIN] - CULL_PAD)), Vec3(*(row[MAX] + CULL_PAD))))
        if row[RADIUS] > 0:
            angle = 2 * math.pi * fractions[:, 0]
            reach = row[RADIUS] + CULL_PAD
            sides.append(np.column_stack((
                row[AXIS_X] + reach * np.cos(angle), row[AXIS_Y] + reach * np.sin(angle),
                row[BOTTOM] + fractions[:, 2] * (row[TOP] - row[BOTTOM]))))
    return np.vstack([_probe_points(b, fractions) for b in boxes] + sides)


@settings(max_examples=100, deadline=None)
@given(st.lists(_grid_obstacle(), max_size=6), st.sampled_from([0.0, -3.0, 2.5]),
       st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=2))
def test_culled_edge_forms_answer_as_the_full_model(obstacles, ground, fractions):
    # the forms the edge checks hand `segments_free`, which culls to their
    # box: a zero-length segment at a path endpoint, and the takeoff column
    # from one pad above the ground up to a pose
    world = make_world(tuple(_lifted(o, ground) for o in obstacles), lo=(-8.0, -8.0, ground),
                       hi=(8.0, 8.0, ground + 10.0), target=(0.0, 0.0, ground + 1.5))
    full = CollisionModel(world, QuadModel(body_radius=0.25, safety_margin=0.25))
    for p in _edge_probes(full, np.array(fractions)).tolist():
        assert bool(full.segments_free(np.array([p, p]))[0]) is full.segment_free(p, p)
        bottom = [p[0], p[1], ground + CULL_PAD]
        column = np.array([bottom, p])
        assert bool(full.segments_free(column)[0]) is full.segment_free(bottom, p)


def _reference_free_points(model: CollisionModel, pts: np.ndarray) -> np.ndarray:
    """The original `CollisionModel.free_points` on the query arrays it once
    packed from the obstacles `model` keeps, the oracle for the lean one."""
    obstacles = unpack_rows(model.world.rows)
    kept = [obstacles[int(i)] for i in model.inflated[:, INDEX]]
    cyl, box_min, box_max = packed_arrays(kept, model.quad)
    pts = np.atleast_2d(pts)
    free = np.all((pts >= model.world.bounds.min.as_array())
                  & (pts <= model.world.bounds.max.as_array()), axis=1)
    if cyl.size:
        dx = pts[:, 0, None] - cyl[:, 0]
        dy = pts[:, 1, None] - cyl[:, 1]
        z = pts[:, 2, None]
        hit = ((dx * dx + dy * dy <= cyl[:, 2])
               & (z >= cyl[:, 3]) & (z <= cyl[:, 4]))
        free &= ~hit.any(axis=1)
    if box_min.size:
        inside = np.all(
            (pts[:, None, :] >= box_min) & (pts[:, None, :] <= box_max),
            axis=2,
        )
        free &= ~inside.any(axis=1)
    return free


@settings(max_examples=100, deadline=None)
@given(st.lists(_grid_obstacle(), max_size=8), _grid_box(),
       st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=3))
def test_free_points_matches_the_reference(obstacles, box, fractions):
    # probes inside and on the faces, edges and corners of the world bounds,
    # a query box and every inflated obstacle's bounding box (box faces,
    # cylinder tops and bottoms, the planes tangent to a cylinder's side)
    world = make_world(tuple(obstacles), lo=(-8.0, -8.0, -1.0), hi=(8.0, 8.0, 8.0))
    full = CollisionModel(world, QuadModel(body_radius=0.25, safety_margin=0.25))
    boxes = [world.bounds, box,
             *(AxisBox(Vec3(*b[:3]), Vec3(*b[3:]))
               for b in (bounding_box(inflate(o, full.quad)) for o in obstacles))]
    pts = np.vstack([_probe_points(b, np.array(fractions)) for b in boxes])
    for model in (full, full.within(box.min.as_array(), box.max.as_array())):
        assert model.free_points(pts).tobytes() == _reference_free_points(model, pts).tobytes()
        for row in pts:
            assert (model.free_points(row[None, :]).tobytes()
                    == _reference_free_points(model, row).tobytes())


def test_within_keeps_touching_obstacles_and_drops_distant_ones():
    quad = QuadModel(body_radius=0.25, safety_margin=0.25)
    touching = AxisBox(Vec3(2.5, 0.0, 0.0), Vec3(3.0, 1.0, 1.0))     # inflated min.x = 2
    corner = Cylinder(Vec3(3.0, 3.0, 0.0), 0.5, 1.0)                 # inflated bbox from (2, 2)
    distant = Cylinder(Vec3(-6.0, -6.0, 0.0), 0.5, 1.0)
    world = make_world((touching, corner, distant))
    local = CollisionModel(world, quad).within(np.zeros(3), np.full(3, 2.0))
    expected = inflated_rows(unpack_rows(world.rows), quad)
    assert (local.inflated.tobytes()
            == expected[np.isin(expected[:, INDEX], [0, 1])].tobytes())
    assert not point_free(local, Vec3(2.0, 0.5, 0.5))   # on the shared face
    assert point_free(local, Vec3(2.0, 2.0, 0.5))       # bbox corner, outside the disk


# segment_free at its pad -------------------------------------------------------

# (point touched, outward direction) on the model `_touch_model` builds
_BALL_TOUCHES = {
    "box face": ((2.5, 1.5, 1.5), (1, 0, 0)),
    "box corner": ((2.5, 2.5, 2.5), (1, 1, 1)),
    "cylinder side": ((-2.0, -3.0, -1.0), (1, 0, 0)),
    "cylinder top": ((-3.0, -3.0, 0.5), (0, 0, 1)),
    "cylinder bottom": ((-3.0, -3.0, -2.0), (0, 0, -1)),
    "bounds low x": ((-10.0, 5.0, 5.0), (1, 0, 0)),
    "bounds high x": ((10.0, 5.0, 5.0), (-1, 0, 0)),
    "bounds low y": ((-5.0, -10.0, 5.0), (0, 1, 0)),
    "bounds high y": ((-5.0, 10.0, 5.0), (0, -1, 0)),
    "bounds low z": ((-5.0, 5.0, -10.0), (0, 0, 1)),
    "bounds high z": ((-5.0, 5.0, 10.0), (0, 0, -1)),
}


def _touch_model() -> CollisionModel:
    # inflated by 0.5: the box spans 0.5..2.5, the sunken cylinder has its
    # axis at (-3, -3), radius 1, bottom -2 and top 0.5
    world = make_world((AxisBox(Vec3(1, 1, 1), Vec3(2, 2, 2)),
                        Cylinder(Vec3(-3, -3, -2), 0.5, 2.0)),
                       lo=(-10, -10, -10), hi=(10, 10, 10))
    return CollisionModel(world, QuadModel())


def _touching(kind: str) -> tuple[np.ndarray, np.ndarray]:
    touch, outward = _BALL_TOUCHES[kind]
    return np.array(touch, dtype=float), np.array(outward, dtype=float) / np.linalg.norm(outward)


def _across(outward: np.ndarray) -> np.ndarray:
    """A unit direction perpendicular to `outward`, parallel to no axis."""
    u = np.cross(outward, (0.3, 0.5, 0.8))
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("kind", sorted(_BALL_TOUCHES))
def test_ball_free_clears_a_ball_past_its_pad_and_no_nearer(kind):
    # every edge in a ball that stays CULL_PAD clear is certified: the radius
    # toward what the ball touches, a diameter along and one across that
    # direction, and the center alone; a ball nearer than the pad leaves the
    # radius toward what it touches uncertified, in either direction
    model = _touch_model()
    touch, outward = _touching(kind)
    across = _across(outward)
    r = 0.7
    for beyond, free in ((CULL_PAD / 2, False), (2 * CULL_PAD, True)):
        center = touch + (r + beyond) * outward
        rim = center - r * outward
        assert model.segment_free(center, rim) is free
        assert model.segment_free(rim, center) is free
    for a, b in ((center + r * outward, rim), (center - r * across, center + r * across),
                 (center, center)):
        assert model.segment_free(a, b)


def _plane_segment(touch, outward, beyond, shape):
    """A segment `beyond` off the touched point in the plane that supports
    the obstacle there, so its nearest point to the obstacle is that far."""
    p = touch + beyond * outward
    if shape == "zero length":
        return p, p.copy()
    if shape == "axis-parallel":
        # a coordinate axis in the face's plane; at the corner, along x,
        # which passes the box's top edge at sqrt(2/3) of `beyond`: still
        # past the pad at twice the pad, and inside it at half the pad
        u = np.eye(3)[int(np.argmin(np.abs(outward)))]
    else:
        u = _across(outward)
    return (p, p + 0.9 * u) if shape == "ending there" else (p - 0.9 * u, p + 0.9 * u)


@pytest.mark.parametrize("shape", ["axis-parallel", "oblique", "ending there", "zero length"])
@pytest.mark.parametrize("kind", sorted(_BALL_TOUCHES))
def test_segment_clear_clears_a_segment_past_its_pad_and_no_nearer(kind, shape):
    model = _touch_model()
    touch, outward = _touching(kind)
    for beyond, free in ((CULL_PAD / 2, False), (2 * CULL_PAD, True)):
        a, b = _plane_segment(touch, outward, beyond, shape)
        assert model.segment_free(a, b) is free
        assert model.segment_free(b, a) is free
        if free:
            assert model.free_points(segment_samples(a, b, 0.05)).all()


@pytest.mark.parametrize("bottom", [0.0, -0.0])
def test_segment_clear_takes_a_ground_at_zero_unpadded_when_both_ends_are_on_it(bottom):
    # no interpolation between two ends at z >= 0 goes below 0, so a segment
    # lying on the ground is certified; an end below it never is
    world = make_world((Cylinder(Vec3(3, 3, 0), 0.5, 2.0),), lo=(-10, -10, bottom))
    model = CollisionModel(world, QuadModel())
    on = np.array([-3.0, 1.0, 0.0]), np.array([4.0, -2.0, 0.0])
    assert model.segment_free(*on)
    assert model.free_points(segment_samples(*on, 0.05)).all()
    assert model.segment_free(np.array([-3.0, 1.0, -0.0]), np.array([1.0, 1.0, 0.0]))
    # a grounded pillar, inflated to radius 1, is padded as usual
    assert model.segment_free(np.array([3.0, 4.0 + 2 * CULL_PAD, 0.0]),
                               np.array([-3.0, 4.0 + 2 * CULL_PAD, 0.0]))
    assert not model.segment_free(np.array([3.0, 4.0 + CULL_PAD / 2, 0.0]),
                                   np.array([-3.0, 4.0 + CULL_PAD / 2, 0.0]))
    for below in (-5e-324, -1e-12, -0.5):
        for a, b in ((np.array([-3.0, 1.0, below]), np.array([4.0, -2.0, 2.0])),
                     (np.array([-3.0, 1.0, 2.0]), np.array([4.0, -2.0, below]))):
            assert not model.segment_free(a, b)
            assert not model.free_points(np.vstack([a, b])).all()


@pytest.mark.parametrize("bottom", [5e-324, 1e-9, -1e-9, -3.0])
def test_segment_clear_pads_any_other_bounds_bottom(bottom):
    model = CollisionModel(make_world(lo=(-10, -10, bottom)), QuadModel())
    assert not model.segment_free(np.array([-3.0, 1.0, bottom]),
                                   np.array([4.0, -2.0, bottom]))
    lifted = bottom + 2 * CULL_PAD
    assert model.segment_free(np.array([-3.0, 1.0, lifted]), np.array([4.0, -2.0, lifted]))
    if bottom < -1.0:
        # bounds below ground: an end below z = 0 needs no exemption
        assert model.segment_free(np.array([-3.0, 1.0, -1.0]), np.array([4.0, -2.0, 2.0]))


def _binade_face_case(seed: int):
    """(model, a, b): a box whose inflated face along a random axis lies a
    few ulps below a power of two in magnitude, and a segment in the plane
    CULL_PAD beyond that face, or a rounding-sized step nearer or farther,
    where the pad's sum can round across a binade."""
    rng = np.random.default_rng(seed)
    quad = QuadModel()
    axis, up = int(rng.integers(3)), bool(rng.integers(2))
    power = 2.0 ** int(rng.integers(-1, 3))
    face = power - int(rng.integers(1, 2000)) * float(np.spacing(power)) / 2
    lo, hi = np.full(3, -3.0), np.full(3, 3.0)
    if up:
        hi[axis] = face - quad.growth
        lo[axis] = hi[axis] - 1.0
    else:
        lo[axis] = quad.growth - face
        hi[axis] = lo[axis] + 1.0
    world = make_world((AxisBox(Vec3(*lo.tolist()), Vec3(*hi.tolist())),),
                       lo=(-20, -20, -20), hi=(20, 20, 20))
    model = CollisionModel(world, quad)
    row, = model.inflated
    p = rng.uniform(row[MIN], row[MAX])
    gap = CULL_PAD + float(rng.choice([0.0, 0.0, -1e-15, 1e-15]))
    p[axis] = row[MAX][axis] + gap if up else row[MIN][axis] - gap
    u = np.cross(np.eye(3)[axis], rng.normal(size=3))
    u *= rng.uniform(0.0, 0.5) / np.linalg.norm(u)
    return model, p - u, p + u


def _culled_agrees(seed: int) -> bool:
    """`segment_free` of `_binade_face_case(seed)` on the model culled to
    the segment's box equals the full model's. Whether the segment is
    refused by a row that a cull padded by one CULL_PAD would drop."""
    model, a, b = _binade_face_case(seed)
    free = model.segment_free(a, b)
    assert model.within(np.minimum(a, b), np.maximum(a, b)).segment_free(a, b) is free
    row, = model.inflated
    lo, hi = np.minimum(a, b) - CULL_PAD, np.maximum(a, b) + CULL_PAD
    return not free and not bool(np.all((row[MIN] <= hi) & (row[MAX] >= lo)))


def test_a_culled_model_answers_segments_as_the_full_model():
    # `within` keeps every row that reaches twice CULL_PAD round the box:
    # segment_free grows a row by one pad, and at a binade boundary that
    # sum's rounding can pass a cull of one pad, which the floor counts. A
    # fixed seed sweep carries the floor
    assert sum(_culled_agrees(seed) for seed in range(400)) >= 40

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _culled_agrees(seed)

    check()


# segment_free ---------------------------------------------------------------

def row(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def test_segment_free_in_empty_world():
    world = make_world()
    quad = QuadModel()
    assert CollisionModel(world, quad).segment_free(row(-5, 0, 2), row(5, 0, 2))


def test_segment_through_cylinder_axis_is_blocked():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel()
    assert not CollisionModel(world, quad).segment_free(row(-5, 0, 2), row(5, 0, 2))


def test_grazing_segment_matches_fine_sampling_oracle():
    # closest approach = inflated radius - step/2; both resolutions agree here.
    # Two quads of growth 0.5 (inflated r=1.5) check 0.2 and 0.02 apart.
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    a, b = row(-3.0, 1.4, 2.0), row(3.0, 1.4, 2.0)
    coarse, fine = (CollisionModel(world, QuadModel(body_radius=body, safety_margin=0.5 - body))
                    for body in (0.4, 0.04))
    assert (coarse.quad.body_radius / 2, fine.quad.body_radius / 2) == (0.2, 0.02)
    assert coarse.inflated.tobytes() == fine.inflated.tobytes()
    assert coarse.segment_free(a, b) is fine.segment_free(a, b) is False


def test_segment_endpoints_checked():
    world = make_world((Cylinder(Vec3(0.0, 0.0, 0.0), 1.0, 5.0),))
    quad = QuadModel()
    # start point sits inside the inflated cylinder
    assert not CollisionModel(world, quad).segment_free(row(0.5, 0, 2), row(5, 0, 2))


def test_coarse_sampling_is_optimistic():
    # with nested sample points: fine says free => coarse says free, and the
    # predicate says free => both do; sampling also steps over obstacles
    # that the predicate refuses, which the floor counts
    rng = np.random.default_rng(77)
    quad = QuadModel()
    stepped_over = 0
    for _ in range(10):
        world = _random_world(rng)
        model = CollisionModel(world, quad)
        for _ in range(30):
            a = rng.uniform((-12, -12, 0), (12, 12, 9))
            b = rng.uniform((-12, -12, 0), (12, 12, 9))
            step = float(np.linalg.norm(b - a)) / 6  # divides evenly: halving nests points
            # spacings up to 5 m, which no quad of this growth checks at
            fine, coarse = (model.free_points(segment_samples(a, b, s)).all()
                            for s in (step / 2, step))
            if fine:
                assert coarse
            if model.segment_free(a, b):
                assert fine
            else:
                stepped_over += bool(coarse)
    assert stepped_over >= 5


def _spacing_case(seed: int):
    """(world, two quads of one growth, polyline) drawn from `seed`: one to
    three cylinders and boxes, some thin, and a polyline whose vertices
    cluster round one of them or line up along a graze of it, with repeated
    vertices and single-vertex polylines now and then."""
    rng = np.random.default_rng(seed)
    world = _random_world(rng)
    if rng.random() < 0.5:
        x = rng.uniform(-6, 6)
        world = make_world(unpack_rows(world.rows) + (AxisBox(
            Vec3(x, rng.uniform(-8, -2), 0.0),
            Vec3(x + rng.uniform(0.0, 0.1), rng.uniform(2, 8), rng.uniform(1, 8))),))
    growth = float(rng.uniform(0.05, 0.8))
    # one spacing near the coarsest the growth allows, one finer
    quads = [spaced_quad(float(rng.uniform(*share)) * growth / 2, growth)
             for share in ((0.5, 1.0), (0.02, 0.5))]
    rows = CollisionModel(world, quads[0]).inflated
    row = rows[int(rng.integers(len(rows)))]
    if rng.random() < 0.7:
        # vertices along a line that grazes the inflated obstacle a little
        # inside its side or one of its edges, where sparser samples can
        # step over it
        depth = float(10 ** rng.uniform(-6, -2))
        tilt = float(rng.uniform(-0.3, 0.3))
        if row[RADIUS] > 0:
            a = rng.uniform(0, 2 * np.pi)
            p = np.array([row[AXIS_X] + (row[RADIUS] - depth) * np.cos(a),
                          row[AXIS_Y] + (row[RADIUS] - depth) * np.sin(a),
                          rng.uniform(row[BOTTOM], row[TOP])])
            u = np.array([-np.sin(a), np.cos(a), tilt])
        else:
            i, j, k = rng.permutation(3)
            si, sj = rng.choice([-1.0, 1.0], 2)
            p = rng.uniform(row[MIN], row[MAX])
            p[i] = (row[MAX] if si > 0 else row[MIN])[i] - si * depth
            p[j] = (row[MAX] if sj > 0 else row[MIN])[j] - sj * depth
            u = si * np.eye(3)[i] - sj * np.eye(3)[j] + tilt * np.eye(3)[k]
        u /= np.linalg.norm(u)
        t = np.sort(rng.uniform(-3, 3, int(rng.integers(2, 7))))
        positions = p + t[:, None] * u
    else:
        middle = (row[MIN] + row[MAX]) / 2
        reach = (row[MAX] - row[MIN]) / 2 + 1.0
        positions = middle + rng.uniform(-1, 1, size=(int(rng.integers(1, 12)), 3)) * reach
    if len(positions) > 2 and rng.random() < 0.3:
        positions[1] = positions[0]
    positions[:, 2] = np.clip(positions[:, 2], 0.0, 10.0)
    return world, quads, positions


def _segments_agree(seed: int) -> tuple[int, int]:
    """`segments_free` of `_spacing_case(seed)` against `segment_free` per
    segment, on the model of each quad and on its copy culled to the
    polyline, which must all give one answer whatever the quad's spacing; a
    free segment's samples at that spacing are free. Returns the blocked
    segments and those whose samples at the coarser spacing are all free."""
    world, quads, positions = _spacing_case(seed)
    pairs = list(zip(positions, positions[1:]))
    model = CollisionModel(world, quads[0])
    expected = [model.segment_free(a, b) for a, b in pairs]
    for quad in quads:
        model = CollisionModel(world, quad)
        local = model.within(positions.min(axis=0), positions.max(axis=0))
        assert model.segments_free(positions).tolist() == expected
        assert local.segments_free(positions).tolist() == expected
        assert [local.segment_free(a, b) for a, b in pairs] == expected
    sampled = [bool(model.free_points(segment_samples(a, b, quads[0].body_radius / 2)).all())
               for a, b in pairs]
    assert all(s for s, free in zip(sampled, expected) if free)
    return expected.count(False), sum(s and not free for s, free in zip(sampled, expected))


def test_segments_free_is_segment_free_at_every_spacing():
    # quads of one growth inflate alike and differ only in their spacing,
    # which no answer depends on; grazing polylines whose samples miss the
    # obstacle are refused. A fixed seed sweep carries the floors, as in the
    # planner's properties
    blocked, stepped_over = np.sum([_segments_agree(seed) for seed in range(400)], axis=0)
    assert blocked >= 400
    assert stepped_over >= 20

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _segments_agree(seed)

    check()


def test_segment_free_refuses_a_corner_that_samples_step_over():
    # the segment cuts 7 mm into the inflated box's vertical edge at
    # (1, 1), between two samples half a body radius apart
    world = make_world((AxisBox(Vec3(-3, -3, 0), Vec3(0.7, 0.7, 5)),))
    quad = QuadModel(body_radius=0.3, safety_margin=0.0)
    model = CollisionModel(world, quad)
    a, b = row(-2, 3.99, 2), row(3.99, -2, 2)
    assert model.free_points(segment_samples(a, b, quad.body_radius / 2)).all()
    obstacle, = unpack_rows(world.rows)
    assert segment_pad_distance(inflate(obstacle, quad), a, b) == 0.0
    assert not model.segment_free(a, b)
    assert not model.segments_free(np.vstack([a, b]))[0]


# point_blocked: a new node no edge can reach ---------------------------------

def _point_case(seed: int):
    """(model, p, rng) drawn from `seed`: boxes and cylinders, some sunken,
    in bounds that reach below ground or stop at it (a bottom of 0.0 or
    -0.0), and a point inside an inflated obstacle, on or `TOUCH` off a box
    face, edge or corner or a cylinder's side, rim, top or bottom (inside
    or out), on or near a bounds face (inside or out), or anywhere; `rng`
    draws the case's other ends."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform((-8, -8, -3), (-4, -4, 0))
    if rng.random() < 0.3:
        lo[2] = rng.choice([0.0, -0.0])
    hi = rng.uniform((4, 4, 3), (8, 8, 8))
    obstacles = []
    for _ in range(int(rng.integers(1, 5))):
        base = rng.uniform(lo + 1, hi - 1)
        if rng.random() < 0.5:
            if rng.random() < 0.4:
                base[2] = rng.uniform(-2.0, 0.0)  # sunken: inflation keeps its base
            obstacles.append(Cylinder(Vec3(*base.tolist()), float(rng.uniform(0.1, 1.0)),
                                      float(rng.uniform(0.5, 3.0))))
        else:
            obstacles.append(AxisBox(Vec3(*base.tolist()),
                                     Vec3(*(base + rng.uniform(0.1, 2.0, 3)).tolist())))
    world = World(AxisBox(Vec3(*lo.tolist()), Vec3(*hi.tolist())), obstacle_rows(obstacles),
                  Vec3(*((lo + hi) / 2).tolist()))
    model = CollisionModel(world, QuadModel(body_radius=float(rng.uniform(0.05, 0.4)),
                                            safety_margin=float(rng.uniform(0.0, 0.3))))
    rows = model.inflated
    boxes, cylinders = rows[np.isnan(rows[:, RADIUS])], rows[rows[:, RADIUS] > 0]
    gap = float(rng.choice(TOUCH)) * float(rng.choice([-1.0, 1.0]))  # below 0: inside
    mode = int(rng.integers(6))
    if mode == 1 and len(boxes):        # inside a box, or off a face, edge or corner
        row = boxes[rng.integers(len(boxes))]
        p = rng.uniform(row[MIN], row[MAX])
        for axis in np.flatnonzero(rng.random(3) < 0.6):
            p[axis] = row[MAX][axis] + gap if rng.random() < 0.5 else row[MIN][axis] - gap
    elif mode == 2 and len(cylinders):  # inside a cylinder, or off its side or rim
        row = cylinders[rng.integers(len(cylinders))]
        a = rng.uniform(0, 2 * np.pi)
        k = row[RADIUS] + gap if rng.random() < 0.7 else row[RADIUS] * np.sqrt(rng.uniform())
        z = rng.choice([rng.uniform(row[BOTTOM], row[TOP]), row[BOTTOM], row[TOP]])
        p = np.array([row[AXIS_X] + k * np.cos(a), row[AXIS_Y] + k * np.sin(a), z])
    elif mode == 3 and len(cylinders):  # off a cylinder's top or bottom
        row = cylinders[rng.integers(len(cylinders))]
        a, k = rng.uniform(0, 2 * np.pi), row[RADIUS] * np.sqrt(rng.uniform())
        z = row[TOP] + gap if rng.random() < 0.5 else row[BOTTOM] - gap
        p = np.array([row[AXIS_X] + k * np.cos(a), row[AXIS_Y] + k * np.sin(a), z])
    elif mode == 4:                     # on or off a bounds face
        axis = int(rng.integers(3))
        p = rng.uniform(lo, hi)
        p[axis] = hi[axis] + gap if rng.random() < 0.5 else lo[axis] - gap
    else:
        p = rng.uniform(lo, hi)
    return model, p, rng


def _depth(model: CollisionModel, p: np.ndarray) -> float:
    """Distance from `p` to the nearest surface of the inflated obstacles
    that hold it (closed); inf when none does."""
    x, y, z = p.tolist()
    depths = [math.inf]
    for x0, y0, z0, x1, y1, z1, cx, cy, r, *_ in model.inflated.tolist():
        if math.isnan(r):
            depth = min(x - x0, x1 - x, y - y0, y1 - y, z - z0, z1 - z)
        else:
            depth = min(r - math.hypot(x - cx, y - cy), z - z0, z1 - z)
        if depth >= 0:
            depths.append(depth)
    return min(depths)


def _point_test_is_sound(seed: int) -> tuple[bool, bool]:
    """`point_blocked` of `_point_case(seed)`'s point: the same for its
    floats, and exactly `free_points`' closed membership plus the bounds as
    `segment_free` shrinks them. When it refuses p, `segment_free` refuses
    every edge with an end at p, both ways: the zero-length one, one along
    each axis and three from anywhere in the bounds; when
    `segment_free(p, p)` accepts p, so does the point test. Returns whether
    p was refused within 1e-9 m inside an inflated obstacle's surface and
    whether it lies on a bounds face."""
    model, p, rng = _point_case(seed)
    blocked = model.point_blocked(p)
    assert model.point_blocked(p.tolist()) is blocked
    assert blocked is (not model.in_bounds(p.tolist()) or not model.free_points(p[None])[0])
    if model.segment_free(p, p):
        assert not blocked
    lo, hi = model.world.bounds.min.as_array(), model.world.bounds.max.as_array()
    if blocked:
        ends = [p.copy()]
        for axis in range(3):
            ends.append(p.copy())
            ends[-1][axis] = rng.uniform(lo[axis], hi[axis])
        ends.extend(rng.uniform(lo, hi, (3, 3)))
        for a in ends:
            assert not model.segment_free(a, p)
            assert not model.segment_free(p, a)
    return blocked and _depth(model, p) <= 1e-9, bool(((p == lo) | (p == hi)).any())


def test_a_refused_point_ends_no_free_edge():
    # a fixed seed sweep carries the floors, as in the segment tests
    surface, on_face = np.sum([_point_test_is_sound(seed) for seed in range(600)], axis=0)
    assert surface >= 40
    assert on_face >= 5

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        _point_test_is_sound(seed)

    check()


def test_a_numpy_row_with_a_subnormal_direction_gets_its_floats_answer():
    # a numpy scalar division by a subnormal warns where a Python float's
    # silently gives inf, which every slab clip then reads
    model = CollisionModel(demo_world(), QuadModel())
    a, b = np.array([0.0, 0.0, 1.0]), np.array([5e-324, 3.0, 1.0])
    assert model.segment_free(a, b) is model.segment_free(a.tolist(), b.tolist()) is True
    assert model.segment_free(b, a) is model.segment_free(b.tolist(), a.tolist()) is True
    assert model.point_blocked(b) is model.point_blocked(b.tolist()) is False
    c = np.array([5e-324, 8.8, 1.0])  # on the pillar's axis
    assert model.segment_free(a, c) is False
    assert model.point_blocked(c) is True


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


@pytest.mark.parametrize("field", ["body_radius", "safety_margin", "max_speed", "max_yaw_rate"])
def test_quad_model_rejects_nan(field):
    with pytest.raises(ValueError, match=rf"^QuadModel\.{field} must be .*, got nan$"):
        QuadModel(**{field: math.nan})
