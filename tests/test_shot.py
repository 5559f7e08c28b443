import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.errors import DegenerateArc, DegenerateHeading
from arcshot.shot import (CLOCKWISE, COUNTERCLOCKWISE, ArcShotSpec, GlobalPath, aimed_row,
                          generate_arc, wrap_to_pi)
from arcshot.world import Vec3
from conftest import horizontal_distance

REL = 1e-9


# wrap_to_pi -----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_wrap_to_pi_lands_in_half_open_interval(angle):
    wrapped = wrap_to_pi(angle)
    assert -math.pi < wrapped <= math.pi


def test_wrap_to_pi_boundary_maps_to_positive_pi():
    assert wrap_to_pi(math.pi) == math.pi
    assert wrap_to_pi(-math.pi) == math.pi
    assert wrap_to_pi(3 * math.pi) == pytest.approx(math.pi)


@settings(max_examples=200, deadline=None)
@given(st.floats(-20, 20), st.integers(-3, 3))
def test_wrap_to_pi_is_periodic(angle, k):
    # compare on the circle so values straddling the +/-pi seam still agree
    difference = wrap_to_pi(wrap_to_pi(angle + k * math.tau) - wrap_to_pi(angle))
    assert abs(difference) < 1e-9


_SEAMS = [math.pi, -math.pi, math.nextafter(math.pi, 0), math.nextafter(math.pi, 4),
          math.nextafter(-math.pi, 0), math.nextafter(-math.pi, -4), 0.0, -0.0,
          5e-324, -5e-324, math.tau, -math.tau, 3 * math.pi, -3 * math.pi]
_YAW = st.one_of(st.sampled_from(_SEAMS), st.floats(-7, 7),
                 st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_YAW, min_size=1, max_size=12))
def test_path_rows_wrap_each_yaw_as_wrap_to_pi_does(yaws):
    # GlobalPath wraps only yaws outside (-pi, pi]; inside it the wrap is the identity
    rows = [(0.0, 0.0, 0.0, yaw) for yaw in yaws]
    got = GlobalPath(rows).rows[:, 3]
    want = np.array([wrap_to_pi(yaw) for yaw in yaws])
    assert got.tobytes() == want.tobytes()  # the same bits, -0.0 included


# aimed_row: a position and the yaw that faces the target -------------------

def test_face_target_cardinal_and_diagonal_headings():
    assert aimed_row(5.0, 0.0, 2.0, Vec3(0, 0, 0)) == (5.0, 0.0, 2.0, math.pi)
    assert aimed_row(0, -3, 1, Vec3(0, 0, 0))[3] == math.pi / 2
    assert aimed_row(1, 1, 0, Vec3(0, 0, 0))[3] == -3 * math.pi / 4


def test_face_target_ignores_altitude():
    assert aimed_row(5, 0, 9, Vec3(0, 0, 0))[3] == math.pi


def test_face_target_degenerate_heading():
    with pytest.raises(DegenerateHeading, match=r"position Vec3\(x=2, y=3, z=5\)"):
        aimed_row(2, 3, 5, Vec3(2, 3, 0))


# generate_arc: spec examples ------------------------------------------------

def quarter_spec(direction):
    return ArcShotSpec(Vec3(5, 0, 2), Vec3(-5, 0, 2), Vec3(0, 0, 0),
                       direction, 9)


def test_arc_counterclockwise_quarter_point():
    path = generate_arc(quarter_spec(COUNTERCLOCKWISE))
    x, y, z, yaw = path.rows[4].tolist()
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(5.0, rel=REL)
    assert z == pytest.approx(2.0, rel=REL)
    assert yaw == pytest.approx(-math.pi / 2, rel=REL)


def test_arc_clockwise_mirrors_the_sweep():
    path = generate_arc(quarter_spec(CLOCKWISE))
    x, y, _, yaw = path.rows[4].tolist()
    assert x == pytest.approx(0.0, abs=1e-9)
    assert y == pytest.approx(-5.0, rel=REL)
    assert yaw == pytest.approx(math.pi / 2, rel=REL)


def test_arc_radius_and_altitude_interpolate_linearly():
    spec = ArcShotSpec(Vec3(4, 0, 1), Vec3(0, 2, 3), Vec3(0, 0, 0),
                       COUNTERCLOCKWISE, 5)
    path = generate_arc(spec)
    radii = [math.hypot(x - spec.target.x, y - spec.target.y)
             for x, y, _, _ in path.rows.tolist()]
    zs = path.rows[:, 2].tolist()
    for i, (r, z) in enumerate(zip(radii, zs)):
        t = i / 4
        assert r == pytest.approx(4.0 + (2.0 - 4.0) * t, rel=REL)
        assert z == pytest.approx(1.0 + (3.0 - 1.0) * t, rel=REL)


def test_arc_errors_on_zero_radius():
    with pytest.raises(DegenerateArc):
        ArcShotSpec(Vec3(0, 0, 5), Vec3(1, 0, 5), Vec3(0, 0, 0))


def test_arc_spec_validation():
    with pytest.raises(ValueError):
        ArcShotSpec(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 0), "widdershins")
    with pytest.raises(ValueError):
        ArcShotSpec(Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 0),
                    COUNTERCLOCKWISE, 1)


def test_coincident_angles_force_a_full_revolution():
    spec = ArcShotSpec(Vec3(3, 0, 1), Vec3(3, 0, 5), Vec3(0, 0, 0),
                       COUNTERCLOCKWISE, 17)
    path = generate_arc(spec)
    angles = _polar_angles(path, spec.target)
    total = sum(_deltas(angles))
    assert total == pytest.approx(math.tau, rel=REL)


# generate_arc: properties ---------------------------------------------------

def _random_spec(rng) -> ArcShotSpec:
    while True:
        start = Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 8))
        end = Vec3(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, 8))
        target = Vec3(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 3))
        if horizontal_distance(start, target) > 0.5 and horizontal_distance(end, target) > 0.5:
            direction = CLOCKWISE if rng.random() < 0.5 else COUNTERCLOCKWISE
            return ArcShotSpec(start, end, target, direction,
                               int(rng.integers(8, 100)))


def _polar_angles(path: GlobalPath, target: Vec3) -> list[float]:
    return [math.atan2(y - target.y, x - target.x) for x, y, _, _ in path.rows.tolist()]


def _deltas(angles: list[float]) -> list[float]:
    return [wrap_to_pi(b - a) for a, b in zip(angles, angles[1:])]


def test_endpoint_fidelity_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        spec = _random_spec(rng)
        path = generate_arc(spec)
        for (x, y, z, _), want in ((path.rows[0].tolist(), spec.start),
                                   (path.rows[-1].tolist(), spec.end)):
            assert x == pytest.approx(want.x, rel=REL, abs=1e-9)
            assert y == pytest.approx(want.y, rel=REL, abs=1e-9)
            assert z == pytest.approx(want.z, rel=REL, abs=1e-9)


def test_equal_angular_spacing_with_one_sign():
    rng = np.random.default_rng(12)
    for _ in range(50):
        spec = _random_spec(rng)
        path = generate_arc(spec)
        deltas = _deltas(_polar_angles(path, spec.target))
        sign = 1.0 if spec.direction == COUNTERCLOCKWISE else -1.0
        for d in deltas:
            assert math.copysign(1.0, d) == sign
            assert d == pytest.approx(deltas[0], rel=REL, abs=1e-9)


def test_radial_distance_is_linear_in_sample_index():
    rng = np.random.default_rng(13)
    for _ in range(50):
        spec = _random_spec(rng)
        path = generate_arc(spec)
        r0 = horizontal_distance(spec.start, spec.target)
        r1 = horizontal_distance(spec.end, spec.target)
        n = len(path) - 1
        for i, (x, y, _, _) in enumerate(path.rows.tolist()):
            want = r0 + (r1 - r0) * i / n
            assert math.hypot(x - spec.target.x, y - spec.target.y) == \
                pytest.approx(want, rel=REL)


def test_every_yaw_faces_the_target():
    rng = np.random.default_rng(14)
    for _ in range(50):
        spec = _random_spec(rng)
        for x, y, _, yaw in generate_arc(spec).rows.tolist():
            off_x = spec.target.x - x
            off_y = spec.target.y - y
            norm = math.hypot(off_x, off_y)
            dot = (math.cos(yaw) * off_x + math.sin(yaw) * off_y) / norm
            assert dot >= 1.0 - REL


def test_reversal_symmetry():
    rng = np.random.default_rng(15)
    flipped = {CLOCKWISE: COUNTERCLOCKWISE, COUNTERCLOCKWISE: CLOCKWISE}
    for _ in range(30):
        spec = _random_spec(rng)
        forward = generate_arc(spec)
        backward = generate_arc(ArcShotSpec(
            spec.end, spec.start, spec.target, flipped[spec.direction],
            spec.sample_count))
        for a, b in zip(forward.rows.tolist(), backward.rows[::-1].tolist()):
            for u, v in zip(a[:3], b[:3]):  # x, y, z
                assert u == pytest.approx(v, rel=REL, abs=1e-9)


# pose normalization ---------------------------------------------------------

def test_pose_normalizes_yaw_on_construction():
    path = GlobalPath([(0, 0, 0, 3 * math.pi), (0, 0, 0, -math.pi)])
    assert path.rows[0, 3] == pytest.approx(math.pi)
    assert path.rows[1, 3] == math.pi


def test_global_path_requires_poses():
    with pytest.raises(ValueError, match="at least one pose"):
        GlobalPath(())
    with pytest.raises(ValueError, match="at least one pose"):
        GlobalPath(np.empty((0, 4)))


# GlobalPath rows ------------------------------------------------------------

def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_global_path_wraps_each_row_yaw_with_wrap_to_pi():
    rng = np.random.default_rng(16)
    yaws = [math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300, 0.0, -0.0,
            math.tau, *rng.uniform(-10, 10, 200), *rng.uniform(-1e9, 1e9, 50)]
    path = GlobalPath([(1.0, 2.0, 3.0, yaw) for yaw in yaws])
    assert path.rows[1, 3] == math.pi  # -pi maps to pi
    # compare every bit of `wrap_to_pi`'s math.remainder, the sign of zero too
    want = [wrap_to_pi(yaw) for yaw in yaws]
    assert _bits(path.rows[:, 3]) == _bits(want)
    assert path.rows[:, :3].tolist() == [[1.0, 2.0, 3.0]] * len(yaws)


def test_global_path_rows_are_read_only_and_not_shared():
    source = np.array([[1.0, 2.0, 3.0, 0.5], [4.0, 5.0, 6.0, 0.25]])
    path = GlobalPath(source)
    with pytest.raises(ValueError, match="read-only"):
        path.rows[0, 0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        path.position_array()[1, 2] = 9.0
    source[0, 0] = 9.0
    assert path.rows.tolist() == [[1.0, 2.0, 3.0, 0.5], [4.0, 5.0, 6.0, 0.25]]
    assert np.shares_memory(path.position_array(), path.rows)


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_global_path_rejects_a_non_finite_row(column, bad):
    row = [1.0, 2.0, 3.0, 0.5]
    row[column] = bad
    with pytest.raises(ValueError, match="finite"):
        GlobalPath([(0.0, 0.0, 0.0, 0.0), row])


def test_global_path_rejects_rows_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"finite \(n, 4\) rows, got shape \(1, 3\)"):
        GlobalPath([(0.0, 0.0, 0.0)])


def test_global_paths_compare_by_rows():
    spec = quarter_spec(COUNTERCLOCKWISE)
    arc = generate_arc(spec)
    assert arc == generate_arc(spec)
    assert arc == GlobalPath(arc.rows.copy())
    moved = arc.rows.copy()
    moved[3, 2] += 1e-9
    assert arc != GlobalPath(moved)
