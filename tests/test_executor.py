import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.errors import TimeoutExceeded
from arcshot.executor import (LOG_COLUMNS, MAX_ACCEL, FollowConfig, follow, polyline,
                              polyline_steps, reference_pieces)
from arcshot.local_planner import RrtParams
from arcshot.pipeline import plan_shot
from arcshot.shot import GlobalPath, wrap_to_pi
from arcshot.world import CollisionModel, QuadModel, Vec3
from conftest import demo_shot, demo_world, distance
import follow_reference
from follow_reference import reference_follow


CFG = FollowConfig()


# The control law, on the Vec3 reference's `command`, whose steps `follow`
# gives bit for bit (see the reference tests below).

def law(p, q, position, cfg, quad, p_yaw=0.0, q_yaw=0.0, yaw=0.0):
    """Velocity and yaw rate toward the reference at p, moving on to q."""
    return follow_reference.command((p, p_yaw), (q, q_yaw), position, yaw, cfg, quad)


def test_zero_command_at_the_target(quad):
    # a reference at rest, with the vehicle on it, commands nothing
    p = Vec3(1.0, -2.0, 3.0)
    assert law(p, p, p, CFG, quad, 0.5, 0.5, 0.5) == (Vec3(0.0, 0.0, 0.0), 0.0)


def test_linear_command_saturates_at_max_speed():
    quad, cfg = QuadModel(max_speed=2.0), FollowConfig(k_p=1.0)
    p = Vec3(0.0, 0.0, 0.0)
    v, _ = law(p, Vec3(10.0 * cfg.dt, 0.0, 0.0), p, cfg, quad)
    assert (v.x, v.y, v.z) == (pytest.approx(2.0), 0.0, 0.0)
    # the error counts before the scaling: feedforward and error in one sum
    v, _ = law(p, Vec3(0.0, 3.0 * cfg.dt, 0.0), Vec3(0.0, -1.0, 0.0), cfg, quad)
    assert (v.x, v.y, v.z) == (0.0, pytest.approx(2.0), 0.0)


def test_unsaturated_command_is_proportional(quad):
    cfg = FollowConfig(k_p=1.0)
    p = Vec3(0.0, 0.0, 0.0)
    v, _ = law(p, Vec3(0.0, 0.25 * cfg.dt, 0.0), Vec3(-0.5, 0.0, 0.0), cfg, quad)
    assert v.x == pytest.approx(0.5)
    assert v.y == 0.25  # the reference's own velocity passes unchanged


def test_yaw_command_takes_the_short_way_around(quad):
    # the start yaw and the first pose's yaw lie on either side of the pi
    # seam; the climb turns the yaw the short way, +2*eps, across the seam
    eps = 0.1
    path = GlobalPath([(0.0, 0.0, 2.0, -(math.pi - eps))])
    log = follow(path, (0.0, 0.0, 0.0, math.pi - eps, 0.0), CFG, quad)
    turns = [math.remainder(b - a, math.tau) for a, b in zip(log[:, 3], log[1:, 3])]
    assert all(turn >= 0.0 for turn in turns)
    assert sum(turns) == pytest.approx(2 * eps)
    assert log[-1, 3] == pytest.approx(-(math.pi - eps))


def test_yaw_command_saturates():
    quad, cfg = QuadModel(max_yaw_rate=0.5), FollowConfig(k_p=1.0)
    p = Vec3(0.0, 0.0, 0.0)
    _, yaw_rate = law(p, p, p, cfg, quad, p_yaw=3.0, q_yaw=3.0, yaw=0.0)
    assert yaw_rate == 0.5
    # a feedforward of -0.4 and an error of -0.2
    _, yaw_rate = law(p, p, p, cfg, quad, p_yaw=0.0, q_yaw=-0.4 * cfg.dt, yaw=0.2)
    assert yaw_rate == -0.5


def test_takeoff_only_run_is_pure_vertical(quad):
    path = GlobalPath([(2.0, -1.0, 2.0, 1.0)])
    start = (2.0, -1.0, 0.0, 0.0, 0.0)
    log = follow(path, start, replace(CFG, max_time=60.0), quad)
    zs = log[:, 2].tolist()
    assert all(x == 2.0 and y == -1.0 for x, y in log[:, :2].tolist())
    assert zs == sorted(zs)
    assert distance(log[-1, :3], path.rows[0, :3]) <= CFG.waypoint_tolerance


def test_two_waypoint_path_converges(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (4, 0, 2, 0.0)])
    start = (0, 0, 0, 0.0, 0.0)
    log = follow(path, start, CFG, quad)
    assert distance(log[-1, :3], (4, 0, 2)) <= CFG.waypoint_tolerance


def test_commands_respect_limits_along_the_whole_log(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (6, 3, 2, 2.0)])
    start = (0, 0, 0, -2.0, 0.0)
    log = follow(path, start, CFG, quad)
    for a, b in zip(log, log[1:]):
        assert distance(a[:3], b[:3]) <= \
            quad.max_speed * CFG.dt + 1e-12
        dyaw = math.remainder(b[3] - a[3], math.tau)
        assert abs(dyaw) <= quad.max_yaw_rate * CFG.dt + 1e-12
        assert b[4] == pytest.approx(a[4] + CFG.dt)


def test_waypoints_are_reached_in_order(quad):
    path = GlobalPath([(1, 0, 2, 0.0), (2, 1, 2, 0.0), (3, 0, 2, 0.0)])
    start = (0, 0, 0, 0.0, 0.0)
    log = follow(path, start, CFG, quad)
    first_hit = []
    for waypoint in path.rows[:, :3]:
        hit = next(i for i, row in enumerate(log)
                   if distance(row[:3], waypoint)
                   <= CFG.waypoint_tolerance)
        first_hit.append(hit)
    assert first_hit == sorted(first_hit)


def test_follow_is_deterministic(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (4, 2, 3, 1.0)])
    start = (0, 0, 0, 0.0, 0.0)
    a = follow(path, start, CFG, quad)
    b = follow(path, start, CFG, quad)
    assert a.tobytes() == b.tobytes()


def test_timeout_carries_the_partial_log(quad):
    path = GlobalPath([(10, 10, 5, 0.0)])
    start = (-10, -10, 0, 0.0, 0.0)
    with pytest.raises(TimeoutExceeded) as err:
        follow(path, start, replace(CFG, max_time=1.0), quad)
    log = err.value.log
    assert len(log) > 1
    assert log[-1, 4] <= 1.0


@pytest.mark.parametrize("t", [0.0, 100.0, 200.0])
def test_max_time_bounds_the_time_elapsed_since_the_start(t):
    # a replay that starts late on the clock gets the same max_time as one at 0
    path = GlobalPath([(0, 0, 1, 0.5), (2, 0, 1, 0.5)])
    log = follow(path, (0, 0, 1, 0.5, t), FollowConfig(), QuadModel())
    assert len(log) == 76
    assert log[-1, 4] - t == pytest.approx(1.5)


@pytest.mark.parametrize("column", range(len(LOG_COLUMNS)))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_follow_refuses_a_non_finite_start_value(column, bad, quad):
    # a NaN yaw or time would fill the log with NaN, and a NaN time never
    # times out; the error names the column
    start = [0.0, 0.0, 1.0, 0.5, 0.0]
    start[column] = bad
    with pytest.raises(ValueError) as err:
        follow(GlobalPath([(0, 0, 1, 0.5), (2, 0, 1, 0.5)]), start, CFG, quad)
    assert str(err.value) == f"start.{LOG_COLUMNS[column]} must be finite, got {bad!r}"


def test_follow_config_stability_guard():
    with pytest.raises(ValueError):
        FollowConfig(dt=0.5, k_p=2.0)  # k_p * dt = 1.0
    with pytest.raises(ValueError):
        FollowConfig(waypoint_tolerance=0.0)


@pytest.mark.parametrize("field", ["dt", "k_p", "waypoint_tolerance", "max_time"])
def test_follow_config_rejects_nan(field):
    with pytest.raises(ValueError, match=rf"^{field} must be .*, got nan$"):
        FollowConfig(**{field: math.nan})


def test_replayed_demo_plan_avoids_raw_obstacles(quad):
    world = demo_world()
    result = plan_shot(CollisionModel(world, quad), demo_shot(),
                       RrtParams(extend_dist=0.2, seed=7))
    path = result.final_path
    start = (*path.rows[0, :2].tolist(), 0.0, 0.0, 0.0)
    log = follow(path, start, CFG, quad)
    # check against raw (uninflated) obstacles via a point-sized vehicle
    point_quad = QuadModel(body_radius=1e-9, safety_margin=0.0)
    model = CollisionModel(world, point_quad)
    assert model.free_points(log[:, :3]).all()


# Vec3 reference follower (tests/follow_reference.py) --------------------------
# `follow` must give every state, partial log and error kind of the reference
# bit for bit.

def _outcome(run):
    """("ok" | "timeout", rows as bytes) or ("error", "ValueError") of one replay."""
    def rows(log):
        return (log if isinstance(log, np.ndarray) else follow_reference.rows(log)).tobytes()
    try:
        return "ok", rows(run())
    except TimeoutExceeded as exc:
        return "timeout", rows(exc.log)
    except ValueError as exc:
        return "error", type(exc).__name__


def assert_replays_match(path, start, cfg, quad):
    want = _outcome(lambda: reference_follow(path, start, cfg, quad))
    got = _outcome(lambda: follow(path, start, cfg, quad))
    assert got == want
    return got[0]


def _log(path, start, cfg, quad) -> np.ndarray:
    """The replay's log, or its partial log on a timeout."""
    try:
        return follow(path, start, cfg, quad)
    except TimeoutExceeded as exc:
        return exc.log


def first_yaw_rate(path, start, cfg, quad) -> float:
    """The first step's yaw rate before its clamp, from the Vec3 reference."""
    points = follow_reference.vertices(path, start)
    pieces = follow_reference.profile(follow_reference.steps_of(points), cfg, quad)
    p_yaw = wrap_to_pi(points[0].yaw)
    _, q_yaw = follow_reference.reference_at(pieces, points[-1], cfg.dt)
    return wrap_to_pi(q_yaw - p_yaw) / cfg.dt + cfg.k_p * wrap_to_pi(p_yaw - start[3])


_COORD = st.floats(-12.0, 12.0)
# yaws on and next to the +-pi seam, signed zeros, as well as anywhere in between
_YAW = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), math.pi - 1e-9, 1e-300, 0.0, -0.0]))
# Edges that every case of a kind meets: a first yaw error of exactly -pi
# (wrapped to +pi), a first yaw rate past its clamp, yaw errors of +-0.0 all
# the way, a reference that cruises at max_speed, and a timeout whose elapsed
# time reaches max_time exactly (a next step past max_time stops it, equal goes on).
STEP_EDGES = ("yaw_seam", "yaw_clamp", "yaw_zero", "speed", "timeout")


@st.composite
def polylines(draw):
    """Poses on random polylines: repeated poses, U-turns, steps far shorter
    than a tick's travel, runs along one line and slight bends, as well as
    anywhere."""
    rows = [[draw(_COORD), draw(_COORD), draw(st.floats(0.5, 8.0)), draw(_YAW)]]
    for _ in range(draw(st.integers(0, 5))):
        x, y, z, _ = rows[-1]
        kind = draw(st.sampled_from(["any", "any", "repeat", "near", "back", "on",
                                     "bend", "bend"]))
        if kind == "repeat":
            rows.append([x, y, z, draw(_YAW)])
        elif kind == "near":
            step = draw(st.floats(1e-9, 0.05))
            rows.append([x + step, y, z + step, draw(_YAW)])
        elif kind == "back" and len(rows) > 1:
            rows.append(list(rows[-2]))
        elif kind == "on" and len(rows) > 1:
            px, py, pz, _ = rows[-2]
            rows.append([2 * x - px, 2 * y - py, 2 * z - pz, draw(_YAW)])
        elif kind == "bend" and len(rows) > 1:
            # a slight turn, met while still speeding up: the turn's cap
            # and the speed change share one tick's velocity step
            px, py, _, yaw = rows[-2]
            heading = math.atan2(y - py, x - px) + draw(st.floats(-0.3, 0.3))
            step = draw(st.floats(0.2, 3.0))
            rows.append([x + step * math.cos(heading), y + step * math.sin(heading), z, yaw])
        else:
            rows.append([draw(_COORD), draw(_COORD), draw(st.floats(0.5, 8.0)), draw(_YAW)])
    return rows


@st.composite
def replay_cases(draw, edge="any", max_time=None):
    if edge == "any":
        edge = draw(st.sampled_from((None, *STEP_EDGES)))
    rows = draw(polylines())
    # the log's first row, x, y, z, yaw, t
    start = [draw(_COORD), draw(_COORD), draw(st.floats(0.0, 3.0)), draw(_YAW),
             draw(st.sampled_from([0.0, 0.37, 5.0]))]
    if draw(st.booleans()):  # the column rises from right under the first pose
        start[:2] = rows[0][:2]
    dt = draw(st.floats(0.01, 0.05))
    cfg = FollowConfig(dt=dt, k_p=draw(st.floats(0.2, 0.99 / dt)),
                       waypoint_tolerance=draw(st.floats(0.05, 0.6)))
    quad = QuadModel(max_speed=draw(st.floats(0.2, 6.0)),
                     max_yaw_rate=draw(st.floats(0.1, 3.0)))
    if max_time is None:
        max_time = draw(st.floats(0.2, 40.0))
    if edge in ("yaw_seam", "yaw_clamp"):
        # no column: the reference starts at the first pose, with its yaw
        start[:3] = rows[0][:3]
        if all(row[:3] == rows[0][:3] for row in rows):
            rows.append([rows[0][0] + 1.0, *rows[0][1:]])
    if edge == "yaw_seam":
        yaw = draw(st.floats(-math.pi, 0.0, exclude_min=True).filter(
            lambda yaw: yaw - (yaw + math.pi) == -math.pi))
        start[3] = yaw + math.pi
        rows[0][3] = yaw
    elif edge == "yaw_clamp":
        start[3] = wrap_to_pi(rows[0][3] + draw(st.floats(0.5, 3.0)))
        cfg = replace(cfg, k_p=0.99 / dt)
    elif edge == "yaw_zero":
        for row in rows:
            row[3] = draw(st.sampled_from([0.0, -0.0]))
        start[3] = draw(st.sampled_from([0.0, -0.0]))
    elif edge == "speed":
        # a straight climb long enough to reach max_speed and slow down again
        rise = (quad.max_speed ** 2 / MAX_ACCEL + 2.0 * quad.max_speed * cfg.dt
                + draw(st.floats(0.1, 2.0)))
        rows = [[start[0], start[1], start[2] + rise, wrap_to_pi(start[3])]]
        max_time = 1e3
    elif edge == "timeout":
        # max_time is the time `steps` steps take, steps * dt, after which
        # the replay must not yet stop; the reference cannot arrive that soon
        rows[0][2] = start[2] + draw(st.floats(0.7, 5.0))
        steps = draw(st.integers(1, 30))
        max_time = steps * cfg.dt
        quad = replace(quad, max_speed=min(quad.max_speed, 0.5 / (steps * cfg.dt)))
    return GlobalPath(rows), tuple(start), replace(cfg, max_time=max_time), quad


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize("edge", STEP_EDGES)
def test_replay_cases_meet_each_step_edge(edge, data):
    path, start, cfg, quad = data.draw(replay_cases(edge))
    outcome = assert_replays_match(path, start, cfg, quad)
    yaw_rate = first_yaw_rate(path, start, cfg, quad)
    if edge == "yaw_seam":
        assert path.rows[0, 3] - start[3] == -math.pi
        assert wrap_to_pi(path.rows[0, 3] - start[3]) == math.pi
    elif edge == "yaw_clamp":
        assert abs(yaw_rate) > quad.max_yaw_rate
        log = _log(path, start, cfg, quad)
        turn = math.remainder(log[1, 3] - log[0, 3], math.tau)
        assert abs(turn) == pytest.approx(quad.max_yaw_rate * cfg.dt)
    elif edge == "yaw_zero":
        assert yaw_rate == 0.0
        assert not _log(path, start, cfg, quad)[:, 3].any()
    elif edge == "speed":
        assert outcome == "ok"
        speeds = np.linalg.norm(np.diff(_log(path, start, cfg, quad)[:, :3], axis=0), axis=1)
        assert speeds.max() == pytest.approx(quad.max_speed * cfg.dt, rel=1e-9)
    elif edge == "timeout":
        assert outcome == "timeout"
        with pytest.raises(TimeoutExceeded) as err:
            follow(path, start, cfg, quad)
        # the last logged step lands exactly max_time after the start
        assert err.value.log[-1, 4] == start[4] + cfg.max_time


@settings(max_examples=150, deadline=None)
@given(replay_cases())
def test_float_follow_matches_the_vec3_reference_bit_for_bit(case):
    assert_replays_match(*case)


@settings(max_examples=100, deadline=None)
@given(replay_cases())
def test_every_logged_step_is_command_for_of_the_state_before_it(case):
    # `follow` writes the control law out in place; the Vec3 reference's
    # `command`, fed the reference at the tick before and after each logged
    # state and that state itself, gives the next state bit for bit
    path, start, cfg, quad = case
    log = _log(path, start, cfg, quad)
    points = follow_reference.vertices(path, start)
    pieces = follow_reference.profile(follow_reference.steps_of(points), cfg, quad)
    ref = points[0].position, wrap_to_pi(points[0].yaw)
    clock = 0.0
    for k, ((x, y, z, yaw, _), after) in enumerate(zip(log.tolist(), log[1:].tolist()), 1):
        clock = clock + cfg.dt
        ref_next = follow_reference.reference_at(pieces, points[-1], clock)
        v, yaw_rate = follow_reference.command(ref, ref_next, Vec3(x, y, z), yaw, cfg, quad)
        ref = ref_next
        want = (x + v.x * cfg.dt, y + v.y * cfg.dt, z + v.z * cfg.dt,
                wrap_to_pi(yaw + yaw_rate * cfg.dt), start[4] + k * cfg.dt)
        assert [v.hex() for v in after] == [v.hex() for v in want]


def test_reference_cases_cover_saturation_and_timeouts():
    # the properties only prove something if their cases reach both ends:
    # a timeout, an arrival, and a start already at the only pose
    quad = QuadModel(max_speed=0.5)
    start = (0.0, 0.0, 0.0, math.pi, 0.0)
    far = GlobalPath([(9.0, -9.0, 3.0, -math.pi + 1e-9)])
    near = GlobalPath([(0.1, 0.0, 0.3, -math.pi + 1e-9)])
    assert assert_replays_match(far, start, replace(CFG, max_time=2.0), quad) == "timeout"
    assert assert_replays_match(near, start, CFG, quad) == "ok"
    here = GlobalPath([(0.0, 0.0, 0.0, 0.5)])
    assert assert_replays_match(here, start, CFG, quad) == "ok"
    assert len(follow(here, start, CFG, quad)) == 1
    # a pose one tolerance up is flown to, not counted as reached at the start
    at_tolerance = GlobalPath([(0.0, 0.0, CFG.waypoint_tolerance, 0.0)])
    log = follow(at_tolerance, start, CFG, quad)
    assert len(log) > 2 and log[-1, 2] == pytest.approx(CFG.waypoint_tolerance)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_COORD, _COORD, _COORD), st.tuples(_COORD, _COORD, _COORD),
       st.floats(0.01, 0.05), st.floats(0.05, 0.99), st.floats(0.1, 3.0), _YAW, _YAW,
       st.floats(-3.0, 3.0), st.booleans())
def test_command_matches_the_vec3_reference(feed, err, dt, k_p_dt, max_yaw_rate, ref_yaw,
                                            state_yaw, yaw_step, on_the_edge):
    # the Vec3 reference's command is the reference's step over dt plus k_p
    # times the error, scaled by max_speed / speed only when `speed >
    # max_speed` (`on_the_edge` puts max_speed at exactly the sum's speed,
    # where it stays unscaled), and the yaw rate the same sum, clamped
    cfg = FollowConfig(dt=dt, k_p=k_p_dt / dt)
    p = Vec3(0.0, 0.0, 0.0)
    q = follow_reference.add(p, follow_reference.scaled(Vec3(*feed), dt))
    position = follow_reference.sub(p, Vec3(*err))
    want = [(q.x - p.x) / dt + cfg.k_p * (p.x - position.x),
            (q.y - p.y) / dt + cfg.k_p * (p.y - position.y),
            (q.z - p.z) / dt + cfg.k_p * (p.z - position.z)]
    speed = math.sqrt(want[0] * want[0] + want[1] * want[1] + want[2] * want[2])
    max_speed = speed if on_the_edge and speed > 0 else 1.0
    if speed > max_speed:
        want = [v * (max_speed / speed) for v in want]
    quad = QuadModel(max_speed=max_speed, max_yaw_rate=max_yaw_rate)
    next_yaw = wrap_to_pi(ref_yaw + yaw_step * dt)
    rate = (wrap_to_pi(next_yaw - ref_yaw) / dt + cfg.k_p * wrap_to_pi(ref_yaw - state_yaw))
    want.append(max(-max_yaw_rate, min(max_yaw_rate, rate)))
    v, yaw_rate = follow_reference.command((p, ref_yaw), (q, next_yaw), position, state_yaw,
                                           cfg, quad)
    assert [x.hex() for x in (v.x, v.y, v.z, yaw_rate)] == [x.hex() for x in want]


@pytest.mark.parametrize("start_x, target_x, quad, cfg, outcome", [
    # the difference overflows: the polyline has no finite length
    (1.7e308, -1.7e308, QuadModel(), CFG, "error"),
    # only the squared length would overflow: the replay runs and times out
    (1e200, -1e200, QuadModel(), CFG, "timeout"),
    # an unbounded speed from a config file: the reference never arrives
    (0.0, 1.7976931348623157e308, QuadModel(max_speed=math.inf),
     FollowConfig(dt=0.5, k_p=math.nextafter(2.0, 0.0)), "error"),
])
def test_float_follow_overflows_like_the_vec3_reference(start_x, target_x, quad, cfg,
                                                        outcome):
    path = GlobalPath([(start_x, 0.0, 1.0, 0.0), (target_x, 0.0, 1.0, 0.0)])
    start = (start_x, 0.0, 1.0, 0.0, 0.0)
    assert assert_replays_match(path, start, replace(cfg, max_time=1.0), quad) == outcome


# Properties of the replay ------------------------------------------------------

def _polyline_gap(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from each point to the polyline through `vertices`."""
    if len(vertices) == 1:
        return np.linalg.norm(points - vertices[0], axis=1)
    a, b = vertices[:-1], vertices[1:]
    d = b - a
    along = np.einsum("sk,psk->ps", d, points[:, None, :] - a)
    squared = np.einsum("sk,sk->s", d, d)  # 0 on a step too short to square
    f = np.divide(along, squared, out=np.zeros_like(along), where=squared > 0)
    nearest = a + np.clip(f, 0.0, 1.0)[..., None] * d
    return np.linalg.norm(points[:, None, :] - nearest, axis=2).min(axis=1)


@settings(max_examples=200, deadline=None)
@given(replay_cases(), st.booleans())
def test_replay_stays_within_its_limits_on_the_polyline(case, to_the_end):
    path, start, cfg, quad = case
    steps = polyline_steps(polyline(path, start))
    pieces = reference_pieces(steps, cfg, quad)
    finish = pieces[-1][3] if pieces else 0.0
    # the reference never crawls: it takes at most twice as long as flying
    # every step at max_speed, turning every yaw at max_yaw_rate and
    # stopping at every vertex
    plain = (sum(step[8] for step in steps) / quad.max_speed
             + sum(abs(step[7]) for step in steps) / quad.max_yaw_rate
             + (len(steps) + 1) * 2.0 * quad.max_speed / MAX_ACCEL)
    assert finish <= 2.0 * plain
    if to_the_end:  # time enough to arrive, however long the polyline
        cfg = replace(cfg, max_time=finish + 1.0)
    try:
        log, arrived = follow(path, start, cfg, quad), True
    except TimeoutExceeded as exc:
        log, arrived = exc.log, False
    assert len(log) >= 1
    # the k-th state at start's t + k * dt, so strictly increasing
    times = log[:, 4].tolist()
    assert times == [start[4] + k * cfg.dt for k in range(len(log))]
    assert all(a < b for a, b in zip(times, times[1:]))
    # every state on the column-plus-path polyline
    x, y, z = start[:3]
    vertices = np.vstack([[x, y, z], [x, y, path.rows[0, 2]], path.rows[:, :3]])
    assert _polyline_gap(log[:, :3], vertices).max() <= 1e-6
    # speed, and velocity steps from rest to rest, within their bounds
    v = np.diff(log[:, :3], axis=0) / cfg.dt
    assert (np.linalg.norm(v, axis=1) <= quad.max_speed * (1 + 1e-9)).all()
    v = np.vstack([np.zeros((1, 3)), v] + ([np.zeros((1, 3))] if arrived else []))
    steps = np.linalg.norm(np.diff(v, axis=0), axis=1)
    assert (steps <= MAX_ACCEL * cfg.dt + 1e-9).all(), steps.max()
    # yaw steps within the yaw rate
    turns = np.abs(np.remainder(np.diff(log[:, 3]) + np.pi, 2 * np.pi) - np.pi)
    assert (turns <= quad.max_yaw_rate * cfg.dt + 1e-12).all()
    if arrived:
        assert distance(log[-1, :3], path.rows[-1, :3]) <= cfg.waypoint_tolerance
    else:
        assert len(log) * cfg.dt > cfg.max_time


def test_the_profile_rests_at_both_ends_and_its_pieces_meet():
    path = GlobalPath([(0, 0, 2, 0.0), (3, 0, 2, 0.5), (3, 0.02, 2, 0.5), (0, 0.02, 2, 0.0)])
    start = (0, 0, 0, 0.0, 0.0)
    pieces = reference_pieces(polyline_steps(polyline(path, start)), CFG, QuadModel())
    assert pieces[0][7] == 0.0 and pieces[-1][9] == 0.0
    for a, b in zip(pieces, pieces[1:]):
        assert b[0] == a[3]  # in time
        assert b[7] == a[9]  # in speed


def test_a_zone_takes_the_yaw_cap_of_a_short_turn_and_keeps_its_width(quad):
    # a nanometre step that turns the yaw by 1.5 rad caps its speed near
    # 1e-9 m/s; the corner zone around it, which holds its speed constant,
    # takes that cap too rather than crawling at it over its millimetre
    start = (0, 0, 0, 0.0, 0.0)
    path = GlobalPath([(0, 0, 2, 0.0), (3, 0, 2, 0.0), (3 + 1e-9, 1e-9, 2, 1.5),
                       (3, 3, 2, 1.5)])
    pieces = reference_pieces(polyline_steps(polyline(path, start)), CFG, quad)
    assert pieces[-1][3] < 10.0
    assert assert_replays_match(path, start, CFG, quad) == "ok"
    # steps whose yaw caps, times dt, are below one ulp of the corner's arc
    # length, 0.5 mm past it or right at it (5e-324 m): the corner's zone
    # keeps a width, so it still bounds the corner's velocity step
    for after in ([(3, 5e-4, 2, 0.0), (3, 5e-4 + 1e-15, 2, 1.5)], [(3, 5e-324, 2, 1.5)]):
        path = GlobalPath([(0, 0, 2, 0.0), (3, 0, 2, 0.0), *after, (3, 3, 2, 1.5)])
        assert assert_replays_match(path, start, CFG, quad) == "ok"
        log = follow(path, start, CFG, quad)
        v = np.vstack([np.zeros((1, 3)), np.diff(log[:, :3], axis=0) / CFG.dt, np.zeros((1, 3))])
        assert np.linalg.norm(np.diff(v, axis=0), axis=1).max() <= MAX_ACCEL * CFG.dt + 1e-9
        assert len(log) < 500
