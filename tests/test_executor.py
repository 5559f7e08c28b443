import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot.errors import TimeoutExceeded
from arcshot.executor import FollowConfig, SimState, command_for, follow
from arcshot.local_planner import RrtParams
from arcshot.pipeline import plan_shot
from arcshot.shot import GlobalPath, Pose4, wrap_to_pi
from arcshot.world import CollisionModel, QuadModel, Vec3
from conftest import demo_shot, demo_world


CFG = FollowConfig()


def command(state: SimState, target: Pose4, cfg: FollowConfig, quad: QuadModel):
    """`command_for` fed as `follow` feeds it, from a state and a target pose."""
    err = target.position - state.position
    return command_for(err.x, err.y, err.z, err.norm(),
                       wrap_to_pi(target.yaw - state.yaw), cfg, quad)


def position(row) -> Vec3:
    return Vec3(*(float(v) for v in row[:3]))


def test_zero_command_at_the_target(quad):
    state = SimState(Vec3(1, 2, 3), 0.5)
    *linear, yaw_rate = command(state, Pose4(Vec3(1, 2, 3), 0.5), CFG, quad)
    assert Vec3(*linear) == Vec3(0, 0, 0)
    assert yaw_rate == 0.0


def test_linear_command_saturates_at_max_speed():
    quad = QuadModel(max_speed=2.0)
    state = SimState(Vec3(0, 0, 0), 0.0)
    *linear, _ = command(state, Pose4(Vec3(10, 0, 0), 0.0),
                         FollowConfig(k_p=1.0), quad)
    assert Vec3(*linear) == Vec3(2.0, 0.0, 0.0)


def test_unsaturated_command_is_proportional(quad):
    state = SimState(Vec3(0, 0, 0), 0.0)
    vx, _, _, _ = command(state, Pose4(Vec3(0.5, 0, 0), 0.0),
                          FollowConfig(k_p=1.0), quad)
    assert vx == pytest.approx(0.5)


def test_yaw_command_takes_the_short_way_around(quad):
    eps = 0.1
    state = SimState(Vec3(0, 0, 0), math.pi - eps)
    target = Pose4(Vec3(0, 0, 0), -(math.pi - eps))
    *_, yaw_rate = command(state, target, FollowConfig(k_p=1.0), quad)
    # crossing the pi seam: shortest rotation is +2*eps, not -2*(pi - eps)
    assert yaw_rate == pytest.approx(2 * eps)


def test_yaw_command_saturates():
    quad = QuadModel(max_yaw_rate=0.5)
    state = SimState(Vec3(0, 0, 0), 0.0)
    *_, yaw_rate = command(state, Pose4(Vec3(0, 0, 0), 3.0), FollowConfig(k_p=1.0), quad)
    assert yaw_rate == 0.5


def test_takeoff_only_run_is_pure_vertical(quad):
    path = GlobalPath([(2.0, -1.0, 2.0, 1.0)])
    start = SimState(Vec3(2.0, -1.0, 0.0), 0.0)
    log = follow(path, start, replace(CFG, max_time=60.0), quad)
    zs = log[:, 2].tolist()
    assert all(x == 2.0 and y == -1.0 for x, y in log[:, :2].tolist())
    assert zs == sorted(zs)
    assert position(log[-1]).distance_to(path[0].position) <= CFG.waypoint_tolerance


def test_two_waypoint_path_converges(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (4, 0, 2, 0.0)])
    start = SimState(Vec3(0, 0, 0), 0.0)
    log = follow(path, start, CFG, quad)
    assert position(log[-1]).distance_to(Vec3(4, 0, 2)) <= CFG.waypoint_tolerance


def test_commands_respect_limits_along_the_whole_log(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (6, 3, 2, 2.0)])
    start = SimState(Vec3(0, 0, 0), -2.0)
    log = follow(path, start, CFG, quad)
    for a, b in zip(log, log[1:]):
        assert position(a).distance_to(position(b)) <= \
            quad.max_speed * CFG.dt + 1e-12
        dyaw = math.remainder(b[3] - a[3], math.tau)
        assert abs(dyaw) <= quad.max_yaw_rate * CFG.dt + 1e-12
        assert b[4] == pytest.approx(a[4] + CFG.dt)


def test_waypoints_are_reached_in_order(quad):
    path = GlobalPath([(1, 0, 2, 0.0), (2, 1, 2, 0.0), (3, 0, 2, 0.0)])
    start = SimState(Vec3(0, 0, 0), 0.0)
    log = follow(path, start, CFG, quad)
    first_hit = []
    for waypoint in path.position_array():
        hit = next(i for i, row in enumerate(log)
                   if position(row).distance_to(position(waypoint))
                   <= CFG.waypoint_tolerance)
        first_hit.append(hit)
    assert first_hit == sorted(first_hit)


def test_follow_is_deterministic(quad):
    path = GlobalPath([(0, 0, 2, 0.0), (4, 2, 3, 1.0)])
    start = SimState(Vec3(0, 0, 0), 0.0)
    a = follow(path, start, CFG, quad)
    b = follow(path, start, CFG, quad)
    assert a.tobytes() == b.tobytes()


def test_timeout_carries_the_partial_log(quad):
    path = GlobalPath([(10, 10, 5, 0.0)])
    start = SimState(Vec3(-10, -10, 0), 0.0)
    with pytest.raises(TimeoutExceeded) as err:
        follow(path, start, replace(CFG, max_time=1.0), quad)
    log = err.value.log
    assert len(log) > 1
    assert log[-1, 4] <= 1.0


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
    start = SimState(Vec3(path[0].position.x, path[0].position.y, 0.0), 0.0)
    log = follow(path, start, CFG, quad)
    # check against raw (uninflated) obstacles via a point-sized vehicle
    point_quad = QuadModel(body_radius=1e-9, safety_margin=0.0)
    model = CollisionModel(world, point_quad)
    assert model.free_points(log[:, :3]).all()


# Vec3 reference follower ------------------------------------------------------
# The follower as it was before the float loop, kept verbatim as the oracle:
# the float loop must give every state, partial log and error bit for bit.

@dataclass(frozen=True)
class VelocityCommand:
    linear: Vec3
    yaw_rate: float


def scaled(v: Vec3, k: float) -> Vec3:
    return Vec3(v.x * k, v.y * k, v.z * k)


def reference_command_for(state: SimState, target: Pose4, cfg: FollowConfig,
                          quad: QuadModel) -> VelocityCommand:
    err = target.position - state.position
    speed = cfg.k_p * err.norm()
    if speed > quad.max_speed:
        linear = scaled(err, quad.max_speed / err.norm())
    else:
        linear = scaled(err, cfg.k_p)
    yaw_err = wrap_to_pi(target.yaw - state.yaw)
    yaw_rate = max(-quad.max_yaw_rate, min(quad.max_yaw_rate, cfg.k_p * yaw_err))
    return VelocityCommand(linear, yaw_rate)


def reference_follow(path: GlobalPath, start: SimState, cfg: FollowConfig,
                     quad: QuadModel) -> list[SimState]:
    first = path[0]
    takeoff = Pose4(Vec3(start.position.x, start.position.y, first.position.z),
                    first.yaw)
    targets = [takeoff, *(path[i] for i in range(len(path)))]
    state = start
    log = [state]
    active = 0
    while True:
        while (active < len(targets)
               and state.position.distance_to(targets[active].position)
               <= cfg.waypoint_tolerance):
            active += 1
        if active == len(targets):
            return log
        if state.time + cfg.dt > cfg.max_time:
            raise TimeoutExceeded(log)
        cmd = reference_command_for(state, targets[active], cfg, quad)
        state = SimState(
            position=state.position + scaled(cmd.linear, cfg.dt),
            yaw=wrap_to_pi(state.yaw + cmd.yaw_rate * cfg.dt),
            time=state.time + cfg.dt,
        )
        log.append(state)


def _outcome(run):
    """("ok" | "timeout", rows as bytes) or ("error", message) of one replay."""
    def rows(log):
        if isinstance(log, np.ndarray):
            return log.tobytes()
        return np.array([(s.position.x, s.position.y, s.position.z, s.yaw, s.time)
                         for s in log], dtype=float).tobytes()
    try:
        return "ok", rows(run())
    except TimeoutExceeded as exc:
        return "timeout", rows(exc.log)
    except ValueError as exc:
        return "error", str(exc)


def assert_replays_match(path, start, cfg, quad):
    want = _outcome(lambda: reference_follow(path, start, cfg, quad))
    got = _outcome(lambda: follow(path, start, cfg, quad))
    assert got == want
    return got[0]


_COORD = st.floats(-12.0, 12.0)
# yaws on and next to the +-pi seam, signed zeros, as well as anywhere in between
_YAW = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), math.pi - 1e-9, 1e-300, 0.0, -0.0]))
# Edges of one step, each met at the first step: a yaw error of exactly -pi
# (wrapped to +pi), a yaw rate clamped at exactly +-max_yaw_rate, a yaw error
# of +-0.0, a command at exactly max_speed (`k_p * norm == max_speed`, which
# stays proportional), and a timeout before the first target whose clock
# reaches max_time exactly (`t + dt > max_time` goes on there).
STEP_EDGES = ("yaw_seam", "yaw_clamp", "yaw_zero", "speed", "timeout")


def first_step(path: GlobalPath, start: SimState):
    """(ex, ey, ez, norm, yaw error) of the first step: the takeoff climb."""
    ez = path.rows[0, 2].item() - start.position.z
    return 0.0, 0.0, ez, math.sqrt(ez * ez), wrap_to_pi(path.rows[0, 3].item() - start.yaw)


@st.composite
def replay_cases(draw, edge="any"):
    if edge == "any":
        edge = draw(st.sampled_from((None, *STEP_EDGES)))
    rows = [[draw(_COORD), draw(_COORD), draw(st.floats(0.5, 8.0)), draw(_YAW)]
            for _ in range(draw(st.integers(1, 5)))]
    start = SimState(Vec3(draw(_COORD), draw(_COORD), draw(st.floats(0.0, 3.0))),
                     draw(_YAW), draw(st.sampled_from([0.0, 0.37, 5.0])))
    dt = draw(st.floats(0.01, 0.05))
    cfg = FollowConfig(dt=dt, k_p=draw(st.floats(0.2, 0.99 / dt)),
                       waypoint_tolerance=draw(st.floats(0.05, 0.6)))
    # slow vehicles far from the path saturate and time out with partial logs
    quad = QuadModel(max_speed=draw(st.floats(0.2, 6.0)),
                     max_yaw_rate=draw(st.floats(0.1, 3.0)))
    max_time = draw(st.floats(0.2, 12.0))
    if edge is not None:
        # the first target lies beyond any tolerance, so a first step is taken
        rows[0][2] = start.position.z + draw(st.floats(0.7, 5.0))
    if edge == "yaw_seam":
        yaw = draw(st.floats(-math.pi, 0.0, exclude_min=True).filter(
            lambda yaw: yaw - (yaw + math.pi) == -math.pi))
        start = replace(start, yaw=yaw + math.pi)
        rows[0][3] = yaw
    elif edge == "yaw_zero":
        rows[0][3] = draw(st.sampled_from([0.0, -0.0]))
        start = replace(start, yaw=draw(st.sampled_from([0.0, -0.0])))
    path = GlobalPath(rows)
    _, _, _, norm, yaw_err = first_step(path, start)
    if edge == "yaw_clamp" and yaw_err != 0.0:
        quad = replace(quad, max_yaw_rate=abs(cfg.k_p * yaw_err))
    elif edge == "speed":
        quad = replace(quad, max_speed=cfg.k_p * norm)
    elif edge == "timeout":
        # max_time is the clock after `steps` steps, where `t + dt > max_time`
        # must not yet stop; no step covers more than max_speed * dt, so the
        # first target stays out of reach
        steps = draw(st.integers(1, 30))
        max_time = start.time
        for _ in range(steps):
            max_time += cfg.dt
        reach = 0.9 * (norm - cfg.waypoint_tolerance) / (steps * cfg.dt)
        quad = replace(quad, max_speed=min(quad.max_speed, reach))
    return path, start, replace(cfg, max_time=max_time), quad


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize("edge", STEP_EDGES)
def test_replay_cases_meet_each_step_edge(edge, data):
    path, start, cfg, quad = data.draw(replay_cases(edge))
    ex, ey, ez, norm, yaw_err = first_step(path, start)
    assert norm > cfg.waypoint_tolerance
    if edge == "yaw_seam":
        assert path.rows[0, 3] - start.yaw == -math.pi and yaw_err == math.pi
    elif edge == "yaw_clamp":
        assert yaw_err == 0.0 or abs(cfg.k_p * yaw_err) == quad.max_yaw_rate
    elif edge == "yaw_zero":
        assert yaw_err == 0.0
    elif edge == "speed":
        assert cfg.k_p * norm == quad.max_speed
        assert command_for(ex, ey, ez, norm, yaw_err, cfg, quad)[2] == ez * cfg.k_p
    outcome = assert_replays_match(path, start, cfg, quad)
    if edge == "timeout":
        assert outcome == "timeout"
        with pytest.raises(TimeoutExceeded) as err:
            follow(path, start, cfg, quad)
        # the last logged step lands exactly on max_time
        assert err.value.log[-1, 4] == cfg.max_time


@settings(max_examples=150, deadline=None)
@given(replay_cases())
def test_float_follow_matches_the_vec3_reference_bit_for_bit(case):
    assert_replays_match(*case)


def _gap(row, target) -> float:
    ex, ey, ez = target[0] - row[0], target[1] - row[1], target[2] - row[2]
    return math.sqrt(ex * ex + ey * ey + ez * ez)


@settings(max_examples=100, deadline=None)
@given(replay_cases())
def test_every_logged_step_is_command_for_of_the_state_before_it(case):
    # `follow` writes the control law out in place; `command_for` and
    # `wrap_to_pi`, applied to each logged state and the target in force
    # there, give the next state bit for bit
    path, start, cfg, quad = case
    try:
        log = follow(path, start, cfg, quad)
    except TimeoutExceeded as exc:
        log = exc.log
    targets = [[start.position.x, start.position.y, *path.rows[0, 2:].tolist()],
               *path.rows.tolist()]
    rows = log.tolist()
    active = 0
    for (x, y, z, yaw, t), after in zip(rows, rows[1:]):
        while _gap((x, y, z), targets[active]) <= cfg.waypoint_tolerance:
            active += 1
        tx, ty, tz, tyaw = targets[active]
        vx, vy, vz, yaw_rate = command_for(tx - x, ty - y, tz - z, _gap((x, y, z), (tx, ty, tz)),
                                           wrap_to_pi(tyaw - yaw), cfg, quad)
        want = (x + vx * cfg.dt, y + vy * cfg.dt, z + vz * cfg.dt,
                wrap_to_pi(yaw + yaw_rate * cfg.dt), t + cfg.dt)
        assert [v.hex() for v in after] == [v.hex() for v in want]


def test_reference_cases_cover_saturation_and_timeouts():
    # the property above only proves something if its cases reach both ends
    # of the saturation test, the timeout and completion
    quad = QuadModel(max_speed=0.5)
    start = SimState(Vec3(0.0, 0.0, 0.0), math.pi)
    far = GlobalPath([(9.0, -9.0, 3.0, -math.pi + 1e-9)])
    near = GlobalPath([(0.1, 0.0, 0.3, -math.pi + 1e-9)])
    assert assert_replays_match(far, start, replace(CFG, max_time=2.0), quad) == "timeout"
    assert assert_replays_match(near, start, CFG, quad) == "ok"
    # a waypoint exactly one tolerance away counts as reached
    at_tolerance = GlobalPath([(0.0, 0.0, CFG.waypoint_tolerance, 0.0)])
    assert assert_replays_match(at_tolerance, start, CFG, quad) == "ok"
    assert len(follow(at_tolerance, start, CFG, quad)) == 1


@settings(max_examples=300, deadline=None)
@given(st.tuples(_COORD, _COORD, _COORD), st.floats(0.01, 0.05), st.floats(0.05, 0.99),
       st.floats(0.1, 3.0), _YAW, _YAW, st.booleans())
def test_command_matches_the_vec3_reference(err, dt, k_p_dt, max_yaw_rate, state_yaw,
                                            target_yaw, on_the_edge):
    # `on_the_edge` puts max_speed at exactly k_p * norm, where only
    # `k_p * norm > max_speed` in this order keeps the proportional command
    cfg = FollowConfig(dt=dt, k_p=k_p_dt / dt)
    norm = Vec3(*err).norm()
    max_speed = cfg.k_p * norm if on_the_edge and norm > 0 else 1.0
    quad = QuadModel(max_speed=max_speed, max_yaw_rate=max_yaw_rate)
    state = SimState(Vec3(0.0, 0.0, 0.0), state_yaw)
    target = Pose4(Vec3(*err), target_yaw)
    want = reference_command_for(state, target, cfg, quad)
    got = command(state, target, cfg, quad)
    assert [v.hex() for v in got] == [
        v.hex() for v in (want.linear.x, want.linear.y, want.linear.z, want.yaw_rate)]


@pytest.mark.parametrize("start_x, target_x, quad, cfg, outcome", [
    # the difference overflows: Vec3 raises at once
    (1.7e308, -1.7e308, QuadModel(), CFG, "error"),
    # only the norm overflows: the command is zero and the replay times out
    (1e200, -1e200, QuadModel(), CFG, "timeout"),
    # an unbounded speed from a config file: the command itself overflows
    (0.0, 1.7976931348623157e308, QuadModel(max_speed=math.inf),
     FollowConfig(dt=0.5, k_p=math.nextafter(2.0, 0.0)), "error"),
])
def test_float_follow_overflows_like_the_vec3_reference(start_x, target_x, quad, cfg,
                                                        outcome):
    path = GlobalPath([(start_x, 0.0, 1.0, 0.0), (target_x, 0.0, 1.0, 0.0)])
    start = SimState(Vec3(start_x, 0.0, 1.0), 0.0)
    assert assert_replays_match(path, start, replace(cfg, max_time=1.0), quad) == outcome
