"""Kinematic replay: a reference point moves along the takeoff column and the
path under a trapezoidal speed profile, and the vehicle tracks it with
velocity commands, integrated with explicit Euler at a fixed rate.

The reference `s(t)` runs by arc length over the polyline from the start
position straight up to the first pose's altitude, then through every pose.
Its speed is bounded by `max_speed`, its acceleration by `MAX_ACCEL`, and it
is at rest at both ends. Where the polyline turns, the reference's velocity
jumps; near every vertex the profile keeps that jump, plus the speed change
of one tick, within `MAX_ACCEL * dt` (see `reference_pieces`). So every state
lies on the polyline `validate` proved, up to rounding, and no velocity step
of the log exceeds `MAX_ACCEL * dt`.

`follow` runs one loop over the ticks on plain local floats and logs one row
(x, y, z, yaw, t) per state, with the control law written out in place.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import TimeoutExceeded
from .shot import GlobalPath, wrap_to_pi
from .world import QuadModel

# Column order of a state log row.
LOG_COLUMNS = ("x", "y", "z", "yaw", "t")
# Bound on the reference's acceleration, m/s^2, and so on every velocity
# step of the log per dt.
MAX_ACCEL = 4.0
# A zone's acceleration bound less than this share of MAX_ACCEL above its
# floor is set to the floor, 0 or MAX_ACCEL / 2 (see `reference_pieces`).
BOUND_FLOOR = 1e-3


@dataclass(frozen=True)
class FollowConfig:
    """Replay rate, tracking gain and limits; k_p * dt < 1 keeps the
    integration stable. A replay ends once the reference rests at the last
    pose and the vehicle is within `waypoint_tolerance` of it."""

    dt: float = 0.02
    k_p: float = 1.0
    waypoint_tolerance: float = 0.15
    max_time: float = 120.0

    def __post_init__(self):
        # negated comparisons, so NaN fails them too
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.k_p > 0:
            raise ValueError(f"k_p must be > 0, got {self.k_p}")
        if not self.waypoint_tolerance > 0:
            raise ValueError(
                f"waypoint_tolerance must be > 0, got {self.waypoint_tolerance}")
        if not self.max_time > 0:
            raise ValueError(f"max_time must be > 0, got {self.max_time}")
        if not self.k_p * self.dt < 1.0:
            raise ValueError(
                f"k_p * dt must be < 1 for stable tracking, got {self.k_p * self.dt}")


def polyline(path: GlobalPath, start) -> list[list[float]]:
    """Vertices [x, y, z, yaw] the reference runs through: the start, the
    top of the takeoff column at the first pose's altitude, then the poses.
    A vertex at the position of the one before it only gives that one its
    yaw, so every step has a positive length.

    `start` is the log's first row, five floats in LOG_COLUMNS order; a
    non-finite x, y or z raises ValueError."""
    x, y, z, yaw, _ = (float(v) for v in start)
    for name, value in zip(LOG_COLUMNS, (x, y, z)):
        if not math.isfinite(value):
            raise ValueError(f"start.{name} must be finite, got {value!r}")
    rows = path.rows.tolist()
    vertices = [[x, y, z, yaw]]
    for v in [[x, y, rows[0][2], rows[0][3]], *rows]:
        if v[:3] == vertices[-1][:3]:
            vertices[-1][3] = v[3]
        else:
            vertices.append(v)
    return vertices


def polyline_steps(vertices: list[list[float]]) -> list[tuple[float, ...]]:
    """Per step between consecutive vertices: its start (x, y, z, yaw), its
    difference (dx, dy, dz), its yaw turn the short way, and its length.
    Raises ValueError where the lengths do not sum to a finite number."""
    steps, total = [], 0.0
    for (x0, y0, z0, yaw0), (x1, y1, z1, yaw1) in zip(vertices, vertices[1:]):
        dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
        length = math.hypot(dx, dy, dz)
        steps.append((x0, y0, z0, yaw0, dx, dy, dz, wrap_to_pi(yaw1 - yaw0), length))
        total = total + length
    if not math.isfinite(total):
        raise ValueError(f"the replay polyline's length is not finite, got {total!r}")
    return steps


def reference_pieces(steps: list[tuple[float, ...]], cfg: FollowConfig,
                     quad: QuadModel) -> list[tuple]:
    """The reference's speed profile over the polyline `steps`, as pieces
    (t0, t1, t2, t3, step, offset, length, v0, peak, v1, half): from time t0
    it speeds up from v0 at 2 * half until t1, holds `peak` until t2 and
    slows down at 2 * half to v1 at t3, covering `length` of step `step`
    from `offset` on. Consecutive pieces meet in time and speed; the first
    starts and the last ends at rest.

    The pieces lie between consecutive cuts: the vertices and the bounds of
    the zones around them. Each piece's speed is capped and its acceleration
    bounded; forward and backward passes set the speed at every cut.

    Why no velocity step exceeds MAX_ACCEL * dt. A log step's velocity is
    the mean of the reference velocity V(t) over one tick, so a velocity
    step is the mean over a tick of V(t + dt) - V(t). Over a window of one
    tick, V changes by at most the acceleration bound times dt along the
    path plus, at each vertex j the window passes, v_j * c_j, with c_j =
    |u_out - u_in| of the unit steps there. Vertex j with c_j > 0 has a zone
    [s_j - h_j, s_j + h_j] in which the speed is capped at cap_j and the
    acceleration bounded by MAX_ACCEL - cap_j * C_j / dt, with h_j = cap_j *
    dt, C_j the sum of c over the vertices within max_speed * dt of s_j, and
    cap_j = min(max_speed, share * MAX_ACCEL * dt / C_j). A window that
    passes vertex j cannot leave its zone, which takes at least dt at
    cap_j, so every vertex it passes lies within max_speed * dt of s_j, at
    a speed of at most cap_j: both parts of the change sum to at most
    MAX_ACCEL * dt. `share` is 1, which holds the speed constant unless
    max_speed binds, and 1/2 in a zone that reaches an end of the polyline,
    where the reference starts from or comes to rest.

    Each step's speed is also capped so that the reference yaw, which turns
    with arc length, turns no faster than `max_yaw_rate`. Any lower cap_j
    keeps the proof while the zone keeps a width to either side of s_j, so
    that the pieces next to vertex j lie in it; so a zone also takes the
    least yaw cap of the steps it overlaps, but no less than one ulp of s_j
    per dt: its speed cannot exceed that cap there anyway, and a zone that
    holds its speed constant would otherwise crawl at it over its whole
    width (a nanometre step that turns the yaw by a radian caps its speed
    near 1e-9 m/s, at which a zone of 0.3 mm takes days).
    """
    dt, accel, max_speed = cfg.dt, MAX_ACCEL, quad.max_speed
    sqrt = math.sqrt
    starts = [0.0]
    for step in steps:
        starts.append(starts[-1] + step[8])
    total = starts[-1]
    # each step's speed cap from the yaw rate
    yaw_caps = [quad.max_yaw_rate * step[8] / abs(step[7]) if step[7] != 0.0 else math.inf
                for step in steps]

    # the zone of each vertex where the polyline turns: (low, high, cap, bound)
    reach = max_speed * dt
    turn_at, turn = [], []
    for i, (u, w) in enumerate(zip(steps, steps[1:]), start=1):
        cx = w[4] / w[8] - u[4] / u[8]
        cy = w[5] / w[8] - u[5] / u[8]
        cz = w[6] / w[8] - u[6] / u[8]
        c = sqrt(cx * cx + cy * cy + cz * cz)
        if c > 0.0:
            turn_at.append(starts[i])
            turn.append(c)
    zones = []
    for s in turn_at:
        window = math.fsum(turn[bisect_left(turn_at, s - reach):
                                bisect_right(turn_at, s + reach)])
        share = 1.0
        cap = min(max_speed, share * accel * dt / window)
        if s - cap * dt <= 0.0 or s + cap * dt >= total:
            share = 0.5
            cap = min(max_speed, share * accel * dt / window)
        # the least yaw cap of the steps the zone overlaps
        first = max(bisect_right(starts, s - cap * dt) - 1, 0)
        last = min(bisect_left(starts, s + cap * dt), len(steps))
        slow = min(yaw_caps[first:last], default=math.inf)
        # no lower than keeps the zone a width to either side of s
        cap = min(cap, max(slow, math.ulp(s) / dt))
        bound = accel - cap * window / dt
        if bound < (1.0 - share + BOUND_FLOOR) * accel:
            # a bound just above its floor would time a piece's speed
            # changes from rounding noise divided by the bound
            bound = (1.0 - share) * accel
        zones.append((max(s - cap * dt, 0.0), min(s + cap * dt, total), cap, bound))

    # pieces between consecutive cuts, the vertices and zone bounds, each
    # with the least cap and bound of the zones that hold it
    cuts = sorted({*starts, *(z[0] for z in zones), *(z[1] for z in zones)})
    caps, bounds = [max_speed] * (len(cuts) - 1), [accel] * (len(cuts) - 1)
    for low, high, cap, bound in zones:
        for k in range(bisect_left(cuts, low), bisect_left(cuts, high)):
            caps[k], bounds[k] = min(caps[k], cap), min(bounds[k], bound)
    pieces = []  # (step, offset, length, bound, cap)
    step = 0
    for low, high, cap, bound in zip(cuts, cuts[1:], caps, bounds):
        while starts[step + 1] <= low:
            step += 1
        cap = min(cap, yaw_caps[step])
        pieces.append((step, low - starts[step], high - low, bound, cap))

    # speeds at the cuts: the caps on either side, then forward and backward
    speeds = [0.0, *(min(a[4], b[4]) for a, b in zip(pieces, pieces[1:])), 0.0]
    for k, (_, _, length, bound, _) in enumerate(pieces):
        speeds[k + 1] = min(speeds[k + 1], sqrt(speeds[k] * speeds[k] + 2.0 * bound * length))
    for k in range(len(pieces) - 1, -1, -1):
        _, _, length, bound, _ = pieces[k]
        speeds[k] = min(speeds[k], sqrt(speeds[k + 1] * speeds[k + 1] + 2.0 * bound * length))

    timed = []
    t0 = 0.0
    for (step, offset, length, bound, cap), v0, v1 in zip(pieces, speeds, speeds[1:]):
        if bound > 0.0:
            peak = max(min(cap, sqrt((2.0 * bound * length + v0 * v0 + v1 * v1) * 0.5)),
                       v0, v1)
            plateau = length - (2.0 * peak * peak - v0 * v0 - v1 * v1) / (2.0 * bound)
            t1 = t0 + (peak - v0) / bound
            t2 = t1 + max(plateau, 0.0) / peak
            t3 = t2 + (peak - v1) / bound
        else:
            peak, t1 = v0, t0
            t2 = t3 = t0 + length / peak
        timed.append((t0, t1, t2, t3, step, offset, length, v0, peak, v1, 0.5 * bound))
        t0 = t3
    if not math.isfinite(t0):
        raise ValueError(f"the replay reference's duration is not finite, got {t0!r}")
    return timed


def follow(path: GlobalPath, start, cfg: FollowConfig,
           quad: QuadModel) -> np.ndarray:
    """Simulate the replay from `start`, the log's first row (five floats in
    LOG_COLUMNS order, as `polyline` takes it); returns the state log as an
    (n, 5) array with columns LOG_COLUMNS, `start` first.

    Each tick moves the reference `dt` further along its profile and
    commands its displacement over `dt` plus k_p times the error to it,
    scaled down to `max_speed`, and the yaw the same way, clamped to
    `max_yaw_rate`. The k-th logged state's time is start's t + k * dt, so
    a clock value is written no longer than its tick needs, where a running
    sum of dt would drift into 17 digits. The replay ends at the first
    state, once the reference has come to rest at the last pose, that lies
    within the waypoint tolerance of that pose. Raises TimeoutExceeded (carrying the partial
    log) if cfg.max_time elapses first, and ValueError on a polyline whose
    length, or a reference whose duration, is not finite.
    """
    dt, k_p, tolerance, max_time = cfg.dt, cfg.k_p, cfg.waypoint_tolerance, cfg.max_time
    max_speed, max_yaw_rate = quad.max_speed, quad.max_yaw_rate
    min_yaw_rate = -max_yaw_rate
    sqrt, remainder, pi, tau = math.sqrt, math.remainder, math.pi, math.tau

    vertices = polyline(path, start)
    steps = polyline_steps(vertices)
    pieces = reference_pieces(steps, cfg, quad)
    ends = [piece[3] for piece in pieces]
    finish = ends[-1] if ends else 0.0
    end_x, end_y, end_z, end_yaw = vertices[-1]

    x, y, z, yaw, start_time = (float(v) for v in start)
    rx, ry, rz, ryaw = vertices[0]
    ryaw = wrap_to_pi(ryaw)
    clock = 0.0  # time along the reference
    log = [x, y, z, yaw, start_time]
    ticks = 0  # states logged after the start
    extend = log.extend
    t3 = -1.0  # the end of the piece in force; none is yet
    while True:
        if clock >= finish:
            ex, ey, ez = end_x - x, end_y - y, end_z - z
            if sqrt(ex * ex + ey * ey + ez * ez) <= tolerance:
                return _rows(log)
        ticks += 1
        t = start_time + ticks * dt  # the next state's time, not a running sum of dt
        if t > max_time:
            raise TimeoutExceeded(_rows(log))
        clock = clock + dt
        if clock >= finish:
            nx, ny, nz, nyaw = end_x, end_y, end_z, end_yaw
        else:
            if clock >= t3:
                t0, t1, t2, t3, step, offset, length, v0, peak, v1, half = \
                    pieces[bisect_right(ends, clock)]
                ax, ay, az, ayaw, dx, dy, dz, yaw_turn, step_length = steps[step]
            if clock < t1:
                r = clock - t0
                d = r * (v0 + half * r)
            elif clock < t2:
                r = t1 - t0
                d = r * (v0 + half * r) + peak * (clock - t1)
            else:
                r = t3 - clock
                d = length - r * (v1 + half * r)
            f = (offset + d) / step_length
            nx, ny, nz = ax + f * dx, ay + f * dy, az + f * dz
            nyaw = remainder(ayaw + f * yaw_turn, tau)
            if nyaw == -pi:
                nyaw = pi
        # the command: feedforward plus k_p times the error, saturated
        vx = (nx - rx) / dt + k_p * (rx - x)
        vy = (ny - ry) / dt + k_p * (ry - y)
        vz = (nz - rz) / dt + k_p * (rz - z)
        speed = sqrt(vx * vx + vy * vy + vz * vz)
        if speed > max_speed:
            s = max_speed / speed
            vx, vy, vz = vx * s, vy * s, vz * s
        yaw_feed = remainder(nyaw - ryaw, tau)
        if yaw_feed == -pi:
            yaw_feed = pi
        yaw_err = remainder(ryaw - yaw, tau)
        if yaw_err == -pi:
            yaw_err = pi
        yaw_rate = yaw_feed / dt + k_p * yaw_err
        # max(-max_yaw_rate, min(max_yaw_rate, yaw_rate))
        if not yaw_rate < max_yaw_rate:
            yaw_rate = max_yaw_rate
        elif not yaw_rate > min_yaw_rate:
            yaw_rate = min_yaw_rate
        x = x + vx * dt
        y = y + vy * dt
        z = z + vz * dt
        yaw = remainder(yaw + yaw_rate * dt, tau)
        if yaw == -pi:
            yaw = pi
        extend((x, y, z, yaw, t))
        rx, ry, rz, ryaw = nx, ny, nz, nyaw


def _rows(log: list[float]) -> np.ndarray:
    return np.array(log, dtype=float).reshape(-1, len(LOG_COLUMNS))
