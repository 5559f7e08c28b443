"""Vec3 reference for `executor.follow`: the takeoff-and-path polyline, its
trapezoidal speed profile and the tracking law, written out on `Vec3`
records with the `add`, `sub`, `length`, `scaled` and `divided` helpers
below, one object and one tick at a time, with no cached index. Each float
operation is the one `follow` makes, in the same order, so the two agree
bit for bit; where a coordinate overflows, `Vec3` raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from arcshot.errors import TimeoutExceeded
from arcshot.executor import BOUND_FLOOR, MAX_ACCEL, FollowConfig
from arcshot.shot import GlobalPath, wrap_to_pi
from arcshot.world import QuadModel, Vec3


def add(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x + b.x, a.y + b.y, a.z + b.z)


def sub(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x - b.x, a.y - b.y, a.z - b.z)


def length(v: Vec3) -> float:
    return math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)


def scaled(v: Vec3, k: float) -> Vec3:
    return Vec3(v.x * k, v.y * k, v.z * k)


def divided(v: Vec3, k: float) -> Vec3:
    return Vec3(v.x / k, v.y / k, v.z / k)


@dataclass(frozen=True)
class State:
    """One logged state: position, yaw and time."""

    position: Vec3
    yaw: float
    time: float


@dataclass
class Vertex:
    position: Vec3
    yaw: float


@dataclass(frozen=True)
class Step:
    start: Vertex
    delta: Vec3
    yaw_turn: float

    @property
    def length(self) -> float:
        return math.hypot(self.delta.x, self.delta.y, self.delta.z)

    def at(self, f: float) -> tuple[Vec3, float]:
        """Position and yaw a fraction `f` of the way along the step."""
        return (add(self.start.position, scaled(self.delta, f)),
                wrap_to_pi(self.start.yaw + f * self.yaw_turn))


@dataclass(frozen=True)
class Zone:
    low: float
    high: float
    cap: float
    bound: float


@dataclass(frozen=True)
class Piece:
    t0: float
    t1: float
    t2: float
    t3: float
    step: Step
    offset: float
    length: float
    v0: float
    peak: float
    v1: float
    bound: float

    def distance(self, clock: float) -> float:
        """Arc length covered from the piece's start at reference time `clock`."""
        half = 0.5 * self.bound
        if clock < self.t1:
            r = clock - self.t0
            return r * (self.v0 + half * r)
        if clock < self.t2:
            r = self.t1 - self.t0
            return r * (self.v0 + half * r) + self.peak * (clock - self.t1)
        r = self.t3 - clock
        return self.length - r * (self.v1 + half * r)


def vertices(path: GlobalPath, start) -> list[Vertex]:
    """The polyline's vertices from `start`, a log row (x, y, z, yaw, t)."""
    x, y, z, yaw, _ = start
    rows = path.rows.tolist()
    candidates = [Vertex(Vec3(x, y, rows[0][2]), rows[0][3])]
    candidates += [Vertex(Vec3(*row[:3]), row[3]) for row in rows]
    kept = [Vertex(Vec3(x, y, z), yaw)]
    for v in candidates:
        if v.position == kept[-1].position:
            kept[-1].yaw = v.yaw  # no step: the later pose's yaw only
        else:
            kept.append(v)
    return kept


def steps_of(points: list[Vertex]) -> list[Step]:
    steps = [Step(a, sub(b.position, a.position), wrap_to_pi(b.yaw - a.yaw))
             for a, b in zip(points, points[1:])]
    total = 0.0
    for step in steps:
        total = total + step.length
    if not math.isfinite(total):
        raise ValueError(f"the replay polyline's length is not finite, got {total!r}")
    return steps


def zones_of(steps: list[Step], starts: list[float], cfg: FollowConfig,
             quad: QuadModel) -> list[Zone]:
    dt, accel, max_speed = cfg.dt, MAX_ACCEL, quad.max_speed
    total, reach = starts[-1], max_speed * dt
    turns = []  # (arc length, |u_out - u_in|) of each vertex that turns
    for i in range(1, len(steps)):
        a, b = steps[i - 1], steps[i]
        c = length(sub(divided(b.delta, b.length), divided(a.delta, a.length)))
        if c > 0.0:
            turns.append((starts[i], c))
    zones = []
    for s, _ in turns:
        window = math.fsum(c for s_j, c in turns if s - reach <= s_j <= s + reach)
        share = 1.0
        cap = min(max_speed, share * accel * dt / window)
        if s - cap * dt <= 0.0 or s + cap * dt >= total:
            share = 0.5
            cap = min(max_speed, share * accel * dt / window)
        # the least yaw cap of the steps it overlaps, but no less than keeps
        # the zone a width to either side of s
        low, high, slow = s - cap * dt, s + cap * dt, math.inf
        for i, step in enumerate(steps):
            if step.yaw_turn != 0.0 and starts[i] < high and starts[i + 1] > low:
                slow = min(slow, quad.max_yaw_rate * step.length / abs(step.yaw_turn))
        cap = min(cap, max(slow, math.ulp(s) / dt))
        bound = accel - cap * window / dt
        if bound < (1.0 - share + BOUND_FLOOR) * accel:
            bound = (1.0 - share) * accel
        zones.append(Zone(max(s - cap * dt, 0.0), min(s + cap * dt, total), cap, bound))
    return zones


def profile(steps: list[Step], cfg: FollowConfig, quad: QuadModel) -> list[Piece]:
    starts = [0.0]
    for step in steps:
        starts.append(starts[-1] + step.length)
    zones = zones_of(steps, starts, cfg, quad)
    cuts = sorted(set(starts) | {z.low for z in zones} | {z.high for z in zones})

    spans = []  # (step, offset, length, bound, cap) between consecutive cuts
    for low, high in zip(cuts, cuts[1:]):
        i = max(j for j in range(len(steps)) if starts[j] <= low)
        cap, bound = quad.max_speed, MAX_ACCEL
        for zone in zones:
            if zone.low <= low and high <= zone.high:
                cap, bound = min(cap, zone.cap), min(bound, zone.bound)
        if steps[i].yaw_turn != 0.0:
            cap = min(cap, quad.max_yaw_rate * steps[i].length / abs(steps[i].yaw_turn))
        spans.append((steps[i], low - starts[i], high - low, bound, cap))

    n = len(spans)
    speeds = [0.0] * (n + 1)
    for k in range(1, n):
        speeds[k] = min(spans[k - 1][4], spans[k][4])
    for k in range(n):  # forward
        length, bound = spans[k][2], spans[k][3]
        speeds[k + 1] = min(speeds[k + 1],
                            math.sqrt(speeds[k] * speeds[k] + 2.0 * bound * length))
    for k in reversed(range(n)):  # backward
        length, bound = spans[k][2], spans[k][3]
        speeds[k] = min(speeds[k],
                        math.sqrt(speeds[k + 1] * speeds[k + 1] + 2.0 * bound * length))

    pieces, t0 = [], 0.0
    for k, (step, offset, length, bound, cap) in enumerate(spans):
        v0, v1 = speeds[k], speeds[k + 1]
        if bound == 0.0:
            peak = v0
            t1, t2 = t0, t0 + length / peak
            t3 = t2
        else:
            peak = max(min(cap, math.sqrt((2.0 * bound * length + v0 * v0 + v1 * v1) * 0.5)),
                       v0, v1)
            plateau = length - (2.0 * peak * peak - v0 * v0 - v1 * v1) / (2.0 * bound)
            t1 = t0 + (peak - v0) / bound
            t2 = t1 + max(plateau, 0.0) / peak
            t3 = t2 + (peak - v1) / bound
        pieces.append(Piece(t0, t1, t2, t3, step, offset, length, v0, peak, v1, bound))
        t0 = t3
    if not math.isfinite(t0):
        raise ValueError(f"the replay reference's duration is not finite, got {t0!r}")
    return pieces


def reference_at(pieces: list[Piece], end: Vertex, clock: float) -> tuple[Vec3, float]:
    """Position and yaw of the reference at reference time `clock`."""
    if not pieces or clock >= pieces[-1].t3:
        return end.position, end.yaw
    piece = next(p for p in pieces if clock < p.t3)
    return piece.step.at((piece.offset + piece.distance(clock)) / piece.step.length)


def command(ref, ref_next, position: Vec3, yaw: float, cfg: FollowConfig,
            quad: QuadModel) -> tuple[Vec3, float]:
    """Velocity and yaw rate: the reference's step over dt plus k_p times the
    error to it, the velocity scaled down to max_speed, the yaw rate clamped."""
    (p, p_yaw), (q, q_yaw) = ref, ref_next
    v = add(divided(sub(q, p), cfg.dt), scaled(sub(p, position), cfg.k_p))
    speed = length(v)
    if speed > quad.max_speed:
        v = scaled(v, quad.max_speed / speed)
    yaw_rate = (wrap_to_pi(q_yaw - p_yaw) / cfg.dt
                + cfg.k_p * wrap_to_pi(p_yaw - yaw))
    return v, max(-quad.max_yaw_rate, min(quad.max_yaw_rate, yaw_rate))


def reference_follow(path: GlobalPath, start, cfg: FollowConfig,
                     quad: QuadModel) -> list[State]:
    """The replay from `start`, a log row (x, y, z, yaw, t), as states."""
    x, y, z, yaw, start_time = start
    state = State(Vec3(x, y, z), yaw, start_time)
    points = vertices(path, start)
    pieces = profile(steps_of(points), cfg, quad)
    finish = pieces[-1].t3 if pieces else 0.0
    end = points[-1]
    log = [state]
    clock = 0.0
    while True:
        if (clock >= finish
                and length(sub(state.position, end.position)) <= cfg.waypoint_tolerance):
            return log
        time = start_time + len(log) * cfg.dt
        if time > cfg.max_time:
            raise TimeoutExceeded(log)
        if clock == 0.0:
            ref = points[0].position, wrap_to_pi(points[0].yaw)
        else:
            ref = reference_at(pieces, end, clock)
        clock = clock + cfg.dt
        v, yaw_rate = command(ref, reference_at(pieces, end, clock), state.position,
                              state.yaw, cfg, quad)
        state = State(add(state.position, scaled(v, cfg.dt)),
                      wrap_to_pi(state.yaw + yaw_rate * cfg.dt), time)
        log.append(state)


def rows(log: list[State]) -> np.ndarray:
    return np.array([(s.position.x, s.position.y, s.position.z, s.yaw, s.time)
                     for s in log], dtype=float).reshape(-1, 5)
