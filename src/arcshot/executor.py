"""Kinematic waypoint follower: takeoff, then track the path with velocity
commands, integrated with explicit Euler at a fixed rate.

`follow` runs one inner loop per waypoint on plain local floats and logs one
row (x, y, z, yaw, t) per state. Each step is `command_for` and `wrap_to_pi`
written out in place, every float operation in their order, so the log is
theirs bit for bit; `command_for` stays the control law's one named form.
`SimState` and `Vec3` appear only at the start state, the API boundary, and
where `Vec3` raises its own error on a coordinate that overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TimeoutExceeded
from .shot import GlobalPath
from .world import QuadModel, Vec3

# Column order of a state log row.
LOG_COLUMNS = ("x", "y", "z", "yaw", "t")


@dataclass(frozen=True)
class SimState:
    position: Vec3
    yaw: float
    time: float = 0.0


@dataclass(frozen=True)
class FollowConfig:
    """Proportional tracking gains; k_p * dt < 1 keeps the integration stable."""

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


def command_for(ex: float, ey: float, ez: float, norm: float, yaw_err: float,
                cfg: FollowConfig, quad: QuadModel) -> tuple[float, float, float, float]:
    """Saturated proportional command (vx, vy, vz, yaw_rate) for the position
    error (ex, ey, ez), whose length is `norm`, and a wrapped yaw error."""
    k = quad.max_speed / norm if cfg.k_p * norm > quad.max_speed else cfg.k_p
    yaw_rate = max(-quad.max_yaw_rate, min(quad.max_yaw_rate, cfg.k_p * yaw_err))
    return ex * k, ey * k, ez * k, yaw_rate


def follow(path: GlobalPath, start: SimState, cfg: FollowConfig,
           quad: QuadModel) -> np.ndarray:
    """Simulate takeoff plus waypoint tracking; returns the state log as an
    (n, 5) array with columns LOG_COLUMNS, the start state first.

    Phase 1 climbs to a virtual waypoint directly above the start at the
    first waypoint's altitude; phase 2 walks the waypoints in order, switching
    whenever the vehicle is within the waypoint tolerance. Raises
    TimeoutExceeded (carrying the partial log) if cfg.max_time elapses first, and
    ValueError where `Vec3` arithmetic would meet a non-finite coordinate.
    """
    dt, k_p, tolerance, max_time = cfg.dt, cfg.k_p, cfg.waypoint_tolerance, cfg.max_time
    max_speed, max_yaw_rate = quad.max_speed, quad.max_yaw_rate
    min_yaw_rate = -max_yaw_rate
    sqrt, remainder, pi, tau, inf = math.sqrt, math.remainder, math.pi, math.tau, math.inf

    p = start.position
    targets = path.rows.tolist()
    targets.insert(0, [p.x, p.y, *targets[0][2:]])

    x, y, z, yaw, t = p.x, p.y, p.z, start.yaw, start.time
    log = [x, y, z, yaw, t]
    extend = log.extend
    for tx, ty, tz, tyaw in targets:
        while True:
            ex, ey, ez = tx - x, ty - y, tz - z
            norm = sqrt(ex * ex + ey * ey + ez * ez)
            if not norm < inf:
                # An overflowed difference, or a position the last step
                # overflowed, raises as Vec3 does; an overflow of the norm
                # alone goes on.
                Vec3(x, y, z) - Vec3(tx, ty, tz)
            if norm <= tolerance:
                break
            if t + dt > max_time:
                raise TimeoutExceeded(_rows(log))
            # command_for, with wrap_to_pi of the yaw error
            k = max_speed / norm if k_p * norm > max_speed else k_p
            yaw_err = remainder(tyaw - yaw, tau)
            if yaw_err == -pi:
                yaw_err = pi
            yaw_rate = k_p * yaw_err
            # max(-max_yaw_rate, min(max_yaw_rate, yaw_rate))
            if not yaw_rate < max_yaw_rate:
                yaw_rate = max_yaw_rate
            elif not yaw_rate > min_yaw_rate:
                yaw_rate = min_yaw_rate
            x = x + ex * k * dt
            y = y + ey * k * dt
            z = z + ez * k * dt
            yaw = remainder(yaw + yaw_rate * dt, tau)
            if yaw == -pi:
                yaw = pi
            t = t + dt
            extend((x, y, z, yaw, t))
    return _rows(log)


def _rows(log: list[float]) -> np.ndarray:
    return np.array(log, dtype=float).reshape(-1, len(LOG_COLUMNS))
