"""The benchmark's own geometry, written from the file formats alone.

Output checks use these functions instead of the program's, so a bug in the
program's arc or collision code cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np


class PointModel:
    """Closed inflated obstacles inside closed world bounds, as numpy arrays."""

    def __init__(self, world: dict, growth: float):
        self.lo = np.array(world["bounds"]["min"], dtype=float)
        self.hi = np.array(world["bounds"]["max"], dtype=float)
        cyl, box_lo, box_hi = [], [], []
        for o in world["obstacles"]:
            if o["kind"] == "cylinder":
                x, y, z = o["base_center"]
                # the base drops by the growth but never below ground or up
                base = min(z, max(0.0, z - growth))
                cyl.append((x, y, (o["radius"] + growth) ** 2, base,
                            z + o["height"] + growth))
            else:
                box_lo.append(np.array(o["min"], dtype=float) - growth)
                box_hi.append(np.array(o["max"], dtype=float) + growth)
        self.cyl = np.array(cyl, dtype=float).reshape(-1, 5)
        self.box_lo = np.array(box_lo, dtype=float).reshape(-1, 3)
        self.box_hi = np.array(box_hi, dtype=float).reshape(-1, 3)

    def free(self, pts: np.ndarray, chunk: int = 512) -> np.ndarray:
        """Boolean mask over (n, 3) points, True where the point is free."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        out = np.empty(len(pts), dtype=bool)
        for s in range(0, len(pts), chunk):
            p = pts[s:s + chunk]
            ok = np.all((p >= self.lo) & (p <= self.hi), axis=1)
            if len(self.cyl):
                d2 = ((p[:, None, 0] - self.cyl[:, 0]) ** 2
                      + (p[:, None, 1] - self.cyl[:, 1]) ** 2)
                z = p[:, None, 2]
                ok &= ~((d2 <= self.cyl[:, 2]) & (z >= self.cyl[:, 3])
                        & (z <= self.cyl[:, 4])).any(axis=1)
            if len(self.box_lo):
                ok &= ~np.all((p[:, None, :] >= self.box_lo)
                              & (p[:, None, :] <= self.box_hi), axis=2).any(axis=1)
            out[s:s + chunk] = ok
        return out


def segment_samples(positions: np.ndarray, step: float) -> np.ndarray:
    """Points along every consecutive segment, at most `step` apart, ends included."""
    positions = np.asarray(positions, dtype=float)
    chunks = [positions[:1]]
    for a, b in zip(positions[:-1], positions[1:]):
        n = max(1, math.ceil(float(np.linalg.norm(b - a)) / step))
        ts = np.linspace(0.0, 1.0, n + 1)[1:, None]
        chunks.append(a + ts * (b - a))
    return np.concatenate(chunks)


def arc(shot: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sampled arc of a shot: (n, 3) positions and (n,) target-facing yaws.

    The polar angle about the target sweeps uniformly in the shot's direction
    (coincident angles mean a full turn) while radius and altitude interpolate
    linearly from start to end.
    """
    start, end, target = (np.array(shot[k], dtype=float)
                          for k in ("start", "end", "target"))
    r0 = math.hypot(*(start[:2] - target[:2]))
    r1 = math.hypot(*(end[:2] - target[:2]))
    a0 = math.atan2(start[1] - target[1], start[0] - target[0])
    a1 = math.atan2(end[1] - target[1], end[0] - target[0])
    if shot["direction"] == "counterclockwise":
        sweep = (a1 - a0) % math.tau or math.tau
    else:
        sweep = -((a0 - a1) % math.tau or math.tau)
    t = np.linspace(0.0, 1.0, shot["samples"])
    angle = a0 + sweep * t
    radius = r0 + (r1 - r0) * t
    pos = np.column_stack([target[0] + radius * np.cos(angle),
                           target[1] + radius * np.sin(angle),
                           start[2] + (end[2] - start[2]) * t])
    return pos, yaw_to(pos, target)


def yaw_to(pos: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.arctan2(target[1] - pos[:, 1], target[0] - pos[:, 0])


def angle_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Absolute difference of two angle arrays, wrapped to [0, pi]."""
    return np.abs(np.remainder(a - b + math.pi, math.tau) - math.pi)
