"""Seeded input generators for the benchmark's workloads.

Each workload turns a run seed into world/config files (once per run) and a
stream of shot files plus planner seeds (one per operation). The program sees
only these files. A generator rejects only invalid inputs -- an endpoint
inside an inflated obstacle or a degenerate arc -- and never looks at what
the planner does with a shot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import geometry

WORLD_SCHEMA = "world/1"
SHOT_SCHEMA = "shot/1"
CONFIG_SCHEMA = "config/1"
GROWTH = 0.3 + 0.2  # default body_radius + safety_margin; configs keep the quad defaults

DEMO_OBSTACLES = [
    {"kind": "cylinder", "base_center": [0.0, 8.8, 0.0], "radius": 0.8, "height": 5.0},
    {"kind": "cylinder", "base_center": [6.0, -5.0, 0.0], "radius": 1.0, "height": 4.0},
    {"kind": "box", "min": [-7.0, -7.0, 0.0], "max": [-5.0, -5.0, 3.0]},
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    replay_each_op: bool      # `execute` follows every `plan` inside the operation


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "demo-deep",
            "bundled demo, 3 obstacles, jittered angles, 2000 loops: big trees "
            "make local_planner dominate and per-loop cost grow with tree size",
            replay_each_op=False),
        Workload(
            "clutter-survey",
            "one world of ~1000 obstacles off the arc band plus blockers, random "
            "shots at 300 loops, each replayed: world checks, fileio, render and "
            "executor do real work",
            replay_each_op=True),
        Workload(
            "wall-expand",
            "wall wider than any level-0 window, escape over the top: levels 0 "
            "and 1 always fail, so most loops are wasted and each tests many "
            "candidate edges",
            replay_each_op=False),
    )
}


@dataclass(frozen=True)
class Operation:
    """Inputs of one operation: the shot file contents and the planner seed."""

    index: int
    shot: dict
    rrt_seed: int


def _rng(name: str, seed: int, *key: int) -> np.random.Generator:
    tag = int.from_bytes(name.encode(), "little") % (2 ** 32)
    return np.random.default_rng([tag, seed, *key])


def _r(x: float) -> float:
    return round(float(x), 4)


def _vec(*xs) -> list[float]:
    return [_r(x) for x in xs]


def _world(lo, hi, target, obstacles) -> dict:
    return {"schema": WORLD_SCHEMA, "bounds": {"min": list(lo), "max": list(hi)},
            "target": list(target), "obstacles": obstacles}


def _config(**rrt) -> dict:
    # the tolerance is the program's default, written out for the replay check
    return {"schema": CONFIG_SCHEMA, "rrt": rrt,
            "follow": {"waypoint_tolerance": 0.15}}


def _arc_shot(target, r0, a0, z0, r1, a1, z1, direction, samples) -> dict:
    tx, ty, _ = target
    return {
        "schema": SHOT_SCHEMA,
        "start": _vec(tx + r0 * math.cos(a0), ty + r0 * math.sin(a0), z0),
        "end": _vec(tx + r1 * math.cos(a1), ty + r1 * math.sin(a1), z1),
        "target": list(target),
        "direction": direction,
        "samples": int(samples),
    }


class Generator:
    """World, config and per-operation shots of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.world, self.config = _MAKERS[name][0](_rng(name, seed))
        self.model = geometry.PointModel(self.world, GROWTH)

    def operation(self, index: int) -> Operation:
        """The index-th operation; draws until the shot is a valid input."""
        rng = _rng(self.name, self.seed, index)
        rrt_seed = int(rng.integers(0, 2 ** 31))
        while True:
            shot = _MAKERS[self.name][1](rng, self.world, index)
            if self.valid(shot):
                return Operation(index, shot, rrt_seed)

    def valid(self, shot: dict) -> bool:
        """Endpoints free and off the target's vertical axis."""
        target = np.array(shot["target"])
        ends = np.array([shot["start"], shot["end"]])
        if np.any(np.hypot(*(ends[:, :2] - target[:2]).T) == 0.0):
            return False
        return bool(self.model.free(ends).all())

    def write_run_files(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        return (write_json(directory / "world.json", self.world),
                write_json(directory / "config.json", self.config))


def write_json(file: Path, data: dict) -> Path:
    file.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return file


# -- demo-deep ---------------------------------------------------------------
# The demo world unchanged; only the shot's angles move. Start angles in
# [-10, 10] deg and end angles in [170, 190] deg keep the pillar at (0, 8.8)
# on the counterclockwise sweep and both endpoints clear of the other two
# obstacles, and keep path lengths (and so replay times) within +-6%.

DEMO_TARGET = (0.0, 0.0, 1.5)


def _demo_world(rng):
    world = _world((-15.0, -15.0, 0.0), (15.0, 15.0, 10.0), DEMO_TARGET,
                   DEMO_OBSTACLES)
    config = _config(extend_dist=0.2, max_loops=2000)
    return world, config


def _demo_shot(rng, world, index):
    a0 = math.radians(rng.uniform(-10.0, 10.0))
    a1 = math.radians(rng.uniform(170.0, 190.0))
    return _arc_shot(DEMO_TARGET, 8.0, a0, 2.0, 8.0, a1, 2.0,
                     "counterclockwise", 64)


# -- clutter-survey ----------------------------------------------------------
# No clutter center lies in the annulus CLUTTER_GAP around the target. Clutter
# reaches at most 1.21 m from its center once inflated, so every arc (radii
# ARC_R) stays clear of it by more than 2 m. BLOCKERS
# pillars stand on the band, evenly spaced, so a sweep of SWEEP_DEG crosses
# at most one of them.

CLUTTER_TARGET = (0.0, 0.0, 1.5)
CLUTTER_COUNT = 1000
BLOCKERS = 3
BLOCKER_RADIUS, BLOCKER_HEIGHT = 0.5, 8.0
ARC_R = (7.5, 8.5)
SWEEP_DEG = (80.0, 100.0)
BLOCKER_DEG = 10.0      # > asin(inflated blocker radius / smallest arc radius)
CLEAR_EVERY = 8
CLUTTER_GAP = (4.2, 11.8)
CLUTTER_HALF = 25.0


def _clutter_world(rng):
    obstacles = []
    while len(obstacles) < CLUTTER_COUNT:
        x, y = rng.uniform(-CLUTTER_HALF + 1.0, CLUTTER_HALF - 1.0, size=2)
        size = rng.uniform(0.2, 0.5)
        if CLUTTER_GAP[0] <= math.hypot(x, y) <= CLUTTER_GAP[1]:
            continue
        height = rng.uniform(1.0, 6.0)
        if rng.random() < 0.5:
            obstacles.append({"kind": "cylinder", "base_center": _vec(x, y, 0.0),
                              "radius": _r(size), "height": _r(height)})
        else:
            obstacles.append({"kind": "box", "min": _vec(x - size, y - size, 0.0),
                              "max": _vec(x + size, y + size, height)})
    phase = rng.uniform(0.0, 2 * math.pi)
    for k in range(BLOCKERS):
        angle = phase + 2 * math.pi * k / BLOCKERS
        radius = sum(ARC_R) / 2
        obstacles.append({
            "kind": "cylinder",
            "base_center": _vec(radius * math.cos(angle), radius * math.sin(angle), 0.0),
            "radius": BLOCKER_RADIUS, "height": BLOCKER_HEIGHT})
    world = _world((-CLUTTER_HALF, -CLUTTER_HALF, 0.0),
                   (CLUTTER_HALF, CLUTTER_HALF, 10.0), CLUTTER_TARGET, obstacles)
    # A detour must reach the goal ball round the exit. At the default
    # goal_radius (0.5), over 1120 blocked shots (seeds 1-40) level 0 first
    # reached it after more than 300 loops on 13 and level 1 on 214, and about
    # one plan in 2000 ran out of levels and exited 5. With goal_radius 1.0, as
    # on wall-expand, each of levels 0 and 1 needed more than 300 loops on 1 of
    # 774 shots, and never on the same one.
    config = _config(max_loops=300, goal_radius=1.0)
    return world, config


def _clutter_shot(rng, world, index):
    # Every CLEAR_EVERY-th shot sweeps between two blockers and the rest sweep
    # over exactly one, so the mix of clear and blocked arcs is the same in
    # every run. BLOCKER_DEG keeps each arc that far from blockers it must
    # miss, and puts the blocker it must cross that far inside its sweep.
    sweep = rng.uniform(*SWEEP_DEG)
    gap = 360.0 / BLOCKERS
    b0, b1 = world["obstacles"][-BLOCKERS]["base_center"][:2]
    first = math.degrees(math.atan2(b1, b0)) + gap * rng.integers(BLOCKERS)
    if index % CLEAR_EVERY == CLEAR_EVERY - 1:
        low = rng.uniform(first + BLOCKER_DEG, first + gap - BLOCKER_DEG - sweep)
    else:
        low = rng.uniform(first - sweep + BLOCKER_DEG, first - BLOCKER_DEG)
    if rng.random() < 0.5:
        direction, a0, a1 = "counterclockwise", low, low + sweep
    else:
        direction, a0, a1 = "clockwise", low + sweep, low
    return _arc_shot(CLUTTER_TARGET,
                     rng.uniform(*ARC_R), math.radians(a0), rng.uniform(1.5, 4.0),
                     rng.uniform(*ARC_R), math.radians(a1), rng.uniform(1.5, 4.0),
                     direction, rng.integers(32, 97))


# -- wall-expand -------------------------------------------------------------
# The acceptance-suite wall: 3 m tall across the arc at 90 deg, far wider than
# the level-0 window. At altitude 2 the level-0 and level-1 windows stay below
# the inflated top (3.5 m), so only level 2 can climb over it. Level 2 finds
# its first detour within 573 loops on all of 512 shots (seeds 1-16), and
# within 400 loops on all but 8: at 400 loops about one plan in 200 also
# misses at levels 3 and 4 and exits 5, so the budget stays at the acceptance
# suite's 800.

WALL_TARGET = (0.0, 0.0, 1.0)


def _wall_world(rng):
    obstacles = [{"kind": "box", "min": [-0.6, 6.0, 0.0], "max": [0.6, 14.0, 3.0]}]
    world = _world((-20.0, -20.0, 0.0), (20.0, 20.0, 12.0), WALL_TARGET, obstacles)
    config = _config(extend_dist=1.0, goal_radius=1.0, max_loops=800)
    return world, config


def _wall_shot(rng, world, index):
    a0 = math.radians(rng.uniform(-10.0, 10.0))
    a1 = math.radians(rng.uniform(170.0, 190.0))
    return _arc_shot(WALL_TARGET, 10.0, a0, 2.0, 10.0, a1, 2.0,
                     "counterclockwise", 64)


_MAKERS = {
    "demo-deep": (_demo_world, _demo_shot),
    "clutter-survey": (_clutter_world, _clutter_shot),
    "wall-expand": (_wall_world, _wall_shot),
}
