"""Anytime RRT* detour planner with an expanding sampling window.

Two departures from textbook RRT* shape this module. First, samples are
confined to a window slightly larger than the discontinuity's bounding box;
each failed attempt restarts the search in a window scaled up by a fixed
factor, so effort stays local until the obstacle demands more room. Second,
the parent of every new node is chosen among all neighbors within the steer
step times an expansion factor, favoring long straight edges where the world
allows them. Existing nodes are never rewired through new ones: each loop
only picks the best parent for the node it inserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .discontinuity import Discontinuity
from .errors import DegenerateExtend, LocalPlanFailed
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import AxisBox, CollisionModel, Vec3, collision_model, edge_points


@dataclass(frozen=True)
class RrtParams:
    """Tuning knobs for one local-planner query; all lengths in meters."""

    extend_dist: float = 0.75
    neighbor_factor: float = 2.0
    max_loops: int = 500
    goal_radius: float = 0.5
    window_pad: float = 1.0
    window_growth: float = 1.5
    fail_limit: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.extend_dist <= 0:
            raise ValueError(f"extend_dist must be > 0, got {self.extend_dist}")
        if self.neighbor_factor <= 1:
            raise ValueError(f"neighbor_factor must be > 1, got {self.neighbor_factor}")
        if self.max_loops < 1:
            raise ValueError(f"max_loops must be >= 1, got {self.max_loops}")
        if self.goal_radius <= 0:
            raise ValueError(f"goal_radius must be > 0, got {self.goal_radius}")
        if self.window_pad < 0:
            raise ValueError(f"window_pad must be >= 0, got {self.window_pad}")
        if self.window_growth <= 1:
            raise ValueError(f"window_growth must be > 1, got {self.window_growth}")
        if self.fail_limit < 1:
            raise ValueError(f"fail_limit must be >= 1, got {self.fail_limit}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def neighbor_radius(self) -> float:
        return self.extend_dist * self.neighbor_factor


@dataclass(frozen=True)
class SearchWindow:
    """Region where new nodes may be sampled; `level` counts expansions."""

    box: AxisBox
    level: int = 0


class Tree:
    """Append-only RRT node store.

    Positions and costs from the root live in growing numpy buffers so
    nearest-neighbor and neighbor-radius scans run vectorized; parents stay
    in a plain list. Node ids are insertion indices, root is 0.
    """

    def __init__(self, root: Vec3):
        self._buf = np.empty((64, 3), dtype=float)
        self._buf[0] = root.as_array()
        self._cost = np.zeros(64, dtype=float)
        self._count = 1
        self.parents: list[int | None] = [None]

    def __len__(self) -> int:
        return self._count

    @property
    def positions(self) -> np.ndarray:
        """(n, 3) view of all node positions in insertion order."""
        return self._buf[:self._count]

    @property
    def costs(self) -> np.ndarray:
        """(n,) view of every node's path cost from the root."""
        return self._cost[:self._count]

    def add(self, position: np.ndarray, parent: int) -> int:
        """Append the node at `position` (a length-3 row) under `parent`."""
        if not 0 <= parent < self._count:
            raise ValueError(f"parent id {parent} not in tree of size {self._count}")
        if self._count == len(self._buf):
            self._buf = np.vstack([self._buf, np.empty_like(self._buf)])
            self._cost = np.concatenate([self._cost, np.empty_like(self._cost)])
        self._buf[self._count] = position
        edge = float(np.linalg.norm(self._buf[self._count] - self._buf[parent]))
        self.parents.append(parent)
        self._cost[self._count] = self._cost[parent] + edge
        self._count += 1
        return self._count - 1

    def path_from_root(self, node_id: int) -> list[Vec3]:
        chain = []
        cursor: int | None = node_id
        while cursor is not None:
            chain.append(Vec3.from_array(self._buf[cursor]))
            cursor = self.parents[cursor]
        chain.reverse()
        return chain


@dataclass(frozen=True)
class LocalPath:
    """Collision-free detour from a discontinuity entry to its exit."""

    positions: tuple[Vec3, ...]
    cost: float

    def __post_init__(self):
        if len(self.positions) < 2:
            raise ValueError("LocalPath needs at least entry and exit positions")


def initial_window(d: Discontinuity, pad: float, bounds: AxisBox) -> SearchWindow:
    """Bounding box of the entry/exit poses, padded, clamped to world bounds."""
    a = d.entry_pose.position
    b = d.exit_pose.position
    box = AxisBox(
        Vec3(min(a.x, b.x), min(a.y, b.y), min(a.z, b.z)),
        Vec3(max(a.x, b.x), max(a.y, b.y), max(a.z, b.z)),
    ).expanded(pad).clipped_to(bounds)
    return SearchWindow(box=box, level=0)


def expand_window(window: SearchWindow, growth: float, bounds: AxisBox) -> SearchWindow:
    """Scale the window about its center, clamp to bounds, bump the level."""
    if growth <= 1:
        raise ValueError(f"growth must be > 1, got {growth}")
    box = window.box.scaled_about_center(growth).clipped_to(bounds)
    return SearchWindow(box=box, level=window.level + 1)


def sample(window: SearchWindow, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) uniform positions inside the window, drawn in one call.

    Consumes the rng exactly as `count` successive single-point draws would.
    """
    lo = window.box.min.as_array()
    hi = window.box.max.as_array()
    return rng.uniform(lo, hi, size=(count, 3))


def nearest_vertex(tree: Tree, p: np.ndarray) -> int:
    """Id of the node closest to `p`; ties go to the earliest insertion."""
    deltas = tree.positions - p
    return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))


def _norm(v: np.ndarray) -> float:
    """Euclidean length summed x, y, z in order, bit for bit `Vec3.norm`."""
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def extend(from_point: np.ndarray, toward: np.ndarray, extend_dist: float) -> np.ndarray:
    """Steer from `from_point` toward `toward` by at most `extend_dist`."""
    offset = toward - from_point
    length = _norm(offset)
    if length == 0.0:
        raise DegenerateExtend(f"cannot extend from {from_point} toward itself")
    if length <= extend_dist:
        return toward
    return from_point + offset * (extend_dist / length)


def _best_parent(tree: Tree, x_new: np.ndarray, radius: float,
                 model: CollisionModel, step: float) -> int | None:
    """Cheapest in-radius node whose straight edge to `x_new` is collision-free.

    Minimizes node cost plus edge length; ties resolve to the earliest
    insertion. Returns None when every in-radius edge is blocked.

    Candidates whose last edge sample is blocked are dropped first, with one
    `free_points` call; that sample is `origin + (x_new - origin)`, which may
    differ from `x_new` in the last bit, so it is tested rather than `x_new`.
    The cheapest remaining edge is then checked alone, and only if it is
    blocked are the others classified, in one batch.
    """
    dists = np.linalg.norm(tree.positions - x_new, axis=1)
    candidates = np.flatnonzero(dists <= radius)
    if candidates.size == 0:
        return None
    totals = tree.costs[candidates] + dists[candidates]
    # stable sort keeps insertion order within cost ties
    order = candidates[np.argsort(totals, kind="stable")]
    origins = tree.positions[order]
    reachable = model.free_points(origins + (x_new - origins))
    order, origins = order[reachable], origins[reachable]
    if order.size == 0:
        return None
    pts, _ = edge_points(origins[:1], x_new, step)
    if model.free_points(pts).all():
        return int(order[0])
    if order.size == 1:
        return None
    pts, first = edge_points(origins[1:], x_new, step)
    edge_free = np.logical_and.reduceat(model.free_points(pts), first)
    winner = int(np.argmax(edge_free))
    return int(order[1 + winner]) if edge_free[winner] else None


@dataclass
class RrtRunResult:
    """One windowed RRT* attempt: its best path (None if it found none), tree,
    window and loop count. `plan_local_run` returns the winning attempt with
    `loops` summed over every attempt it made."""

    path: LocalPath | None
    tree: Tree
    window: SearchWindow
    loops: int
    best_costs: list[float] = field(default_factory=list)


def rrt_star_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                 level: int, step: float, disc_index: int = 0) -> RrtRunResult:
    """Run the full RRT* loop once inside the level-expanded window, checking
    edges at samples at most `step` apart.

    The rng stream is derived from (seed, discontinuity index, window level),
    so every attempt is reproducible and independent of the others.
    """
    window = initial_window(d, params.window_pad, model.world.bounds)
    for _ in range(level):
        window = expand_window(window, params.window_growth, model.world.bounds)
    # every sample, node and edge of the attempt lies in the convex window
    model = model.within(window.box)

    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, level)))

    entry = d.entry_pose.position
    exit_ = d.exit_pose.position
    exit_row = exit_.as_array()
    tree = Tree(entry)
    radius = params.neighbor_radius

    best_cost = math.inf
    best_node: int | None = None
    best_costs = []

    for x_rand in sample(window, rng, params.max_loops):
        near_pos = tree.positions[nearest_vertex(tree, x_rand)]
        if (x_rand == near_pos).all():  # degenerate window collapses onto the tree
            best_costs.append(best_cost)
            continue
        x_new = extend(near_pos, x_rand, params.extend_dist)
        parent = _best_parent(tree, x_new, radius, model, step)
        if parent is None:
            best_costs.append(best_cost)
            continue
        node_id = tree.add(x_new, parent)

        goal_dist = _norm(x_new - exit_row)
        if (goal_dist <= params.goal_radius
                and model.segment_free(Vec3.from_array(x_new), exit_, step)):
            candidate = float(tree.costs[node_id]) + goal_dist
            if candidate < best_cost:
                best_cost = candidate
                best_node = node_id
        best_costs.append(best_cost)

    if best_node is None:
        return RrtRunResult(None, tree, window, params.max_loops, best_costs)
    positions = tuple(tree.path_from_root(best_node)) + (exit_,)
    return RrtRunResult(LocalPath(positions, best_cost), tree, window,
                        params.max_loops, best_costs)


def plan_local_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                   step: float, disc_index: int = 0) -> RrtRunResult:
    """Retry rrt_star_run with a growing window until it succeeds.

    Levels 0 .. fail_limit-1 are attempted in order; the first success wins.
    Returns the winning attempt with `loops` summed over every attempt made;
    its `window.level` is the expansion level. Raises LocalPlanFailed once the
    expansion budget is spent.
    """
    loops = 0
    for level in range(params.fail_limit):
        result = rrt_star_run(d, model, params, level, step, disc_index)
        loops += result.loops
        if result.path is not None:
            return replace(result, loops=loops)
    raise LocalPlanFailed(disc_index, params.fail_limit)
