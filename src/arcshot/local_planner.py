"""Anytime RRT* detour planner with an expanding sampling window.

Two departures from textbook RRT* shape this module. First, samples are
confined to a window slightly larger than the discontinuity's bounding box;
each failed attempt restarts the search in a window scaled up by a fixed
factor, so effort stays local until the obstacle demands more room; a level
that one inflated box provably walls off is skipped unrun, including a level
whose window ends exactly on the box's closed face, which the planner's
rounding provably never passes (`walled_off`). Second,
the parent of every new node is chosen among all neighbors within the steer
step times an expansion factor, favoring long straight edges where the world
allows them. Existing nodes are never rewired through new ones: each loop
only picks the best parent for the node it inserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .discontinuity import Discontinuity
from .errors import DegenerateExtend, LocalPlanFailed
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import CULL_PAD, AxisBox, CollisionModel, Vec3, collision_model, edge_points


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


@dataclass(frozen=True, eq=False)
class SearchWindow:
    """Box [`lo`, `hi`] (two (3,) rows) where new nodes may be sampled;
    `level` counts expansions."""

    lo: np.ndarray
    hi: np.ndarray
    level: int = 0


class Tree:
    """Append-only RRT node store.

    Positions live in a growing (3, capacity) buffer, one contiguous row per
    axis, and costs from the root in a growing vector, so the full-tree
    distance scans run as flat vector passes; parents stay in a plain list.
    Node ids are insertion indices, root is 0.
    """

    def __init__(self, root: Vec3):
        self._xyz = np.empty((3, 64), dtype=float)
        self._xyz[:, 0] = root.as_array()
        self._cost = np.zeros(64, dtype=float)
        self._count = 1
        self.parents: list[int | None] = [None]

    def __len__(self) -> int:
        return self._count

    @property
    def xyz(self) -> np.ndarray:
        """(3, n) view of all node positions, one row per axis."""
        return self._xyz[:, :self._count]

    @property
    def positions(self) -> np.ndarray:
        """(n, 3) view of all node positions in insertion order."""
        return self._xyz[:, :self._count].T

    @property
    def costs(self) -> np.ndarray:
        """(n,) view of every node's path cost from the root."""
        return self._cost[:self._count]

    def add(self, position: np.ndarray, parent: int) -> int:
        """Append the node at `position` (a length-3 row) under `parent`."""
        if not 0 <= parent < self._count:
            raise ValueError(f"parent id {parent} not in tree of size {self._count}")
        if self._count == self._xyz.shape[1]:
            self._xyz = np.hstack([self._xyz, np.empty_like(self._xyz)])
            self._cost = np.concatenate([self._cost, np.empty_like(self._cost)])
        self._xyz[:, self._count] = position
        # numpy's own 1-D norm, sqrt(d . d): the cost bits the recorded tree
        # hashes pin
        d = self._xyz[:, self._count] - self._xyz[:, parent]
        edge = math.sqrt(d.dot(d))
        self.parents.append(parent)
        self._cost[self._count] = self._cost[parent] + edge
        self._count += 1
        return self._count - 1

    def path_from_root(self, node_id: int) -> np.ndarray:
        """(k, 3) positions from the root down to `node_id`."""
        chain = []
        cursor: int | None = node_id
        while cursor is not None:
            chain.append(cursor)
            cursor = self.parents[cursor]
        return self._xyz[:, chain[::-1]].T


@dataclass(frozen=True, eq=False)
class LocalPath:
    """Collision-free detour from a discontinuity entry to its exit: read-only
    (k, 3) positions, k >= 2, and cost; paths equal by both."""

    positions: np.ndarray
    cost: float

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 3 or len(positions) < 2:
            raise ValueError("LocalPath needs (k, 3) positions, k >= 2, from entry to exit")
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LocalPath) and self.cost == other.cost
                and np.array_equal(self.positions, other.positions))


def _clamped(lo: np.ndarray, hi: np.ndarray, bounds: AxisBox, level: int) -> SearchWindow:
    """The window [`lo`, `hi`] clamped to `bounds`. Python's `max`/`min`
    rule, that the first operand wins a tie, decides a 0.0/-0.0 tie."""
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"search window must be finite, got {lo} .. {hi}")
    b_lo, b_hi = bounds.min.as_array(), bounds.max.as_array()
    return SearchWindow(np.where(b_lo > lo, b_lo, lo), np.where(b_hi < hi, b_hi, hi), level)


def initial_window(d: Discontinuity, pad: float, bounds: AxisBox) -> SearchWindow:
    """Bounding box of the entry/exit poses, padded, clamped to world bounds."""
    a = d.entry_pose.position.as_array()
    b = d.exit_pose.position.as_array()
    return _clamped(np.where(b < a, b, a) - pad, np.where(b > a, b, a) + pad, bounds, 0)


def expand_window(window: SearchWindow, growth: float, bounds: AxisBox) -> SearchWindow:
    """Scale the window about its center, clamp to bounds, bump the level."""
    if growth <= 1:
        raise ValueError(f"growth must be > 1, got {growth}")
    center = (window.lo + window.hi) / 2.0
    half = (window.hi - window.lo) / 2.0 * growth
    return _clamped(center - half, center + half, bounds, window.level + 1)


def sample(window: SearchWindow, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) uniform positions inside the window, drawn in one call.

    Consumes the rng exactly as `count` successive single-point draws would.
    """
    return rng.uniform(window.lo, window.hi, size=(count, 3))


def nearest_vertex(tree: Tree, p: np.ndarray) -> int:
    """Id of the node closest to `p`; ties go to the earliest insertion.

    Squared distances sum x, z, y in that order: bit for bit what
    `np.einsum("ij,ij->i", d, d)` gives on C-ordered (n, 3) rows, the scan
    the recorded trees were grown with. Summing x, y, z instead resolves
    some 1-ulp near-ties the other way.
    """
    q = tree.xyz - p[:, None]
    q *= q
    dist2 = q[0]
    dist2 += q[2]
    dist2 += q[1]
    return int(dist2.argmin())


def _distances(tree: Tree, p: np.ndarray) -> np.ndarray:
    """(n,) distances from `p` to every node, bit for bit
    `np.linalg.norm(tree.positions - p, axis=1)`: its add.reduce sums each
    (n, 3) row x, y, z in order."""
    q = tree.xyz - p[:, None]
    q *= q
    dists = q[0]
    dists += q[1]
    dists += q[2]
    return np.sqrt(dists, out=dists)


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
                 model: CollisionModel) -> int | None:
    """Cheapest in-radius node whose straight edge to `x_new` is collision-free.

    Minimizes node cost plus edge length; ties resolve to the earliest
    insertion. Returns None when every in-radius edge is blocked.

    When `model.segment_clear` certifies the cheapest candidate's edge, it
    wins with no point classified: every point `free_points` would see for
    that edge, an `edge_points` row or `origin + (x_new - origin)`, is an
    interpolation between the two ends that the certificate covers, so the
    sequential rule accepts the first candidate in cost order, the first
    index `argmin` gives. The ball of radius `dists[best]` round `x_new`
    contains that edge, so every call whose ball lies CULL_PAD clear of the
    obstacles and the bounds is certified, up to rounding far below the
    pad, and with it every call whose whole neighbour ball does.

    Otherwise one `free_points` call classifies the last edge sample of
    every candidate, `origin + (x_new - origin)`. That sample may differ
    from `x_new` in the last bit, so it is tested rather than `x_new`; it is
    also the last row `edge_points` gives the edge. Then one batch
    classifies the edges of the candidates whose last sample is free, and
    the first free one in stable cost order wins.
    """
    dists = _distances(tree, x_new)
    candidates = (dists <= radius).nonzero()[0]
    if candidates.size == 0:
        return None
    totals = tree.costs[candidates] + dists[candidates]
    best = int(candidates[totals.argmin()])
    if model.segment_clear(tree.xyz[:, best], x_new):
        return best
    # stable sort keeps insertion order within cost ties
    order = candidates[totals.argsort(kind="stable")]
    origins = tree.positions[order]
    reachable = model.free_points(origins + (x_new - origins))
    order, origins = order[reachable], origins[reachable]
    if order.size == 0:
        return None
    pts, first = edge_points(origins, x_new, model.check_step)
    edge_free = np.logical_and.reduceat(model.free_points(pts), first)
    winner = int(edge_free.argmax())
    return int(order[winner]) if edge_free[winner] else None


def level_window(d: Discontinuity, model: CollisionModel, params: RrtParams,
                 level: int) -> tuple[SearchWindow, CollisionModel]:
    """The search window of expansion `level` and `model` culled to it.

    Every sample, node and edge of an attempt lies in the convex window, up
    to rounding that `within`'s pad covers.
    """
    window = initial_window(d, params.window_pad, model.world.bounds)
    for _ in range(level):
        window = expand_window(window, params.window_growth, model.world.bounds)
    return window, model.within(window.lo, window.hi)


def walled_off(d: Discontinuity, window: SearchWindow, model: CollisionModel) -> bool:
    """True when one inflated box of `model` proves that an attempt in
    `window`, checking edges at samples at most `model.check_step` apart,
    cannot connect the entry to the exit.

    Every point an attempt tests lies in the box spanned by the window and
    both endpoints, up to rounding far below CULL_PAD. If one inflated box
    covers that span, padded by CULL_PAD, in two axes and its slab along the
    third lies strictly between entry and exit, each edge chain from entry to
    exit has samples on both sides of the slab. Successive samples are at
    most `model.check_step` apart, up to the same rounding, so with the slab
    thicker than that step plus the pad one of them lands inside the box and
    is blocked. A model culled by `within` keeps its quad, so its step. An
    edge that `_best_parent` accepts by `segment_clear` is not sampled, but
    every sample `edge_points` would take along it is free, so it is no
    exception.

    Some faces of the span need no pad, because no tested coordinate passes
    them at all. Each coordinate an attempt tests is the entry's, the exit's,
    or fl(a + fl(t * fl(b - a))) with t in [0, 1] and a, b window bounds or
    earlier such values: `rng.uniform`'s lo + (hi - lo) * u with
    u <= 1 - 2**-53, `extend` with t = extend_dist / length, `edge_points`
    with t = k * (1 / n) and the last t exactly 1 (the goal segment too), and
    `_best_parent`'s others + (x_new - others). For a, b >= 0 that value is
    at least 0 and at most succ(max(a, b)); it is at most max(a, b) itself
    when max(a, b) has an even significand, because its only overshoot is a
    tie at max + ulp/2, and ties round to even. By induction, on an axis
    whose span is all >= 0, no tested coordinate exceeds a top `hi` with an
    even significand, and an inflated box face at `hi` is closed, so it
    blocks. Negating every value gives the bottom face of an axis whose span
    is all <= 0. Without the sign and parity conditions the bound is false:
    0.015199091831556488 + (0.6837413448974007 - 0.015199091831556488) is
    0.6837413448974008, one ulp above the larger operand.
    """
    entry = d.entry_pose.position.as_array()
    exit_ = d.exit_pose.position.as_array()
    lo = np.minimum.reduce((window.lo, entry, exit_))
    hi = np.maximum.reduce((window.hi, entry, exit_))
    # a float64's significand is even when its lowest stored bit is 0
    exact_lo = (hi <= 0) & ((lo.view(np.int64) & 1) == 0)
    exact_hi = (lo >= 0) & ((hi.view(np.int64) & 1) == 0)
    lo = np.where(exact_lo, lo, lo - CULL_PAD)
    hi = np.where(exact_hi, hi, hi + CULL_PAD)
    return model.separates(entry, exit_, lo, hi, model.check_step + CULL_PAD)


@dataclass
class RrtRunResult:
    """One windowed RRT* attempt: its best path (None if it found none), tree,
    window and loop count. `plan_local_run` returns the winning attempt with
    `loops` summed over every attempt it made."""

    path: LocalPath | None
    tree: Tree
    window: SearchWindow
    loops: int


def rrt_star_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                 level: int, disc_index: int = 0) -> RrtRunResult:
    """Run the full RRT* loop once inside the level-expanded window, checking
    edges at samples at most `model.check_step` apart.

    The rng stream is derived from (seed, discontinuity index, window level),
    so every attempt is reproducible and independent of the others.
    """
    window, model = level_window(d, model, params, level)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, level)))

    exit_row = d.exit_pose.position.as_array()
    tree = Tree(d.entry_pose.position)
    radius = params.neighbor_radius

    best_cost = math.inf
    best_node: int | None = None

    for x_rand in sample(window, rng, params.max_loops):
        near_pos = tree.positions[nearest_vertex(tree, x_rand)]
        if (x_rand == near_pos).all():  # degenerate window collapses onto the tree
            continue
        x_new = extend(near_pos, x_rand, params.extend_dist)
        parent = _best_parent(tree, x_new, radius, model)
        if parent is None:
            continue
        node_id = tree.add(x_new, parent)

        goal_dist = _norm(x_new - exit_row)
        if goal_dist <= params.goal_radius and model.segment_free(x_new, exit_row):
            candidate = float(tree.costs[node_id]) + goal_dist
            if candidate < best_cost:
                best_cost = candidate
                best_node = node_id

    if best_node is None:
        return RrtRunResult(None, tree, window, params.max_loops)
    positions = np.vstack((tree.path_from_root(best_node), exit_row))
    return RrtRunResult(LocalPath(positions, best_cost), tree, window,
                        params.max_loops)


def plan_local_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                   disc_index: int = 0) -> RrtRunResult:
    """Retry rrt_star_run with a growing window until it succeeds.

    Levels 0 .. fail_limit-1 are attempted in order; the first success wins.
    A level that `walled_off` proves hopeless is skipped: it counts the
    `max_loops` a failed attempt reports, and since each level draws from its
    own rng stream, the others plan exactly as if it had run.
    Returns the winning attempt with `loops` summed over every level tried;
    its `window.level` is the expansion level. Raises LocalPlanFailed once the
    expansion budget is spent.
    """
    loops = 0
    for level in range(params.fail_limit):
        if walled_off(d, *level_window(d, model, params, level)):
            loops += params.max_loops
            continue
        result = rrt_star_run(d, model, params, level, disc_index)
        loops += result.loops
        if result.path is not None:
            return replace(result, loops=loops)
    raise LocalPlanFailed(disc_index, params.fail_limit)
