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
from .world import CULL_PAD, AxisBox, CollisionModel, collision_model

# Samples per block scan of the tree in `rrt_star_run`, set by measurement
BLOCK = 8


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
        # negated comparisons, so NaN fails them too
        if not self.extend_dist > 0:
            raise ValueError(f"extend_dist must be > 0, got {self.extend_dist}")
        if not self.neighbor_factor > 1:
            raise ValueError(f"neighbor_factor must be > 1, got {self.neighbor_factor}")
        if self.max_loops < 1:
            raise ValueError(f"max_loops must be >= 1, got {self.max_loops}")
        if not self.goal_radius > 0:
            raise ValueError(f"goal_radius must be > 0, got {self.goal_radius}")
        if not self.window_pad >= 0:
            raise ValueError(f"window_pad must be >= 0, got {self.window_pad}")
        if not self.window_growth > 1:
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
    """Append-only RRT node store, grown from a root of three floats.

    Positions live in a growing (3, capacity) buffer, one contiguous row per
    axis, so the block scans of the whole tree run as flat vector passes.
    `rows` mirrors every position as a list of three Python floats and
    `node_costs` holds every cost from the root, for the per-loop work on
    the few nodes a loop touches; `add` writes all of them. Parents stay in
    a plain list. Node ids are insertion indices, root is 0.
    """

    def __init__(self, root):
        self._xyz = np.empty((3, 64), dtype=float)
        self._xyz[:, 0] = root
        self._count = 1
        self.rows: list[list[float]] = [self._xyz[:, 0].tolist()]
        self.node_costs: list[float] = [0.0]
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

    def add(self, position, parent: int) -> int:
        """Append the node at `position` (three floats) under `parent`."""
        if not 0 <= parent < self._count:
            raise ValueError(f"parent id {parent} not in tree of size {self._count}")
        if self._count == self._xyz.shape[1]:
            self._xyz = np.hstack([self._xyz, np.empty_like(self._xyz)])
        column = self._xyz[:, self._count]
        column[:] = position
        row = column.tolist()
        px, py, pz = self.rows[parent]
        # summed x, y, z as `_distances` sums them; no BLAS call, whose bits
        # would follow the kernel OpenBLAS picks for the CPU
        dx, dy, dz = row[0] - px, row[1] - py, row[2] - pz
        edge = math.sqrt(dx * dx + dy * dy + dz * dz)
        self.rows.append(row)
        self.node_costs.append(self.node_costs[parent] + edge)
        self.parents.append(parent)
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
    """Bounding box of the entry and exit, padded, clamped to world bounds."""
    a, b = np.array((d.entry, d.exit))
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


def _square_distances(tree: Tree, points: np.ndarray,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """(b, n) squared distances from each of the (b, 3) `points` to every
    node, summed x, z, y in that order, written into the flat float buffer
    `scratch` (at least 2 * b * n long) when one is given.

    That is bit for bit what `np.einsum("ij,ij->i", d, d)` gives on C-ordered
    (n, 3) rows, the scan the recorded trees were grown with. Summing x, y, z
    instead resolves some 1-ulp near-ties the other way. A reused buffer
    spares a big tree's scans fresh (b, n) temporaries, with which a scan
    of 8 points over 5600 nodes measured 2.5 times slower.
    """
    x, y, z = tree.xyz
    size = len(points) * len(tree)
    if scratch is None:
        scratch = np.empty(2 * size)
    dist2 = scratch[:size].reshape(len(points), -1)
    q = scratch[size:2 * size].reshape(len(points), -1)
    np.subtract(x, points[:, 0, None], out=dist2)
    dist2 *= dist2
    np.subtract(z, points[:, 2, None], out=q)
    q *= q
    dist2 += q
    np.subtract(y, points[:, 1, None], out=q)
    q *= q
    dist2 += q
    return dist2


def nearest_vertex(tree: Tree, p, block: tuple[int, float, int] | None = None) -> int:
    """Id of the node closest to `p` (three floats); ties go to the earliest
    insertion.

    Without `block`, one block scan of the point `p` over the whole tree.
    With `block` = (id, squared distance, count), the nearest of the tree's
    first `count` nodes as a block scan found it, only the nodes added since
    are compared with it, their squares summed x, z, y in Python floats (the
    same bits as the scan's elementwise ops). Strict `<` keeps the earlier
    node on a tie, so the answer is the full scan's first argmin.
    """
    if block is None:
        return int(_square_distances(tree, np.asarray(p, dtype=float)[None]).argmin())
    near, best, count = block
    x, y, z = p
    for i, (px, py, pz) in enumerate(tree.rows[count:], count):
        dx, dy, dz = px - x, py - y, pz - z
        dist2 = dx * dx + dz * dz + dy * dy
        if dist2 < best:
            near, best = i, dist2
    return near


def _older_candidates(dist2: np.ndarray, near_dist2: np.ndarray, radius: float,
                      extend_dist: float) -> tuple[list[int], list[int]]:
    """The scanned nodes that can lie within `radius` of each sample's new
    node, from a block scan `dist2` and each sample's nearest squared
    distance `near_dist2`: the ids of every sample's run in one list, in
    insertion order within a run, and the end of each run.

    An in-radius node of x_new lies within radius + |x_rand - x_new| of
    x_rand. x_new is x_rand or steps extend_dist toward it from a node no
    farther than the scan's nearest, so |x_rand - x_new| is at most
    max(0, sqrt(near_dist2) - extend_dist). CULL_PAD covers the rounding of
    every distance involved for coordinates far below 1e9 m.
    """
    count = dist2.shape[1]
    reach = radius + np.maximum(np.sqrt(near_dist2) - extend_dist, 0.0) + CULL_PAD
    flat = np.flatnonzero(dist2 <= (reach * reach)[:, None])
    ends = flat.searchsorted(np.arange(1, len(dist2) + 1) * count)
    return (flat % count).tolist(), ends.tolist()


def _distances(tree: Tree, p, ids) -> list[float]:
    """Distances from `p` (three floats) to the nodes `ids`, bit for bit
    `np.linalg.norm(tree.positions[ids] - p, axis=1)`: its add.reduce sums
    each row x, y, z in order, and Python floats round each op as numpy's
    elementwise ops do."""
    x, y, z = p
    rows = tree.rows
    dists = []
    for i in ids:
        px, py, pz = rows[i]
        dx, dy, dz = px - x, py - y, pz - z
        dists.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    return dists


def extend(from_point, toward, extend_dist: float):
    """Steer from `from_point` toward `toward` (three floats each) by at most
    `extend_dist`: `toward` itself when it is that close, else a new list.

    Lengths sum x, y, z in order, bit for bit `Vec3.norm`, and each
    coordinate is from + offset * (extend_dist / length), as numpy's
    elementwise ops on (3,) rows give it.
    """
    fx, fy, fz = from_point
    tx, ty, tz = toward
    ox, oy, oz = tx - fx, ty - fy, tz - fz
    length = math.sqrt(ox * ox + oy * oy + oz * oz)
    if length == 0.0:
        raise DegenerateExtend(f"cannot extend from {from_point} toward itself")
    if length <= extend_dist:
        return toward
    scale = extend_dist / length
    return [fx + ox * scale, fy + oy * scale, fz + oz * scale]


def _best_parent(tree: Tree, x_new, radius: float, model: CollisionModel,
                 near=None) -> int | None:
    """Cheapest in-radius node whose straight edge to `x_new` (three floats)
    passes `model.segment_free`.

    Minimizes node cost plus edge length; ties resolve to the earliest
    insertion. Returns None when every in-radius edge is blocked. `near`
    lists node ids that hold every in-radius node (a superset from the block
    scan), strictly ascending; None means the whole tree. Distances, totals
    and the cost order are Python floats with numpy's bits, so the answer
    is the one a full-tree pass gives.

    One pass keeps the cheapest candidate so far. Its strict `<` leaves a
    tie with the first id seen, which is the least only because `near`
    ascends. A node whose cost alone reaches that total is skipped before
    its distance: cost + dist rounds to at least cost, so it cannot win.
    Only when the winner's edge is blocked are all candidates ranked,
    (total, id) as a stable argsort ranks them, and the rest tried in that
    order.
    """
    ids = range(len(tree)) if near is None else near
    costs, rows = tree.node_costs, tree.rows
    x, y, z = x_new
    best, winner = math.inf, None
    for i in ids:
        cost = costs[i]
        if cost >= best:
            continue
        px, py, pz = rows[i]
        dx, dy, dz = px - x, py - y, pz - z
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)  # `_distances`' bits
        if dist <= radius and cost + dist < best:
            best, winner = cost + dist, i
    if winner is None or model.segment_free(rows[winner], x_new):
        return winner
    candidates = [(costs[i] + dist, i)
                  for i, dist in zip(ids, _distances(tree, x_new, ids)) if dist <= radius]
    for _, i in sorted(candidates)[1:]:
        if model.segment_free(rows[i], x_new):
            return i
    return None


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
    `window` cannot connect the entry to the exit.

    Every node of an attempt lies in the box spanned by the window and both
    endpoints, up to rounding far below CULL_PAD, and so does every edge
    between nodes and the goal segment, which are straight. If one inflated
    box covers that span, padded by CULL_PAD, in two axes and its slab along
    the third lies strictly between entry and exit, each chain of edges from
    entry to exit is a continuous path that crosses the box, and
    `segment_free` refuses the edge that does.

    Some faces of the span need no pad, because no node coordinate passes
    them at all. Each is the entry's, the exit's, or fl(a + fl(t * fl(b - a)))
    with t in [0, 1] and a, b window bounds or earlier such values:
    `rng.uniform`'s lo + (hi - lo) * u with u <= 1 - 2**-53, and `extend`
    with t = extend_dist / length. For a, b >= 0 that value is at least 0
    and at most succ(max(a, b)); it is at most max(a, b) itself when
    max(a, b) has an even significand, because its only overshoot is a tie
    at max + ulp/2, and ties round to even. By induction, on an axis whose
    span is all >= 0, no node coordinate exceeds a top `hi` with an even
    significand, nor does any point of an edge, and an inflated box face at
    `hi` is closed, so it blocks. Negating every value gives the bottom face
    of an axis whose span is all <= 0. Without the sign and parity
    conditions the bound is false: 0.015199091831556488 +
    (0.6837413448974007 - 0.015199091831556488) is 0.6837413448974008, one
    ulp above the larger operand.
    """
    entry, exit_ = np.array((d.entry, d.exit))
    lo = np.minimum.reduce((window.lo, entry, exit_))
    hi = np.maximum.reduce((window.hi, entry, exit_))
    # a float64's significand is even when its lowest stored bit is 0
    exact_lo = (hi <= 0) & ((lo.view(np.int64) & 1) == 0)
    exact_hi = (lo >= 0) & ((hi.view(np.int64) & 1) == 0)
    lo = np.where(exact_lo, lo, lo - CULL_PAD)
    hi = np.where(exact_hi, hi, hi + CULL_PAD)
    return model.separates(entry, exit_, lo, hi)


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
    every edge with `model.segment_free`.

    The rng stream is derived from (seed, discontinuity index, window level),
    so every attempt is reproducible and independent of the others.

    Samples are drawn once per attempt and handled in blocks of BLOCK. One
    scan per block gives each sample's nearest node among the nodes present
    when the block starts and the older nodes that can lie within the
    neighbour radius of its new node; each loop then looks only at those and
    at the nodes added since, on Python floats with the full scans' bits, so
    the tree is the one a scan per loop grows. A sample that `extend` refuses,
    because it lies on its nearest node or a subnormal offset from it, is
    skipped, and so is a new node that `model.point_blocked` refuses, before
    any candidate work: `_best_parent` would find every edge to it blocked.
    """
    window, model = level_window(d, model, params, level)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, level)))

    ex, ey, ez = goal = d.exit
    tree = Tree(d.entry)
    rows, costs = tree.rows, tree.node_costs
    radius = params.neighbor_radius

    best_cost = math.inf
    best_node: int | None = None

    samples = sample(window, rng, params.max_loops)
    scratch = np.empty(0)
    for start in range(0, len(samples), BLOCK):
        block = samples[start:start + BLOCK]
        count = len(tree)
        if scratch.size < 2 * BLOCK * count:
            scratch = np.empty(4 * BLOCK * count)  # room for the tree to double
        dist2 = _square_distances(tree, block, scratch)
        nearest = dist2.argmin(axis=1)
        near_dist2 = dist2[np.arange(len(block)), nearest]
        older, ends = _older_candidates(dist2, near_dist2, radius, params.extend_dist)
        begin = 0
        for x_rand, near, best, end in zip(block.tolist(), nearest.tolist(),
                                           near_dist2.tolist(), ends):
            near_ids, begin = older[begin:end], end
            near_pos = rows[nearest_vertex(tree, x_rand, (near, best, count))]
            try:
                x_new = extend(near_pos, x_rand, params.extend_dist)
            except DegenerateExtend:  # a degenerate window collapses onto the tree
                continue
            if model.point_blocked(x_new):  # no edge to it can be free
                continue
            near_ids.extend(range(count, len(tree)))
            parent = _best_parent(tree, x_new, radius, model, near_ids)
            if parent is None:
                continue
            node_id = tree.add(x_new, parent)

            dx, dy, dz = x_new[0] - ex, x_new[1] - ey, x_new[2] - ez
            goal_dist = math.sqrt(dx * dx + dy * dy + dz * dz)
            if goal_dist <= params.goal_radius:
                # only a goal edge that would improve the path is worth its check
                candidate = costs[node_id] + goal_dist
                if candidate < best_cost and model.segment_free(x_new, goal):
                    best_cost = candidate
                    best_node = node_id

    if best_node is None:
        return RrtRunResult(None, tree, window, params.max_loops)
    positions = np.vstack((tree.path_from_root(best_node), goal))
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
