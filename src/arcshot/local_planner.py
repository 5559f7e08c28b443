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

Each loop's nearest node and parent candidates come from one scan of the
tree per block of BLOCK samples: a float32 prefilter, one `np.einsum`
without BLAS, within a proven bound of every exact squared distance
(`_scan_bound`), whose near-ties are settled in float64 with the exact
scan's bits, plus a bound between the block's samples for the nodes the
block adds (`_block_pairs`). So every tree is bit for bit the one an
exact float64 scan per loop grows.
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
BLOCK = 32


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

    `rows` holds every position as a list of three Python floats,
    `node_costs` every cost from the root and `parents` every parent id;
    `add` appends to those three lists only, so the per-loop work on the
    few nodes a loop touches never leaves Python floats. A (3, capacity)
    float64 buffer, one contiguous row per axis, mirrors `rows` for the
    vector passes: it is filled from the rows added since its last fill
    on each read of `xyz`, `positions` or `path_from_root`, which a block
    scan makes once per block. Node ids are insertion indices, root is 0.
    """

    def __init__(self, root):
        x, y, z = root
        self.rows: list[list[float]] = [[float(x), float(y), float(z)]]
        self.node_costs: list[float] = [0.0]
        self.parents: list[int | None] = [None]
        self._xyz = np.empty((3, 64), dtype=float)
        self._filled = 0

    def __len__(self) -> int:
        return len(self.rows)

    def _flushed(self) -> np.ndarray:
        """The float64 buffer, filled up to the last node."""
        count = len(self.rows)
        if self._filled < count:
            if count > self._xyz.shape[1]:
                grown = np.empty((3, 2 * count), dtype=float)
                grown[:, :self._filled] = self._xyz[:, :self._filled]
                self._xyz = grown
            self._xyz[:, self._filled:count] = np.array(self.rows[self._filled:]).T
            self._filled = count
        return self._xyz

    @property
    def xyz(self) -> np.ndarray:
        """(3, n) view of all node positions, one row per axis."""
        return self._flushed()[:, :len(self.rows)]

    @property
    def positions(self) -> np.ndarray:
        """(n, 3) view of all node positions in insertion order."""
        return self.xyz.T

    def add(self, position, parent: int) -> int:
        """Append the node at `position` (three floats) under `parent`."""
        count = len(self.rows)
        if not 0 <= parent < count:
            raise ValueError(f"parent id {parent} not in tree of size {count}")
        x, y, z = position
        row = [float(x), float(y), float(z)]
        px, py, pz = self.rows[parent]
        # summed x, y, z as `_distances` sums them; no BLAS call, whose bits
        # would follow the kernel OpenBLAS picks for the CPU
        dx, dy, dz = row[0] - px, row[1] - py, row[2] - pz
        edge = math.sqrt(dx * dx + dy * dy + dz * dz)
        self.rows.append(row)
        self.node_costs.append(self.node_costs[parent] + edge)
        self.parents.append(parent)
        return count

    def path_from_root(self, node_id: int) -> np.ndarray:
        """(k, 3) positions from the root down to `node_id`."""
        chain = []
        cursor: int | None = node_id
        while cursor is not None:
            chain.append(cursor)
            cursor = self.parents[cursor]
        return self._flushed()[:, chain[::-1]].T


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


def _square_distances(tree: Tree, points: np.ndarray) -> np.ndarray:
    """(b, n) squared distances from each of the (b, 3) `points` to every
    node, summed x, z, y in that order: the exact float64 scan that the
    float32 prefilter of `rrt_star_run` reproduces.

    That is bit for bit what `np.einsum("ij,ij->i", d, d)` gives on C-ordered
    (n, 3) rows, the scan the recorded trees were grown with. Summing x, y, z
    instead resolves some 1-ulp near-ties the other way.
    """
    x, y, z = tree.xyz
    dist2 = np.subtract(x, points[:, 0, None])
    dist2 *= dist2
    q = np.subtract(z, points[:, 2, None])
    q *= q
    dist2 += q
    np.subtract(y, points[:, 1, None], out=q)
    q *= q
    dist2 += q
    return dist2


def nearest_vertex(tree: Tree, p, block: tuple[int, float, list[int]] | None = None) -> int:
    """Id of the node closest to `p` (three floats); ties go to the earliest
    insertion.

    Without `block`, one exact scan of the point `p` over the whole tree.
    With `block` = (id, squared distance, recent ids), the nearest of the
    nodes present when a block scan started as that scan found it, only the
    `recent` ids, nodes added since in ascending order, are compared with
    it, their squares summed x, z, y in Python floats (the same bits as the
    scan's elementwise ops). Strict `<` keeps the earlier node on a tie, so
    the answer is the full scan's first argmin as long as every node left
    out of `recent` is farther than the scan's nearest.
    """
    if block is None:
        return int(_square_distances(tree, np.asarray(p, dtype=float)[None]).argmin())
    near, best, recent = block
    x, y, z = p
    rows = tree.rows
    for i in recent:
        px, py, pz = rows[i]
        dx, dy, dz = px - x, py - y, pz - z
        dist2 = dx * dx + dz * dz + dy * dy
        if dist2 < best:
            near, best = i, dist2
    return near


def _scan_bound(lo: np.ndarray, hi: np.ndarray) -> float:
    """E = 128 * 2**-24 * L**2, where L is the largest extent of the box
    [`lo`, `hi`] plus CULL_PAD: a bound on how far the float32 prefilter's
    value for a sample and a node differs from their exact squared distance
    (summed x, z, y in float64), for every sample and node of an attempt
    whose box spans its window, entry, exit and samples, and `lo` its low
    corner.

    Proof. Let u = 2**-24. Every sample lies in the box, which `rrt_star_run`
    stretches over the samples too, and every node is a chain of `extend`
    steps between the entry and samples, so it lies in the box up to
    rounding far below CULL_PAD (see `walled_off`). So each coordinate less
    `lo`, rounded in float64, is a value a_k of a sample or b_k of a node
    with |a_k|, |b_k| <= L. The prefilter sums five products
    of A = fl32(-2a, 1, |a|^2) and Q = fl32(b, |b|^2, 1), the squares summed
    in float64 in any order. Rounding to float32 moves a value v by at most
    u|v|, plus 2**-149 where it underflows.
    1. Operands. Each of the three products A_k Q_k differs from -2 a_k b_k
       by at most (2u + u^2) 2 L^2; each float32 square differs from |a|^2
       or |b|^2 by at most u 3 L^2 plus its float64 rounding, 2**-52 3 L^2.
       So the exact sum S of the five products is within 18.1 u L^2 of
       |a - b|^2.
    2. Summation. However einsum orders the five products and four sums,
       and whether or not it fuses a product into a sum (FMA), D is the
       float32 dot product of two 5-vectors, so |D - S| <= gamma_5 times
       the sum of the |A_k Q_k|, with gamma_5 = 5u / (1 - 5u); that sum is
       at most 12 L^2 (1 + u)^2, so |D - S| <= 60.1 u L^2.
    3. The exact value. The float64 squared distance of the untranslated
       coordinates differs from |a - b|^2 by the float64 rounding of the
       translation and of its own five operations, under 2**-46 L^2.
    Together |D - exact| < 79 u L^2. The remaining 49 u L^2 of E covers
    the float64 rounding of L, of E and of the thresholds compared with D
    (which are then rounded up to float32; one large enough for its
    float64 rounding to matter exceeds every D, which is at most 13 L^2),
    and the underflow terms: each at most 2**-149, and L >= CULL_PAD. For
    coordinates far below 1e9 m, as CULL_PAD already assumes, nothing
    overflows in float32.
    """
    span = float((hi - lo).max()) + CULL_PAD
    return 128 * 2.0 ** -24 * span * span


def _sample_rows(points: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """(b, 5) float32 rows [-2x, -2y, -2z, 1, |p|^2] of the (b, 3) `points`
    less `lo`, the squares summed in float64."""
    a = points - lo
    rows = np.empty((len(a), 5), dtype=np.float32)
    rows[:, :3] = a * -2.0
    rows[:, 3] = 1.0
    rows[:, 4] = (a * a).sum(axis=1)
    return rows


def _node_columns(xyz: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """Write (5, k) float32 columns [x; y; z; |q|^2; 1] of the (3, k) node
    positions `xyz` less `lo` into `out`, the squares summed in float64."""
    q = xyz - lo[:, None]
    out[:3] = q
    out[3] = (q * q).sum(axis=0)
    out[4] = 1.0


def _float32_at_least(values: np.ndarray) -> np.ndarray:
    """The least float32 values no less than the float64 `values`."""
    near = values.astype(np.float32)
    return np.where(near < values, np.nextafter(near, np.float32(np.inf)), near)


def _block_candidates(scan: np.ndarray, points: np.ndarray, xyz: np.ndarray, bound: float,
                      radius: float, extend_dist: float
                      ) -> tuple[np.ndarray, np.ndarray, list[int], list[int]]:
    """Each of the (b, 3) `points`' nearest node and the nodes that can lie
    within `radius` of its new node, from `scan`, the (b, n) float32
    prefilter of the points against the n nodes at (3, n) `xyz`, which
    differs from every exact squared distance by at most `bound` (E).

    Returns the nearest ids, their exact squared distances, the ids of
    every point's run in one list, in insertion order within a run, and the
    end of each run.

    Nearest. The exact nearest lies within E of its float32 value, which
    lies within E of the row's float32 minimum m, so every node whose value
    is at most m + 2E is measured again with the exact scan's bits (summed
    x, z, y in float64); the least wins, a tie the earliest id.
    Runs. An in-radius node of x_new lies within radius + |x_rand - x_new|
    of x_rand. x_new is x_rand or steps extend_dist toward it from a node no
    farther than the nearest, so |x_rand - x_new| is at most
    max(0, sqrt(near_dist2) - extend_dist); CULL_PAD covers the rounding of
    every distance involved for coordinates far below 1e9 m. A run holds
    every node whose float32 value is at most that reach squared plus E,
    so it holds every node whose exact value is at most the reach squared.
    One pass over `scan` finds the nodes within the reach of an upper bound
    on the nearest distance, m + E, which hold both the near-ties (that
    reach exceeds sqrt(m + E), as radius > extend_dist) and the run.
    """
    count = scan.shape[1]
    low = scan.min(axis=1).astype(float)  # float64, so adding E rounds in float64

    def reach_squared(near_dist2):
        reach = radius + np.maximum(np.sqrt(near_dist2) - extend_dist, 0.0) + CULL_PAD
        return _float32_at_least(reach * reach + bound)

    flat = np.flatnonzero(scan <= reach_squared(low + bound)[:, None])
    which, ids = np.divmod(flat, count)
    values = scan.ravel()[flat]
    tie = values <= _float32_at_least(low + 2.0 * bound)[which]
    which_tie, ids_tie = which[tie], ids[tie]
    d = xyz[:, ids_tie] - points.T[:, which_tie]
    d *= d
    dist2 = d[0] + d[2] + d[1]
    # a stable sort by row, then distance, keeps ascending ids within a tie
    first = np.lexsort((dist2, which_tie))[which_tie.searchsorted(np.arange(len(scan)))]
    nearest, near_dist2 = ids_tie[first], dist2[first]
    run = values <= reach_squared(near_dist2)[which]
    ends = np.cumsum(np.bincount(which[run], minlength=len(scan)))
    return nearest, near_dist2, ids[run].tolist(), ends.tolist()


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


def _block_pairs(points: np.ndarray, near_dist2: np.ndarray, radius: float,
                 extend_dist: float) -> list[list[int]]:
    """For each of a block's (b, 3) `points`, in ascending order, the
    earlier points of the block whose new nodes it must compare, given each
    point's squared distance `near_dist2` to its nearest node at the
    block's start.

    Point k's new node lies within s_k = max(0, sqrt(near_dist2_k) -
    extend_dist) of point k, since it is point k or steps toward it from a
    node no farther than k's nearest. So it can be nearer to point i than
    i's nearest only if |p_i - p_k| <= sqrt(near_dist2_i) + s_k, and within
    `radius` of point i's new node only if |p_i - p_k| <= radius + s_i +
    s_k; a point is kept when either holds. CULL_PAD covers the rounding of
    every distance involved, as in `_block_candidates`.
    """
    root = np.sqrt(near_dist2)
    step = np.maximum(root - extend_dist, 0.0)
    reach = np.maximum(root, radius + step) + CULL_PAD
    x, y, z = points.T
    dx, dy, dz = x[:, None] - x, y[:, None] - y, z[:, None] - z
    apart = np.sqrt(dx * dx + dy * dy + dz * dz)
    order = np.arange(len(points))
    i, k = np.nonzero((apart <= reach[:, None] + step) & (order[:, None] > order))
    ends = i.searchsorted(np.arange(len(points) + 1)).tolist()
    k = k.tolist()
    return [k[begin:end] for begin, end in zip(ends, ends[1:])]


def rrt_star_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                 level: int, disc_index: int = 0) -> RrtRunResult:
    """Run the full RRT* loop once inside the level-expanded window, checking
    every edge with `model.segment_free`.

    The rng stream is derived from (seed, discontinuity index, window level),
    so every attempt is reproducible and independent of the others.

    Samples are drawn once per attempt and handled in blocks of BLOCK. One
    float32 prefilter per block, a single `np.einsum` of the block's sample
    rows against the node columns (see `_scan_bound`), is settled in
    float64 by `_block_candidates`: each sample's nearest node among the
    nodes present when the block starts, and the older nodes that can lie
    within the neighbour radius of its new node. Each loop then looks only
    at those and at the nodes added since that `_block_pairs` cannot rule
    out, on Python floats with the full scans' bits, so the tree is the one
    a scan per loop grows. A sample that `extend` refuses, because it lies
    on its nearest node or a subnormal offset from it, is skipped, and so is
    a new node that `model.point_blocked` refuses, before any candidate
    work: `_best_parent` would find every edge to it blocked.
    """
    window, model = level_window(d, model, params, level)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, level)))

    ex, ey, ez = goal = d.exit
    tree = Tree(d.entry)
    rows, costs = tree.rows, tree.node_costs
    radius, extend_dist = params.neighbor_radius, params.extend_dist

    best_cost = math.inf
    best_node: int | None = None

    samples = sample(window, rng, params.max_loops)
    # the box of the window, entry and exit, stretched over the samples
    # (which `sample` keeps in the window): every node lies in it, as
    # `_scan_bound` needs
    corners = np.vstack((window.lo, window.hi, d.entry, d.exit, samples))
    lo = corners.min(axis=0)
    bound = _scan_bound(lo, corners.max(axis=0))
    sample_rows = _sample_rows(samples, lo)
    columns = np.empty((5, params.max_loops + 1), dtype=np.float32)  # a node per loop at most
    filled = 0
    for start in range(0, len(samples), BLOCK):
        block = samples[start:start + BLOCK]
        count = len(tree)
        xyz = tree.xyz
        _node_columns(xyz[:, filled:], lo, columns[:, filled:count])
        filled = count
        scan = np.einsum("ik,kj->ij", sample_rows[start:start + BLOCK], columns[:, :count])
        nearest, near_dist2, older, run_ends = _block_candidates(
            scan, block, xyz, bound, radius, extend_dist)
        pairs = _block_pairs(block, near_dist2, radius, extend_dist)
        added = [-1] * len(block)  # the node each sample of the block added
        begin = 0
        for i, (x_rand, near, best, end) in enumerate(zip(block.tolist(), nearest.tolist(),
                                                          near_dist2.tolist(), run_ends)):
            near_ids, begin = older[begin:end], end
            recent = [added[k] for k in pairs[i] if added[k] >= 0]
            near_pos = rows[nearest_vertex(tree, x_rand, (near, best, recent))]
            try:
                x_new = extend(near_pos, x_rand, extend_dist)
            except DegenerateExtend:  # a degenerate window collapses onto the tree
                continue
            if model.point_blocked(x_new):  # no edge to it can be free
                continue
            near_ids += recent
            parent = _best_parent(tree, x_new, radius, model, near_ids)
            if parent is None:
                continue
            node_id = added[i] = tree.add(x_new, parent)

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
