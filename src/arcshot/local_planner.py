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

Each loop's nearest node and parent candidates come from one float32
threshold pass over the tree per block of BLOCK samples: one `np.einsum`
without BLAS, within a proven bound of every exact squared distance
(`_scan_bound`), marks for each sample the near-ties of its nearest node
and every node that can lie within the neighbour radius of its new node,
and a second einsum of the block's samples against each other bounds the
nodes the block adds (`_block_pairs`). Each loop settles its near-ties
with the exact scan's bits, so every tree is bit for bit the one an exact
float64 scan per loop grows.
"""

from __future__ import annotations

import itertools
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
    few nodes a loop touches never leaves Python floats. The float64
    arrays for the exact scans, the path and the render are built from
    `rows` on the first read after nodes were added. Node ids are insertion
    indices, root is 0.
    """

    def __init__(self, root):
        x, y, z = root
        self.rows: list[list[float]] = [[float(x), float(y), float(z)]]
        self.node_costs: list[float] = [0.0]
        self.parents: list[int | None] = [None]
        self._positions = np.empty((0, 3))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def positions(self) -> np.ndarray:
        """(n, 3) array of all node positions in insertion order."""
        if len(self._positions) < len(self.rows):
            self._positions = np.array(self.rows)
        return self._positions

    @property
    def xyz(self) -> np.ndarray:
        """(3, n) view of all node positions, one row per axis."""
        return self.positions.T

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
        return self.positions[chain[::-1]]


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


def nearest_vertex(tree: Tree, p, ids: list[int] | None = None) -> int:
    """Id of the node closest to `p` (three floats); ties go to the earliest
    insertion.

    Without `ids`, one exact scan of the point `p` over the whole tree.
    With `ids`, a nonempty ascending list, only those nodes are compared
    (a single id is the answer), their squares summed x, z, y in Python
    floats (the same bits as the scan's elementwise ops). Strict `<` keeps
    the earlier node on a tie, so the answer is the full scan's first
    argmin as long as every node left out of `ids` is strictly farther than
    the nearest: in `rrt_star_run`, `ids` are a block scan's near-ties of
    the nodes present when the block began, then the nodes added since
    that `_block_pairs` keeps.
    """
    if ids is None:
        return int(_square_distances(tree, np.asarray(p, dtype=float)[None]).argmin())
    if len(ids) == 1:
        return ids[0]
    x, y, z = p
    rows = tree.rows
    near, best = ids[0], math.inf
    for i in ids:
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
    (summed x, z, y in float64), for every sample and node, and every two
    samples, of an attempt whose box spans its window, entry, exit and
    samples, and `lo` its low corner.

    Proof. Let u = 2**-24. Every sample lies in the box, which `rrt_star_run`
    stretches over the samples too, and every node is a chain of `extend`
    steps between the entry and samples, so it lies in the box up to
    rounding far below CULL_PAD (see `walled_off`). So each coordinate less
    `lo`, rounded in float64, is a value a_k of a sample or b_k of a node or
    of a second sample with |a_k|, |b_k| <= L. The prefilter sums five
    products of A = fl32(-2a, 1, |a|^2) and Q = fl32(b, |b|^2, 1), the
    squares summed in float64 in any order. Rounding to float32 moves a
    value v by at most u|v|, plus 2**-149 where it underflows.
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
    (exactly, or rounded up to float32 first; one large enough for its
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


def _node_columns(points: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """Write (5, k) float32 columns [x; y; z; |q|^2; 1] of the (k, 3)
    `points` less `lo` into `out`, the squares summed in float64."""
    q = np.subtract(points, lo)
    out[:3] = q.T
    out[3] = (q * q).sum(axis=1)
    out[4] = 1.0


def _float32_at_least(values: np.ndarray) -> np.ndarray:
    """Float32 values no less than the float64 `values`, each at most one
    float32 step above the least float32 no less than its value.

    Proof. Let a <= v <= b be the adjacent float32 values around v (a = b
    when v is one; b = inf above the largest finite float32, and a = 0
    below the least subnormal). The cast rounds v to a or b, and the
    float32 after a is b, so `nextafter` toward inf gives b or the float32
    after b, both at least v. A value that rounds to the largest float32
    gives inf; the block scan's thresholds stay far below it.
    """
    return np.nextafter(values.astype(np.float32), np.float32(np.inf))


def _grouped(ids: np.ndarray, rows: np.ndarray, count: int) -> list[list[int]]:
    """`ids` in `count` lists by their `rows`, which ascend."""
    ends = rows.searchsorted(np.arange(count + 1)).tolist()
    ids = ids.tolist()
    return [ids[begin:end] for begin, end in itertools.pairwise(ends)]


def _block_candidates(scan: np.ndarray, bound: float, radius: float, extend_dist: float
                      ) -> tuple[np.ndarray, list[list[int]], list[list[int]]]:
    """For each row of `scan`, the (b, n) float32 prefilter of a block's
    samples against the n nodes, which differs from every exact squared
    distance by at most `bound` (E): the near-ties of the sample's nearest
    node and its run, the nodes that can lie within `radius` of its new node.

    Returns `upper`, a bound from above on each sample's exact nearest
    squared distance, then each sample's near-tie ids and its run, in
    ascending lists.

    Upper bound. Let m be the row's float32 minimum. The node it belongs to
    lies within E of m, so u = m + E is at least the exact nearest squared
    distance.
    Near-ties. A node whose float32 value exceeds u + E (compared exactly
    in float64) lies exactly farther than u, so strictly farther than the
    nearest; the ties are the others, usually one node.
    Runs. An in-radius node of x_new lies within radius + |x_rand - x_new|
    of x_rand. x_new is x_rand or steps extend_dist toward it from a node no
    farther than the nearest, so |x_rand - x_new| is at most
    max(0, sqrt(u) - extend_dist); CULL_PAD covers the rounding of every
    distance involved for coordinates far below 1e9 m. A run holds every
    node whose float32 value is at most that reach squared plus E, rounded
    up to float32, so it holds every node whose exact value is at most the
    reach squared. The reach exceeds sqrt(u), as radius > extend_dist, so a
    run holds its near-ties, and one pass over `scan` finds both.
    """
    upper = np.add(np.minimum.reduce(scan, axis=1), bound, dtype=float)  # rounded in float64
    reach = np.maximum(np.sqrt(upper), extend_dist)
    reach += radius - extend_dist + CULL_PAD
    reach *= reach
    reach += bound
    flat = (scan <= _float32_at_least(reach)[:, None]).ravel().nonzero()[0]
    which, ids = np.divmod(flat, scan.shape[1])
    tie = scan.ravel()[flat] <= (upper + bound)[which]  # float32 against float64: exact
    tie_ids = ids[tie]
    # each row holds its minimum; one tie per row is by far the most common
    ties = ([[i] for i in tie_ids.tolist()] if len(tie_ids) == len(scan)
            else _grouped(tie_ids, which[tie], len(scan)))
    return upper, ties, _grouped(ids, which, len(scan))


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


def _block_pairs(scan: np.ndarray, upper: np.ndarray, bound: float, radius: float,
                 extend_dist: float, earlier: np.ndarray) -> list[list[int]]:
    """For each of a block's samples, in ascending order, the earlier
    samples of the block whose new nodes it must compare, from `scan`, the
    (b, b) float32 prefilter of the samples against themselves (within
    `bound` of every exact squared distance, see `_scan_bound`), `upper`,
    each sample's bound from above on its exact nearest squared distance at
    the block's start (`_block_candidates`), and `earlier`, a (b, b) mask
    of the pairs (i, k) with k < i.

    Sample k's new node lies within s_k = max(0, sqrt(upper_k) -
    extend_dist) of sample k, since it is sample k or steps toward it from
    a node no farther than k's nearest. So it can be nearer to sample i than
    i's nearest only if |p_i - p_k| <= sqrt(upper_i) + s_k, and within
    `radius` of sample i's new node only if |p_i - p_k| <= radius + s_i +
    s_k. With R_i the larger of sqrt(upper_i) and radius + s_i, plus
    CULL_PAD for the rounding of every distance involved, as in
    `_block_candidates`, a pair is kept when its float32 value is at most
    (R_i + s_k)^2 + E, compared exactly in float64, so every pair that
    either bound keeps is.
    """
    root = np.sqrt(upper)
    step = np.maximum(root - extend_dist, 0.0)
    apart = np.maximum(root, radius + step)[:, None] + (step + CULL_PAD)
    apart *= apart
    apart += bound
    # float32 values against float64 bounds compare exactly
    i, k = np.divmod(((scan <= apart) & earlier).ravel().nonzero()[0], len(scan))
    return _grouped(k, i, len(scan))


def rrt_star_run(d: Discontinuity, window: SearchWindow, model: CollisionModel,
                 params: RrtParams, disc_index: int = 0) -> RrtRunResult:
    """Run the full RRT* loop once inside `window`, checking every edge with
    `model.segment_free`, where `model` is culled to the window: the pair
    `level_window` returns, which `plan_local_run` builds once per level.

    The rng stream is derived from (seed, discontinuity index, window level),
    so every attempt is reproducible and independent of the others.

    Samples are drawn once per attempt and handled in blocks of BLOCK. One
    float32 threshold pass per block, over a single `np.einsum` of the
    block's sample rows against the node columns (see `_scan_bound`), gives
    `_block_candidates`: each sample's near-ties among the nodes present when
    the block starts, and the older nodes that can lie within the neighbour
    radius of its new node. A second einsum of the block's rows against its
    own samples' columns gives `_block_pairs`, which bounds the nodes the
    block adds. Each loop then looks only at those, on Python floats with the
    full scans' bits, so the tree is the one a scan per loop grows. A sample
    that `extend` refuses, because it lies on its nearest node or a
    subnormal offset from it, is skipped, and so is a new node that
    `model.point_blocked` refuses, before any candidate work: `_best_parent`
    would find every edge to it blocked.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, window.level)))

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
    sample_columns = np.empty((5, len(samples)), dtype=np.float32)
    _node_columns(samples, lo, sample_columns)
    columns = np.empty((5, params.max_loops + 1), dtype=np.float32)  # a node per loop at most
    earlier = np.tri(BLOCK, k=-1, dtype=bool)
    filled = 0
    for start in range(0, len(samples), BLOCK):
        stop = start + BLOCK
        block_rows = sample_rows[start:stop]
        count = len(tree)
        if filled < count:
            # the new rows in one flat pass, faster than np.array on nested lists
            flat = itertools.chain.from_iterable(rows[filled:])
            new = np.fromiter(flat, float, 3 * (count - filled)).reshape(-1, 3)
            _node_columns(new, lo, columns[:, filled:count])
            filled = count
        upper, ties, runs = _block_candidates(
            np.einsum("ik,kj->ij", block_rows, columns[:, :count]), bound, radius, extend_dist)
        b = len(block_rows)
        pairs = _block_pairs(
            np.einsum("ik,kj->ij", block_rows, sample_columns[:, start:stop]), upper, bound,
            radius, extend_dist, earlier[:b, :b])
        added = [-1] * b  # the node each sample of the block added
        for i, (x_rand, tie, run, pair) in enumerate(zip(samples[start:stop].tolist(), ties,
                                                         runs, pairs)):
            recent = [added[k] for k in pair if added[k] >= 0]
            near = nearest_vertex(tree, x_rand, tie + recent)
            try:
                x_new = extend(rows[near], x_rand, extend_dist)
            except DegenerateExtend:  # a degenerate window collapses onto the tree
                continue
            if model.point_blocked(x_new):  # no edge to it can be free
                continue
            parent = _best_parent(tree, x_new, radius, model, run + recent)
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
        window, local = level_window(d, model, params, level)
        if walled_off(d, window, local):
            loops += params.max_loops
            continue
        result = rrt_star_run(d, window, local, params, disc_index)
        loops += result.loops
        if result.path is not None:
            return replace(result, loops=loops)
    raise LocalPlanFailed(disc_index, params.fail_limit)
