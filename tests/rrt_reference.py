"""The RRT* loop that the blocked loop replaced: `rrt_star_run` with one
full-tree `nearest_vertex` scan and one full-tree `_distances` pass in
`_best_parent` per loop, on numpy rows, with `extend` on numpy rows. Its
best parent is the first candidate in stable cost order whose edge passes
`segment_free`, and it skips every sample `extend` refuses, as the blocked
loop does.

Kept as the oracle the blocked loop is checked against: on the same inputs it
must grow the same tree (positions, costs and parents, bit for bit), return
the same path and cost, and report the same loop count. It shares `Tree`,
`sample` and `level_window` with the planner, which the blocked loop left as
they were.

`block_pairs` is the float64 bound between a block's samples that the
float32 one of `local_planner._block_pairs` replaced: its pairs, from the
exact nearest distances, must be among the planner's.
"""

from __future__ import annotations

import math

import numpy as np

from arcshot.discontinuity import Discontinuity
from arcshot.errors import DegenerateExtend
from arcshot.local_planner import (LocalPath, RrtParams, RrtRunResult, Tree, level_window,
                                   sample)
from arcshot.world import CULL_PAD, CollisionModel


def nearest_vertex(tree: Tree, p: np.ndarray) -> int:
    """Id of the node closest to `p`; ties go to the earliest insertion.
    Squared distances sum x, z, y in that order, as
    `np.einsum("ij,ij->i", d, d)` does on C-ordered (n, 3) rows."""
    q = tree.xyz - p[:, None]
    q *= q
    dist2 = q[0]
    dist2 += q[2]
    dist2 += q[1]
    return int(dist2.argmin())


def _distances(tree: Tree, p: np.ndarray) -> np.ndarray:
    """(n,) distances from `p` to every node, bit for bit
    `np.linalg.norm(tree.positions - p, axis=1)`."""
    q = tree.xyz - p[:, None]
    q *= q
    dists = q[0]
    dists += q[1]
    dists += q[2]
    return np.sqrt(dists, out=dists)


def _norm(v: np.ndarray) -> float:
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def extend(from_point: np.ndarray, toward: np.ndarray, extend_dist: float) -> np.ndarray:
    offset = toward - from_point
    length = _norm(offset)
    if length == 0.0:
        raise DegenerateExtend(f"cannot extend from {from_point} toward itself")
    if length <= extend_dist:
        return toward
    return from_point + offset * (extend_dist / length)


def _best_parent(tree: Tree, x_new: np.ndarray, radius: float,
                 model: CollisionModel) -> int | None:
    """Cheapest in-radius node whose straight edge to `x_new` is free: the
    first in stable cost order that `segment_free` passes."""
    dists = _distances(tree, x_new)
    candidates = (dists <= radius).nonzero()[0]
    totals = np.array(tree.node_costs)[candidates] + dists[candidates]
    for i in candidates[totals.argsort(kind="stable")]:
        if model.segment_free(tree.xyz[:, i].tolist(), x_new.tolist()):
            return int(i)
    return None


def rrt_star_run(d: Discontinuity, model: CollisionModel, params: RrtParams,
                 level: int, disc_index: int = 0) -> RrtRunResult:
    """One RRT* attempt in the level-expanded window, one sample per loop."""
    window, model = level_window(d, model, params, level)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=params.seed, spawn_key=(disc_index, level)))

    exit_row = np.array(d.exit)
    tree = Tree(d.entry)
    radius = params.neighbor_radius

    best_cost = math.inf
    best_node: int | None = None

    for x_rand in sample(window, rng, params.max_loops):
        near_pos = tree.positions[nearest_vertex(tree, x_rand)]
        try:
            x_new = extend(near_pos, x_rand, params.extend_dist)
        except DegenerateExtend:
            continue
        parent = _best_parent(tree, x_new, radius, model)
        if parent is None:
            continue
        node_id = tree.add(x_new, parent)

        goal_dist = _norm(x_new - exit_row)
        if goal_dist <= params.goal_radius and model.segment_free(x_new, exit_row):
            candidate = tree.node_costs[node_id] + goal_dist
            if candidate < best_cost:
                best_cost = candidate
                best_node = node_id

    if best_node is None:
        return RrtRunResult(None, tree, window, params.max_loops)
    positions = np.vstack((tree.path_from_root(best_node), exit_row))
    return RrtRunResult(LocalPath(positions, best_cost), tree, window,
                        params.max_loops)


def block_pairs(points: np.ndarray, near_dist2: np.ndarray, radius: float,
                extend_dist: float) -> list[list[int]]:
    """For each of a block's (b, 3) `points`, in ascending order, the
    earlier points of the block whose new nodes it must compare, given each
    point's exact squared distance `near_dist2` to its nearest node at the
    block's start.

    Point k's new node lies within s_k = max(0, sqrt(near_dist2_k) -
    extend_dist) of point k. So it can be nearer to point i than i's
    nearest only if |p_i - p_k| <= sqrt(near_dist2_i) + s_k, and within
    `radius` of point i's new node only if |p_i - p_k| <= radius + s_i +
    s_k; a point is kept when either holds, with CULL_PAD for rounding.
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
