"""Blocked-span extraction: find where the desired path crosses obstacles.

Each maximal run of colliding samples becomes one discontinuity, padded by a
sample-count margin on both sides and widened until the bracketing poses are
collision-free. Spans that end up sharing samples merge, so every blocked
stretch gets exactly one local-planner query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EndpointBlocked, UnresolvableSpan
from .shot import GlobalPath, Pose4
from .world import QuadModel, World, collision_model

DEFAULT_MARGIN = 2


@dataclass(frozen=True)
class Discontinuity:
    """One obstructed stretch of the path with collision-free attachment poses.

    `blocked_range` holds the indices that actually failed the check; after a
    merge it can skip over free samples caught between two nearby runs.
    """

    entry_index: int
    exit_index: int
    entry_pose: Pose4
    exit_pose: Pose4
    blocked_range: tuple[int, ...]

    def __post_init__(self):
        if not self.blocked_range:
            raise ValueError("Discontinuity needs at least one blocked sample")
        if not (self.entry_index < min(self.blocked_range)
                and max(self.blocked_range) < self.exit_index):
            raise ValueError(
                f"entry {self.entry_index} / exit {self.exit_index} must bracket "
                f"blocked samples {self.blocked_range}")


def _blocked_runs(free: list[bool]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive blocked samples as (first, last) pairs."""
    runs = []
    start = None
    for i, ok in enumerate(free):
        if not ok and start is None:
            start = i
        elif ok and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(free) - 1))
    return runs


def find_discontinuities(path: GlobalPath, world: World, quad: QuadModel,
                         margin: int = DEFAULT_MARGIN) -> list[Discontinuity]:
    """Scan the path against the world and extract padded blocked spans.

    Raises EndpointBlocked if either path endpoint is itself colliding, and
    UnresolvableSpan if no collision-free bracketing sample exists.
    """
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    model = collision_model(world, quad)
    free = model.free_points(np.array(
        [(p.position.x, p.position.y, p.position.z) for p in path.poses],
        dtype=float)).tolist()
    n = len(free)
    if not free[0]:
        raise EndpointBlocked(0)
    if not free[-1]:
        raise EndpointBlocked(n - 1)

    spans: list[list[int]] = []
    for run_start, run_end in _blocked_runs(free):
        entry = max(0, run_start - margin)
        exit_ = min(n - 1, run_end + margin)
        # padding may land inside another blocked run; keep walking outward
        while entry >= 0 and not free[entry]:
            entry -= 1
        while exit_ < n and not free[exit_]:
            exit_ += 1
        if entry < 0 or exit_ >= n:
            raise UnresolvableSpan(
                f"no collision-free bracket for blocked run [{run_start}, {run_end}]")
        if spans and entry <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], exit_)
        else:
            spans.append([entry, exit_])

    return [
        Discontinuity(
            entry_index=entry,
            exit_index=exit_,
            entry_pose=path.poses[entry],
            exit_pose=path.poses[exit_],
            blocked_range=tuple(i for i in range(entry, exit_ + 1) if not free[i]),
        )
        for entry, exit_ in spans
    ]
