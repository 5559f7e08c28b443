"""Blocked-span extraction: find where the desired path crosses obstacles.

Segment i joins samples i and i+1 and is tested with the model's one segment
predicate, as every other stage tests its segments. Each blocked segment is
padded by a sample-count margin on both sides, and padded spans that share a
sample merge, so a run of blocked segments becomes one discontinuity and
every blocked stretch gets exactly one local-planner query.

With a margin of at least 1, the segment just outside each end of a merged
span is free, or that end is an end of the path, which is checked first: a
blocked segment there would have been padded into the span and merged. So
each detour attaches where a free segment of the path ends, and no bracket
has to walk outward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EndpointBlocked
from .shot import GlobalPath
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import CULL_PAD, CollisionModel, collision_model

DEFAULT_MARGIN = 2


@dataclass(frozen=True)
class Discontinuity:
    """One blocked stretch: its free end samples' indices and positions."""

    entry_index: int
    exit_index: int
    entry: tuple[float, float, float]
    exit: tuple[float, float, float]

    def __post_init__(self):
        if not 0 <= self.entry_index < self.exit_index:
            raise ValueError(
                f"need 0 <= entry {self.entry_index} < exit {self.exit_index}")


def find_discontinuities(path: GlobalPath, model: CollisionModel,
                         margin: int = DEFAULT_MARGIN) -> list[Discontinuity]:
    """Scan the path's segments with `model.segments_free` and extract
    padded blocked spans.

    Raises EndpointBlocked if either path endpoint, tested as a zero-length
    segment, is not free, naming the bounds when it lies outside them as the
    predicate shrinks them.

    Every test here culls: `in_bounds` reads the bounds alone, and each
    endpoint and the whole scan go through `segments_free`, which tests
    only the obstacles near its polyline (the endpoint's padded point, the
    path's bounding box), so a large world costs only its obstacles near
    the path.
    """
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    positions = path.position_array()
    rows = positions.tolist()
    for index in (0, len(rows) - 1):
        end = rows[index]
        if not model.in_bounds(end):
            lo, hi = model.world.bounds.min, model.world.bounds.max
            raise EndpointBlocked(
                index, f"{tuple(end)} lies outside the world bounds {(lo.x, lo.y, lo.z)} "
                       f"to {(hi.x, hi.y, hi.z)} shrunk by {CULL_PAD} m (a ground at 0.0 "
                       f"is not shrunk)")
        if not model.segments_free(positions[[index, index]])[0]:
            raise EndpointBlocked(index)

    free = model.segments_free(positions)
    last = len(free)  # index of the last sample
    spans: list[list[int]] = []
    for i in np.flatnonzero(~free).tolist():
        # segment i joins samples i and i+1; pad both sides by `margin`
        entry, exit_ = max(0, i + 1 - margin), min(last, i + margin)
        if spans and entry <= spans[-1][1]:
            spans[-1][1] = exit_
        else:
            spans.append([entry, exit_])

    return [Discontinuity(entry, exit_, tuple(rows[entry]), tuple(rows[exit_]))
            for entry, exit_ in spans]
