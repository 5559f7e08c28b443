"""Exception types shared across the planning toolkit."""

from __future__ import annotations


class ArcshotError(Exception):
    """Base class for all planner errors."""


class DegenerateHeading(ArcshotError):
    """Camera position is horizontally coincident with the target."""


class DegenerateArc(ArcshotError):
    """Arc start or end lies on the target's vertical axis (zero radius)."""


class DegenerateExtend(ArcshotError):
    """Steering was asked to extend from a point toward itself."""


class EndpointBlocked(ArcshotError):
    """A shot endpoint is inside an obstacle or outside the world bounds; no
    plan can attach there. `reason` completes the message."""

    def __init__(self, index: int, reason: str = "is in collision"):
        self.index = index
        super().__init__(f"path endpoint at sample {index} {reason}")


class LocalPlanFailed(ArcshotError):
    """All window expansions were exhausted without finding a detour."""

    def __init__(self, discontinuity_index: int, levels_tried: int):
        self.discontinuity_index = discontinuity_index
        self.levels_tried = levels_tried
        super().__init__(
            f"local planner failed on discontinuity {discontinuity_index} "
            f"after {levels_tried} window level(s)"
        )


class SpliceMismatch(ArcshotError):
    """Local path endpoints do not line up with the discontinuity."""


class ValidationFailed(ArcshotError):
    """Final dense collision check rejected a spliced path."""

    def __init__(self, segment_index: int):
        self.segment_index = segment_index
        super().__init__(f"path segment {segment_index} is in collision")


class TimeoutExceeded(ArcshotError):
    """Simulation ran out of time; carries the partial state log."""

    def __init__(self, log):
        self.log = log
        super().__init__(f"simulation timed out after {len(log)} states")


class VacuousBench(ArcshotError):
    """Benchmark scenario has no obstructed span, so there is nothing to time."""


class SchemaError(ArcshotError):
    """An input file violates its schema; message carries the field path."""
