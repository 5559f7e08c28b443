"""End-to-end shot planning: arc, blocked spans, detours, splice, validate."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .discontinuity import DEFAULT_MARGIN, Discontinuity, find_discontinuities
from .errors import SpliceMismatch, ValidationFailed
from .local_planner import LocalPath, RrtParams, RrtRunResult, plan_local_run
from .shot import ArcShotSpec, GlobalPath, aimed_row, generate_arc
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import CollisionModel, QuadModel, collision_model

SPLICE_TOLERANCE = 1e-6


@dataclass
class PlanResult:
    """One plan: the arc, the spliced path, the blocked spans, and for span i
    its winning `RrtRunResult` as `plan_local_run` returns it, `detours[i]`.

    `duration_s` is the wall time of the detour loop, and params, quad and
    margin are the exact inputs used.
    """

    arc: GlobalPath
    final_path: GlobalPath
    discontinuities: list[Discontinuity]
    detours: list[RrtRunResult]
    duration_s: float
    params: RrtParams
    quad: QuadModel
    margin: int


def _gap(a, b) -> float:
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    # summed squares, as the per-pose splice in tests/path_reference.py sums
    # them: math.dist's bits may differ at the tolerance
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def splice(path: GlobalPath, d: Discontinuity, lp: LocalPath, target) -> GlobalPath:
    """Replace the samples strictly between entry and exit with the detour.

    Inserted samples keep the detour's own spacing and get yaw that faces
    `target`, the shot's target, as `aimed_row` aims it.
    A detour end farther than SPLICE_TOLERANCE from the span's, or NaN, is a
    mismatch, and so is a non-finite interior row.
    """
    first, last = (tuple(p) for p in lp.positions[[0, -1]].tolist())
    if not _gap(first, d.entry) <= SPLICE_TOLERANCE:
        raise SpliceMismatch(
            f"local path starts {first} but discontinuity enters at {d.entry}")
    if not _gap(last, d.exit) <= SPLICE_TOLERANCE:
        raise SpliceMismatch(
            f"local path ends {last} but discontinuity exits at {d.exit}")
    bad = np.flatnonzero(~np.isfinite(lp.positions).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise SpliceMismatch(
            f"local path row {i} is not finite: {tuple(lp.positions[i].tolist())}")
    inserted = [aimed_row(x, y, z, target) for x, y, z in lp.positions[1:-1].tolist()]
    return GlobalPath(np.concatenate((path.rows[:d.entry_index + 1],
                                      np.reshape(inserted, (-1, 4)),
                                      path.rows[d.exit_index:])))


def validate(path: GlobalPath, model: CollisionModel) -> int | None:
    """Re-check every consecutive segment with `segments_free`; a one-pose
    path is one zero-length segment.

    Returns the index of the first offending segment, or None when the whole
    path is collision-free.
    """
    positions = path.rows[:, :3]
    if len(positions) == 1:
        positions = positions[[0, 0]]
    blocked = np.flatnonzero(~model.segments_free(positions))
    return int(blocked[0]) if blocked.size else None


def plan_shot(model: CollisionModel, spec: ArcShotSpec, params: RrtParams,
              margin: int = DEFAULT_MARGIN) -> PlanResult:
    """Run the whole planning pipeline for one arc shot against `model`.

    Generates the desired arc, finds blocked spans, plans a detour for each
    (rng streams keyed by discontinuity order), splices, re-aims yaw, and
    densely validates the result. Raises EndpointBlocked, LocalPlanFailed
    (carrying the discontinuity index), or ValidationFailed.

    The scan, the detour edges and final validation all ask
    `model.segment_free`, so a stretch one stage accepts is not rejected by
    another; validation stays as the safety gate.
    """
    arc = generate_arc(spec)
    discontinuities = find_discontinuities(arc, model, margin)

    started = time.perf_counter()
    detours = [plan_local_run(d, model, params, disc_index=i)
               for i, d in enumerate(discontinuities)]
    duration = time.perf_counter() - started

    final = arc
    # splice back to front so earlier spans keep their indices
    for d, run in sorted(zip(discontinuities, detours),
                         key=lambda pair: pair[0].entry_index, reverse=True):
        final = splice(final, d, run.path, spec.target)

    offending = validate(final, model)
    if offending is not None:
        raise ValidationFailed(offending)

    return PlanResult(arc, final, discontinuities, detours, duration, params,
                      model.quad, margin)
