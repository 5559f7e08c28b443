"""End-to-end shot planning: arc, blocked spans, detours, splice, validate."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .discontinuity import DEFAULT_MARGIN, Discontinuity, find_discontinuities
from .errors import SpliceMismatch, ValidationFailed
from .local_planner import LocalPath, RrtParams, Tree, plan_local_run
from .shot import ArcShotSpec, GlobalPath, aimed_row, generate_arc
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import CollisionModel, QuadModel, collision_model

SPLICE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class DiscontinuityReport:
    """Planner effort spent on one blocked span."""

    entry_index: int
    exit_index: int
    node_count: int
    loops: int
    expansion_level: int
    cost: float
    duration_s: float


@dataclass(frozen=True)
class PlanReport:
    """Per-discontinuity effort plus totals and the exact inputs used."""

    discontinuities: tuple[DiscontinuityReport, ...]
    total_nodes: int
    total_loops: int
    total_duration_s: float
    seed: int
    params: RrtParams
    quad: QuadModel
    margin: int


@dataclass
class PlanResult:
    arc: GlobalPath
    final_path: GlobalPath
    discontinuities: list[Discontinuity]
    local_paths: list[LocalPath]
    report: PlanReport
    trees: list[Tree]


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
    positions = path.position_array()
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

    local_paths: list[LocalPath] = []
    trees: list[Tree] = []
    disc_reports: list[DiscontinuityReport] = []
    for i, d in enumerate(discontinuities):
        started = time.perf_counter()
        result = plan_local_run(d, model, params, disc_index=i)
        duration = time.perf_counter() - started
        local_paths.append(result.path)
        trees.append(result.tree)
        disc_reports.append(DiscontinuityReport(
            entry_index=d.entry_index,
            exit_index=d.exit_index,
            node_count=len(result.tree),
            loops=result.loops,
            expansion_level=result.window.level,
            cost=result.path.cost,
            duration_s=duration,
        ))

    final = arc
    # splice back to front so earlier spans keep their indices
    for d, lp in sorted(zip(discontinuities, local_paths),
                        key=lambda pair: pair[0].entry_index, reverse=True):
        final = splice(final, d, lp, spec.target)

    offending = validate(final, model)
    if offending is not None:
        raise ValidationFailed(offending)

    report = PlanReport(
        discontinuities=tuple(disc_reports),
        total_nodes=sum(r.node_count for r in disc_reports),
        total_loops=sum(r.loops for r in disc_reports),
        total_duration_s=sum(r.duration_s for r in disc_reports),
        seed=params.seed,
        params=params,
        quad=model.quad,
        margin=margin,
    )
    return PlanResult(arc, final, discontinuities, local_paths, report, trees)
