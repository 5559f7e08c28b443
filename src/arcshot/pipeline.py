"""End-to-end shot planning: arc, blocked spans, detours, splice, validate."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discontinuity import DEFAULT_MARGIN, Discontinuity, find_discontinuities
from .errors import SpliceMismatch, ValidationFailed
from .local_planner import LocalPath, RrtParams, Tree, plan_local_run
from .shot import ArcShotSpec, GlobalPath, Pose4, face_target, generate_arc
# collision_model stays importable here for perfbench/tracing.py, which wraps it
from .world import AxisBox, CollisionModel, QuadModel, Vec3, collision_model, edge_points

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
    collision_step: float
    validation_step: float


@dataclass
class PlanResult:
    arc: GlobalPath
    final_path: GlobalPath
    discontinuities: list[Discontinuity]
    local_paths: list[LocalPath]
    report: PlanReport
    trees: list[Tree]


def splice(path: GlobalPath, d: Discontinuity, lp: LocalPath) -> GlobalPath:
    """Replace the samples strictly between entry and exit with the detour.

    Inserted samples keep the detour's own spacing and get target-facing yaw.
    """
    entry = d.entry_pose.position
    exit_ = d.exit_pose.position
    if lp.positions[0].distance_to(entry) > SPLICE_TOLERANCE:
        raise SpliceMismatch(
            f"local path starts {lp.positions[0]} but discontinuity enters at {entry}")
    if lp.positions[-1].distance_to(exit_) > SPLICE_TOLERANCE:
        raise SpliceMismatch(
            f"local path ends {lp.positions[-1]} but discontinuity exits at {exit_}")
    if path.spec is None:
        raise SpliceMismatch("path carries no shot spec; cannot aim inserted samples")

    target = path.spec.target
    inserted = tuple(Pose4(p, face_target(p, target)) for p in lp.positions[1:-1])
    poses = path.poses[:d.entry_index + 1] + inserted + path.poses[d.exit_index:]
    return GlobalPath(poses, path.spec)


def validate(path: GlobalPath, model: CollisionModel, step: float) -> int | None:
    """Densely re-check every consecutive segment.

    The sample points of all segments are classified in one `free_points`
    call against the obstacles near the path: every sample lies in the
    bounding box of the path's positions, up to rounding that `within`'s pad
    covers. Returns the index of the first offending segment, or None when
    the whole path is collision-free at the given step.
    """
    if len(path) < 2:
        return None
    positions = np.array([(p.position.x, p.position.y, p.position.z)
                          for p in path.poses], dtype=float)
    box = AxisBox(Vec3.from_array(positions.min(axis=0)),
                  Vec3.from_array(positions.max(axis=0)))
    local = model.within(box)
    pts, first = edge_points(positions[:-1], positions[1:], step)
    blocked = np.flatnonzero(~np.logical_and.reduceat(local.free_points(pts), first))
    return int(blocked[0]) if blocked.size else None


def plan_shot(model: CollisionModel, spec: ArcShotSpec, params: RrtParams,
              margin: int = DEFAULT_MARGIN, collision_step: float | None = None) -> PlanResult:
    """Run the whole planning pipeline for one arc shot against `model`.

    Generates the desired arc, finds blocked spans, plans a detour for each
    (rng streams keyed by discontinuity order), splices, re-aims yaw, and
    densely validates the result. Raises EndpointBlocked, LocalPlanFailed
    (carrying the discontinuity index), or ValidationFailed.

    Final validation samples every segment at body_radius / 2. Detour edges
    are checked at that same step unless collision_step says otherwise, so a
    grazing edge cannot pass planning and then flunk the safety gate.
    """
    validation_step = model.quad.body_radius / 2
    collision_step = validation_step if collision_step is None else collision_step

    arc = generate_arc(spec)
    discontinuities = find_discontinuities(arc, model, margin)

    local_paths: list[LocalPath] = []
    trees: list[Tree] = []
    disc_reports: list[DiscontinuityReport] = []
    for i, d in enumerate(discontinuities):
        started = time.perf_counter()
        result = plan_local_run(d, model, params, step=collision_step, disc_index=i)
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
        final = splice(final, d, lp)

    offending = validate(final, model, validation_step)
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
        collision_step=collision_step,
        validation_step=validation_step,
    )
    return PlanResult(arc, final, discontinuities, local_paths, report, trees)
