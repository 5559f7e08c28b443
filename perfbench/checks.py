"""Output checks for one operation, using only files and the benchmark's own
geometry. Each check returns a list of problems; empty means it passed."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import geometry

TOL = 1e-9          # poses the program copies from the arc
END_TOL = 1e-6      # arc endpoints recomputed from shot endpoints


def _poses(file: Path) -> tuple[np.ndarray, np.ndarray]:
    poses = json.loads(file.read_text(encoding="utf-8"))["poses"]
    pos = np.array([[p["x"], p["y"], p["z"]] for p in poses], dtype=float)
    return pos, np.array([p["yaw"] for p in poses], dtype=float)


def _same(pos, yaw, arc_pos, arc_yaw) -> bool:
    return (len(pos) == len(arc_pos)
            and bool(np.all(np.abs(pos - arc_pos) <= TOL))
            and bool(np.all(geometry.angle_gap(yaw, arc_yaw) <= TOL)))


def repaired_spans(report: dict) -> list[tuple[int, int, float]]:
    """(entry index, exit index, detour cost) per repaired span, in arc order."""
    return sorted((d["entry_index"], d["exit_index"], d["cost"])
                  for d in report["discontinuities"])


def check_plan(model: geometry.PointModel, shot: dict, out: Path) -> list[str]:
    """path.json of a successful plan against the shot and the world."""
    pos, yaw = _poses(out / "path.json")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    if (np.linalg.norm(pos[0] - shot["start"]) > END_TOL
            or np.linalg.norm(pos[-1] - shot["end"]) > END_TOL):
        problems.append("path does not start and end at the shot's endpoints")

    samples = geometry.segment_samples(pos, report["validation_step"])
    blocked = np.count_nonzero(~model.free(samples))
    if blocked:
        problems.append(f"{blocked} points on the path collide")

    arc_pos, arc_yaw = geometry.arc(shot)
    target = np.array(shot["target"], dtype=float)
    j = prev = 0
    for entry, exit_, _ in repaired_spans(report):
        keep = entry - prev + 1
        if not _same(pos[j:j + keep], yaw[j:j + keep],
                     arc_pos[prev:entry + 1], arc_yaw[prev:entry + 1]):
            return problems + [f"poses before span [{entry}, {exit_}] leave the arc"]
        j += keep
        rest = np.flatnonzero(np.all(np.abs(pos[j:] - arc_pos[exit_]) <= TOL, axis=1))
        if not rest.size:
            return problems + [f"detour of span [{entry}, {exit_}] never rejoins the arc"]
        detour = slice(j, j + rest[0])
        if np.any(geometry.angle_gap(yaw[detour], geometry.yaw_to(pos[detour], target))
                  > TOL):
            problems.append(f"detour of span [{entry}, {exit_}] looks away from the target")
        j, prev = j + rest[0], exit_
    if not _same(pos[j:], yaw[j:], arc_pos[prev:], arc_yaw[prev:]):
        problems.append("poses after the last span leave the arc")
    return problems


def detour_lengths(shot: dict, out: Path) -> tuple[float, float]:
    """Summed detour cost and summed straight entry-to-exit distance."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    arc_pos, _ = geometry.arc(shot)
    cost = straight = 0.0
    for entry, exit_, c in repaired_spans(report):
        cost += c
        straight += float(np.linalg.norm(arc_pos[exit_] - arc_pos[entry]))
    return cost, straight


def check_replay(path_file: Path, trajectory_file: Path, tolerance: float) -> list[str]:
    """The replay ends within the waypoint tolerance of the final waypoint."""
    path, _ = _poses(path_file)
    log, _ = _poses(trajectory_file)
    miss = float(np.linalg.norm(log[-1] - path[-1]))
    if miss > tolerance:
        return [f"replay stops {miss:.3f} m from the final waypoint"]
    return []
