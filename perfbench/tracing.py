"""In-memory spans recorded by wrappers the benchmark installs around the
program's functions, at the names their callers look them up.

Nothing inside the program changes: each wrapper records a span (name, start,
end, parent span, value) into the current operation's buffers, and the
buffers become numpy arrays when the operation ends. Self time is a span's
duration minus the durations of its direct children; calls on one thread
nest, so children never overlap.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children.

    `parent` holds the index of each span's parent, or -1 for a root.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


class Tracer:
    """Span buffers for the operation in progress plus the finished ones."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[dict] = []
        self._cols = ([], [], [], [], [])      # name, parent, start, end, value
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    def end_op(self) -> None:
        names, parents, starts, ends, values = self._cols
        self.ops.append({
            "op": self._op_id,
            "name": np.array(names, dtype=np.int32),
            "parent": np.array(parents, dtype=np.int64),
            "start": np.array(starts, dtype=float),
            "end": np.array(ends, dtype=float),
            "value": np.array(values, dtype=float),
            "counters": dict(self.counters),
        })
        for col in self._cols:
            col.clear()
        self.counters.clear()
        self._stack[:] = [-1]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        names, parents, starts, ends, values = self._cols
        sid = len(starts)
        names.append(self.name_id(name))
        parents.append(self._stack[-1])
        ends.append(0.0)
        values.append(0.0)
        self._stack.append(sid)
        starts.append(time.perf_counter())
        return sid

    def close(self, sid: int, value: float = 0.0) -> None:
        self._cols[3][sid] = time.perf_counter()
        self._stack.pop()
        self._cols[4][sid] = value

    def wrap(self, fn, name: str, value=None):
        """`fn` recording one span per call; `value(tracer, result, args)`
        gives the span's value and may add to the operation's counters."""
        self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if value is not None:
                self._cols[4][sid] = value(self, result, args)
            return result

        return traced

    def write(self, file: Path) -> None:
        """All spans of the run, one row each, with the name table.

        `parent` counts rows from the first span of the same operation.
        """
        rows = {k: np.concatenate([op[k] for op in self.ops])
                for k in ("name", "parent", "start", "end", "value")}
        rows["op"] = np.concatenate([np.full(len(op["name"]), op["op"])
                                     for op in self.ops])
        np.savez_compressed(file, names=np.array(self.names), **rows)


# -- span values and counters ------------------------------------------------

def _attempt(tracer, result, args):
    loops = result.loops
    tracer.counters["loops"] += loops
    tracer.counters["nodes"] += len(result.tree) - 1
    if result.path is not None:
        tracer.counters["winning_loops"] += loops
        return 1.0
    return 0.0


def _points(tracer, result, args):
    n = len(result)
    tracer.counters["point_obstacle_pairs"] += n * len(args[0].inflated)
    return float(n)


def _file_size(tracer, result, args):
    return float(os.path.getsize(args[1]))


def _length(tracer, result, args):
    return float(len(result))


def _truth(tracer, result, args):
    return float(bool(result))


def _targets():
    """(owner, attribute, span name, value) for every wrapped function."""
    from arcshot import cli, discontinuity, fileio, local_planner, pipeline, render, world

    targets = [
        (cli, "plan_shot", "pipeline.plan_shot", None),
        (cli, "generate_arc", "shot.generate_arc", None),
        (cli, "follow", "executor.follow", _length),
        (pipeline, "generate_arc", "shot.generate_arc", None),
        (pipeline, "find_discontinuities", "discontinuity.find_discontinuities", _length),
        (pipeline, "plan_local_run", "local_planner.plan_local_run", None),
        (pipeline, "splice", "pipeline.splice", None),
        (pipeline, "validate", "pipeline.validate", None),
        (local_planner, "rrt_star_run", "local_planner.rrt_star_run", _attempt),
        (local_planner, "sample", "local_planner.sample", None),
        (local_planner, "nearest_vertex", "local_planner.nearest_vertex", None),
        (local_planner, "extend", "local_planner.extend", None),
        (local_planner, "_best_parent", "local_planner.best_parent", None),
        (world.CollisionModel, "__init__", "world.CollisionModel", None),
        (world.CollisionModel, "segment_free", "world.segment_free", _truth),
        (world.CollisionModel, "free_points", "world.free_points", _points),
        (render, "render_scene", "render.render_scene", _length),
    ]
    for module in (pipeline, local_planner, discontinuity, world):
        targets.append((module, "collision_model", "world.collision_model", None))
    for attr in ("load_world", "load_shot", "load_config", "load_path"):
        targets.append((fileio, attr, "fileio.load", None))
    for attr in ("save_path", "save_report", "save_trajectory"):
        targets.append((fileio, attr, "fileio.save", _file_size))
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, value in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, value))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

def loop_growth(op: dict, attempt_id: int, nearest_id: int) -> list[float]:
    """Per attempt: mean loop time in its last quarter over its first quarter.

    A loop is the gap between successive `nearest_vertex` calls.
    """
    near = op["name"] == nearest_id
    parents, starts = op["parent"][near], op["start"][near]
    ratios = []
    for a in np.flatnonzero(op["name"] == attempt_id):
        gaps = np.diff(starts[parents == a])
        q = len(gaps) // 4
        if q >= 2:
            ratios.append(float(gaps[-q:].mean() / gaps[:q].mean()))
    return ratios


def span_ms(tracer: Tracer, name: str) -> list[float]:
    """Durations of every span called `name`, in milliseconds."""
    nid = tracer.name_id(name)
    return [float(d) * 1e3 for op in tracer.ops
            for d in (op["end"] - op["start"])[op["name"] == nid]]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if "share" in name or name.endswith("growth"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation means (ms, counts) and shares over the traced operations."""
    k = len(tracer.names)
    total, own, calls, value = (np.zeros(k) for _ in range(4))
    counters: dict[str, float] = defaultdict(float)
    growth: list[float] = []
    ids = {name: i for i, name in enumerate(tracer.names)}
    for op in tracer.ops:
        dur = op["end"] - op["start"]
        total += np.bincount(op["name"], weights=dur, minlength=k)
        own += np.bincount(op["name"], weights=self_times(op["parent"], op["start"],
                                                          op["end"]), minlength=k)
        calls += np.bincount(op["name"], minlength=k)
        value += np.bincount(op["name"], weights=op["value"], minlength=k)
        for key, amount in op["counters"].items():
            counters[key] += amount
        if "local_planner.rrt_star_run" in ids and "local_planner.nearest_vertex" in ids:
            growth += loop_growth(op, ids["local_planner.rrt_star_run"],
                                  ids["local_planner.nearest_vertex"])

    n = max(1, len(tracer.ops))

    def pick(table, name):
        return float(table[ids[name]]) if name in ids else 0.0

    def ms(name, table=total):
        return pick(table, name) * 1e3 / n

    def per_op(name, table=calls):
        return pick(table, name) / n

    def share(part, whole):
        return part / whole if whole else 0.0

    op_time = pick(total, "op")
    loops = counters["loops"]
    attempts = pick(calls, "local_planner.rrt_star_run")
    segments = pick(calls, "world.segment_free")
    states = pick(value, "executor.follow")
    return {
        "local_planner.self_ms": ms("local_planner.rrt_star_run", own),
        "local_planner.nearest_ms": ms("local_planner.nearest_vertex"),
        "local_planner.sample_ms": ms("local_planner.sample"),
        "local_planner.extend_ms": ms("local_planner.extend"),
        "local_planner.best_parent_ms": ms("local_planner.best_parent"),
        "local_planner.us_per_loop": share(pick(total, "local_planner.rrt_star_run") * 1e6,
                                           loops),
        "local_planner.loop_growth": float(np.mean(growth)) if growth else 0.0,
        "local_planner.attempts": attempts / n,
        "local_planner.attempts_failed":
            (attempts - pick(value, "local_planner.rrt_star_run")) / n,
        "local_planner.useful_loop_share": share(counters["winning_loops"], loops),
        "local_planner.node_accept_share": share(counters["nodes"], loops),
        "local_planner.op_share": share(pick(total, "local_planner.plan_local_run"), op_time),
        "world.segment_checks": segments / n,
        "world.segment_blocked_share":
            share(segments - pick(value, "world.segment_free"), segments),
        "world.segment_ms": ms("world.segment_free"),
        "world.free_points_calls": per_op("world.free_points"),
        "world.points_checked": per_op("world.free_points", value),
        "world.point_obstacle_pairs": counters["point_obstacle_pairs"] / n,
        "world.free_points_ms": ms("world.free_points"),
        "world.free_points_op_share": share(pick(total, "world.free_points"), op_time),
        "world.model_lookups": per_op("world.collision_model"),
        "world.model_builds": per_op("world.CollisionModel"),
        "discontinuity.scan_ms": ms("discontinuity.find_discontinuities"),
        "discontinuity.spans": per_op("discontinuity.find_discontinuities", value),
        "pipeline.validate_ms": ms("pipeline.validate"),
        "pipeline.splice_ms": ms("pipeline.splice"),
        "shot.arc_ms": ms("shot.generate_arc"),
        "shot.arc_calls": per_op("shot.generate_arc"),
        "executor.follow_ms": ms("executor.follow"),
        "executor.states": states / n,
        "executor.us_per_state": share(pick(total, "executor.follow") * 1e6, states),
        "fileio.load_ms": ms("fileio.load"),
        "fileio.save_ms": ms("fileio.save"),
        "fileio.bytes_written": per_op("fileio.save", value),
        "render.render_ms": ms("render.render_scene"),
        "render.svg_bytes": per_op("render.render_scene", value),
        "cli.self_ms": (pick(own, "cli.plan") + pick(own, "cli.execute")) * 1e3 / n,
        "executor_fileio_render.op_share": share(
            sum(pick(total, name) for name in ("executor.follow", "fileio.load",
                                               "fileio.save", "render.render_scene")),
            op_time),
    }
