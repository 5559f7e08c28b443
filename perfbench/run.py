"""Closed-loop benchmark of `arcshot plan` and `arcshot execute`.

One process, one client, no threads: each operation starts when the previous
one has finished. The workload seed generates world/shot/config files and the
program is driven only through them, by calling `arcshot.cli.main` in-process
exactly as the console script does.

    python3 perfbench/run.py --workload demo-deep --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every operation
twice, untraced then traced, and prints the per-layer metrics of the traced
runs plus the tracing overhead. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# fresh interpreters before and again after the window; setup_s is the median
# of all of them, so a slow spell at one end of a run moves it less
SETUP_REPS = 6
WARMUP_INDEX = 2 ** 20  # operation index of the untimed warm-up, outside any run
# plan_ms.tail: the highest percentile that leaves >= 10 samples beyond it at
# the 26-34 plans a 30 s run holds on demo-deep and clutter-survey; wall-expand
# holds 8-15, too few for any percentile to leave 10
TAIL_PERCENTILE = 60

# Plan, replay and shot timings are scaled to a host on which the reference
# work below takes REF_NOMINAL_S: each operation's times are multiplied by
# REF_NOMINAL_S over the reference time measured just before it. On a shared
# host the same plan runs up to 1.8x slower from one minute to the next, and
# work of the program's kinds slows with it: over 225 repeats of one
# demo-deep plan and replay, medians of 10 in a row spread by 0.33 of their
# median raw and by 0.08-0.13 once divided by the reference. The reference
# mixes the program's three kinds of work (interpreted loops, small numpy
# arrays, JSON encoding) but calls nothing in it, so a change to the program
# cannot move it. setup_s is not scaled: a fresh interpreter's start-up does
# not slow with the reference.
REF_LOOPS = 100_000
REF_ARRAY = np.linspace(0.0, 1.0, 1200).reshape(400, 3)
REF_POSES = [{"x": i * 0.5, "y": i * 0.25, "z": 1.0, "yaw": 0.1} for i in range(4000)]
REF_NOMINAL_S = 0.03

SETUP_CODE = ("import sys; from pathlib import Path; import arcshot.cli; "
              "from arcshot import fileio; fileio.load_world(Path(sys.argv[1])); "
              "fileio.load_config(Path(sys.argv[2]))")


class Bench:
    """Files, the in-process CLI and the results of one run."""

    def __init__(self, workload: str, seed: int, work: Path, cli):
        self.spec = workloads.WORKLOADS[workload]
        self.gen = workloads.Generator(workload, seed)
        self.cli = cli
        self.work = work
        self.world_file, self.config_file = self.gen.write_run_files(work)
        self.tolerance = self.gen.config["follow"]["waypoint_tolerance"]
        # (raw time, speed) per operation; speed is REF_NOMINAL_S over the
        # reference time measured just before the operation
        self.speed = 1.0
        self.plan_ms: list[tuple[float, float]] = []
        self.replay_ms: list[tuple[float, float]] = []
        self.busy_s: list[tuple[float, float]] = []
        self.setup_s: list[float] = []
        self.failed_ops: set[int] = set()
        self.exits: list[str] = []      # non-zero exit codes, by operation
        self.problems: list[str] = []   # wrong outputs, as opposed to exit codes
        self.detour = [0.0, 0.0]    # summed detour cost, summed straight distance
        self.repeat: tuple | None = None          # (op, path.json, report.json)

    def call(self, argv: list[str], tracer=None, name: str = "") -> tuple[int, float]:
        """One CLI call; returns the exit code and wall milliseconds."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sid = tracer.open(name) if tracer else None
            started = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.close(sid)
        return code, elapsed * 1e3

    def plan_argv(self, op: workloads.Operation, out: Path) -> list[str]:
        shot_file = workloads.write_json(self.work / "shot.json", op.shot)
        return ["plan", "--world", str(self.world_file), "--shot", str(shot_file),
                "--config", str(self.config_file), "--seed", str(op.rrt_seed),
                "--out", str(out)]

    def execute_argv(self, path_file: Path, out: Path) -> list[str]:
        return ["execute", "--world", str(self.world_file), "--path", str(path_file),
                "--config", str(self.config_file), "--out", str(out)]

    def operation(self, op: workloads.Operation, tracer=None,
                  record: bool = True) -> float:
        """Run and check one operation; returns the seconds spent outside it."""
        prep = time.perf_counter()
        out = self.work / ("traced" if tracer else "op")
        shutil.rmtree(out, ignore_errors=True)
        argv = self.plan_argv(op, out)
        outside = time.perf_counter() - prep

        if tracer:
            tracer.begin_op(op.index)
            root = tracer.open("op")
        code, plan_ms = self.call(argv, tracer, "cli.plan")
        replay = None
        if code == 0 and self.spec.replay_each_op:
            replay = self.call(self.execute_argv(out / "path.json", out / "exec"),
                               tracer, "cli.execute")
        if tracer:
            tracer.close(root)
            tracer.end_op()

        started = time.perf_counter()
        replay_speed = self.speed
        if code == 0 and record and not self.spec.replay_each_op:
            # spread over the window like the plans, but outside the operation;
            # a long plan lies between it and the operation's reference
            replay_speed = REF_NOMINAL_S / reference_seconds()
            replay = self.call(self.execute_argv(out / "path.json", out / "exec"))
        if record:
            self.plan_ms.append((plan_ms, self.speed))
            if replay:
                self.replay_ms.append((replay[1], replay_speed))
        self.judge(op, out, code, replay)
        return outside + time.perf_counter() - started

    def judge(self, op, out: Path, code: int, replay) -> None:
        """Output checks; a failed check or exit code fails the operation."""
        if code != 0 or (replay and replay[0] != 0):
            self.failed_ops.add(op.index)
            self.exits.append(f"op {op.index}: plan exited {code}" if code else
                              f"op {op.index}: execute exited {replay[0]}")
            return
        problems = checks.check_plan(self.gen.model, op.shot, out)
        if replay:
            problems += checks.check_replay(out / "path.json",
                                            out / "exec" / "trajectory.json",
                                            self.tolerance)
        if problems:
            self.fail(op.index, problems)
            return
        cost, straight = checks.detour_lengths(op.shot, out)
        self.detour[0] += cost
        self.detour[1] += straight
        if self.repeat is None:
            self.repeat = (op, (out / "path.json").read_bytes(),
                           (out / "report.json").read_bytes())

    def fail(self, index: int, problems: list[str]) -> None:
        self.failed_ops.add(index)
        self.problems += [f"op {index}: {p}" for p in problems]

    def warm_up(self) -> None:
        """One untimed, unchecked operation so lazy imports and caches fill."""
        op = self.gen.operation(WARMUP_INDEX)
        out = self.work / "warmup"
        code, _ = self.call(self.plan_argv(op, out))
        if code == 0 and self.spec.replay_each_op:
            self.call(self.execute_argv(out / "path.json", out / "exec"))

    def window(self, seconds: float, tracer=None) -> int:
        """Operations back to back for `seconds`; returns how many ran.

        With a tracer, each operation runs again traced, right after itself.
        """
        started = time.perf_counter()
        count = 0
        while time.perf_counter() - started < seconds:
            begin = time.perf_counter()
            self.speed = REF_NOMINAL_S / reference_seconds()
            op = self.gen.operation(count)
            outside = time.perf_counter() - begin
            outside += self.operation(op)
            if tracer:
                with tracing.installed(tracer):
                    outside += self.operation(op, tracer, record=False)
            self.busy_s.append((time.perf_counter() - begin - outside, self.speed))
            count += 1
        return count

    def repeat_check(self) -> None:
        """The first successful operation again: byte-identical outputs."""
        if self.repeat is None:
            return
        op, path_bytes, report_bytes = self.repeat
        out = self.work / "repeat"
        shutil.rmtree(out, ignore_errors=True)
        code, _ = self.call(self.plan_argv(op, out))
        if code != 0:
            self.failed_ops.add(op.index)
            self.exits.append(f"op {op.index}: repeated plan exited {code}")
        elif ((out / "path.json").read_bytes() != path_bytes
              or (out / "report.json").read_bytes() != report_bytes):
            self.fail(op.index, ["repeated plan is not byte-identical"])

    def setup(self) -> None:
        """SETUP_REPS fresh interpreters, each importing the CLI and loading the
        run's world and config."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = [sys.executable, "-c", SETUP_CODE, str(self.world_file),
                str(self.config_file)]
        for _ in range(SETUP_REPS):
            started = time.perf_counter()
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            self.setup_s.append(time.perf_counter() - started)


def reference_seconds() -> float:
    """Wall time of fixed interpreted, numpy and JSON work outside the program."""
    started = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    for row in REF_ARRAY:
        np.linalg.norm(REF_ARRAY - row, axis=1)
    json.dumps(REF_POSES)
    return time.perf_counter() - started


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def load_program():
    """Import the checkout's own arcshot, never an installed one."""
    if not (SRC / "arcshot" / "cli.py").is_file():
        raise SystemExit(f"no arcshot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import arcshot.cli
    if Path(arcshot.cli.__file__).resolve().parent != SRC / "arcshot":
        raise SystemExit(f"imported arcshot from {arcshot.cli.__file__}, not {SRC}")
    return arcshot.cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work, cli)
    if not args.trace:
        bench.setup()
    bench.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    count = bench.window(args.seconds, tracer)
    bench.repeat_check()
    if not args.trace:
        bench.setup()
    ok = count - len(bench.failed_ops)

    plan, plan_speed = np.array(bench.plan_ms).reshape(-1, 2).T
    replay, replay_speed = np.array(bench.replay_ms).reshape(-1, 2).T
    busy, busy_speed = np.array(bench.busy_s).T
    scaled = plan * plan_speed
    if tracer:
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_share"] = (
            np.median(tracing.span_ms(tracer, "cli.plan")) / np.median(plan) - 1.0)
        values["fail_share"] = len(bench.failed_ops) / count
        metrics = {name: metric(v, tracing.unit_of(name)) for name, v in values.items()}
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.npz")
    else:
        metrics = {
            "setup_s": metric(statistics.median(bench.setup_s), "s"),
            "plan_ms.p50": metric(np.median(scaled), "ms"),
            "plan_ms.tail": metric(np.percentile(scaled, TAIL_PERCENTILE), "ms"),
            "replay_ms.p50": metric(np.median(replay * replay_speed), "ms"),
            "shots_per_s": metric(ok / np.sum(busy * busy_speed), "1/s"),
            "ok_share": metric(1.0 - len(bench.failed_ops) / count, "ratio"),
            "detour_cost_ratio": metric(bench.detour[0] / bench.detour[1], "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for line in bench.exits:
        print(f"failed: {line}")
    for line in bench.problems:
        print(f"check failed: {line}")
    beyond = int(np.count_nonzero(scaled > np.percentile(scaled, TAIL_PERCENTILE)))
    print(f"{args.workload} seed {args.seed}: {count} operations, {len(plan)} plan "
          f"samples, plan_ms.tail is p{TAIL_PERCENTILE} with {beyond} samples beyond it, "
          f"{len(replay)} replay samples")
    if not args.trace:
        print(f"speed against the reference: median {np.median(busy_speed):.4f} "
              f"(range {busy_speed.min():.4f}-{busy_speed.max():.4f}); unscaled "
              f"plan_ms.p50 {np.median(plan):.2f} ms, replay_ms.p50 "
              f"{np.median(replay):.2f} ms, shots_per_s {ok / np.sum(busy):.4f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": not bench.problems,
                      "attempted": count, "failed": len(bench.failed_ops),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
