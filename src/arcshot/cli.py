"""File-driven command line: plan, execute, bench, and render subcommands.

Outputs are written only after the requested computation has fully succeeded
(the one exception: a simulation timeout still writes its partial log).
Failures print a machine-readable error object to stderr and map to distinct
exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from json import JSONDecodeError
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import fileio, render
from .errors import (ArcshotError, DegenerateArc, DegenerateHeading,
                     EndpointBlocked, LocalPlanFailed, SchemaError,
                     TimeoutExceeded, VacuousBench, ValidationFailed)
from .executor import SimState, follow
from .pipeline import plan_shot
from .shot import generate_arc
from .world import CollisionModel, Vec3

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_SCHEMA = 3
EXIT_ENDPOINT_BLOCKED = 4
EXIT_LOCAL_PLAN_FAILED = 5
EXIT_VALIDATION_FAILED = 6
EXIT_TIMEOUT = 7
EXIT_VACUOUS_BENCH = 8

_ERROR_EXITS = (
    (SchemaError, EXIT_SCHEMA),
    (DegenerateArc, EXIT_SCHEMA),
    (DegenerateHeading, EXIT_SCHEMA),
    (EndpointBlocked, EXIT_ENDPOINT_BLOCKED),
    (LocalPlanFailed, EXIT_LOCAL_PLAN_FAILED),
    (ValidationFailed, EXIT_VALIDATION_FAILED),
    (TimeoutExceeded, EXIT_TIMEOUT),
    (VacuousBench, EXIT_VACUOUS_BENCH),
)


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, LocalPlanFailed):
        payload["error"]["discontinuity"] = exc.discontinuity_index
    if isinstance(exc, ValidationFailed):
        payload["error"]["segment"] = exc.segment_index
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _emit(args, text: str, machine: dict) -> None:
    if args.format == "machine":
        print(json.dumps(machine, sort_keys=True))
    else:
        print(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_run_config(args) -> fileio.RunConfig:
    config = fileio.load_config(Path(args.config) if args.config else None)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(
            config, rrt=dataclasses.replace(config.rrt, seed=args.seed))
    return config


def _cmd_plan(args) -> int:
    world = fileio.load_world(Path(args.world))
    spec = fileio.load_shot(Path(args.shot))
    config = _load_run_config(args)
    model = CollisionModel(world, config.quad)

    result = plan_shot(model, spec, config.rrt,
                       margin=config.margin, collision_step=config.collision_step)

    out = _out_dir(args)
    svg = render.render_scene(
        model, arc=result.arc, discontinuities=result.discontinuities,
        final_path=result.final_path,
        trees=result.trees if args.overlay_tree else None,
        width=config.render_width)
    fileio.save_path(result.final_path, out / "path.json")
    fileio.save_report(result.report, out / "report.json")
    (out / "plan.svg").write_text(svg, encoding="utf-8")

    report = result.report
    _emit(
        args,
        (f"planned {len(result.final_path)} poses, "
         f"{len(result.discontinuities)} discontinuit"
         f"{'y' if len(result.discontinuities) == 1 else 'ies'}, "
         f"{report.total_nodes} nodes, {report.total_duration_s:.3f} s\n"
         f"wrote {out / 'path.json'}, {out / 'report.json'}, {out / 'plan.svg'}"),
        {
            "status": "ok",
            "poses": len(result.final_path),
            "discontinuities": len(result.discontinuities),
            "total_nodes": report.total_nodes,
            "total_duration_s": report.total_duration_s,
            "expansion_levels": [r.expansion_level
                                 for r in report.discontinuities],
            "out_dir": str(out),
        },
    )
    return EXIT_OK


def _cmd_execute(args) -> int:
    world = fileio.load_world(Path(args.world))
    path = fileio.load_path(Path(args.path))
    config = _load_run_config(args)

    ground = world.bounds.min.z
    first = path[0]
    start = SimState(Vec3(first.position.x, first.position.y, ground), first.yaw)

    out = _out_dir(args)
    try:
        log = follow(path, start, config.follow, config.quad)
    except TimeoutExceeded as exc:
        fileio.save_trajectory(exc.log, out / "trajectory.json")
        raise

    fileio.save_trajectory(log, out / "trajectory.json")
    svg = render.render_scene(CollisionModel(world, config.quad), final_path=path,
                              trajectory=log, width=config.render_width)
    (out / "execute.svg").write_text(svg, encoding="utf-8")

    sim_time_s = float(log[-1, 4])
    _emit(
        args,
        (f"executed {len(path)} waypoints in {sim_time_s:.2f} s "
         f"({len(log)} states)\n"
         f"wrote {out / 'trajectory.json'}, {out / 'execute.svg'}"),
        {
            "status": "ok",
            "waypoints": len(path),
            "states": len(log),
            "sim_time_s": sim_time_s,
            "out_dir": str(out),
        },
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    world = fileio.load_world(Path(args.world))
    spec = fileio.load_shot(Path(args.shot))
    config = _load_run_config(args)
    bench_spec = fileio.load_bench(Path(args.bench))

    result = bench_mod.run_bench(CollisionModel(world, config.quad), spec, config.rrt,
                                 bench_spec, margin=config.margin,
                                 collision_step=config.collision_step)

    out = _out_dir(args)
    table = bench_mod.format_table(result)
    fileio.save_json(bench_mod.result_to_json(result), out / "bench.json")
    (out / "bench.txt").write_text(table, encoding="utf-8")
    (out / "bench.svg").write_text(render.render_bench_chart(result),
                                   encoding="utf-8")

    _emit(args, table + f"wrote {out / 'bench.json'}, {out / 'bench.txt'}, "
                        f"{out / 'bench.svg'}",
          bench_mod.result_to_json(result))
    return EXIT_OK


def _cmd_render(args) -> int:
    world = fileio.load_world(Path(args.world))
    config = _load_run_config(args)

    arc = None
    if args.shot:
        arc = generate_arc(fileio.load_shot(Path(args.shot)))
    final_path = fileio.load_path(Path(args.path)) if args.path else None
    trajectory = None
    if args.trajectory:
        poses = fileio.load_path(Path(args.trajectory)).poses
        trajectory = np.array([(p.position.x, p.position.y, p.position.z, p.yaw, 0.0)
                               for p in poses])

    out = _out_dir(args)
    svg = render.render_scene(CollisionModel(world, config.quad), arc=arc,
                              final_path=final_path, trajectory=trajectory,
                              width=config.render_width)
    (out / "render.svg").write_text(svg, encoding="utf-8")

    _emit(args, f"wrote {out / 'render.svg'}",
          {"status": "ok", "out_dir": str(out)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcshot",
        description="Plan, execute, benchmark, and render obstacle-aware "
                    "arc camera shots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False):
        p.add_argument("--world", required=True, help="world JSON file")
        p.add_argument("--config", help="config JSON file (defaults apply)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if seed:
            p.add_argument("--seed", type=int,
                           help="override the planner rng seed")

    plan = sub.add_parser("plan", help="plan an arc shot around obstacles")
    common(plan, seed=True)
    plan.add_argument("--shot", required=True, help="shot JSON file")
    plan.add_argument("--overlay-tree", action="store_true",
                      help="draw the RRT* trees in the render")
    plan.set_defaults(handler=_cmd_plan)

    execute = sub.add_parser("execute", help="simulate following a planned path")
    common(execute)
    execute.add_argument("--path", required=True, help="path JSON file")
    execute.set_defaults(handler=_cmd_execute)

    bench_p = sub.add_parser("bench", help="sweep RRT* loop budgets")
    common(bench_p, seed=True)
    bench_p.add_argument("--shot", required=True, help="shot JSON file")
    bench_p.add_argument("--bench", required=True, help="bench spec JSON file")
    bench_p.set_defaults(handler=_cmd_bench)

    render_p = sub.add_parser("render", help="render worlds and path files")
    common(render_p)
    render_p.add_argument("--shot", help="draw the desired arc for this shot")
    render_p.add_argument("--path", help="draw this path file")
    render_p.add_argument("--trajectory", help="draw this trajectory log")
    render_p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except JSONDecodeError as exc:
        return _fail(exc, EXIT_PARSE)
    except FileNotFoundError as exc:
        return _fail(exc, EXIT_PARSE)
    except ValueError as exc:
        return _fail(exc, EXIT_SCHEMA)
    except ArcshotError as exc:
        for klass, code in _ERROR_EXITS:
            if isinstance(exc, klass):
                return _fail(exc, code)
        return _fail(exc, EXIT_INTERNAL)
    except Exception as exc:  # pragma: no cover - defensive
        return _fail(exc, EXIT_INTERNAL)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
