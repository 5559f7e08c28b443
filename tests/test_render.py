import re

import numpy as np

from arcshot.bench import BenchResult, BenchRow
from arcshot.local_planner import RrtParams
from arcshot.pipeline import plan_shot
from arcshot.render import render_bench_chart, render_scene
from arcshot.shot import generate_arc
from arcshot.world import CollisionModel
from conftest import demo_shot, demo_world, make_world


def _group(svg: str, gid: str) -> str:
    match = re.search(rf'<g id="{gid}">(.*?)</g>', svg, re.S)
    assert match, f"missing group {gid}"
    return match.group(1)


def test_arc_polyline_has_one_vertex_per_sample(quad):
    world = make_world()
    arc = generate_arc(demo_shot())
    svg = render_scene(CollisionModel(world, quad), arc=arc)
    polyline = _group(svg, "arc")
    points = re.search(r'points="([^"]+)"', polyline).group(1).split()
    assert len(points) == arc.spec.sample_count


def test_plan_render_highlights_each_discontinuity_once(quad):
    model = CollisionModel(demo_world(), quad)
    result = plan_shot(model, demo_shot(), RrtParams(extend_dist=0.2, seed=7))
    arc = generate_arc(demo_shot())
    svg = render_scene(model, arc=arc,
                       discontinuities=result.discontinuities,
                       final_path=result.final_path)
    spans = _group(svg, "discontinuities")
    assert spans.count("<polyline") == len(result.discontinuities) == 1
    assert '<g id="final">' in svg


def test_tree_overlay_edge_count_matches_the_report(quad):
    model = CollisionModel(demo_world(), quad)
    result = plan_shot(model, demo_shot(), RrtParams(extend_dist=0.2, seed=7))
    svg = render_scene(model, arc=generate_arc(demo_shot()),
                       discontinuities=result.discontinuities,
                       final_path=result.final_path, trees=result.trees)
    edges = _group(svg, "tree").count("<line")
    # every node except each tree's root contributes exactly one parent edge
    expected = result.report.total_nodes - len(result.trees)
    assert edges == expected


def test_scene_render_is_deterministic(quad):
    model = CollisionModel(demo_world(), quad)
    arc = generate_arc(demo_shot())
    log = np.array([(8, 0, 0, 0.0, 0.0), (8, 0, 1, 0.0, 0.5)])
    a = render_scene(model, arc=arc, trajectory=log)
    b = render_scene(model, arc=arc, trajectory=log)
    assert a == b
    assert '<g id="obstacles">' in a and '<g id="inflated">' in a
    assert '<g id="trajectory">' in a


def test_raw_and_inflated_obstacles_both_drawn(quad):
    svg = render_scene(CollisionModel(demo_world(), quad))
    assert _group(svg, "obstacles").count("<circle") == 2
    assert _group(svg, "obstacles").count("<rect") == 1
    inflated = _group(svg, "inflated")
    assert inflated.count("<circle") == 2
    assert "stroke-dasharray" in inflated


def test_bench_chart_marks_every_row():
    result = BenchResult(
        rows=[BenchRow(150, 0.1, 0.05, 0.2, 3.4, 1.0),
              BenchRow(500, 0.3, 0.2, 0.5, 3.1, 1.0)],
        samples=[], host="test", seed=0)
    svg = render_bench_chart(result)
    assert svg.count("<circle") == 2
    assert ">150<" in svg and ">500<" in svg
    assert render_bench_chart(result) == svg
