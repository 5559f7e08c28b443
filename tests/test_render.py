import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshot import fileio
from arcshot.bench import BenchResult, BenchRow
from arcshot.local_planner import RrtParams, Tree
from arcshot.pipeline import plan_shot
from arcshot.render import (_Canvas, _f, _obstacle_layer, _polyline, render_bench_chart,
                            render_scene)
from arcshot.shot import generate_arc
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, obstacle_rows
from conftest import demo_shot, demo_world, make_world
import render_reference
from world_reference import inflate


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
    assert len(points) == demo_shot().sample_count


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
                       final_path=result.final_path,
                       trees=[r.tree for r in result.detours])
    edges = _group(svg, "tree").count("<line")
    # every node except each tree's root contributes exactly one parent edge
    expected = fileio.report_to_json(result)["totals"]["nodes"] - len(result.detours)
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


def _reference_layer(canvas: _Canvas, obstacles, style: str) -> str:
    """A layer's group text as render drew it from obstacle dataclasses."""
    text = "\n"
    for o in obstacles:
        if isinstance(o, Cylinder):
            c = o.base_center
            text += (f'<circle cx="{_f(canvas.x(c.x))}" cy="{_f(canvas.y(c.y))}" '
                     f'r="{_f(o.radius * canvas.scale)}" {style}/>\n')
        else:
            w = (o.max.x - o.min.x) * canvas.scale
            h = (o.max.y - o.min.y) * canvas.scale
            text += (f'<rect x="{_f(canvas.x(o.min.x))}" y="{_f(canvas.y(o.max.y))}" '
                     f'width="{_f(w)}" height="{_f(h)}" {style}/>\n')
    return text


_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-12, 12))


@st.composite
def _obstacle(draw):
    lo = Vec3(draw(_coord), draw(_coord), draw(st.floats(-2, 6)))
    if draw(st.booleans()):
        return Cylinder(lo, draw(st.floats(0.01, 3)), draw(st.floats(0.01, 5)))
    size = st.one_of(st.just(0.0), st.floats(0, 4))
    return AxisBox(lo, Vec3(lo.x + draw(size), lo.y + draw(size), lo.z + draw(size)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_obstacle(), max_size=6), st.floats(0.01, 1.0))
def test_obstacle_layers_draw_each_obstacle_in_world_order(obstacles, body):
    quad = QuadModel(body_radius=body)
    world = make_world(tuple(obstacles))
    svg = render_scene(CollisionModel(world, quad))
    canvas = _Canvas(world.bounds, 900)
    assert _group(svg, "obstacles") == _reference_layer(
        canvas, obstacles, 'fill="#9a9a9a" stroke="#5a5a5a" stroke-width="1"')
    assert _group(svg, "inflated") == _reference_layer(
        canvas, [inflate(o, quad) for o in obstacles],
        'fill="none" stroke="#c06060" stroke-width="1" stroke-dasharray="6,4"')


# -- column formatting against the per-element oracle --------------------------

# -0.0, values that round to +-0.000 or sit on a rounding tie, and large values
_SPECIAL = st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 4.9999e-4, -4.9999e-4, 5e-4, -5e-4,
                            0.0005000001, -0.0015, 2.5e-3, 5e-324, 123456.0005,
                            1e15, -1e15, 3e300, -3e300])
_VALUE = st.one_of(_SPECIAL, st.floats(-50, 50), st.floats(allow_nan=False,
                                                            allow_infinity=False))


@st.composite
def _canvases(draw):
    """A random canvas, or one that maps world x to pixels as they are
    (a pad of 0.0 or -0.0 and a scale of 1), so -0.0 and tiny values reach
    the formatter unchanged."""
    if draw(st.booleans()):
        return _Canvas(AxisBox(Vec3(0.0, 0.0, 0.0), Vec3(900.0, 900.0, 1.0)), 900,
                       pad=draw(st.sampled_from([0.0, -0.0])))
    lo = draw(st.floats(-1e6, 1e6))
    span = draw(st.floats(1e-3, 1e6))
    return _Canvas(AxisBox(Vec3(lo, lo, 0.0), Vec3(lo + span, lo + span, 1.0)),
                   draw(st.integers(100, 2000)))


@settings(max_examples=300, deadline=None)
@given(_canvases(), st.lists(st.tuples(_VALUE, _VALUE), max_size=12))
def test_polyline_equals_the_per_point_reference(canvas, points):
    style = 'stroke="#4477cc" stroke-width="1"'
    rows = np.array(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):
        assert _polyline(canvas, rows, style) == render_reference.polyline(canvas, points,
                                                                           style)


@st.composite
def _raw_obstacle(draw):
    lo = Vec3(draw(_VALUE), draw(_VALUE), draw(_VALUE))
    if draw(st.booleans()):
        size = st.one_of(st.sampled_from([5e-324, 1e-4, 4.9999e-4]), st.floats(1e-3, 1e6))
        return Cylinder(lo, draw(size), draw(size))
    size = st.one_of(st.sampled_from([0.0, -0.0, 1e-4]), st.floats(0, 1e6))
    return AxisBox(lo, Vec3(lo.x + draw(size), lo.y + draw(size), lo.z + draw(size)))


@settings(max_examples=300, deadline=None)
@given(_canvases(), st.lists(_raw_obstacle(), max_size=8))
def test_obstacle_layer_equals_the_per_element_reference(canvas, obstacles):
    style = 'fill="#9a9a9a" stroke="#5a5a5a" stroke-width="1"'
    with np.errstate(over="ignore"):
        rows = obstacle_rows(obstacles)
        want = render_reference.obstacle_layer(canvas, rows, style)
        got = _obstacle_layer(canvas, rows, style)
    # one element per layer, so render joins the same lines
    assert got == (["\n".join(want)] if want else [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE, st.integers(0, 10 ** 6)), max_size=10))
def test_tree_overlay_equals_the_per_edge_reference(nodes):
    tree = Tree((0.0, -0.0, 0.0))
    world = make_world()
    with np.errstate(over="ignore"):
        for x, y, parent in nodes:
            tree.add(np.array([x, y, 0.0]), parent % len(tree))
        # a root-only tree draws no edge
        svg = render_scene(CollisionModel(world, QuadModel()),
                           trees=[tree, Tree((1.0, 1.0, 1.0))])
        lines = render_reference.tree_lines(_Canvas(world.bounds, 900), tree)
    assert _group(svg, "tree") == "".join(f"\n{line}" for line in lines) + "\n"


def test_planned_tree_overlay_equals_the_per_edge_reference(quad):
    model = CollisionModel(demo_world(), quad)
    result = plan_shot(model, demo_shot(), RrtParams(extend_dist=0.2, seed=7))
    trees = [r.tree for r in result.detours]
    svg = render_scene(model, trees=trees)
    canvas = _Canvas(model.world.bounds, 900)
    lines = [line for tree in trees for line in render_reference.tree_lines(canvas, tree)]
    assert len(lines) > 100
    assert _group(svg, "tree") == "".join(f"\n{line}" for line in lines) + "\n"


def test_bench_chart_marks_every_row():
    result = BenchResult(
        rows=[BenchRow(150, 0.1, 0.05, 0.2, 3.4, 1.0),
              BenchRow(500, 0.3, 0.2, 0.5, 3.1, 1.0)],
        samples=[], host="test", seed=0)
    svg = render_bench_chart(result)
    assert svg.count("<circle") == 2
    assert ">150<" in svg and ">500<" in svg
    assert render_bench_chart(result) == svg
