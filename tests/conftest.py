"""Shared scenario builders for the test suite."""

import math
from pathlib import Path

import pytest
from hypothesis import settings

from arcshot.shot import ArcShotSpec
from arcshot.world import AxisBox, CollisionModel, Cylinder, QuadModel, Vec3, World, obstacle_rows

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def make_world(obstacles=(), lo=(-15.0, -15.0, 0.0), hi=(15.0, 15.0, 10.0),
               target=(0.0, 0.0, 1.5)) -> World:
    return World(AxisBox(Vec3(*lo), Vec3(*hi)), obstacle_rows(obstacles), Vec3(*target))


def demo_world() -> World:
    """Bundled demo world: three obstacles, one of them blocking the arc."""
    return make_world((
        Cylinder(Vec3(0.0, 8.8, 0.0), 0.8, 5.0),
        Cylinder(Vec3(6.0, -5.0, 0.0), 1.0, 4.0),
        AxisBox(Vec3(-7.0, -7.0, 0.0), Vec3(-5.0, -5.0, 3.0)),
    ))


def demo_shot() -> ArcShotSpec:
    return ArcShotSpec(Vec3(8.0, 0.0, 2.0), Vec3(-8.0, 0.0, 2.0),
                       Vec3(0.0, 0.0, 1.5), "counterclockwise", 64)


def wall_world() -> World:
    """A wall far wider than any level-0 search window; escape is over the top."""
    return World(
        AxisBox(Vec3(-20.0, -20.0, 0.0), Vec3(20.0, 20.0, 12.0)),
        obstacle_rows((AxisBox(Vec3(-0.6, 6.0, 0.0), Vec3(0.6, 14.0, 3.0)),)),
        Vec3(0.0, 0.0, 1.0),
    )


def wall_shot() -> ArcShotSpec:
    return ArcShotSpec(Vec3(10.0, 0.0, 2.0), Vec3(-10.0, 0.0, 2.0),
                       Vec3(0.0, 0.0, 1.0), "counterclockwise", 64)


def spaced_quad(step: float, growth: float) -> QuadModel:
    """A quad whose growth is exactly `growth` and whose `check_step` is
    `step`, or growth / 2, the coarsest spacing that growth allows, when
    `step` is coarser; an ulp finer when no margin adds up to the growth.
    Quads of one growth inflate every obstacle alike."""
    body = min(2.0 * step, growth)
    while True:
        margin = growth - body
        for m in (margin, math.nextafter(margin, math.inf), math.nextafter(margin, 0.0)):
            if body + m == growth:
                return QuadModel(body_radius=body, safety_margin=m)
        body = math.nextafter(body, 0.0)


def point_free(model: CollisionModel, p: Vec3) -> bool:
    """`model.free_points` of the one point `p`."""
    return bool(model.free_points(p.as_array()[None])[0])


@pytest.fixture
def quad() -> QuadModel:
    return QuadModel()
