"""Obstacle-aware arc-shot planning for aerial cinematography.

Generate a desired arc around a filming target, find the spans an obstacle
blocks, repair each with an expanding-window RRT* detour, and execute the
result by tracking a reference that moves along it under speed and
acceleration bounds.
"""

from .discontinuity import Discontinuity, find_discontinuities
from .errors import (ArcshotError, DegenerateArc, DegenerateExtend,
                     DegenerateHeading, EndpointBlocked, LocalPlanFailed,
                     SchemaError, SpliceMismatch, TakeoffBlocked,
                     TimeoutExceeded, UnreadableInput, VacuousBench,
                     ValidationFailed)
from .executor import FollowConfig, follow
from .local_planner import (LocalPath, RrtParams, SearchWindow, Tree,
                            expand_window, extend, initial_window, nearest_vertex,
                            plan_local_run, rrt_star_run, sample)
from .pipeline import PlanResult, plan_shot, splice, validate
from .shot import ArcShotSpec, GlobalPath, aimed_row, generate_arc, wrap_to_pi
from .world import (AxisBox, CollisionModel, Cylinder, Obstacle, QuadModel, Vec3,
                    World)

__version__ = "0.1.0"
