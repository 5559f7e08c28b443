"""Obstacle-aware arc-shot planning for aerial cinematography.

Generate a desired arc around a filming target, find the spans an obstacle
blocks, repair each with an expanding-window RRT* detour, and execute the
result with a kinematic waypoint follower.
"""

from .discontinuity import Discontinuity, find_discontinuities
from .errors import (ArcshotError, DegenerateArc, DegenerateExtend,
                     DegenerateHeading, EndpointBlocked, LocalPlanFailed,
                     SchemaError, SpliceMismatch, TimeoutExceeded,
                     UnresolvableSpan, VacuousBench, ValidationFailed)
from .executor import FollowConfig, SimState, command_for, follow
from .local_planner import (LocalPath, RrtParams, SearchWindow, Tree,
                            expand_window, extend, initial_window, nearest_vertex,
                            plan_local_run, rrt_star_run, sample)
from .pipeline import PlanReport, PlanResult, plan_shot, splice, validate
from .shot import (ArcShotSpec, GlobalPath, Pose4, face_target, generate_arc,
                   wrap_to_pi)
from .world import (AxisBox, CollisionModel, Cylinder, Obstacle, QuadModel, Vec3,
                    World, inflate)

__version__ = "0.1.0"
