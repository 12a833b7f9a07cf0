"""Deterministic double-integrator end-effector world with a kinematic grasp.

The robot is a free-floating 6-DoF body (mass + isotropic rotational
inertia). Grasping is kinematic: when the gripper command crosses 0.5 while
the end effector is within ``grasp_radius`` of the object, the object is
rigidly attached; opening past 0.5 detaches it wherever it is.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import IDENTITY_QUAT, Pose, Twist
from .errors import ConfigurationError
from .kernels import STATE_SIZE

PHYSICS_DT = 0.002  # 2 ms per physics step


@dataclass(frozen=True)
class DynamicsParams:
    mass: float = 1.0                 # kg
    inertia: float = 1.0              # kg m^2, isotropic
    physics_dt: float = PHYSICS_DT    # s
    gripper_slew: float = 8.0         # full-range commands per second
    wrench_limit: float = 0.0         # saturation per component; 0 disables

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (
                self.mass, self.inertia, self.physics_dt, self.gripper_slew,
                self.wrench_limit)):
            raise ConfigurationError("dynamics parameters must be finite")
        if self.mass <= 0 or self.inertia <= 0 or self.physics_dt <= 0:
            raise ConfigurationError("mass, inertia, physics_dt must be positive")
        if self.gripper_slew < 0:
            raise ConfigurationError("gripper_slew must be non-negative")


# The time limit of a task (s): rollouts end there, and the metrics charge
# a failed rollout -1 / T_MAX.
T_MAX = 30.0


@dataclass(frozen=True)
class TaskSpec:
    """Scripted pick-and-place: move the object to the goal and let go."""

    object_start: Pose
    goal_position: np.ndarray
    grasp_radius: float = 0.015   # m
    place_tolerance: float = 0.02  # m
    t_max: float = T_MAX           # s

    def __post_init__(self):
        goal = np.asarray(self.goal_position, dtype=float).copy()
        goal.setflags(write=False)
        object.__setattr__(self, "goal_position", goal)
        if not (np.all(np.isfinite(goal)) and all(math.isfinite(v) for v in (
                self.grasp_radius, self.place_tolerance, self.t_max))):
            raise ConfigurationError("task goal, tolerances and t_max must "
                                     "be finite")
        if self.grasp_radius <= 0 or self.place_tolerance <= 0 or self.t_max <= 0:
            raise ConfigurationError("task tolerances and t_max must be positive")


@dataclass(frozen=True)
class WorldState:
    robot: Pose
    twist: Twist = field(default_factory=Twist)
    gripper: float = 0.0
    object_pose: Pose = field(default_factory=lambda: Pose(np.zeros(3)))
    attached: bool = False
    rel_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rel_orientation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())
    sim_time: float = 0.0

    def to_vector(self) -> np.ndarray:
        v = np.zeros(STATE_SIZE)
        v[0:3] = self.robot.position
        v[3:7] = self.robot.orientation
        v[7:10] = self.twist.linear
        v[10:13] = self.twist.angular
        v[13] = self.gripper
        v[14:17] = self.object_pose.position
        v[17:21] = self.object_pose.orientation
        v[21] = 1.0 if self.attached else 0.0
        v[22:25] = self.rel_position
        v[25:29] = self.rel_orientation
        v[29] = self.sim_time
        return v

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "WorldState":
        return cls(
            robot=Pose(v[0:3], v[3:7]),
            twist=Twist(v[7:10], v[10:13]),
            gripper=float(v[13]),
            object_pose=Pose(v[14:17], v[17:21]),
            attached=bool(v[21] > 0.5),
            rel_position=v[22:25].copy(),
            rel_orientation=v[25:29].copy(),
            sim_time=float(v[29]),
        )


def initial_world(robot: Pose, task: TaskSpec) -> WorldState:
    return WorldState(robot=robot, object_pose=task.object_start)


def success(world: WorldState, spec: TaskSpec) -> bool:
    """Object placed within tolerance, released, and within the time limit."""
    if world.attached or world.sim_time > spec.t_max:
        return False
    dist = np.linalg.norm(world.object_pose.position - spec.goal_position)
    return bool(dist <= spec.place_tolerance)

