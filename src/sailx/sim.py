"""Deterministic double-integrator end-effector world with a kinematic grasp.

The robot is a free-floating 6-DoF unit body: unit mass and unit isotropic
rotational inertia, so the PD law of ``controller`` commands its linear and
angular accelerations. Grasping is kinematic: when the gripper command
crosses 0.5 while the end effector is within GRASP_RADIUS of the
object, the object is rigidly attached; opening past 0.5 detaches it
wherever it is.

The plant state is the packed (30,) vector laid out in ``kernels``; the
slices below are the parts of it that other modules read.
"""

from dataclasses import dataclass

import numpy as np

from .core import IDENTITY_QUAT, Pose
from .errors import ConfigurationError, InvalidInputError
from .kernels import STATE_SIZE

PHYSICS_DT = 0.002  # 2 ms per physics step
GRIPPER_SLEW = 8.0  # full-range commands per second

ROBOT_POSE = slice(0, 7)
ROBOT_POSITION = slice(0, 3)
ROBOT_ORIENTATION = slice(3, 7)
GRIPPER = 13
OBJECT_POSE = slice(14, 21)
OBJECT_POSITION = slice(14, 17)
OBJECT_ORIENTATION = slice(17, 21)
ATTACHED = 21
TIME = 29
# the robot's and the object's quaternion, and both at the identity
_QUATERNIONS = [3, 4, 5, 6, 17, 18, 19, 20]
_IDENTITIES = np.tile(IDENTITY_QUAT, 2)

# The time limit of a task (s): rollouts end there, and the metrics charge
# a failed rollout -1 / T_MAX.
T_MAX = 30.0
GRASP_RADIUS = 0.015  # m, the largest end effector-object grasp distance
PLACE_TOLERANCE = 0.02  # m, the largest object-goal distance of a success


@dataclass(frozen=True)
class TaskSpec:
    """Scripted pick-and-place: move the object to the goal and let go."""

    object_start: Pose
    goal_position: np.ndarray

    def __post_init__(self):
        goal = np.asarray(self.goal_position, dtype=float).copy()
        goal.setflags(write=False)
        object.__setattr__(self, "goal_position", goal)
        if not np.all(np.isfinite(goal)):
            raise ConfigurationError("task goal must be finite")


def initial_world(robot: Pose, task: TaskSpec) -> np.ndarray:
    """The plant state at rest: the robot at ``robot``, the gripper open,
    the object free at the task's start pose, the clock at 0."""
    state = np.zeros(STATE_SIZE)
    state[ROBOT_POSITION] = robot.position
    state[ROBOT_ORIENTATION] = robot.orientation
    state[OBJECT_POSITION] = task.object_start.position
    state[OBJECT_ORIENTATION] = task.object_start.orientation
    state[25] = 1.0  # the identity relative orientation
    return state


def normalise_poses(states) -> None:
    """Renormalise the robot's and the object's quaternion in place, in
    Pose's operation order, in one packed state or in each row of a
    (B, STATE_SIZE) array of them.

    Every tracked stretch ends here once, so that the next one starts from
    the bits a Pose of each would hold. Raises InvalidInputError, as Pose
    does, when a pose or a velocity is not finite. A row whose quaternions
    both have w == 1.0 and a zero vector part, zeros of either sign, is
    skipped: its norm is exactly 1, and dividing by 1 keeps every bit.
    """
    states = np.atleast_2d(states)
    if not np.isfinite(states[:, :OBJECT_ORIENTATION.stop]).all():
        raise InvalidInputError("plant state must be finite")
    moving = states[:, _QUATERNIONS] != _IDENTITIES
    if not moving.any():
        return
    for row in np.flatnonzero(moving.any(axis=1)):
        state = states[row]
        for q in (state[ROBOT_ORIENTATION], state[OBJECT_ORIENTATION]):
            q /= np.linalg.norm(q)
            if q[0] < 0.0:
                q *= -1.0


def success(state, spec: TaskSpec) -> bool:
    """Object placed within PLACE_TOLERANCE, released, and within T_MAX."""
    if state[ATTACHED] > 0.5 or state[TIME] > T_MAX:
        return False
    dist = np.linalg.norm(state[OBJECT_POSITION] - spec.goal_position)
    return bool(dist <= PLACE_TOLERANCE)
