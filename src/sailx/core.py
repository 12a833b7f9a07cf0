"""Geometry and time primitives shared by every other module.

Orientations are unit quaternions (w, x, y, z), canonicalized to w >= 0.
All types here are immutable values and safe to share.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

QUAT_NORM_TOL = 1e-6
IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def _frozen(a):
    a = np.asarray(a, dtype=float).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Pose:
    """SE(3) element: position in meters plus a unit quaternion."""

    position: np.ndarray
    orientation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())

    def __post_init__(self):
        pos = _frozen(self.position)
        if pos.shape != (3,):
            raise InvalidInputError(f"position must be a 3-vector, got {pos.shape}")
        q = np.asarray(self.orientation, dtype=float)
        if q.shape != (4,):
            raise InvalidInputError(f"orientation must be a quaternion, got {q.shape}")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(q))):
            raise InvalidInputError("pose components must be finite")
        n = np.linalg.norm(q)
        if abs(n - 1.0) > QUAT_NORM_TOL:
            raise InvalidInputError(f"quaternion norm {n} is not 1")
        q = q / n
        if q[0] < 0.0:
            q = -q
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "orientation", _frozen(q))


@dataclass(frozen=True)
class Twist:
    """Linear (m/s) and angular (rad/s) velocity."""

    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        lin = _frozen(self.linear)
        ang = _frozen(self.angular)
        if not (np.all(np.isfinite(lin)) and np.all(np.isfinite(ang))):
            raise InvalidInputError("twist components must be finite")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "angular", ang)


@dataclass(frozen=True)
class TrackingError:
    """Position distance (m) and geodesic orientation angle (rad)."""

    e_pos: float
    e_ori: float

    def __post_init__(self):
        if self.e_pos < 0.0 or not 0.0 <= self.e_ori <= np.pi + 1e-12:
            raise InvalidInputError("tracking error out of range")


def tracking_error(desired: Pose, current: Pose) -> TrackingError:
    """Euclidean position error and geodesic rotation angle between poses.

    The orientation error is arccos((tr(R_delta) - 1) / 2) with the argument
    clamped to [-1, 1]; for unit quaternions tr(R_delta) = 4*dot(qa,qb)^2 - 1,
    which makes the result independent of quaternion sign.
    """
    e_pos = float(np.linalg.norm(desired.position - current.position))
    d = float(np.dot(desired.orientation, current.orientation))
    trace_arg = np.clip(2.0 * d * d - 1.0, -1.0, 1.0)
    return TrackingError(e_pos=e_pos, e_ori=float(np.arccos(trace_arg)))

