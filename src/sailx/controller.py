"""Task-space PD tracking with spline-derived velocity feedforward.

References are timed pose waypoints; position targets between waypoints come
from a natural cubic spline, orientation targets from piecewise slerp, and
velocity targets from the spline derivative / finite-difference geodesic
rates. The damping convention for the presets is kv = 2 * damping * sqrt(kp).
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .core import Pose
from .errors import InvalidInputError, SimFault
from .kernels import rotvec_between, track_loop
from .sim import DynamicsParams, WorldState


def _kv(kp: float, damping: float) -> float:
    return 2.0 * damping * np.sqrt(kp)


@dataclass(frozen=True)
class GainProfile:
    kp_pos: float
    kv_pos: float
    kp_ori: float
    kv_ori: float
    label: str = "low_gain"

    def __post_init__(self):
        if min(self.kp_pos, self.kv_pos, self.kp_ori, self.kv_ori) < 0:
            raise InvalidInputError("gains must be non-negative")


# Named presets. sim-* follow the simulated-task table (kp / damping pairs),
# real-* the hardware table (explicit kp / kv).
GAIN_PRESETS = {
    "sim-lift": GainProfile(3000.0, _kv(3000.0, 0.5), 3000.0, _kv(3000.0, 0.5),
                            label="high_gain"),
    "sim-square": GainProfile(1000.0, _kv(1000.0, 1.0), 1000.0, _kv(1000.0, 1.0),
                              label="high_gain"),
    "real-demo": GainProfile(150.0, 24.5, 250.0, 31.6, label="low_gain"),
    "real-exec": GainProfile(300.0, 34.6, 400.0, 40.0, label="high_gain"),
}
GAIN_PRESETS["high"] = GAIN_PRESETS["sim-lift"]
# softer than the demo-collection controller: the low-gain replay condition
GAIN_PRESETS["low"] = GainProfile(100.0, 20.0, 180.0, 26.8, label="low_gain")


def gain_profile(name: str) -> GainProfile:
    try:
        return GAIN_PRESETS[name]
    except KeyError:
        raise InvalidInputError(f"unknown gain preset {name!r}") from None


class ReferenceTrack:
    """Timed pose waypoints with spline position and per-waypoint twists."""

    def __init__(self, times, positions, orientations, grippers=None, flags=None):
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=float)
        orientations = np.asarray(orientations, dtype=float)
        n = len(times)
        if n < 2:
            raise InvalidInputError("a reference needs at least 2 waypoints")
        if not np.all(np.isfinite(times)):
            raise InvalidInputError("waypoint times must be finite")
        if np.any(np.diff(times) <= 0):
            raise InvalidInputError("waypoint times must be strictly increasing")
        self.times = times
        self.positions = positions
        self.orientations = orientations
        self.grippers = (np.zeros(n) if grippers is None
                         else np.asarray(grippers, dtype=float))
        self.flags = (np.zeros(n, dtype=np.int8) if flags is None
                      else np.asarray(flags, dtype=np.int8))
        if n == 2:
            self._spline = None
            self._slope = (positions[1] - positions[0]) / (times[1] - times[0])
        else:
            self._spline = CubicSpline(times, positions, bc_type="natural")
        # angular rate per segment, world frame
        self._seg_angvel = np.zeros((n - 1, 3))
        for i in range(n - 1):
            dt = times[i + 1] - times[i]
            self._seg_angvel[i] = rotvec_between(
                orientations[i], orientations[i + 1]) / dt

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _eval_pos(self, t):
        if self._spline is None:
            return self.positions[0] + np.outer(t - self.times[0], self._slope)
        return self._spline(t)

    def _eval_vel(self, t):
        if self._spline is None:
            return np.tile(self._slope, (len(t), 1))
        return self._spline(t, 1)

    def sample(self, times):
        """Reference arrays at arbitrary times, clamped to the track span.

        Returns (pos, vel, quat, angvel, grip) arrays; beyond the span the
        endpoint pose is held with zero velocity.
        """
        t = np.asarray(times, dtype=float)
        tc = np.clip(t, self.times[0], self.times[-1])
        pos = self._eval_pos(tc)
        vel = self._eval_vel(tc)
        outside = (t < self.times[0]) | (t > self.times[-1])
        vel[outside] = 0.0

        seg = np.clip(np.searchsorted(self.times, tc, side="right") - 1,
                      0, len(self.times) - 2)
        frac = (tc - self.times[seg]) / (self.times[seg + 1] - self.times[seg])
        quat = _slerp(self.orientations, seg, frac)
        angvel = self._seg_angvel[seg]
        angvel[outside] = 0.0
        grip = self.grippers[np.clip(seg + (frac >= 1.0), 0,
                                     len(self.times) - 1)]
        return pos, vel, quat, angvel, grip

    def pose_at(self, t: float) -> Pose:
        pos, _, quat, _, _ = self.sample(np.array([t]))
        return Pose(pos[0], quat[0])


def _slerp(quats, seg, s):
    """Shortest-arc slerp from quats[seg] to quats[seg + 1] at fractions s.

    Row by row this takes the branches of a scalar slerp from a to b in
    the same operation order: b is negated when dot(a, b) < 0, the dot is
    clamped at 1, angles below 1e-10 fall back to a normalised lerp, and
    the result is normalised and flipped to w >= 0. The branches depend on
    the segment alone, so they are decided once per segment.
    """
    a = quats[:-1]
    b = quats[1:].copy()
    d = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]
         + a[:, 3] * b[:, 3])
    flip = d < 0.0
    b[flip] *= -1.0
    d[flip] *= -1.0
    theta = np.arccos(np.minimum(d, 1.0, out=d))
    s = s[:, None]
    out = (b - a)[seg]
    out *= s
    out += a[seg]  # a + s * (b - a): both operations commute exactly
    rows = ~(theta < 1e-10)[seg]
    if np.any(rows):
        arc = seg[rows]
        th = theta[arc][:, None]
        sa = s[rows]
        st = np.sin(th)
        out[rows] = (np.sin((1.0 - sa) * th) / st * a[arc]
                     + np.sin(sa * th) / st * b[arc])
    norm = np.sqrt(out[:, 0] * out[:, 0] + out[:, 1] * out[:, 1]
                   + out[:, 2] * out[:, 2] + out[:, 3] * out[:, 3])
    out /= norm[:, None]
    out[out[:, 0] < 0.0] *= -1.0
    return out


def fit_reference(chunk, interval: float) -> ReferenceTrack:
    """Spline a chunk's waypoints at uniform spacing ``interval``.

    ``chunk`` is anything exposing positions (N,3), orientations (N,4),
    grippers (N,) and flags (N,) arrays (see policy.ActionChunk).
    """
    if interval <= 0:
        raise InvalidInputError("interval must be positive")
    n = len(chunk.positions)
    if n < 2:
        raise InvalidInputError("chunk must contain at least 2 waypoints")
    times = np.arange(n) * interval
    return ReferenceTrack(times, chunk.positions, chunk.orientations,
                          chunk.grippers, chunk.flags)


@dataclass
class TrackTrace:
    times: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray
    e_pos: np.ndarray
    e_ori: np.ndarray
    events: np.ndarray  # per-step attach(+1)/detach(-1) codes

    @classmethod
    def empty(cls) -> "TrackTrace":
        return cls(np.empty(0), np.empty((0, 3)), np.empty((0, 4)),
                   np.empty(0), np.empty(0), np.empty(0, dtype=np.int8))


def track(world: WorldState, ref: ReferenceTrack, gains: GainProfile,
          params: DynamicsParams, until: float,
          grasp_radius: float = 0.015) -> tuple[WorldState, TrackTrace]:
    """Run the inner control loop at physics_dt until ``until``."""
    n = int(round((until - world.sim_time) / params.physics_dt))
    if n <= 0:
        return world, TrackTrace.empty()
    times = world.sim_time + params.physics_dt * (np.arange(n) + 1)
    pos, vel, quat, angvel, grip = ref.sample(times)

    state = world.to_vector()
    out_pos = np.empty((n, 3))
    out_quat = np.empty((n, 4))
    out_epos = np.empty(n)
    out_eori = np.empty(n)
    out_events = np.zeros(n, dtype=np.int8)
    fault = track_loop(state, pos, vel, quat, angvel, grip,
                       gains.kp_pos, gains.kv_pos, gains.kp_ori, gains.kv_ori,
                       params.mass, params.inertia, params.physics_dt,
                       params.gripper_slew, grasp_radius, params.wrench_limit,
                       out_pos, out_quat, out_epos, out_eori, out_events)
    if fault >= 0:
        raise SimFault(f"non-finite wrench at t={times[fault]:.4f}")
    trace = TrackTrace(times, out_pos, out_quat, out_epos, out_eori, out_events)
    return WorldState.from_vector(state), trace
