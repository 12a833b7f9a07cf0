"""Reference tracks as they were built before the planning fast path.

``OracleReferenceTrack`` is the reference track on scipy's ``CubicSpline``
with a slerp that redoes every segment's dot, flip and ``arccos`` on each
sample call, and segment rates written out component by component, kept
unchanged so tests can require ``sailx.controller.ReferenceTrack`` (its
spline built by scipy's own steps, its slerp segments computed once per
track) to reproduce it bit for bit.
"""

import numpy as np
from scipy.interpolate import CubicSpline

from sailx.core import Pose
from sailx.errors import InvalidInputError


class OracleReferenceTrack:
    """``sailx.controller.ReferenceTrack`` on scipy's ``CubicSpline``."""

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
        grippers = (np.zeros(n) if grippers is None
                    else np.asarray(grippers, dtype=float))
        flags = (np.zeros(n, dtype=np.int8) if flags is None
                 else np.asarray(flags, dtype=np.int8))
        for name, array, shape in (("times", times, (n,)),
                                   ("positions", positions, (n, 3)),
                                   ("orientations", orientations, (n, 4)),
                                   ("grippers", grippers, (n,)),
                                   ("flags", flags, (n,))):
            if array.shape != shape:
                raise InvalidInputError(f"{name} must have shape {shape}, "
                                        f"got {array.shape}")
        for name, array in (("positions", positions),
                            ("orientations", orientations),
                            ("grippers", grippers)):
            if not np.isfinite(array).all():
                raise InvalidInputError(f"{name} must be finite")
        if not (orientations != 0.0).any(axis=1).all():
            raise InvalidInputError("orientations must not be all zero")
        self.times = times
        self.positions = positions
        self.orientations = orientations
        self.grippers = grippers
        self.flags = flags
        if n == 2:
            self._spline = None
            self._slope = (positions[1] - positions[0]) / (times[1] - times[0])
        else:
            self._spline = CubicSpline(times, positions, bc_type="natural")
        # angular rate per segment, world frame
        self._seg_angvel = _segment_rates(times, orientations)

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


def _segment_rates(times, quats):
    """Per segment, ``rotvec_between(quats[i], quats[i + 1]) / dt_i``.

    Row by row this is the scalar kernel in its operation order: the
    product quats[i + 1] * conj(quats[i]), flipped to w >= 0, the angle
    2 arctan2(|v|, w), and 2 v in place of angle / |v| * v when
    |v| < 1e-12.
    """
    a = quats[1:]
    b = quats[:-1]
    b1, b2, b3 = -b[:, 1], -b[:, 2], -b[:, 3]
    rel = np.empty((len(a), 4))
    rel[:, 0] = a[:, 0] * b[:, 0] - a[:, 1] * b1 - a[:, 2] * b2 - a[:, 3] * b3
    rel[:, 1] = a[:, 0] * b1 + a[:, 1] * b[:, 0] + a[:, 2] * b3 - a[:, 3] * b2
    rel[:, 2] = a[:, 0] * b2 - a[:, 1] * b3 + a[:, 2] * b[:, 0] + a[:, 3] * b1
    rel[:, 3] = a[:, 0] * b3 + a[:, 1] * b2 - a[:, 2] * b1 + a[:, 3] * b[:, 0]
    rel[rel[:, 0] < 0.0] *= -1.0
    vec = rel[:, 1:]
    vec_norm = np.sqrt(vec[:, 0] * vec[:, 0] + vec[:, 1] * vec[:, 1]
                       + vec[:, 2] * vec[:, 2])
    scale = np.full(len(a), 2.0)
    arc = ~(vec_norm < 1e-12)
    scale[arc] = 2.0 * np.arctan2(vec_norm[arc], rel[arc, 0]) / vec_norm[arc]
    rates = scale[:, None] * vec
    rates /= np.diff(times)[:, None]
    return rates
