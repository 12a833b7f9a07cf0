"""Task-space PD tracking with spline-derived velocity feedforward.

References are timed pose waypoints; position targets between waypoints come
from a natural cubic spline, orientation targets from piecewise slerp, and
velocity targets from the spline derivative / finite-difference geodesic
rates. The damping convention for the presets is kv = 2 * damping * sqrt(kp).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError, get_lapack_funcs

from .core import Pose
from .errors import InvalidInputError, SimFault
from .kernels import (_CONJ, REF_GRIP, REF_POS, REF_QUAT, REF_ROWS,
                      REF_TWIST, _hamilton, _rotvec, _signed, track_loop,
                      track_loop_batch)
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
        gains = (self.kp_pos, self.kv_pos, self.kp_ori, self.kv_ori)
        if not all(math.isfinite(g) for g in gains):
            raise InvalidInputError("gains must be finite")
        if min(gains) < 0:
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
        if not np.isfinite(times).all():
            raise InvalidInputError("waypoint times must be finite")
        seg_dt = times[1:] - times[:-1]
        if (seg_dt <= 0).any():
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
            self._spline = _natural_spline(times, positions)
        self._seg_dt = seg_dt
        # angular rate per segment, world frame
        self._seg_angvel = _segment_rates(times, orientations)
        self._slerp_segments = _slerp_segments(orientations)

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

        # tc >= times[0], so the segment is at least 0, and a step to the
        # next waypoint's gripper at frac >= 1 stays within the waypoints
        seg = np.searchsorted(self.times, tc, side="right") - 1
        np.minimum(seg, len(self.times) - 2, out=seg)
        frac = (tc - self.times[seg]) / self._seg_dt[seg]
        quat = _slerp(self._slerp_segments, seg, frac)
        angvel = self._seg_angvel[seg]
        angvel[outside] = 0.0
        grip = self.grippers[seg + (frac >= 1.0)]
        return pos, vel, quat, angvel, grip

    def pose_at(self, t: float) -> Pose:
        pos, _, quat, _, _ = self.sample(np.array([t]))
        return Pose(pos[0], quat[0])


def _segment_rates(times, quats):
    """Per segment, ``rotvec_between(quats[i], quats[i + 1]) / dt_i``.

    The product quats[i + 1] * conj(quats[i]) and its rotation vector are
    taken on the columns of the transposed waypoints, with the bits of the
    per-segment product and rotation vector.
    """
    rel = _hamilton(quats[1:].T, _signed(quats[:-1].T), _CONJ)
    return (_rotvec(rel) / np.diff(times)).T


# LAPACK's tridiagonal solver for float64, fetched as solve_banded fetches it
_GTSV, = get_lapack_funcs(("gtsv",), dtype=np.float64)


def _natural_spline(x, y) -> PPoly:
    """The natural cubic spline through the rows of y at the knots x.

    These are the steps of scipy's ``CubicSpline(x, y, bc_type="natural")``
    in its operation order, without its input checks and set-up: the
    banded system for the knot slopes with zero second derivatives at both
    ends, the LAPACK ``gtsv`` call its ``solve_banded`` makes, and the
    Hermite coefficients. Knot slopes that overflow raise
    InvalidInputError, where CubicSpline raised ValueError; finite slopes
    with overflowing coefficients build, as they did, and fault in the
    plant.
    """
    n = len(x)
    dx = x[1:] - x[:-1]
    dxr = dx[:, None]
    slope = (y[1:] - y[:-1]) / dxr
    A = np.zeros((3, n))
    b = np.empty((n, 3))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # natural ends: second derivative 0.0 at both
    A[1, 0] = 2 * dx[0]
    A[0, 1] = dx[0]
    b[0] = -0.5 * 0.0 * dx[0]**2 + 3 * (y[1] - y[0])
    A[1, -1] = 2 * dx[-1]
    A[-1, -2] = dx[-1]
    b[-1] = 0.5 * 0.0 * dx[-1]**2 + 3 * (y[-1] - y[-2])
    # solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
    # check_finite=False) makes this one call, on these diagonal views with
    # these overwrite flags, after argument checks the built system passes
    _, _, _, s, info = _GTSV(A[2, :-1], A[1, :], A[0, 1:], b,
                             True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of "
                         "internal gbsv/gtsv")
    if not np.isfinite(s).all():
        raise InvalidInputError("positions overflow the spline's knot slopes")
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.empty((4, n - 1, 3))
    np.divide(t, dxr, out=c[0])
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dxr
    c[1] -= t
    c[2] = s[:-1]
    c[3] = y[:-1]
    return PPoly.construct_fast(c, x)


def _slerp_segments(quats):
    """Per segment, what a slerp from quats[i] to quats[i + 1] needs.

    (a, b, theta, arc): b negated where dot(a, b) < 0, theta the arccos of
    the dot clamped at 1, and arc false where theta < 1e-10, on the
    segments a slerp lerps instead.
    """
    a = quats[:-1]
    b = quats[1:]
    d = (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]
         + a[:, 3] * b[:, 3])
    flip = d < 0.0
    if flip.any():  # b stays a view of quats otherwise
        b = b.copy()
        b[flip] *= -1.0
        d[flip] *= -1.0
    theta = np.arccos(np.minimum(d, 1.0, out=d))
    return a, b, theta, ~(theta < 1e-10)


def _slerp(segments, seg, s):
    """Shortest-arc slerp along segments ``seg`` at fractions s.

    ``segments`` is ``_slerp_segments(quats)``. Row by row this takes the
    branches of a scalar slerp from a to b in the same operation order:
    b is negated when dot(a, b) < 0, the dot is clamped at 1, angles below
    1e-10 fall back to a normalised lerp, and the result is normalised and
    flipped to w >= 0.
    """
    a, b, theta, arc = segments
    s = s[:, None]
    start = a[seg]
    out = b[seg]
    out -= start
    out *= s
    out += start  # a + s * (b - a): both operations commute exactly
    rows = arc[seg]
    if np.any(rows):
        arc = seg[rows]
        th = theta[arc][:, None]
        sa = s[rows]
        st = np.sin(th)
        out[rows] = (np.sin((1.0 - sa) * th) / st * a[arc]
                     + np.sin(sa * th) / st * b[arc])
    norm = np.sqrt(np.sum(out * out, axis=1))  # adds 4 values left to right
    out /= norm[:, None]
    out[out[:, 0] < 0.0] *= -1.0
    return out


@dataclass
class TrackTrace:
    times: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray
    e_pos: np.ndarray
    e_ori: np.ndarray
    events: np.ndarray  # per-step attach(+1)/detach(-1) codes
    # the tracked reference's position and orientation at each step time
    ref_positions: np.ndarray
    ref_orientations: np.ndarray

    @classmethod
    def empty(cls) -> "TrackTrace":
        return cls(np.empty(0), np.empty((0, 3)), np.empty((0, 4)),
                   np.empty(0), np.empty(0), np.empty(0, dtype=np.int8),
                   np.empty((0, 3)), np.empty((0, 4)))


def _slice_steps(t, untils, dt):
    """(t_k, n_k) per slice: the plant clock at its start and its step count.

    n_k = round((until_k - t_k) / dt), at least 0, and t_k advances by the
    same sequential additions ``track_loop`` makes.
    """
    steps = []
    for until in untils:
        n = max(int(round((until - t) / dt)), 0)
        steps.append((t, n))
        for _ in range(n):
            t += dt
    return steps


def _step_times(t, dt, n):
    """The times of the n steps of a slice that starts at ``t``."""
    return t + dt * (np.arange(n) + 1)


def track_slices(state, ref: ReferenceTrack, gains: GainProfile,
                 params: DynamicsParams, untils, grasp_radius: float = 0.015):
    """Track ``ref`` from the packed plant ``state`` to each of ``untils``.

    The slices compose as one ``track`` call per time in ``untils`` would:
    slice k runs n_k = round((until_k - t_k) / physics_dt) physics steps at
    the times t_k + physics_dt * (1, ..., n_k), where t_k is the plant clock
    after slice k - 1, advanced by the same sequential additions that
    ``track_loop`` makes; a slice with n_k <= 0 runs no step. The reference
    is sampled once for all slices, and ``state`` is updated in place. A
    generator: it yields each slice's TrackTrace once ``state`` has reached
    the end of the slice, and the caller may change ``state`` before the
    next slice runs.
    """
    dt = params.physics_dt
    slices = [_step_times(t, dt, n)
              for t, n in _slice_steps(float(state[29]), untils, dt)]
    times = np.concatenate(slices)
    total = len(times)
    if total == 0:
        for _ in slices:
            yield TrackTrace.empty()
        return
    pos, vel, quat, angvel, grip = ref.sample(times)
    out_pos = np.empty((total, 3))
    out_quat = np.empty((total, 4))
    out_epos = np.empty(total)
    out_eori = np.empty(total)
    out_events = np.zeros(total, dtype=np.int8)
    start = 0
    for step_times in slices:
        end = start + len(step_times)
        s = slice(start, end)
        if end > start:
            fault = track_loop(state, pos[s], vel[s], quat[s], angvel[s],
                               grip[s], gains.kp_pos, gains.kv_pos,
                               gains.kp_ori, gains.kv_ori, params.mass,
                               params.inertia, dt, params.gripper_slew,
                               grasp_radius, params.wrench_limit, out_pos[s],
                               out_quat[s], out_epos[s], out_eori[s],
                               out_events[s])
            if fault >= 0:
                raise SimFault(
                    f"non-finite wrench at t={step_times[fault]:.4f}")
        yield TrackTrace(step_times, out_pos[s], out_quat[s], out_epos[s],
                         out_eori[s], out_events[s], pos[s], quat[s])
        start = end


# Row-steps per reference block of a lockstep group: a block holds
# REF_ROWS floats per row and step, 0.69 MB whatever the group's width.
LOCKSTEP_BLOCK = 256 * 24
# Columns per lockstep run in the callers. Each reference sample call costs
# a fixed ~0.1 ms, and a group of B columns samples LOCKSTEP_BLOCK // B
# steps per call: past about 64 columns a wider run pays more for sampling
# than it saves on the plant. This also bounds the reference tracks a
# caller holds at once.
LOCKSTEP_MAX_ROWS = 64
# Groups of fewer columns run row by row on track_loop. Timed on whole
# sweep_gain_replay cells of B replays on one time grid (2-core x86-64 VM,
# numpy 2.4, c = 1, 0.5, 0.33 and 0.2, median of 9 runs), row by row was
# faster at every c up to B = 9, lockstep at two or three of the four c at
# B = 10 and 11 and at nearly every c from B = 12 up.
# perfbench/test_perfbench.py requires kernels.track_loop steps in a traced
# replay-open-loop pass of 6 rows, which holds only while 6 rows run row by
# row: perfbench has no binding for track_loop_batch.
LOCKSTEP_MIN_ROWS = 10


def _reference_block(refs, columns, times):
    """refs[r] sampled at ``times`` for each r in ``columns``, as a block."""
    block = np.empty((len(times), REF_ROWS, len(columns)))
    for j, r in enumerate(columns):
        pos, vel, quat, angvel, grip = refs[r].sample(times)
        block[:, REF_POS, j] = pos
        block[:, REF_TWIST, j] = np.hstack((vel, angvel))
        block[:, REF_QUAT, j] = quat
        block[:, REF_GRIP, j] = grip
    return block


def track_lockstep(states, refs, gains, params: DynamicsParams, untils,
                   grasp_radii):
    """Track column r of the (30, B) ``states`` along ``refs[r]``.

    Column r runs ``track_slices``'s slices to each time in ``untils[r]``
    under ``gains[r]`` and ``grasp_radii[r]``, with the same bits. Columns
    with equal start times and untils share one time grid and step in
    lockstep on ``track_loop_batch``; each reference is sampled one block
    of LOCKSTEP_BLOCK row-steps at a time, at the times ``track_slices``
    uses. Groups of fewer than LOCKSTEP_MIN_ROWS columns run column by
    column through ``track_slices``. No per-step trace is kept. Callers
    pass at most LOCKSTEP_MAX_ROWS columns at a time.

    A generator: after slice k of a group it yields (columns, k, n_k) once
    those columns reached the end of the slice, and the caller may change
    them before the next slice runs. A column whose wrench turns non-finite
    stops there. Once every column is done, the ``SimFault`` of the first
    such column is raised, as a loop over the columns would raise it, with
    the column index in its ``row``.
    """
    dt = params.physics_dt
    groups = {}
    for r in range(states.shape[1]):
        key = (float(states[29, r]), tuple(untils[r]))
        groups.setdefault(key, []).append(r)
    gain_rows = np.array([[g.kp_pos, g.kv_pos, g.kp_ori, g.kv_ori]
                          for g in gains]).T
    radii = np.asarray(grasp_radii, dtype=float)
    faults = {}
    for (t0, group_untils), rows in groups.items():
        if len(rows) < LOCKSTEP_MIN_ROWS:
            for r in rows:
                state = states[:, r].copy()
                try:
                    for k, trace in enumerate(track_slices(
                            state, refs[r], gains[r], params, group_untils,
                            radii[r])):
                        states[:, r] = state
                        yield np.array([r]), k, len(trace.times)
                        state[:] = states[:, r]
                except SimFault as fault:
                    states[:, r] = state
                    faults[r] = fault
            continue
        live = np.array(rows)
        grid = _slice_steps(t0, group_untils, dt)
        times = np.concatenate([_step_times(t, dt, n) for t, n in grid])
        block = np.empty((0, REF_ROWS, len(live)))
        block_start = start = 0
        for k, (_, n) in enumerate(grid):
            state = states[:, live]
            end = start + n
            while start < end and len(live):
                if start == block_start + len(block):
                    # drop the spent block before sampling the next one
                    block_start, block = start, None
                    steps = max(1, LOCKSTEP_BLOCK // len(live))
                    block = _reference_block(
                        refs, live, times[start:start + steps])
                stop = min(end, block_start + len(block))
                fault = track_loop_batch(
                    state, block[start - block_start:stop - block_start],
                    *gain_rows[:, live], params.mass, params.inertia, dt,
                    params.gripper_slew, radii[live], params.wrench_limit)
                stopped = fault >= 0
                if np.count_nonzero(stopped):
                    for j in np.flatnonzero(stopped):
                        faults[live[j]] = SimFault(
                            "non-finite wrench at "
                            f"t={times[start + fault[j]]:.4f}")
                    states[:, live] = state
                    live, state = live[~stopped], state[:, ~stopped]
                    block = block[:, :, ~stopped]
                start = stop
            states[:, live] = state
            if not len(live):
                break
            yield live, k, n
    if faults:
        row = min(faults)
        fault = faults[row]
        fault.row = row
        raise fault


def track(world: WorldState, ref: ReferenceTrack, gains: GainProfile,
          params: DynamicsParams, until: float,
          grasp_radius: float = 0.015) -> tuple[WorldState, TrackTrace]:
    """Run the inner control loop at physics_dt until ``until``."""
    state = world.to_vector()
    trace, = track_slices(state, ref, gains, params, (until,), grasp_radius)
    if len(trace.times) == 0:
        return world, trace
    return WorldState.from_vector(state), trace
