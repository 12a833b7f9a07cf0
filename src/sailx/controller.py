"""Task-space PD tracking with spline-derived velocity feedforward.

References are timed pose waypoints; position targets between waypoints come
from a natural cubic spline, orientation targets from piecewise slerp, and
velocity targets from the spline derivative / finite-difference geodesic
rates. The damping convention for the presets is kv = 2 * damping * sqrt(kp).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError, get_lapack_funcs

from .core import IDENTITY_QUAT, Pose
from .errors import InvalidInputError, SailxError, SimFault
from .kernels import (_CONJ, _SPIN, REST_ROWS, RestFault, _hamilton,
                      _orientation_errors, _positive_zero, _rotvec, _signed,
                      _track_at_rest, track_loop)
from .sim import GRASP_RADIUS, GRIPPER_SLEW, PHYSICS_DT, TIME, normalise_poses


def _kv(kp: float, damping: float) -> float:
    return 2.0 * damping * np.sqrt(kp)


@dataclass(frozen=True)
class GainProfile:
    kp_pos: float
    kv_pos: float
    kp_ori: float
    kv_ori: float

    def __post_init__(self):
        gains = (self.kp_pos, self.kv_pos, self.kp_ori, self.kv_ori)
        if not all(math.isfinite(g) for g in gains):
            raise InvalidInputError("gains must be finite")
        if min(gains) < 0:
            raise InvalidInputError("gains must be non-negative")


# Named presets. real-* follow the hardware table (explicit kp / kv), and
# "high" the simulated lift task's kp / damping pair.
GAIN_PRESETS = {
    "real-demo": GainProfile(150.0, 24.5, 250.0, 31.6),
    "real-exec": GainProfile(300.0, 34.6, 400.0, 40.0),
    "high": GainProfile(3000.0, _kv(3000.0, 0.5), 3000.0, _kv(3000.0, 0.5)),
    # softer than the demo-collection controller: the low-gain replay
    # condition
    "low": GainProfile(100.0, 20.0, 180.0, 26.8),
}


def gain_profile(name: str) -> GainProfile:
    try:
        return GAIN_PRESETS[name]
    except KeyError:
        raise InvalidInputError(f"unknown gain preset {name!r}") from None


class ReferenceTrack:
    """Timed pose waypoints with spline position and per-waypoint twists.

    A track is the one-reference case of ``reference_tracks``: the same
    validation and the same spline fit.
    """

    def __init__(self, times, positions, orientations, grippers=None):
        _build([self], times, np.asarray(positions, dtype=float)[None],
               np.asarray(orientations, dtype=float)[None],
               None if grippers is None
               else np.asarray(grippers, dtype=float)[None])

    @functools.cached_property
    def _slerp_segments(self):
        """The slerp table of the waypoints, built when first sampled: an
        identity track samples without it, except at a NaN time."""
        return _slerp_table(self.orientations)

    def sample(self, times):
        """Reference arrays at arbitrary times, clamped to the track span.

        Returns (pos, vel, quat, angvel, grip) arrays; beyond the span the
        endpoint pose is held with zero velocity.
        """
        pos, vel, grip, seg, frac, outside = _sample_moves(self, times)
        # identity waypoints slerp to identity rows (see _identity_tracks),
        # but a NaN time to a NaN row
        if self._identity and not np.isnan(frac).any():
            quat = np.zeros((len(frac), 4))
            quat[:, 0] = 1.0
        else:
            quat = _slerp(self._slerp_segments, seg, frac)
        angvel = self._seg_angvel[seg]
        angvel[outside] = 0.0
        return pos, vel, quat, angvel, grip

    def pose_at(self, t: float) -> Pose:
        pos, _, quat, _, _ = self.sample(np.array([t]))
        return Pose(pos[0], quat[0])


def reference_tracks(times, positions, orientations, grippers=None):
    """ReferenceTracks on the shared knot times ``times``: track j of the
    (B, n, 3) ``positions``, (B, n, 4) ``orientations`` and (B, n)
    ``grippers`` (all 0.0 if None).

    Each track has the bits of ``ReferenceTrack`` built alone on row j of
    each array, and the arrays are validated in one pass: an invalid batch
    raises the error that the first failing reference would raise in a
    loop. The splines of all B references are one ``_natural_spline`` fit,
    of which each track's coefficients are a slice, and a
    ``_ReferenceGroup`` of all B tracks, in order, takes its arrays as
    views of that fit.
    """
    positions = np.asarray(positions, dtype=float)
    tracks = [ReferenceTrack.__new__(ReferenceTrack)
              for _ in range(len(positions))]
    _build(tracks, times, positions, np.asarray(orientations, dtype=float),
           None if grippers is None else np.asarray(grippers, dtype=float))
    return tracks


def _grouped_tracks(waypoints) -> tuple[list, SailxError | None]:
    """One ReferenceTrack per waypoints (times, positions, orientations,
    grippers) of ``waypoints``, in order, fitted with one
    ``reference_tracks`` call per group of equal knot times, and None; or,
    where a reference is invalid, the tracks before the first invalid one
    and the error it raises, each built alone once."""
    groups = {}
    for i, (times, *_) in enumerate(waypoints):
        groups.setdefault(times.tobytes(), []).append(i)
    tracks = [None] * len(waypoints)
    try:
        for rows in groups.values():
            stacked = [np.stack([waypoints[i][k] for i in rows])
                       for k in (1, 2, 3)]
            for i, track in zip(rows, reference_tracks(waypoints[rows[0]][0],
                                                       *stacked)):
                tracks[i] = track
    except ValueError:
        # the group's first failing reference need not be the first of all
        tracks = []
        for w in waypoints:
            try:
                tracks.append(ReferenceTrack(*w))
            except SailxError as error:
                return tracks, error
    return tracks, None


def _build(tracks, times, positions, orientations, grippers):
    """Validate and fit the stacked waypoints of ``tracks`` on the knot
    times ``times``, and set each track's attributes to its row."""
    times = np.asarray(times, dtype=float)
    count = len(tracks)
    n = len(times)
    if n < 2:
        raise InvalidInputError("a reference needs at least 2 waypoints")
    if not np.isfinite(times).all():
        raise InvalidInputError("waypoint times must be finite")
    seg_dt = times[1:] - times[:-1]
    if (seg_dt <= 0).any():
        raise InvalidInputError("waypoint times must be strictly increasing")
    if times.shape != (n,):
        raise InvalidInputError(f"times must have shape {(n,)}, "
                                f"got {times.shape}")
    if grippers is None:
        grippers = np.zeros((count, n))
    for name, array, shape in (("positions", positions, (n, 3)),
                               ("orientations", orientations, (n, 4)),
                               ("grippers", grippers, (n,))):
        if len(array) != count:
            raise InvalidInputError(f"{name} stack {len(array)} references, "
                                    f"not {count}")
        if array.shape[1:] != shape:
            raise InvalidInputError(f"{name} must have shape {shape}, "
                                    f"got {array.shape[1:]}")
    identity, at_rest = _identity_tracks(orientations)
    invalid = _first_invalid(positions, orientations, grippers,
                             at_rest.all())
    valid = count if invalid is None else invalid[0]
    # a reference before the first invalid one may overflow the spline,
    # which a loop would have raised first
    if n == 2:
        # the line through both waypoints: its start and its slope
        slopes = (positions[:valid, 1] - positions[:valid, 0]) / seg_dt[0]
    elif valid:
        # coordinate by coordinate: column k * B + j is coordinate k of
        # reference j, the layout of a _ReferenceGroup
        coefficients = _natural_spline(
            times, positions[:valid].transpose(1, 2, 0).reshape(n, -1))
    if invalid is not None:
        raise InvalidInputError(invalid[1])
    # the fit's arrays, of which a _ReferenceGroup of all its tracks takes
    # views: the spline's coefficients or the lines' starts and slopes, and
    # the grippers
    fit = (count, (positions[:, 0], slopes) if n == 2 else coefficients,
           grippers)
    for j, track in enumerate(tracks):
        track.times = times
        track.positions = positions[j]
        track.orientations = orientations[j]
        track.grippers = grippers[j]
        if n == 2:
            track._spline = None
            track._line = (positions[j, 0], slopes[j])
        else:
            track._spline = PPoly.construct_fast(
                coefficients if count == 1
                else coefficients[:, :, j::count], times)
        track._fit = (fit, j)
        track._seg_dt = seg_dt
        track._identity = bool(identity[j])
        # angular rate per segment, world frame: +0.0 between identity
        # waypoints whose zeros are all +0.0 (tests/test_reference.py checks
        # this against _segment_rates for every sign)
        track._seg_angvel = (np.zeros((n - 1, 3)) if at_rest[j]
                             else _segment_rates(times, orientations[j]))


def _first_invalid(positions, orientations, grippers, identity):
    """(j, message) for the first reference j whose waypoints are not
    finite or have an all-zero orientation, with the message of its first
    failing check; None if every reference passes. ``identity`` tells that
    every orientation is IDENTITY_QUAT, and so passes."""
    if (np.isfinite(positions).all() and np.isfinite(grippers).all()
            and (identity or (np.isfinite(orientations).all()
                              and (orientations != 0.0).any(axis=2).all()))):
        return None
    failing = np.array([~np.isfinite(positions).all(axis=(1, 2)),
                        ~np.isfinite(orientations).all(axis=(1, 2)),
                        ~np.isfinite(grippers).all(axis=1),
                        ~(orientations != 0.0).any(axis=2).all(axis=1)])
    j = int(np.flatnonzero(failing.any(axis=0))[0])
    return j, ("positions must be finite", "orientations must be finite",
               "grippers must be finite",
               "orientations must not be all zero")[int(
                   np.argmax(failing[:, j]))]


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


def _natural_spline(x, y) -> np.ndarray:
    """The (4, n - 1, m) PPoly coefficients of the natural cubic spline
    through the rows of the (n, m) y at the knots x.

    These are the steps of scipy's ``CubicSpline(x, y, bc_type="natural")``
    in its operation order, without its input checks and set-up: the
    banded system for the knot slopes with zero second derivatives at both
    ends, the LAPACK ``gtsv`` call its ``solve_banded`` makes, and the
    Hermite coefficients. Every column is solved on its own by the same
    elimination, so a column has the bits of a fit of that column alone,
    or of any set of columns that holds it. Knot slopes that overflow raise
    InvalidInputError, where CubicSpline raised ValueError; finite slopes
    with overflowing coefficients build, as they did, and fault in the
    plant.
    """
    n = len(x)
    dx = x[1:] - x[:-1]
    dxr = dx[:, None]
    slope = (y[1:] - y[:-1]) / dxr
    A = np.zeros((3, n))
    # Fortran order, which gtsv overwrites without a copy
    b = np.empty(y.shape, order="F")
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
    c = np.empty((4,) + t.shape)
    np.divide(t, dxr, out=c[0])
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dxr
    c[1] -= t
    c[2] = s[:-1]
    c[3] = y[:-1]
    return c


def _slerp_table(quats):
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


def _identity_tracks(quats):
    """Per reference of the stacked (B, n, 4) ``quats``: whether every row
    has w == 1.0 and a zero vector part, zeros of either sign, and whether
    every row has the bits of IDENTITY_QUAT, its zeros all +0.0.

    A slerp at s >= 0 along such rows gives (1, +0.0, +0.0, +0.0): the dot
    is 1, so the angle arccos(1) = 0 takes the lerp a + s (b - a), whose
    vector part is a sum of two zeros that are not both -0.0 (b - a is
    -0.0 only where a is +0.0), and the norm is 1.
    """
    exact = (quats.view(np.uint64) == _IDENTITY_BITS).all(axis=(1, 2))
    if exact.all():  # the usual case, at one comparison
        return exact, exact
    return (quats == IDENTITY_QUAT).all(axis=(1, 2)), exact


_IDENTITY_BITS = IDENTITY_QUAT.view(np.uint64)


def _slerp(segments, seg, s):
    """Shortest-arc slerp along segments ``seg`` at fractions s.

    ``segments`` is ``_slerp_table(quats)``. Row by row this takes the
    branches of a scalar slerp from a to b in the same operation order: b
    is negated when dot(a, b) < 0, the dot is clamped at 1, angles below
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
    i = np.flatnonzero(arc[seg])  # the rows on an arc
    if len(i):
        k = seg[i]
        th = theta[k][:, None]
        sa = s[i]
        st = np.sin(th)
        out[i] = (np.sin((1.0 - sa) * th) / st * a[k]
                  + np.sin(sa * th) / st * b[k])
    # adds the 4 values left to right
    norm = np.sqrt(np.sum(out * out, axis=1))
    out /= norm[:, None]
    np.negative(out, out=out, where=out[:, :1] < 0.0)
    return out


def _sample_moves(track, times):
    """The spline and gripper part of a sample of ``track``, a
    ReferenceTrack or a _ReferenceGroup: (pos, vel, grip) at ``times``,
    with the segment, the fraction into it and the outside-the-span mask of
    each time."""
    t = np.asarray(times, dtype=float)
    knots = track.times
    tc = np.clip(t, knots[0], knots[-1])
    if track._spline is None:
        start, slope = track._line
        pos = start + np.multiply.outer(tc - knots[0], slope)
        vel = np.repeat(slope[None], len(t), axis=0)
    else:
        pos = track._spline(tc)
        vel = track._spline(tc, 1)
    outside = (t < knots[0]) | (t > knots[-1])
    vel[outside] = 0.0

    # tc >= knots[0], so the segment is at least 0, and a step to the
    # next waypoint's gripper at frac >= 1 stays within the waypoints
    seg = np.searchsorted(knots, tc, side="right") - 1
    np.minimum(seg, len(knots) - 2, out=seg)
    frac = (tc - knots[seg]) / track._seg_dt[seg]
    grip = track.grippers[seg + (frac >= 1.0)]
    return pos, vel, grip, seg, frac, outside


class _ReferenceGroup:
    """ReferenceTracks on one knot grid, stacked on a trailing column axis.

    It holds what ``_sample_moves`` reads of a ReferenceTrack, reference
    j's arrays as column j, so that one ``_sample_moves`` call samples the
    positions, velocities and grippers of them all. Each column has the
    bits of that reference's ``sample``: scipy's PPoly evaluates every
    trailing element of its coefficients by the same routine, and the rest
    is elementwise or shared by the grid. References that are one whole
    ``reference_tracks`` fit, in its order, are held as views of the fit's
    arrays; others are stacked.
    """

    def __init__(self, refs):
        first = refs[0]
        self.times = first.times
        self._seg_dt = first._seg_dt
        fit = first._fit[0]
        count, moves, grippers = fit
        whole = len(refs) == count and all(
            r._fit[0] is fit and r._fit[1] == j for j, r in enumerate(refs))
        if first._spline is not None:
            self._spline = PPoly.construct_fast(
                moves.reshape(moves.shape[:2] + (3, count)) if whole
                else _stack([r._spline.c for r in refs]), first.times)
        else:
            self._spline = None
            self._line = (tuple(a.T for a in moves) if whole else
                          tuple(map(_stack, zip(*(r._line for r in refs)))))
        self.grippers = (grippers.T if whole
                         else _stack([r.grippers for r in refs]))


def _stack(arrays):
    return np.stack(arrays, axis=-1)


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


TRACE_STRIDE = 10  # physics steps per logged sample (2 ms -> 50 Hz)


def sample_trace(trace):
    """The 50 Hz log of one tracked stretch, and its grasp/release events.

    Returns a dict of the RolloutLog sample arrays (times, positions,
    orientations, ref_positions, ref_orientations, e_pos, e_ori), taken every
    TRACE_STRIDE physics steps, and the (time, tag) events of every step.
    The arrays are copies, so the per-step trace can be freed.
    """
    samples = {name: getattr(trace, name)[::TRACE_STRIDE].copy()
               for name in ("times", "positions", "orientations",
                            "ref_positions", "ref_orientations", "e_pos",
                            "e_ori")}
    events = [(float(trace.times[i]),
               "grasp" if trace.events[i] > 0 else "release")
              for i in np.nonzero(trace.events)[0]]
    return samples, events


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


def track_slices(state, ref: ReferenceTrack, gains: GainProfile, untils):
    """Track ``ref`` from the packed plant ``state`` to each of ``untils``.

    The slices compose as one ``track_loop`` run per time in ``untils``
    would: slice k runs n_k = round((until_k - t_k) / PHYSICS_DT) physics
    steps at the times t_k + PHYSICS_DT * (1, ..., n_k), where t_k is the
    plant clock
    after slice k - 1, advanced by the same sequential additions that
    ``track_loop`` makes; a slice with n_k <= 0 runs no step. The reference
    is sampled once for all slices, and ``state`` is updated in place. A
    generator: it yields each slice's TrackTrace once ``state`` has reached
    the end of the slice, and the caller may change ``state`` before the
    next slice runs.
    """
    dt = PHYSICS_DT
    slices = [_step_times(t, dt, n)
              for t, n in _slice_steps(float(state[TIME]), untils, dt)]
    times = np.concatenate(slices)
    total = len(times)
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
                               gains.kp_ori, gains.kv_ori, dt, GRIPPER_SLEW,
                               GRASP_RADIUS, out_pos[s], out_quat[s],
                               out_epos[s], out_eori[s], out_events[s])
            if fault >= 0:
                raise SimFault(
                    f"non-finite wrench at t={step_times[fault]:.4f}")
        yield TrackTrace(step_times, out_pos[s], out_quat[s], out_epos[s],
                         out_eori[s], out_events[s], pos[s], quat[s])
        start = end


# Row-steps per reference block of a lockstep batch: a block holds
# REST_ROWS floats per row and step (0.46 MB), whatever the batch's width,
# and costs one sample call per subgroup and one at-rest call. Timed on
# rest-form blocks and the 8-call step, 2-core x86-64 VM, a replay-open-loop
# pass (24 columns) and a 50-demo corpus build (50): best of 5 passes and
# of 3 builds in a fresh process, medians of 12 processes per size in
# rotating order, in ms; the corpus row since its at-rest calls run through
# slice ends:
#
#     row-steps            1,536   3,072   4,096   6,144   8,192
#     replay pass           26.9    28.5    23.4    23.7    23.6
#     corpus build          59.9    52.9    51.2    51.0    52.1
#
# Fewer calls pay for the per-call costs: the at-rest check of the state,
# the history set-up, the carried poses and a sample call per subgroup.
LOCKSTEP_BLOCK = 8192
# Columns per lockstep run in its two callers, scheduler.run_rollouts (every
# rollout, replay and diagnostics trial) and the corpus build
# (io.generate_demos), which bounds the reference tracks a caller holds at
# once and their stacked copy: about 55 kB a column at 115 waypoints. Wider
# runs step fewer times per row: the 800-replay noise sweep took 3.3 s at 64
# columns and 2.4 s at 128, at twice the peak memory (3.7 against 7.2 MB
# under tracemalloc).
LOCKSTEP_MAX_ROWS = 64
# Batches of fewer columns run row by row on track_loop, as do turning or
# off-rest batches. Timed on whole replay cells of B replays on one time
# grid, both plants at rest, the scalar one before its at-rest and full
# step loops became one (its at-rest step now costs ~0.1 us more), the
# batched one on rest-form blocks (2-core x86-64 VM, numpy 2.4, c = 1, 0.5,
# 0.33 and 0.2, medians of 7 alternated runs), row by row was faster in
# all 4 cells at B = 4 (lockstep took 1.02-1.07x its time) and lockstep in
# all 4 at B = 5 (0.86-0.93x), at B = 6 (0.58-0.70x), at B = 7
# (0.56-0.65x), at B = 8 (0.44-0.65x) and at B = 12 (0.35-0.54x). A
# scheduler.run_rollouts cycle of fewer live rows (rollouts, replays or
# diagnostics trials) runs them row by row, and
# experiments.run_method_rollouts a request of fewer rollouts one by one.
# perfbench/test_perfbench.py requires kernels.track_loop steps in a traced
# replay-open-loop pass of 6 rows and a traced ood-diagnose pass of 3 trials,
# and run_rollout calls and one unconditional draw per replan in a traced
# closed-loop-sail pass of 3 rollouts, which holds only while all three run
# row by row: perfbench binds only the scalar track_loop and the
# single-rollout entry, so the threshold stays at 7, two rows above the
# measured break-even.
LOCKSTEP_MIN_ROWS = 7


class _Subgroup:
    """The columns of a lockstep batch on one knot grid and one slice grid:
    their references stacked, their step times and the steps at which each
    of their slices ends."""

    def __init__(self, rows, refs, grid, dt):
        self.rows = np.array(rows)
        self.refs = refs
        self.group = _ReferenceGroup([refs[r] for r in rows])
        self.steps = [n for _, n in grid]
        self.ends = list(itertools.accumulate(self.steps))
        self.times = np.concatenate([_step_times(t, dt, n) for t, n in grid])
        self.k = 0  # the next slice to end

    def drop(self, rows):
        """Take ``rows`` out of the subgroup."""
        self.rows = self.rows[~np.isin(self.rows, rows)]
        if len(self.rows):
            self.group = _ReferenceGroup([self.refs[r] for r in self.rows])


def track_lockstep(states, refs, gains, untils, traces=None):
    """Track column r of the (30, B) ``states`` along ``refs[r]``.

    Every column starts on one plant clock, states[TIME]; a call whose
    columns start on two raises InvalidInputError before any step. Column r
    runs ``track_slices``'s slices to each time in ``untils[r]`` under
    ``gains[r]``, with the same bits. The plant is picked once, from the
    inputs: a batch of at least LOCKSTEP_MIN_ROWS columns whose references
    all have identity waypoints and whose robots all start at rest (see
    ``kernels``) steps in lockstep on ``kernels._track_at_rest``, one
    rest-form block of LOCKSTEP_BLOCK row-steps of reference at a time.
    Each at-rest call runs to the end of its block or to the end of a
    column's last slice, whichever comes first, through the slice ends
    between, at which it reports every column's state. Its columns on equal
    knot times and equal slices form a subgroup, whose references one
    ``_ReferenceGroup`` samples together into the subgroup's columns of
    each block, at the times ``track_slices`` uses: those are built from
    each slice's start clock, so columns on other slices would step at
    other times. A column leaves the batch after its last slice. Any other
    batch, turning or off rest or of fewer columns, runs column by column
    through ``track_slices``. No per-step trace is kept, but a traced call
    samples one (below). Its callers, ``scheduler.run_rollouts`` and the
    corpus build, pass at most LOCKSTEP_MAX_ROWS columns at a time.

    A generator: after slice k of a subgroup it yields (columns, k, n_k)
    with those columns' states at the end of the slice in ``states``. The
    caller may read them, and may renormalise their poses with
    ``sim.normalise_poses``; a run passes a slice end only while that
    leaves every column as it is (every robot, object and relative
    orientation at the identity), and stops at each otherwise, so that the
    change takes effect. No other change to ``states`` between two slices
    is allowed. A column whose wrench turns non-finite stops there. Once
    every column is done, the ``SimFault`` of the first such column is
    raised, as a loop over the columns would raise it, with the column
    index in its ``row``.

    ``traces``, a list of B entries, asks for what ``sample_trace`` makes
    of each column's ``track_slices`` trace: before the slice of column r
    is yielded, ``traces[r]`` is set to its (samples, events). A traced
    call takes one slice per column. The lockstep run reads the samples
    from its at-rest calls' history after their loops (see
    ``kernels._track_at_rest``).
    """
    clocks = len(np.unique(states[TIME]))
    if clocks > 1:
        raise InvalidInputError(
            f"lockstep columns start on {clocks} plant clocks; a call "
            "takes columns on one start clock")
    if traces is not None and any(len(u) != 1 for u in untils):
        raise InvalidInputError("a traced lockstep call takes one slice "
                                "per column")
    faults = {}
    if (states.shape[1] >= LOCKSTEP_MIN_ROWS
            and all(ref._identity for ref in refs)
            and (states[3] == 1.0).all() and _positive_zero(states[_SPIN])):
        yield from _track_batch(states, refs, gains, untils, faults, traces)
    else:
        for r in range(states.shape[1]):
            state = states[:, r].copy()
            try:
                for k, trace in enumerate(track_slices(
                        state, refs[r], gains[r], untils[r])):
                    states[:, r] = state
                    if traces is not None:
                        traces[r] = sample_trace(trace)
                    yield np.array([r]), k, len(trace.times)
                    state[:] = states[:, r]
            except SimFault as fault:
                states[:, r] = state
                faults[r] = fault
    if faults:
        row = min(faults)
        fault = faults[row]
        fault.row = row
        raise fault


def _track_batch(states, refs, gains, untils, faults, traces):
    """``track_lockstep``'s lockstep run of every column of ``states``,
    robots at rest on references with identity waypoints; faults go to
    ``faults`` by column, and the samples of a traced run to ``traces``.

    Each at-rest call runs from ``start`` to ``end``, where the first
    column to finish ends its last slice, or to the end of its block before
    that, and marks every slice end it passes, a block end among them, so
    that the slices ending there are yielded from its report. Where a
    column's pose is off the identity, ``end`` is the next slice end of any
    column instead, and the caller's changes there are read back before
    the next call. A call in which a column faults runs again up to the
    first step that faults, as ``track_slices`` runs each column up to its
    fault, and the columns that fault there stop; the others run on.
    """
    dt = PHYSICS_DT
    t0 = float(states[TIME, 0])
    gain_rows = np.array([[g.kp_pos, g.kv_pos] for g in gains]).T
    grids, members = {}, {}
    for r in range(states.shape[1]):
        key = tuple(untils[r])
        if key not in grids:
            grids[key] = tuple(_slice_steps(t0, key, dt))
        members.setdefault((refs[r].times.tobytes(), grids[key]),
                           []).append(r)
    subs = [_Subgroup(sub_rows, refs, grid, dt)
            for (_, grid), sub_rows in members.items()]
    stretches = None if traces is None else _Stretches(traces, subs)
    # the columns in subgroup order, so that each subgroup's columns of a
    # block are one slice of it
    live = np.concatenate([s.rows for s in subs])
    state = states[:, live]
    # Identity references give rest-form blocks: the step times are finite
    # (_slice_steps fails on a clock that is not), so their orientations are
    # the identity and their rates zero.
    block = np.empty((0, REST_ROWS, len(live)))
    block_start = start = 0
    while True:
        if any(s.ends[s.k] == start for s in subs):
            states[:, live] = state
            yield from _slices_ending(subs, start, stretches)
            subs = [s for s in subs if s.k < len(s.ends)]
            state = states[:, live]
        if not subs:
            return
        remaining = np.concatenate([s.rows for s in subs])
        if len(remaining) < len(live):
            keep = np.isin(live, remaining)
            live, state = live[keep], state[:, keep]
            block = block[start - block_start:, :, keep]
            block_start = start
        # a call runs through slice ends to a column's last, unless a
        # caller may need to renormalise a pose at each slice end
        if _identity_poses(state):
            end = min(s.ends[-1] for s in subs)
        else:
            end = min(s.ends[s.k] for s in subs)
        while start < end:
            if start == block_start + len(block):
                # drop the spent block before sampling the next one
                block_start, block = start, None
                steps = max(1, LOCKSTEP_BLOCK // len(live))
                last = max(s.ends[-1] for s in subs)
                block = _sample_block(subs, start, min(steps, last - start),
                                      len(live))
            stop = min(end, block_start + len(block))
            # the slice ends the call passes, a block end among them, in
            # steps from its start; one at ``end`` is yielded at the top
            marks = sorted({e - start for s in subs for e in s.ends[s.k:]
                            if start < e <= stop and e < end})
            report = np.empty((len(marks),) + state.shape)
            fault = None
            while True:
                sampled = (None if stretches is None
                           else _Stretches.sampled(start, stop))
                rest = _track_at_rest(state, block[start - block_start:
                                                   stop - block_start],
                                      *gain_rows[:, live], dt, GRIPPER_SLEW,
                                      GRASP_RADIUS, marks,
                                      report[:len(marks)], sampled)
                if not isinstance(rest, RestFault):
                    break
                # run again up to the first faulting step, before which
                # no column faults
                fault = rest
                stop = start + fault.step
                marks = [m for m in marks if m <= fault.step]
            if stretches is not None:
                stretches.add_rest(live, start, state, rest)
            for mark, after in zip(marks, report):
                states[:, live] = after
                yield from _slices_ending(subs, start + mark, stretches)
            start = stop
            if fault is not None:
                # the faulted columns leave at the next pass of the loop
                states[:, live] = state
                for s in subs:
                    hit = s.rows[np.isin(s.rows, live[fault.columns])]
                    for r in hit:
                        faults[r] = SimFault(
                            f"non-finite wrench at t={s.times[start]:.4f}")
                    if len(hit):
                        s.drop(hit)
                subs = [s for s in subs if len(s.rows)]
                break


def _slices_ending(subs, step, stretches=None):
    """Yield (columns, k, n_k) for every slice of ``subs`` that ends at
    ``step``, subgroup by subgroup, and count it done; ``stretches`` first
    hands the columns of a traced run their samples."""
    for s in subs:
        while s.k < len(s.ends) and s.ends[s.k] == step:
            if stretches is not None:
                stretches.finish(s.rows, s.times)
            yield s.rows, s.k, s.steps[s.k]
            s.k += 1


class _Stretches:
    """The samples of a traced lockstep run, gathered call by call: for
    every column, a row of ``FIELDS`` per TRACE_STRIDE-th step of its one
    slice, and its (step, +1 or -1) events, steps counted from the run's
    start."""

    FIELDS = {"positions": slice(0, 3), "orientations": slice(3, 7),
              "ref_positions": slice(7, 10),
              "ref_orientations": slice(10, 14), "e_pos": 14, "e_ori": 15}

    def __init__(self, traces, subs):
        self.traces = traces
        most = max(s.steps[0] for s in subs)
        self.rows = np.empty((len(traces), -(-most // TRACE_STRIDE), 16))
        self.events = [[] for _ in traces]

    @staticmethod
    def sampled(start, stop):
        """The sampled steps of the run in [start, stop), from start."""
        return np.arange(-start % TRACE_STRIDE, stop - start, TRACE_STRIDE)

    def add_rest(self, live, start, state, rest):
        """Record the kernels.RestTrace ``rest`` of an at-rest call from
        step ``start`` on the columns ``live``, whose (30, len(live))
        ``state`` kept its orientations through the call."""
        a = -(-start // TRACE_STRIDE)
        b = a + len(rest.e_pos)
        rows = self.rows
        e_ori = np.empty(len(live))
        # the reference orientation of a rest-form block is the identity
        _orientation_errors(IDENTITY_QUAT[:, None], state[3:7], e_ori)
        rows[live, a:b, 0:3] = rest.positions.transpose(2, 0, 1)
        rows[live, a:b, 3:7] = state[3:7].T[:, None]
        rows[live, a:b, 7:10] = rest.ref_positions.transpose(2, 0, 1)
        rows[live, a:b, 10:14] = IDENTITY_QUAT
        rows[live, a:b, 14] = rest.e_pos.T
        rows[live, a:b, 15] = e_ori[:, None]
        for i, j, code in rest.events:
            self.events[live[j]].append((start + i, code))

    def finish(self, columns, times):
        """Set ``traces`` of the ``columns`` whose slice, of step times
        ``times``, has ended."""
        sampled = times[::TRACE_STRIDE]
        for r in columns:
            rows = self.rows[r, :len(sampled)]
            self.traces[r] = (
                {"times": sampled.copy(),
                 **{name: rows[:, k].copy()
                    for name, k in self.FIELDS.items()}},
                [(float(times[i]), "grasp" if code > 0 else "release")
                 for i, code in self.events[r]])


# the state rows of the w and of the vector parts of the robot's, the
# object's and the relative orientation
_W_ROWS = [3, 17, 25]
_VECTOR_ROWS = [4, 5, 6, 18, 19, 20, 26, 27, 28]


def _identity_poses(state):
    """Whether every column's robot, object and relative orientation have
    w == 1.0 and a zero vector part, zeros of either sign.

    A call at rest keeps them so: the robot's stays (1, +0.0, +0.0, +0.0),
    and a grasp or a carried pose multiplies and normalises two such
    quaternions into a third. So ``sim.normalise_poses`` leaves each column
    as it is at every slice end of the call.
    """
    return bool((state[_W_ROWS] == 1.0).all()) and not state[
        _VECTOR_ROWS].any()


def _sample_block(subs, start, steps, width):
    """A (steps, REST_ROWS, width) rest-form block of [grip; pos; vel]
    reference rows from step ``start`` on: each _Subgroup of ``subs``
    samples its columns, in order; the steps past a subgroup's last are
    left unset."""
    block = np.empty((steps, REST_ROWS, width))
    column = 0
    for s in subs:
        times = s.times[start:start + steps]
        pos, vel, grip, *_ = _sample_moves(s.group, times)
        out = block[:len(times), :, column:column + len(s.rows)]
        out[:, 0] = grip
        out[:, 1:4] = pos
        out[:, 4:] = vel
        column += len(s.rows)
    return block


def track(state, ref: ReferenceTrack, gains: GainProfile,
          until: float) -> TrackTrace:
    """Run the inner control loop at PHYSICS_DT until ``until``.

    The packed plant ``state`` advances in place, and a stretch that took a
    step ends in ``sim.normalise_poses``.
    """
    trace, = track_slices(state, ref, gains, (until,))
    if len(trace.times):
        normalise_poses(state)
    return trace
