"""Reference demo generation: the per-step generator ``sailx.io`` replaced.

``generate_demos`` here calls ``controller.track`` once per demo step, each
call ending with both poses renormalised, and ``_nominal_trajectory``
evaluates the scripted path one time at a time. Both are kept so tests can
require ``sailx.io.generate_demos`` to reproduce them bit for bit.
"""

import numpy as np

from sailx.controller import ReferenceTrack, gain_profile, track
from sailx.core import IDENTITY_QUAT, Pose
from sailx.errors import GenerationError, InvalidInputError
from sailx.io import _GRIP_OFFSET, Demonstration, _scripted_path, _smoothstep
from sailx.sim import TaskSpec, initial_world, success
from sailx.speedmod import gripper_event_flags, label_critical


def _nominal_trajectory(segments, home_pos, dt: float):
    """Sample the piecewise path at ``dt``; returns (times, pos, grip).

    The gripper closes _GRIP_OFFSET into the grasp dwell and opens
    _GRIP_OFFSET into the place dwell.
    """
    knots_t = [0.0]
    knots_p = [np.asarray(home_pos, dtype=float)]
    eased = []
    for dur, target, ease in segments:
        knots_t.append(knots_t[-1] + dur)
        knots_p.append(np.asarray(target, dtype=float))
        eased.append(ease)
    total = knots_t[-1]
    t_close = knots_t[2] + _GRIP_OFFSET   # into the grasp dwell
    t_open = knots_t[6] + _GRIP_OFFSET    # into the place dwell
    n = int(round(total / dt)) + 1
    times = np.arange(n) * dt

    positions = np.empty((n, 3))
    for i, t in enumerate(times):
        t = min(max(t, 0.0), total)
        seg = min(int(np.searchsorted(knots_t, t, side="right") - 1),
                  len(knots_t) - 2)
        s = (t - knots_t[seg]) / (knots_t[seg + 1] - knots_t[seg])
        w = _smoothstep(s) if eased[seg] else s
        positions[i] = (1.0 - w) * knots_p[seg] + w * knots_p[seg + 1]
    grips = ((times >= t_close) & (times < t_open)).astype(float)
    return times, positions, grips


def generate_demos(task: TaskSpec, n: int = 50, seed: int = 0,
                   dt: float = 0.05, lead: float = 0.25,
                   jitter: float = 0.001, scatter: float = 0.05,
                   home_height: float = 0.20,
                   gains: str = "real-demo") -> list:
    """Scripted teleoperation through the low-gain simulator.

    Each demo randomizes the object start within a ``scatter`` box in x/y.
    The operator model anticipates the sluggish arm by commanding the pose
    stream ``lead`` seconds ahead (with per-step hand ``jitter``), so the
    reached trace is the smooth, roughly lag-cancelled closed-loop response;
    gripper toggles are issued at nominal (unled) timing, when the operator
    sees the arm settled. Both streams are logged at ``dt``.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1 demos")
    profile = gain_profile(gains)
    rng = np.random.default_rng(seed)
    demos = []
    for d in range(n):
        offset = np.concatenate([rng.uniform(-scatter, scatter, size=2),
                                 [0.0]])
        obj_pos = task.object_start.position + offset
        obj_pose = Pose(obj_pos, task.object_start.orientation)
        demo_task = TaskSpec(obj_pose, task.goal_position)
        home = np.concatenate([obj_pos[:2], [obj_pos[2] + home_height]])
        segments = _scripted_path(obj_pos, np.asarray(task.goal_position),
                                  home)
        times, nominal, grips = _nominal_trajectory(segments, home, dt)
        n_steps = len(times)

        # teleoperator: lead the pose stream, keep gripper at nominal timing
        lead_steps = int(round(lead / dt))
        src = np.minimum(np.arange(n_steps) + lead_steps, n_steps - 1)
        commanded_pos = nominal[src].copy()
        if jitter > 0:
            commanded_pos += rng.normal(0.0, jitter, size=commanded_pos.shape)
        commanded_grip = grips.copy()
        quat = np.tile(IDENTITY_QUAT, (n_steps, 1))

        ref = ReferenceTrack(times, commanded_pos, quat,
                             grippers=commanded_grip)
        state = initial_world(Pose(home), demo_task)
        reached = np.empty((n_steps, 7))
        objects = np.empty((n_steps, 7))
        reached[0] = np.concatenate([home, IDENTITY_QUAT])
        objects[0] = np.concatenate([obj_pos,
                                     task.object_start.orientation])
        for i in range(1, n_steps):
            track(state, ref, profile, until=times[i])
            reached[i] = state[0:7]
            objects[i] = state[14:21]
        if not success(state, demo_task):
            raise GenerationError(
                f"scripted demo {d} failed the task predicate")

        flags = label_critical(commanded_pos)
        flags = np.maximum(flags, gripper_event_flags(commanded_grip))
        demos.append(Demonstration(
            dt=dt, commanded=np.hstack([commanded_pos, quat]),
            reached=reached, grippers=commanded_grip, k=flags,
            objects=objects,
            object_start=np.concatenate([obj_pos,
                                         task.object_start.orientation]),
            goal=np.asarray(task.goal_position, dtype=float)))
    return demos

