"""Demonstration/rollout persistence and synthetic demo generation.

Files are line-delimited JSON: a header line carrying the format version
("sailx-v1") and per-file metadata, followed by one record per line. Poses
serialize as 7 numbers (px, py, pz, qw, qx, qy, qz). Readers reject the
non-standard JSON constants NaN and Infinity with the offending line, and a
rollout file reads back as the ``scheduler.RolloutLog`` it was written from.

Demonstrations are produced by a scripted teleoperator executed through the
simulator with the low-gain profile, so commanded and reached poses genuinely
differ: the script leads the nominal path by ``lead`` seconds (the way an
operator anticipates a sluggish arm), and the logged reached trace is the
smooth, lagged closed-loop response.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .controller import (LOCKSTEP_MAX_ROWS, ReferenceTrack, gain_profile,
                         track_lockstep)
from .controller import track  # noqa: F401 (perfbench wraps sailx.io.track)
from .core import IDENTITY_QUAT, Pose
from .errors import (FormatError, GenerationError, InvalidInputError,
                     ParseError, SimFault)
from .scheduler import RolloutLog
from .sim import (DynamicsParams, TaskSpec, WorldState, initial_world,
                  success)
from .speedmod import gripper_event_flags, label_critical

FORMAT_VERSION = "sailx-v1"


# ---------------------------------------------------------------------------
# demonstrations

@dataclass
class Demonstration:
    """A teleoperated trajectory sampled at a fixed interval ``dt``."""

    dt: float
    commanded: np.ndarray   # (N, 7) pose rows
    reached: np.ndarray     # (N, 7)
    grippers: np.ndarray    # (N,)
    k: np.ndarray           # (N,) critical flags
    objects: np.ndarray     # (N, 7) object pose rows
    object_start: np.ndarray = field(default=None)  # (7,)
    goal: np.ndarray = field(default=None)           # (3,)

    def __post_init__(self):
        self.commanded = np.asarray(self.commanded, dtype=float)
        self.reached = np.asarray(self.reached, dtype=float)
        self.grippers = np.asarray(self.grippers, dtype=float)
        self.k = np.asarray(self.k, dtype=np.int8)
        self.objects = np.asarray(self.objects, dtype=float)
        if self.object_start is None:
            self.object_start = self.objects[0].copy()
        if self.goal is None:
            self.goal = self.objects[-1, :3].copy()
        n = len(self.commanded)
        for name in ("reached", "grippers", "k", "objects"):
            if len(getattr(self, name)) != n:
                raise InvalidInputError(f"demo field {name} length mismatch")

    def __len__(self) -> int:
        return len(self.commanded)

    @property
    def duration(self) -> float:
        return (len(self) - 1) * self.dt


def _pose7(p) -> list:
    return [float(x) for x in np.asarray(p, dtype=float)]


def write_demo(demo: Demonstration, path: str) -> None:
    with open(path, "w") as fh:
        header = {"format": FORMAT_VERSION, "kind": "demo", "dt": demo.dt,
                  "object_start": _pose7(demo.object_start),
                  "goal": _pose7(demo.goal), "n": len(demo)}
        fh.write(json.dumps(header) + "\n")
        for i in range(len(demo)):
            rec = {"step": i, "time": float(i * demo.dt),
                   "cmd": _pose7(demo.commanded[i]),
                   "reached": _pose7(demo.reached[i]),
                   "grip": float(demo.grippers[i]), "k": int(demo.k[i]),
                   "obj": _pose7(demo.objects[i])}
            fh.write(json.dumps(rec) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):  # a literal such as 1e400 overflows to inf
        _reject_constant(token)
    return value


def _read_lines(path: str, kind: str):
    """Yield (line_no, parsed) for records; validates the header line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    parsed = []
    for no, line in enumerate(lines, start=1):
        try:
            parsed.append((no, json.loads(line, parse_float=_finite_float,
                                          parse_constant=_reject_constant)))
        except ValueError as exc:  # malformed JSON, or a non-finite number
            raise ParseError(f"{path}: malformed record: "
                             f"{getattr(exc, 'msg', exc)}", line=no) from None
    header = parsed[0][1]
    if header.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: format {header.get('format')!r}, "
                          f"expected {FORMAT_VERSION!r}")
    if header.get("kind") != kind:
        raise FormatError(f"{path}: kind {header.get('kind')!r}, "
                          f"expected {kind!r}")
    return header, parsed[1:]


def read_demo(path: str) -> Demonstration:
    header, records = _read_lines(path, "demo")
    if header.get("n") != len(records):
        raise ParseError(f"{path}: header n={header.get('n')!r} but "
                         f"{len(records)} records", line=1)
    cmd, reached, grip, k, obj = [], [], [], [], []
    for no, rec in records:
        try:
            cmd.append(rec["cmd"])
            reached.append(rec["reached"])
            grip.append(rec["grip"])
            k.append(rec.get("k", 0))
            obj.append(rec["obj"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: missing field {exc}", line=no) from None
    return Demonstration(dt=float(header["dt"]), commanded=np.array(cmd),
                         reached=np.array(reached), grippers=np.array(grip),
                         k=np.array(k), objects=np.array(obj),
                         object_start=np.array(header["object_start"]),
                         goal=np.array(header["goal"]))


def save_demos(demos, directory: str, prefix: str = "demo") -> list:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, demo in enumerate(demos):
        path = os.path.join(directory, f"{prefix}_{i:03d}.jsonl")
        write_demo(demo, path)
        paths.append(path)
    return paths


def load_demos(directory: str, prefix: str = "demo") -> list:
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith(prefix) and n.endswith(".jsonl"))
    if not names:
        raise FormatError(f"no demo files under {directory}")
    return [read_demo(os.path.join(directory, n)) for n in names]


# ---------------------------------------------------------------------------
# rollout logs

def write_rollout(log, path: str) -> None:
    """Persist a scheduler.RolloutLog at its 50 Hz sampling."""
    with open(path, "w") as fh:
        header = {"format": FORMAT_VERSION, "kind": "rollout",
                  "seed": int(log.seed), "success": bool(log.success),
                  "duration": float(log.duration),
                  "stall_count": int(log.stall_count),
                  "con_values": [float(c) for c in log.con_values],
                  "wed_values": [float(w) for w in log.wed_values]}
        fh.write(json.dumps(header) + "\n")
        for i in range(len(log.times)):
            rec = {"step": i, "time": float(log.times[i]),
                   "ref": _pose7(np.concatenate([log.ref_positions[i],
                                                 log.ref_orientations[i]])),
                   "state": _pose7(np.concatenate([log.positions[i],
                                                   log.orientations[i]])),
                   "e_pos": float(log.e_pos[i]),
                   "e_ori": float(log.e_ori[i])}
            fh.write(json.dumps(rec) + "\n")
        for t, tag in log.events:
            fh.write(json.dumps({"event": tag, "time": float(t)}) + "\n")


_EVENT_TAGS = ("splice", "stall", "grasp", "release")


def read_rollout(path: str) -> RolloutLog:
    """The RolloutLog a file was written from, minus chunks and guidance."""
    header, records = _read_lines(path, "rollout")
    times, ref, state, e_pos, e_ori, events = [], [], [], [], [], []
    for no, rec in records:
        try:
            if "event" in rec:
                if rec["event"] not in _EVENT_TAGS:
                    raise ParseError(f"{path}: unknown event "
                                     f"{rec['event']!r}", line=no)
                events.append((float(rec["time"]), rec["event"]))
            else:
                times.append(rec["time"])
                ref.append(rec["ref"])
                state.append(rec["state"])
                e_pos.append(rec["e_pos"])
                e_ori.append(rec["e_ori"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: missing field {exc}", line=no) from None
    ref = np.array(ref, dtype=float).reshape(-1, 7)
    state = np.array(state, dtype=float).reshape(-1, 7)
    return RolloutLog(
        seed=int(header["seed"]), success=bool(header["success"]),
        duration=float(header["duration"]),
        stall_count=int(header["stall_count"]),
        con_values=list(header.get("con_values", [])),
        wed_values=list(header.get("wed_values", [])),
        times=np.array(times, dtype=float),
        positions=state[:, :3], orientations=state[:, 3:],
        ref_positions=ref[:, :3], ref_orientations=ref[:, 3:],
        e_pos=np.array(e_pos, dtype=float),
        e_ori=np.array(e_ori, dtype=float), events=events)


# ---------------------------------------------------------------------------
# scripted demonstration generation

def _smoothstep(s: float) -> float:
    return s * s * (3.0 - 2.0 * s)


# segment layout of the scripted pick-place: (duration s, target, eased).
# The lift and retreat are deliberately uneased: the operator yanks away the
# instant the dwell ends, which is what makes badly-timed gripper events
# expensive.
_DWELL = 0.5
_GRIP_OFFSET = 0.0  # operator toggles this long after the dwell begins


def _scripted_path(obj_pos, goal_pos, home_pos, hover: float = 0.12):
    above_obj = obj_pos + np.array([0.0, 0.0, hover])
    above_goal = np.concatenate([goal_pos[:2], [goal_pos[2] + hover]])
    at_goal = np.asarray(goal_pos, dtype=float)
    return [
        (1.2, above_obj, True),    # approach over the object
        (0.8, obj_pos, True),      # descend
        (_DWELL, obj_pos, True),   # grasp dwell (close mid-dwell)
        (0.2, above_obj, False),   # lift
        (1.5, above_goal, True),   # transport
        (0.8, at_goal, True),      # descend
        (_DWELL, at_goal, True),   # place dwell (open mid-dwell)
        (0.2, above_goal, False),  # retreat
    ]


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

    knots_t = np.array(knots_t)
    knots_p = np.array(knots_p)
    t = np.clip(times, 0.0, total)
    seg = np.minimum(np.searchsorted(knots_t, t, side="right") - 1,
                     len(knots_t) - 2)
    s = (t - knots_t[seg]) / (knots_t[seg + 1] - knots_t[seg])
    w = np.where(np.array(eased)[seg], _smoothstep(s), s)[:, None]
    positions = (1.0 - w) * knots_p[seg] + w * knots_p[seg + 1]
    grips = ((times >= t_close) & (times < t_open)).astype(float)
    return times, positions, grips


def _as_pose_quat(q) -> None:
    """Renormalise quaternion ``q`` in place in the operation order of Pose."""
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q *= -1.0


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
    dynamics = DynamicsParams()
    rng = np.random.default_rng(seed)
    demos = []
    # the demos are tracked LOCKSTEP_MAX_ROWS at a time
    for first in range(0, n, LOCKSTEP_MAX_ROWS):
        scripts = []
        for _ in range(min(n - first, LOCKSTEP_MAX_ROWS)):
            offset = np.concatenate([rng.uniform(-scatter, scatter, size=2),
                                     [0.0]])
            obj_pos = task.object_start.position + offset
            obj_pose = Pose(obj_pos, task.object_start.orientation)
            demo_task = TaskSpec(obj_pose, task.goal_position,
                                 grasp_radius=task.grasp_radius,
                                 place_tolerance=task.place_tolerance,
                                 t_max=task.t_max)
            home = np.concatenate([obj_pos[:2], [obj_pos[2] + home_height]])
            segments = _scripted_path(obj_pos, np.asarray(task.goal_position),
                                      home)
            times, nominal, grips = _nominal_trajectory(segments, home, dt)
            n_steps = len(times)
            # the segment durations, and so the times, are the same for
            # every demo: this raises at the first demo or never
            if times[-1] > task.t_max:
                raise GenerationError(
                    "scripted plan exceeds the task time limit")

            # teleoperator: lead the pose stream, keep gripper at nominal
            # timing
            lead_steps = int(round(lead / dt))
            src = np.minimum(np.arange(n_steps) + lead_steps, n_steps - 1)
            commanded_pos = nominal[src].copy()
            if jitter > 0:
                commanded_pos += rng.normal(0.0, jitter,
                                            size=commanded_pos.shape)
            commanded_grip = grips.copy()
            quat = np.tile(IDENTITY_QUAT, (n_steps, 1))
            ref = ReferenceTrack(times, commanded_pos, quat,
                                 grippers=commanded_grip)
            object_start = np.concatenate([obj_pos,
                                           task.object_start.orientation])
            scripts.append((demo_task, ref, home, object_start))

        reached, objects = _track_scripts(scripts, profile, dynamics, first)
        for (_, ref, _, object_start), reached_d, objects_d in zip(
                scripts, reached, objects):
            flags = label_critical(ref.positions)
            flags = np.maximum(flags, gripper_event_flags(ref.grippers))
            demos.append(Demonstration(
                dt=dt, commanded=np.hstack([ref.positions, ref.orientations]),
                reached=reached_d, grippers=ref.grippers, k=flags,
                objects=objects_d, object_start=object_start,
                goal=np.asarray(task.goal_position, dtype=float)))
    return demos


def _track_scripts(scripts, profile, dynamics, first):
    """Track scripted demos first, first + 1, ... in one lockstep run.

    ``scripts`` holds (demo_task, ref, home, object_start) per demo, the
    last the object's start pose as a 7-vector. Returns the reached and
    object poses at every reference time, or raises what a loop over the
    demos would have raised first.
    """
    # every demo's reference steps are slices of the lockstep run
    states = np.stack([initial_world(Pose(home), demo_task).to_vector()
                       for demo_task, _, home, _ in scripts], axis=1)
    reached = [np.empty((len(ref.times), 7)) for _, ref, _, _ in scripts]
    objects = [np.empty((len(ref.times), 7)) for _, ref, _, _ in scripts]
    for d, (_, _, home, object_start) in enumerate(scripts):
        reached[d][0] = np.concatenate([home, IDENTITY_QUAT])
        objects[d][0] = object_start
    fault = None
    try:
        for rows, k, steps in track_lockstep(
                states, [ref for _, ref, _, _ in scripts],
                [profile] * len(scripts), dynamics,
                [ref.times[1:] for _, ref, _, _ in scripts],
                [demo_task.grasp_radius for demo_task, *_ in scripts]):
            block = states[:, rows].T.copy()
            if steps:
                # as between two track calls, whose WorldState passes both
                # quaternions through Pose
                for row in block:
                    _as_pose_quat(row[3:7])
                    _as_pose_quat(row[17:21])
                states[:, rows] = block.T
            for row, r in zip(block, rows):
                reached[r][k + 1] = row[0:7]
                objects[r][k + 1] = row[14:21]
    except SimFault as exc:
        fault = exc
    # a demo loop would have stopped at the first failing demo
    for d in range(len(scripts) if fault is None else fault.row):
        if not success(WorldState.from_vector(states[:, d]), scripts[d][0]):
            raise GenerationError(
                f"scripted demo {first + d} failed the task predicate")
    if fault is not None:
        raise fault
    return reached, objects
