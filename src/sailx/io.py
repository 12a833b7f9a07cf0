"""Demonstration/rollout persistence and synthetic demo generation.

Files are line-delimited JSON: a header line carrying the format version
("sailx-v1") and per-file metadata, followed by one record per line. Poses
serialize as 7 numbers (px, py, pz, qw, qx, qy, qz). Readers raise
ParseError with the offending line number, the header being line 1, on the
non-standard JSON constants NaN and Infinity, on a missing field, and on a
field that is not a number or a list of the numbers it needs; a demo
file also on a ``dt`` that is not > 0 and on fewer than 2 records. A rollout
file reads back as the ``scheduler.RolloutLog`` it was written from.

Demonstrations are produced by a scripted teleoperator executed through the
simulator with the low-gain profile, so commanded and reached poses genuinely
differ: the script leads the nominal path by _LEAD seconds (the way an
operator anticipates a sluggish arm), and the logged reached trace is the
smooth, lagged closed-loop response.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .controller import (LOCKSTEP_MAX_ROWS, gain_profile, reference_tracks,
                         track_lockstep)
# perfbench wraps sailx.io.ReferenceTrack and sailx.io.track
from .controller import ReferenceTrack, track  # noqa: F401
from .core import IDENTITY_QUAT, Pose
from .errors import (FormatError, GenerationError, InvalidInputError,
                     ParseError, SimFault)
from .scheduler import RolloutLog
from .sim import (OBJECT_POSE, ROBOT_POSE, TaskSpec, initial_world,
                  normalise_poses, success)
from .speedmod import gripper_event_flags, label_critical

FORMAT_VERSION = "sailx-v1"


# ---------------------------------------------------------------------------
# demonstrations

@dataclass
class Demonstration:
    """A teleoperated trajectory sampled at a fixed interval ``dt``.

    ``dt`` must be finite and > 0, and every pose, gripper and object value
    finite: construction raises InvalidInputError otherwise. The demo keeps
    its own read-only copy of each array, so that no write after
    construction gets past that check.
    """

    dt: float
    commanded: np.ndarray   # (N, 7) pose rows
    reached: np.ndarray     # (N, 7)
    grippers: np.ndarray    # (N,)
    k: np.ndarray           # (N,) critical flags
    objects: np.ndarray     # (N, 7) object pose rows
    object_start: np.ndarray = field(default=None)  # (7,)
    goal: np.ndarray = field(default=None)           # (3,)

    def __post_init__(self):
        if self.object_start is None:
            self.object_start = self.objects[0]
        if self.goal is None:
            self.goal = self.objects[-1][:3]
        for name in ("commanded", "reached", "grippers", "objects",
                     "object_start", "goal"):
            setattr(self, name, _read_only_copy(getattr(self, name), float))
        self.k = _read_only_copy(self.k, np.int8)
        n = len(self.commanded)
        for name in ("reached", "grippers", "k", "objects"):
            if len(getattr(self, name)) != n:
                raise InvalidInputError(f"demo field {name} length mismatch")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise InvalidInputError(f"demo dt must be finite and > 0, "
                                    f"got {self.dt!r}")
        for name in ("commanded", "reached", "grippers", "objects",
                     "object_start", "goal"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"demo field {name} must be finite")

    def __len__(self) -> int:
        return len(self.commanded)

    @property
    def duration(self) -> float:
        return (len(self) - 1) * self.dt


def _read_only_copy(values, dtype) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


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
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise InvalidInputError(f"no {kind} file {path}") from None
    if not lines:
        raise FormatError(f"{path}: empty file")
    parsed = []
    for no, line in enumerate(lines, start=1):
        try:
            record = json.loads(line, parse_float=_finite_float,
                                parse_constant=_reject_constant)
        except ValueError as exc:  # malformed JSON, or a non-finite number
            raise ParseError(f"{path}: malformed record: "
                             f"{getattr(exc, 'msg', exc)}", line=no) from None
        if not isinstance(record, dict):
            raise ParseError(f"{path}: a record must be a JSON object",
                             line=no)
        parsed.append((no, record))
    header = parsed[0][1]
    if header.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: format {header.get('format')!r}, "
                          f"expected {FORMAT_VERSION!r}")
    if header.get("kind") != kind:
        raise FormatError(f"{path}: kind {header.get('kind')!r}, "
                          f"expected {kind!r}")
    return header, parsed[1:]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _field(rec: dict, key: str, path: str, line: int, size=None):
    """rec[key], a number, or with ``size`` a list of that many numbers (of
    any count for -1); ParseError at ``line`` otherwise."""
    if key not in rec:
        raise ParseError(f"{path}: missing field {key!r}", line=line)
    value = rec[key]
    if not (_is_number(value) if size is None else
            isinstance(value, list) and size in (-1, len(value))
            and all(map(_is_number, value))):
        raise ParseError(f"{path}: malformed field {key!r}: {value!r}",
                         line=line)
    return value


def read_demo(path: str) -> Demonstration:
    header, records = _read_lines(path, "demo")
    if header.get("n") != len(records):
        raise ParseError(f"{path}: header n={header.get('n')!r} but "
                         f"{len(records)} records", line=1)
    dt = _field(header, "dt", path, 1)
    if not dt > 0:
        raise ParseError(f"{path}: dt={dt!r}, but a demo's interval must be "
                         "> 0", line=1)
    if len(records) < 2:  # a replay's reference needs 2 waypoints
        raise ParseError(f"{path}: n={len(records)}, but a demo needs at "
                         "least 2 records", line=1)
    object_start = _field(header, "object_start", path, 1, 7)
    goal = _field(header, "goal", path, 1, 3)
    cmd, reached, grip, k, obj = [], [], [], [], []
    for no, rec in records:
        cmd.append(_field(rec, "cmd", path, no, 7))
        reached.append(_field(rec, "reached", path, no, 7))
        grip.append(_field(rec, "grip", path, no))
        k.append(_field(rec, "k", path, no) if "k" in rec else 0)
        obj.append(_field(rec, "obj", path, no, 7))
    return Demonstration(dt=float(dt), commanded=np.array(cmd),
                         reached=np.array(reached), grippers=np.array(grip),
                         k=np.array(k), objects=np.array(obj),
                         object_start=np.array(object_start),
                         goal=np.array(goal))


def save_demos(demos, directory: str) -> list:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, demo in enumerate(demos):
        path = os.path.join(directory, f"demo_{i:03d}.jsonl")
        write_demo(demo, path)
        paths.append(path)
    return paths


def load_demos(directory: str) -> list:
    if not os.path.isdir(directory):
        raise InvalidInputError(f"no demo directory {directory}")
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("demo") and n.endswith(".jsonl"))
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
    seed = _field(header, "seed", path, 1)
    success = header.get("success")
    if not isinstance(success, bool):
        raise ParseError(f"{path}: field 'success' must be true or false, "
                         f"got {success!r}", line=1)
    duration = _field(header, "duration", path, 1)
    stall_count = _field(header, "stall_count", path, 1)
    con_values, wed_values = (
        _field(header, key, path, 1, -1) if key in header else []
        for key in ("con_values", "wed_values"))
    times, ref, state, e_pos, e_ori, events = [], [], [], [], [], []
    for no, rec in records:
        if "event" in rec:
            if rec["event"] not in _EVENT_TAGS:
                raise ParseError(f"{path}: unknown event "
                                 f"{rec['event']!r}", line=no)
            events.append((float(_field(rec, "time", path, no)),
                           rec["event"]))
        else:
            times.append(_field(rec, "time", path, no))
            ref.append(_field(rec, "ref", path, no, 7))
            state.append(_field(rec, "state", path, no, 7))
            e_pos.append(_field(rec, "e_pos", path, no))
            e_ori.append(_field(rec, "e_ori", path, no))
    ref = np.array(ref, dtype=float).reshape(-1, 7)
    state = np.array(state, dtype=float).reshape(-1, 7)
    return RolloutLog(
        seed=int(seed), success=success, duration=float(duration),
        stall_count=int(stall_count), con_values=con_values,
        wed_values=wed_values,
        times=np.array(times, dtype=float),
        positions=state[:, :3], orientations=state[:, 3:],
        ref_positions=ref[:, :3], ref_orientations=ref[:, 3:],
        e_pos=np.array(e_pos, dtype=float),
        e_ori=np.array(e_ori, dtype=float), events=events)


# ---------------------------------------------------------------------------
# scripted demonstration generation

def _smoothstep(s: float) -> float:
    return s * s * (3.0 - 2.0 * s)


_DWELL = 0.5
_GRIP_OFFSET = 0.0  # operator toggles this long after the dwell begins
_LEAD = 0.25  # s, how far the commanded pose stream runs ahead of the path
_SCATTER = 0.05  # m, half-width of the object's x/y start box
_HOME_HEIGHT = 0.20  # m, start height of the arm above the object
_DEMO_DT = 0.05  # s, the interval both streams are logged at
_JITTER = 0.001  # m, the per-step hand jitter of the commanded stream
_DEMO_GAINS = "real-demo"  # the gain preset demos are tracked under


# the scripted pick-place, segment by segment: (duration s, eased). The
# lift and retreat are deliberately uneased: the operator yanks away the
# instant the dwell ends, which is what makes badly-timed gripper events
# expensive.
_SCRIPT = (
    (1.2, True),     # approach over the object
    (0.8, True),     # descend
    (_DWELL, True),  # grasp dwell (close mid-dwell)
    (0.2, False),    # lift
    (1.5, True),     # transport
    (0.8, True),     # descend
    (_DWELL, True),  # place dwell (open mid-dwell)
    (0.2, False),    # retreat
)


def _scripted_path(obj_pos, goal_pos, home_pos, hover: float = 0.12):
    """_SCRIPT's segments as (duration s, target, eased); ``obj_pos`` may
    stack the objects of several paths on a leading axis."""
    above_obj = obj_pos + np.array([0.0, 0.0, hover])
    above_goal = np.concatenate([goal_pos[:2], [goal_pos[2] + hover]])
    at_goal = np.asarray(goal_pos, dtype=float)
    targets = (above_obj, obj_pos, obj_pos, above_obj, above_goal, at_goal,
               at_goal, above_goal)
    return [(dur, target, eased)
            for (dur, eased), target in zip(_SCRIPT, targets)]


def _nominal_timing():
    """(times, seg, w, grip) of a path of _SCRIPT's segments (duration s,
    eased) sampled at _DEMO_DT: every scripted path shares them. Sample i
    lies in segment seg[i], at the (eased) weight w[i] of its end, a column.

    The gripper closes _GRIP_OFFSET into the grasp dwell and opens
    _GRIP_OFFSET into the place dwell.
    """
    knots_t = [0.0]
    for dur, _ in _SCRIPT:
        knots_t.append(knots_t[-1] + dur)
    total = knots_t[-1]
    t_close = knots_t[2] + _GRIP_OFFSET   # into the grasp dwell
    t_open = knots_t[6] + _GRIP_OFFSET    # into the place dwell
    n = int(round(total / _DEMO_DT)) + 1
    times = np.arange(n) * _DEMO_DT

    knots_t = np.array(knots_t)
    t = np.clip(times, 0.0, total)
    seg = np.minimum(np.searchsorted(knots_t, t, side="right") - 1,
                     len(knots_t) - 2)
    s = (t - knots_t[seg]) / (knots_t[seg + 1] - knots_t[seg])
    eased = np.array([ease for _, ease in _SCRIPT])
    w = np.where(eased[seg], _smoothstep(s), s)[:, None]
    grips = ((times >= t_close) & (times < t_open)).astype(float)
    return times, seg, w, grips


def _path_positions(segments, home_pos, seg, w):
    """The positions of the path from ``home_pos`` through the segments'
    targets at ``_nominal_timing``'s ``seg`` and ``w``: (n, 3), or (B, n,
    3) where the home and the targets stack B paths on a leading axis."""
    knots = np.stack(np.broadcast_arrays(
        np.asarray(home_pos, dtype=float),
        *(np.asarray(target, dtype=float) for _, target, _ in segments)),
        axis=-2)
    return (1.0 - w) * knots[..., seg, :] + w * knots[..., seg + 1, :]


def generate_demos(task: TaskSpec, n: int = 50, seed: int = 0) -> list:
    """Scripted teleoperation through the simulator under _DEMO_GAINS.

    Each demo randomizes the object start within a +-_SCATTER box in x/y,
    and starts the arm _HOME_HEIGHT above it. The operator model
    anticipates the sluggish arm by commanding the pose stream _LEAD
    seconds ahead (with per-step hand _JITTER), so the reached trace is
    the smooth, roughly lag-cancelled closed-loop response; gripper toggles
    are issued at nominal (unled) timing, when the operator sees the arm
    settled. Both streams are logged at _DEMO_DT. The scripted plan lasts
    5.7 s, well inside the task's time limit.

    The demos are built LOCKSTEP_MAX_ROWS at a time: their random draws in
    demo order (the object offset, then the jitter), then their nominal
    paths on the script's shared times in one pass, their references in
    one ``reference_tracks`` fit, and their tracking in one lockstep run.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1 demos")
    profile = gain_profile(_DEMO_GAINS)
    rng = np.random.default_rng(seed)
    goal = np.asarray(task.goal_position)
    times, seg, w, grips = _nominal_timing()
    n_steps = len(times)
    # teleoperator: lead the pose stream, keep gripper at nominal timing
    lead_steps = int(round(_LEAD / _DEMO_DT))
    src = np.minimum(np.arange(n_steps) + lead_steps, n_steps - 1)
    demos = []
    for first in range(0, n, LOCKSTEP_MAX_ROWS):
        size = min(n - first, LOCKSTEP_MAX_ROWS)
        offsets = np.zeros((size, 3))
        jitter = np.empty((size, n_steps, 3))
        for d in range(size):
            offsets[d, :2] = rng.uniform(-_SCATTER, _SCATTER, size=2)
            jitter[d] = rng.normal(0.0, _JITTER, size=(n_steps, 3))
        obj = task.object_start.position + offsets
        home = obj.copy()
        home[:, 2] += _HOME_HEIGHT
        nominal = _path_positions(_scripted_path(obj, goal, home), home,
                                  seg, w)
        refs = reference_tracks(times, nominal[:, src] + jitter,
                                np.tile(IDENTITY_QUAT, (size, n_steps, 1)),
                                np.tile(grips, (size, 1)))
        scripts = [(TaskSpec(Pose(obj[d], task.object_start.orientation),
                             task.goal_position), refs[d], home[d],
                    np.concatenate([obj[d], task.object_start.orientation]))
                   for d in range(size)]
        reached, objects = _track_scripts(scripts, profile, first)
        for (_, ref, _, object_start), reached_d, objects_d in zip(
                scripts, reached, objects):
            flags = label_critical(ref.positions)
            flags = np.maximum(flags, gripper_event_flags(ref.grippers))
            demos.append(Demonstration(
                dt=_DEMO_DT,
                commanded=np.hstack([ref.positions, ref.orientations]),
                reached=reached_d, grippers=ref.grippers, k=flags,
                objects=objects_d, object_start=object_start,
                goal=np.asarray(task.goal_position, dtype=float)))
    return demos


def _track_scripts(scripts, profile, first):
    """Track scripted demos first, first + 1, ... in one lockstep run.

    ``scripts`` holds (demo_task, ref, home, object_start) per demo, the
    last the object's start pose as a 7-vector; every ref has
    ``_nominal_timing``'s times. Returns the reached and object poses at
    those times, (demos, times, 7) each, or raises what a loop over the
    demos would have raised first.
    """
    # every demo's reference steps are slices of the lockstep run
    states = np.stack([initial_world(Pose(home), demo_task)
                       for demo_task, _, home, _ in scripts], axis=1)
    reached = np.empty((len(scripts), len(scripts[0][1].times), 7))
    objects = np.empty_like(reached)
    for d, (_, _, home, object_start) in enumerate(scripts):
        reached[d, 0] = np.concatenate([home, IDENTITY_QUAT])
        objects[d, 0] = object_start
    fault = None
    try:
        for rows, k, steps in track_lockstep(
                states, [ref for _, ref, _, _ in scripts],
                [profile] * len(scripts),
                [ref.times[1:] for _, ref, _, _ in scripts]):
            if len(rows) == len(scripts):  # every demo, in order
                rows = slice(None)
            block = states[:, rows].T
            if steps:
                normalise_poses(block)  # as between two track calls
                states[:, rows] = block.T
            reached[rows, k + 1] = block[:, ROBOT_POSE]
            objects[rows, k + 1] = block[:, OBJECT_POSE]
    except SimFault as exc:
        fault = exc
    # a demo loop would have stopped at the first failing demo
    for d in range(len(scripts) if fault is None else fault.row):
        if not success(states[:, d], scripts[d][0]):
            raise GenerationError(
                f"scripted demo {first + d} failed the task predicate")
    if fault is not None:
        raise fault
    return reached, objects
