"""Latency-aware chunk scheduling and the closed-loop rollout executor.

Inference runs back-to-back: the moment a chunk arrives, the state is
snapshotted and the next inference is launched, arriving one inference delay
later. Of each H_P-waypoint chunk only the first H_P - H_C waypoints are
executable; the remainder is reserved as the conditioning tail for the next
prediction. A cycle therefore stalls (the robot holds its last reference
pose) exactly when the per-waypoint interval drops below

    delta_lb = DELTA_DELAY / (H_P - H_C),

the smallest interval at which the executable span still covers the
inference delay. The executor floors its intervals at INTERVAL_FLOOR =
(1 + SAFETY_MARGIN) * delta_lb so closed-loop runs never stall by design.
At the policy's horizons (policy.H_P = 32, policy.H_C = 4) that floor is
1.05 * 0.4 s / 28, which evaluates to 0.015000000000000001 s, so a speed
factor of 0.3 and below runs as 0.3: 0.3 itself by one ulp, as 0.3 *
DELTA_STAR = 0.015 is below the floor.

Every rollout starts at t = 0 and replans at k * DELTA_DELAY, whatever its
method or speed, so the rollouts of a sweep share one plant clock and step
together. ``_plan`` is one rollout's planning as a generator: each cycle
it computes CON and WED against the previous chunk, plans the intervals,
records the splice and any stall, snapshots the superseded reference at
t_a and runs the next inference on the rollout's own policy, then yields
the cycle's reference waypoints and receives the tracked stretch.
``run_rollouts`` is the one driver and the one place that batches rows:
closed-loop rollouts (``_rollout_row``), and ``experiments``' open-loop
replays and diagnostics trials, each a planner of one stretch. It takes
any number of rows and steps them LOCKSTEP_MAX_ROWS at a time: each cycle
it fits the live rows' references once per knot grid, tracks all of them
in one ``controller.track_lockstep`` call, which samples every
TRACE_STRIDE-th step for the log of a traced run, renormalises their poses
and drops each row whose planner returns. ``run_rollout`` is its
one-rollout case.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import (LOCKSTEP_MAX_ROWS, GainProfile, _grouped_tracks,
                         track_lockstep)
# perfbench/tracing.py wraps this module's bindings of track and
# ReferenceTrack, so they stay bound here, though the rollouts track through
# track_lockstep and build their references in _grouped_tracks
from .controller import ReferenceTrack, track  # noqa: F401
from .errors import ConfigurationError, SailxError, SimFault
from .metrics import con, speed_profile, wed
from .policy import (H_C, H_P, ActionChunk, MockPolicy, infer_eag,
                     infer_unconditional)
from .sim import (GRIPPER, T_MAX, TIME, Pose, TaskSpec, initial_world,
                  normalise_poses, success)


DELTA_STAR = 0.05     # s, nominal waypoint interval (demo rate)
DELTA_DELAY = 0.4     # s, inference latency
SAFETY_MARGIN = 0.05  # interval floor margin over delta_lb
# s, the smallest planned interval: SAFETY_MARGIN over delta_lb
INTERVAL_FLOOR = (1.0 + SAFETY_MARGIN) * (DELTA_DELAY / (H_P - H_C))


@dataclass(frozen=True)
class ExecutorConfig:
    c_slow: float = 0.5          # speed factor on critical waypoints
    c_fast: float = 0.2          # speed factor elsewhere
    use_eag: bool = True         # error-adaptive guidance at replanning

    def __post_init__(self):
        if not (math.isfinite(self.c_slow) and math.isfinite(self.c_fast)):
            raise ConfigurationError("executor speed factors must be finite")
        if not 0 < self.c_fast <= self.c_slow:
            raise ConfigurationError("require 0 < c_fast <= c_slow")


def speed_factor(flags, cfg: ExecutorConfig):
    """Per-waypoint speed factor: c_slow on critical waypoints, c_fast else."""
    k = np.asarray(flags, dtype=float)
    return k * cfg.c_slow + (1.0 - k) * cfg.c_fast


def plan_intervals(flags, cfg: ExecutorConfig) -> np.ndarray:
    """Per-waypoint execution intervals, floored at INTERVAL_FLOOR.

    A fixed speed c is c_slow = c_fast = c: for flags in {0, 1} the speed
    factor is then exactly c.
    """
    return np.maximum(speed_factor(flags, cfg) * DELTA_STAR, INTERVAL_FLOOR)


@dataclass
class RolloutLog:
    """Closed-loop execution record at a 50 Hz sampling of the state."""

    success: bool
    duration: float
    stall_count: int
    con_values: list[float]
    wed_values: list[float]
    times: np.ndarray
    positions: np.ndarray
    orientations: np.ndarray
    ref_positions: np.ndarray
    ref_orientations: np.ndarray
    e_pos: np.ndarray
    e_ori: np.ndarray
    events: list[tuple[float, str]]
    chunks: list[ActionChunk] = field(default_factory=list)
    guidance: list[bool] = field(default_factory=list)
    seed: int = 0

    @property
    def speed(self) -> np.ndarray:
        if len(self.times) < 2:
            return np.zeros(0)
        dt = float(self.times[1] - self.times[0])
        return speed_profile(self.positions, dt)


def _plan(policy: MockPolicy, task: TaskSpec, exec_cfg: ExecutorConfig,
          start_pose: Pose, seed: int, state):
    """The planning of one rollout, cycle by cycle, from the packed plant
    ``state``, which the driver advances in place.

    A generator: it yields the waypoints (times, positions, orientations,
    grippers) of each stretch's reference and the time to track it until,
    and receives the stretch's ReferenceTrack and what ``sample_trace``
    makes of it, with ``state`` at the stretch's end, its poses
    renormalised. It returns the RolloutLog once the task succeeds or the
    time limit is reached.
    """
    exec_n = H_P - H_C

    samples: list[dict] = []
    events: list[tuple[float, str]] = []
    con_values: list[float] = []
    wed_values: list[float] = []
    chunks: list[ActionChunk] = []
    guidance: list[bool] = []
    stall_count = 0

    # first inference launched at t = 0; hold the start pose until it lands
    chunk = infer_unconditional(policy, state)
    chunks.append(chunk)
    guidance.append(False)
    grip = float(state[GRIPPER])
    hold = (np.array([0.0, DELTA_DELAY]),
            np.tile(start_pose.position, (2, 1)),
            np.tile(start_pose.orientation, (2, 1)), np.array([grip, grip]))
    prev_ref, stretch, stretch_events = yield hold, DELTA_DELAY
    samples.append(stretch)
    events.extend(stretch_events)

    t_a = DELTA_DELAY
    prev_chunk: ActionChunk | None = None
    done = False

    while state[TIME] < T_MAX - 1e-9 and not done:
        if prev_chunk is not None:
            con_values.append(con(chunk, prev_chunk, prev_offset, 0))
            wed_values.append(wed(chunk, prev_chunk, overlap=H_C,
                                  offset=prev_offset))

        intervals = plan_intervals(chunk.flags, exec_cfg)
        wp_times = t_a + np.cumsum(intervals[:exec_n])
        t_next = t_a + DELTA_DELAY
        events.append((float(t_a), "splice"))
        if wp_times[-1] < t_next - 1e-12:
            stall_count += 1
            events.append((float(wp_times[-1]), "stall"))

        # snapshot at t_a and launch the next inference, landing at t_next
        pos_now, _, quat_now, _, grip_now = prev_ref.sample(np.array([t_a]))
        desired = Pose(pos_now[0], quat_now[0])
        # waypoints of this chunk consumed by the time the next one lands
        delay_steps = int(np.searchsorted(wp_times, t_next + 1e-12))
        exec_offset = min(delay_steps, exec_n)
        if exec_cfg.use_eag:
            next_chunk, applied = infer_eag(policy, state, chunk, desired,
                                            delay_steps=delay_steps,
                                            exec_offset=exec_offset)
        else:
            next_chunk = infer_unconditional(policy, state,
                                             delay_steps=delay_steps)
            applied = False
        chunks.append(next_chunk)
        guidance.append(applied)

        # splice: continue from the superseded reference at t_a
        splice = (np.concatenate([[t_a], wp_times]),
                  np.vstack([desired.position, chunk.positions[:exec_n]]),
                  np.vstack([desired.orientation,
                             chunk.orientations[:exec_n]]),
                  np.concatenate([grip_now, chunk.grippers[:exec_n]]))
        prev_ref, stretch, stretch_events = yield splice, min(t_next, T_MAX)
        samples.append(stretch)
        events.extend(stretch_events)

        if success(state, task):
            releases = [t for t, tag in events if tag == "release"]
            duration = releases[-1] if releases else state[TIME]
            done = True
            break

        t_a = t_next
        prev_chunk, prev_offset = chunk, exec_offset
        chunk = next_chunk

    if not done:
        duration = state[TIME]

    return RolloutLog(
        success=done,
        duration=float(duration),
        stall_count=stall_count,
        con_values=con_values,
        wed_values=wed_values,
        events=events,
        chunks=chunks,
        guidance=guidance,
        seed=seed,
        **{name: np.concatenate([stretch[name] for stretch in samples])
           for name in samples[0]},
    )


def _rollout_row(policy, task, exec_cfg, gains, start_pose, seed):
    """A closed-loop rollout as a row of ``run_rollouts``."""
    state = initial_world(start_pose, task)
    return state, gains, _plan(policy, task, exec_cfg, start_pose, seed,
                               state)


def run_rollouts(rows, traced: bool = True) -> list:
    """What the planner of each row of ``rows`` returns, in order, the
    rows stepped together LOCKSTEP_MAX_ROWS at a time, with the bits of
    each row run alone.

    A row is a function of no arguments that returns a packed plant state,
    its gains and a planner on that state: a generator like ``_plan``
    (``_rollout_row``), which receives None for the samples and events of
    an untraced run. A chunk's rows are set up when it starts, so that
    memory does not grow with their number.

    Every row starts at t = 0, and a closed-loop one replans at k *
    DELTA_DELAY, so the rows of a cycle share one plant clock. Each cycle
    the live rows' references are fitted once per knot grid
    (``controller._grouped_tracks``, which also names the first invalid
    reference), tracked in one ``track_lockstep`` call and renormalised as
    ``track`` does. An error raises what a loop over the rows would raise
    first, once its chunk is done: the rows after the first one to fail
    stop there or are never set up, and those before it run on until they
    end or fail; a cycle whose first live row fails ends the chunk there.
    """
    results = [None] * len(rows)
    for first in range(0, len(rows), LOCKSTEP_MAX_ROWS):
        errors = {}  # row -> the error it raised
        states, gains, planners, plans = {}, {}, {}, {}
        for i in range(first, min(first + LOCKSTEP_MAX_ROWS, len(rows))):
            try:
                states[i], gains[i], planners[i] = rows[i]()
                plans[i] = next(planners[i])
            except SailxError as error:
                errors[i] = error
                break
        while plans:
            live = list(plans)
            refs, error = _grouped_tracks([plans[i][0] for i in live])
            if error is not None:
                errors[live[len(refs)]] = error
                live = live[:len(refs)]
                if not live:
                    break
            stacked = np.stack([states[i] for i in live], axis=1)
            traces = [(None, None)] * len(live)
            stepped = np.zeros(len(live), dtype=bool)
            try:
                for columns, _, steps in track_lockstep(
                        stacked, refs, [gains[i] for i in live],
                        [(plans[i][1],) for i in live],
                        traces if traced else None):
                    stepped[columns] = steps > 0
            except SimFault as fault:
                errors[live[fault.row]] = fault
                live = live[:fault.row]
            raised = _renormalise(stacked, stepped[:len(live)])
            if raised is not None:
                errors[live[raised[0]]] = raised[1]
                live = live[:raised[0]]
            plans = {}
            for j, i in enumerate(live):
                states[i][:] = stacked[:, j]
                try:
                    plans[i] = planners[i].send((refs[j], *traces[j]))
                except StopIteration as stop:
                    results[i] = stop.value
                except SailxError as error:
                    errors[i] = error
                    break
        if errors:
            raise errors[min(errors)]
    return results


def _renormalise(states, stepped):
    """``sim.normalise_poses`` on each column of the (30, B) ``states``
    that ``stepped``, in one call where all did; (column, error) of the
    first that raises, the columns before it renormalised, or None."""
    if stepped.all():
        try:
            normalise_poses(states.T)
            return None
        except SailxError:
            pass  # which column raised: it changed none
    for j in np.flatnonzero(stepped):
        try:
            normalise_poses(states[:, j])
        except SailxError as error:
            return j, error
    return None


def run_rollout(policy: MockPolicy, task: TaskSpec, exec_cfg: ExecutorConfig,
                gains: GainProfile, start_pose: Pose,
                seed: int = 0) -> RolloutLog:
    """Execute the policy on the task until success or the time limit: the
    one-rollout case of ``run_rollouts``."""
    return run_rollouts([functools.partial(_rollout_row, policy, task,
                                           exec_cfg, gains, start_pose,
                                           seed)])[0]
