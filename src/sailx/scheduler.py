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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import GainProfile, ReferenceTrack, track
from .errors import ConfigurationError
from .metrics import con, speed_profile, wed
from .policy import (H_C, H_P, ActionChunk, MockPolicy, infer_eag,
                     infer_unconditional)
from .sim import (GRIPPER, T_MAX, TIME, Pose, TaskSpec, initial_world,
                  success)


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


def run_rollout(policy: MockPolicy, task: TaskSpec, exec_cfg: ExecutorConfig,
                gains: GainProfile, start_pose: Pose,
                seed: int = 0) -> RolloutLog:
    """Execute the policy on the task until success or the time limit."""
    exec_n = H_P - H_C
    state = initial_world(start_pose, task)

    samples: list[dict] = []
    events: list[tuple[float, str]] = []
    con_values: list[float] = []
    wed_values: list[float] = []
    chunks: list[ActionChunk] = []
    guidance: list[bool] = []
    stall_count = 0

    def collect(trace):
        stretch, stretch_events = sample_trace(trace)
        samples.append(stretch)
        events.extend(stretch_events)

    # first inference launched at t = 0; hold the start pose until it lands
    chunk = infer_unconditional(policy, state)
    chunks.append(chunk)
    guidance.append(False)
    grip = float(state[GRIPPER])
    hold = ReferenceTrack(
        [0.0, DELTA_DELAY],
        np.tile(start_pose.position, (2, 1)),
        np.tile(start_pose.orientation, (2, 1)),
        grippers=[grip, grip])
    collect(track(state, hold, gains, until=DELTA_DELAY))

    t_a = DELTA_DELAY
    prev_chunk: ActionChunk | None = None
    prev_ref: ReferenceTrack = hold
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
        ref = ReferenceTrack(
            np.concatenate([[t_a], wp_times]),
            np.vstack([desired.position, chunk.positions[:exec_n]]),
            np.vstack([desired.orientation, chunk.orientations[:exec_n]]),
            grippers=np.concatenate([grip_now, chunk.grippers[:exec_n]]))
        collect(track(state, ref, gains, until=min(t_next, T_MAX)))

        if success(state, task):
            releases = [t for t, tag in events if tag == "release"]
            duration = releases[-1] if releases else state[TIME]
            done = True
            break

        t_a = t_next
        prev_chunk, prev_offset = chunk, exec_offset
        prev_ref = ref
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
