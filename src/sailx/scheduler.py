"""Latency-aware chunk scheduling and the closed-loop rollout executor.

Inference runs back-to-back: the moment a chunk arrives, the state is
snapshotted and the next inference is launched, arriving one inference delay
later. Of each H_p-waypoint chunk only the first H_p - H_c waypoints are
executable; the remainder is reserved as the conditioning tail for the next
prediction. A cycle therefore stalls (the robot holds its last reference
pose) exactly when the per-waypoint interval drops below

    delta_lb = delta_delay / (H_p - H_c),

the smallest interval at which the executable span still covers the
inference delay. The executor floors its intervals at
(1 + safety_margin) * delta_lb so closed-loop runs never stall by design.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import GainProfile, ReferenceTrack, track
from .errors import ConfigurationError
from .metrics import con, speed_profile, wed
from .policy import ActionChunk, MockPolicy, infer_eag, infer_unconditional
from .sim import DynamicsParams, Pose, TaskSpec, initial_world, success


@dataclass(frozen=True)
class ExecutorConfig:
    delta_star: float = 0.05     # s, nominal waypoint interval (demo rate)
    delta_delay: float = 0.4     # s, inference latency
    c_slow: float = 0.5          # speed factor on critical waypoints
    c_fast: float = 0.2          # speed factor elsewhere
    safety_margin: float = 0.05  # interval floor margin over delta_lb
    adaptive_speed: bool = True  # modulate by critical flags
    fixed_c: float = 1.0         # speed factor when adaptive_speed is False
    use_eag: bool = True         # error-adaptive guidance at replanning

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (
                self.delta_star, self.delta_delay, self.c_slow, self.c_fast,
                self.safety_margin, self.fixed_c)):
            raise ConfigurationError("executor intervals and speed factors "
                                     "must be finite")
        if self.delta_star <= 0 or self.delta_delay < 0:
            raise ConfigurationError("delta_star > 0 and delta_delay >= 0 required")
        if not 0 < self.c_fast <= self.c_slow:
            raise ConfigurationError("require 0 < c_fast <= c_slow")
        if self.safety_margin < 0 or self.fixed_c <= 0:
            raise ConfigurationError("safety_margin >= 0 and fixed_c > 0 required")


def lower_bound_interval(delta_delay: float, h_p: int, h_c: int) -> float:
    """Smallest stall-free waypoint interval: delta_delay / (h_p - h_c)."""
    if h_p <= h_c:
        raise ConfigurationError("prediction horizon must exceed the "
                                 "conditioning length")
    return delta_delay / (h_p - h_c)


def speed_factor(flags, cfg: ExecutorConfig):
    """Per-waypoint speed factor: c_slow on critical waypoints, c_fast else."""
    k = np.asarray(flags, dtype=float)
    return k * cfg.c_slow + (1.0 - k) * cfg.c_fast


def plan_intervals(flags, cfg: ExecutorConfig, h_p: int, h_c: int) -> np.ndarray:
    """Per-waypoint execution intervals with the stall-safety floor applied."""
    if cfg.adaptive_speed:
        c = speed_factor(flags, cfg)
    else:
        c = np.full(len(np.asarray(flags)), cfg.fixed_c)
    floor = (1.0 + cfg.safety_margin) * lower_bound_interval(
        cfg.delta_delay, h_p, h_c)
    return np.maximum(c * cfg.delta_star, floor)


@dataclass
class TimelineResult:
    cycles: int
    stall_count: int
    total_stall_time: float
    makespan: float


def simulate_timeline(h_p: int, h_c: int, delta_delay: float, intervals,
                      cycles: int = 50) -> TimelineResult:
    """Pure timing simulation of the replanning loop (no physics).

    ``intervals`` is the per-waypoint interval, scalar or one value per
    cycle. A cycle stalls when its interval is below the lower bound, i.e.
    its executable span ends before the next chunk arrives.
    """
    lb = lower_bound_interval(delta_delay, h_p, h_c)
    dts = np.broadcast_to(np.asarray(intervals, dtype=float), (cycles,))
    if np.any(dts <= 0):
        raise ConfigurationError("intervals must be positive")
    stall_count = 0
    stall_time = 0.0
    t = delta_delay  # first chunk lands after one inference delay
    for dt in dts:
        span = (h_p - h_c) * dt
        if dt < lb:
            stall_count += 1
            stall_time += delta_delay - span
        t += max(span, delta_delay)
    return TimelineResult(cycles, stall_count, stall_time, t)


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


def sample_trace(trace, ref: ReferenceTrack):
    """The 50 Hz log of one tracked stretch, and its grasp/release events.

    Returns a dict of the RolloutLog sample arrays (times, positions,
    orientations, ref_positions, ref_orientations, e_pos, e_ori), taken every
    TRACE_STRIDE physics steps, and the (time, tag) events of every step.
    """
    times = trace.times[::TRACE_STRIDE]
    ref_pos, _, ref_quat, _, _ = ref.sample(times)
    samples = {"times": times,
               "positions": trace.positions[::TRACE_STRIDE],
               "orientations": trace.orientations[::TRACE_STRIDE],
               "ref_positions": ref_pos, "ref_orientations": ref_quat,
               "e_pos": trace.e_pos[::TRACE_STRIDE],
               "e_ori": trace.e_ori[::TRACE_STRIDE]}
    events = [(float(trace.times[i]),
               "grasp" if trace.events[i] > 0 else "release")
              for i in np.nonzero(trace.events)[0]]
    return samples, events


def run_rollout(policy: MockPolicy, task: TaskSpec, exec_cfg: ExecutorConfig,
                gains: GainProfile, dynamics: DynamicsParams,
                start_pose: Pose, seed: int = 0) -> RolloutLog:
    """Execute the policy on the task until success or the time limit."""
    pcfg = policy.config
    h_p, h_e, h_c = pcfg.h_p, pcfg.h_e, pcfg.h_c
    exec_n = h_p - h_c
    world = initial_world(start_pose, task)

    samples: list[dict] = []
    events: list[tuple[float, str]] = []
    con_values: list[float] = []
    wed_values: list[float] = []
    chunks: list[ActionChunk] = []
    guidance: list[bool] = []
    stall_count = 0

    def collect(trace, ref):
        stretch, stretch_events = sample_trace(trace, ref)
        samples.append(stretch)
        events.extend(stretch_events)

    # first inference launched at t = 0; hold the start pose until it lands
    chunk = infer_unconditional(policy, world)
    chunks.append(chunk)
    guidance.append(False)
    hold = ReferenceTrack(
        [0.0, exec_cfg.delta_delay],
        np.tile(start_pose.position, (2, 1)),
        np.tile(start_pose.orientation, (2, 1)),
        grippers=[world.gripper, world.gripper])
    world, trace = track(world, hold, gains, dynamics,
                         until=exec_cfg.delta_delay,
                         grasp_radius=task.grasp_radius)
    collect(trace, hold)

    t_a = exec_cfg.delta_delay
    prev_chunk: ActionChunk | None = None
    prev_ref: ReferenceTrack = hold
    done = False
    duration = task.t_max

    prev_offset = h_e
    while world.sim_time < task.t_max - 1e-9 and not done:
        if prev_chunk is not None:
            con_values.append(con(chunk, prev_chunk, prev_offset, 0))
            wed_values.append(wed(chunk, prev_chunk, overlap=h_c,
                                  offset=prev_offset))

        intervals = plan_intervals(chunk.flags, exec_cfg, h_p, h_c)
        wp_times = t_a + np.cumsum(intervals[:exec_n])
        t_next = t_a + exec_cfg.delta_delay
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
        prev_offset = exec_offset
        if exec_cfg.use_eag:
            next_chunk, applied = infer_eag(policy, world, chunk, desired,
                                            world.robot,
                                            delay_steps=delay_steps,
                                            exec_offset=exec_offset)
        else:
            next_chunk = infer_unconditional(policy, world,
                                             delay_steps=delay_steps)
            applied = False
        chunks.append(next_chunk)
        guidance.append(applied)

        # splice: continue from the superseded reference at t_a
        ref = ReferenceTrack(
            np.concatenate([[t_a], wp_times]),
            np.vstack([desired.position, chunk.positions[:exec_n]]),
            np.vstack([desired.orientation, chunk.orientations[:exec_n]]),
            grippers=np.concatenate([grip_now, chunk.grippers[:exec_n]]),
            flags=np.concatenate([chunk.flags[:1], chunk.flags[:exec_n]]))
        until = min(t_next, task.t_max)
        world, trace = track(world, ref, gains, dynamics, until=until,
                             grasp_radius=task.grasp_radius)
        collect(trace, ref)

        if success(world, task):
            releases = [t for t, tag in events if tag == "release"]
            duration = releases[-1] if releases else world.sim_time
            done = True
            break

        t_a = t_next
        prev_chunk = chunk
        prev_ref = ref
        chunk = next_chunk

    if not done:
        duration = world.sim_time

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
