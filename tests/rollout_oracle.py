"""The rollout executor and the open-loop replay, one at a time (reference).

``run_rollout`` is ``sailx.scheduler.run_rollout`` as it was before the
rollouts of a sweep were stepped together: one rollout at a time, each
stretch tracked by ``controller.track`` on its own ReferenceTrack.
``replay_rollout`` is ``sailx.experiments.replay_rollout`` as it was before
replays ran on ``scheduler.run_rollouts``: the replay's set-up, one
``controller.track`` call and ``sample_trace``. They are kept unchanged so
tests can require that ``scheduler.run_rollouts`` gives every rollout and
replay its bits.
"""

import numpy as np

from sailx.controller import (GainProfile, ReferenceTrack, gain_profile,
                              sample_trace, track)
from sailx.experiments import _replay_setup
from sailx.metrics import con, wed
from sailx.policy import (H_C, H_P, ActionChunk, MockPolicy, infer_eag,
                          infer_unconditional)
from sailx.scheduler import (DELTA_DELAY, ExecutorConfig, RolloutLog,
                             plan_intervals)
from sailx.sim import (GRIPPER, T_MAX, TIME, Pose, TaskSpec, initial_world,
                       success)


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


def replay_rollout(demo, c: float = 1.0, gains: str = "real-exec",
                   target: str = "reached", noise_scale: float = 0.0,
                   seed: int = 0) -> RolloutLog:
    """Open-loop replay of one demo, sped up by 1/c, as a RolloutLog.

    The commanded or reached stream is rescheduled at interval c * dt and
    tracked with the requested controller gains; optional Gaussian noise
    perturbs the reference positions before tracking. A negative or
    non-finite ``noise_scale`` raises InvalidInputError.
    """
    profile = gain_profile(gains)
    waypoints, task, state, end = _replay_setup(demo, c, target, noise_scale,
                                                seed)
    trace = track(state, ReferenceTrack(*waypoints), profile, until=end + 0.5)
    ok = success(state, task)
    samples, events = sample_trace(trace)
    return RolloutLog(success=ok, duration=end if ok else T_MAX,
                      stall_count=0, con_values=[], wed_values=[],
                      events=events, seed=seed, **samples)
