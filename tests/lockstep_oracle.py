"""Per-row references for the lockstep sweeps, corpus build and diagnostics.

``sweep_gain_replay`` and ``sweep_noise`` here run one
``rollout_oracle.replay_rollout`` per replay, ``generate_demos`` runs
``controller.track_slices`` over one demo at a time, and
``run_diagnostics`` runs one ``diagnostics_trial`` after another, each
tracking its stretch with ``controller.track``: the loops that
``sailx.experiments`` replaced with rows of ``scheduler.run_rollouts``, and
``sailx.io`` with ``controller.track_lockstep``. They are kept unchanged so
tests can require the lockstep versions to reproduce them exactly.
"""

import numpy as np

from sailx.controller import (GAIN_PRESETS, ReferenceTrack, gain_profile,
                              track, track_slices)
from sailx.core import IDENTITY_QUAT, Pose
from sailx.diagnostics import SampleSet, kde_score, knn_distance, mmd
from sailx.errors import GenerationError, InvalidInputError
from sailx.experiments import _trial_seed, task_for_demo
from sailx.policy import (H_C, DemoLibrary, MockPolicy, PolicyConfig,
                          infer_unconditional)
from sailx.io import Demonstration, _nominal_trajectory, _scripted_path
from sailx.sim import TaskSpec, initial_world, success
from sailx.speedmod import gripper_event_flags, label_critical

from rollout_oracle import replay_rollout


def sweep_gain_replay(demos, c_values=(1.0, 0.5, 0.33, 0.2),
                      gains=("high", "low"),
                      targets=("reached", "commanded"),
                      seed: int = 0) -> list[dict]:
    """Replay SR for every (gain, target stream, speedup) combination."""
    rows = []
    for gain in gains:
        for target in targets:
            for c in c_values:
                logs = [replay_rollout(d, c=c, gains=gain, target=target,
                                       seed=seed + i)
                        for i, d in enumerate(demos)]
                sr = float(np.mean([l.success for l in logs]))
                rows.append({"gain": gain, "target": target, "c": c,
                             "n": len(logs), "sr": sr})
    return rows


def sweep_noise(demos, scales=(0.0, 0.002, 0.005, 0.01),
                gains=("high", "low"), trials: int = 100,
                seed: int = 0) -> list[dict]:
    """Replay SR under reference noise for high vs low controller gains."""
    rows = []
    for gain in gains:
        for cell, scale in enumerate(scales):
            logs = [replay_rollout(demos[t % len(demos)], c=1.0, gains=gain,
                                   target="reached", noise_scale=scale,
                                   seed=_trial_seed(seed, cell, t))
                    for t in range(trials)]
            sr = float(np.mean([l.success for l in logs]))
            rows.append({"gain": gain, "noise": scale, "n": trials, "sr": sr})
    return rows


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
        slices = track_slices(state, ref, profile, times[1:])
        for i, trace in enumerate(slices, start=1):
            if len(trace.times):
                # as between two track calls, which pass both poses
                # through Pose
                for q in (slice(3, 7), slice(17, 21)):
                    state[q] = Pose(np.zeros(3), state[q]).orientation
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



def diagnostics_trial(demos, policy: MockPolicy, c: float,
                      seed: int) -> dict:
    """One single-step reset trial: track one sped-up cycle, score the tail.

    The robot is reset onto a random demo state, tracks the next stretch of
    that demo rescheduled at interval c * dt for one inference latency, and
    the conditioning tail it would hand to the policy (the positions it will
    traverse next at speed c) is scored against N unconditional draws.
    """
    rng = np.random.default_rng((seed, 11))
    demo = demos[int(rng.integers(0, len(demos)))]
    n = len(demo)
    stride = max(1, int(round(1.0 / c)))
    horizon = int(round(0.4 / (c * demo.dt)))
    tail = H_C * stride
    if n < horizon + tail + 7:
        raise InvalidInputError(
            f"diagnostics at c={c:g} need {horizon + tail + 7} demo steps "
            f"(horizon {horizon}, tail {tail}, margin 7), but the drawn "
            f"demo has {n}")
    step = int(rng.integers(5, n - horizon - tail - 1))

    start = Pose(demo.reached[step, :3].copy(), demo.reached[step, 3:7].copy())
    task = task_for_demo(demo)
    state = initial_world(start, task)
    idx = np.arange(step, step + horizon + 1)
    times = state[29] + np.arange(len(idx)) * (c * demo.dt)
    ref = ReferenceTrack(times, demo.reached[idx, :3].copy(),
                         demo.reached[idx, 3:7].copy(),
                         grippers=demo.grippers[idx].copy())
    track(state, ref, GAIN_PRESETS["real-exec"], until=float(times[-1]))
    desired = ref.pose_at(float(times[-1]))
    e_pos = float(np.linalg.norm(desired.position - state[0:3]))

    # the tail that will be handed to the policy: the positions traversed
    # next at speed c, anchored at the retrieval match for the current state
    _, demo_idx, near_step = policy.nearest_states(state)[0]
    query = policy.positions(
        demo_idx, near_step + 1 + stride * np.arange(H_C)).reshape(-1)
    chunks = infer_unconditional(policy, state, size=64)
    samples = SampleSet.from_chunks(chunks, H_C)
    return {"c": c, "e_pos": e_pos,
            "knn": knn_distance(samples, query),
            "kde": kde_score(samples, query),
            "mmd": mmd(samples, query)}


def run_diagnostics(demos, c_values=(1.0, 0.33, 0.2), trials: int = 200,
                    seed: int = 0) -> list[dict]:
    """Pooled single-step reset trials across speedup factors."""
    pc = PolicyConfig(p_branch=1.0, target_mode="reached")
    library = DemoLibrary(demos)
    rows = []
    for t in range(trials):
        c = c_values[t % len(c_values)]
        policy = MockPolicy(demos, pc, seed=_trial_seed(seed, 7, t),
                            library=library)
        rows.append({"trial": t,
                     **diagnostics_trial(demos, policy, c,
                                         _trial_seed(seed, 13, t))})
    return rows
