"""Experiment drivers: method presets, replay harness, sweeps, diagnostics.

Every driver is deterministic for a fixed seed: per-trial seeds derive from
the root seed by simple arithmetic, results keep trial order, and the CSV
writer formats floats reproducibly.
"""
from __future__ import annotations

import csv
import io as _stdio
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import AggregatedActionsPolicy
from .controller import (LOCKSTEP_MAX_ROWS, ReferenceTrack, gain_profile,
                         track, track_lockstep)
from .core import Pose, IDENTITY_QUAT
from .diagnostics import SampleSet, knn_distance, kde_score, mmd
from .errors import InvalidInputError
from .io import generate_demos
from .metrics import aggregate
from .policy import (H_C, DemoLibrary, MockPolicy, PolicyConfig,
                     infer_unconditional, seed_ahead)
from .scheduler import (DELTA_DELAY, DELTA_STAR, INTERVAL_FLOOR,
                        ExecutorConfig, RolloutLog, run_rollout, sample_trace)
from .sim import (ROBOT_POSITION, T_MAX, TIME, TaskSpec, initial_world,
                  normalise_poses, success)

METHODS = ("sail", "dp", "dp-fast", "agg-actions", "replay")

log = logging.getLogger(__name__)

DEFAULT_OBJECT = np.array([0.3, 0.0, 0.02])
DEFAULT_GOAL = np.array([0.3, 0.25, 0.02])


def make_task() -> TaskSpec:
    """The standard desk-scale pick-and-place task."""
    return TaskSpec(object_start=Pose(DEFAULT_OBJECT.copy(),
                                      IDENTITY_QUAT.copy()),
                    goal_position=DEFAULT_GOAL.copy())


def build_demo_corpus(n: int = 50, seed: int = 0):
    """Generate the demo corpus used by all experiments."""
    return generate_demos(make_task(), n=n, seed=seed)


@dataclass(frozen=True)
class MethodSetup:
    policy_config: PolicyConfig
    exec_config: ExecutorConfig
    gains: str
    policy_class: type = MockPolicy


def method_setup(method: str, c: float = 1.0, *,
                 use_eag: bool | None = None) -> MethodSetup:
    """Map a named method onto policy/executor/controller settings.

    Every method draws H_P-waypoint chunks with p_branch = 0.2 and the
    policy's NOISE_SIGMA position noise, and executes their first
    H_P - H_C waypoints at intervals no shorter than
    scheduler.INTERVAL_FLOOR.
    sail: high-gain controller, reached-pose targets, speed c_fast = c off
    and c_slow = max(c, 0.5) on critical waypoints, with error-adaptive
    guidance. dp: the unsped baseline (always c = 1), low gain, commanded
    targets, no guidance. dp-fast: dp naively sped up to c on every
    waypoint. agg-actions: dp-fast drawing delta-aggregated chunks.
    ``use_eag``, when given, overrides the method's guidance. replay is
    handled by replay_rollout, not here.
    """
    if method == "sail":
        pc = PolicyConfig(p_branch=0.2, target_mode="reached")
        ec = ExecutorConfig(c_slow=max(c, 0.5), c_fast=c,
                            use_eag=True if use_eag is None else use_eag)
        return MethodSetup(pc, ec, "real-exec")
    if method in ("dp", "dp-fast", "agg-actions"):
        fixed = 1.0 if method == "dp" else c
        pc = PolicyConfig(p_branch=0.2, target_mode="commanded")
        ec = ExecutorConfig(c_slow=fixed, c_fast=fixed,
                            use_eag=False if use_eag is None else use_eag)
        cls = AggregatedActionsPolicy if method == "agg-actions" else MockPolicy
        return MethodSetup(pc, ec, "real-demo", cls)
    raise InvalidInputError(f"unknown method: {method}")


def task_for_demo(demo) -> TaskSpec:
    return TaskSpec(object_start=Pose(demo.object_start[:3].copy(),
                                      demo.object_start[3:7].copy()),
                    goal_position=demo.goal.copy())


def run_method_rollout(method: str, c: float, demos, seed: int,
                       library: DemoLibrary | None = None,
                       use_eag: bool | None = None) -> RolloutLog:
    """One closed-loop rollout of a named method on a demo-aligned task.

    ``library``, when given, is the DemoLibrary of ``demos`` the policy
    retrieves from, shared with the other rollouts of a sweep; ``use_eag``
    is passed to ``method_setup``.
    """
    if method == "replay":
        return replay_rollout(demos[seed % len(demos)], c=c, seed=seed)
    setup = method_setup(method, c, use_eag=use_eag)
    demo = demos[seed % len(demos)]
    task = task_for_demo(demo)
    start = Pose(demo.reached[0, :3].copy(), demo.reached[0, 3:7].copy())
    policy = setup.policy_class(demos, setup.policy_config, seed=seed,
                                library=library)
    return run_rollout(policy, task, setup.exec_config,
                       gain_profile(setup.gains), start, seed=seed)


def _check_noise_scale(scale: float) -> None:
    if not 0.0 <= scale < math.inf:
        raise InvalidInputError(
            f"noise scales must be finite and >= 0, got {scale:g}")


def _replay_setup(demo, c: float, target: str, noise_scale: float,
                  seed: int):
    """The reference, task, start state and last waypoint time of a replay;
    a negative or non-finite ``noise_scale`` raises InvalidInputError."""
    _check_noise_scale(noise_scale)
    stream = demo.reached if target == "reached" else demo.commanded
    positions = stream[:, :3].copy()
    orientations = stream[:, 3:7].copy()
    if noise_scale > 0.0:
        rng = np.random.default_rng((seed, 77))
        positions = positions + rng.normal(0.0, noise_scale, positions.shape)
    times = np.arange(len(stream)) * (c * demo.dt)
    ref = ReferenceTrack(times, positions, orientations,
                         grippers=demo.grippers.copy())
    task = task_for_demo(demo)
    state = initial_world(Pose(stream[0, :3].copy(), stream[0, 3:7].copy()),
                          task)
    return ref, task, state, float(times[-1])


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
    ref, task, state, end = _replay_setup(demo, c, target, noise_scale, seed)
    trace = track(state, ref, profile, until=end + 0.5)
    ok = success(state, task)
    samples, events = sample_trace(trace)
    return RolloutLog(success=ok, duration=end if ok else T_MAX,
                      stall_count=0, con_values=[], wed_values=[],
                      events=events, seed=seed, **samples)


def _replay_successes(replays) -> list[bool]:
    """Whether each replay succeeds, the replays run in lockstep.

    Each replay is (demo, c, gains, target, noise_scale, seed) and succeeds
    exactly when ``replay_rollout`` with those arguments does. The replays
    run LOCKSTEP_MAX_ROWS at a time, so memory does not grow with their
    number.
    """
    ok = []
    for first in range(0, len(replays), LOCKSTEP_MAX_ROWS):
        chunk = replays[first:first + LOCKSTEP_MAX_ROWS]
        setups = [_replay_setup(demo, c, target, noise, seed)
                  for demo, c, _, target, noise, seed in chunk]
        states = _track_to_ends([state for _, _, state, _ in setups],
                                [ref for ref, *_ in setups],
                                [gain_profile(r[2]) for r in chunk],
                                [end + 0.5 for *_, end in setups])
        ok += [success(state, task)
               for state, (_, task, _, _) in zip(states.T, setups)]
    return ok


def _track_to_ends(states, refs, gains, ends) -> np.ndarray:
    """Track each packed plant state of ``states`` along its reference of
    ``refs`` under its gains to its end time, in one lockstep run; returns
    the (30, len(states)) end states, their poses normalised."""
    states = np.stack(states, axis=1)
    for _ in track_lockstep(states, refs, gains, [(end,) for end in ends]):
        pass
    normalise_poses(states.T)
    return states


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _trial_seed(seed: int, cell: int, trial: int) -> int:
    return seed * 1_000_003 + cell * 1_009 + trial


_POOL_DEMOS = None
_POOL_LIBRARY = None


def _pool_init(demos):
    global _POOL_DEMOS, _POOL_LIBRARY
    _POOL_DEMOS = demos
    _POOL_LIBRARY = DemoLibrary(demos)


def _pool_rollout(args):
    method, c, seed = args
    return run_method_rollout(method, c, _POOL_DEMOS, seed,
                              library=_POOL_LIBRARY)


def _run_cell(method, c, demos, seeds, jobs, library):
    if jobs <= 1:
        return [run_method_rollout(method, c, demos, s, library=library)
                for s in seeds]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init,
                             initargs=(demos,)) as pool:
        return list(pool.map(_pool_rollout,
                             [(method, c, s) for s in seeds]))


def sweep_speed(demos, methods=("sail", "dp-fast"), c_values=(1.0, 0.5, 0.33, 0.2, 0.1),
                trials: int = 20, seed: int = 0, jobs: int = 1,
                t_max: float = T_MAX) -> list[dict]:
    """Success/throughput metrics per (method, speedup) grid point.

    A closed-loop method other than dp runs every interval at least
    INTERVAL_FLOOR long, so below c = INTERVAL_FLOOR / DELTA_STAR it runs
    at that c off its critical waypoints; each such (method, c) cell logs
    one WARNING naming the c that runs.
    """
    mean_demo = float(np.mean([d.duration for d in demos]))
    library = DemoLibrary(demos)
    rows = []
    for cell, (method, c) in enumerate((m, c) for m in methods for c in c_values):
        if method not in ("dp", "replay") and c * DELTA_STAR < INTERVAL_FLOOR:
            log.warning("%s at c=%g runs at c=%g: its intervals are floored "
                        "at INTERVAL_FLOOR = %g s", method, c,
                        INTERVAL_FLOOR / DELTA_STAR, INTERVAL_FLOOR)
        seeds = [_trial_seed(seed, cell, t) for t in range(trials)]
        logs = _run_cell(method, c, demos, seeds, jobs, library)
        report = aggregate(logs, t_max=t_max, mean_demo_duration=mean_demo)
        rows.append({"method": method, "c": c, **report.as_row()})
    return rows


def sweep_gain_replay(demos, c_values=(1.0, 0.5, 0.33, 0.2),
                      gains=("high", "low"),
                      targets=("reached", "commanded"),
                      seed: int = 0) -> list[dict]:
    """Replay SR for every (gain, target stream, speedup) combination.

    The replays of one speedup run in lockstep batches.
    """
    cells = [(gain, target) for gain in gains for target in targets]
    sr = {}
    for c in c_values:
        ok = _replay_successes([(d, c, gain, target, 0.0, seed + i)
                               for gain, target in cells
                               for i, d in enumerate(demos)])
        for k, cell in enumerate(cells):
            sr[cell, c] = float(np.mean(ok[k * len(demos):
                                           (k + 1) * len(demos)]))
    return [{"gain": gain, "target": target, "c": c, "n": len(demos),
             "sr": sr[(gain, target), c]}
            for gain, target in cells for c in c_values]


def sweep_noise(demos, scales=(0.0, 0.002, 0.005, 0.01),
                gains=("high", "low"), trials: int = 100,
                seed: int = 0) -> list[dict]:
    """Replay SR under reference noise for high vs low controller gains.

    Every scale must be finite and at least 0. The replays of the sweep run
    in lockstep batches.
    """
    for scale in scales:
        _check_noise_scale(scale)
    cells = [(gain, cell, scale) for gain in gains
             for cell, scale in enumerate(scales)]
    ok = _replay_successes([(demos[t % len(demos)], 1.0, gain, "reached",
                            scale, _trial_seed(seed, cell, t))
                           for gain, cell, scale in cells
                           for t in range(trials)])
    return [{"gain": gain, "noise": scale, "n": trials,
             "sr": float(np.mean(ok[k * trials:(k + 1) * trials]))}
            for k, (gain, _, scale) in enumerate(cells)]


# ---------------------------------------------------------------------------
# diagnostics trials
# ---------------------------------------------------------------------------

def _horizon(c: float, dt: float) -> int:
    """Demo steps of interval dt that one DELTA_DELAY inference latency
    covers at speed c: the waypoint steps a diagnostics trial tracks."""
    return int(round(DELTA_DELAY / (c * dt)))


def _check_speedups(demos, c_values) -> None:
    """Refuse a c at which no diagnostics trial on ``demos`` can run."""
    if not c_values:
        raise InvalidInputError("diagnostics need at least one c value")
    dt = max(demo.dt for demo in demos)
    for c in c_values:
        if not (math.isfinite(c) and c > 0.0):
            raise InvalidInputError(
                f"diagnostics need a finite c > 0, got c={c:g}")
        try:
            horizon = _horizon(c, dt)
        except (ZeroDivisionError, OverflowError):
            raise InvalidInputError(
                f"diagnostics at c={c:g} would track an unbounded number "
                "of demo steps") from None
        if horizon < 1:
            raise InvalidInputError(
                f"diagnostics at c={c:g} track no {dt:g} s demo step in "
                f"one {DELTA_DELAY:g} s latency")


def _diagnostics_setup(demos, c: float, seed: int):
    """A diagnostics trial's reset onto a random demo state.

    Returns (state, ref, stride): the packed plant state on the drawn demo
    step, the next stretch of that demo rescheduled at interval c * dt for
    one inference latency, and the step stride of the tail at speed c.
    """
    rng = np.random.default_rng((seed, 11))
    demo = demos[int(rng.integers(0, len(demos)))]
    n = len(demo)
    stride = max(1, int(round(1.0 / c)))
    horizon = _horizon(c, demo.dt)
    tail = H_C * stride
    if n < horizon + tail + 7:
        raise InvalidInputError(
            f"diagnostics at c={c:g} need {horizon + tail + 7} demo steps "
            f"(horizon {horizon}, tail {tail}, margin 7), but the drawn "
            f"demo has {n}")
    step = int(rng.integers(5, n - horizon - tail - 1))

    start = Pose(demo.reached[step, :3].copy(), demo.reached[step, 3:7].copy())
    state = initial_world(start, task_for_demo(demo))
    idx = np.arange(step, step + horizon + 1)
    times = state[TIME] + np.arange(len(idx)) * (c * demo.dt)
    ref = ReferenceTrack(times, demo.reached[idx, :3].copy(),
                         demo.reached[idx, 3:7].copy(),
                         grippers=demo.grippers[idx].copy())
    return state, ref, stride


def _track_stretches(setups) -> np.ndarray:
    """Track every set-up trial's stretch to its end in one lockstep run,
    under the real-exec gains; returns the (30, trials) end states."""
    refs = [ref for _, ref, _ in setups]
    return _track_to_ends([state for state, _, _ in setups], refs,
                          [gain_profile("real-exec")] * len(refs),
                          [float(ref.times[-1]) for ref in refs])


DIAG_DRAWS = 64  # unconditional draws a diagnostics tail is scored against


def _diagnostics_score(policy: MockPolicy, c: float, state, ref,
                       stride: int) -> dict:
    """A trial's row, its stretch tracked to ``state``: the tracking error,
    and the tail it would hand to the policy (the positions it will
    traverse next at speed c) scored against DIAG_DRAWS unconditional
    draws."""
    desired = ref.pose_at(float(ref.times[-1]))
    e_pos = float(np.linalg.norm(desired.position - state[ROBOT_POSITION]))

    # the tail is anchored at the retrieval match for the current state
    _, demo_idx, near_step = policy.nearest_states(state)[0]
    query = policy.positions(
        demo_idx, near_step + 1 + stride * np.arange(H_C)).reshape(-1)
    chunks = infer_unconditional(policy, state, size=DIAG_DRAWS)
    samples = SampleSet.from_chunks(chunks, H_C)
    return {"c": c, "e_pos": e_pos,
            "knn": knn_distance(samples, query),
            "kde": kde_score(samples, query),
            "mmd": mmd(samples, query)}


def diagnostics_trial(demos, policy: MockPolicy, c: float,
                      seed: int) -> dict:
    """One single-step reset trial: track one sped-up cycle, score the tail.

    The robot is reset onto a random demo state, tracks the next stretch of
    that demo rescheduled at interval c * dt for one inference latency, and
    the conditioning tail it would hand to the policy (the positions it will
    traverse next at speed c) is scored against N unconditional draws.
    ``run_diagnostics`` runs the same steps for many trials at once.
    """
    _check_speedups(demos, (c,))
    setup = _diagnostics_setup(demos, c, seed)
    states = _track_stretches([setup])
    return _diagnostics_score(policy, c, states[:, 0], *setup[1:])


def run_diagnostics(demos, c_values=(1.0, 0.33, 0.2), trials: int = 200,
                    seed: int = 0) -> list[dict]:
    """Pooled single-step reset trials across speedup factors.

    Trial t runs ``diagnostics_trial`` at c_values[t % len(c_values)] with
    its own policy, with the same results. Every c is checked before any
    trial runs. The trials run LOCKSTEP_MAX_ROWS at a time: set up in trial
    order, so that the first trial that cannot run raises, tracked in one
    lockstep run, their policies' draws seeded together (seed_ahead), then
    scored in trial order.
    """
    pc = PolicyConfig(p_branch=1.0, target_mode="reached")
    library = DemoLibrary(demos)
    _check_speedups(demos, c_values)
    rows = []
    for first in range(0, trials, LOCKSTEP_MAX_ROWS):
        chunk = [(t, c_values[t % len(c_values)])
                 for t in range(first, min(trials, first + LOCKSTEP_MAX_ROWS))]
        setups = [_diagnostics_setup(demos, c, _trial_seed(seed, 13, t))
                  for t, c in chunk]
        states = _track_stretches(setups)
        policies = [MockPolicy(demos, pc, seed=_trial_seed(seed, 7, t),
                               library=library) for t, _ in chunk]
        seed_ahead(policies, DIAG_DRAWS)
        for (t, c), state, (_, ref, stride) in zip(chunk, states.T, setups):
            # each policy is let go once scored, with the distance matrix
            # it keeps, so that only one is alive at a time
            policy = policies.pop(0)
            rows.append({"trial": t, **_diagnostics_score(policy, c, state,
                                                          ref, stride)})
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(row.get(k)) for k in header])
    return buf.getvalue()
