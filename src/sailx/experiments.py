"""Experiment drivers: method presets, replay harness, sweeps, diagnostics.

Every driver is deterministic for a fixed seed: per-trial seeds derive from
the root seed by simple arithmetic, results keep trial order, and the CSV
writer formats floats reproducibly.
"""
from __future__ import annotations

import csv
import functools
import io as _stdio
import itertools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import AggregatedActionsPolicy
from .controller import LOCKSTEP_MAX_ROWS, LOCKSTEP_MIN_ROWS, gain_profile
# perfbench/tracing.py wraps this module's bindings of track and
# ReferenceTrack, so they stay bound here, though replays and diagnostics
# trials track through scheduler.run_rollouts
from .controller import ReferenceTrack, track  # noqa: F401
from .core import Pose, IDENTITY_QUAT
from .diagnostics import SampleSet, knn_distance, kde_score, mmd
from .errors import InvalidInputError, SailxError
from .io import generate_demos
from .metrics import aggregate
from .policy import (H_C, DemoLibrary, MockPolicy, PolicyConfig,
                     infer_unconditional, seed_ahead)
from .scheduler import (DELTA_DELAY, DELTA_STAR, INTERVAL_FLOOR,
                        ExecutorConfig, RolloutLog, run_rollout, run_rollouts)
from .sim import (ROBOT_POSITION, T_MAX, TIME, TaskSpec, initial_world,
                  success)

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
    ``use_eag``, when given, overrides the method's guidance. replay, an
    open-loop replay of the demo's reached stream under the real-exec
    gains, is a planner of its own (``replay_rollout``), not set up here.
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
    """One closed-loop rollout of a named method on a demo-aligned task:
    the one-seed case of ``run_method_rollouts``."""
    return run_method_rollouts([(method, c, seed)], demos, library,
                               use_eag)[0]


def run_method_rollouts(rollouts, demos,
                        library: DemoLibrary | None = None,
                        use_eag: bool | None = None) -> list[RolloutLog]:
    """The rollout of each (method, c, seed) of ``rollouts``, in order,
    each of a named method on the task of demo ``seed % len(demos)``.

    ``library``, when given, is the DemoLibrary of ``demos`` the policies
    retrieve from; otherwise one is packed for all of them. ``use_eag`` is
    passed to ``method_setup``. A replay is ``replay_rollout`` at c. The
    rollouts run LOCKSTEP_MAX_ROWS at a time, stepped together by
    ``scheduler.run_rollouts``, or one by one (a closed-loop one through
    ``run_rollout``) when fewer than LOCKSTEP_MIN_ROWS; each has the bits
    of its run alone, and an error raises what a loop over the rollouts
    would raise first.
    """
    if library is None and any(m != "replay" for m, _, _ in rollouts):
        library = DemoLibrary(demos)
    logs = []
    batch = []

    def flush():
        if len(batch) < LOCKSTEP_MIN_ROWS:
            logs.extend(run_rollouts([row])[0] if callable(row)
                        else run_rollout(*row) for row in batch)
        else:
            logs.extend(run_rollouts(batch))
        batch.clear()

    for method, c, seed in rollouts:
        demo = demos[seed % len(demos)]
        try:
            if method == "replay":  # replay_rollout's defaults
                row = functools.partial(_replay_row, demo, c, "real-exec",
                                        "reached", 0.0, seed)
            else:
                setup = method_setup(method, c, use_eag=use_eag)
                start = Pose(demo.reached[0, :3].copy(),
                             demo.reached[0, 3:7].copy())
                policy = setup.policy_class(demos, setup.policy_config,
                                            seed=seed, library=library)
                row = (policy, task_for_demo(demo), setup.exec_config,
                       gain_profile(setup.gains), start, seed)
        except SailxError:
            flush()  # the rollouts before it raise first
            raise
        batch.append(row)
        if len(batch) == LOCKSTEP_MAX_ROWS:
            flush()
    flush()
    return logs


def _check_replay(c: float, target: str, noise_scale: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise InvalidInputError(f"replays need a finite c > 0, got c={c:g}")
    if target not in ("reached", "commanded"):
        raise InvalidInputError(f"unknown replay target {target!r}: "
                                "expected 'reached' or 'commanded'")
    if not 0.0 <= noise_scale < math.inf:
        raise InvalidInputError(
            f"noise scales must be finite and >= 0, got {noise_scale:g}")


def _replay_setup(demo, c: float, target: str, noise_scale: float,
                  seed: int):
    """The reference waypoints (times, positions, orientations, grippers),
    task, start state and last waypoint time of a replay, whose arguments
    ``_check_replay`` checks first."""
    _check_replay(c, target, noise_scale)
    stream = demo.reached if target == "reached" else demo.commanded
    positions = stream[:, :3]
    if noise_scale > 0.0:
        rng = np.random.default_rng((seed, 77))
        positions = positions + rng.normal(0.0, noise_scale, positions.shape)
    times = np.arange(len(stream)) * (c * demo.dt)
    task = task_for_demo(demo)
    state = initial_world(Pose(stream[0, :3].copy(), stream[0, 3:7].copy()),
                          task)
    return ((times, positions, stream[:, 3:7], demo.grippers), task, state,
            float(times[-1]))


def _replay_row(demo, c, gains, target, noise_scale, seed):
    """A replay as a row of ``scheduler.run_rollouts``, one stretch to 0.5 s
    past its last waypoint, whose planner returns the replay's RolloutLog,
    or its success when the run is not traced."""
    profile = gain_profile(gains)
    waypoints, task, state, end = _replay_setup(demo, c, target, noise_scale,
                                                seed)

    def plan():
        _, samples, events = yield waypoints, end + 0.5
        ok = success(state, task)
        if samples is None:
            return ok
        return RolloutLog(success=ok, duration=end if ok else T_MAX,
                          stall_count=0, con_values=[], wed_values=[],
                          events=events, seed=seed, **samples)

    return state, profile, plan()


def replay_rollout(demo, c: float = 1.0, gains: str = "real-exec",
                   target: str = "reached", noise_scale: float = 0.0,
                   seed: int = 0) -> RolloutLog:
    """Open-loop replay of one demo, sped up by 1/c, as a RolloutLog: the
    one-replay case of ``scheduler.run_rollouts``.

    The commanded or reached stream is rescheduled at interval c * dt and
    tracked with the requested controller gains; optional Gaussian noise
    perturbs the reference positions before tracking. An unknown gain
    preset or target stream, a c that is not finite and > 0, or a negative
    or non-finite ``noise_scale`` raises InvalidInputError.
    """
    return run_rollouts([functools.partial(_replay_row, demo, c, gains, target,
                                           noise_scale, seed)])[0]


def _replay_successes(replays) -> list[bool]:
    """Whether ``replay_rollout(*replay)`` succeeds for each replay (demo,
    c, gains, target, noise_scale, seed) of ``replays``, run as untraced
    rows of ``scheduler.run_rollouts``, LOCKSTEP_MAX_ROWS at a time, so
    that memory does not grow with their number."""
    ok = []
    for first in range(0, len(replays), LOCKSTEP_MAX_ROWS):
        ok += run_rollouts([functools.partial(_replay_row, *replay) for replay
                            in replays[first:first + LOCKSTEP_MAX_ROWS]],
                           traced=False)
    return ok


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


def sweep_speed(demos, methods=("sail", "dp-fast"), c_values=(1.0, 0.5, 0.33, 0.2, 0.1),
                trials: int = 20, seed: int = 0, jobs: int = 1,
                t_max: float = T_MAX) -> list[dict]:
    """Success/throughput metrics per (method, speedup) grid point.

    ``trials`` and ``jobs`` must be at least 1, every replay cell's c
    finite and > 0, and every closed-loop cell's ``method_setup`` is made
    before any rollout runs, so that a bad argument raises
    InvalidInputError, and an unknown method or a c its executor refuses
    raises, before any cell is simulated. The rollouts of
    every cell run in cell-then-trial order through
    ``run_method_rollouts``, or in a pool of ``jobs`` worker processes.

    A closed-loop method other than dp runs every interval at least
    INTERVAL_FLOOR long, so where c * DELTA_STAR < INTERVAL_FLOOR, at c =
    0.3 and below (0.3 itself by one ulp), it runs at c = INTERVAL_FLOOR /
    DELTA_STAR off its critical waypoints; each such (method, c) cell logs
    one WARNING naming the c that runs and the floor's exact value.
    """
    for name, value in (("trials", trials), ("jobs", jobs)):
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise InvalidInputError(f"{name} must be an integer >= 1, "
                                    f"got {value!r}")
    cells = [(m, c) for m in methods for c in c_values]
    for method, c in cells:
        if method == "replay":
            _check_replay(c, "reached", 0.0)
        else:
            method_setup(method, c)
    for method, c in cells:
        if method not in ("dp", "replay") and c * DELTA_STAR < INTERVAL_FLOOR:
            log.warning("%s at c=%g runs at c=%g: its intervals are floored "
                        "at INTERVAL_FLOOR = %r s", method, c,
                        INTERVAL_FLOOR / DELTA_STAR, INTERVAL_FLOOR)
    mean_demo = float(np.mean([d.duration for d in demos]))
    rollouts = [(method, c, _trial_seed(seed, cell, t))
                for cell, (method, c) in enumerate(cells)
                for t in range(trials)]
    if jobs == 1:
        logs = run_method_rollouts(rollouts, demos)
    else:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init,
                                 initargs=(demos,)) as pool:
            logs = list(pool.map(_pool_rollout, rollouts))
    rows = []
    for cell, (method, c) in enumerate(cells):
        report = aggregate(logs[cell * trials:(cell + 1) * trials],
                           t_max=t_max, mean_demo_duration=mean_demo)
        rows.append({"method": method, "c": c, **report.as_row()})
    return rows


def sweep_gain_replay(demos, c_values=(1.0, 0.5, 0.33, 0.2),
                      gains=("high", "low"),
                      targets=("reached", "commanded"),
                      seed: int = 0) -> list[dict]:
    """Replay SR for every (gain, target stream, speedup) combination.

    Every target and c is checked before any replay runs. The replays of
    the sweep run in lockstep batches.
    """
    for c, target in itertools.product(c_values, targets):
        _check_replay(c, target, 0.0)
    cells = [(gain, target, c) for gain in gains for target in targets
             for c in c_values]
    n = len(demos)
    ok = _replay_successes([(d, c, gain, target, 0.0, seed + i)
                           for gain, target, c in cells
                           for i, d in enumerate(demos)])
    return [{"gain": gain, "target": target, "c": c, "n": n,
             "sr": float(np.mean(ok[k * n:(k + 1) * n]))}
            for k, (gain, target, c) in enumerate(cells)]


def sweep_noise(demos, scales=(0.0, 0.002, 0.005, 0.01),
                gains=("high", "low"), trials: int = 100,
                seed: int = 0) -> list[dict]:
    """Replay SR under reference noise for high vs low controller gains.

    Every scale must be finite and at least 0. The replays of the sweep run
    in lockstep batches.
    """
    for scale in scales:
        _check_replay(1.0, "reached", scale)
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
    """A diagnostics trial's reset onto a random demo state: (waypoints,
    state, stride), the waypoints (times, positions, orientations,
    grippers) of the drawn demo's next stretch rescheduled at interval c *
    dt for one inference latency, the packed plant state on the drawn
    step, and the step stride of the tail at speed c."""
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
    reached = demo.reached[idx]
    return ((times, reached[:, :3], reached[:, 3:7], demo.grippers[idx]),
            state, stride)


def _diagnostics_row(demos, c: float, seed: int):
    """A diagnostics trial as a row of ``scheduler.run_rollouts``, one
    stretch under the real-exec gains, whose planner returns (state,
    reference, stride) for ``_diagnostics_score``."""
    waypoints, state, stride = _diagnostics_setup(demos, c, seed)

    def plan():
        ref, _, _ = yield waypoints, float(waypoints[0][-1])
        return state, ref, stride

    return state, gain_profile("real-exec"), plan()


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
    It is the one-trial case of ``run_diagnostics``'s steps.
    """
    _check_speedups(demos, (c,))
    end, = run_rollouts([functools.partial(_diagnostics_row, demos, c,
                                           seed)], traced=False)
    return _diagnostics_score(policy, c, *end)


def run_diagnostics(demos, c_values=(1.0, 0.33, 0.2), trials: int = 200,
                    seed: int = 0) -> list[dict]:
    """Pooled single-step reset trials across speedup factors.

    Trial t runs ``diagnostics_trial`` at c_values[t % len(c_values)] with
    its own policy, with the same results. Every c is checked before any
    trial runs. The trials run LOCKSTEP_MAX_ROWS at a time: their stretches
    on ``scheduler.run_rollouts``, untraced, which raises what the first
    trial that cannot run raises, then their policies' draws seeded
    together (seed_ahead), then scored in trial order.
    """
    pc = PolicyConfig(p_branch=1.0, target_mode="reached")
    library = DemoLibrary(demos)
    _check_speedups(demos, c_values)
    rows = []
    for first in range(0, trials, LOCKSTEP_MAX_ROWS):
        chunk = [(t, c_values[t % len(c_values)])
                 for t in range(first, min(trials, first + LOCKSTEP_MAX_ROWS))]
        ends = run_rollouts([functools.partial(_diagnostics_row, demos, c,
                                               _trial_seed(seed, 13, t))
                             for t, c in chunk], traced=False)
        policies = [MockPolicy(demos, pc, seed=_trial_seed(seed, 7, t),
                               library=library) for t, _ in chunk]
        seed_ahead(policies, DIAG_DRAWS)
        for (t, c), end in zip(chunk, ends):
            # each policy is let go once scored, with the distance matrix
            # it keeps, so that only one is alive at a time
            policy = policies.pop(0)
            rows.append({"trial": t,
                         **_diagnostics_score(policy, c, *end)})
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
