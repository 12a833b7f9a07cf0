"""Experiment drivers: method presets, replay harness, sweeps, diagnostics.

Every driver is deterministic for a fixed seed: per-trial seeds derive from
the root seed by simple arithmetic, results keep trial order, and the CSV
writer formats floats reproducibly. Each hands all its rows (closed-loop
rollouts, replays or diagnostics trials) to ``scheduler.run_rollouts``,
the one place that batches them.
"""
from __future__ import annotations

import csv
import functools
import io as _stdio
import itertools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import AggregatedActionsPolicy
from .controller import LOCKSTEP_MIN_ROWS, gain_profile
# perfbench/tracing.py wraps this module's bindings of track and
# ReferenceTrack, so they stay bound here, though replays and diagnostics
# trials track through scheduler.run_rollouts
from .controller import ReferenceTrack, track  # noqa: F401
from .core import Pose, IDENTITY_QUAT
from .diagnostics import SampleSet, knn_distance, kde_score, mmd
from .errors import InvalidInputError
from .io import generate_demos
from .metrics import aggregate
from .policy import (H_C, DemoLibrary, MockPolicy, PolicyConfig,
                     infer_unconditional, seed_ahead)
from .scheduler import (DELTA_DELAY, DELTA_STAR, INTERVAL_FLOOR,
                        ExecutorConfig, RolloutLog, _rollout_row, run_rollout,
                        run_rollouts)
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


def run_method_rollouts(rollouts, demos,
                        use_eag: bool | None = None) -> list[RolloutLog]:
    """The rollout of each (method, c, seed) of ``rollouts``, in order, of
    a named method on the task of demo ``seed % len(demos)``, retrieving
    from one DemoLibrary of ``demos``, with ``use_eag`` passed to
    ``method_setup``; a replay is ``replay_rollout`` at c. The rollouts
    are rows of one ``scheduler.run_rollouts`` call, each policy made when
    its chunk starts, or, fewer than LOCKSTEP_MIN_ROWS, run one by one (a
    closed-loop one through ``run_rollout``). Each has the bits of its run
    alone, and an error raises what a loop over them would raise first.
    """
    library = (DemoLibrary(demos) if any(m != "replay" for m, _, _ in rollouts)
               else None)

    def closed_loop(method, c, seed):  # run_rollout's arguments
        setup = method_setup(method, c, use_eag=use_eag)
        demo = demos[seed % len(demos)]
        start = Pose(demo.reached[0, :3].copy(), demo.reached[0, 3:7].copy())
        policy = setup.policy_class(demos, setup.policy_config, seed=seed,
                                    library=library)
        return (policy, task_for_demo(demo), setup.exec_config,
                gain_profile(setup.gains), start, seed)

    def row(method, c, seed):
        if method == "replay":  # replay_rollout's defaults
            return _replay_row(demos[seed % len(demos)], c, "real-exec",
                               "reached", 0.0, seed)
        return _rollout_row(*closed_loop(method, c, seed))

    rows = [functools.partial(row, *r) for r in rollouts]
    if len(rows) >= LOCKSTEP_MIN_ROWS:
        return run_rollouts(rows)
    return [run_rollouts([one])[0] if r[0] == "replay"
            else run_rollout(*closed_loop(*r))
            for r, one in zip(rollouts, rows)]


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
    past its last waypoint or to T_MAX, whichever comes first, whose
    planner returns the replay's RolloutLog, or its success when the run
    is not traced."""
    profile = gain_profile(gains)
    waypoints, task, state, end = _replay_setup(demo, c, target, noise_scale,
                                                seed)

    def plan():
        _, samples, events = yield waypoints, min(end + 0.5, T_MAX)
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
    tracked with the requested controller gains, to 0.5 s past its last
    waypoint or to T_MAX, whichever comes first; optional Gaussian noise
    perturbs the reference positions before tracking. An unknown gain
    preset or target stream, a c that is not finite and > 0, or a negative
    or non-finite ``noise_scale`` raises InvalidInputError.
    """
    return run_rollouts([functools.partial(_replay_row, demo, c, gains, target,
                                           noise_scale, seed)])[0]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _trial_seed(seed: int, cell: int, trial: int) -> int:
    return seed * 1_000_003 + cell * 1_009 + trial


def _check_sweep(demos, **counts) -> None:
    """Refuse an empty ``demos``, and each of ``counts`` that is not an
    integer >= 1, with InvalidInputError."""
    for name, value in counts.items():
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise InvalidInputError(f"{name} must be an integer >= 1, "
                                    f"got {value!r}")
    if not demos:
        raise InvalidInputError("sweeps need at least one demo")


def sweep_speed(demos, methods=("sail", "dp-fast"), c_values=(1.0, 0.5, 0.33, 0.2, 0.1),
                trials: int = 20, seed: int = 0, jobs: int = 1,
                t_max: float = T_MAX) -> list[dict]:
    """Success/throughput metrics per (method, speedup) grid point.

    ``trials`` and ``jobs`` must be at least 1 and ``demos`` non-empty,
    every replay cell's c finite and > 0, and every closed-loop cell's
    ``method_setup`` is made before any rollout runs, so that a bad
    argument raises InvalidInputError, and an unknown method or a c its
    executor refuses raises, before any cell is simulated. The rollouts of
    every cell, in cell-then-trial order, run through
    ``run_method_rollouts``, or, when ``jobs`` > 1, in contiguous shares,
    each through ``run_method_rollouts`` in a worker process: one share to
    each of min(jobs, rollouts, os.cpu_count()) workers, and serially when
    that is 1. The rows do not depend on the split.

    A closed-loop method other than dp runs every interval at least
    INTERVAL_FLOOR long, so where c * DELTA_STAR < INTERVAL_FLOOR, at c =
    0.3 and below (0.3 itself by one ulp), it runs at c = INTERVAL_FLOOR /
    DELTA_STAR off its critical waypoints; each such (method, c) cell logs
    one WARNING naming the c that runs and the floor's exact value.
    """
    _check_sweep(demos, trials=trials, jobs=jobs)
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
    n = len(rollouts)
    workers = min(jobs, n, os.cpu_count() or 1)
    if workers <= 1:
        logs = run_method_rollouts(rollouts, demos)
    else:
        shares = [rollouts[k * n // workers:(k + 1) * n // workers]
                  for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(itertools.chain.from_iterable(pool.map(
                run_method_rollouts, shares, itertools.repeat(demos))))
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

    ``demos`` must be non-empty, and every target and c is checked before
    any replay runs. The replays of the sweep are untraced rows of one
    ``scheduler.run_rollouts`` call.
    """
    _check_sweep(demos)
    for c, target in itertools.product(c_values, targets):
        _check_replay(c, target, 0.0)
    cells = [(gain, target, c) for gain in gains for target in targets
             for c in c_values]
    n = len(demos)
    ok = run_rollouts([functools.partial(_replay_row, d, c, gain, target,
                                         0.0, seed + i)
                       for gain, target, c in cells
                       for i, d in enumerate(demos)], traced=False)
    return [{"gain": gain, "target": target, "c": c, "n": n,
             "sr": float(np.mean(ok[k * n:(k + 1) * n]))}
            for k, (gain, target, c) in enumerate(cells)]


def sweep_noise(demos, scales=(0.0, 0.002, 0.005, 0.01),
                gains=("high", "low"), trials: int = 100,
                seed: int = 0) -> list[dict]:
    """Replay SR under reference noise for high vs low controller gains.

    ``trials`` must be an integer >= 1, ``demos`` non-empty and every scale
    finite and at least 0. The replays of the sweep are untraced rows of
    one ``scheduler.run_rollouts`` call.
    """
    _check_sweep(demos, trials=trials)
    for scale in scales:
        _check_replay(1.0, "reached", scale)
    cells = [(gain, cell, scale) for gain in gains
             for cell, scale in enumerate(scales)]
    ok = run_rollouts([functools.partial(_replay_row, demos[t % len(demos)],
                                         1.0, gain, "reached", scale,
                                         _trial_seed(seed, cell, t))
                       for gain, cell, scale in cells
                       for t in range(trials)], traced=False)
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
    its own policy, with the same results. ``trials`` must be an integer
    >= 1 and ``demos`` non-empty, and every c is checked before any trial
    runs. The trials' stretches are untraced rows of one
    ``scheduler.run_rollouts`` call, which raises what the first trial that
    cannot run raises; then their policies' draws are seeded together
    (``seed_ahead``) and scored in trial order.
    """
    _check_sweep(demos, trials=trials)
    _check_speedups(demos, c_values)
    cs = [c_values[t % len(c_values)] for t in range(trials)]
    ends = run_rollouts([functools.partial(_diagnostics_row, demos, c,
                                           _trial_seed(seed, 13, t))
                         for t, c in enumerate(cs)], traced=False)
    pc = PolicyConfig(p_branch=1.0, target_mode="reached")
    library = DemoLibrary(demos)
    policies = [MockPolicy(demos, pc, seed=_trial_seed(seed, 7, t),
                           library=library) for t in range(trials)]
    seed_ahead(policies, DIAG_DRAWS)
    rows = []
    for t, (c, end) in enumerate(zip(cs, ends)):
        # each policy is let go once scored, with the distance matrix it
        # keeps, so that only one is alive at a time
        policy, policies[t] = policies[t], None
        rows.append({"trial": t, **_diagnostics_score(policy, c, *end)})
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
