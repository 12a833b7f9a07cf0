"""The lockstep sweeps, corpus build and diagnostics against their loops.

``sweep_noise``, ``sweep_gain_replay``, ``generate_demos`` and
``run_diagnostics`` run their rows through ``controller.track_lockstep``;
``lockstep_oracle`` keeps the loops they replaced. Outputs must be equal, raised errors too. The group size at
which ``track_lockstep`` batches, the size of its reference blocks and the
number of columns its callers pass per run are module constants, varied
here so that both plants, several grid groups, several runs per call and
slices that straddle blocks are all compared.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx import controller, io, kernels, scheduler, sim
from sailx.controller import GAIN_PRESETS, track_lockstep, track_slices
from sailx.errors import GenerationError, InvalidInputError, SimFault
from sailx.experiments import (make_task, rows_to_csv, run_diagnostics,
                               sweep_gain_replay, sweep_noise)
from sailx.io import generate_demos
from sailx.core import Pose
from sailx.sim import TaskSpec

import lockstep_oracle
import plant_oracle
from reference_oracle import OracleReferenceTrack

# the faulting cases overflow on purpose, in both plants
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")

DEMO_FIELDS = ("commanded", "reached", "grippers", "k", "objects",
               "object_start", "goal")


@pytest.fixture(params=["batched", "default", "row by row"])
def plant(request, monkeypatch):
    """Which plant ``track_lockstep`` picks: always batched in short
    blocks and runs of at most 2 columns, the module defaults, or never
    batched."""
    if request.param == "batched":
        monkeypatch.setattr(controller, "LOCKSTEP_MIN_ROWS", 1)
        monkeypatch.setattr(controller, "LOCKSTEP_BLOCK", 37)
        for module in (scheduler, io):
            monkeypatch.setattr(module, "LOCKSTEP_MAX_ROWS", 2)
    elif request.param == "row by row":
        monkeypatch.setattr(controller, "LOCKSTEP_MIN_ROWS", 10**9)
    return request.param


@pytest.fixture(scope="module")
def mixed_demos(demos20):
    """Demos at two intervals, so replays fall into two time grids."""
    return demos20[:4] + [dataclasses.replace(demo, dt=0.045)
                          for demo in demos20[4:8]]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (GenerationError, SimFault) as exc:
        return exc


def _assert_same_demos(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dt == b.dt
        for name in DEMO_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


class TestSweeps:
    def test_noise_sweep_matches_the_replay_loop(self, plant, demos20):
        kwargs = dict(scales=(0.0, 0.01), gains=("high", "low"), trials=5,
                      seed=3)
        got = sweep_noise(demos20, **kwargs)
        want = lockstep_oracle.sweep_noise(demos20, **kwargs)
        assert rows_to_csv(got) == rows_to_csv(want)
        assert got == want

    def test_noise_sweep_over_two_time_grids(self, plant, mixed_demos):
        kwargs = dict(scales=(0.0, 0.005), gains=("high",), trials=16,
                      seed=1)
        got = sweep_noise(mixed_demos, **kwargs)
        assert got == lockstep_oracle.sweep_noise(mixed_demos, **kwargs)

    def test_gain_replay_sweep_matches_the_replay_loop(self, plant,
                                                       mixed_demos):
        kwargs = dict(c_values=(0.5, 0.2), seed=2)
        got = sweep_gain_replay(mixed_demos, **kwargs)
        want = lockstep_oracle.sweep_gain_replay(mixed_demos, **kwargs)
        assert rows_to_csv(got) == rows_to_csv(want)
        assert got == want

    @pytest.mark.parametrize("faults", [
        # a commanded position at replay 9 fails the 0.05 s grid's fit,
        # but replay 5, on the 0.045 s grid, fails first
        {1: ("commanded", (10, 0)), 5: ("reached", (10, 6))},
        # replay 6's object start fails its set-up, after replay 5's
        # reference
        {5: ("reached", (10, 6)), 6: ("object_start", 0)},
    ], ids=["two grids", "a set-up after"])
    def test_an_invalid_replay_raises_as_in_the_replay_loop(self, plant,
                                                            mixed_demos,
                                                            faults):
        demos = list(mixed_demos)
        for d, (field, at) in faults.items():
            # set after construction, which refuses a NaN
            values = getattr(demos[d], field).copy()
            demos[d] = dataclasses.replace(demos[d], **{field: values})
            values[at] = np.nan
        errors = []
        for fn in (sweep_gain_replay, lockstep_oracle.sweep_gain_replay):
            with pytest.raises(InvalidInputError) as exc:
                fn(demos, c_values=(1.0,), seed=0)
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == "orientations must be finite"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_sweeps(self, demos20):
        """A sweep of no trials or no demos is refused, where the replay
        loop writes rows of NaN."""
        with pytest.raises(InvalidInputError, match="trials"):
            sweep_noise(demos20, trials=0)
        with pytest.raises(InvalidInputError, match="demo"):
            sweep_gain_replay([])


class TestDiagnostics:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_trial_loop(self, plant, demos20, seed):
        # 12 trials: six runs of 2 when batched, one batched run of 12
        # under the module defaults
        kwargs = dict(c_values=(1.0, 0.33, 0.2), trials=12, seed=seed)
        got = run_diagnostics(demos20, **kwargs)
        want = lockstep_oracle.run_diagnostics(demos20, **kwargs)
        assert rows_to_csv(got) == rows_to_csv(want)

    def test_a_too_short_demo_raises_as_in_the_trial_loop(self, plant,
                                                          demos20):
        # trial 1, at c = 0.1, is the first that the demo cannot hold
        kwargs = dict(c_values=(1.0, 0.1, 0.05), trials=3, seed=0)
        errors = []
        for fn in (run_diagnostics, lockstep_oracle.run_diagnostics):
            with pytest.raises(InvalidInputError) as exc:
                fn(demos20[:1], **kwargs)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert "c=0.1 " in errors[0]


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _rotated_task():
    task = make_task()
    quat = np.array([-0.7, 0.9, 1.0, 0.9])
    return TaskSpec(Pose(task.object_start.position,
                         quat / np.linalg.norm(quat)), task.goal_position)


def _wobbling_task():
    """A task whose object orientation every renormalisation moves by an
    ulp, back and forth."""
    task = make_task()
    return TaskSpec(Pose(task.object_start.position,
                         _unit([-1.0, 0.7, -0.1, 0.5])), task.goal_position)


def _far_goal_task():
    return TaskSpec(make_task().object_start, [0.3, 1e306, 0.02])


class TestGenerateDemos:
    @pytest.mark.parametrize("task, kwargs", [
        (make_task(), dict(seed=0)),
        (_rotated_task(), dict(seed=1)),
        # every demo misses the goal by more than 0.1 mm
        (make_task(), dict(seed=0, place_tolerance=1e-4)),
        # demo 0 places within 1.5 mm of the goal, demo 1 does not
        (make_task(), dict(seed=0, place_tolerance=0.0015)),
        # the transport overflows the PD force: every demo faults
        (_far_goal_task(), dict(seed=0)),
    ])
    def test_matches_the_per_demo_loop(self, plant, task, kwargs,
                                       monkeypatch):
        kwargs = dict(kwargs)
        if "place_tolerance" in kwargs:
            monkeypatch.setattr(sim, "PLACE_TOLERANCE",
                                kwargs.pop("place_tolerance"))
        want = _outcome(lockstep_oracle.generate_demos, task, n=3, **kwargs)
        got = _outcome(generate_demos, task, n=3, **kwargs)
        _assert_same_demos(got, want)

    def test_a_full_corpus_batches_and_matches(self):
        n = controller.LOCKSTEP_MIN_ROWS + 1
        assert n <= controller.LOCKSTEP_MAX_ROWS
        want = lockstep_oracle.generate_demos(make_task(), n=n, seed=6)
        _assert_same_demos(generate_demos(make_task(), n=n, seed=6), want)

    @pytest.mark.parametrize("task", [_rotated_task(), _wobbling_task()],
                             ids=["rotated", "wobbling"])
    def test_a_rotated_object_stops_at_each_slice_end(self, task,
                                                      monkeypatch):
        """A batch wide enough for lockstep on a task whose object is not at
        the identity orientation: every at-rest call stops at the next
        slice end, where the corpus build renormalises the object's pose,
        as the per-demo loop does between two slices; the wobbling pose
        records a different bit at each."""
        marks = []
        at_rest = controller._track_at_rest

        def marked(*args):
            marks.append(list(args[7]))
            return at_rest(*args)

        monkeypatch.setattr(controller, "_track_at_rest", marked)
        n = controller.LOCKSTEP_MIN_ROWS + 1
        want = lockstep_oracle.generate_demos(task, n=n, seed=1)
        got = generate_demos(task, n=n, seed=1)
        _assert_same_demos(got, want)
        slices = len(want[0]) - 1
        assert len(marks) >= slices and not any(marks)

    def test_a_50_demo_build_runs_through_slice_ends(self, monkeypatch):
        """A 50-demo corpus build, one run as in perfbench: one at-rest call
        per reference block, each through the slice ends inside it."""
        calls = {"_track_at_rest": [], "_sample_block": []}
        for name, spied in calls.items():
            monkeypatch.setattr(controller, name, functools.partial(
                _spy, getattr(controller, name), spied))
        demos = generate_demos(make_task(), n=50, seed=0)
        slices = len(demos[0]) - 1
        blocks = len(calls["_sample_block"])
        steps = controller.LOCKSTEP_BLOCK // 50
        assert slices == 114 and blocks == math.ceil(slices * 25 / steps)
        assert len(calls["_track_at_rest"]) == blocks == 18
        marks = sum(len(args[7]) for args in calls["_track_at_rest"])
        assert marks == slices - 1

    def test_reference_blocks_stay_under_1_mb(self, monkeypatch):
        """The blocks of a 50-demo corpus build, one run as in perfbench."""
        sample = controller._sample_block
        sizes = set()

        def spy(*args):
            block = sample(*args)
            sizes.add((block.shape[2], block.nbytes))
            return block

        monkeypatch.setattr(controller, "_sample_block", spy)
        generate_demos(make_task(), n=50, seed=0)
        assert {columns for columns, _ in sizes} == {50}
        assert max(nbytes for _, nbytes in sizes) < 1e6


def _spy(fn, calls, *args):
    calls.append(args)
    return fn(*args)


def _spaced_refs(rng, spacings, per_grid):
    """``per_grid`` references on each of the knot grids ``spacings``: every
    grid spans 0 to 1 s in its number of waypoints, so the grids share their
    start and end but not their knots. Each reference holds the identity
    orientation, so that a batch of them steps in lockstep, and closes the
    gripper halfway."""
    refs = []
    for n in spacings:
        times = np.linspace(0.0, 1.0, n)
        for _ in range(per_grid):
            positions = np.cumsum(rng.normal(0.0, 0.003, (n, 3)), axis=0)
            quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
            refs.append(controller.ReferenceTrack(
                times, positions, quats,
                grippers=np.where(times < 0.5, 0.0, 1.0)))
    return refs


class TestGrouping:
    def test_references_on_different_knots_match_their_slices(self, plant):
        """One call whose rows share start time and untils but fall on
        three knot grids, a 2-waypoint line among them."""
        rng = np.random.default_rng(8)
        # under the module defaults, each grid alone is wide enough to batch
        per_grid = 10 if plant == "default" else 3
        assert plant != "default" or per_grid >= controller.LOCKSTEP_MIN_ROWS
        refs = _spaced_refs(rng, (6, 2, 9), per_grid)
        n_rows = len(refs)
        gains = [GAIN_PRESETS["high" if r % 3 else "low"]
                 for r in range(n_rows)]
        untils = (0.3, 0.7, 1.3)
        states = np.zeros((30, n_rows))
        states[3] = states[17] = states[25] = 1.0
        # the objects of odd rows lie 5 cm off their reference's closing
        # pose, beyond the grasp radius; the others lie beside it
        for r, ref in enumerate(refs):
            pos, *_ = ref.sample(np.array([0.6]))
            states[14:17, r] = (pos[0] + rng.normal(0.0, 0.002, 3)
                                + [0.05 * (r % 2), 0.0, 0.0])
        want = states.copy()
        want_steps = []
        for r in range(n_rows):
            state = want[:, r].copy()
            want_steps.append([len(trace.times) for trace in track_slices(
                state, refs[r], gains[r], untils)])
            want[:, r] = state
        got_steps = [[] for _ in range(n_rows)]
        for rows, k, steps in track_lockstep(states, refs, gains,
                                             [untils] * n_rows):
            for r in rows:
                assert len(got_steps[r]) == k
                got_steps[r].append(steps)
        assert got_steps == want_steps
        assert states.tobytes() == want.tobytes()
        # the even rows grasped their object, and the odd ones did not
        assert states[21].tolist() == [float(r % 2 == 0)
                                       for r in range(n_rows)]


@st.composite
def mixed_grid_cases(draw):
    """Columns on one start clock, on two or three knot grids and on slice
    lists of different lengths, one of which ends a few physics steps
    before the longest; the references of one column overflow the PD
    force, so that a lockstep batch stops that column at its fault, on its
    own step times. The references hold the identity
    orientation, or in some cases turn, which runs the batch row by row.
    The plant step is PHYSICS_DT = 0.002 s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacings = draw(st.lists(st.integers(2, 9), min_size=2, max_size=3,
                             unique=True))
    t0 = draw(st.sampled_from([0.0, 0.05, 0.1234]))
    # the slices of one list end where the others' do not; sorted, so that
    # the last time is the end of the longest list; repeats and times
    # before the clock make empty slices
    longest = sorted(draw(st.lists(st.floats(0.0, 0.3), min_size=2,
                                   max_size=4)))
    shorter = sorted(draw(st.lists(st.floats(0.0, 0.3), min_size=1,
                                   max_size=len(longest) - 1)))
    early = draw(st.integers(1, 5))
    untils = [tuple(t0 + t for t in longest),
              tuple(t0 + t for t in shorter),
              tuple(t0 + t for t in longest[:-1])
              + (t0 + longest[-1] - 0.002 * early,)]
    n_rows = draw(st.integers(10, 13))
    grid_of = draw(st.lists(st.integers(0, len(spacings) - 1),
                            min_size=n_rows, max_size=n_rows))
    untils_of = draw(st.lists(st.integers(0, len(untils) - 1),
                              min_size=n_rows, max_size=n_rows))
    bad = draw(st.integers(0, n_rows - 1))
    turning = draw(st.booleans())
    refs = []
    for r in range(n_rows):
        n = spacings[grid_of[r]]
        times = np.linspace(0.0, 1.0, n)
        positions = np.cumsum(rng.normal(0.0, 0.003, (n, 3)), axis=0)
        if r == bad:
            positions[1:] = 1e306
        quats = rng.normal(size=(n, 4)) if turning else np.tile(
            [1.0, 0.0, 0.0, 0.0], (n, 1))
        quats /= np.linalg.norm(quats, axis=1)[:, None]
        refs.append(controller.ReferenceTrack(
            times, positions, quats,
            grippers=np.where(times < 0.1, 0.0, 1.0)))
    # the overflowing column runs the longest slices under high gains
    untils_of[bad] = 0
    gains = [GAIN_PRESETS["high" if r == bad or rng.random() < 0.5
                          else "low"] for r in range(n_rows)]
    states = np.zeros((30, n_rows))
    states[3] = states[17] = states[25] = 1.0
    states[14:17] = rng.normal(0.0, 0.005, (3, n_rows))
    states[29] = t0
    return states, refs, gains, [untils[i] for i in untils_of]


class TestMixedGrids:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(mixed_grid_cases())
    def test_every_column_matches_its_slices(self, plant, case):
        states, refs, gains, untils = case
        n_rows = len(refs)
        want = states.copy()
        want_slices = []
        want_faults = {}
        for r in range(n_rows):
            state = want[:, r].copy()
            slices = []
            try:
                for k, trace in enumerate(track_slices(
                        state, refs[r], gains[r], untils[r])):
                    slices.append((k, len(trace.times)))
            except SimFault as exc:
                want_faults[r] = str(exc)
            want_slices.append(slices)
            want[:, r] = state
        got_slices = [[] for _ in range(n_rows)]
        try:
            for rows, k, steps in track_lockstep(states, refs, gains,
                                                 untils):
                for r in rows:
                    got_slices[r].append((k, steps))
        except SimFault as exc:
            first = min(want_faults)
            assert exc.row == first and str(exc) == want_faults[first]
        else:
            assert not want_faults
        assert got_slices == want_slices
        assert states.tobytes() == want.tobytes()


def _line_refs(n_rows, bad_rows):
    """Straight references; those of ``bad_rows`` overflow the PD force."""
    refs = []
    for r in range(n_rows):
        positions = np.outer(np.linspace(0.0, 1.0, 5), [0.1, 0.02 * r, 0.0])
        if r in bad_rows:
            positions[2, 0] = 3e306
        refs.append(controller.ReferenceTrack(
            np.linspace(0.0, 1.0, 5), positions, np.tile([1.0, 0, 0, 0],
                                                         (5, 1)),
            grippers=np.zeros(5)))
    return refs


class TestClocks:
    def test_columns_on_two_start_clocks_are_refused(self, plant):
        n_rows = 4
        refs = _line_refs(n_rows, ())
        states = np.zeros((30, n_rows))
        states[3] = states[17] = states[25] = 1.0
        states[29, 2] = 0.1
        before = states.copy()
        with pytest.raises(InvalidInputError, match="start clock"):
            for _ in track_lockstep(states, refs,
                                    [GAIN_PRESETS["high"]] * n_rows,
                                    [(0.4, 1.2)] * n_rows):
                pass
        assert states.tobytes() == before.tobytes()


class TestFaults:
    @pytest.mark.parametrize("bad_rows", [(3,), (6, 3), (0, 1, 2, 3, 4, 5,
                                                         6, 7, 8)])
    def test_the_first_faulted_row_raises_and_the_rest_run_on(
            self, plant, bad_rows):
        n_rows = 9
        refs = _line_refs(n_rows, bad_rows)
        gains = [GAIN_PRESETS["high" if r % 2 else "low"]
                 for r in range(n_rows)]
        states = np.zeros((30, n_rows))
        states[3] = 1.0
        states[17] = 1.0
        states[25] = 1.0
        want_states = states.copy()
        want_faults = {}
        for r in range(n_rows):
            state = want_states[:, r].copy()
            try:
                for _ in track_slices(state, refs[r], gains[r], (0.4, 1.2)):
                    pass
            except SimFault as exc:
                want_faults[r] = str(exc)
            want_states[:, r] = state
        with pytest.raises(SimFault) as exc:
            for _ in track_lockstep(states, refs, gains,
                                    [(0.4, 1.2)] * n_rows):
                pass
        first = min(bad_rows)
        assert exc.value.row == first
        assert str(exc.value) == want_faults[first]
        assert sorted(want_faults) == sorted(bad_rows)
        assert states.tobytes() == want_states.tobytes()

    def test_a_fault_just_after_a_slice_end_yields_that_slice(self, plant):
        """Row 3 is unstable, and its first slice ends just before the step
        whose force overflows: the run yields that slice, as
        ``track_slices`` does, and then stops the row; a lockstep call runs
        through that slice end and finds the fault right after it."""
        n_rows = 9
        refs = _line_refs(n_rows, ())
        gains = [GAIN_PRESETS["high" if r % 2 else "low"]
                 for r in range(n_rows)]
        gains[3] = controller.GainProfile(1e8, 0.0, 400.0, 40.0)
        states = np.zeros((30, n_rows))
        states[3] = states[17] = states[25] = 1.0
        state = states[:, 3].copy()
        with pytest.raises(SimFault) as exc:
            for _ in track_slices(state, refs[3], gains[3], (1.2,)):
                pass
        step = round(float(str(exc.value).split("=")[1]) / sim.PHYSICS_DT)
        untils = (sim.PHYSICS_DT * (step - 1), 1.2)
        want_states = states.copy()
        want_steps, want_faults = [], {}
        for r in range(n_rows):
            state = want_states[:, r].copy()
            want_steps.append([])
            try:
                for trace in track_slices(state, refs[r], gains[r], untils):
                    want_steps[r].append(len(trace.times))
            except SimFault as fault:
                want_faults[r] = str(fault)
            want_states[:, r] = state
        assert want_steps[3] == [step - 1] and list(want_faults) == [3]
        got_steps = [[] for _ in range(n_rows)]
        with pytest.raises(SimFault) as exc:
            for rows, k, steps in track_lockstep(states, refs, gains,
                                                 [untils] * n_rows):
                for r in rows:
                    assert len(got_steps[r]) == k
                    got_steps[r].append(steps)
        assert exc.value.row == 3 and str(exc.value) == want_faults[3]
        assert got_steps == want_steps
        assert states.tobytes() == want_states.tobytes()


def _slice_times(t, untils):
    """The step times of each slice to ``untils`` from the clock ``t``, as
    ``track_slices`` documents them: round((until - t) / dt) steps, at least
    0, with t advanced by sequential additions."""
    dt = sim.PHYSICS_DT
    slices = []
    for until in untils:
        n = max(int(round((until - t) / dt)), 0)
        slices.append(t + dt * (np.arange(n) + 1))
        for _ in range(n):
            t += dt
    return slices


@st.composite
def identity_cases(draw, kind, offset=0):
    """Columns on identity references, enough to step in lockstep, on two
    knot grids and two slice grids of two slices, which end together one
    block of LOCKSTEP_BLOCK row-steps and 30 steps on; the slice grids'
    step times differ in their last bits after the first slice. Column 0,
    on the first slice grid, holds the ``kind`` under test:

    - "negative zero": waypoints whose vector parts hold -0.0;
    - "fault": a reference that overflows the PD force inside a block, so
      that an at-rest call names the step, runs again up to it, and the
      column stops there;
    - "edge": a grasp or a release on the last step of the first block or
      the first step of the next;
    - "slice end": a grasp or a release ``offset`` steps after the first
      slice's end, which the lockstep run passes without stopping: at -1
      on the slice's last step, at 0 on the next slice's first;
    - "rotated object": an object whose orientation and gripper-frame
      orientation are not the identity, which makes the run stop at every
      slice end;
    - "turned": a robot that does not start at rest, so that the batch
      runs row by row on ``track_slices``, where it reads the signed-zero
      rates of waypoints whose vector parts hold -0.0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(controller.LOCKSTEP_MIN_ROWS,
                              controller.LOCKSTEP_MIN_ROWS + 2))
    s = controller.LOCKSTEP_BLOCK // n_rows  # the steps of one block
    dt = sim.PHYSICS_DT
    t0 = draw(st.sampled_from([0.0, 0.1234]))
    firsts = draw(st.lists(st.integers(2 if kind == "slice end" else 1,
                                       s - 1), min_size=2, max_size=2,
                           unique=True))
    grid_untils = [(t0 + dt * first, t0 + dt * (s + 30)) for first in firsts]
    step_times = np.concatenate(_slice_times(t0, grid_untils[0]))
    span = (t0 - 0.01, step_times[-1] + 0.05)
    grids = [np.linspace(*span, m) for m in draw(st.lists(
        st.integers(2, 6), min_size=2, max_size=2, unique=True))]
    states = np.zeros((30, n_rows))
    states[3] = states[17] = states[25] = 1.0
    states[14:17] = rng.normal(0.0, 0.005, (3, n_rows))
    states[13] = states[21] = rng.choice([0.0, 1.0], n_rows)
    states[29] = t0
    refs, gains = [], []
    for r in range(n_rows):
        times = grids[draw(st.integers(0, 1))]
        m = len(times)
        positions = np.cumsum(rng.normal(0.0, 0.002, (m, 3)), axis=0)
        grippers = rng.choice([0.0, 1.0], m)
        quats = np.zeros((m, 4))
        quats[:, 0] = 1.0
        if kind in ("negative zero", "turned"):
            quats[:, 1:] = np.where(rng.random((m, 3)) < 0.5, -0.0, 0.0)
            if r == 0:
                quats[draw(st.integers(0, m - 1)), 1:] = -0.0
        if r == 0 and kind == "fault":
            # a waypoint of 1e307 m per 0.3 s of knot spacing: the force
            # overflows about two knots before it
            times = np.linspace(*span, 9)
            positions = np.zeros((9, 3))
            positions[draw(st.integers(5, 7)), 0] = \
                1e307 * (times[1] - times[0]) / 0.3
            grippers = np.zeros(9)
            quats = np.tile([1.0, 0.0, 0.0, 0.0], (9, 1))
        elif r == 0 and kind in ("edge", "slice end"):
            # the command holds the gripper just short of 0.5, then crosses
            # it at the step whose time is the middle waypoint's
            edge = (draw(st.sampled_from([s - 1, s])) if kind == "edge"
                    else firsts[0] + offset)
            grasp = draw(st.booleans())
            times = np.array([span[0], step_times[edge], span[1]])
            positions = np.zeros((3, 3))
            quats = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
            states[13, 0] = 0.49 if grasp else 0.51
            states[21, 0] = 0.0 if grasp else 1.0
            grippers = np.array([states[13, 0], float(grasp), float(grasp)])
            states[14:17, 0] = [0.004, -0.003, 0.002]
        elif r == 0 and kind == "turned":
            states[3:7, 0] = _unit([0.9, 0.1, -0.3, 0.2])
        elif r == 0 and kind == "rotated object":
            # carried or not, the object keeps a rotation
            states[17:21, 0] = states[25:29, 0] = _unit([0.9, 0.1, -0.3,
                                                         0.2])
        refs.append((times, positions, quats, grippers))
        gains.append(GAIN_PRESETS["high" if r == 0 or rng.random() < 0.5
                                  else "low"])
    untils = [grid_untils[r % 2] for r in range(n_rows)]
    return states, refs, gains, untils


def _oracle_column(state, ref, gain, untils):
    """One column on ``reference_oracle`` samples and the ``plant_oracle``
    plant, slice by slice: its steps per slice, the events of every step,
    and the message of its fault, if one ends it."""
    oracle = OracleReferenceTrack(*ref)
    steps, events = [], []
    for times in _slice_times(float(state[29]), untils):
        n = len(times)
        outs = [np.empty((n, 3)), np.empty((n, 4)), np.empty(n),
                np.empty(n), np.zeros(n, dtype=np.int8)]
        with np.errstate(all="ignore"):
            fault = plant_oracle.track_loop(
                state, *oracle.sample(times), gain.kp_pos, gain.kv_pos,
                gain.kp_ori, gain.kv_ori, 1.0, 1.0, sim.PHYSICS_DT,
                sim.GRIPPER_SLEW, sim.GRASP_RADIUS, 0.0, *outs)
        if fault >= 0:
            events.extend(outs[4][:fault])
            return steps, events, f"non-finite wrench at t={times[fault]:.4f}"
        steps.append(n)
        events.extend(outs[4])
    return steps, events, None


class TestIdentityReferences:
    """Lockstep runs on identity references, on rest-form blocks at the
    module's LOCKSTEP_BLOCK, against the column loop of ``lockstep_oracle``
    (``track_slices``) and against ``plant_oracle`` on ``reference_oracle``
    samples, bit for bit. Whether a column leaves the at-rest plant before
    its last slice shows in what ``_track_at_rest`` returns: a
    ``RestFault`` where a column faults, and no call at all where the
    batch runs row by row. Whether a case's at-rest calls run through a
    slice end shows in the marks they take."""

    # whether a case's at-rest calls run through a slice end; a fault's
    # calls may or may not
    THROUGH = {"negative zero": True, "fault": None, "edge": True,
               "slice end": True, "rotated object": False, "turned": False}

    @pytest.mark.parametrize("kind, leaves", [
        ("negative zero", False), ("fault", True), ("edge", False),
        ("turned", True)])
    def test_columns_match_both_oracles(self, kind, leaves, monkeypatch):
        self._check(kind, 0, leaves, monkeypatch)

    @pytest.mark.parametrize("kind, offset", [
        ("slice end", -2), ("slice end", -1), ("slice end", 0),
        ("slice end", 1), ("rotated object", 0)],
        ids=["slice end -2", "slice end -1", "slice end 0", "slice end +1",
             "rotated object"])
    def test_slice_ends_match_both_oracles(self, kind, offset, monkeypatch):
        self._check(kind, offset, False, monkeypatch)

    def _check(self, kind, offset, leaves, monkeypatch):
        through = self.THROUGH[kind]
        calls = []  # what each _track_at_rest call returns
        marks = []
        at_rest = controller._track_at_rest

        def marked(*args):
            marks.extend(args[7])
            calls.append(at_rest(*args))
            return calls[-1]

        monkeypatch.setattr(controller, "_track_at_rest", marked)

        @settings(max_examples=3, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(identity_cases(kind, offset))
        def check(case):
            states, refs, gains, untils = case
            n_rows = len(refs)
            want = states.copy()
            oracle = [_oracle_column(want[:, r], refs[r], gains[r],
                                     untils[r])
                      for r in range(n_rows)]
            loop = states.copy()
            loop_faults = {}
            for r in range(n_rows):
                state = loop[:, r].copy()
                try:
                    for _ in track_slices(state, controller.ReferenceTrack(
                            *refs[r]), gains[r], untils[r]):
                        pass
                except SimFault as exc:
                    loop_faults[r] = str(exc)
                loop[:, r] = state
            calls.clear()
            marks.clear()
            got_steps = [[] for _ in range(n_rows)]
            tracks = [controller.ReferenceTrack(*ref) for ref in refs]
            try:
                for rows, k, steps in track_lockstep(states, tracks, gains,
                                                     untils):
                    for r in rows:
                        assert len(got_steps[r]) == k
                        got_steps[r].append(steps)
            except SimFault as exc:
                assert exc.row == 0 and kind == "fault"
                assert str(exc) == oracle[0][2] == loop_faults[0]
            else:
                assert kind != "fault" and not loop_faults
            assert got_steps == [steps for steps, _, _ in oracle]
            assert states.tobytes() == want.tobytes() == loop.tobytes()
            assert leaves == (not calls or any(
                isinstance(rest, kernels.RestFault) for rest in calls))
            if kind == "turned":
                assert not calls
            if through is not None:
                assert bool(marks) == through
            s = controller.LOCKSTEP_BLOCK // n_rows
            if kind == "fault":
                # the first overflow lies inside a block, not on its edge
                fault_step = len(oracle[0][1])
                assert 0 < fault_step and fault_step % s
            if kind == "edge":
                events = np.flatnonzero(oracle[0][1])
                assert events.tolist() in ([s - 1], [s])
            if kind == "slice end":
                # on column 0's first slice end, which a call ran through
                first = oracle[0][0][0]
                assert first in marks
                events = np.flatnonzero(oracle[0][1])
                assert events.tolist() == [first + offset]

        check()


class TestTurningBatches:
    @pytest.mark.parametrize("waypoint", [
        [0.9, 0.1, -0.3, 0.2], [1.0, 0.0, 0.0, 5e-324], [-1.0, 0.0, 0.0, 0.0],
        [1.0 + 2.0**-52, 0.0, 0.0, 0.0]],
        ids=["turning", "vector 5e-324", "w -1", "w 1 + ulp"])
    def test_a_turning_reference_runs_the_batch_row_by_row(
            self, waypoint, monkeypatch):
        """A batch wide enough for lockstep, with one reference whose
        waypoint is off the identity, never reaches ``_track_at_rest`` and
        matches ``track_slices`` bit for bit; on identity waypoints alone
        the same batch steps at rest."""
        calls = []
        at_rest = controller._track_at_rest

        def counted(*args):
            calls.append(args[1].shape)
            return at_rest(*args)

        monkeypatch.setattr(controller, "_track_at_rest", counted)
        n_rows = controller.LOCKSTEP_MIN_ROWS + 1
        gains = [GAIN_PRESETS["high" if r % 2 else "low"]
                 for r in range(n_rows)]
        untils = (0.4, 1.2)
        for turning in (False, True):
            refs = _line_refs(n_rows, ())
            if turning:
                quats = refs[3].orientations.copy()
                quats[2] = waypoint
                refs[3] = controller.ReferenceTrack(
                    refs[3].times, refs[3].positions, quats,
                    grippers=np.where(refs[3].times < 0.5, 0.0, 1.0))
            states = np.zeros((30, n_rows))
            states[3] = states[17] = states[25] = 1.0
            states[14:17] = np.outer([0.0, 0.002, 0.0], np.arange(n_rows))
            want = states.copy()
            want_steps = []
            for r in range(n_rows):
                state = want[:, r].copy()
                want_steps.append([len(trace.times) for trace in
                                   track_slices(state, refs[r], gains[r],
                                                untils)])
                want[:, r] = state
            got_steps = [[] for _ in range(n_rows)]
            calls.clear()
            for rows, k, steps in track_lockstep(states, refs, gains,
                                                 [untils] * n_rows):
                for r in rows:
                    assert len(got_steps[r]) == k
                    got_steps[r].append(steps)
            assert got_steps == want_steps
            assert states.tobytes() == want.tobytes()
            assert bool(calls) != turning
