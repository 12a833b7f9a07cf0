"""The lockstep sweeps, corpus build and diagnostics against their loops.

``sweep_noise``, ``sweep_gain_replay``, ``generate_demos`` and
``run_diagnostics`` run their rows through ``controller.track_lockstep``;
``lockstep_oracle`` keeps the loops they replaced. Outputs must be equal, raised errors too. The group size at
which ``track_lockstep`` batches, the size of its reference blocks and the
number of columns its callers pass per run are module constants, varied
here so that both plants, several grid groups, several runs per call and
slices that straddle blocks are all compared.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx import controller, experiments, io
from sailx.controller import GAIN_PRESETS, track_lockstep, track_slices
from sailx.errors import GenerationError, InvalidInputError, SimFault
from sailx.experiments import (make_task, rows_to_csv, run_diagnostics,
                               sweep_gain_replay, sweep_noise)
from sailx.io import generate_demos
from sailx.core import Pose
from sailx.sim import DynamicsParams, TaskSpec

import lockstep_oracle

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
        for module in (experiments, io):
            monkeypatch.setattr(module, "LOCKSTEP_MAX_ROWS", 2)
    elif request.param == "row by row":
        monkeypatch.setattr(controller, "LOCKSTEP_MIN_ROWS", 10**9)
    return request.param


@pytest.fixture(scope="module")
def mixed_demos(demos20):
    """Demos of two lengths, so replays fall into two time grids."""
    return demos20[:4] + generate_demos(make_task(), n=4, seed=4, dt=0.045)


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

    @pytest.mark.filterwarnings("ignore:Mean of empty slice")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_empty_sweeps(self, demos20):
        assert rows_to_csv(sweep_noise(demos20, trials=0)) == \
            rows_to_csv(lockstep_oracle.sweep_noise(demos20, trials=0))
        assert rows_to_csv(sweep_gain_replay([])) == \
            rows_to_csv(lockstep_oracle.sweep_gain_replay([]))


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


def _rotated_task():
    task = make_task()
    quat = np.array([-0.7, 0.9, 1.0, 0.9])
    return TaskSpec(Pose(task.object_start.position,
                         quat / np.linalg.norm(quat)), task.goal_position)


class TestGenerateDemos:
    @pytest.mark.parametrize("task, kwargs", [
        # slices alternate 22 and 23 physics steps
        (make_task(), dict(seed=0, dt=0.045, jitter=0.0, gains="real-exec")),
        (_rotated_task(), dict(seed=1)),
        (make_task(place_tolerance=1e-4), dict(seed=0)),
        (make_task(t_max=3.0), dict(seed=0)),
        # the transport overflows the PD force: every demo faults
        (make_task(goal_position=[0.3, 1e306, 0.02]), dict(seed=0)),
    ])
    def test_matches_the_per_demo_loop(self, plant, task, kwargs):
        want = _outcome(lockstep_oracle.generate_demos, task, n=3, **kwargs)
        got = _outcome(generate_demos, task, n=3, **kwargs)
        _assert_same_demos(got, want)

    def test_a_full_corpus_batches_and_matches(self):
        n = controller.LOCKSTEP_MIN_ROWS + 1
        assert n <= controller.LOCKSTEP_MAX_ROWS
        want = lockstep_oracle.generate_demos(make_task(), n=n, seed=6)
        _assert_same_demos(generate_demos(make_task(), n=n, seed=6), want)

    def test_reference_blocks_stay_under_1_mb(self, monkeypatch):
        """The blocks of a 50-demo corpus build, one run as in perfbench."""
        sample = controller._reference_block
        sizes = set()

        def spy(group, times, out):
            sample(group, times, out)
            sizes.add((out.base.shape[2], out.base.nbytes))

        monkeypatch.setattr(controller, "_reference_block", spy)
        generate_demos(make_task(), n=50, seed=0)
        assert {columns for columns, _ in sizes} == {50}
        assert max(nbytes for _, nbytes in sizes) < 1e6


def _spaced_refs(rng, spacings, per_grid):
    """``per_grid`` references on each of the knot grids ``spacings``: every
    grid spans 0 to 1 s in its number of waypoints, so the grids share their
    start and end but not their knots. Each reference closes the gripper
    halfway, on an object it starts beside."""
    refs = []
    for n in spacings:
        times = np.linspace(0.0, 1.0, n)
        for _ in range(per_grid):
            positions = np.cumsum(rng.normal(0.0, 0.003, (n, 3)), axis=0)
            quats = rng.normal(size=(n, 4))
            quats /= np.linalg.norm(quats, axis=1)[:, None]
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
        per_grid = controller.LOCKSTEP_MIN_ROWS if plant == "default" else 3
        refs = _spaced_refs(rng, (6, 2, 9), per_grid)
        n_rows = len(refs)
        gains = [GAIN_PRESETS["high" if r % 3 else "low"]
                 for r in range(n_rows)]
        radii = rng.uniform(0.01, 0.05, n_rows)
        params = DynamicsParams()
        untils = (0.3, 0.7, 1.3)
        states = np.zeros((30, n_rows))
        states[3] = states[17] = states[25] = 1.0
        states[14:17] = rng.normal(0.0, 0.005, (3, n_rows))
        want = states.copy()
        want_steps = []
        for r in range(n_rows):
            state = want[:, r].copy()
            want_steps.append([len(trace.times) for trace in track_slices(
                state, refs[r], gains[r], params, untils, radii[r])])
            want[:, r] = state
        got_steps = [[] for _ in range(n_rows)]
        for rows, k, steps in track_lockstep(states, refs, gains, params,
                                             [untils] * n_rows, radii):
            for r in rows:
                assert len(got_steps[r]) == k
                got_steps[r].append(steps)
        assert got_steps == want_steps
        assert states.tobytes() == want.tobytes()
        # some rows grasped their object, and some did not
        assert 0 < np.count_nonzero(states[21]) < n_rows


@st.composite
def mixed_grid_cases(draw):
    """Columns on one start clock, on two or three knot grids and on slice
    lists of different lengths, one of which ends a few physics steps
    before the longest; the references of one column overflow the PD
    force. The plant step is PHYSICS_DT = 0.002 s."""
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
    refs = []
    for r in range(n_rows):
        n = spacings[grid_of[r]]
        times = np.linspace(0.0, 1.0, n)
        positions = np.cumsum(rng.normal(0.0, 0.003, (n, 3)), axis=0)
        if r == bad:
            positions[1:] = 1e306
        quats = rng.normal(size=(n, 4))
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
    return (states, refs, gains, [untils[i] for i in untils_of],
            rng.uniform(0.01, 0.05, n_rows))


class TestMixedGrids:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(mixed_grid_cases())
    def test_every_column_matches_its_slices(self, plant, case):
        states, refs, gains, untils, radii = case
        n_rows = len(refs)
        params = DynamicsParams()
        want = states.copy()
        want_slices = []
        want_faults = {}
        for r in range(n_rows):
            state = want[:, r].copy()
            slices = []
            try:
                for k, trace in enumerate(track_slices(
                        state, refs[r], gains[r], params, untils[r],
                        radii[r])):
                    slices.append((k, len(trace.times)))
            except SimFault as exc:
                want_faults[r] = str(exc)
            want_slices.append(slices)
            want[:, r] = state
        got_slices = [[] for _ in range(n_rows)]
        try:
            for rows, k, steps in track_lockstep(states, refs, gains, params,
                                                 untils, radii):
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


class TestFaults:
    @pytest.mark.parametrize("bad_rows", [(3,), (6, 3), (0, 1, 2, 3, 4, 5,
                                                         6, 7, 8)])
    def test_the_first_faulted_row_raises_and_the_rest_run_on(
            self, plant, bad_rows):
        n_rows = 9
        refs = _line_refs(n_rows, bad_rows)
        gains = [GAIN_PRESETS["high" if r % 2 else "low"]
                 for r in range(n_rows)]
        params = DynamicsParams()
        states = np.zeros((30, n_rows))
        states[3] = 1.0
        states[17] = 1.0
        states[25] = 1.0
        want_states = states.copy()
        want_faults = {}
        for r in range(n_rows):
            state = want_states[:, r].copy()
            try:
                for _ in track_slices(state, refs[r], gains[r], params,
                                      (0.4, 1.2)):
                    pass
            except SimFault as exc:
                want_faults[r] = str(exc)
            want_states[:, r] = state
        with pytest.raises(SimFault) as exc:
            for _ in track_lockstep(states, refs, gains, params,
                                    [(0.4, 1.2)] * n_rows,
                                    [0.015] * n_rows):
                pass
        first = min(bad_rows)
        assert exc.value.row == first
        assert str(exc.value) == want_faults[first]
        assert sorted(want_faults) == sorted(bad_rows)
        assert states.tobytes() == want_states.tobytes()
