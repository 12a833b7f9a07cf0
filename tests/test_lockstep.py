"""The lockstep sweeps and corpus build against their per-row loops.

``sweep_noise``, ``sweep_gain_replay`` and ``generate_demos`` run their rows
through ``controller.track_lockstep``; ``lockstep_oracle`` keeps the loops
they replaced. Outputs must be equal, raised errors too. The group size at
which ``track_lockstep`` batches, the size of its reference blocks and the
number of columns its callers pass per run are module constants, varied
here so that both plants, several grid groups, several runs per call and
slices that straddle blocks are all compared.
"""
import numpy as np
import pytest

from sailx import controller, experiments, io
from sailx.controller import GAIN_PRESETS, track_lockstep, track_slices
from sailx.errors import GenerationError, SimFault
from sailx.experiments import (make_task, rows_to_csv, sweep_gain_replay,
                               sweep_noise)
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

        def spy(refs, columns, times):
            block = sample(refs, columns, times)
            sizes.add((block.shape[2], block.nbytes))
            return block

        monkeypatch.setattr(controller, "_reference_block", spy)
        generate_demos(make_task(), n=50, seed=0)
        assert {columns for columns, _ in sizes} == {50}
        assert max(nbytes for _, nbytes in sizes) < 1e6


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
