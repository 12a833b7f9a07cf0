"""Closed-loop rollouts stepped together against one loop per rollout.

``scheduler.run_rollouts`` plans every rollout on its own policy and tracks
all of them, cycle by cycle, in one ``controller.track_lockstep`` call;
``run_rollout`` is its one-rollout case, and ``experiments.
run_method_rollouts`` hands it a sweep's rollouts, which it steps in
chunks of LOCKSTEP_MAX_ROWS. Open-loop replays run on the same driver,
alone or among closed-loop rollouts. Every field of every rollout's
RolloutLog must have the bits of ``rollout_oracle.run_rollout`` or
``rollout_oracle.replay_rollout``, the loops they replaced, and an error
must be the one that loop raises first.
"""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sailx import controller, experiments, scheduler
from sailx.controller import GainProfile, gain_profile
from sailx.core import Pose
from sailx.errors import InvalidInputError, SimFault

import rollout_oracle

# the faulting cases overflow on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning")

METHODS = ("sail", "dp", "dp-fast", "agg-actions")
C_VALUES = (1.0, 0.5, 0.33, 0.2)
# batch sizes on both sides of the lockstep plant's LOCKSTEP_MIN_ROWS
SIZES = (1, 6, 7, 8, 13)

# (method, c, use_eag, seed) of a rollout on the demos20 corpus
rollouts = st.tuples(st.sampled_from(METHODS), st.sampled_from(C_VALUES),
                     st.sampled_from([None, True, False]),
                     st.integers(0, 39))
batches = st.sampled_from(SIZES).flatmap(
    lambda n: st.lists(rollouts, min_size=n, max_size=n))

# dp at c = 1 on seed 0 fails and runs to T_MAX; the others succeed in
# different cycles
T_MAX_BATCH = [("dp", 1.0, None, 0), ("sail", 1.0, None, 1),
               ("sail", 0.2, False, 2), ("dp-fast", 0.5, None, 3),
               ("agg-actions", 0.33, None, 4), ("sail", 0.33, True, 5),
               ("dp", 0.2, True, 6), ("sail", 0.5, None, 7)]


def _args(demos, method, c, use_eag, seed, gains=None):
    """The run_rollout arguments of a rollout, as run_method_rollouts sets
    it up, with a fresh policy."""
    setup = experiments.method_setup(method, c, use_eag=use_eag)
    demo = demos[seed % len(demos)]
    start = Pose(demo.reached[0, :3].copy(), demo.reached[0, 3:7].copy())
    policy = setup.policy_class(demos, setup.policy_config, seed=seed)
    return (policy, experiments.task_for_demo(demo), setup.exec_config,
            gains or gain_profile(setup.gains), start, seed)


def _bits(value):
    """A comparable record of a RolloutLog field, arrays by their bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, list) and value and isinstance(
            value[0], scheduler.ActionChunk):
        return [tuple(_bits(getattr(chunk, f.name))
                      for f in dataclasses.fields(chunk)) for chunk in value]
    if isinstance(value, list):
        return [(type(v), repr(v)) for v in value]
    return type(value), repr(value)


def _assert_same_logs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in dataclasses.fields(scheduler.RolloutLog):
            assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), \
                f.name


def _closed_row(demos, *row, gains=None):
    """A closed-loop rollout as a row of ``scheduler.run_rollouts``."""
    return functools.partial(scheduler._rollout_row,
                             *_args(demos, *row, gains=gains))


def _oracle_logs(demos, batch):
    return [rollout_oracle.run_rollout(*_args(demos, *row)) for row in batch]


def _replay(k, gains=None):
    """("replay", c, gains, target, noise_scale, seed) of replay k: k =
    0-11 take every pair of c and gains, and both streams with and without
    noise."""
    return ("replay", (1.0, 0.5, 0.2, 0.1)[k % 4],
            gains or ("high", "low", "real-exec")[k % 3],
            ("reached", "commanded")[k // 2 % 2], (0.0, 0.004)[k // 4 % 2], k)


def _closed(k):
    return ("sail", (1.0, 0.5, 0.2)[k % 3], None, k)


# replays alone and among closed-loop rollouts, in batches on both sides
# of LOCKSTEP_MIN_ROWS; in the last, replay 3's plant goes unstable
REPLAY_BATCHES = {
    "1 replay": [_replay(0)],
    "6 replays": [_replay(k) for k in range(6)],
    "7 replays": [_replay(k) for k in range(7)],
    "13 replays": [_replay(k) for k in range(13)],
    "8 mixed": [_replay(k) if k % 2 else _closed(k) for k in range(8)],
    "13 mixed": [_replay(k) if k % 3 else _closed(k) for k in range(13)],
    "a replay faults": [_replay(k, "unstable" if k == 3 else None)
                        if k % 4 else _closed(k) for k in range(8)],
}


def _row(demos, row):
    """A row of ``scheduler.run_rollouts`` and the oracle call that gives
    its result, each with a fresh policy."""
    if row[0] != "replay":
        return (_closed_row(demos, *row),
                lambda: rollout_oracle.run_rollout(*_args(demos, *row)))
    _, c, gains, target, noise_scale, seed = row
    args = (demos[seed % len(demos)], c, gains, target, noise_scale, seed)
    return (functools.partial(experiments._replay_row, *args),
            lambda: rollout_oracle.replay_rollout(*args))


class TestRunRollouts:
    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(batch=batches)
    @example(batch=T_MAX_BATCH)
    @example(batch=T_MAX_BATCH[:6])
    @example(batch=[("sail", 0.2, None, 8)])
    @example(batch=[(m, c, e, s) for s, (m, c, e) in enumerate(
        (m, c, e) for m in METHODS for c in (1.0, 0.2)
        for e in (True, False))][:13])
    def test_every_field_matches_the_loop(self, demos20, batch):
        got = scheduler.run_rollouts([_closed_row(demos20, *row)
                                      for row in batch])
        _assert_same_logs(got, _oracle_logs(demos20, batch))

    def test_a_rollout_to_t_max_beside_rollouts_that_succeed(self, demos20):
        got = scheduler.run_rollouts([_closed_row(demos20, *row)
                                      for row in T_MAX_BATCH])
        assert not got[0].success
        assert got[0].duration == pytest.approx(scheduler.T_MAX)
        assert all(log.success for log in got[1:])
        # the rollouts left the lockstep run in different cycles
        assert len({len(log.chunks) for log in got[1:]}) > 1

    @pytest.mark.parametrize("size", [3, 8])
    def test_the_first_rollout_to_fail_raises(self, demos20, size):
        """Rollouts whose gains make the plant unstable fault: the second
        after a few cycles, the last in its first moving stretch. The
        driver raises what the loop raises, the second one's SimFault."""
        batch = T_MAX_BATCH[1:size + 1]
        gains = [None] * len(batch)
        gains[1] = GainProfile(1.05e6, 0.0, 400.0, 40.0)
        gains[-1] = GainProfile(1e306, 1e306, 400.0, 40.0)
        with pytest.raises(SimFault) as want:
            for row, g in zip(batch, gains):
                rollout_oracle.run_rollout(*_args(demos20, *row, gains=g))
        with pytest.raises(SimFault) as got:
            scheduler.run_rollouts([_closed_row(demos20, *row, gains=g)
                                    for row, g in zip(batch, gains)])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cycle", [0, 1])
    @pytest.mark.parametrize("order", ["alone", "first", "second"])
    def test_an_invalid_reference_raises_its_error(self, demos20, cycle,
                                                   order):
        """A row whose planner yields a NaN position in the given cycle
        raises what its ReferenceTrack raises, also when it is the cycle's
        first live row, which leaves no row to track."""
        bad = _invalid_at(_closed_row(demos20, *_closed(0)), cycle)
        good = _closed_row(demos20, *_closed(1))
        rows = {"alone": [bad], "first": [bad, good],
                "second": [good, bad]}[order]
        with pytest.raises(InvalidInputError,
                           match="positions must be finite"):
            scheduler.run_rollouts(rows)


def _invalid_at(row, cycle):
    """``row`` with a NaN position in the reference its planner yields in
    the given cycle."""
    def set_up():
        state, gains, planner = row()

        def plan():
            waypoints, until = next(planner)
            for _ in range(cycle):
                waypoints, until = planner.send((yield waypoints, until))
            times, positions, *rest = waypoints
            positions = positions.copy()
            positions[-1, 0] = np.nan
            yield (times, positions, *rest), until

        return state, gains, plan()
    return set_up


class TestReplays:
    @pytest.mark.parametrize("name", REPLAY_BATCHES)
    def test_every_field_matches_the_replay_loop(self, demos20, monkeypatch,
                                                 name):
        monkeypatch.setitem(controller.GAIN_PRESETS, "unstable",
                            GainProfile(1e306, 1e306, 400.0, 40.0))
        batch = REPLAY_BATCHES[name]
        want = []
        try:
            for row in batch:
                want.append(_row(demos20, row)[1]())
        except SimFault as fault:
            with pytest.raises(SimFault) as got:
                scheduler.run_rollouts([_row(demos20, row)[0]
                                        for row in batch])
            assert str(got.value) == str(fault)
            return
        got = scheduler.run_rollouts([_row(demos20, row)[0] for row in batch])
        _assert_same_logs(got, want)
        if all(row[0] == "replay" for row in batch):
            assert scheduler.run_rollouts(
                [_row(demos20, row)[0] for row in batch],
                traced=False) == [log.success for log in want]


    def test_a_slow_replay_stops_at_t_max(self, demos20):
        # at c = 20 the demo's last waypoint lies past 110 s
        log = experiments.replay_rollout(demos20[0], c=20.0)
        assert log.times[-1] <= scheduler.T_MAX
        assert not log.success
        assert log.duration == scheduler.T_MAX


class TestChunks:
    """run_rollouts steps LOCKSTEP_MAX_ROWS rows at a time, here 4, and
    sets up each chunk's rows when the chunk starts."""

    @pytest.mark.parametrize("min_rows", [None, 1],
                             ids=["default plant", "lockstep plant"])
    def test_mixed_rows_match_the_loops(self, demos20, monkeypatch,
                                        min_rows):
        monkeypatch.setattr(scheduler, "LOCKSTEP_MAX_ROWS", 4)
        if min_rows is not None:
            monkeypatch.setattr(controller, "LOCKSTEP_MIN_ROWS", min_rows)
        batch = [_replay(k) if k % 3 else _closed(k) for k in range(10)]
        rows, oracles = zip(*(_row(demos20, row) for row in batch))
        got = scheduler.run_rollouts(list(rows))
        _assert_same_logs(got, [oracle() for oracle in oracles])

    def test_a_row_that_fails_in_the_second_chunk(self, demos20,
                                                  monkeypatch):
        """Replay 5's plant goes unstable: its SimFault raises once the
        first chunk's rows have run and the second chunk is done, and no
        row of the third chunk is set up."""
        monkeypatch.setattr(scheduler, "LOCKSTEP_MAX_ROWS", 4)
        monkeypatch.setitem(controller.GAIN_PRESETS, "unstable",
                            GainProfile(1e306, 1e306, 400.0, 40.0))
        batch = [_replay(k, "unstable" if k == 5 else None)
                 for k in range(12)]
        with pytest.raises(SimFault) as want:
            for row in batch:
                _row(demos20, row)[1]()
        set_up, finished = [], []

        def recorded(k, row):
            def set_up_row():
                set_up.append(k)
                state, gains, planner = row()

                def plan():
                    result = yield from planner
                    finished.append(k)
                    return result

                return state, gains, plan()
            return set_up_row

        with pytest.raises(SimFault) as got:
            scheduler.run_rollouts([recorded(k, _row(demos20, row)[0])
                                    for k, row in enumerate(batch)])
        assert str(got.value) == str(want.value)
        assert set_up == list(range(8))
        assert sorted(finished) == [0, 1, 2, 3, 4]


class TestRunMethodRollouts:
    def test_chunks_match_the_loop(self, demos20, monkeypatch):
        """13 rollouts in run_rollouts' chunks of 8, and none one by one
        through run_rollout, which the traced sweep counts: only a whole
        request of fewer than LOCKSTEP_MIN_ROWS runs one by one."""
        monkeypatch.setattr(scheduler, "LOCKSTEP_MAX_ROWS", 8)
        calls = []
        single = experiments.run_rollout

        def counted(*args):
            calls.append(args[-1])
            return single(*args)

        monkeypatch.setattr(experiments, "run_rollout", counted)
        batch = [(m, c, None, 100 + s) for s, (m, c) in enumerate(
            (m, c) for m in METHODS for c in C_VALUES)][:13]
        got = experiments.run_method_rollouts(
            [(m, c, s) for m, c, _, s in batch], demos20)
        _assert_same_logs(got, _oracle_logs(demos20, batch))
        assert calls == []

    def test_use_eag_applies_to_every_rollout(self, demos20):
        batch = [("sail", 0.2, False, s) for s in range(8)]
        got = experiments.run_method_rollouts(
            [(m, c, s) for m, c, _, s in batch], demos20, use_eag=False)
        _assert_same_logs(got, _oracle_logs(demos20, batch))

    def test_a_replay_keeps_its_place(self, demos20):
        got = experiments.run_method_rollouts(
            [("replay", 0.5, 1), ("sail", 1.0, 2)], demos20)
        want = rollout_oracle.replay_rollout(demos20[1], c=0.5, seed=1)
        _assert_same_logs(got[:1], [want])
        _assert_same_logs(got[1:], _oracle_logs(demos20,
                                                [("sail", 1.0, None, 2)]))

    def test_an_unknown_method_raises_after_the_rollouts_before_it(
            self, demos20, monkeypatch):
        ran = []
        monkeypatch.setattr(experiments, "run_rollout",
                            lambda *args: ran.append(args[-1]))
        with pytest.raises(InvalidInputError, match="unknown method"):
            experiments.run_method_rollouts(
                [("sail", 1.0, 0), ("sail", 1.0, 1), ("bogus", 1.0, 2)],
                demos20)
        assert ran == [0, 1]


class TestTracedLockstep:
    """track_lockstep's traces against sample_trace of track_slices, on
    the lockstep plant, with a column that faults there, and row by row,
    where a robot starts off rest or the batch is small."""

    @staticmethod
    def _case(demos, n_rows, turned=()):
        rng = np.random.default_rng(n_rows)
        states, refs, untils = [], [], []
        for r in range(n_rows):
            # a stretch from a few waypoints before the demo's grasp, or,
            # attached, before its release
            demo = demos[r % len(demos)]
            grasp, release = np.flatnonzero(np.diff(demo.grippers))[:2]
            start = (release if r % 2 else grasp) - 2 - r % 4
            reached = demo.reached[start:start + 15]
            times = 0.4 + np.arange(15) * (0.3 + 0.05 * (r % 3)) * demo.dt
            state = experiments.initial_world(
                Pose(reached[0, :3].copy(), reached[0, 3:7].copy()),
                experiments.task_for_demo(demo))
            state[7:10] = rng.normal(0.0, 0.05, 3)
            state[13] = demo.grippers[start]
            if r % 2:
                state[21] = 1.0
                state[22:25] = [0.001, -0.002, 0.0]
            if r in turned:
                state[3:7] = [np.cos(0.05), np.sin(0.05), 0.0, 0.0]
            state[29] = 0.4
            states.append(state)
            refs.append(controller.ReferenceTrack(
                times, reached[:, :3], reached[:, 3:7],
                demo.grippers[start:start + 15]))
            untils.append((0.4 + 0.002 * (150 + 7 * r),))
        return np.stack(states, axis=1), refs, untils

    @pytest.mark.parametrize("n_rows,turned,faulted", [
        (9, (), None), (9, (4,), None), (9, (), 4), (3, (), None)],
        ids=["lockstep", "off rest", "a column faults", "row by row"])
    def test_traces_match_sample_trace(self, demos20, n_rows, turned,
                                       faulted, monkeypatch):
        monkeypatch.setattr(controller, "LOCKSTEP_BLOCK", 700)
        states, refs, untils = self._case(demos20, n_rows, turned)
        gains = [gain_profile("real-exec")] * n_rows
        if faulted is not None:
            # unstable under these gains, the column faults at step 118 of
            # its slice, inside the second block of 700 // 9 steps
            gains[faulted] = GainProfile(1e8, 0.0, 400.0, 40.0)
        want = []
        for r in range(n_rows):
            state = states[:, r].copy()
            try:
                trace, = controller.track_slices(state, refs[r], gains[r],
                                                 untils[r])
                want.append((state, controller.sample_trace(trace)))
            except SimFault as fault:
                want.append((state, fault))
        traces = [None] * n_rows
        try:
            for _ in controller.track_lockstep(states, refs, gains, untils,
                                               traces):
                pass
        except SimFault as fault:
            assert fault.row == faulted
            assert str(fault) == str(want[faulted][1])
            assert str(fault) == "non-finite wrench at t=0.6380"
            assert 118 % (controller.LOCKSTEP_BLOCK // n_rows)
        else:
            assert faulted is None
        tags = {tag for _, sampled in want if not isinstance(sampled, SimFault)
                for _, tag in sampled[1]}
        assert tags == {"grasp", "release"}
        for r, (state, sampled) in enumerate(want):
            assert states[:, r].tobytes() == state.tobytes()
            if r == faulted:
                assert traces[r] is None
                continue
            samples, events = sampled
            got_samples, got_events = traces[r]
            assert got_samples.keys() == samples.keys()
            for name, array in samples.items():
                assert _bits(got_samples[name]) == _bits(array), name
            assert got_events == events

    def test_a_traced_call_takes_one_slice_per_column(self, demos20):
        states, refs, untils = self._case(demos20, 2)
        with pytest.raises(InvalidInputError, match="one slice"):
            next(controller.track_lockstep(
                states, refs, [gain_profile("real-exec")] * 2,
                [(0.5, 0.6), untils[1]], [None, None]))
