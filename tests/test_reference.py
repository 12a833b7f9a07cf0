"""The reference track's fast path against the scipy spline and slerp.

``ReferenceTrack`` builds its natural spline by scipy's own steps, computes
each slerp segment's flip, angle and branch once per track, and hands the
rows ``track_slices`` sampled to ``sample_trace``. Each must give the bits
of ``reference_oracle.OracleReferenceTrack`` (``CubicSpline`` and the
per-call slerp) or of a fresh sample.
"""
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from sailx import controller
from sailx.controller import (GAIN_PRESETS, TRACE_STRIDE, ReferenceTrack,
                              _Subgroup, _sample_block, reference_tracks,
                              sample_trace, track_slices)
from sailx.errors import InvalidInputError
from sailx.core import IDENTITY_QUAT, Pose
from sailx.experiments import make_task
from sailx.sim import initial_world

import reference_oracle
from reference_oracle import OracleReferenceTrack

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _unit(q):
    return q / np.linalg.norm(q)


@st.composite
def tracks(draw, min_size=3, max_size=40):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_size, max_size))
    # uneven spacing over several orders of magnitude
    steps = 10.0 ** rng.uniform(-3.0, 0.5, n - 1)
    times = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0],
                                                         np.cumsum(steps)])
    positions = rng.normal(0.0, draw(st.sampled_from([0.01, 1.0, 10.0])),
                           (n, 3))
    # segments that slerp, lerp (equal or nearly equal ends) or flip
    quats = [_unit(rng.normal(size=4))]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["random", "equal", "antipodal",
                                     "near", "close"]))
        prev = quats[-1]
        if kind == "random":
            quats.append(_unit(rng.normal(size=4)))
        elif kind == "equal":
            quats.append(prev.copy())
        elif kind == "antipodal":
            quats.append(-prev)
        elif kind == "near":  # theta below 1e-10
            quats.append(_unit(prev + rng.normal(0.0, 1e-13, 4)))
        else:
            quats.append(_unit(prev + rng.normal(0.0, 1e-3, 4)))
    grippers = rng.choice([0.0, 1.0], n)
    span = times[-1] - times[0]
    at = np.concatenate([rng.uniform(times[0] - 0.1 * span,
                                     times[-1] + 0.1 * span, 30), times])
    rng.shuffle(at)
    return times, positions, np.array(quats), grippers, at


class TestSpline:
    @SETTINGS
    @given(tracks())
    def test_coefficients_match_cubic_spline(self, case):
        times, positions, quats, _, at = case
        ref = ReferenceTrack(times, positions, quats)
        spline = CubicSpline(times, positions, bc_type="natural")
        assert ref._spline.c.tobytes() == spline.c.tobytes()
        assert ref._spline(at).tobytes() == spline(at).tobytes()
        assert ref._spline(at, 1).tobytes() == spline(at, 1).tobytes()


class TestSample:
    @SETTINGS
    @given(tracks(min_size=2))
    def test_matches_the_scipy_spline_and_per_call_slerp(self, case):
        times, positions, quats, grippers, at = case
        ref = ReferenceTrack(times, positions, quats, grippers)
        oracle = OracleReferenceTrack(times, positions, quats, grippers)
        for k in (1, 2, len(at)):  # one-point samples too
            for got, want in zip(ref.sample(at[:k]), oracle.sample(at[:k])):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestTraceRows:
    @SETTINGS
    @given(tracks(max_size=12), st.lists(st.floats(0.0, 0.3), min_size=1,
                                         max_size=3))
    def test_are_a_fresh_sample_at_the_step_times(self, case, stretches):
        times, positions, quats, grippers, _ = case
        # a track the plant can follow: centimetres over its time span
        positions = 0.01 * positions / (1.0 + np.abs(positions).max())
        ref = ReferenceTrack(times, positions, quats, grippers)
        state = initial_world(Pose(np.zeros(3), IDENTITY_QUAT),
                              make_task())
        state[29] = times[0]
        untils = times[0] + np.cumsum(stretches)
        for trace in track_slices(state, ref, GAIN_PRESETS["real-exec"],
                                  untils):
            pos, _, quat, _, _ = ref.sample(trace.times)
            assert trace.ref_positions.tobytes() == pos.tobytes()
            assert trace.ref_orientations.tobytes() == quat.tobytes()
            samples, _ = sample_trace(trace)
            pos, _, quat, _, _ = ref.sample(trace.times[::TRACE_STRIDE])
            assert samples["ref_positions"].tobytes() == pos.tobytes()
            assert samples["ref_orientations"].tobytes() == quat.tobytes()


def _bits(a) -> bytes:
    a = np.asarray(a)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _identity_waypoints(rng, n):
    """n waypoints (1, z, z, z) with zeros z of either sign."""
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    quats[:, 1:] = np.where(rng.random((n, 3)) < 0.5, -0.0, 0.0)
    return quats


class TestIdentityTracks:
    """A track or group whose waypoints all have w == 1.0 and a zero vector
    part samples identity rows without a slerp, with the oracle's bits; a
    near miss, or a NaN sample time, still slerps."""

    @staticmethod
    def _count_slerps(monkeypatch):
        calls = []
        slerp = controller._slerp

        def counted(*args):
            calls.append(args)
            return slerp(*args)

        monkeypatch.setattr(controller, "_slerp", counted)
        return calls

    @pytest.mark.parametrize("near_miss, slerps", [
        (None, False),
        ([1.0, 1e-3, 0.0, 0.0], True),
        ([1.0, 0.0, 0.0, -5e-324], True),
        ([-1.0, 0.0, 0.0, 0.0], True),
        ("nan time", True),
    ])
    def test_sample_matches_the_oracle(self, monkeypatch, near_miss, slerps):
        calls = self._count_slerps(monkeypatch)
        rng = np.random.default_rng(21)
        for n in (2, 3, 7):
            times = np.cumsum(rng.uniform(0.05, 0.5, n))
            quats = _identity_waypoints(rng, n)
            positions = rng.normal(0.0, 0.01, (n, 3))
            at = np.concatenate([rng.uniform(times[0] - 0.2, times[-1] + 0.2,
                                             25), times])
            if near_miss == "nan time":
                at[3] = np.nan
            elif near_miss is not None:
                quats[n // 2] = near_miss
            ref = ReferenceTrack(times, positions, quats)
            oracle = OracleReferenceTrack(times, positions, quats)
            for got, want in zip(ref.sample(at), oracle.sample(at)):
                assert _bits(got) == _bits(want)
        assert bool(calls) == slerps

    def test_a_group_block_matches_each_oracle(self, monkeypatch):
        """A lockstep subgroup's rest-form block, [grip; pos; vel] rows at
        step times before, inside and after the span, without a slerp."""
        calls = self._count_slerps(monkeypatch)
        rng = np.random.default_rng(22)
        times = np.cumsum(rng.uniform(0.05, 0.5, 5))
        refs = [(rng.normal(0.0, 0.01, (5, 3)), _identity_waypoints(rng, 5),
                 rng.choice([0.0, 1.0], 5)) for _ in range(4)]
        steps = 30
        dt = (times[-1] - times[0] + 0.4) / steps
        sub = _Subgroup(range(len(refs)),
                        [ReferenceTrack(times, *ref) for ref in refs],
                        ((times[0] - 0.2, steps),), dt)
        block = _sample_block([sub], 0, steps, len(refs))
        for j, ref in enumerate(refs):
            want = OracleReferenceTrack(times, *ref).sample(sub.times)
            assert _bits(block[:, 0, j]) == _bits(want[4])
            assert _bits(block[:, 1:4, j]) == _bits(want[0])
            assert _bits(block[:, 4:, j]) == _bits(want[1])
        assert not calls

    def test_positive_zero_waypoints_turn_at_positive_zero_rates(self):
        """ReferenceTrack stores +0.0 rates, without computing them, for
        identity waypoints whose vector parts are all +0.0: the rates of
        every pair of identity waypoints, with zeros of every sign, against
        ``reference_oracle``'s, and +0.0 where both are all +0.0."""
        signs = [np.array(s) for s in itertools.product([0.0, -0.0],
                                                        repeat=3)]
        times = np.array([0.0, 0.25, 0.2500001, 1e3])
        for a, b in itertools.product(signs, repeat=2):
            quats = np.array([[1.0, *a], [1.0, *b], [1.0, *a], [1.0, *b]])
            want = reference_oracle._segment_rates(times, quats)
            ref = ReferenceTrack(times, np.zeros((4, 3)), quats)
            assert _bits(ref._seg_angvel) == _bits(want)
            if not (np.signbit(a).any() or np.signbit(b).any()):
                assert _bits(want) == _bits(np.zeros((3, 3)))

    def test_a_track_without_its_rotational_tables(self, monkeypatch):
        """An identity track at +0.0 is built without segment rates or a
        slerp table, and samples the oracle's bits at times inside and
        outside its span, at ±inf and at NaN, alone, and stacked with a
        turning reference in a lockstep group, which samples positions,
        velocities and grippers."""
        calls = []
        rates = controller._segment_rates

        def counted(*args):
            calls.append(args)
            return rates(*args)

        monkeypatch.setattr(controller, "_segment_rates", counted)
        rng = np.random.default_rng(23)
        for n in (2, 3, 7):
            times = np.cumsum(rng.uniform(0.05, 0.5, n))
            positions = rng.normal(0.0, 0.01, (n, 3))
            quats = np.tile(IDENTITY_QUAT, (n, 1))
            grippers = rng.choice([0.0, 1.0], n)
            at = np.concatenate([rng.uniform(times[0] - 0.2, times[-1] + 0.2,
                                             20), times,
                                 [np.inf, -np.inf, np.nan]])
            ref = ReferenceTrack(times, positions, quats, grippers)
            assert not calls and "_slerp_segments" not in vars(ref)
            want = OracleReferenceTrack(times, positions, quats,
                                        grippers).sample(at)
            for k in (len(at) - 1, len(at)):  # without and with the NaN
                for got, want_k in zip(ref.sample(at[:k]),
                                       (w[:k] for w in want)):
                    assert _bits(got) == _bits(want_k)
            turning = (positions[::-1].copy(), _unit_rows(rng, n), grippers)
            group = controller._ReferenceGroup([
                ReferenceTrack(times, positions, quats, grippers),
                ReferenceTrack(times, *turning)])
            stacked = controller._sample_moves(group, at)[:3]
            for j, (pos, vel, _, _, grip) in enumerate(
                    (want, OracleReferenceTrack(times, *turning).sample(at))):
                for got, w in zip(stacked, (pos, vel, grip)):
                    assert _bits(got[..., j]) == _bits(w)
            calls.clear()


def _unit_rows(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


@st.composite
def batches(draw, min_size=2, max_size=25):
    """B references on one uneven knot grid: positions over several scales
    with some -0.0 entries, and per reference identity waypoints (zeros of
    +0.0, or of either sign) or turning ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_size, max_size))
    count = draw(st.integers(1, 8))
    steps = 10.0 ** rng.uniform(-3.0, 0.5, n - 1)
    times = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0],
                                                         np.cumsum(steps)])
    scale = draw(st.sampled_from([1e-6, 0.01, 1.0, 1e6]))
    positions = rng.normal(0.0, scale, (count, n, 3))
    positions[rng.random(positions.shape) < 0.2] = -0.0
    orientations = np.empty((count, n, 4))
    for j in range(count):
        kind = draw(st.sampled_from(["identity", "signed", "turning"]))
        if kind == "turning":
            orientations[j] = _unit_rows(rng, n)
        else:
            orientations[j] = (np.tile(IDENTITY_QUAT, (n, 1))
                               if kind == "identity"
                               else _identity_waypoints(rng, n))
    grippers = rng.choice([0.0, 1.0], (count, n))
    span = times[-1] - times[0]
    at = np.concatenate([rng.uniform(times[0] - 0.1 * span,
                                     times[-1] + 0.1 * span, 20), times])
    return times, positions, orientations, grippers, at


def _loop_error(times, positions, orientations, grippers):
    """The message of the first error a loop of ReferenceTracks raises."""
    for ref in zip(positions, orientations, grippers):
        try:
            ReferenceTrack(times, *ref)
        except InvalidInputError as exc:
            return str(exc)
    return None


class TestReferenceTracks:
    """``reference_tracks`` fits B references on one knot grid in one
    spline solve: each track has the bits of a ReferenceTrack built alone,
    and an invalid batch raises what a loop would raise first."""

    @SETTINGS
    @given(batches())
    def test_each_track_is_the_track_built_alone(self, case):
        times, positions, orientations, grippers, at = case
        tracks = reference_tracks(times, positions, orientations, grippers)
        assert len(tracks) == len(positions)
        for track, ref in zip(tracks, zip(positions, orientations,
                                          grippers)):
            alone = ReferenceTrack(times, *ref)
            if len(times) == 2:
                assert track._spline is None and alone._spline is None
                for got, want in zip(track._line, alone._line):
                    assert _bits(got) == _bits(want)
            else:
                assert _bits(track._spline.c) == _bits(alone._spline.c)
            assert _bits(track._seg_angvel) == _bits(alone._seg_angvel)
            assert track._identity == alone._identity
            for got, want in zip(track.sample(at), alone.sample(at)):
                assert got.dtype == want.dtype
                assert _bits(got) == _bits(want)

    @SETTINGS
    @given(batches())
    def test_a_group_of_the_whole_fit_takes_views(self, case):
        """A _ReferenceGroup of every track of one fit, in order, holds
        views of the fit's arrays; of some of them, or in another order,
        stacked copies. Each column samples the bits of its track."""
        times, positions, orientations, grippers, at = case
        tracks = reference_tracks(times, positions, orientations, grippers)
        for refs, whole in ((tracks, True), (tracks[::-1], len(tracks) == 1),
                            (tracks[1:], False)):
            if not refs:
                continue
            group = controller._ReferenceGroup(refs)
            moves = (group._line[0] if group._spline is None
                     else group._spline.c)
            fit = tracks[0]._fit[0][1]
            fit = fit[0] if isinstance(fit, tuple) else fit
            assert np.shares_memory(moves, fit) == whole
            stacked = controller._sample_moves(group, at)[:3]
            for j, ref in enumerate(refs):
                pos, vel, _, _, grip = ref.sample(at)
                for got, want in zip(stacked, (pos, vel, grip)):
                    assert _bits(got[..., j]) == _bits(want)

    def test_grippers_default_to_zero(self):
        times = np.array([0.0, 0.5, 1.25])
        positions = np.zeros((2, 3, 3))
        quats = np.tile(IDENTITY_QUAT, (2, 3, 1))
        for track in reference_tracks(times, positions, quats):
            assert _bits(track.grippers) == _bits(np.zeros(3))

    @SETTINGS
    @example(case=(np.array([0.0, 0.05, 0.1]), np.zeros((3, 3, 3)),
                   np.tile(IDENTITY_QUAT, (3, 3, 1)), np.zeros((3, 3)),
                   None),
             faults=[(1, "zero"), (0, "overflow")])
    @given(batches(max_size=8),
           st.lists(st.tuples(st.integers(0, 7),
                              st.sampled_from(["positions", "orientations",
                                               "grippers", "zero",
                                               "overflow"])),
                    min_size=1, max_size=3))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_an_invalid_batch_raises_as_the_loop(self, case, faults):
        times, positions, orientations, grippers, _ = case
        count = len(positions)
        for j, kind in faults:
            j = 1 + j % (count - 1) if count > 1 else 0
            row = j * 7 % len(times)
            if kind == "zero":
                orientations[j, row] = 0.0
            elif kind == "overflow":
                positions[j, row, 0] = 1.7e308
            else:
                array = {"positions": positions,
                         "orientations": orientations,
                         "grippers": grippers}[kind]
                array[j, row] = (np.nan, np.inf, -np.inf)[row % 3]
        want = _loop_error(times, positions, orientations, grippers)
        if want is None:  # a line's slope or a spline that still builds
            reference_tracks(times, positions, orientations, grippers)
            return
        with pytest.raises(InvalidInputError) as exc:
            reference_tracks(times, positions, orientations, grippers)
        assert str(exc.value) == want
