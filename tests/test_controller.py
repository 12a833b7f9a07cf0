import numpy as np
import pytest

from sailx.controller import (GAIN_PRESETS, GainProfile, ReferenceTrack,
                              gain_profile, track, track_slices)
from sailx.core import IDENTITY_QUAT, Pose
from sailx.errors import InvalidInputError
from sailx.sim import TaskSpec, initial_world

from plant_oracle import pd_wrench


def rotz(theta):
    return np.array([np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)])


def _line_track(n=5, dt=0.1, speed=1.0):
    times = np.arange(n) * dt
    positions = np.outer(times, [speed, 0.0, 0.0])
    orientations = np.tile(IDENTITY_QUAT, (n, 1))
    return ReferenceTrack(times, positions, orientations)


class TestReferenceTrack:
    def test_rejects_degenerate_tracks(self):
        with pytest.raises(InvalidInputError):
            ReferenceTrack([0.0], np.zeros((1, 3)), np.tile(IDENTITY_QUAT, (1, 1)))
        with pytest.raises(InvalidInputError):
            ReferenceTrack([0.0, 0.0], np.zeros((2, 3)),
                           np.tile(IDENTITY_QUAT, (2, 1)))

    @pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                       [-np.inf, 0.0, 1.0]])
    def test_rejects_non_finite_times(self, times):
        with pytest.raises(InvalidInputError):
            ReferenceTrack(times, np.zeros((3, 3)),
                           np.tile(IDENTITY_QUAT, (3, 1)))

    @pytest.mark.parametrize("field, value", [
        ("positions", np.zeros((3, 2))),
        ("positions", np.zeros((2, 3))),
        ("orientations", np.tile(IDENTITY_QUAT, (2, 1))),
        ("orientations", np.zeros((3, 3))),
        ("grippers", np.zeros(4)),
    ])
    def test_rejects_misshapen_waypoints(self, field, value):
        args = {"positions": np.zeros((3, 3)),
                "orientations": np.tile(IDENTITY_QUAT, (3, 1)),
                field: value}
        with pytest.raises(InvalidInputError, match=field):
            ReferenceTrack([0.0, 0.5, 1.0], **args)

    @pytest.mark.parametrize("huge", [5e307, -5e307, 1.7e308])
    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_rejects_finite_waypoints_whose_spline_overflows(self, huge, at):
        # the knot slopes overflow to inf; 3e306 would build, and fault in
        # the plant
        positions = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                              [0.02, 0.1, 0.0], [0.05, 0.1, 0.0]])
        positions[at, 0] = huge
        with pytest.raises(InvalidInputError, match="positions"):
            ReferenceTrack([0.0, 0.05, 0.1, 0.15], positions,
                           np.tile(IDENTITY_QUAT, (4, 1)))

    def test_linear_two_point_fallback(self):
        ref = _line_track(n=2, dt=1.0, speed=2.0)
        pos, vel, _, _, _ = ref.sample(np.array([0.25]))
        assert pos[0] == pytest.approx([0.5, 0, 0])
        assert vel[0] == pytest.approx([2.0, 0, 0])

    def test_spline_interpolates_waypoints(self):
        ref = _line_track(n=6)
        pos, _, _, _, _ = ref.sample(ref.times)
        assert pos == pytest.approx(ref.positions, abs=1e-12)

    def test_clamped_outside_span_with_zero_velocity(self):
        ref = _line_track(n=4, dt=0.1)
        pos, vel, _, angvel, _ = ref.sample(np.array([-1.0, 99.0]))
        assert pos[0] == pytest.approx(ref.positions[0])
        assert pos[1] == pytest.approx(ref.positions[-1])
        assert np.all(vel == 0.0)
        assert np.all(angvel == 0.0)

    def test_gripper_zero_order_hold(self):
        times = [0.0, 1.0, 2.0]
        positions = np.zeros((3, 3))
        orientations = np.tile(IDENTITY_QUAT, (3, 1))
        ref = ReferenceTrack(times, positions, orientations,
                             grippers=[0.0, 1.0, 0.0])
        _, _, _, _, grip = ref.sample(np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
        assert list(grip) == [0.0, 0.0, 1.0, 1.0, 0.0]

    def test_orientation_slerp_midpoint(self):
        times = [0.0, 1.0]
        positions = np.zeros((2, 3))
        orientations = np.vstack([rotz(0.0), rotz(1.0)])
        ref = ReferenceTrack(times, positions, orientations)
        pose = ref.pose_at(0.5)
        assert pose.orientation == pytest.approx(rotz(0.5), abs=1e-9)

    def test_uniform_spacing(self):
        # a chunk's waypoints splined at one interval keep that spacing
        positions = np.random.default_rng(0).normal(size=(8, 3))
        orientations = np.tile(IDENTITY_QUAT, (8, 1))
        ref = ReferenceTrack(np.arange(8) * 0.05, positions, orientations)
        assert np.diff(ref.times) == pytest.approx(np.full(7, 0.05))
        with pytest.raises(InvalidInputError):
            ReferenceTrack(np.arange(8) * 0.0, positions, orientations)


def _wrench(ref: Pose, cur: Pose, gains: GainProfile, mass=1.0):
    """plant_oracle.pd_wrench from rest at ``cur`` towards a static ``ref``."""
    state = np.zeros(30)
    state[0:3], state[3:7] = cur.position, cur.orientation
    return pd_wrench(state, ref.position, np.zeros(3), ref.orientation,
                     np.zeros(3), gains.kp_pos, gains.kv_pos, gains.kp_ori,
                     gains.kv_ori, mass, 1.0)


class TestComputeWrench:
    def test_pd_force_at_rest(self):
        gains = GainProfile(100.0, 20.0, 100.0, 20.0)
        ref = Pose(np.array([1.0, 0.0, 0.0]))
        cur = Pose(np.zeros(3))
        wrench = _wrench(ref, cur, gains, mass=2.0)
        assert wrench[:3] == pytest.approx([200.0, 0.0, 0.0])
        assert wrench[3:] == pytest.approx(np.zeros(3))

    def test_orientation_torque_axis(self):
        gains = GainProfile(0.0, 0.0, 50.0, 0.0)
        ref = Pose(np.zeros(3), rotz(0.2))
        cur = Pose(np.zeros(3))
        wrench = _wrench(ref, cur, gains)
        assert wrench[3:] == pytest.approx([0.0, 0.0, 50.0 * 0.2], abs=1e-9)


class TestTrack:
    def test_converges_to_static_target(self):
        task = TaskSpec(object_start=Pose(np.array([9.0, 9.0, 9.0])),
                        goal_position=np.array([9.0, 9.0, 9.5]))
        world = initial_world(Pose(np.zeros(3)), task)
        target = np.array([0.05, -0.03, 0.08])
        ref = ReferenceTrack([0.0, 0.2], np.vstack([np.zeros(3), target]),
                             np.tile(IDENTITY_QUAT, (2, 1)))
        trace = track(world, ref, GAIN_PRESETS["real-exec"], until=2.0)
        assert world[0:3] == pytest.approx(target, abs=1e-3)
        assert trace.e_pos[-1] < 1e-3
        assert np.all(np.diff(trace.times) > 0)

    def test_high_gain_tracks_tighter_than_low(self):
        task = TaskSpec(object_start=Pose(np.array([9.0, 9.0, 9.0])),
                        goal_position=np.array([9.0, 9.0, 9.5]))
        times = np.linspace(0.0, 1.0, 21)
        positions = np.column_stack([0.2 * np.sin(2 * np.pi * times),
                                     np.zeros(21), np.zeros(21)])
        ref = ReferenceTrack(times, positions, np.tile(IDENTITY_QUAT, (21, 1)))
        errs = {}
        for name in ("high", "low"):
            world = initial_world(Pose(np.zeros(3)), task)
            trace = track(world, ref, GAIN_PRESETS[name], until=1.0)
            errs[name] = float(np.mean(trace.e_pos))
        assert errs["high"] < errs["low"]

    def test_trace_records_orientations(self):
        task = TaskSpec(object_start=Pose(np.array([9.0, 9.0, 9.0])),
                        goal_position=np.array([9.0, 9.0, 9.5]))
        world = initial_world(Pose(np.zeros(3)), task)
        ref = ReferenceTrack([0.0, 0.5], np.zeros((2, 3)),
                             np.vstack([rotz(0.0), rotz(0.4)]))
        trace = track(world, ref, GAIN_PRESETS["real-exec"], until=0.5)
        assert trace.orientations.shape == (len(trace.times), 4)
        assert np.linalg.norm(trace.orientations[-1]) == pytest.approx(
            1.0, abs=1e-6)

    def test_slices_of_no_step_yield_empty_traces(self):
        task = TaskSpec(object_start=Pose(np.array([9.0, 9.0, 9.0])),
                        goal_position=np.array([9.0, 9.0, 9.5]))
        state = initial_world(Pose(np.zeros(3)), task)
        state[29] = 0.3
        before = state.copy()
        ref = ReferenceTrack([0.0, 0.5], np.zeros((2, 3)),
                             np.vstack([rotz(0.0), rotz(0.4)]))
        # until the clock, before it, and less than half a step after it
        traces = list(track_slices(state, ref, GAIN_PRESETS["real-exec"],
                                   (0.3, 0.1, 0.3009)))
        assert len(traces) == 3
        assert state.tobytes() == before.tobytes()
        for trace in traces:
            for name, shape, dtype in (
                    ("times", (0,), np.float64),
                    ("positions", (0, 3), np.float64),
                    ("orientations", (0, 4), np.float64),
                    ("e_pos", (0,), np.float64),
                    ("e_ori", (0,), np.float64),
                    ("events", (0,), np.int8),
                    ("ref_positions", (0, 3), np.float64),
                    ("ref_orientations", (0, 4), np.float64)):
                array = getattr(trace, name)
                assert array.shape == shape and array.dtype == dtype, name


def test_track_renormalises_both_poses_once():
    # an object orientation that a second renormalisation moves, and a
    # robot that turns: each ends with the bits of one Pose of what the
    # plant left
    rng = np.random.default_rng(1)
    while True:
        v = rng.normal(size=4)
        obj = v / np.linalg.norm(v)
        once = Pose(np.zeros(3), obj).orientation
        if Pose(np.zeros(3), once).orientation.tobytes() != once.tobytes():
            break
    task = TaskSpec(object_start=Pose(np.array([9.0, 9.0, 9.0])),
                    goal_position=np.array([9.0, 9.0, 9.5]))
    state = initial_world(Pose(np.zeros(3)), task)
    state[17:21] = obj
    ref = ReferenceTrack([0.0, 0.5], np.zeros((2, 3)),
                         np.vstack([rotz(0.0), rotz(0.4)]))
    raw = state.copy()
    next(track_slices(raw, ref, GAIN_PRESETS["real-exec"], (0.5,)))
    track(state, ref, GAIN_PRESETS["real-exec"], until=0.5)
    for q in (slice(3, 7), slice(17, 21)):
        assert state[q].tobytes() == \
            Pose(np.zeros(3), raw[q]).orientation.tobytes()


class TestGainPresets:
    def test_lookup(self):
        assert gain_profile("real-demo") is GAIN_PRESETS["real-demo"]
        with pytest.raises(InvalidInputError):
            gain_profile("nonsense")

    def test_negative_gains_rejected(self):
        with pytest.raises(InvalidInputError):
            GainProfile(-1.0, 0.0, 0.0, 0.0)
