import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailx.core import Pose
from sailx.errors import ConfigurationError, InvalidInputError
from sailx.sim import (ATTACHED, GRASP_RADIUS, GRIPPER, GRIPPER_SLEW,
                       OBJECT_POSITION, PHYSICS_DT, ROBOT_POSITION, T_MAX,
                       TIME, TaskSpec, initial_world, normalise_poses,
                       success)

from plant_oracle import step_state


def _task(goal=(0.3, 0.25, 0.02)):
    return TaskSpec(object_start=Pose(np.array([0.3, 0.0, 0.02])),
                    goal_position=np.array(goal))


def _world(robot_pos=(0.3, 0.0, 0.02)):
    return initial_world(Pose(np.array(robot_pos, dtype=float)), _task())


def _step(state, wrench, gripper_cmd):
    """One plant_oracle.step_state on the packed state: one track_loop step,
    on the plant's unit body and constants, with no wrench limit."""
    event = step_state(state, np.asarray(wrench, dtype=float),
                       float(gripper_cmd), 1.0, 1.0, PHYSICS_DT,
                       GRIPPER_SLEW, GRASP_RADIUS, 0.0)
    assert event != 2
    return state


class TestStateVector:
    def test_initial_world_layout(self):
        robot = Pose(np.array([1.0, 2.0, 3.0]),
                     np.array([0.0, 0.6, 0.0, 0.8]))
        task = TaskSpec(Pose(np.array([0.1, 0.2, 0.3]),
                             np.array([0.0, 0.0, 0.0, -1.0])),
                        np.array([0.3, 0.25, 0.02]))
        state = initial_world(robot, task)
        want = np.zeros(30)
        want[0:3], want[3:7] = robot.position, robot.orientation
        want[14:17] = task.object_start.position
        want[17:21] = task.object_start.orientation
        want[25] = 1.0  # the identity relative orientation
        assert state.tobytes() == want.tobytes()


_quat = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1)


class TestNormalisePoses:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_quat, _quat)
    def test_gives_the_bits_of_a_pose(self, robot, obj):
        # the quaternions as the plant leaves them: unit norm to rounding
        robot = np.array(robot) / np.linalg.norm(robot)
        obj = np.array(obj) / np.linalg.norm(obj)
        state = _world()
        state[3:7], state[17:21] = robot, obj
        normalise_poses(state)
        assert state[3:7].tobytes() == \
            Pose(np.zeros(3), robot).orientation.tobytes()
        assert state[17:21].tobytes() == \
            Pose(np.zeros(3), obj).orientation.tobytes()

    @pytest.mark.parametrize("slot", [0, 4, 8, 12, 16, 19])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_pose_or_velocity(self, slot, bad):
        # a Pose or Twist of the state raised here too
        state = _world()
        state[slot] = bad
        with pytest.raises(InvalidInputError):
            normalise_poses(state)


class TestStep:
    def test_time_advances_by_physics_dt(self):
        w = _step(_world(), np.zeros(6), 0.0)
        assert w[TIME] == pytest.approx(PHYSICS_DT)

    def test_constant_force_accelerates(self):
        w = _world()
        for _ in range(100):
            w = _step(w, np.array([1.0, 0, 0, 0, 0, 0]), 0.0)
        # semi-implicit Euler under constant force: x ~ a t^2 / 2
        t = w[TIME]
        assert w[0] - 0.3 == pytest.approx(0.5 * t**2, rel=0.02)
        assert w[7] == pytest.approx(t, rel=1e-9)

    def test_gripper_slew_rate(self):
        w = _step(_world(), np.zeros(6), 1.0)
        assert w[GRIPPER] == pytest.approx(8.0 * PHYSICS_DT)

    def test_nonfinite_wrench_faults(self):
        for bad in (np.nan, np.inf):
            v = _world()
            before = v.copy()
            event = step_state(v, np.array([bad, 0, 0, 0, 0, 0]), 0.0,
                               1.0, 1.0, PHYSICS_DT, GRIPPER_SLEW,
                               0.015, 0.0)
            assert event == 2
            assert np.array_equal(v, before)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            w = _world()
            for i in range(50):
                w = _step(w, np.array([0.1, -0.05, 0.2, 0, 0, 0.01]), 0.5)
            runs.append(w)
        assert np.array_equal(runs[0], runs[1])


class TestGrasp:
    def _close_gripper(self, w, steps=400):
        for _ in range(steps):
            w = _step(w, np.zeros(6), 1.0)
        return w

    def test_attach_within_radius(self):
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)))
        assert w[ATTACHED] == 1.0

    def test_no_attach_outside_radius(self):
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.10)))
        assert w[ATTACHED] == 0.0

    def test_attached_object_follows_robot(self):
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)))
        rel = w[OBJECT_POSITION] - w[ROBOT_POSITION]
        for _ in range(200):
            w = _step(w, np.array([0.5, 0.2, 0.3, 0, 0, 0]), 1.0)
        assert w[OBJECT_POSITION] - w[ROBOT_POSITION] == pytest.approx(
            rel, abs=1e-9)

    def test_open_detaches(self):
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)))
        for _ in range(400):
            w = _step(w, np.zeros(6), 0.0)
        assert w[ATTACHED] == 0.0


class TestSuccess:
    def test_requires_release_and_tolerance(self):
        task = _task()
        w = _world()
        w[OBJECT_POSITION] = task.goal_position
        assert success(w, task)
        w[ATTACHED] = 1.0
        assert not success(w, task)

    def test_fails_outside_tolerance_or_after_t_max(self):
        task = _task()
        off = _world()
        off[OBJECT_POSITION] = task.goal_position + np.array([0.03, 0, 0])
        assert not success(off, task)
        late = _world()
        late[OBJECT_POSITION] = task.goal_position
        late[TIME] = T_MAX + 1.0
        assert not success(late, task)


class TestValidation:
    def test_bad_task_rejected(self):
        with pytest.raises(ConfigurationError):
            _task(goal=(0.3, np.nan, 0.02))
