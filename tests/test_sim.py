from dataclasses import replace

import numpy as np
import pytest

from sailx.core import Pose
from sailx.errors import ConfigurationError
from sailx.sim import (DynamicsParams, TaskSpec, WorldState, initial_world,
                       success)

from plant_oracle import step_state


def _task(**kwargs):
    return TaskSpec(object_start=Pose(np.array([0.3, 0.0, 0.02])),
                    goal_position=np.array([0.3, 0.25, 0.02]), **kwargs)


def _world(robot_pos=(0.3, 0.0, 0.02)):
    return initial_world(Pose(np.array(robot_pos, dtype=float)), _task())


def _step(w, wrench, gripper_cmd, params, grasp_radius=0.015):
    """One plant_oracle.step_state on the packed state: one track_loop step."""
    v = w.to_vector()
    event = step_state(v, np.asarray(wrench, dtype=float), float(gripper_cmd),
                       params.mass, params.inertia, params.physics_dt,
                       params.gripper_slew, grasp_radius, params.wrench_limit)
    assert event != 2
    return WorldState.from_vector(v)


class TestStateVector:
    def test_round_trip(self):
        w = WorldState(robot=Pose(np.array([1.0, 2.0, 3.0])), gripper=0.7,
                       attached=True, sim_time=4.5)
        back = WorldState.from_vector(w.to_vector())
        assert back.robot.position == pytest.approx(w.robot.position)
        assert back.gripper == pytest.approx(0.7)
        assert back.attached is True
        assert back.sim_time == pytest.approx(4.5)


class TestStep:
    def test_time_advances_by_physics_dt(self):
        params = DynamicsParams()
        w = _world()
        w2 = _step(w, np.zeros(6), 0.0, params)
        assert w2.sim_time == pytest.approx(params.physics_dt)

    def test_constant_force_accelerates(self):
        params = DynamicsParams()
        w = _world()
        for _ in range(100):
            w = _step(w, np.array([1.0, 0, 0, 0, 0, 0]), 0.0, params)
        # semi-implicit Euler under constant force: x ~ a t^2 / 2
        t = w.sim_time
        assert w.robot.position[0] - 0.3 == pytest.approx(0.5 * t**2, rel=0.02)
        assert w.twist.linear[0] == pytest.approx(t, rel=1e-9)

    def test_gripper_slew_rate(self):
        params = DynamicsParams(gripper_slew=8.0)
        w = _world()
        w = _step(w, np.zeros(6), 1.0, params)
        assert w.gripper == pytest.approx(8.0 * params.physics_dt)

    def test_nonfinite_wrench_faults(self):
        params = DynamicsParams()
        for bad in (np.nan, np.inf):
            v = _world().to_vector()
            before = v.copy()
            event = step_state(v, np.array([bad, 0, 0, 0, 0, 0]), 0.0,
                               params.mass, params.inertia, params.physics_dt,
                               params.gripper_slew, 0.015, params.wrench_limit)
            assert event == 2
            assert np.array_equal(v, before)

    def test_determinism(self):
        params = DynamicsParams()
        runs = []
        for _ in range(2):
            w = _world()
            for i in range(50):
                w = _step(w, np.array([0.1, -0.05, 0.2, 0, 0, 0.01]),
                         0.5, params)
            runs.append(w.to_vector())
        assert np.array_equal(runs[0], runs[1])


class TestGrasp:
    def _close_gripper(self, w, params, steps=400):
        for _ in range(steps):
            w = _step(w, np.zeros(6), 1.0, params)
        return w

    def test_attach_within_radius(self):
        params = DynamicsParams()
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)), params)
        assert w.attached

    def test_no_attach_outside_radius(self):
        params = DynamicsParams()
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.10)), params)
        assert not w.attached

    def test_attached_object_follows_robot(self):
        params = DynamicsParams()
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)), params)
        rel = w.object_pose.position - w.robot.position
        for _ in range(200):
            w = _step(w, np.array([0.5, 0.2, 0.3, 0, 0, 0]), 1.0, params)
        assert w.object_pose.position - w.robot.position == pytest.approx(
            rel, abs=1e-9)

    def test_open_detaches(self):
        params = DynamicsParams()
        w = self._close_gripper(_world(robot_pos=(0.3, 0.0, 0.025)), params)
        for _ in range(400):
            w = _step(w, np.zeros(6), 0.0, params)
        assert not w.attached


class TestSuccess:
    def test_requires_release_and_tolerance(self):
        task = _task()
        goal_pose = Pose(task.goal_position.copy())
        w = replace(_world(), object_pose=goal_pose)
        assert success(w, task)
        assert not success(
            WorldState(robot=w.robot, object_pose=goal_pose, attached=True),
            task)

    def test_fails_outside_tolerance_or_after_t_max(self):
        task = _task()
        off = Pose(task.goal_position + np.array([0.03, 0, 0]))
        assert not success(replace(_world(), object_pose=off), task)
        late = WorldState(robot=_world().robot,
                          object_pose=Pose(task.goal_position.copy()),
                          sim_time=task.t_max + 1.0)
        assert not success(late, task)


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicsParams(mass=0.0)
        with pytest.raises(ConfigurationError):
            _task(grasp_radius=0.0)
