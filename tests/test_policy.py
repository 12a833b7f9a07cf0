import numpy as np
import pytest

from sailx.core import Pose
from sailx.errors import ConfigurationError, InvalidInputError
from sailx.policy import (ActionChunk, MockPolicy, PolicyConfig, cfg_blend,
                          infer_conditional, infer_eag, infer_unconditional)
from sailx.sim import initial_world
from sailx.experiments import task_for_demo


def rotz(theta):
    return np.array([np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)])


def _chunk(n=8, seed=0, theta=0.0):
    rng = np.random.default_rng(seed)
    return ActionChunk(rng.normal(size=(n, 3)),
                       np.tile(rotz(theta), (n, 1)),
                       rng.uniform(size=n),
                       rng.integers(0, 2, size=n).astype(np.int8))


@pytest.fixture(scope="module")
def policy(demos20):
    cfg = PolicyConfig(noise_sigma=0.0, p_branch=0.0, target_mode="reached")
    return MockPolicy(demos20, cfg, seed=7)


def _obs(demo):
    task = task_for_demo(demo)
    return initial_world(Pose(demo.reached[0, :3].copy(),
                              demo.reached[0, 3:7].copy()), task)


class TestActionChunk:
    def test_length_and_segment(self):
        c = _chunk(10)
        assert len(c) == 10
        seg = c.segment(2, 6)
        assert len(seg) == 4
        assert seg.positions == pytest.approx(c.positions[2:6])


class TestPolicyConfig:
    def test_horizon_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(h_p=8, h_e=9, h_c=4)
        with pytest.raises(ConfigurationError):
            PolicyConfig(h_p=32, h_e=8, h_c=8)


class TestUnconditional:
    def test_deterministic_per_seed(self, demos20):
        cfg = PolicyConfig(noise_sigma=0.002, p_branch=0.2)
        obs = _obs(demos20[0])
        chunks = []
        for _ in range(2):
            p = MockPolicy(demos20, cfg, seed=3)
            chunks.append(infer_unconditional(p, obs))
        assert np.array_equal(chunks[0].positions, chunks[1].positions)

    def test_tracks_nearest_demo(self, policy, demos20):
        obs = _obs(demos20[4])
        chunk = infer_unconditional(policy, obs)
        # the first waypoint continues demo 4 from its start
        d = np.linalg.norm(chunk.positions[0] - demos20[4].reached[1, :3])
        assert d < 1e-9

    def test_delay_steps_advance(self, policy, demos20):
        obs = _obs(demos20[4])
        near = infer_unconditional(policy, obs, delay_steps=0)
        far = infer_unconditional(policy, obs, delay_steps=8)
        assert near.positions[8] == pytest.approx(far.positions[0], abs=1e-12)

    def test_chunk_shape(self, policy, demos20):
        chunk = infer_unconditional(policy, _obs(demos20[0]))
        assert chunk.positions.shape == (policy.config.h_p, 3)
        assert chunk.orientations.shape == (policy.config.h_p, 4)


class TestConditional:
    def test_continues_tail(self, policy, demos20):
        obs = _obs(demos20[2])
        h_c = policy.config.h_c
        tail = infer_unconditional(policy, obs).segment(0, h_c)
        cond = infer_conditional(policy, obs, tail)
        assert cond.positions[:h_c] == pytest.approx(tail.positions, abs=1e-9)

    def test_gripper_state_disambiguates(self, policy, demos20):
        # a stationary tail with closed gripper must not match the demo's
        # spatially identical open-gripper dwell
        demo = demos20[0]
        closed = np.nonzero(demo.grippers >= 0.5)[0]
        start = int(closed[0])
        h_c = policy.config.h_c
        tail = ActionChunk(demo.reached[start:start + h_c, :3].copy(),
                           demo.reached[start:start + h_c, 3:7].copy(),
                           np.ones(h_c), np.zeros(h_c, dtype=np.int8))
        cond = infer_conditional(policy, _obs(demo), tail)
        assert np.all(cond.grippers[:h_c] >= 0.5)


class TestCfgBlend:
    def test_endpoints_exact(self):
        a, b = _chunk(seed=1), _chunk(seed=2)
        assert cfg_blend(a, b, 0.0) is a
        assert cfg_blend(a, b, 1.0) is b

    def test_position_lerp(self):
        a, b = _chunk(seed=1), _chunk(seed=2)
        mid = cfg_blend(a, b, 0.5)
        assert mid.positions == pytest.approx(
            0.5 * (a.positions + b.positions), abs=1e-12)

    def test_orientation_geodesic(self):
        a, b = _chunk(seed=1, theta=0.0), _chunk(seed=2, theta=1.0)
        mid = cfg_blend(a, b, 0.5)
        assert mid.orientations[0] == pytest.approx(rotz(0.5), abs=1e-9)

    def test_grippers_clamped(self):
        a, b = _chunk(seed=1), _chunk(seed=2)
        wide = cfg_blend(a, b, 3.0)
        assert np.all(wide.grippers >= 0.0)
        assert np.all(wide.grippers <= 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            cfg_blend(_chunk(8), _chunk(9), 0.5)


class TestEag:
    def _run(self, policy, demos, e_pos=0.0, e_ori=0.0):
        obs = _obs(demos[1])
        prev = infer_unconditional(policy, obs)
        desired = Pose(np.zeros(3))
        state = Pose(np.array([e_pos, 0.0, 0.0]), rotz(e_ori))
        return infer_eag(policy, obs, prev, desired, state)

    def test_gate_open_when_tracking_good(self, policy, demos20):
        _, applied = self._run(policy, demos20, e_pos=0.01, e_ori=0.01)
        assert applied

    def test_gate_closed_on_position_error(self, policy, demos20):
        chunk, applied = self._run(policy, demos20, e_pos=0.03)
        assert not applied

    def test_gate_closed_on_orientation_error(self, policy, demos20):
        _, applied = self._run(policy, demos20, e_ori=0.06)
        assert not applied

    def test_short_prev_chunk_rejected(self, policy, demos20):
        obs = _obs(demos20[1])
        prev = infer_unconditional(policy, obs).segment(0, 4)
        with pytest.raises(InvalidInputError):
            infer_eag(policy, obs, prev, Pose(np.zeros(3)), Pose(np.zeros(3)))

    def test_exec_offset_moves_tail(self, demos20):
        cfg = PolicyConfig(noise_sigma=0.0, p_branch=0.0, target_mode="reached")
        policy = MockPolicy(demos20, cfg, seed=1)
        obs = _obs(demos20[1])
        prev = infer_unconditional(policy, obs)
        h_c = cfg.h_c
        chunk, applied = infer_eag(policy, obs, prev, Pose(np.zeros(3)),
                                   Pose(np.zeros(3)), exec_offset=20)
        assert applied
        assert chunk.positions[:h_c] == pytest.approx(
            prev.positions[20:20 + h_c], abs=1e-9)
