from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sailx.core import Pose
from sailx.errors import ConfigurationError, InvalidInputError
from sailx.policy import (ActionChunk, MockPolicy, PolicyConfig, cfg_blend,
                          infer_conditional, infer_eag, infer_unconditional)
from sailx.sim import initial_world
from sailx.experiments import task_for_demo

import policy_oracle


# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


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

    @pytest.mark.parametrize("h_c", [0, -1])
    def test_conditioning_length_must_be_positive(self, h_c):
        # an empty tail used to pass and fail later, in the window scores
        with pytest.raises(ConfigurationError):
            PolicyConfig(h_p=32, h_e=8, h_c=h_c)


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


class TestLastQueryCache:
    @pytest.mark.parametrize("change", ["gripper", "object"])
    def test_never_serves_a_stale_matrix(self, demos20, change):
        cfg = PolicyConfig()
        obs = _obs(demos20[3])
        if change == "gripper":
            other = replace(obs, gripper=obs.gripper + 0.5)
        else:
            other = replace(obs, object_pose=Pose(
                obs.object_pose.position + np.array([0.0, 0.0, 0.01])))
        warm = MockPolicy(demos20, cfg, seed=0)
        first = warm._state_distances(obs)
        second = warm._state_distances(other)
        assert not np.array_equal(first, second)
        cold = MockPolicy(demos20, cfg, seed=0)._state_distances(other)
        assert second.tobytes() == cold.tobytes()
        assert warm._state_distances(obs).tobytes() == first.tobytes()

    def test_matrix_is_read_only(self, policy, demos20):
        dists = policy._state_distances(_obs(demos20[0]))
        assert not dists.flags.writeable
        with pytest.raises(ValueError):
            dists[0, 0] = 0.0

    def test_warm_and_cold_caches_draw_the_same_chunks(self, demos20):
        cfg = PolicyConfig(noise_sigma=0.002, p_branch=0.5)
        observations = [_obs(demos20[i]) for i in (0, 0, 5, 5, 0)]
        elsewhere = _obs(demos20[9])

        def draws(policy, evict):
            chunks = []
            for obs in observations:
                evict()
                chunks.append(infer_unconditional(policy, obs))
                evict()
                chunks.append(infer_unconditional(policy, obs))
                evict()
                tail = chunks[-2].segment(0, cfg.h_c)
                chunks.append(infer_conditional(policy, obs, tail))
            return chunks

        warm = draws(MockPolicy(demos20, cfg, seed=4), lambda: None)
        cold_policy = MockPolicy(demos20, cfg, seed=4)
        cold = draws(cold_policy,
                     lambda: cold_policy._state_distances(elsewhere))
        assert len(warm) == len(cold) == 3 * len(observations)
        for a, b in zip(warm, cold):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.grippers.tobytes() == b.grippers.tobytes()


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


@st.composite
def orientation_pairs(draw):
    """(uncond, cond) chunks whose orientations pair up randomly, equal,
    antipodal or near each other, with relative rotations whose vector
    part lies below 1e-12 or between 1e-12 and 1e-10."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uncond = rng.normal(size=(n, 4))
    uncond /= np.linalg.norm(uncond, axis=1)[:, None]
    cond = np.empty_like(uncond)
    for i, q in enumerate(uncond):
        kind = draw(st.sampled_from(["random", "identical", "antipodal",
                                     "near"]))
        if kind == "random":
            cond[i] = rng.normal(size=4)
        elif kind == "identical":
            cond[i] = q
        elif kind == "antipodal":
            cond[i] = -q
        else:
            step = draw(st.sampled_from([1e-14, 1e-13, 3e-12, 2e-11]))
            cond[i] = q + rng.normal(0.0, step, 4)
        cond[i] /= np.linalg.norm(cond[i])
    chunk = _chunk(n)
    return (replace(chunk, orientations=uncond),
            replace(chunk, orientations=cond))


class TestCfgBlend:
    @SETTINGS
    @given(orientation_pairs(),
           st.floats(-10.0, 10.0).filter(lambda w: w not in (0.0, 1.0)))
    @example(case=(replace(_chunk(2), orientations=np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])),
        replace(_chunk(2), orientations=np.array(
            [[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))), w=0.5)
    def test_orientations_match_the_per_waypoint_loop(self, case, w):
        uncond, cond = case
        got = cfg_blend(uncond, cond, w).orientations
        want = policy_oracle.blend_orientations(uncond, cond, w)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_endpoints_exact(self, seed, n):
        a, b = _chunk(n, seed=seed), _chunk(n, seed=seed + 1, theta=0.7)
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

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.floats(-10.0, 10.0))
    @example(seed=1, n=8, w=3.0)
    def test_grippers_clamped(self, seed, n, w):
        a, b = _chunk(n, seed=seed), _chunk(n, seed=seed + 1, theta=0.7)
        blended = cfg_blend(a, b, w)
        assert np.all(blended.grippers >= 0.0)
        assert np.all(blended.grippers <= 1.0)

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
