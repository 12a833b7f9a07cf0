import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailx.baselines import (DOT_THRESHOLD, NORM_THRESHOLD,
                             AggregatedActionsPolicy, aggregate_chunk)
from sailx.errors import InvalidInputError
from sailx.policy import (H_P, ActionChunk, MockPolicy, PolicyConfig,
                          infer_unconditional)
from sailx.experiments import task_for_demo
from sailx.sim import Pose, initial_world

from baseline_oracle import aggregate_actions


def displacement(deltas):
    return np.sum(np.asarray(deltas, dtype=float), axis=0)


class TestAggregateActions:
    def test_tiny_aligned_deltas_merge_to_one(self):
        deltas = [np.array([1e-5, 0.0, 0.0])] * 10
        out = aggregate_actions(deltas)
        assert len(out) == 1
        assert out[0] == pytest.approx([1e-4, 0.0, 0.0], abs=1e-15)

    def test_norm_threshold_splits(self):
        d = np.array([NORM_THRESHOLD * 0.6, 0.0, 0.0])
        out = aggregate_actions([d, d, d])
        # first flush after two deltas exceed the norm bound, remainder after
        assert len(out) == 2
        assert displacement(out) == pytest.approx(displacement([d] * 3),
                                                  abs=1e-15)

    def test_direction_reversal_splits(self):
        fwd = np.array([1e-5, 0.0, 0.0])
        back = -fwd
        out = aggregate_actions([fwd, fwd, back, back])
        assert len(out) == 2
        assert out[0] == pytest.approx(2 * fwd, abs=1e-15)
        assert out[1] == pytest.approx(2 * back, abs=1e-15)

    def test_orthogonal_below_dot_threshold_splits(self):
        # cos(angle) = 0 < DOT_THRESHOLD, so a right-angle turn flushes
        assert DOT_THRESHOLD > 0.0
        a = np.array([1e-5, 0.0, 0.0])
        b = np.array([0.0, 1e-5, 0.0])
        assert len(aggregate_actions([a, a, b, b])) == 2

    def test_conservation_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            deltas = rng.normal(0.0, 2e-4, size=(n, 3))
            out = aggregate_actions(list(deltas))
            assert displacement(out) == pytest.approx(displacement(deltas),
                                                      abs=1e-12)

    def test_empty_input(self):
        assert aggregate_actions([]) == []

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            aggregate_actions([np.zeros(2)])
        with pytest.raises(InvalidInputError):
            aggregate_actions([np.array([np.nan, 0.0, 0.0])])


class TestAggregateChunk:
    def test_preserves_length_and_endpoints(self, demos20):
        policy = AggregatedActionsPolicy(demos20, PolicyConfig(), seed=0)
        world = initial_world(Pose(demos20[0].reached[0, :3],
                                   demos20[0].reached[0, 3:7]),
                              task_for_demo(demos20[0]))
        chunk = infer_unconditional(policy, world)
        assert len(chunk) == H_P
        raw = MockPolicy(demos20, PolicyConfig(), seed=0)._extract(0, 0)
        agg = aggregate_chunk(raw)
        assert len(agg) == len(raw)
        assert agg.positions[0] == pytest.approx(raw.positions[0], abs=1e-12)
        # net displacement up to the last distinct waypoint is conserved
        assert agg.positions[-1] == pytest.approx(raw.positions[-1],
                                                  abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.sampled_from([1e-5, 1e-4, 1e-3, 1e-2]))
    def test_keeps_length_and_total_displacement(self, seed, n, step):
        rng = np.random.default_rng(seed)
        quats = rng.normal(size=(n, 4))
        raw = ActionChunk(np.cumsum(rng.normal(0.0, step, (n, 3)), axis=0),
                          quats / np.linalg.norm(quats, axis=1)[:, None],
                          rng.uniform(size=n),
                          rng.integers(0, 2, size=n).astype(np.int8))
        agg = aggregate_chunk(raw)
        assert len(agg) == n
        assert np.array_equal(agg.positions[-1] - agg.positions[0],
                              raw.positions[-1] - raw.positions[0])

    def test_flags_survive_merging(self, demos20):
        raw = MockPolicy(demos20, PolicyConfig(), seed=0)._extract(0, 20)
        agg = aggregate_chunk(raw)
        assert agg.grippers.max() == pytest.approx(raw.grippers.max())
        assert agg.flags.max() == raw.flags.max()
