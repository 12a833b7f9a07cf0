"""Vectorised retrieval against the per-demo loops it replaced.

``MockPolicy`` packs the demo library into padded arrays and scores every
demo state and every window at once. Its unconditional and conditional
draws, its nearest-state match and its state distances must give the same
bits as the per-demo loops in ``policy_oracle``, over demos of unequal
length, demos shorter than the conditioning length, duplicated demos
(exact ties), branch switching among up to three eligible demos, and the
aggregated baseline. The window scores are not exposed; the sweep digests
check their summation order.
"""
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx.baselines import AggregatedActionsPolicy
from sailx.core import IDENTITY_QUAT, Pose
from sailx.io import Demonstration
from sailx.policy import (ActionChunk, MockPolicy, PolicyConfig,
                          infer_conditional, infer_unconditional)

import policy_oracle

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

FIELDS = ("positions", "orientations", "grippers", "flags")


def _same(a: ActionChunk, b: ActionChunk) -> bool:
    return all(getattr(a, f).dtype == getattr(b, f).dtype
               and getattr(a, f).tobytes() == getattr(b, f).tobytes()
               for f in FIELDS)


def _demo(rng, base, n, offset, grip_step) -> Demonstration:
    """A demo along ``base`` shifted by ``offset``, with dwells and a grasp."""
    # repeated rows make equal states within one demo
    steps = np.arange(n) - (rng.random(n) < 0.2)
    steps = np.maximum.accumulate(np.maximum(steps, 0))
    pos = base[np.minimum(steps, len(base) - 1)] + offset
    quat = np.tile(IDENTITY_QUAT, (n, 1))
    grip = (steps >= grip_step).astype(float)
    obj = np.where(grip[:, None] > 0.5, pos, pos[0] + 0.01)
    return Demonstration(
        dt=0.05,
        commanded=np.hstack([pos + rng.normal(0.0, 0.003, (n, 3)), quat]),
        reached=np.hstack([pos, quat]), grippers=grip,
        k=(rng.random(n) < 0.3).astype(np.int8),
        objects=np.hstack([obj, quat]))


@st.composite
def retrieval_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_c = draw(st.integers(2, 5))
    h_e = h_c + draw(st.integers(1, 4))
    h_p = h_e + draw(st.integers(1, 12))
    cfg = PolicyConfig(h_p=h_p, h_e=h_e, h_c=h_c,
                       noise_sigma=draw(st.sampled_from([0.0, 0.002])),
                       p_branch=draw(st.sampled_from([0.0, 0.5, 1.0])),
                       target_mode=draw(st.sampled_from(["reached",
                                                         "commanded"])))
    base = np.cumsum(rng.normal(0.0, 0.01, (60, 3)), axis=0)
    # demo spreads around the branch slack make 1, 2 or 3 demos eligible
    spread = draw(st.sampled_from([0.0, 0.005, 0.02, 0.05]))
    demos = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(st.integers(1, h_c), st.integers(1, 60)))
        demos.append(_demo(rng, base, n, rng.normal(0.0, spread, 3),
                           int(rng.integers(0, 40))))
    for _ in range(draw(st.integers(0, 2))):
        demos.insert(int(rng.integers(0, len(demos) + 1)),
                     demos[int(rng.integers(0, len(demos)))])
    aggregated = draw(st.booleans())
    return cfg, demos, aggregated, draw(st.integers(0, 2**16)), rng


def _query(rng, demos):
    """An observation at a demo state, exactly or perturbed."""
    demo = demos[int(rng.integers(0, len(demos)))]
    s = int(rng.integers(0, len(demo)))
    noise = rng.choice([0.0, 0.001, 0.02])
    return SimpleNamespace(
        robot=Pose(demo.reached[s, :3] + rng.normal(0.0, noise, 3)),
        object_pose=Pose(demo.objects[s, :3] + rng.normal(0.0, noise, 3)),
        gripper=float(rng.choice([demo.grippers[s], rng.random()])))


def _tail(rng, chunk, h_c):
    if rng.random() < 0.5:
        return chunk.segment(0, h_c)
    return ActionChunk(chunk.positions[:h_c]
                       + rng.normal(0.0, 0.005, (h_c, 3)),
                       chunk.orientations[:h_c],
                       rng.choice([0.0, 1.0, rng.random()], h_c),
                       chunk.flags[:h_c])


@SETTINGS
@given(retrieval_cases())
def test_draws_match_the_per_demo_loops(case):
    cfg, demos, aggregated, seed, rng = case
    if aggregated:
        fast = AggregatedActionsPolicy(demos, cfg, seed=seed)
        slow = policy_oracle.OracleAggregatedPolicy(demos, cfg, seed=seed)
    else:
        fast = MockPolicy(demos, cfg, seed=seed)
        slow = policy_oracle.OraclePolicy(demos, cfg, seed=seed)
    obs = _query(rng, demos)
    for _ in range(6):
        if rng.random() < 0.6:  # else repeat the last observation
            obs = _query(rng, demos)
        dists = fast._state_distances(obs)
        for row, ref in zip(dists, slow._state_distances(obs)):
            assert row[:len(ref)].tobytes() == ref.tobytes()
            assert np.all(row[len(ref):] == np.inf)
        assert fast.nearest_states(obs)[0] == \
            policy_oracle.nearest_match(slow, obs)
        delay = int(rng.integers(0, 10))
        chunk = infer_unconditional(fast, obs, delay_steps=delay)
        assert _same(chunk, policy_oracle.infer_unconditional(
            slow, obs, delay_steps=delay))
        tail = _tail(rng, chunk, cfg.h_c)
        assert _same(infer_conditional(fast, obs, tail),
                     policy_oracle.infer_conditional(slow, obs, tail))
