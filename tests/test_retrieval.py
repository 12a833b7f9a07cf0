"""Vectorised retrieval against the per-demo loops it replaced.

``MockPolicy`` packs the demo library into padded arrays and scores every
demo state and every window at once. Its unconditional and conditional
draws, its nearest-state match and its state distances must give the same
bits as the per-demo loops in ``policy_oracle``, over demos of unequal
length, demos shorter than the conditioning length, duplicated demos
(exact ties), branch switching among up to three eligible demos, and the
aggregated baseline. A batch of unconditional draws seeded ahead must
give the chunks as many single draws give. The window scores are not
exposed; the sweep digests check their summation order. A conditional
draw's window comes from the library's k-d tree, which must find the
window the full scan of the scores finds, the first in library order on
a tie, and which a library whose policies never condition never builds.
"""
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sailx import experiments
from sailx import policy as sailx_policy
from sailx.baselines import AggregatedActionsPolicy
from sailx.core import IDENTITY_QUAT, Pose
from sailx.io import Demonstration
from sailx.errors import ConfigurationError, InvalidInputError
from sailx.policy import (H_C, ActionChunk, DemoLibrary, MockPolicy,
                          PolicyConfig, _best_window, _pairwise_sum,
                          _window_scores, infer_conditional,
                          infer_unconditional, seed_ahead)
from sailx.sim import GRIPPER, TaskSpec, initial_world

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


@contextmanager
def _policy_constants(consts):
    """Run with the policy's module constants set to ``consts``."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in consts.items():
            mp.setattr(sailx_policy, name, value)
        yield


@st.composite
def retrieval_cases(draw):
    """(policy constants, config, demos, aggregated, seed, rng)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_c = draw(st.integers(2, 5))
    h_p = h_c + draw(st.integers(1, 4)) + draw(st.integers(1, 12))
    consts = dict(H_P=h_p, H_C=h_c,
                  NOISE_SIGMA=draw(st.sampled_from([0.0, 0.002])))
    cfg = PolicyConfig(p_branch=draw(st.sampled_from([0.0, 0.5, 1.0])),
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
    return consts, cfg, demos, aggregated, draw(st.integers(0, 2**16)), rng


def _query(rng, demos):
    """An observation at a demo state, exactly or perturbed."""
    demo = demos[int(rng.integers(0, len(demos)))]
    s = int(rng.integers(0, len(demo)))
    noise = rng.choice([0.0, 0.001, 0.02])
    return _state(demo.reached[s, :3] + rng.normal(0.0, noise, 3),
                  demo.objects[s, :3] + rng.normal(0.0, noise, 3),
                  float(rng.choice([demo.grippers[s], rng.random()])))


def _state(robot, obj, gripper):
    """The packed plant state of a robot, object and gripper at rest."""
    state = initial_world(Pose(robot), TaskSpec(Pose(obj), np.zeros(3)))
    state[GRIPPER] = gripper
    return state


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
    consts, cfg, demos, aggregated, seed, rng = case
    with _policy_constants(consts):
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
            tail = _tail(rng, chunk, sailx_policy.H_C)
            assert _same(infer_conditional(fast, obs, tail),
                         policy_oracle.infer_conditional(slow, obs, tail))


@st.composite
def batch_cases(draw):
    consts, cfg, demos, aggregated, _, rng = draw(retrieval_cases())
    cfg = replace(cfg, p_branch=draw(st.sampled_from([0.0, 0.2, 1.0])))
    # policy seeds of 1, 2 and 3 uint32 words, and calls made before
    seed = draw(st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**96 - 1)))
    size = draw(st.sampled_from([1, 8, 9, 64]))
    # demos hold at most 60 steps: large delays run windows past their end
    delay = draw(st.sampled_from([0, 1, 30, 70]))
    return consts, cfg, demos, aggregated, seed, draw(st.integers(0, 3)), \
        size, delay, rng


@SETTINGS
@given(batch_cases())
def test_a_batch_of_draws_is_the_single_draws(case):
    consts, cfg, demos, aggregated, seed, before, size, delay, rng = case
    with _policy_constants(consts):
        fast_class = AggregatedActionsPolicy if aggregated else MockPolicy
        slow_class = (policy_oracle.OracleAggregatedPolicy if aggregated
                      else policy_oracle.OraclePolicy)
        batched, twin = (fast_class(demos, cfg, seed=seed) for _ in range(2))
        slow = slow_class(demos, cfg, seed=seed)
        obs = _query(rng, demos)
        for _ in range(before):
            infer_unconditional(batched, obs)
            infer_unconditional(twin, obs)
            policy_oracle.infer_unconditional(slow, obs)
        seed_ahead([batched], size)
        chunks = infer_unconditional(batched, obs, delay_steps=delay,
                                     size=size)
        assert isinstance(chunks, list) and len(chunks) == size
        for chunk in chunks:
            assert _same(chunk, infer_unconditional(twin, obs,
                                                    delay_steps=delay))
            assert _same(chunk, policy_oracle.infer_unconditional(
                slow, obs, delay_steps=delay))
        assert batched._calls == twin._calls == slow._calls == before + size


def test_an_empty_batch_draws_nothing(demos20):
    policy = MockPolicy(demos20, PolicyConfig())
    obs = _query(np.random.default_rng(0), demos20)
    assert infer_unconditional(policy, obs, size=0) == []
    assert policy._calls == 0
    with pytest.raises(InvalidInputError, match="size"):
        infer_unconditional(policy, obs, size=-1)


def test_a_negative_zero_coordinate_draws_as_the_oracle_without_noise():
    # normal(0.0, 0.0) gives +0.0, and -0.0 + +0.0 is +0.0; a batch's
    # scaled standard normals are -0.0 where z < 0, so only the 0.0 it
    # adds to them makes a -0.0 coordinate come out +0.0 as it did
    demos = []
    for demo in _library_demos():
        reached = demo.reached.copy()
        reached[:, 0] = -0.0
        demos.append(replace(demo, reached=reached))
    cfg = PolicyConfig(p_branch=0.5)
    with _policy_constants({"NOISE_SIGMA": 0.0}):
        fast = MockPolicy(demos, cfg, seed=4)
        slow = policy_oracle.OraclePolicy(demos, cfg, seed=4)
        obs = _at_state(demos[1], 30)
        chunks = infer_unconditional(fast, obs, size=10)
        for chunk in chunks:
            assert _same(chunk, policy_oracle.infer_unconditional(slow, obs))
        assert not np.signbit(chunks[0].positions[:, 0]).any()


@pytest.mark.parametrize("policy_class", [MockPolicy, AggregatedActionsPolicy])
@pytest.mark.parametrize("p_branch", [0.0, 1.0])
def test_the_positions_of_a_batch_are_each_draws_own(policy_class, p_branch):
    demos = _library_demos()  # a duplicate demo: branches tie
    policy = policy_class(demos, PolicyConfig(p_branch=p_branch), seed=2)
    library = [row for rows in policy._rows for row in rows]
    before = [row.tobytes() for row in library]
    obs = _at_state(demos[1], 30)
    # windows inside the demos, and windows past their ends
    for delay in (0, 40):
        chunks = infer_unconditional(policy, obs, delay_steps=delay, size=8)
        for chunk in chunks:
            assert not any(np.shares_memory(chunk.positions, row)
                           for row in library)
        others = [c.positions.copy() for c in chunks[1:]]
        chunks[0].positions[...] = 1.0
        for chunk, want in zip(chunks[1:], others):
            assert chunk.positions.tobytes() == want.tobytes()
    assert [row.tobytes() for row in library] == before


def _tails(rng, demos, chunk, h_c):
    """Tails a conditional draw may get, exact windows among them."""
    yield _tail(rng, chunk, h_c)
    # an exact window of a demo, which a duplicate of the demo ties, or
    # its last steps, which the windows running into the padding overlap
    demo = demos[int(rng.integers(0, len(demos)))]
    stream = demo.reached if rng.random() < 0.5 else demo.commanded
    start = int(rng.integers(0, len(demo)))
    steps = np.minimum(np.arange(start, start + h_c), len(demo) - 1)
    yield ActionChunk(stream[steps, :3], stream[steps, 3:7],
                      demo.grippers[steps], demo.k[steps])


@SETTINGS
@given(retrieval_cases())
def test_planes_score_as_the_packed_library(case):
    consts, cfg, demos, _, seed, rng = case
    with _policy_constants(consts):
        h_c = sailx_policy.H_C
        policy = MockPolicy(demos, cfg, seed=seed)
        packed = policy_oracle.PackedOracle(demos, cfg)
        width = policy._grip.shape[1]
        for _ in range(4):
            obs = _query(rng, demos)
            want = packed.state_distances(obs)
            assert policy._state_distances(obs).tobytes() == \
                np.ascontiguousarray(want[:, :width]).tobytes()
            assert np.all(want[:, width:] == np.inf)
            chunk = infer_unconditional(policy, obs)
            for tail in _tails(rng, demos, chunk, h_c):
                if width >= h_c:
                    assert _window_scores(policy, obs, tail).tobytes() == \
                        packed.window_scores(obs, tail).tobytes()
                assert _best_window(policy, obs, tail) == \
                    packed.best_window(obs, tail)


@SETTINGS
@given(st.integers(1, 15), st.integers(0, 2**32 - 1))
def test_pairwise_sum_adds_in_the_order_of_np_sum(n, seed):
    rng = np.random.default_rng(seed)
    # magnitudes far apart make every order of addition round differently
    values = rng.random((n, 5)) * 10.0 ** rng.integers(-8, 9, (n, 5))
    got = _pairwise_sum(lambda i: values[i].copy(), n)
    want = np.sum(np.ascontiguousarray(values.T), axis=1)
    assert got.tobytes() == want.tobytes()


@SETTINGS
@given(retrieval_cases())
def test_the_ranking_kept_with_a_query_is_a_fresh_ranking(case):
    _, cfg, demos, _, seed, rng = case
    warm = MockPolicy(demos, cfg, seed=seed)
    for _ in range(4):
        obs = _query(rng, demos)
        k = int(rng.integers(1, len(demos) + 1))
        warm.nearest_states(obs, int(rng.integers(1, len(demos) + 1)))
        cold = MockPolicy(demos, cfg, seed=seed)
        assert warm.nearest_states(obs, k) == cold.nearest_states(obs, k)


def test_a_shared_library_draws_as_an_own_one(demos20):
    library = DemoLibrary(demos20)
    for mode in ("reached", "commanded"):
        cfg = PolicyConfig(p_branch=0.5, target_mode=mode)
        shared = MockPolicy(demos20, cfg, seed=3, library=library)
        own = MockPolicy(demos20, cfg, seed=3)
        for demo in demos20[:5]:
            obs = _query(np.random.default_rng(len(demo)), [demo])
            a = infer_unconditional(shared, obs)
            assert _same(a, infer_unconditional(own, obs))
            tail = a.segment(0, H_C)
            assert _same(infer_conditional(shared, obs, tail),
                         infer_conditional(own, obs, tail))


def test_a_library_of_other_demos_is_refused(demos20):
    with pytest.raises(ConfigurationError, match="library"):
        MockPolicy(demos20[:10], PolicyConfig(),
                   library=DemoLibrary(demos20[10:]))


def _library_demos():
    """Three demos of unequal length along one path, and a duplicate."""
    rng = np.random.default_rng(8)
    base = np.cumsum(rng.normal(0.0, 0.01, (60, 3)), axis=0)
    demos = [_demo(rng, base, n, rng.normal(0.0, 0.02, 3), 20)
             for n in (40, 52, 60)]
    return demos + [demos[1]]


def _at_state(demo, step):
    return _state(demo.reached[step, :3], demo.objects[step, :3],
                  float(demo.grippers[step]))


def _short_horizons(monkeypatch):
    """Draw 16-step chunks continuing 3-step tails, to fit the demos."""
    monkeypatch.setattr(sailx_policy, "H_P", 16)
    monkeypatch.setattr(sailx_policy, "H_C", 3)


# where a drawn window [start, start + H_P) ends against its demo's last
# step: one step before it, exactly at it, one step past it, and with
# start itself past the demo
WINDOW_ENDS = {"inside": -1, "at_last_step": 0, "one_past": 1,
               "start_past_the_demo": 100}


@pytest.mark.parametrize("mode", ["reached", "commanded"])
@pytest.mark.parametrize("aggregated", [False, True])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.002])
@pytest.mark.parametrize("end", list(WINDOW_ENDS))
def test_draws_at_a_demos_end_match_the_per_demo_loops(end, noise_sigma,
                                                        aggregated, mode,
                                                        monkeypatch):
    demos = _library_demos()
    _short_horizons(monkeypatch)
    monkeypatch.setattr(sailx_policy, "NOISE_SIGMA", noise_sigma)
    cfg = PolicyConfig(target_mode=mode)
    if aggregated:
        fast = AggregatedActionsPolicy(demos, cfg, seed=5)
        slow = policy_oracle.OracleAggregatedPolicy(demos, cfg, seed=5)
    else:
        fast = MockPolicy(demos, cfg, seed=5)
        slow = policy_oracle.OraclePolicy(demos, cfg, seed=5)
    for demo in demos:
        obs = _at_state(demo, len(demo) // 2)
        _, nearest, step = fast.nearest_states(obs)[0]
        # the draw starts at step + 1 + delay_steps
        start = len(demos[nearest]) - sailx_policy.H_P + WINDOW_ENDS[end]
        delay = start - step - 1
        assert delay >= 0
        chunk = infer_unconditional(fast, obs, delay_steps=delay)
        assert _same(chunk, policy_oracle.infer_unconditional(
            slow, obs, delay_steps=delay))


def test_a_window_inside_a_demo_is_a_read_only_view_of_the_library(
        monkeypatch):
    demos = _library_demos()
    _short_horizons(monkeypatch)
    monkeypatch.setattr(sailx_policy, "NOISE_SIGMA", 0.0)
    policy = MockPolicy(demos, PolicyConfig())
    obs = _at_state(demos[0], 5)
    _, nearest, step = policy.nearest_states(obs)[0]
    first = infer_unconditional(policy, obs)
    tail = ActionChunk(*(getattr(first, f)[:3] for f in FIELDS))
    cond = infer_conditional(policy, obs, tail)
    # an unconditional draw adds its noise to a copy of the positions
    assert not np.shares_memory(first.positions, policy._rows[nearest][0])
    for chunk, start in ((first, 1), (cond, 0)):
        for field, rows in list(zip(FIELDS, policy._rows[nearest]))[start:]:
            part = getattr(chunk, field)
            assert np.shares_memory(part, rows)
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0
    again = infer_unconditional(policy, obs)
    assert _same(again, first)
    assert again.positions.tobytes() == \
        demos[nearest].reached[step + 1:step + 17, :3].tobytes()


def test_nearest_states_under_alternating_queries_match_the_per_demo_loops():
    demos = _library_demos()
    cfg = PolicyConfig()
    fast = MockPolicy(demos, cfg)
    slow = policy_oracle.OraclePolicy(demos, cfg)
    queries = [_at_state(demos[0], 10), _at_state(demos[1], 30)]
    for obs in queries * 3:
        for k in (1, 3, 1):
            ranked = sorted((float(np.min(d)), i, int(np.argmin(d)))
                            for i, d in enumerate(slow._state_distances(obs)))
            got = fast.nearest_states(obs, k)
            assert got == ranked[:k]
            # a caller's changes to its list stay out of the next result
            got[0] = None
            got.append(got[-1])
            assert fast.nearest_states(obs, k) == ranked[:k]


# ---------------------------------------------------------------------------
# the window tree against the full scan

def _scan(policy, obs, tail):
    """(demo, start) of the full scan: the first argmin of the scores."""
    n_windows = policy._grip.shape[1] - sailx_policy.H_C + 1
    return divmod(int(np.argmin(_window_scores(policy, obs, tail))),
                  n_windows)


@pytest.fixture()
def answers(monkeypatch):
    """The tree's answers, None where it left the window to the scan."""
    got = []
    nearest = sailx_policy._WindowTree.nearest

    def recorded(tree, query):
        got.append(nearest(tree, query))
        return got[-1]

    monkeypatch.setattr(sailx_policy._WindowTree, "nearest", recorded)
    return got


def _between(rng, policy, demos, h_c):
    """A state and a tail midway between two windows of the library, which
    score the same in exact arithmetic and apart only by rounding."""
    picks = []
    for _ in range(2):
        i = int(rng.integers(0, len(demos)))
        j = int(rng.integers(0, max(len(demos[i]) - h_c, 0) + 1))
        picks.append((demos[i], min(j, len(demos[i]) - 1)))
    (a, i), (b, j) = picks
    mode = policy.config.target_mode
    steps_a = np.minimum(np.arange(i, i + h_c), len(a) - 1)
    steps_b = np.minimum(np.arange(j, j + h_c), len(b) - 1)
    tail = ActionChunk(
        (getattr(a, mode)[steps_a, :3] + getattr(b, mode)[steps_b, :3]) / 2,
        np.tile(IDENTITY_QUAT, (h_c, 1)),
        (a.grippers[steps_a] + b.grippers[steps_b]) / 2,
        np.zeros(h_c, dtype=np.int8))
    obs = _state((a.reached[i, :3] + b.reached[j, :3]) / 2,
                 (a.objects[i, :3] + b.objects[j, :3]) / 2,
                 float(a.grippers[i] + b.grippers[j]) / 2)
    return obs, tail


@SETTINGS
@given(retrieval_cases())
def test_the_tree_finds_the_window_of_the_full_scan(case):
    consts, cfg, demos, aggregated, seed, rng = case
    with _policy_constants(consts):
        h_c = sailx_policy.H_C
        policy_class = AggregatedActionsPolicy if aggregated else MockPolicy
        policy = policy_class(demos, cfg, seed=seed)
        for _ in range(4):
            obs = _query(rng, demos)
            chunk = infer_unconditional(policy, obs)
            queries = [(obs, tail) for tail in _tails(rng, demos, chunk, h_c)]
            queries.append(_between(rng, policy, demos, h_c))
            for obs, tail in queries:
                got = _best_window(policy, obs, tail)
                if policy._grip.shape[1] >= h_c:
                    assert got == _scan(policy, obs, tail)
                else:  # no window inside a demo
                    assert got == (0, 0)


def _at_window(demo, stream, start, h_c):
    """The state at a demo step and the tail of the window from it."""
    steps = np.arange(start, start + h_c)
    tail = ActionChunk(stream[steps, :3], stream[steps, 3:7],
                       demo.grippers[steps], demo.k[steps])
    return _at_state(demo, start), tail


@pytest.mark.parametrize("mode", ["reached", "commanded"])
@pytest.mark.parametrize("horizons", ["default", "short"])
class TestWindowTree:
    @pytest.fixture(autouse=True)
    def _horizons(self, horizons, monkeypatch):
        if horizons == "short":
            _short_horizons(monkeypatch)

    def test_a_tail_on_a_window_is_answered_by_the_tree(self, mode, answers):
        demos = _library_demos()[:3]  # no duplicate
        policy = MockPolicy(demos, PolicyConfig(target_mode=mode))
        h_c = sailx_policy.H_C
        for d, demo in enumerate(demos):
            stream = getattr(demo, mode)
            for start in (0, 11, len(demo) - h_c):  # the last inside
                obs, tail = _at_window(demo, stream, start, h_c)
                got = _best_window(policy, obs, tail)
                assert got == _scan(policy, obs, tail) == (d, start)
        assert None not in answers

    def test_a_duplicated_demo_ties_and_the_first_wins(self, mode, answers):
        demos = _library_demos()  # demo 3 is demo 1
        policy = MockPolicy(demos, PolicyConfig(target_mode=mode))
        obs, tail = _at_window(demos[1], getattr(demos[1], mode), 17,
                               sailx_policy.H_C)
        assert _best_window(policy, obs, tail) == \
            _scan(policy, obs, tail) == (1, 17)
        assert answers == [None]

    def test_a_tail_at_the_end_of_a_shorter_demo(self, mode):
        # the windows of the 40-step demo from step 37 run into the +inf
        # padding and are not in the tree; its last steps held give a tail
        # that no window inside it matches exactly
        demos = _library_demos()
        policy = MockPolicy(demos, PolicyConfig(target_mode=mode))
        h_c = sailx_policy.H_C
        demo = demos[0]
        stream = getattr(demo, mode)
        for start in range(len(demo) - h_c - 1, len(demo)):
            steps = np.minimum(np.arange(start, start + h_c), len(demo) - 1)
            tail = ActionChunk(stream[steps, :3], stream[steps, 3:7],
                               demo.grippers[steps], demo.k[steps])
            obs = _at_state(demo, min(start, len(demo) - 1))
            assert _best_window(policy, obs, tail) == \
                _scan(policy, obs, tail)

    def test_tails_midway_between_two_windows(self, mode, answers):
        # pairs of windows that score the same in exact arithmetic
        demos = _library_demos()[:3]
        policy = MockPolicy(demos, PolicyConfig(target_mode=mode))
        rng = np.random.default_rng(3)
        for _ in range(200):
            obs, tail = _between(rng, policy, demos, sailx_policy.H_C)
            assert _best_window(policy, obs, tail) == \
                _scan(policy, obs, tail)
        assert None in answers

    def test_windows_all_at_one_distance(self, mode, answers):
        # demos along circles about the tail's point: in exact arithmetic
        # every window scores the same, and only rounding tells them apart
        h_c = sailx_policy.H_C
        centre = np.array([0.31, -0.17, 0.23])
        demos = []
        for k in range(5):
            angles = 0.013 * np.arange(40) + 0.7 * k
            ring = np.stack([np.cos(angles), np.sin(angles),
                             np.zeros(40)], axis=1)
            pos = centre + 0.05 * ring
            quat = np.tile(IDENTITY_QUAT, (40, 1))
            demos.append(Demonstration(
                dt=0.05, commanded=np.hstack([pos, quat]),
                reached=np.hstack([pos, quat]), grippers=np.zeros(40),
                k=np.zeros(40), objects=np.hstack([np.tile(centre, (40, 1)),
                                                   quat])))
        policy = MockPolicy(demos, PolicyConfig(target_mode=mode))
        tail = ActionChunk(np.tile(centre, (h_c, 1)),
                           np.tile(IDENTITY_QUAT, (h_c, 1)), np.zeros(h_c),
                           np.zeros(h_c, dtype=np.int8))
        obs = _state(centre, centre, 0.0)
        assert _best_window(policy, obs, tail) == _scan(policy, obs, tail)
        assert answers == [None]


def test_a_library_that_never_conditions_builds_no_tree(demos20):
    library = DemoLibrary(demos20)
    policies = {mode: MockPolicy(demos20, PolicyConfig(target_mode=mode),
                                 library=library)
                for mode in ("reached", "commanded")}
    obs = _at_state(demos20[3], 10)
    for policy in policies.values():
        infer_unconditional(policy, obs, size=4)
    assert library._trees == {}
    tail = infer_unconditional(policies["commanded"], obs).segment(0, H_C)
    infer_conditional(policies["commanded"], obs, tail)
    tree = library._trees["commanded"]
    assert list(library._trees) == ["commanded"]
    # a second policy on the stream queries the same tree
    twin = MockPolicy(demos20, PolicyConfig(target_mode="commanded"),
                      library=library)
    infer_conditional(twin, obs, tail)
    assert library._trees == {"commanded": tree}


def test_replays_and_diagnostics_build_no_tree(demos20, monkeypatch):
    def refused(*args):
        raise AssertionError("a window tree was built")

    monkeypatch.setattr(sailx_policy._WindowTree, "__init__", refused)
    experiments.run_diagnostics(demos20[:6], c_values=(1.0,), trials=2,
                                seed=0)
    experiments.sweep_noise(demos20[:6], scales=(0.0, 0.005), trials=2,
                            seed=0)
