"""Seeding many (seed, call) keys at once against numpy's own seeding.

``policy._seed_words64`` repeats on arrays SeedSequence's hashing, which
``default_rng((seed, call))`` does one key at a time, for the calls of one
seed or of several, and ``policy._seeded`` PCG64's seeding step; they are
what ``seed_ahead`` runs. ``policy._draw_keys`` makes a batch's branch
choices and noise: keys seeded ahead take their branch draws from their
raw PCG64 words (``_draw_states``), any other key its own
``default_rng``. Both must give the bits ``default_rng`` gives, for seeds
of one, two and three uint32 words and calls up to 2**32 - 1. A numpy
release that changes how it seeds, how ``random`` and ``integers`` use
PCG64's words, or how ``normal`` relates to ``standard_normal``, which a
batch of unconditional draws fills its noise buffer with, fails here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailx.core import Pose
from sailx.experiments import task_for_demo
from sailx.policy import (H_P, NOISE_SIGMA, MockPolicy, PolicyConfig,
                          _draw_keys, _draw_states, _seed_words64, _seeded,
                          infer_unconditional, seed_ahead)
from sailx.sim import initial_world

# a fixed example sequence keeps every tier-1 run repeatable
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# seeds of 1, 2 and 3 uint32 words
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**96 - 1))
# a call each batch includes: the first, the last one a word holds, any
CALLS = st.one_of(st.just(0), st.just(2**32 - 1),
                  st.integers(0, 2**32 - 1))


def _keys(seed, call, n):
    """n consecutive calls that include ``call`` and stay below 2**32."""
    return seed, min(call, 2**32 - n), n


def _default_draws(seed, first, n, p_branch, eligible):
    """A batch's choices and standard normals as default_rng draws them:
    random, then integers when it falls below p_branch, then the noise."""
    choices, noise = [], []
    for call in range(first, first + n):
        rng = np.random.default_rng((seed, call))
        choice = 0
        if p_branch > 0.0 and rng.random() < p_branch:
            choice = int(rng.integers(0, eligible))
        choices.append(choice)
        noise.append(rng.standard_normal((H_P, 3)))
    return choices, np.array(noise).reshape(n, H_P, 3)


def _assert_draws_match(got, want):
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()


@SETTINGS
@given(SEEDS, CALLS, st.integers(1, 40))
def test_states_are_default_rngs(seed, call, n):
    seed, first, n = _keys(seed, call, n)
    want = [np.random.default_rng((seed, c)).bit_generator.state["state"]
            for c in range(first, first + n)]
    assert [{"state": s, "inc": i}
            for s, i in _seeded(_seed_words64([seed], first, n))] == want


P_BRANCH = st.sampled_from([0.0, 0.2, 1.0])


@SETTINGS
@given(SEEDS, CALLS, st.integers(1, 40), P_BRANCH, st.integers(1, 3))
def test_a_covered_batch_draws_as_default_rng_from_raw_words(
        seed, call, n, p_branch, eligible):
    seed, first, n = _keys(seed, call, n)
    states = _seeded(_seed_words64([seed], first, n))
    _assert_draws_match(_draw_keys(seed, first, n, p_branch, eligible,
                                   states),
                        _default_draws(seed, first, n, p_branch, eligible))


# seeds on either side of a word boundary, so that a list mixes widths
STRADDLING = st.one_of(st.integers(2**32 - 3, 2**32 + 3),
                       st.integers(2**64 - 3, 2**64 + 3), SEEDS)


@SETTINGS
@given(st.lists(STRADDLING, min_size=1, max_size=6), CALLS,
       st.integers(1, 12))
def test_several_seeds_are_seeded_in_one_pass(seeds, call, n):
    _, first, n = _keys(0, call, n)
    want = [np.random.default_rng((seed, c)).bit_generator.state["state"]
            for seed in seeds for c in range(first, first + n)]
    assert [{"state": s, "inc": i}
            for s, i in _seeded(_seed_words64(seeds, first, n))] == want


@SETTINGS
@given(st.lists(STRADDLING, min_size=2, max_size=4), CALLS,
       st.integers(1, 12), P_BRANCH, st.integers(1, 3))
def test_states_seeded_with_other_seeds_draw_as_default_rng(
        seeds, call, n, p_branch, eligible):
    _, first, n = _keys(0, call, n)
    states = _seeded(_seed_words64(seeds, first, n))
    for i, seed in enumerate(seeds):
        _assert_draws_match(
            _draw_keys(seed, first, n, p_branch, eligible,
                       states[i * n:(i + 1) * n]),
            _default_draws(seed, first, n, p_branch, eligible))


_M = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
_M_INV = pow(_M, -1, 2**128)
_MASK64 = 2**64 - 1


def _seeded_state_before(word, rot, inc, steps):
    """A PCG64 state from which the steps-th next word is ``word``: the
    state that outputs it, with its top 6 bits (the XSL-RR rotation) set
    to ``rot``, is built by undoing the rotation and the xor of its two
    halves, then the LCG step is undone ``steps`` times."""
    x = (word << rot | word >> (64 - rot)) & _MASK64
    hi = rot << 58 | 0x0123456789AB
    state = hi << 64 | (hi ^ x)
    for _ in range(steps):
        state = (state - inc) * _M_INV % 2**128
    return state


def test_a_branch_word_in_lemires_resample_zone_draws_on_the_generator():
    # integers(0, 3) multiplies the low 32 bits of its word by 3 and
    # resamples when the low half of the product is below 1, here 0: it
    # then takes the word's high half, 0xC0000000, and picks 2 where the
    # first product alone would pick 0
    inc = 0xDA3E39CB94B95BDB << 1 | 1
    branch_word = 0xC0000000 << 32
    seeded = _seeded_state_before(branch_word, 5, inc, 2)
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": seeded, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    rng.bit_generator.random_raw()
    assert int(rng.bit_generator.random_raw()) == branch_word
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": seeded, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    assert rng.random() < 1.0
    assert int(rng.integers(0, 3)) == 2
    want = rng.standard_normal((1, H_P, 3))
    noise = np.empty((1, H_P, 3))
    assert _draw_states([(seeded, inc)], 1.0, 3, noise) == [2]
    assert noise.tobytes() == want.tobytes()


@st.composite
def fallback_keys(draw):
    """Keys _draw_keys draws on default_rng: seeds of four or more words
    and batches running past one word of calls, which seed_ahead leaves
    alone, and any batch not seeded ahead."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["wide seed", "wide call", "small batch"]))
    if kind == "wide seed":
        return draw(st.integers(2**96, 2**160)), \
            draw(st.integers(0, 2**32 - n)), n
    if kind == "wide call":
        return draw(SEEDS), 2**32 - n + draw(st.integers(1, 2**32)), n
    return _keys(draw(SEEDS), draw(CALLS),
                 draw(st.integers(1, 40)))


@SETTINGS
@given(fallback_keys(), P_BRANCH, st.integers(1, 3))
def test_keys_outside_the_batch_pass_draw_as_default_rng(keys, p_branch,
                                                         eligible):
    seed, first, n = keys
    _assert_draws_match(_draw_keys(seed, first, n, p_branch, eligible),
                        _default_draws(seed, first, n, p_branch, eligible))


def test_policies_seeded_ahead_draw_as_policies_seeded_alone(demos20):
    cfg = PolicyConfig(p_branch=1.0)
    demo = demos20[0]
    obs = initial_world(Pose(demo.reached[10, :3], demo.reached[10, 3:7]),
                        task_for_demo(demo))
    seeds = [3, 2**32 + 5, 2**96, 11, 17]
    ahead = [MockPolicy(demos20, cfg, seed=s) for s in seeds]
    alone = [MockPolicy(demos20, cfg, seed=s) for s in seeds]
    infer_unconditional(ahead[3], obs)  # seeded from call 1, not 0
    infer_unconditional(alone[3], obs)
    seed_ahead(ahead[:4], 64)
    seed_ahead(ahead[4:], 8)  # fewer keys than its next batch
    # a seed of four words is left to default_rng
    assert [p._ahead is not None for p in ahead] == [True, True, False,
                                                    True, True]
    # a draw of another size takes its calls, and drops the keys
    infer_unconditional(ahead[1], obs)
    infer_unconditional(alone[1], obs)
    for fast, slow in zip(ahead, alone):
        for a, b in zip(infer_unconditional(fast, obs, size=64),
                        infer_unconditional(slow, obs, size=64)):
            assert a.positions.tobytes() == b.positions.tobytes()
            assert a.flags.tobytes() == b.flags.tobytes()
        assert fast._ahead is None
        assert fast._calls == slow._calls


@pytest.mark.parametrize("sigma", [NOISE_SIGMA, 0.0])
def test_normal_is_scaled_standard_normal_plus_zero(sigma):
    # infer_unconditional scales one standard_normal buffer by sigma and
    # adds 0.0 in place of rng.normal(0.0, sigma); at sigma = 0 the 0.0
    # turns each -0.0 into the +0.0 normal returns
    for call in range(200):
        want = np.random.default_rng((7, call)).normal(0.0, sigma,
                                                       size=(H_P, 3))
        got = np.empty((H_P, 3))
        np.random.default_rng((7, call)).standard_normal(out=got)
        got *= sigma
        got += 0.0
        assert got.tobytes() == want.tobytes()
