"""Seeding many (seed, call) keys at once against numpy's own seeding.

``policy._pcg64_states`` repeats on arrays what ``default_rng((seed,
call))`` does one key at a time: SeedSequence's hashing and PCG64's
seeding step. ``policy._generators`` serves the keys it covers from one
reused Generator and the others from ``default_rng``. Both must give the
draws ``default_rng`` gives, through every drawing method the policy uses,
for seeds of one, two and three uint32 words and calls up to 2**32 - 1.
A numpy release that changes how it seeds fails here, and one that
changes how ``normal`` relates to ``standard_normal``, which a batch of
unconditional draws fills its noise buffer with, fails here too.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sailx.policy import (BATCH_SEEDING_MIN, H_P, NOISE_SIGMA, _generators,
                          _pcg64_states)

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


def _draws(rng, k, m):
    """What one unconditional draw asks of its generator, and more."""
    return (rng.random(), int(rng.integers(0, k)), int(rng.integers(0, k)),
            rng.normal(0.0, 0.002, size=(m, 3)).tobytes(), rng.random())


@SETTINGS
@given(SEEDS, CALLS, st.integers(1, 40))
def test_states_are_default_rngs(seed, call, n):
    seed, first, n = _keys(seed, call, n)
    want = [np.random.default_rng((seed, c)).bit_generator.state["state"]
            for c in range(first, first + n)]
    assert [{"state": s, "inc": i}
            for s, i in _pcg64_states(seed, first, n)] == want


@SETTINGS
@given(SEEDS, CALLS, st.integers(BATCH_SEEDING_MIN, 40), st.integers(1, 3),
       st.integers(1, 40))
def test_a_covered_batch_draws_as_default_rng_from_one_generator(
        seed, call, n, k, m):
    seed, first, n = _keys(seed, call, n)
    served = set()
    for c, rng in zip(range(first, first + n), _generators(seed, first, n)):
        served.add(id(rng))
        assert _draws(rng, k, m) == \
            _draws(np.random.default_rng((seed, c)), k, m)
    assert len(served) == 1


@st.composite
def fallback_keys(draw):
    """Keys the vectorised pass leaves to default_rng: seeds of four or
    more words, batches running past one word of calls, and batches too
    small to gain."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["wide seed", "wide call", "small batch"]))
    if kind == "wide seed":
        return draw(st.integers(2**96, 2**160)), \
            draw(st.integers(0, 2**32 - n)), n
    if kind == "wide call":
        return draw(SEEDS), 2**32 - n + draw(st.integers(1, 2**32)), n
    return _keys(draw(SEEDS), draw(CALLS),
                 draw(st.integers(1, BATCH_SEEDING_MIN - 1)))


@SETTINGS
@given(fallback_keys(), st.integers(1, 3), st.integers(1, 40))
def test_keys_outside_the_batch_pass_draw_as_default_rng(keys, k, m):
    seed, first, n = keys
    rngs = list(_generators(seed, first, n))
    assert len({id(rng) for rng in rngs}) == n
    for c, rng in zip(range(first, first + n), rngs):
        assert _draws(rng, k, m) == \
            _draws(np.random.default_rng((seed, c)), k, m)


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
