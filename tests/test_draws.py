"""PCG64Draws against numpy's Generator: the same calls give the same draws.

The pursuit environment and the Q-learner take their random() and
integers(n) draws from PCG64Draws, which reproduces numpy's algorithms on raw
PCG64 words. These tests pin that to the numpy in use, so a numpy release
that changed either algorithm fails here rather than in a pinned hash.
"""

import random

import numpy as np
import pytest

from capmdp.qlearning import _BLOCK_WORDS, PCG64Draws

# rejection-heavy bounds: near 2**31 about half of all 32-bit draws are redrawn
WIDE_BOUNDS = (2**31, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32)


def assert_same_position(generator, mirror):
    """The two generators are at one stream position, cached half included."""
    ours, theirs = generator.bit_generator.state, mirror.bit_generator.state
    assert ours["state"] == theirs["state"]
    assert ours["has_uint32"] == theirs["has_uint32"]
    if theirs["has_uint32"]:
        assert ours["uinteger"] == theirs["uinteger"]
    assert generator.integers(2**32, size=4).tolist() == mirror.integers(2**32, size=4).tolist()


def play(seed: int, calls: int):
    """Random interleavings of every served draw and the hand-back, mirrored on a Generator."""
    plan = random.Random(seed)
    generator, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 3 == 0:
        # start from a Generator that holds a cached half
        assert generator.integers(7) == mirror.integers(7)
    draws = PCG64Draws(generator)
    for _ in range(calls):
        pick = plan.random()
        if pick < 0.4:
            assert draws.random() == mirror.random()
        elif pick < 0.8:
            n = plan.randint(1, 64)
            assert draws.integers(n) == mirror.integers(n)
        elif pick < 0.95:
            n = plan.choice(WIDE_BOUNDS)
            assert draws.integers(n) == mirror.integers(n)
        else:
            chosen = draws.generator().choice(64, size=8, replace=False)
            assert chosen.tolist() == mirror.choice(64, size=8, replace=False).tolist()
    draws.generator()
    assert_same_position(generator, mirror)


@pytest.mark.parametrize("first_seed", range(0, 240, 40))
def test_draws_match_the_generator_over_random_interleavings(first_seed):
    for seed in range(first_seed, first_seed + 40):
        # short runs hand back within the first block, long ones across many
        play(seed, calls=(10, 300, 1500)[seed % 3])


@pytest.mark.parametrize("cached_half", [False, True])
@pytest.mark.parametrize("used", [1, _BLOCK_WORDS // 2, _BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 1])
def test_hand_back_mid_block_and_at_a_block_boundary(used, cached_half):
    generator, mirror = np.random.default_rng(used), np.random.default_rng(used)
    draws = PCG64Draws(generator)
    # `used` words: random() takes one, and an integers() draw takes the low
    # half of one word, leaving its high half cached
    for _ in range(used - cached_half):
        assert draws.random() == mirror.random()
    if cached_half:
        assert draws.integers(5) == mirror.integers(5)
    assert mirror.bit_generator.state["has_uint32"] == cached_half
    chosen = draws.generator().choice(64, size=8, replace=False)
    assert chosen.tolist() == mirror.choice(64, size=8, replace=False).tolist()
    # the next draws start a fresh block from where choice left the Generator
    for n in (5, 5, 3, 2**31 + 1):
        assert draws.integers(n) == mirror.integers(n)
    assert draws.random() == mirror.random()
    draws.generator()
    assert_same_position(generator, mirror)


def test_integers_of_one_takes_no_draw():
    generator, mirror = np.random.default_rng(4), np.random.default_rng(4)
    draws = PCG64Draws(generator)
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.integers(9) == mirror.integers(9)
    assert draws.random() == mirror.random()


@pytest.mark.parametrize("bad", [0, -3, 2**32 + 1, 2**40])
def test_integers_outside_its_range_raises(bad):
    with pytest.raises(ValueError, match="0 < n <= 2"):
        PCG64Draws(np.random.default_rng(0)).integers(bad)


@pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox, np.random.SFC64, np.random.PCG64DXSM])
def test_only_pcg64_is_accepted(bits):
    with pytest.raises(TypeError, match="PCG64"):
        PCG64Draws(np.random.Generator(bits(0)))
