"""PCG64Draws against numpy's Generator: the same calls give the same draws.

The pursuit environment and the Q-learner take their random(), integers(n)
and choice draws from PCG64Draws(entropy), which seeds and steps PCG64 itself
and reproduces numpy's algorithms on its words. These tests pin that to
np.random.default_rng(entropy) in the numpy in use, so a numpy release that
changed the seeding or any algorithm fails here rather than in a pinned hash.
"""

import random

import numpy as np
import pytest

from capmdp.qlearning import _BLOCK_WORDS, PCG64Draws

# rejection-heavy bounds: near 2**31 about half of all 32-bit draws are redrawn
WIDE_BOUNDS = (2**31, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32)


# population and sample sizes for choice: both sides of numpy's switch from
# Floyd's algorithm to a tail shuffle at n > 10,000 and k > n // 50
CHOICE_SIZES = ((64, 8), (4, 4), (10201, 8), (10201, 300))


def assert_same_position(draws, mirror):
    """The draw source and the Generator are at one stream position, cached half included."""
    assert [draws.integers(2**32) for _ in range(4)] == [mirror.integers(2**32) for _ in range(4)]
    assert draws.random() == mirror.random()


def play(seed: int, calls: int):
    """Random interleavings of every served draw, mirrored on default_rng of the same entropy."""
    plan = random.Random(seed)
    entropy = (seed, [seed, 3], [seed, 1, 2**40 + 3])[seed % 4 % 3]
    draws, mirror = PCG64Draws(entropy), np.random.default_rng(entropy)
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
            n, k = plan.choice(CHOICE_SIZES)
            assert draws.choice(n, k) == mirror.choice(n, size=k, replace=False).tolist()
    assert_same_position(draws, mirror)


@pytest.mark.parametrize("first_seed", range(0, 240, 40))
def test_draws_match_the_generator_over_random_interleavings(first_seed):
    for seed in range(first_seed, first_seed + 40):
        # short runs stay within the first block, long ones cross many
        play(seed, calls=(10, 300, 1500)[seed % 3])


@pytest.mark.parametrize("cached_half", [False, True])
@pytest.mark.parametrize("used", [1, _BLOCK_WORDS // 2, _BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 1])
def test_hand_back_mid_block_and_at_a_block_boundary(used, cached_half):
    """A choice made mid-block or at a block boundary, and every draw after it, mirror the Generator."""
    draws, mirror = PCG64Draws(used), np.random.default_rng(used)
    # `used` words: random() takes one, and an integers() draw takes the low
    # half of one word, leaving its high half cached
    for _ in range(used - cached_half):
        assert draws.random() == mirror.random()
    if cached_half:
        assert draws.integers(5) == mirror.integers(5)
    assert mirror.bit_generator.state["has_uint32"] == cached_half
    assert draws.choice(64, 8) == mirror.choice(64, size=8, replace=False).tolist()
    for n in (5, 5, 3, 2**31 + 1):
        assert draws.integers(n) == mirror.integers(n)
    assert draws.random() == mirror.random()
    assert_same_position(draws, mirror)


def test_integers_of_one_takes_no_draw():
    draws, mirror = PCG64Draws(4), np.random.default_rng(4)
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.integers(9) == mirror.integers(9)
    assert draws.random() == mirror.random()


@pytest.mark.parametrize("bad", [0, -3, 2**32 + 1, 2**40])
def test_integers_outside_its_range_raises(bad):
    with pytest.raises(ValueError, match="0 < n <= 2"):
        PCG64Draws(0).integers(bad)


@pytest.mark.parametrize(
    "entropy",
    [0, 7, 2**32, 2**64 + 1, [5, 2], [5, 2, 9], [2**40 + 3, 0, 2**32], np.int64(5), -1, [3, -1], 1.5],
)
def test_entropy_seeds_numpy_stream_or_raises_its_exception(entropy):
    try:
        mirror = np.random.default_rng(entropy)
    except Exception as error:
        with pytest.raises(type(error)):
            PCG64Draws(entropy)
        return
    draws = PCG64Draws(entropy)
    assert draws.choice(50, 5) == mirror.choice(50, size=5, replace=False).tolist()
    assert_same_position(draws, mirror)
