import numpy as np
import pytest

from edwardsim import Keys, stream
from edwardsim.mala import MALA_STREAM_INDEX


def _fresh(seed, index):
    """The keyed stream built from scratch: Philox at counter 0 under (seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draws(rng, shape):
    # what one replica or one chain step takes: normals, then a uniform
    return rng.standard_normal(shape), rng.random()


INDICES = [0, 7, MALA_STREAM_INDEX, MALA_STREAM_INDEX + 1 + 123]
# normals of one Cholesky replica (N - 1, d) and one circulant replica (d, 2 (N - 1))
SHAPES = [(63, 2), (2, 126)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 99])
def test_at_matches_a_fresh_philox(seed, shape):
    keys = Keys(seed)
    # visit other keys first, and leave a stream half drawn
    keys.at(3).standard_normal(5)
    keys.at(MALA_STREAM_INDEX + 50).random(3)
    for index in INDICES + INDICES[::-1]:
        got = _draws(keys.at(index), shape)
        want = _draws(_fresh(seed, index), shape)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], index
        got = _draws(stream(seed, index), shape)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], index


def test_at_returns_one_generator():
    keys = Keys(5)
    assert keys.at(0) is keys.at(1)


def test_seed_is_reduced_like_the_key():
    assert Keys(-1).seed == 2**64 - 1
    assert np.array_equal(stream(-1, 2).random(4), _fresh(2**64 - 1, 2).random(4))
