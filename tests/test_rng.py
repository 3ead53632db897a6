"""The seeded draw stream against ``random.Random.randrange``."""

import random
from itertools import islice

import pytest

from ranklab.rng import draws, substream_seed

BOUNDS = (1, 2, 3, 4, 5, 8, 9, 255, 256, 257, 2**16, 3**16, 2**28, 2**32 - 1, 2**32, 2**32 + 1, 2**64 + 3)
SEEDS = (0, 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bound", BOUNDS)
def test_draws_are_randrange_draw_for_draw(seed, bound):
    # the same getrandbits calls and the same rejections: so the stream's
    # values match, and so does the generator state after each of them
    rng = random.Random(seed)
    expected = [rng.randrange(bound) for _ in range(400)]
    assert list(islice(draws(seed, bound), 400)) == expected


def test_a_substream_index_is_non_negative():
    assert substream_seed(5, 0) != substream_seed(5, 1)
    with pytest.raises(ValueError, match="non-negative"):
        substream_seed(5, -1)


def test_a_stream_read_in_batches_is_one_stream():
    stream = draws(5, 3**16)
    batches = [list(islice(stream, size)) for size in (1, 0, 7, 100, 3)]
    rng = random.Random(5)
    assert [x for batch in batches for x in batch] == [rng.randrange(3**16) for _ in range(111)]
