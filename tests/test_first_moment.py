"""The paper's first moment, exact: list-size histograms of the random
ensemble against their hypergeometric law.

``sample_random_code`` draws a uniform M-subset of the V = q^(mn) words,
so the number of codewords within rank distance s of a fixed center is
hypergeometric with parameters V, |B_s| and M, and the expected number
of centers that see exactly l codewords is

    E[N_l] = V * C(|B_s|, l) * C(V - |B_s|, M - l) / C(V, M),

an exact ``Fraction``.  Each seeded code's histogram N_l is read twice,
from the scatter tally (N_0 = V - len(tally)) and from the counters'
bit-sliced slices, and the mean over the seeds is held to E[N_l].

The tolerance was fixed before the first run: |z| <= 4 at every l with
E[N_l] >= 1, z taken from the sample's own standard error.  It is not to
be loosened, nor the seeds re-picked, to make a run pass.
"""

import math
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from ranklab import listdec
from ranklab.codes import _packed_words, sample_random_code
from ranklab.fields import default_context
from ranklab.listdec import list_size_at, max_list_size
from ranklab.rankmetric import _ball_size, vector_from_index
from ranklab.rng import substream_seed

Z_LIMIT = 4
S = 1


def expected_counts(space: int, ball: int, size: int) -> dict:
    """E[N_l] for every l, as exact fractions."""
    total = math.comb(space, size)
    return {
        ell: Fraction(space * math.comb(ball, ell) * math.comb(space - ball, size - ell), total)
        for ell in range(min(ball, size) + 1)
    }


def z_score(samples, expected: Fraction) -> float:
    """How many of its standard errors the sample mean lies from ``expected``."""
    mean = Fraction(sum(samples), len(samples))
    error = statistics.stdev(samples) / math.sqrt(len(samples))
    if error == 0:
        return 0.0 if mean == expected else math.inf
    return float(mean - expected) / error


def tally_histogram(ctx, n: int, words, space: int) -> Counter:
    tally = listdec._tally(ctx, n, S, words)
    hist = Counter(tally.values())
    hist[0] = space - len(tally)
    return hist


def slices_histogram(ctx, n: int, words, space: int) -> Counter:
    # the centers whose count is l are those whose bit is set in slice i
    # exactly where bit i of l is set
    slices = listdec._counters(ctx, n, S, words)
    hist = Counter()
    for ell in range(1 << len(slices)):
        centers = (1 << space) - 1
        for i, bits in enumerate(slices):
            centers &= bits if ell >> i & 1 else ~bits
        if centers:
            hist[ell] = centers.bit_count()
    return hist


@pytest.mark.parametrize("q, m, n, size, trials", [(2, 3, 3, 16, 400), (3, 2, 2, 9, 400), (2, 4, 3, 64, 200)])
def test_random_code_histograms_follow_the_hypergeometric_law(q, m, n, size, trials):
    ctx = default_context(q, m)
    space, ball = ctx.order**n, _ball_size(q, m, n, S)
    expected = expected_counts(space, ball, size)
    assert sum(expected.values()) == space
    assert sum(ell * e for ell, e in expected.items()) == size * ball
    histograms = []
    for i in range(trials):
        words = _packed_words(sample_random_code(ctx, n, size, substream_seed(7, i)), size)
        hist = tally_histogram(ctx, n, words, space)
        assert hist == slices_histogram(ctx, n, words, space), i
        assert sum(hist.values()) == space and sum(ell * c for ell, c in hist.items()) == size * ball, i
        histograms.append(hist)
    checked = [ell for ell, e in expected.items() if e >= 1]
    scores = {ell: z_score([hist[ell] for hist in histograms], expected[ell]) for ell in checked}
    assert all(abs(z) <= Z_LIMIT for z in scores.values()), scores


@pytest.mark.xfail(strict=True, reason="Monte Carlo centers replay the codewords sampled at the same seed")
def test_montecarlo_centers_see_no_codeword_as_often_as_the_law_says(monkeypatch):
    # the centers max_list_size draws are uniform over the space, so the
    # share of them that sees no codeword is E[N_0] / V, about 96/512 at
    # q2m3n3 |C| = 16; drawn at the code's own seed, as the CLI's two
    # default seeds do, with no more centers than codewords
    q, m, n, size, trials = 2, 3, 3, 16, 100
    ctx = default_context(q, m)
    space = ctx.order**n
    share = expected_counts(space, _ball_size(q, m, n, S), size)[0] / space
    calls = []
    real = listdec.draws

    def recorded(seed, bound):
        calls.append([])
        for x in real(seed, bound):
            calls[-1].append(x)
            yield x

    monkeypatch.setattr(listdec, "draws", recorded)
    shares = []
    for i in range(trials):
        seed = substream_seed(7, i)
        code = sample_random_code(ctx, n, size, seed)
        del calls[:]
        max_list_size(code, S, "montecarlo", centers=size, seed=seed)
        (drawn,) = calls
        counts = [list_size_at(code, vector_from_index(ctx, n, x), S) for x in dict.fromkeys(drawn)]
        shares.append(Fraction(counts.count(0), len(counts)))
    z = z_score(shares, share)
    assert abs(z) <= Z_LIMIT, (z, float(share))
