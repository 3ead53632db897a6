"""Worst-case list sizes: exhaustive sweeps, Monte Carlo, and floors.

The exhaustive path is checked center by center against a brute-force
rescan with ``list_size_at``; pigeonhole floors are checked against the
counts they are supposed to floor.
"""

from fractions import Fraction

import pytest

from helpers import far_branch_oracle, inline_executor
from ranklab import listdec
from ranklab.codes import ExplicitCode, gabidulin, sample_random_code, sample_random_linear_code
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import default_context
from ranklab.listdec import (
    decoding_radius,
    is_list_decodable,
    list_size_at,
    max_list_size,
    pigeonhole_lower_bound,
    pigeonhole_loose_form,
    radius_from_fraction,
)
from ranklab.rankmetric import (
    RankVector,
    ball_volume,
    iter_all_vectors,
    rank_distance,
    rank_of_vector,
    vector_index,
)


def brute_force_report(code, s):
    """Independent full sweep: (max count, index of the first argmax)."""
    from ranklab.codes import enumerate_codewords

    words = tuple(enumerate_codewords(code))
    best, best_idx = -1, -1
    for idx, center in enumerate(iter_all_vectors(code.ctx, code.n)):
        count = sum(1 for w in words if rank_distance(w, center) <= s)
        if count > best:
            best, best_idx = count, idx
    return best, best_idx


def test_list_size_at_matches_direct_count():
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=2)
    for center in (RankVector.zero(ctx, 2), RankVector(ctx, (5, 1)), RankVector(ctx, (7, 7))):
        for s in range(3):
            direct = sum(1 for w in code.words if rank_distance(w, center) <= s)
            assert list_size_at(code, center, s) == direct


def test_list_size_at_errors():
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 4, seed=0)
    with pytest.raises(ValueError):
        list_size_at(code, RankVector(default_context(2, 2), (0, 0)), 1)
    with pytest.raises(ValueError):
        list_size_at(code, RankVector.zero(ctx, 2), 3)


def test_pigeonhole_frozen_values():
    # |C| = 4 in F_{2^2}^2: ball(1) holds 10 of 16, so ceil(40/16) = 3
    assert pigeonhole_lower_bound(4, 2, 2, 2, 1) == 3
    assert pigeonhole_loose_form(4, 2, 2, 2, 1) == Fraction(1)
    assert pigeonhole_lower_bound(1, 2, 2, 2, 0) == 1
    assert pigeonhole_loose_form(8, 2, 3, 2, 2) == Fraction(8 * 2**6, 2**6)


def test_pigeonhole_exact_form_dominates_loose_form():
    for q, m, n in ((2, 2, 2), (2, 3, 2), (3, 3, 3)):
        for s in range(n + 1):
            for size in (1, 2, 5, q**m):
                exact = pigeonhole_lower_bound(size, q, m, n, s)
                loose = pigeonhole_loose_form(size, q, m, n, s)
                assert exact >= -((-loose.numerator) // loose.denominator)


def test_pigeonhole_errors():
    with pytest.raises(ValueError):
        pigeonhole_lower_bound(0, 2, 2, 2, 1)
    with pytest.raises(ValueError):
        pigeonhole_loose_form(4, 2, 2, 2, 3)


def test_exhaustive_matches_brute_force():
    ctx = default_context(2, 2)
    codes = [
        sample_random_code(ctx, 2, 4, seed=7),
        sample_random_linear_code(ctx, 2, 2, seed=7),
        gabidulin(ctx, 2, 1),
    ]
    for code in codes:
        for s in range(code.n + 1):
            report = max_list_size(code, s)
            best, best_idx = brute_force_report(code, s)
            assert report.l_max == best
            assert vector_index(report.argmax_center) == best_idx
            assert report.exhaustive is True
            assert report.centers_tried == 16
            assert report.pigeonhole_lb <= report.l_max
            assert report.radius_s == s


def test_exhaustive_extremes():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 6, seed=1)
    assert max_list_size(code, 0).l_max == 1  # words are distinct
    assert max_list_size(code, code.n).l_max == code.size


def test_worker_partitioning_is_invisible():
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=5)
    solo = max_list_size(code, 1, workers=1)
    multi = max_list_size(code, 1, workers=3)
    assert solo == multi


def test_worker_partitioning_is_invisible_under_ties_q3():
    # five centers tie for the maximum of 4, so the min-index rule decides
    ctx = default_context(3, 2)
    code = sample_random_code(ctx, 2, 5, seed=0)
    solo = max_list_size(code, 1, workers=1)
    multi = max_list_size(code, 1, workers=2)
    assert solo == multi
    assert (solo.l_max, vector_index(solo.argmax_center)) == brute_force_report(code, 1)


def test_codeword_split_pool_is_sized_to_the_work(monkeypatch):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", inline_executor(sizes))
    monkeypatch.setattr("os.cpu_count", lambda: 8)  # more CPUs than codewords
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 3, seed=5)
    report = max_list_size(code, 1, workers=4)
    assert sizes == [3]  # one process per codeword, not per requested worker
    assert report == max_list_size(code, 1)


def test_codeword_split_pool_is_capped_at_the_cpu_count(monkeypatch):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", inline_executor(sizes))
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=5)
    solo = max_list_size(code, 1)
    # an unknown CPU count counts as one CPU, so no pool starts
    for cpus, expected in ((3, [3]), (None, [])):
        sizes.clear()
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert max_list_size(code, 1, workers=100000) == solo
        assert sizes == expected


def test_exhaustive_cap_refusal_mentions_fallback():
    ctx = default_context(2, 5)
    code = gabidulin(ctx, 5, 1)
    with pytest.raises(EnumerationCapExceeded, match="montecarlo"):
        max_list_size(code, 1, cap=1000)


def test_montecarlo_covers_small_instances_exactly():
    # |C| * |B| is tiny, so the perturbation neighborhood holds every
    # center that could see a codeword and the answer is the true max
    ctx = default_context(2, 2)
    for seed in range(4):
        code = sample_random_code(ctx, 2, 4, seed=seed)
        for s in (0, 1):
            mc = max_list_size(code, s, "montecarlo", centers=10, seed=99)
            ex = max_list_size(code, s)
            assert mc.l_max == ex.l_max
            assert mc.exhaustive is False
            assert mc.pigeonhole_lb <= mc.l_max


def test_montecarlo_neighborhood_tie_rule_q3():
    # frozen from the per-center scan the tally replaced: five centers
    # tie at 4, and Monte Carlo keeps the first one in (codeword, offset)
    # order where the exhaustive sweep keeps the least index
    ctx = default_context(3, 2)
    code = sample_random_code(ctx, 2, 5, seed=0)
    mc = max_list_size(code, 1, "montecarlo", centers=20, seed=1)
    assert mc.as_dict() == {
        "radius_s": 1,
        "l_max": 4,
        "argmax_center": [6, 0],
        "exhaustive": False,
        "centers_tried": 75,
        "pigeonhole_lb": 3,
    }
    assert max_list_size(code, 1).argmax_center.entries == (0, 6)


def test_montecarlo_far_branch_tie_rule_q3():
    # frozen from the per-pair scan the restricted tally replaced: the
    # candidates tie at 21, and Monte Carlo keeps the first one scored
    # where the exhaustive sweep keeps the least index
    ctx = default_context(3, 2)
    code = sample_random_code(ctx, 2, 40, seed=2)
    mc = max_list_size(code, 1, "montecarlo", centers=20, seed=1, neighborhood_cap=0)
    assert mc.as_dict() == {
        "radius_s": 1,
        "l_max": 21,
        "argmax_center": [5, 5],
        "exhaustive": False,
        "centers_tried": 49,
        "pigeonhole_lb": 17,
    }
    assert max_list_size(code, 1).argmax_center.entries == (5, 3)


# far-branch cases: (code, s, centers, seed, whether |B_s| <= n * |candidates|
# picks the restricted tally over the scan); 350 centers put q2m7n4 just
# inside the rule, 1906 <= 4 * 478
FAR_CASES = {
    "q2m7n4-random128-tally": (
        lambda: sample_random_code(default_context(2, 7), 4, 128, 2), 1, 350, 1, True
    ),
    "q3m2n2-random40-tally": (
        lambda: sample_random_code(default_context(3, 2), 2, 40, 2), 1, 20, 1, True
    ),
    "q2m7n7-gabidulin-scan": (lambda: gabidulin(default_context(2, 7), 7, 1), 1, 50, 0, False),
    "q2m16n2-random4-scan": (
        lambda: sample_random_code(default_context(2, 16), 2, 4, 0), 1, 200, 3, False
    ),
}


@pytest.mark.parametrize("case", sorted(FAR_CASES))
def test_far_branch_matches_brute_force_on_its_side_of_the_rule(case, monkeypatch):
    make, s, centers, seed, tally_side = FAR_CASES[case]
    code = make()
    expected = far_branch_oracle(code, s, centers, seed)
    ball = ball_volume(code.ctx.base.q, code.ctx.m, code.n, s).exact
    assert (ball <= code.n * expected[2]) == tally_side

    def forbidden(*args):
        raise AssertionError(f"the other side of the rule ran for {case}")

    # the tally ranks no pair, and the scan builds no ball
    monkeypatch.setattr(listdec, "_rank_of_entries" if tally_side else "_iter_ball_tables", forbidden)
    report = max_list_size(code, s, "montecarlo", centers=centers, seed=seed, neighborhood_cap=0)
    assert (report.l_max, report.argmax_center.entries, report.centers_tried) == expected
    assert report.exhaustive is False


def test_negative_centers_are_rejected():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 4, seed=0)
    for mode in ("montecarlo", "exhaustive"):
        with pytest.raises(ValueError, match="centers"):
            max_list_size(code, 1, mode, centers=-5)


def test_montecarlo_is_deterministic():
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 3, 16, seed=8)
    a = max_list_size(code, 1, "montecarlo", centers=50, seed=3)
    b = max_list_size(code, 1, "montecarlo", centers=50, seed=3)
    assert a == b


def test_montecarlo_large_space_smoke():
    # 2^49 centers: far beyond any sweep, so only sampled ones are tried
    ctx = default_context(2, 7)
    code = gabidulin(ctx, 7, 1)
    report = max_list_size(code, 1, "montecarlo", centers=50, seed=0)
    assert report.exhaustive is False
    assert 1 <= report.l_max <= code.size
    assert report.centers_tried <= code.size + 50
    again = max_list_size(code, 1, "montecarlo", centers=50, seed=0)
    assert report == again


def test_mode_validation():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 4, seed=0)
    with pytest.raises(ValueError):
        max_list_size(code, 1, "guess")
    with pytest.raises(ValueError):
        max_list_size(code, 5)


def test_is_list_decodable_threshold():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 4, seed=7)
    l_max = max_list_size(code, 1).l_max
    assert is_list_decodable(code, 1, l_max)
    assert not is_list_decodable(code, 1, l_max - 1)
    with pytest.raises(ValueError):
        is_list_decodable(code, 1, 0)


def test_decoding_radius_two_word_codes():
    # {0, c}: unique decoding up to half the distance, then lists of 2
    ctx = default_context(2, 3)
    zero = RankVector.zero(ctx, 3)
    for c, d in ((RankVector(ctx, (1, 2, 4)), 3), (RankVector(ctx, (1, 2, 3)), 2)):
        code = ExplicitCode(ctx, 3, (zero, c))
        assert rank_of_vector(c) == d
        assert decoding_radius(code, 1) == Fraction((d - 1) // 2, 3)
        assert decoding_radius(code, 2) == 1  # both words always fit


def test_list_size_grows_with_radius():
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 12, seed=4)
    sizes = [max_list_size(code, s).l_max for s in range(3)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == code.size


def test_translation_invariance_of_worst_list():
    # shifting every codeword by a fixed vector shifts the argmax too,
    # leaving the worst list size unchanged
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 5, seed=6)
    shift = RankVector(ctx, (3, 1))
    shifted = ExplicitCode(ctx, 2, tuple(w + shift for w in code.words))
    for s in range(3):
        assert max_list_size(code, s).l_max == max_list_size(shifted, s).l_max


def test_radius_from_fraction():
    assert radius_from_fraction(Fraction(1, 2), 3) == 1
    assert radius_from_fraction(Fraction(2, 3), 3) == 2
    assert radius_from_fraction(Fraction(1, 3), 3) == 1
    assert radius_from_fraction(0, 5) == 0
    assert radius_from_fraction(1, 5) == 5
    assert radius_from_fraction(0.5, 4) == 2
    with pytest.raises(ValueError):
        radius_from_fraction(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        radius_from_fraction(-0.1, 3)


def test_ball_volume_consistency_with_pigeonhole():
    # the floor is exactly ceil(size * ball / space)
    for q, m, n, s in ((2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 2)):
        ball = ball_volume(q, m, n, s).exact
        space = q ** (m * n)
        for size in (1, 3, space // 2):
            expected = -((-size * ball) // space)
            assert pigeonhole_lower_bound(size, q, m, n, s) == expected
