"""Worst-case list sizes: exhaustive sweeps, Monte Carlo, and floors.

The exhaustive path is checked center by center against a brute-force
rescan with ``list_size_at``; pigeonhole floors are checked against the
counts they are supposed to floor.
"""

import hashlib
from fractions import Fraction

import pytest

from helpers import far_branch_oracle, inline_executor
from ranklab import listdec
from ranklab.codes import (
    ExplicitCode,
    LinearCode,
    enumerate_codewords,
    gabidulin,
    sample_random_code,
    sample_random_linear_code,
)
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


# far-branch cases: (code, s, centers, seed, side).  An explicit code's
# candidates take the restricted tally ("tally") when |B_s| <= n *
# |candidates| and the scan otherwise; a linear or Gabidulin code's take
# the coset tally ("coset") when |B_s| <= n * |C| * (|C| + centers) and
# the scan otherwise.  350 centers put q2m7n4 just inside its rule,
# 1906 <= 4 * 478; the q2m16n2 linear code has |B_1| = 196606 against
# n * |C| * (|C| + centers) = 3328
FAR_CASES = {
    "q2m7n4-random128-tally": (
        lambda: sample_random_code(default_context(2, 7), 4, 128, 2), 1, 350, 1, "tally"
    ),
    "q3m2n2-random40-tally": (
        lambda: sample_random_code(default_context(3, 2), 2, 40, 2), 1, 20, 1, "tally"
    ),
    "q2m7n7-gabidulin-coset": (lambda: gabidulin(default_context(2, 7), 7, 1), 1, 50, 0, "coset"),
    "q3m4n4-linear9-coset": (
        lambda: sample_random_linear_code(default_context(3, 4), 4, 2, 1), 1, 100, 2, "coset"
    ),
    "q2m16n2-random4-scan": (
        lambda: sample_random_code(default_context(2, 16), 2, 4, 0), 1, 200, 3, "scan"
    ),
    "q2m16n2-linear8-scan": (
        lambda: sample_random_linear_code(default_context(2, 16), 2, 3, 4), 1, 200, 3, "scan"
    ),
}

# what each side must not call: the tallies rank no pair, the coset tally
# scatters no codeword, and the scan builds no ball
FAR_FORBIDDEN = {
    "tally": ("_rank_of_entries",),
    "coset": ("_scatter", "_rank_of_entries"),
    "scan": ("_iter_ball_tables",),
}


@pytest.mark.parametrize("case", sorted(FAR_CASES))
def test_far_branch_matches_brute_force_on_its_side_of_the_rule(case, monkeypatch):
    make, s, centers, seed, side = FAR_CASES[case]
    code = make()
    expected = far_branch_oracle(code, s, centers, seed)
    ball = ball_volume(code.ctx.base.q, code.ctx.m, code.n, s).exact
    if isinstance(code, ExplicitCode):
        assert side == ("tally" if ball <= code.n * expected[2] else "scan")
    else:
        assert side == ("coset" if ball <= code.n * code.size * (code.size + centers) else "scan")

    def forbidden(*args):
        raise AssertionError(f"the other side of the rule ran for {case}")

    for name in FAR_FORBIDDEN[side]:
        monkeypatch.setattr(listdec, name, forbidden)
    report = max_list_size(code, s, "montecarlo", centers=centers, seed=seed, neighborhood_cap=0)
    assert (report.l_max, report.argmax_center.entries, report.centers_tried) == expected
    assert report.exhaustive is False


def twin_codes():
    """Linear and Gabidulin codes over q = 2, 3, 4, 5 at several shapes."""
    for q, m, n, k, seed in (
        (2, 3, 2, 2, 0), (2, 4, 3, 3, 1), (2, 3, 3, 5, 2), (3, 2, 2, 2, 3), (3, 3, 2, 1, 0),
        (4, 2, 2, 2, 8), (4, 2, 2, 1, 1), (5, 2, 2, 1, 2),
    ):
        yield f"linear-q{q}m{m}n{n}k{k}", sample_random_linear_code(default_context(q, m), n, k, seed)
    for q, m, n, k in ((2, 3, 3, 1), (2, 4, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (5, 2, 1, 1)):
        yield f"gabidulin-q{q}m{m}n{n}k{k}", gabidulin(default_context(q, m), n, k)


def test_linear_codes_report_like_their_explicit_twins():
    # the twin lists the same words and stays on the center tally, whose
    # least-index and first-candidate tie rules the coset keys must keep
    for name, code in twin_codes():
        twin = ExplicitCode(code.ctx, code.n, tuple(enumerate_codewords(code)))
        for s in range(code.n + 1):
            assert max_list_size(code, s).as_dict() == max_list_size(twin, s).as_dict(), name
            for seed in (1, 2):
                mc = {"centers": 40, "seed": seed, "neighborhood_cap": 0}
                assert (
                    max_list_size(code, s, "montecarlo", **mc).as_dict()
                    == max_list_size(twin, s, "montecarlo", **mc).as_dict()
                ), name


def test_linear_sweeps_enumerate_no_codeword_and_start_no_pool(monkeypatch):
    from ranklab import codes

    expected = {
        (name, s): max_list_size(code, s).as_dict()
        for name, code in twin_codes()
        for s in range(code.n + 1)
    }

    def forbidden(*args, **kwargs):
        raise AssertionError("a linear sweep enumerated codewords or scattered them")

    sizes = []
    for module, name in ((codes, "enumerate_codewords"), (listdec, "enumerate_codewords"),
                         (listdec, "_scatter")):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", inline_executor(sizes))
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    for name, code in twin_codes():
        for s in range(code.n + 1):
            assert max_list_size(code, s, workers=4).as_dict() == expected[name, s]
    assert sizes == []


def test_exhaustive_linear_tie_cases_frozen_from_the_center_tally():
    # the least center of the maximal cosets; the coset check's first
    # representative in flatten order is a different vector here (see
    # test_harness), and q = 4 reduces over the F_2-span of the basis
    cases = (
        (2, 3, 2, [(3, 7), (7, 4)], 3, [0, 3], 64, 2),
        (3, 2, 2, [(6, 2), (7, 7)], 6, [0, 5], 81, 4),
        (4, 2, 2, [(9, 7), (1, 4)], 8, [0, 7], 256, 5),
    )
    for q, m, n, basis, l_max, argmax, tried, lb in cases:
        ctx = default_context(q, m)
        code = LinearCode(ctx, n, tuple(RankVector(ctx, b) for b in basis))
        assert max_list_size(code, 1).as_dict() == {
            "radius_s": 1,
            "l_max": l_max,
            "argmax_center": argmax,
            "exhaustive": True,
            "centers_tried": tried,
            "pigeonhole_lb": lb,
        }


def test_odd_q_keys_without_the_byte_slots():
    # n * (p - 1) > 255, so coset keys are digit tuples: q = 257 in one
    # entry, where a coset's key must be its least vector index
    ctx = default_context(257, 2)
    code = sample_random_linear_code(ctx, 1, 1, seed=0)
    (word,) = code.basis
    cosets = listdec._CosetKeys(code)
    for x in (0, 1, 300, 257 * 256 + 17, 66048):
        coset = [vector_index(RankVector(ctx, (x,)) + scaled(word, c)) for c in range(257)]
        assert cosets.index(cosets.of_index(x)) == min(coset)
    # the radius-1 ball is the whole space, so every coset is maximal
    assert max_list_size(code, 1).as_dict()["l_max"] == 257
    twin = ExplicitCode(ctx, 1, tuple(enumerate_codewords(code)))
    assert max_list_size(code, 0) == max_list_size(twin, 0)
    mc = {"centers": 20, "seed": 4, "neighborhood_cap": 0}
    for s in (0, 1):
        assert max_list_size(code, s, "montecarlo", **mc) == max_list_size(twin, s, "montecarlo", **mc)


def scaled(word, c):
    """c * word for c in a prime field, entry by entry."""
    ctx = word.ctx
    return RankVector(ctx, tuple(ctx.mul(c, e) if c else 0 for e in word.entries))


def test_worker_counts_below_one_are_rejected():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 4, seed=0)
    for mode in ("montecarlo", "exhaustive"):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                max_list_size(code, 1, mode, workers=workers)


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


@pytest.mark.parametrize(
    "q, m, n, size, seed, s, centers, digest",
    [
        (3, 2, 2, 5, 7, 1, 77, "d8c8567ec51d70a779147a729adaad4bb4de2c2ba2cfd60a68eb8d156e9134ec"),
        (3, 2, 2, 5, 7, 2, 81, "f6cf2e63b176587aea60ea327fed4c4153bc7ac3f3e155a69dba6317f143c69d"),
        (3, 3, 2, 4, 2, 1, 338, "272a8819800d14fdebcc4c0f668aa35023d8f994f64be085e25b17dadd880af7"),
        (9, 2, 2, 3, 4, 1, 2141, "578cab669d0fe8d96dbf712af1f88de9c82df10db65c868d0c55f8b72d16941e"),
    ],
)
def test_odd_q_scatter_tally_is_frozen(q, m, n, size, seed, s, centers, digest):
    # counts and key order, "key:count" one per line, frozen from the
    # per-element ExtCtx.add shift of the ball's span list
    ctx = default_context(q, m)
    code = sample_random_code(ctx, n, size, seed)
    tally = listdec._scatter(ctx, n, s, listdec._scan_codewords(code, 2**24))
    assert len(tally) == centers
    assert sum(tally.values()) == size * ball_volume(q, m, n, s).exact
    text = "\n".join(f"{key}:{count}" for key, count in tally.items())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
