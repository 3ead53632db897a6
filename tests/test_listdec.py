"""Worst-case list sizes: exhaustive sweeps, Monte Carlo, and floors.

The exhaustive path is checked center by center against a brute-force
rescan with ``list_size_at``; pigeonhole floors are checked against the
counts they are supposed to floor.
"""

import hashlib
import random
import sys
import weakref
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import islice, zip_longest
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ball_by_tables,
    coset_route_oracle,
    coset_tally,
    far_branch_oracle,
    far_route_oracle,
    forbid_the_scatter,
    fp_basis_by_products,
    int_digits,
    key_count_oracle,
    memo_span_rank,
    rank_mod_p,
    sweep_route_oracle,
    xor_window_tables,
)
from ranklab import listdec, rankmetric
from ranklab.codes import (
    ExplicitCode,
    LinearCode,
    _fp_basis,
    _packed_words,
    enumerate_codewords,
    gabidulin,
    gabidulin_encode,
    sample_random_code,
    sample_random_linear_code,
)
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import context_from_descriptor, default_context
from ranklab.harness import coset_partition_check
from ranklab.listdec import (
    DEFAULT_NEIGHBORHOOD_CAP,
    decoding_radius,
    is_list_decodable,
    list_size_at,
    max_list_size,
    pigeonhole_lower_bound,
    pigeonhole_loose_form,
    radius_from_fraction,
)
from ranklab.rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _ball_size,
    _entries_of_index,
    _index_of_entries,
    ball_volume,
    enumerate_ball,
    iter_all_vectors,
    matrix_to_vector,
    rank_distance,
    rank_fq,
    rank_of_vector,
    vector_from_index,
    vector_index,
    vector_to_matrix,
)
from ranklab.rng import draws, make_rng


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
    with pytest.raises(ValueError, match="center context mismatch"):
        list_size_at(code, RankVector(default_context(2, 2), (0, 0)), 1)
    with pytest.raises(ValueError, match="center context mismatch"):
        list_size_at(code, RankVector.zero(ctx, 1), 1)
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
    # both forms refuse an empty code, a base that is no prime power and n > m
    for form in (pigeonhole_lower_bound, pigeonhole_loose_form):
        with pytest.raises(ValueError, match="code size must be at least 1, got 0"):
            form(0, 2, 2, 2, 1)
        with pytest.raises(ValueError, match="not a prime power: 6"):
            form(1, 6, 2, 3, 1)
        with pytest.raises(ValueError, match="need 1 <= n <= m"):
            form(1, 2, 2, 3, 1)


def test_pigeonhole_floor_names_its_radius_parameter():
    # the radius argument is s: both pigeonhole forms refuse it in its own name
    for bad in (3, -1):
        for form in (pigeonhole_lower_bound, pigeonhole_loose_form):
            with pytest.raises(ValueError) as info:
                form(4, 2, 3, 2, bad)
            assert str(info.value) == f"need 0 <= s <= n, got s = {bad}"


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


def test_worker_partitioning_is_invisible(monkeypatch):
    # the counters and the scatter give the same report at any worker count
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=5)
    seam = Seam(monkeypatch)
    solo = max_list_size(code, 1, workers=1)
    assert max_list_size(code, 1, workers=3) == solo
    seam.route = "scatter"
    assert max_list_size(code, 1, workers=3) == solo
    assert seam.names == ["counters", "counters", "scatter"]


def forced_sweeps(code, s):
    """The exhaustive report of an explicit code on each route, forced at
    the seam, at one worker and at two."""
    reports = {}
    with pytest.MonkeyPatch.context() as patched:
        seam = Seam(patched)
        for route in ("scatter", "counters"):
            seam.route = route
            reports[route] = max_list_size(code, s)
            reports[route, 2] = max_list_size(code, s, workers=2)
            assert seam.names[-2:] == [route, route]
    return reports


SWEEP_SHAPES = ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2), (4, 2, 2), (5, 2, 2), (9, 2, 1))


@settings(max_examples=40)
@given(st.data())
def test_both_exhaustive_routes_report_like_brute_force(data):
    # ties are the rule here: every word ties at s = 0 and every center at
    # s = n, so the least-index rule decides most examples
    q, m, n = data.draw(st.sampled_from(SWEEP_SHAPES), label="shape")
    ctx = default_context(q, m)
    space = ctx.order**n
    indices = st.lists(st.integers(0, space - 1), min_size=1, max_size=10, unique=True)
    picked = data.draw(indices, label="words")
    code = ExplicitCode(ctx, n, [vector_from_index(ctx, n, i) for i in picked])
    for s in range(n + 1):
        reports = forced_sweeps(code, s)
        assert len(set(reports.values())) == 1
        report = reports["counters"]
        assert (report.l_max, vector_index(report.argmax_center)) == brute_force_report(code, s)
        assert report.exhaustive and report.centers_tried == space


# the exhaustive routes of a linear code
LINEAR_ROUTES = ("coset", "fold")


def forced_linear_sweeps(code, s):
    """The exhaustive report of a linear or Gabidulin code on each route,
    forced at the seam."""
    reports = {}
    with pytest.MonkeyPatch.context() as patched:
        seam = Seam(patched)
        for route in LINEAR_ROUTES:
            seam.route = route
            reports[route] = max_list_size(code, s)
            assert seam.names[-1] == route
    return reports


@settings(max_examples=25)
@given(st.data())
def test_both_linear_routes_report_like_brute_force(data):
    # the fold reads the least center of the largest count off its slices,
    # the coset tally the least key of the largest coset: both must give
    # the brute-force maximum and its first center
    q, m, n = data.draw(st.sampled_from(SWEEP_SHAPES), label="shape")
    ctx = default_context(q, m)
    if data.draw(st.booleans(), label="gabidulin"):
        code = gabidulin(ctx, n, 1)
    else:
        # at most 32 words, so that the brute force stays quick
        k = data.draw(st.integers(1, max(k for k in range(1, m * n + 1) if q**k <= 32)), label="k")
        code = sample_random_linear_code(ctx, n, k, seed=data.draw(st.integers(0, 2**16), label="seed"))
    for s in range(n + 1):
        reports = forced_linear_sweeps(code, s)
        assert reports["coset"] == reports["fold"]
        report = reports["fold"]
        assert (report.l_max, vector_index(report.argmax_center)) == brute_force_report(code, s)
        assert report.exhaustive and report.centers_tried == ctx.order**n


def invertible(field, size: int, rng) -> tuple:
    """A uniform size x size matrix of GL_size(F_q), drawn until one is."""
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(size)) for _ in range(size))
        if rank_fq(rows, field) == size:
            return rows


def product(field, a, b) -> tuple:
    """The matrix product a * b over F_q."""
    return tuple(tuple(reduce(field.add, map(field.mul, row, col), 0) for col in zip(*b)) for row in a)


def draw_isometry(data, ctx, n):
    """phi(x) = A * M_x * B for A in GL_m(F_q) and B in GL_n(F_q), M_x the
    m x n matrix of x, transposed first when m = n and drawn so: an
    F_q-linear map that keeps every rank, so it maps each ball onto a
    ball."""
    field, m = ctx.base, ctx.m
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="isometry seed"))
    a, b = invertible(field, m, rng), invertible(field, n, rng)
    flip = m == n and data.draw(st.booleans(), label="transpose")

    def phi(x):
        matrix = vector_to_matrix(x)
        return matrix_to_vector(product(field, product(field, a, tuple(zip(*matrix)) if flip else matrix), b), ctx)

    return phi


def image_code(code, phi):
    """phi(C) as a code of the same ensemble: an explicit code's words
    mapped, or a linear one spanned by the map of an F_q basis (for a
    Gabidulin code its F_{q^m}-basis words times the basis of F_{q^m}, an
    image that is in general F_q-linear alone)."""
    ctx, n = code.ctx, code.n
    if isinstance(code, ExplicitCode):
        return ExplicitCode(ctx, n, tuple(map(phi, code.words)))
    basis = code.basis if isinstance(code, LinearCode) else [
        gabidulin_encode(code, [a if j == i else 0 for j in range(code.k)]) for i in range(code.k) for a in ctx.basis
    ]
    return LinearCode(ctx, n, tuple(map(phi, basis)))


def check_isometry_invariance(code, phi, radii):
    """l_max(phi(C)) = l_max(C) on every exhaustive route of the code's
    kind, each forced at the seam, and phi of each argmax sees l_max words
    of phi(C); the least center need not map to the least center."""
    routes = ("scatter", "counters") if isinstance(code, ExplicitCode) else LINEAR_ROUTES
    image = image_code(code, phi)
    for s in radii:
        reports = {}
        with pytest.MonkeyPatch.context() as patched:
            seam = Seam(patched)
            for route in routes:
                seam.route = route
                reports[route] = max_list_size(code, s), max_list_size(image, s)
            assert seam.names == [route for route in routes for _ in range(2)]
        l_max = reports[routes[0]][0].l_max
        for route, (before, after) in reports.items():
            assert before.l_max == after.l_max == l_max, (route, s)
            assert before.pigeonhole_lb == after.pigeonhole_lb
            assert list_size_at(image, phi(before.argmax_center), s) == l_max, (route, s)
            assert list_size_at(image, after.argmax_center, s) == l_max, (route, s)


ISOMETRY_SHAPES = ((2, 3, 3), (2, 4, 2), (3, 2, 2), (3, 3, 2), (4, 2, 2), (5, 2, 2), (9, 2, 2))


@settings(max_examples=30)
@given(st.data())
def test_every_exhaustive_route_is_invariant_under_rank_isometries(data):
    # an oracle past brute force: each kind of code, every radius, on each
    # of its forced routes against its image, q = 2, 3, 4, 5 and 9
    q, m, n = data.draw(st.sampled_from(ISOMETRY_SHAPES), label="shape")
    ctx = default_context(q, m)
    kind = data.draw(st.sampled_from(("explicit", "linear", "gabidulin")), label="kind")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    if kind == "explicit":
        code = sample_random_code(ctx, n, data.draw(st.integers(1, 12), label="size"), seed)
    elif kind == "linear":
        k = data.draw(st.integers(1, max(k for k in range(1, m * n + 1) if q**k <= 81)), label="k")
        code = sample_random_linear_code(ctx, n, k, seed)
    else:
        code = gabidulin(ctx, n, data.draw(st.integers(1, n), label="k"))
    check_isometry_invariance(code, draw_isometry(data, ctx, n), range(n + 1))


@settings(max_examples=1)
@given(st.data())
def test_rank_isometries_keep_the_sweeps_of_a_large_space(data):
    # q2m6n4 at s = 1, a 2^24-center space, past the brute force: three
    # explicit words, a two-dimensional linear code and the 64-word
    # Gabidulin code, whose image folds along six basis words
    ctx = default_context(2, 6)
    phi = draw_isometry(data, ctx, 4)
    for code in (sample_random_code(ctx, 4, 3, 1), sample_random_linear_code(ctx, 4, 2, 1), gabidulin(ctx, 4, 1)):
        check_isometry_invariance(code, phi, (1,))


@pytest.mark.parametrize(
    "q, m, n, kind, k, s, route",
    [
        # the sweep workload's linear and Gabidulin jobs: dense enough to fold
        (3, 3, 3, "linear", 1, 2, "fold"),
        (2, 5, 3, "linear", 2, 2, "fold"),
        (2, 4, 3, "linear", 3, 1, "fold"),
        (2, 4, 3, "linear", 3, 2, "fold"),
        (2, 4, 3, "gabidulin", 1, 1, "fold"),
        (3, 3, 2, "gabidulin", 1, 1, "fold"),
        # sparse balls in a space of 2^24 bits: the coset tally wins
        (2, 6, 4, "linear", 8, 1, "coset"),
        (2, 6, 4, "linear", 8, 2, "coset"),
        (2, 8, 3, "linear", 6, 2, "coset"),
    ],
)
def test_sweep_route_folds_dense_balls_and_keys_sparse_ones(q, m, n, kind, k, s, route):
    # the price reads the call alone: no code, ball or timing
    size = q ** (k * m if kind == "gabidulin" else k)
    ctx = default_context(q, m)
    assert listdec._route(ctx, n, s, _ball_size(q, m, n, s), size, True, None, DEFAULT_ENUM_CAP, 0) == route


def test_each_call_sizes_its_ball_once(monkeypatch):
    # |B_s| feeds the pigeonhole floor, the route price and the double
    # count, and is computed once for all three
    ctx = default_context(3, 2)
    codes = (
        sample_random_code(ctx, 2, 5, seed=1),
        sample_random_linear_code(ctx, 2, 1, seed=1),
        gabidulin(ctx, 2, 1),
    )
    seam = Seam(monkeypatch)
    sizes = spy(monkeypatch, "_ball_size")
    for forced in (False, True):
        for code in codes:
            linear = not isinstance(code, ExplicitCode)
            for s in range(3):
                # the picker's own routes, then the scatter or the coset
                # tally and a far route, forced at the seam
                del sizes[:]
                seam.route = ("coset" if linear else "scatter") if forced else None
                max_list_size(code, s)
                assert sizes == [(3, 2, 2, s)]
                del sizes[:]
                seam.route = ("far-coset" if linear else "probe") if forced else None
                max_list_size(code, s, "montecarlo", centers=5)
                assert sizes == [(3, 2, 2, s)]
    # one pick per call
    assert len(seam.calls) == 2 * 2 * 3 * 3
    exhaustive = {name for *args, name in seam.calls if args[6] is None}
    assert exhaustive == {"scatter", "counters", "coset", "fold"}


def test_worker_partitioning_is_invisible_under_ties_q3():
    # five centers tie for the maximum of 4, so the min-index rule decides
    ctx = default_context(3, 2)
    code = sample_random_code(ctx, 2, 5, seed=0)
    solo = max_list_size(code, 1, workers=1)
    multi = max_list_size(code, 1, workers=2)
    assert solo == multi
    assert (solo.l_max, vector_index(solo.argmax_center)) == brute_force_report(code, 1)


def test_a_scatter_sweep_starts_no_pool(monkeypatch):
    # the scatter runs in this process at any worker count
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=5)
    seam = Seam(monkeypatch, "scatter")
    solo = max_list_size(code, 1, workers=1)
    assert max_list_size(code, 1, workers=4) == solo
    assert seam.names == ["scatter"] * 2


@pytest.fixture
def short_ball(monkeypatch):
    """Build every ball of the test one offset short, the last offset of
    its last span table dropped: in the layout the getters of the last
    chunk drop their last read, and the bitset loses that offset's bit.
    ``_ball_size`` is left as it is, and no short ball outlives the test."""
    layout, bits = rankmetric._ball_layout, rankmetric._ball_bits

    def short(ctx, n, s):
        runs = list(layout(ctx, n, s))
        window, getters = runs.pop()
        last = [lambda table, getter=getter: getter(table)[:-1] for getter in getters]
        return iter(runs + [(window, last)])

    def short_bits(ctx, n, s):
        last = _index_of_entries(ctx.order, ball_by_tables(ctx, (0,) * n, s)[-1])
        return bits(ctx, n, s) & ~(1 << last)

    monkeypatch.setattr(rankmetric, "_ball_layout", short)
    monkeypatch.setattr(rankmetric, "_ball_bits", short_bits)
    rankmetric._ball.cache_clear()
    yield
    rankmetric._ball.cache_clear()


@pytest.mark.parametrize("q", (2, 3))
def test_every_exhaustive_route_refuses_a_ball_short_of_one_offset(q, monkeypatch, short_ball):
    # each route's counts must sum to |B_s| (coset tally) or |C| * |B_s|,
    # the linear code and the coset check forced onto the coset tally and
    # the fold
    ctx = default_context(q, 2)
    linear = sample_random_linear_code(ctx, 2, 1, seed=1)
    explicit = sample_random_code(ctx, 2, 4, seed=1)
    seam = Seam(monkeypatch)
    # every route reads the ball without its last offset, and only that one
    offsets = [_index_of_entries(ctx.order, b) for b in ball_by_tables(ctx, (0, 0), 1)][:-1]
    cosets = listdec._CosetKeys(linear)
    assert list(listdec._tally(ctx, 2, 1, [0])) == offsets
    assert rankmetric._ball(ctx, 2, 1).bits == sum(1 << x for x in offsets)
    assert list(coset_tally(cosets, 1).items()) == list(Counter(cosets.of_indices(offsets)).items())
    for route in LINEAR_ROUTES:
        seam.route = route
        with pytest.raises(RuntimeError, match="coset tally" if route == "coset" else "fold"):
            max_list_size(linear, 1)
        with pytest.raises(RuntimeError, match="coset tally" if route == "coset" else "fold"):
            coset_partition_check(linear, 1)
    for route in ("scatter", "counters"):
        seam.route = route
        with pytest.raises(RuntimeError, match=route):
            max_list_size(explicit, 1)
    assert seam.names == ["coset", "coset", "fold", "fold", "scatter", "counters"]


def test_a_worker_split_on_the_counters_refuses_a_dropped_carry(monkeypatch):
    ctx = default_context(2, 3)
    code = sample_random_code(ctx, 2, 8, seed=5)
    seam = Seam(monkeypatch, "counters")
    assert max_list_size(code, 1, workers=2) == max_list_size(code, 1)
    # each translate added to the counters slice by slice, every carry lost
    monkeypatch.setattr(
        listdec, "_add_slices", lambda a, b: [x ^ y for x, y in zip_longest(a, b, fillvalue=0)]
    )
    with pytest.raises(RuntimeError, match="counters"):
        max_list_size(code, 1, workers=2)
    assert seam.names == ["counters"] * 3


def counts_of(slices, centers: int) -> list[int]:
    """The count at each of ``centers`` packed indices from bit-sliced counters."""
    return [sum((x >> c & 1) << i for i, x in enumerate(slices)) for c in range(centers)]


@given(st.lists(st.lists(st.integers(0, 2**12 - 1), max_size=6), min_size=1, max_size=5))
def test_the_ripple_carry_adds_counters_of_any_heights(parts):
    # sets of slices of unequal heights, a carry running past the shorter
    # one or stopping inside the longer, and a one-slice translate added to
    # counters as the dense add does
    total = []
    for part in parts:
        summed = listdec._add_slices(total, part)
        assert counts_of(summed, 12) == list(map(add, counts_of(total, 12), counts_of(part, 12)))
        assert summed == listdec._add_slices(part, total)
        total = summed


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


def montecarlo_oracle(code, s, centers, seed, neighborhood_cap):
    """The Monte Carlo answer rebuilt without ``listdec``'s kernels: the
    candidates in the order the ``listdec`` docstring gives them (the
    codewords' balls in code order for the neighborhood, else the
    codewords), then each new draw of the ``rng.draws`` stream; each is
    counted by ``list_size_at`` and the first with the largest count is
    kept.  Returns (l_max, argmax entries, candidates tried)."""
    ctx, n = code.ctx, code.n
    words = list(enumerate_codewords(code))
    bv = sum(1 for _ in enumerate_ball(words[0], s))
    if code.size * bv <= min(neighborhood_cap, DEFAULT_ENUM_CAP):
        near = (x for w in words for x in enumerate_ball(w, s))
    else:
        near = iter(words)
    candidates = {x.entries: x for x in near}
    for i in islice(draws(seed, ctx.order**n), centers):
        x = vector_from_index(ctx, n, i)
        candidates.setdefault(x.entries, x)
    counts = [list_size_at(code, x, s) for x in candidates.values()]
    first = counts.index(max(counts))
    return counts[first], list(candidates)[first], len(candidates)


@settings(max_examples=80)
@given(st.data())
def test_montecarlo_answers_like_list_size_at_over_its_candidates(data):
    # every Monte Carlo route, neighborhood or far, explicit or linear
    # code: the largest count, its first candidate and the distinct
    # candidates, draws that repeat a codeword or each other included
    q, m, n = data.draw(st.sampled_from(SWEEP_SHAPES), label="shape")
    ctx = default_context(q, m)
    space = ctx.order**n
    seed = data.draw(st.integers(0, 2**16), label="code seed")
    if data.draw(st.booleans(), label="linear"):
        top = max(k for k in range(m * n + 1) if q**k <= 64)
        code = sample_random_linear_code(ctx, n, data.draw(st.integers(0, top), label="k"), seed)
    else:
        code = sample_random_code(ctx, n, data.draw(st.integers(1, min(space, 20)), label="size"), seed)
    s = data.draw(st.integers(0, n), label="s")
    centers = data.draw(st.integers(0, 40), label="centers")
    draw_seed = data.draw(st.integers(0, 2**16), label="draw seed")
    for cap in (DEFAULT_NEIGHBORHOOD_CAP, 0):
        report = max_list_size(code, s, "montecarlo", centers=centers, seed=draw_seed, neighborhood_cap=cap)
        expected = montecarlo_oracle(code, s, centers, draw_seed, cap)
        assert (report.l_max, report.argmax_center.entries, report.centers_tried) == expected
        assert report.exhaustive is False


# far-branch cases: (code, s, centers, seed, route), route the far route
# ``_route`` prices cheapest: "far-coset" (the coset tally), "probe" and
# "rank" (the candidate-side kernel ``_near``, testing pairs by
# offset-set probes or by rank).  A case id ends in the side it was first
# written for, "tally" (read off the ball), "coset" or "scan"; the
# gabidulin and linear9 cases now rank their few key-sharing pairs in
# place of building the ball.  q2m16n2 and q2m7n4 at s = 2 have balls too
# large to build for a few hundred pairs
FAR_CASES = {
    "q2m7n4-random128-tally": (
        lambda: sample_random_code(default_context(2, 7), 4, 128, 2), 1, 350, 1, "probe"
    ),
    "q2m4n3-random40-tally": (
        lambda: sample_random_code(default_context(2, 4), 3, 40, 3), 1, 300, 2, "probe"
    ),
    "q3m2n2-random40-tally": (
        lambda: sample_random_code(default_context(3, 2), 2, 40, 2), 1, 20, 1, "probe"
    ),
    "q3m4n4-random9-tally": (
        lambda: sample_random_code(default_context(3, 4), 4, 9, 1), 1, 1000, 2, "probe"
    ),
    "q2m7n7-gabidulin-coset": (lambda: gabidulin(default_context(2, 7), 7, 1), 1, 50, 0, "rank"),
    "q3m4n4-linear9-coset": (
        lambda: sample_random_linear_code(default_context(3, 4), 4, 2, 1), 1, 100, 2, "rank"
    ),
    "q2m4n3-linear64-coset": (
        lambda: sample_random_linear_code(default_context(2, 4), 3, 6, 5), 1, 50, 3, "far-coset"
    ),
    "q3m2n2-linear27-coset": (
        lambda: sample_random_linear_code(default_context(3, 2), 2, 3, 6), 1, 20, 4, "far-coset"
    ),
    "q2m16n2-random4-scan": (
        lambda: sample_random_code(default_context(2, 16), 2, 4, 0), 1, 200, 3, "rank"
    ),
    "q2m16n2-linear8-scan": (
        lambda: sample_random_linear_code(default_context(2, 16), 2, 3, 4), 1, 200, 3, "rank"
    ),
    "q2m7n4-random128-scan-s2": (
        lambda: sample_random_code(default_context(2, 7), 4, 128, 5), 2, 100, 6, "rank"
    ),
    # |C| = 3 <= 2^(s+1) - 1 keys at s = 1: no key index
    "q2m4n3-random3-tally": (
        lambda: sample_random_code(default_context(2, 4), 3, 3, 1), 1, 60, 4, "probe"
    ),
}

# what each route must not call: only the kernel ranks pairs or indexes
# keys, only the coset tally keys cosets, no far route tallies centers
# (the coset tally lists no codeword), and only the ball routes build the
# ball
FAR_FORBIDDEN = {
    "far-coset": ("_packed_words", "_near", "_rank_of_entries"),
    "probe": ("_tally", "_CosetKeys", "_rank_of_entries"),
    "rank": ("_tally", "_CosetKeys", "_ball"),
}


@pytest.mark.parametrize("case", sorted(FAR_CASES))
def test_far_branch_matches_brute_force_on_its_side_of_the_rule(case, monkeypatch):
    make, s, centers, seed, route = FAR_CASES[case]
    code = make()
    expected = far_branch_oracle(code, s, centers, seed)
    # the kernel indexes keys when a vector has fewer of them than C has words
    keyed = 0 < listdec._key_count(code.ctx, code.n, s) < code.size
    uses_keys = keyed and route in ("probe", "rank")

    def forbidden(*args, **kwargs):
        raise AssertionError(f"another route ran for {case}")

    def run():
        with monkeypatch.context() as patched:
            for name in FAR_FORBIDDEN[route] + (() if uses_keys else ("_keys",)):
                patched.setattr(listdec, name, forbidden)
            return max_list_size(code, s, "montecarlo", centers=centers, seed=seed, neighborhood_cap=0)

    seam = Seam(monkeypatch)
    built = spy(monkeypatch, "_keys") if uses_keys else []
    rankmetric._ball.cache_clear()
    report = run()
    assert (report.l_max, report.argmax_center.entries, report.centers_tried) == expected
    assert report.exhaustive is False
    assert bool(built) == uses_keys
    # a route is priced from the call alone: the same once the memo holds
    # this ball and its offset set, as after an exhaustive call and a probe
    # at the same (ctx, n, s)
    rankmetric._ball(code.ctx, code.n, s).probes
    assert run() == report
    assert seam.names == [route + "-keyed" if uses_keys else route] * 2
    rankmetric._ball.cache_clear()


class Seam:
    """The one route seam, ``listdec._route``, patched to record each call:
    its arguments and, last, the name it answered (``calls``).  It answers
    ``route`` while that is set, else the picker's own choice."""

    def __init__(self, patch, route=None):
        self.calls, self.route, self.real = [], route, listdec._route
        patch.setattr(listdec, "_route", self.pick)

    def pick(self, *args):
        name = self.route or self.real(*args)
        self.calls.append((*args, name))
        return name

    @property
    def names(self) -> list:
        return [call[-1] for call in self.calls]


def spy(monkeypatch, name, result=False) -> list:
    """Patch ``<name>`` of rankmetric, or of listdec if rankmetric has no
    such name, wherever either module holds it, to record its calls'
    arguments, and with ``result`` what each call returned as a last
    item, and run."""
    calls = []
    real = getattr(rankmetric, name, None) or getattr(listdec, name)

    def recorded(*args):
        out = real(*args)
        calls.append((*args, out) if result else args)
        return out

    for module in (listdec, rankmetric):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recorded)
    return calls


def first_best_by_list_size_at(code, s, centers, seed):
    """The Monte Carlo far branch counted with ``list_size_at``, for any q:
    the codewords, then the seeded draws, ties to the first candidate."""
    ctx, n = code.ctx, code.n
    candidates = dict.fromkeys(vector_index(w) for w in enumerate_codewords(code))
    rng = make_rng(seed)
    for _ in range(centers):
        candidates.setdefault(rng.randrange(ctx.order**n), None)
    counts = [list_size_at(code, vector_from_index(ctx, n, c), s) for c in candidates]
    best = counts.index(max(counts))
    return max(counts), vector_from_index(ctx, n, list(candidates)[best]).entries, len(candidates)


@pytest.mark.parametrize(
    "q, m, n, size, s, centers",
    [(4, 2, 2, 8, 1, 50), (4, 3, 3, 8, 1, 100), (3, 3, 3, 9, 1, 60)],
)
def test_keys_outside_f2_count_like_list_size_at(q, m, n, size, s, centers, monkeypatch):
    # rank over F_4 or F_3 needs base-field scalings in each key: with
    # (q^2 - 1) / (q - 1) < |C| keys the kernel indexes them, probing the
    # offset set or ranking each pair
    code = sample_random_code(default_context(q, m), n, size, 3)
    expected = first_best_by_list_size_at(code, s, centers, 7)
    assert 0 < listdec._key_count(code.ctx, n, s) < size
    built = spy(monkeypatch, "_keys")
    for route in ("probe", "rank"):
        del built[:]
        with monkeypatch.context() as patched:
            Seam(patched, route + "-keyed")
            report = max_list_size(code, s, "montecarlo", centers=centers, seed=7, neighborhood_cap=0)
        assert (report.l_max, report.argmax_center.entries, report.centers_tried) == expected
        assert len(built) == 2  # once for the codewords, once for the candidates


# (m, n) over F_2, m in 3..7 and n in 2..4
F2_SHAPES = ((3, 2), (3, 3), (4, 2), (4, 4), (5, 3), (6, 4), (7, 2), (7, 4))


def codes_around_the_key_count(ctx, n, s, seed):
    """Explicit and linear codes with |C| <= 2^(s+1) - 1 and |C| above it."""
    edge = 2 ** (s + 1) - 1
    for size in (edge, edge + 1):
        yield sample_random_code(ctx, n, size, seed)
    for k in sorted({max(s, 1), s + 1}):
        yield sample_random_linear_code(ctx, n, k, seed)


@pytest.mark.parametrize("m, n", F2_SHAPES)
def test_key_filter_counts_every_candidate_like_list_size_at(m, n, monkeypatch):
    ctx = default_context(2, m)
    rng = random.Random(100 * m + n)
    built = spy(monkeypatch, "_keys")
    sides = set()
    for s in range(n + 1):
        for code in codes_around_the_key_count(ctx, n, s, rng.randrange(1000)):
            words = _packed_words(code, 2**24)
            candidates = dict.fromkeys(words)
            for _ in range(20):
                candidates.setdefault(rng.randrange(ctx.order**n), None)
            expected = [list_size_at(code, vector_from_index(ctx, n, c), s) for c in candidates]
            keyed = 0 < listdec._key_count(ctx, n, s) < code.size
            assert keyed == (s < n and 2 ** (s + 1) - 1 < code.size)
            sides.add(keyed)
            for probe in (False, True) if ball_volume(2, m, n, s).exact <= 4096 else (False,):
                del built[:]
                counts = listdec._near(ctx, n, s, words, candidates, keyed, probe)
                assert list(counts) == list(candidates)
                assert list(counts.values()) == expected, (probe, s, code.size)
                assert bool(built) == keyed
    assert sides == {True, False}


def _entry_xors(entries, s):
    """The XOR of the entries at T, for every nonempty T within 0..s."""
    out = []
    for t in range(1, 2 ** (s + 1)):
        acc = 0
        for j in range(s + 1):
            if t >> j & 1:
                acc ^= entries[j]
        out.append(acc)
    return sorted(out)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_vectors_within_rank_s_share_a_dependency_key(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5, 7, 9)), label="q")
    top = {2: 7, 3: 4, 4: 3, 5: 3, 7: 2, 9: 2}[q]
    m = data.draw(st.integers(2, top), label="m")
    n = data.draw(st.integers(2, m), label="n")
    s = data.draw(st.integers(0, n - 1), label="s")
    ctx = default_context(q, m)
    entry = st.integers(0, ctx.order - 1)
    c = data.draw(st.lists(entry, min_size=n, max_size=n), label="c")
    # c - w: every entry an F_q-combination of s spanning elements
    span = data.draw(st.lists(entry, min_size=s, max_size=s), label="span")
    scalars = st.lists(st.integers(0, q - 1), min_size=s, max_size=s)
    diff = []
    for picks in data.draw(st.lists(scalars, min_size=n, max_size=n), label="picks"):
        d = 0
        for a, x in zip(picks, span):
            d = ctx.add(d, ctx.scale(a, x))
        diff.append(d)
    w = [ctx.sub(a, b) for a, b in zip(c, diff)]
    assert rank_of_vector(RankVector(ctx, diff)) <= s
    packed = [vector_index(RankVector(ctx, v)) for v in (c, w)]
    keys = listdec._keys(ctx, n, s, packed, rankmetric._Encoder(ctx))
    assert len(keys) == listdec._key_count(ctx, n, s) == (q ** (s + 1) - 1) // (q - 1)
    if q == 2:
        assert sorted(key[0] for key in keys) == _entry_xors(c, s)
        assert sorted(key[1] for key in keys) == _entry_xors(w, s)
    # c and w share key a exactly when sum a_t (c - w)_t = 0 over t <= s:
    # for a up to scale in the kernel of a map of rank r on F_q^(s+1)
    r = rank_of_vector(RankVector(ctx, diff[: s + 1]))
    shared = sum(kc == kw for kc, kw in keys)
    assert shared == (q ** (s + 1 - r) - 1) // (q - 1) >= 1


def test_ball_probes_count_like_the_restricted_scatter(monkeypatch):
    # the offset-set probe, keyed and not, against the scatter tally read at
    # each candidate, on candidates that see no codeword as well as ones
    # that see several
    for q, m, n, size, seed, s, centers in (
        (2, 4, 3, 40, 3, 1, 300), (2, 7, 4, 128, 2, 1, 350), (2, 3, 3, 20, 1, 2, 60),
        (2, 4, 2, 9, 0, 0, 30), (3, 3, 3, 30, 4, 1, 300), (5, 2, 2, 30, 5, 1, 100),
        (9, 2, 2, 20, 6, 1, 100), (4, 3, 3, 40, 7, 1, 200),
    ):
        ctx = default_context(q, m)
        code = sample_random_code(ctx, n, size, seed)
        words = _packed_words(code, 2**24)
        rng = random.Random(seed)
        candidates = dict.fromkeys(words)
        for _ in range(centers):
            candidates.setdefault(rng.randrange(ctx.order**n), None)
        scattered = listdec._tally(ctx, n, s, words)
        for keyed in (False, True) if listdec._key_count(ctx, n, s) else (False,):
            with monkeypatch.context() as patched:
                patched.setattr(listdec, "_tally", _raise)
                patched.setattr(listdec, "_rank_of_entries", _raise)
                probed = listdec._near(ctx, n, s, words, candidates, keyed, True)
            assert list(probed) == list(candidates)
            assert all(probed[c] == scattered[c] for c in candidates), (q, m, n, s, keyed)
            assert sum(probed.values()) > 0


def _raise(*args, **kwargs):
    raise AssertionError("a patched-out helper ran")


def memo_calls():
    """Calls that read the ball, as (ball key, thunk): explicit, linear and
    Gabidulin codes over q = 2, 3 and 5, each radius, exhaustive sweeps,
    Monte Carlo on the neighborhood tally and on the far routes (with
    fewer and with more candidates than offsets), and coset checks."""
    for q, m, n in ((2, 3, 3), (3, 2, 2), (5, 2, 2)):
        ctx = default_context(q, m)
        codes = [
            sample_random_code(ctx, n, 2 * q + 1, seed=q),
            sample_random_linear_code(ctx, n, 1, seed=q),
            gabidulin(ctx, n, 1),
        ]
        for code in codes:
            for s in range(n + 1):
                calls = [lambda code=code, s=s: max_list_size(code, s)]
                for centers in (5, 300):
                    calls += [
                        lambda code=code, s=s, c=centers: max_list_size(
                            code, s, "montecarlo", centers=c, seed=s, neighborhood_cap=0
                        ),
                        lambda code=code, s=s, c=centers: max_list_size(
                            code, s, "montecarlo", centers=c, seed=s
                        ),
                    ]
                if isinstance(code, LinearCode):
                    calls.append(lambda code=code, s=s: coset_partition_check(code, s))
                yield from (((ctx, n, s), call) for call in calls)


def test_back_to_back_and_interleaved_calls_report_like_a_cold_start(monkeypatch):
    calls = list(memo_calls())
    seam = Seam(monkeypatch)
    cold = []
    for _, call in calls:
        rankmetric._ball.cache_clear()
        cold.append(call())
    cold_routes = list(seam.calls)
    assert {name for *args, name in cold_routes if args[6] is None} == {"scatter", "counters", "coset", "fold"}
    # back to back: each call twice, every run of one key in a row, and a
    # call takes the route it took cold also when the memo holds its ball,
    # the ball's bitset and its offset set
    rankmetric._ball.cache_clear()
    del seam.calls[:]
    assert [(call(), call()) for _, call in calls] == [(r, r) for r in cold]
    assert seam.calls == [call for call in cold_routes for _ in range(2)]
    # interleaved: consecutive calls mostly at different (ctx, n, s)
    order = list(range(len(calls)))
    random.Random(3).shuffle(order)
    changes = sum(calls[i][0] != calls[j][0] for i, j in zip(order, order[1:]))
    assert changes > len(calls) // 2
    assert [calls[i][1]() for i in order] == [cold[i] for i in order]
    assert [calls[i][1]() for i in reversed(order)] == [cold[i] for i in reversed(order)]


class BallWatch:
    """``rankmetric._Ball`` and the two part builders, ``_ball_layout`` and
    ``_ball_bits``, patched: each ball made is watched through a weak
    reference, so ``alive()`` lists the keys of the balls the memo keeps
    (no test holds one), and each builder call is recorded in ``built``
    as (key, builder), after ``check(key)`` has run."""

    def __init__(self, patch, check=lambda key: None):
        self.refs, self.built, self.check = [], [], check
        real_ball = rankmetric._Ball

        def made(*args):
            ball = real_ball(*args)
            self.refs.append(weakref.ref(ball))
            return ball

        def watched(name, real):
            def build(ctx, n, s):
                self.check((ctx, n, s))
                self.built.append(((ctx, n, s), name))
                return real(ctx, n, s)

            return build

        patch.setattr(rankmetric, "_Ball", made)
        for name in ("_ball_layout", "_ball_bits"):
            patch.setattr(rankmetric, name, watched(name, getattr(rankmetric, name)))

    def alive(self) -> list:
        return [(ball.ctx, ball.n, ball.s) for ball in (ref() for ref in self.refs) if ball is not None]

    def kept_price(self) -> int:
        return sum(rankmetric._ball_price(*key) for key in self.alive())


def test_the_kept_balls_fit_the_budget_but_the_most_recent(monkeypatch):
    # a part of a ball, its layout or its bitset, is built while that ball
    # is kept, and the kept balls fit the budget or are that ball alone;
    # under the default budget the memo keeps every ball of these calls,
    # so each part is built once, and a second pass in another order
    # builds nothing; under a budget of about one ball it builds a ball no
    # more often than once per run of reads at one key, as one slot did
    memo = rankmetric._ball
    calls = list(memo_calls())
    default = rankmetric._BALL_BUDGET
    for budget in (default, max(rankmetric._ball_price(*key) for key, _ in calls)):
        with monkeypatch.context() as patched:
            patched.setattr(rankmetric, "_BALL_BUDGET", budget)
            memo.cache_clear()
            watch = BallWatch(patched, lambda key: check(key))

            def check(key):
                kept = watch.alive()
                assert key in kept, f"{key} built while the memo does not keep it"
                assert kept == [key] or watch.kept_price() <= budget

            reads, real_call = [], rankmetric._BallMemo.__call__

            def recorded(self, *key):
                reads.append(key)
                return real_call(self, *key)

            patched.setattr(rankmetric._BallMemo, "__call__", recorded)
            for _, call in calls:
                call()
                call()
            runs = [key for i, key in enumerate(reads) if i == 0 or reads[i - 1] != key]
            assert len(reads) > 2 * len(runs) and {key for key, _ in watch.built} == {key for key, _ in calls}
            assert {name for _, name in watch.built} == {"_ball_layout", "_ball_bits"}
            assert len(watch.refs) <= len(runs)
            assert watch.alive() == [runs[-1]] or watch.kept_price() <= budget
            if budget == default:
                # every ball kept: each part built once, whatever comes next
                assert len(set(watch.built)) == len(watch.built)
                kept = watch.alive()
                assert len(kept) == len(set(kept)) and set(kept) == {key for key, _ in calls}
                before = len(watch.built)
                for i in random.Random(5).sample(range(len(calls)), len(calls)):
                    calls[i][1]()
                assert len(watch.built) == before
            else:
                # some ball was dropped and made again
                assert len(watch.refs) > len({key for key, _ in calls})
            # a context equal to the memo's, though another object, reads the same ball
            ctx, n, s = reads[-1]
            twin = context_from_descriptor(ctx.descriptor())
            assert twin is not ctx
            ball = memo(ctx, n, s)
            max_list_size(sample_random_code(twin, n, 4, seed=1), s)
            assert reads[-1] == (ctx, n, s) and memo(twin, n, s) is ball
            del ball
    memo.cache_clear()


def test_no_kernel_mutates_the_memoized_ball():
    for q, m, n, s in ((2, 3, 3, 1), (2, 3, 2, 2), (3, 2, 2, 1), (5, 2, 2, 1)):
        ctx = default_context(q, m)
        rankmetric._ball.cache_clear()
        code = sample_random_code(ctx, n, 6, seed=q)
        words = _packed_words(code, 2**24)
        candidates = dict.fromkeys(range(0, ctx.order**n, 3))
        listdec._tally(ctx, n, s, words)
        listdec._counters(ctx, n, s, words)
        for keyed in (False, True) if s < n else (False,):
            listdec._near(ctx, n, s, words, candidates, keyed, True)
        for linear in (sample_random_linear_code(ctx, n, 1, seed=q), gabidulin(ctx, n, 1)):
            coset_tally(listdec._CosetKeys(linear), s)
            listdec._counters(ctx, n, s, _fp_basis(linear), span=True)
        coset_partition_check(sample_random_linear_code(ctx, n, 1, seed=q), s)
        for center in (RankVector.zero(ctx, n), RankVector(ctx, [(q + j) % ctx.order for j in range(n)])):
            deque(enumerate_ball(center, s), 0)
        memo = rankmetric._ball(ctx, n, s)
        assert rankmetric._ball(ctx, n, s) is memo
        rankmetric._ball.cache_clear()
        fresh = rankmetric._ball(ctx, n, s)
        assert fresh is not memo
        # the offset set and the bitset are built once per ball and kept with it
        assert memo.probes is memo.probes and memo.probes == fresh.probes
        assert "bits" in vars(memo)  # left by the counter run
        assert memo.bits is memo.bits and memo.bits == fresh.bits
        assert memo.bits == sum(1 << vector_index(b) for b in enumerate_ball(RankVector.zero(ctx, n), s))
        assert memo.packed == fresh.packed
        # the values, each run's bounds, and what its getters read
        (values, runs), (fresh_values, fresh_runs) = memo.layout, fresh.layout
        assert values == fresh_values
        assert [run[:2] for run in runs] == [run[:2] for run in fresh_runs]
        reads = [[list(rankmetric._read(r, j, v)) for j in range(n)] for v, r in (memo.layout, fresh.layout)]
        assert reads[0] == reads[1]
        # the memo holds data alone: its parts are these four, none a function
        parts = {"layout", "packed", "probes", "bits"}
        assert {name for name, v in vars(rankmetric._Ball).items() if isinstance(v, cached_property)} == parts
        assert not any(callable(getattr(memo, part)) for part in parts)


def test_enumerations_at_one_key_lay_the_ball_out_once(monkeypatch):
    # the layout is built once per (ctx, n, r), whatever the centers, and
    # each enumeration is the per-table oracle around its center
    for q, m, n, r in ((2, 4, 3, 2), (3, 3, 2, 2)):
        ctx = default_context(q, m)
        rankmetric._ball.cache_clear()
        built = spy(monkeypatch, "_ball_layout")
        for entries in ((0,) * n, tuple(range(1, n + 1)), (5,) * n):
            out = [v.entries for v in enumerate_ball(RankVector(ctx, entries), r)]
            assert out == ball_by_tables(ctx, entries, r), (q, m, n, r, entries)
        assert built == [(ctx, n, r)]
        monkeypatch.undo()
    rankmetric._ball.cache_clear()


def test_decoding_radius_over_codes_builds_each_ball_part_once(monkeypatch):
    # decoding_radius measures a code at s = 1, 2, ... (a list cap of 3
    # passes s = 1 and fails s = 2 on each code here); over five codes of
    # one shape the memo keeps the ball of every radius, so each part of
    # each ball is built once, not once per code and radius
    ctx = default_context(2, 4)
    rankmetric._ball.cache_clear()
    watch = BallWatch(monkeypatch)
    for kind in ("random", "linear"):
        codes = [
            sample_random_code(ctx, 3, 8, seed) if kind == "random" else sample_random_linear_code(ctx, 3, 3, seed)
            for seed in range(5)
        ]
        radii = [decoding_radius(code, 3) for code in codes]
        assert radii == [Fraction(1, 3)] * 5, kind
    assert {key for key, _ in watch.built} >= {(ctx, 3, 1), (ctx, 3, 2)}
    assert len(set(watch.built)) == len(watch.built)
    rankmetric._ball.cache_clear()


def test_the_memo_builds_no_more_than_one_slot_and_keeps_to_its_budget(monkeypatch):
    # under a seeded random interleaving of keys and parts the memo builds
    # a part no more often than one slot (the most recent ball alone)
    # would, and the balls it keeps fit the budget or are the most recent
    # alone; budgets from none to all the balls at once
    shapes = ((2, 3, 3, 1), (2, 3, 3, 2), (2, 4, 3, 1), (2, 4, 3, 2), (3, 2, 2, 1), (3, 2, 2, 2), (5, 2, 2, 1))
    keys = [(default_context(q, m), n, s) for q, m, n, s in shapes]
    prices = sorted(rankmetric._ball_price(*key) for key in keys)
    builders = {"layout": "_ball_layout", "packed": "_ball_layout", "probes": "_ball_layout", "bits": "_ball_bits"}
    for budget in (0, prices[0], prices[-1], prices[-1] + prices[-2], sum(prices)):
        with monkeypatch.context() as patched:
            patched.setattr(rankmetric, "_BALL_BUDGET", budget)
            rankmetric._ball.cache_clear()
            watch = BallWatch(patched)
            rng = random.Random(budget)
            slot, slot_built, one_slot = None, set(), 0
            for _ in range(300):
                key, part = rng.choice(keys), rng.choice(sorted(builders))
                getattr(rankmetric._ball(*key), part)
                if key != slot:
                    slot, slot_built = key, set()
                one_slot += builders[part] not in slot_built
                slot_built.add(builders[part])
                assert len(watch.built) <= one_slot
                kept = watch.alive()
                assert key in kept and len(kept) == len(set(kept))
                assert kept == [key] or watch.kept_price() <= budget, budget
            if budget == sum(prices):
                assert len(watch.built) == len(set(watch.built))
            if budget == 0:
                assert len(watch.built) == one_slot
    rankmetric._ball.cache_clear()


def test_threads_at_interleaved_keys_report_like_a_cold_start(monkeypatch):
    # four threads call max_list_size at interleaved keys, under the
    # default budget and under one that keeps about one ball
    from concurrent.futures import ThreadPoolExecutor

    calls = []
    for q, m, n in ((2, 3, 3), (3, 2, 2), (2, 4, 2)):
        ctx = default_context(q, m)
        for code in (sample_random_code(ctx, n, 2 * q + 1, seed=q), sample_random_linear_code(ctx, n, 1, seed=q)):
            calls += [(code, s) for s in range(n + 1)]
    cold = []
    for code, s in calls:
        rankmetric._ball.cache_clear()
        cold.append(max_list_size(code, s))
    orders = [random.Random(seed).sample(range(len(calls)), len(calls)) * 2 for seed in range(4)]

    def run(order):
        return [max_list_size(*calls[i]) for i in order]

    memo, interval = rankmetric._ball, sys.getswitchinterval()
    for budget in (rankmetric._BALL_BUDGET, max(rankmetric._ball_price(code.ctx, code.n, s) for code, s in calls)):
        monkeypatch.setattr(rankmetric, "_BALL_BUDGET", budget)
        memo.cache_clear()
        sys.setswitchinterval(1e-5)  # threads switch often inside the memo
        try:
            with ThreadPoolExecutor(4) as pool:
                reports = list(pool.map(run, orders, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for order, got in zip(orders, reports):
            assert got == [cold[i] for i in order]
        # a lost update would leave the priced total apart from the kept balls
        assert memo._total == sum(price for _, price in memo._kept.values())
        assert memo._total <= budget or len(memo._kept) == 1
    memo.cache_clear()


def streamed(patched, center, r) -> tuple[int, int, list]:
    """The runs ``_ball_layout`` laid out by ``enumerate_ball``'s first
    vector and by its last, and the entries of every vector in order."""
    laid, real = [], rankmetric._ball_layout

    def counted(*args):
        for run in real(*args):
            laid.append(run)
            yield run

    patched.setattr(rankmetric, "_ball_layout", counted)
    ball = enumerate_ball(center, r)
    first = next(ball)
    at_first = len(laid)
    entries = [first.entries, *(v.entries for v in ball)]
    patched.setattr(rankmetric, "_ball_layout", real)
    return at_first, len(laid), entries


def test_a_ball_above_the_budget_is_streamed_and_not_kept(monkeypatch):
    # above the whole budget enumerate_ball reads the runs as they are
    # laid out: its first vector comes before the last run is built, the
    # memo does not gain the ball, and the order is the kept ball's; a
    # ball the memo holds with its layout built is streamed again all the
    # same, and the call leaves the memo's keys, their order and its total
    # as they were
    memo = rankmetric._ball
    for q, m, n, r in ((2, 4, 3, 2), (3, 3, 2, 2)):
        ctx = default_context(q, m)
        center = RankVector(ctx, tuple(range(1, n + 1)))
        memo.cache_clear()
        expected = [v.entries for v in enumerate_ball(center, r)]
        runs = len(memo(ctx, n, r).layout[1])
        with monkeypatch.context() as patched:
            patched.setattr(rankmetric, "_BALL_BUDGET", rankmetric._ball_price(ctx, n, r) - 1)
            memo.cache_clear()
            at_first, laid, entries = streamed(patched, center, r)
            assert 1 <= at_first < runs and laid == runs and entries == expected
            assert (ctx, n, r) not in memo._kept
            memo(ctx, n, r).layout  # held, as the most recent ball, its layout built
            before = list(memo._kept), memo._total
            assert before[0][-1] == (ctx, n, r)
            at_first, laid, entries = streamed(patched, center, r)
            assert 1 <= at_first < runs and laid == runs and entries == expected
            assert (list(memo._kept), memo._total) == before
        memo.cache_clear()


def test_a_ball_above_the_budget_is_streamed_after_a_counters_call(monkeypatch):
    # a counters call leaves an over-budget ball in the memo with its
    # bitset alone; enumerate_ball streams it all the same, as it would a
    # ball the memo does not hold: its first vector comes before the last
    # run is laid out, the order is the unpatched one, and the ball the
    # memo holds never gains a layout
    memo = rankmetric._ball
    for q, m, n, r in ((2, 4, 3, 2), (3, 3, 2, 2)):
        ctx = default_context(q, m)
        center = RankVector(ctx, tuple(range(1, n + 1)))
        words = _packed_words(sample_random_code(ctx, n, 4, seed=q), 2**24)
        memo.cache_clear()
        expected = [v.entries for v in enumerate_ball(center, r)]
        runs = len(memo(ctx, n, r).layout[1])
        with monkeypatch.context() as patched:
            patched.setattr(rankmetric, "_BALL_BUDGET", rankmetric._ball_price(ctx, n, r) - 1)
            memo.cache_clear()
            listdec._counters(ctx, n, r, words)
            held = memo(ctx, n, r)
            assert "bits" in vars(held) and "layout" not in vars(held)
            at_first, laid, entries = streamed(patched, center, r)
            assert 1 <= at_first < runs and laid == runs and entries == expected, (q, m, n, r)
            assert "layout" not in vars(held) and memo(ctx, n, r) is held
        memo.cache_clear()


def test_enumerate_ball_outlives_the_eviction_of_its_ball():
    # the memo is emptied in the middle of an enumeration and another ball
    # laid out; the rest of it comes out as it would have
    for q, m, n, r in ((2, 4, 3, 2), (3, 3, 2, 2)):
        ctx = default_context(q, m)
        center = RankVector(ctx, tuple(range(2, n + 2)))
        rankmetric._ball.cache_clear()
        expected = list(enumerate_ball(center, r))
        code = sample_random_code(ctx, n, 4, seed=q)
        ball = enumerate_ball(center, r)
        head = list(islice(ball, 300))
        memo = rankmetric._ball(ctx, n, r)
        rankmetric._ball.cache_clear()
        max_list_size(code, r - 1)
        rankmetric._ball(ctx, n, r - 1).layout  # another ball laid out
        assert (ctx, n, r) not in rankmetric._ball._kept
        assert rankmetric._ball(ctx, n, r) is not memo
        del memo
        assert head + list(ball) == expected, (q, m, n, r)
    rankmetric._ball.cache_clear()


def test_the_ball_reads_like_the_span_tables_one_by_one():
    # packed offsets, bitset, offset set, odd-p scatter tallies and coset
    # keys against the per-table oracle; q2m6n3 and q3m4n3 at s = 2 have
    # shells cut into many chunks
    shapes = [(q, m, n, s) for q, m, n in ((2, 3, 3), (3, 2, 2), (3, 3, 2), (4, 2, 2), (5, 2, 2), (9, 2, 2))
              for s in range(n + 1)]
    for q, m, n, s in shapes + [(2, 6, 3, 2), (3, 4, 3, 2)]:
        ctx = default_context(q, m)
        p, order, width = ctx.base.p, ctx.order, n * m * ctx.base.s
        rankmetric._ball.cache_clear()
        ball = rankmetric._ball(ctx, n, s)
        offsets = [_index_of_entries(order, b) for b in ball_by_tables(ctx, (0,) * n, s)]
        assert list(ball.packed) == offsets
        if p == 2:
            assert ball.probes == set(offsets)
        else:
            # the base-p digits of each packed offset, one byte each
            assert ball.probes == {bytes(_entries_of_index(p, width, x)) for x in offsets}
            words = _packed_words(sample_random_code(ctx, n, 3, seed=q + s), 2**24)
            centers = [_entries_of_index(order, n, w) for w in words]
            expected = Counter(_index_of_entries(order, b) for c in centers for b in ball_by_tables(ctx, c, s))
            assert list(listdec._tally(ctx, n, s, words).items()) == list(expected.items()), (q, m, n, s)
        assert ball.bits == sum(1 << x for x in offsets)
        for code in (sample_random_linear_code(ctx, n, 1, seed=s), gabidulin(ctx, n, 1)):
            cosets = listdec._CosetKeys(code)
            expected = Counter(cosets.of_indices(offsets))
            assert list(coset_tally(cosets, s).items()) == list(expected.items()), (q, m, n, s)


def test_the_ball_bitset_is_the_union_of_the_s_dimensional_subspaces():
    # B_s is the union of T^n over the subspaces T of dimension s: every
    # shape with q^(mn) <= 2^16, n = 1, s = 0 and s = n among them, with
    # blocks of order^(n-1) bits both within one 64-bit word and past it
    wide = set()
    for q in (2, 3, 4, 5, 8, 9):
        for m in range(1, 17):
            for n in range(1, m + 1):
                if q ** (m * n) > 2**16:
                    break
                ctx = default_context(q, m)
                wide.add(ctx.order ** (n - 1) > 64)
                for s in range(n + 1):
                    rankmetric._ball.cache_clear()
                    bits = rankmetric._ball(ctx, n, s).bits
                    offsets = ball_by_tables(ctx, (0,) * n, s)
                    assert bits == sum(1 << _index_of_entries(ctx.order, b) for b in offsets), (q, m, n, s)
                    assert bits.bit_count() == _ball_size(q, m, n, s), (q, m, n, s)
    assert wide == {False, True}
    rankmetric._ball.cache_clear()


def test_only_the_routes_that_read_offsets_lay_the_ball_out(monkeypatch):
    # the counters and the fold read the bitset alone; the scatter, the
    # coset tally, the neighborhood tally and the probe lay the ball out
    # once; the first three pack its offsets for p = 2, and the probe packs
    # its offset set in its encoded form for every p, which for p = 2 is
    # the packed offsets themselves; for odd p every per-entry sum goes
    # through _packed too, once per codeword for the scatter and once for
    # the coset keys
    layouts, packs = spy(monkeypatch, "_ball_layout"), spy(monkeypatch, "_packed")
    seam = Seam(monkeypatch)
    mc = {"mode": "montecarlo", "centers": 20, "seed": 1}
    for q, m, n, s in ((2, 3, 3, 2), (3, 2, 2, 1)):
        ctx = default_context(q, m)
        explicit = sample_random_code(ctx, n, 6, seed=q)
        linear = sample_random_linear_code(ctx, n, 1, seed=q)
        # small enough for the neighborhood tally
        assert explicit.size * _ball_size(q, m, n, s) <= listdec.DEFAULT_NEIGHBORHOOD_CAP
        # (code, keywords, whether the route is forced at the seam)
        cases = {
            "counters": (explicit, {}, True),
            "scatter": (explicit, {}, True),
            "fold": (linear, {}, True),
            "coset": (linear, {}, True),
            "neighborhood": (explicit, mc, False),
            "probe": (explicit, {**mc, "neighborhood_cap": 0}, True),
        }
        for route, (code, kwargs, forced) in cases.items():
            rankmetric._ball.cache_clear()
            del layouts[:], packs[:], seam.calls[:]
            seam.route = route if forced else None
            max_list_size(code, s, workers=1, **kwargs)
            assert seam.names == [route]
            # what the route left built: the bitset alone, or the layout,
            # packed for p = 2 alone by every route but the probe, which
            # leaves its offset set beside the layout for every p
            left = vars(rankmetric._ball(ctx, n, s)).keys() - {"ctx", "n", "s"}
            if route in ("counters", "fold"):
                assert layouts == packs == [], route
                assert left == {"bits"}, route
            else:
                assert layouts == [(ctx, n, s)], route
                sums = {"coset": 1, "probe": 1}.get(route, explicit.size)
                assert len(packs) == (1 if q == 2 else sums), route
                assert "layout" in left and "bits" not in left, route
                if route == "probe":
                    assert left == {"layout", "probes"}, route
                else:
                    assert ("packed" in left) == (q == 2), route
        # the bitset and the layout in either order build what a cold ball does
        parts = []
        for first in (True, False):
            rankmetric._ball.cache_clear()
            ball = rankmetric._ball(ctx, n, s)
            # reading the layout builds no other part
            [ball.bits if bits else ball.layout for bits in (first, not first)]
            assert vars(ball).keys() == {"ctx", "n", "s", "bits", "layout"}
            parts.append(ball)
        rankmetric._ball.cache_clear()
        bits = rankmetric._ball(ctx, n, s).bits
        rankmetric._ball.cache_clear()
        cold = rankmetric._ball(ctx, n, s)
        assert vars(cold).keys() == {"ctx", "n", "s"}
        cold_values, cold_runs = cold.layout
        for ball in parts:
            values, runs = ball.layout
            assert vars(ball)["bits"] == bits and ball.packed == cold.packed and values == cold_values
            assert [run[:2] for run in runs] == [run[:2] for run in cold_runs]
            assert [list(rankmetric._read(runs, j, values)) for j in range(n)] == [
                list(rankmetric._read(cold_runs, j, cold_values)) for j in range(n)
            ]
    rankmetric._ball.cache_clear()


def test_every_far_route_counts_every_candidate_like_list_size_at(monkeypatch):
    # one candidate set per code and radius, through each route in turn:
    # the kernel with the dependency keys forced on and off, testing pairs
    # by probe and by rank, and the coset tally
    rng = random.Random(11)
    routes_run = set()
    shapes = ((2, 3, 3), (2, 4, 2), (3, 2, 2), (3, 3, 2), (4, 2, 2), (5, 2, 2), (9, 2, 2))
    for q, m, n in shapes:
        ctx = default_context(q, m)
        codes = [sample_random_code(ctx, n, size, rng.randrange(100)) for size in (3, 9)]
        codes += [sample_random_linear_code(ctx, n, k, rng.randrange(100)) for k in (1, 2)]
        for code in codes:
            words = _packed_words(code, 2**24)
            candidates = dict.fromkeys(words)
            for _ in range(30):
                candidates.setdefault(rng.randrange(ctx.order**n), None)
            for s in range(n + 1):
                expected = [list_size_at(code, vector_from_index(ctx, n, c), s) for c in candidates]
                routes = {}
                # dependency keys exist below s = n
                for keyed in (False, True) if s < n else (False,):
                    for probe in (False, True):
                        routes[f"near keyed={keyed} probe={probe}"] = partial(
                            listdec._near, ctx, n, s, words, candidates, keyed, probe
                        )
                if isinstance(code, LinearCode):
                    cosets = listdec._CosetKeys(code)
                    tally = coset_tally(cosets, s)
                    keys = cosets.of_indices(list(candidates))
                    routes["coset"] = lambda: dict(zip(candidates, map(tally.__getitem__, keys)))
                for route, run in routes.items():
                    counts = run()
                    assert [counts[c] for c in candidates] == expected, (route, q, m, n, s, code.size)
                    routes_run.add(route)
    near = {f"near keyed={k} probe={p}" for k in (False, True) for p in (False, True)}
    assert routes_run == {"coset", *near}


# (q, m, n, code) for the flat pair probes: explicit codes below and above
# the key count at s = 1, and a linear code, over prime q as the far-branch
# oracle needs
NEAR_CASES = {
    "q2m4n3-random3": (2, 4, 3, lambda ctx: sample_random_code(ctx, 3, 3, 1)),
    "q2m4n3-random40": (2, 4, 3, lambda ctx: sample_random_code(ctx, 3, 40, 3)),
    "q2m3n3-linear16": (2, 3, 3, lambda ctx: sample_random_linear_code(ctx, 3, 4, 2)),
    "q3m2n2-random40": (3, 2, 2, lambda ctx: sample_random_code(ctx, 2, 40, 2)),
    "q3m3n2-random9": (3, 3, 2, lambda ctx: sample_random_code(ctx, 2, 9, 4)),
    "q5m2n2-random30": (5, 2, 2, lambda ctx: sample_random_code(ctx, 2, 30, 1)),
    "q5m2n2-linear25": (5, 2, 2, lambda ctx: sample_random_linear_code(ctx, 2, 2, 3)),
}
# the cases where some candidate shares no dependency key with any codeword
# at some radius; in the others the keys of the codewords take every value
NEAR_LONELY = {"q2m4n3-random3", "q2m4n3-random40", "q3m3n2-random9", "q5m2n2-random30"}


@pytest.mark.parametrize("block", (1, 7, listdec._PAIR_BLOCK))
@pytest.mark.parametrize("case", sorted(NEAR_CASES))
def test_flat_pair_probes_count_like_brute_force(case, block, monkeypatch):
    # every candidate's count, keyed and unkeyed, by probe and by rank,
    # against a count ranked on F_q-spans, and the Monte Carlo report
    # against the far-branch oracle; blocks of 1 and 7 pairs split one
    # candidate's pairs over two blocks
    q, m, n, make = NEAR_CASES[case]
    ctx = default_context(q, m)
    code = make(ctx)
    monkeypatch.setattr(listdec, "_PAIR_BLOCK", block)
    words = _packed_words(code, 2**24)
    entries = [_entries_of_index(ctx.order, n, w) for w in words]
    rng = random.Random(q * 100 + len(words))
    candidates = dict.fromkeys(words)
    for _ in range(40):
        candidates.setdefault(rng.randrange(ctx.order**n), None)
    order = list(candidates)
    enc = rankmetric._Encoder(ctx)
    straddled, lonely_seen = set(), False
    for s in range(n + 1):
        centers = [_entries_of_index(ctx.order, n, c) for c in order]
        expected = [
            sum(memo_span_rank(ctx, tuple(map(ctx.sub, c, w))) <= s for w in entries) for c in centers
        ]
        oracle = far_branch_oracle(code, s, 40, 5)
        for keyed in (False, True) if listdec._key_count(ctx, n, s) else (False,):
            if keyed:
                # the codewords sharing some dependency key with each candidate
                shared = [set() for _ in order]
                for ks, kc in zip(listdec._keys(ctx, n, s, words, enc), listdec._keys(ctx, n, s, order, enc)):
                    index = {}
                    for key, w in zip(ks, words):
                        index.setdefault(key, set()).add(w)
                    for near, key in zip(shared, kc):
                        near |= index.get(key, set())
                sharers = list(map(len, shared))
                # a candidate with no sharer, after one with some, keeps its place
                lonely = [i for i, c in enumerate(sharers) if not c and any(sharers[:i])]
                assert all(expected[i] == 0 for i in lonely)
                lonely_seen = lonely_seen or bool(lonely)
            else:
                sharers, lonely = [len(words)] * len(order), []
            ends = [sum(sharers[: i + 1]) for i in range(len(order))]
            straddled.update(
                (keyed, s) for i, c in enumerate(sharers) if c and (ends[i] - c) // block != (ends[i] - 1) // block
            )
            for probe in (False, True):
                counts = listdec._near(ctx, n, s, words, candidates, keyed, probe)
                assert list(counts) == order
                assert list(counts.values()) == expected, (s, keyed, probe)
                assert all(counts[order[i]] == 0 for i in lonely)
                with monkeypatch.context() as patched:
                    Seam(patched, ("probe" if probe else "rank") + ("-keyed" if keyed else ""))
                    report = max_list_size(code, s, "montecarlo", centers=40, seed=5, neighborhood_cap=0)
                assert (report.l_max, report.argmax_center.entries, report.centers_tried) == oracle
    assert lonely_seen == (case in NEAR_LONELY)
    if block < listdec._PAIR_BLOCK:
        assert (False, 0) in straddled


def test_flat_pair_probes_hold_one_block_of_pairs_at_a_time(monkeypatch):
    # 256 codewords against 800 candidates, none keyed: 204,800 pairs,
    # whose three flat lists would take 4.9 MB of references alone
    import tracemalloc

    ctx = default_context(2, 5)
    code = sample_random_code(ctx, 3, 256, 1)
    words = _packed_words(code, 2**24)
    rng = random.Random(2)
    candidates = dict.fromkeys(words)
    while len(candidates) < 800:
        candidates.setdefault(rng.randrange(ctx.order**3), None)
    expected = listdec._near(ctx, 3, 1, words, candidates, False, True)
    monkeypatch.setattr(listdec, "_PAIR_BLOCK", 1000)
    tracemalloc.start()
    try:
        counts = listdec._near(ctx, 3, 1, words, candidates, False, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == expected
    assert peak < 500_000


# (q, m, n, k) of the linear codes whose Monte Carlo draws the coset
# route scores: one per characteristic-2 field shape and one odd q
COSET_ROUTE_CODES = ((2, 4, 3, 4), (4, 3, 2, 2), (3, 3, 2, 2))


def plus(ctx, n, x: int, y: int) -> int:
    """The packed index of the sum of the vectors at packed x and y."""
    pair = zip(_entries_of_index(ctx.order, n, x), _entries_of_index(ctx.order, n, y))
    return _index_of_entries(ctx.order, [ctx.add(a, b) for a, b in pair])


@pytest.mark.parametrize("q, m, n, k", COSET_ROUTE_CODES)
def test_the_coset_route_picks_like_the_per_draw_loop(q, m, n, k, monkeypatch):
    # the draws are chosen: the route keys them in one pass and picks the
    # first largest count, where the oracle keys and compares one by one
    ctx = default_context(q, m)
    code = sample_random_linear_code(ctx, n, k, 3)
    words = _packed_words(code, 2**24)
    cosets = listdec._CosetKeys(code)
    tally = coset_tally(cosets, 1)
    # the least member of the coset with the largest count, and of one that
    # ties the zero coset where there is one
    top = cosets.index(min(tally, key=lambda key: (-tally[key], key)))
    assert tally[cosets.of_indices([top])[0]] > tally[cosets.zero]
    ties = [cosets.index(key) for key in tally if key != cosets.zero and tally[key] == tally[cosets.zero]]
    rng = random.Random(q)
    loose = [rng.randrange(ctx.order**n) for _ in range(30)]
    Seam(monkeypatch, "far-coset")
    draw_sets = {
        "mixed, zero coset included": loose[:10] + words[1:4] + loose[10:] + [0, loose[3]],
        "one coset": [plus(ctx, n, top, w) for w in words[::3]],
        "ties, then the top coset twice": ties[:3] + [plus(ctx, n, top, words[-1]), top],
        "zero coset only": words[::-1],
        "none": [],
    }
    for name, chosen in draw_sets.items():
        assert cosets.of_indices(list(chosen)) == [cosets.of_indices([x])[0] for x in chosen]
        monkeypatch.setattr(listdec, "draws", lambda seed, bound, chosen=chosen: iter(chosen))
        report = max_list_size(code, 1, "montecarlo", centers=len(chosen), neighborhood_cap=0)
        got = (report.l_max, vector_index(report.argmax_center), report.centers_tried)
        assert got == coset_route_oracle(code, 1, chosen), name
    assert report.centers_tried == code.size


@pytest.mark.xfail(strict=True, reason="Monte Carlo centers replay the codewords sampled at the same seed")
def test_montecarlo_centers_do_not_replay_the_sampled_code():
    # the sampler and the centers read one draw stream per seed, so at one
    # seed the first 50 centers are the 50 codewords, already scored
    code = sample_random_code(default_context(3, 4), 4, 50, 0)
    report = max_list_size(code, 1, "montecarlo", centers=200, seed=0)
    assert report.centers_tried == 250


def test_cli_sized_far_centers_build_no_ball(monkeypatch):
    # a few hundred ranked pairs cost less than building a ball of 2-3 * 10^5
    # offsets: the shapes of the benchmark's listdecode jobs over F_{3^10}
    # and F_{4^8}, with fewer codewords than dependency keys
    monkeypatch.setattr(rankmetric, "_ball_layout", _raise)
    for q, m, size in ((3, 10, 3), (4, 8, 4)):
        code = sample_random_code(default_context(q, m), 2, size, 1)
        assert listdec._key_count(code.ctx, 2, 1) >= size
        report = max_list_size(code, 1, "montecarlo", centers=200, seed=2)
        assert report.centers_tried == size + 200 and report.l_max >= 1


def test_coset_keys_past_the_byte_slots_are_priced_like_ranked_pairs(monkeypatch):
    # q = 257: a coset key is a tuple of digits, so 66,049 of them cost more
    # than ranking the 257 codewords against 20 centers
    ctx = default_context(257, 2)
    code = sample_random_linear_code(ctx, 1, 1, seed=0)
    seam = Seam(monkeypatch)
    rankmetric._ball.cache_clear()
    mc = {"centers": 20, "seed": 4, "neighborhood_cap": 0}
    report = max_list_size(code, 1, "montecarlo", **mc)
    assert seam.names == ["rank"]
    twin = ExplicitCode(ctx, 1, tuple(enumerate_codewords(code)))
    assert report == max_list_size(twin, 1, "montecarlo", **mc)


# (q, m, n, s) on both sides of each byte limit: the probe and the coset
# key form at n(p - 1) = 252 against 260, the coset key form at 208
# against 260, and dependency keys at (s + 1)(p - 1) = 252 against 378
# and 260
BYTE_LIMIT_SHAPES = (
    (127, 2, 2, 1), (131, 2, 2, 1), (53, 5, 4, 1), (53, 5, 5, 1),
    (127, 4, 3, 1), (127, 4, 3, 2), (131, 4, 3, 1),
)
# q of the (q, 2, 2, s) shapes the route grid adds to them, every radius
ROUTE_GRID_Q = (2, 3, 4, 5, 8, 9, 16, 257)


def test_byte_limits_route_like_the_inline_rules():
    # the one picker routes every call as the rules written inline beside
    # the two routers it replaced did: the limits behind rankmetric._fits, the
    # sweep and far prices and the neighbourhood rule, for linear and
    # explicit codes, sizes on both sides of the key count, draws, caps on
    # both sides of |B_s| and neighbourhood caps on both sides of |C| * |B_s|
    def outcome(route, *args):
        try:
            return route(*args)
        except EnumerationCapExceeded:
            return "refused"

    def montecarlo_oracle(ctx, n, s, bv, size, linear, draws, cap, neighborhood_cap):
        if size * bv <= min(neighborhood_cap, cap):
            return "neighborhood"
        route, keyed = far_route_oracle(ctx, n, s, bv, size, draws, cap, linear)
        return "far-coset" if route == "coset" else route + ("-keyed" if keyed else "")

    shapes = BYTE_LIMIT_SHAPES + tuple((q, 2, 2, s) for q in ROUTE_GRID_Q for s in range(3))
    routes = {}
    for q, m, n, s in shapes:
        ctx = default_context(q, m)
        bv = _ball_size(q, m, n, s)
        keys = key_count_oracle(ctx, n, s)
        assert listdec._key_count(ctx, n, s) == keys, (q, m, n, s)
        sizes = {1, q, q**2, q**3, q**4} | ({keys - 1, keys, keys + 1} if keys else set())
        for linear in (False, True):
            for size in sorted(sizes - {0}):
                args = (ctx, n, s, bv, size, linear)
                sweep = sweep_route_oracle(*args)
                for cap in (bv - 1, bv, DEFAULT_ENUM_CAP, 10**16):
                    for neighborhood_cap in (0, listdec.DEFAULT_NEIGHBORHOOD_CAP):
                        assert listdec._route(*args, None, cap, neighborhood_cap) == sweep, (args, cap)
                        for draws in (0, 7, 300, 10**4):
                            mc = (*args, draws, cap, neighborhood_cap)
                            picked = outcome(listdec._route, *mc)
                            assert picked == outcome(montecarlo_oracle, *mc), mc
                            routes.setdefault((q, m, n, s), set()).update((sweep, picked))
    # every name the picker answers, and the refusal
    assert set().union(*routes.values()) == {
        "counters", "scatter", "fold", "coset",
        "neighborhood", "far-coset", "probe", "probe-keyed", "rank", "rank-keyed", "refused",
    }
    # each limit falls between the shapes on its two sides
    probes = {"probe", "probe-keyed"}
    assert probes & routes[127, 2, 2, 1] and not probes & routes[131, 2, 2, 1]
    assert [key_count_oracle(default_context(q, m), n, s) > 0 for q, m, n, s in BYTE_LIMIT_SHAPES[4:]] == [
        True, False, False,
    ]
    # a coset key is bytes while n digits sum within a byte, else a tuple
    for q, m, n, narrow in ((127, 2, 2, True), (131, 2, 2, False), (53, 5, 4, True), (53, 5, 5, False)):
        cosets = listdec._CosetKeys(sample_random_linear_code(default_context(q, m), n, 1, seed=q))
        assert isinstance(cosets.zero, bytes if narrow else tuple), (q, m, n)


@pytest.mark.parametrize("p, n", [(131, 2), (131, 3), (257, 2), (257, 3)])
def test_wide_coset_keys_sum_slot_by_slot_to_the_least_coset_vector(p, n):
    # past the byte slots a key is a tuple: ``summed`` reduces each slot of
    # a sum of entry keys mod p, and the key lies in the coset of the
    # vector and is its least member: zero on every digit that leads a
    # codeword, the leading digits found by prefix ranks of an oracle basis
    ctx = default_context(p, n)
    code = sample_random_linear_code(ctx, n, 1, seed=p + n)
    cosets = listdec._CosetKeys(code)
    assert not cosets.narrow
    width, radix, order = cosets.width, 1 << cosets.slot, ctx.order
    rng = random.Random(p * n)
    vectors = [[rng.randrange(order) for _ in range(n)] for _ in range(20)]
    tables = [sorted({v[j] for v in vectors}) for j in range(n)]
    keys = [dict(zip(table, row)) for table, row in zip(tables, cosets.entry_keys(tables))]
    parts = [[keys[j][x] for j, x in enumerate(v)] for v in vectors]
    got = list(cosets.summed(map(sum, parts)))
    direct = [tuple(sum(d) % p for d in zip(*(int_digits(k, radix, width)[::-1] for k in ks))) for ks in parts]
    assert got == direct
    basis = [int_digits(w, p, width)[::-1] for w in fp_basis_by_products(code)]
    assert rank_mod_p(basis, p) == len(basis)
    ranks = [rank_mod_p([row[:t] for row in basis], p) for t in range(width + 1)]
    leads = [t for t in range(width) if ranks[t + 1] > ranks[t]]
    for v, key in zip(vectors, got):
        index = sum(x * order ** (n - 1 - j) for j, x in enumerate(v))
        offset = [(a - b) % p for a, b in zip(key, int_digits(index, p, width)[::-1])]
        assert rank_mod_p([*basis, offset], p) == len(basis)
        assert [key[t] for t in leads] == [0] * len(leads)
        assert key == cosets.of_indices([index])[0]


def test_no_far_route_holds_more_than_cap_offsets(monkeypatch):
    # |B_1| = 106 in F_{2^4}^3: with a cap of 100 no route may build the
    # ball, and when the pairs to rank pass the cap too the run refuses
    ctx = default_context(2, 4)
    for code in (sample_random_code(ctx, 3, 4, 1), sample_random_linear_code(ctx, 3, 2, 2)):
        expected = max_list_size(code, 1, "montecarlo", centers=20, seed=5, neighborhood_cap=0)
        with monkeypatch.context() as patched:
            patched.setattr(rankmetric, "_ball_layout", _raise)
            rankmetric._ball.cache_clear()
            # 4 codewords * at most 24 candidates <= 100
            assert max_list_size(code, 1, "montecarlo", centers=20, seed=5, cap=100) == expected
            with pytest.raises(EnumerationCapExceeded, match="Monte Carlo .* cap of 100"):
                max_list_size(code, 1, "montecarlo", centers=40, seed=5, cap=100)


def twin_codes():
    """Linear and Gabidulin codes over q = 2, 3, 4, 5 at several shapes."""
    for q, m, n, k, seed in (
        (2, 3, 2, 2, 0), (2, 4, 3, 3, 1), (2, 3, 3, 5, 2), (3, 2, 2, 2, 3), (3, 3, 2, 1, 0),
        (4, 2, 2, 2, 8), (4, 2, 2, 1, 1), (5, 2, 2, 1, 2),
    ):
        yield f"linear-q{q}m{m}n{n}k{k}", sample_random_linear_code(default_context(q, m), n, k, seed)
    for q, m, n, k in ((2, 3, 3, 1), (2, 4, 2, 1), (3, 2, 2, 1), (4, 2, 2, 1), (5, 2, 1, 1)):
        yield f"gabidulin-q{q}m{m}n{n}k{k}", gabidulin(default_context(q, m), n, k)


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 4, 2), (2, 5, 4, 2), (3, 3, 3, 1), (2, 4, 3, 1), (2, 3, 3, 1)])
def test_gabidulin_codes_decode_uniquely_within_half_their_distance(q, m, n, k, monkeypatch):
    # d = n - k + 1, so for s <= (n - k) / 2 no ball holds two codewords,
    # and the first center in scan order with a codeword is 0, a codeword
    code = gabidulin(default_context(q, m), n, k)
    seam = Seam(monkeypatch)
    radii = range((n - k) // 2 + 1)
    for route in LINEAR_ROUTES:
        seam.route = route
        for s in radii:
            report = max_list_size(code, s)
            assert (report.l_max, vector_index(report.argmax_center)) == (1, 0), (route, s)
    assert seam.names == [route for route in LINEAR_ROUTES for _ in radii]


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

    message = "a linear sweep enumerated codewords or scattered them"

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for module, name in ((codes, "_packed_words"), (listdec, "_packed_words")):
        monkeypatch.setattr(module, name, forbidden)
    forbid_the_scatter(monkeypatch, message)
    for name, code in twin_codes():
        for s in range(code.n + 1):
            assert max_list_size(code, s, workers=4).as_dict() == expected[name, s]


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
        assert cosets.index(cosets.of_indices([x])[0]) == min(coset)
    # the radius-1 ball is the whole space, so every coset is maximal
    assert max_list_size(code, 1).as_dict()["l_max"] == 257
    twin = ExplicitCode(ctx, 1, tuple(enumerate_codewords(code)))
    assert max_list_size(code, 0) == max_list_size(twin, 0)
    mc = {"centers": 20, "seed": 4, "neighborhood_cap": 0}
    for s in (0, 1):
        assert max_list_size(code, s, "montecarlo", **mc) == max_list_size(twin, s, "montecarlo", **mc)


def test_coset_keys_are_least_coset_indices():
    # characteristic 2 (XORed window tables) and odd q (the digit
    # reduction, keys in byte slots), linear and Gabidulin codes
    codes = []
    for q, m, n in ((2, 4, 3), (4, 3, 2), (8, 2, 2), (3, 3, 2), (5, 2, 2), (9, 2, 2)):
        ctx = default_context(q, m)
        codes += [sample_random_linear_code(ctx, n, k, seed=k) for k in (0, 1, n)]
        codes += [gabidulin(ctx, n, k) for k in range(1, n + 1)]
    # nine pivots in twelve bits: the rows span two eight-bit windows
    wide = sample_random_linear_code(default_context(2, 4), 3, 9, seed=2)
    assert len(listdec._CosetKeys(wide).tables) >= 2
    for code in codes + [wide]:
        ctx, n = code.ctx, code.n
        space = ctx.order**n
        words = list(enumerate_codewords(code))
        least = {}
        for x in range(space):
            if x not in least:
                v = vector_from_index(ctx, n, x)
                coset = [vector_index(v + w) for w in words]
                least.update(dict.fromkeys(coset, min(coset)))
        cosets = listdec._CosetKeys(code)
        keys = cosets.of_indices(range(space))
        assert [cosets.index(key) for key in keys] == [least[x] for x in range(space)]
        assert {type(key) for key in keys} == {int if ctx.base.p == 2 else bytes}
        zero = RankVector.zero(ctx, n)
        for s in range(n + 1):
            offsets = [vector_index(b) for b in enumerate_ball(zero, s)]
            assert list(coset_tally(cosets, s).items()) == list(Counter(cosets.of_indices(offsets)).items())


def test_coset_window_tables_match_the_per_entry_oracle():
    # the tables doubled bit by bit equal the entry-by-entry XOR of pivot
    # rows for q = 2, 4 and 8, linear and Gabidulin codes, up to 16 rows
    # over 36 bits
    codes = []
    for q, m, n, ks in ((2, 4, 3, (1, 5, 9, 12)), (2, 6, 3, (4, 10, 17)), (2, 6, 6, (16,)),
                        (4, 3, 2, (1, 3)), (8, 2, 2, (1, 2))):
        ctx = default_context(q, m)
        codes += [sample_random_linear_code(ctx, n, k, seed=k) for k in ks]
        codes += [gabidulin(ctx, n, k) for k in range(1, n + 1)]
    # pivots at bits 11, 4 and 0: the window of bit 0 spans bits 0 to 7,
    # over the pivot at bit 4 of the window above, whose row it must not use
    ctx = default_context(2, 4)
    overlap = LinearCode(ctx, 3, tuple(vector_from_index(ctx, 3, 1 << b) for b in (11, 4, 0)))
    assert [low for low, _ in xor_window_tables(overlap)] == [4, 0]
    windows = []
    for code in codes + [overlap]:
        tables = listdec._CosetKeys(code).tables
        assert tables == xor_window_tables(code)
        windows.append(len(tables))
    assert max(windows) >= 3


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
    tally = listdec._tally(ctx, n, s, _packed_words(code, 2**24))
    assert len(tally) == centers
    assert sum(tally.values()) == size * ball_volume(q, m, n, s).exact
    text = "\n".join(f"{key}:{count}" for key, count in tally.items())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
