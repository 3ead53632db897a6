"""Rank computations, shell counts, ball volumes, and enumerations.

Ranks are checked against a minor-enumeration oracle (largest u with a
nonsingular u-by-u submatrix, determinants by permutation expansion) and
shell counts against full histograms of enumerated matrices.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import all_matrices, full_rank_factors_by_filter, minor_rank
from ranklab import rankmetric
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import ExtCtx, FieldCtx, default_context
from ranklab.rankmetric import (
    RankVector,
    _full_rank_factors,
    _iter_ball,
    _iter_ball_tables,
    _shifter,
    ball_volume,
    count_rank_u,
    enumerate_ball,
    flatten_vector,
    iter_all_vectors,
    kq_constant,
    matrix_to_vector,
    rank_distance,
    rank_fq,
    rank_of_vector,
    rref_fq,
    unflatten_vector,
    vector_from_index,
    vector_index,
    vector_to_matrix,
)


def test_rank_vector_validation():
    ctx = default_context(2, 3)
    with pytest.raises(ValueError):
        RankVector(ctx, ())  # n = 0
    with pytest.raises(ValueError):
        RankVector(ctx, (0, 0, 0, 0))  # n > m
    with pytest.raises(ValueError):
        RankVector(ctx, (0, 8))  # entry code out of range
    v = RankVector(ctx, [1, 2])  # lists are frozen to tuples
    assert v.entries == (1, 2)
    assert v.n == 2


def test_vector_addition_and_mismatch():
    ctx = default_context(2, 3)
    a = RankVector(ctx, (1, 2))
    b = RankVector(ctx, (3, 4))
    assert (a + b).entries == (ctx.add(1, 3), ctx.add(2, 4))
    assert (a - a).entries == (0, 0)
    with pytest.raises(ValueError):
        a + RankVector(ctx, (1, 2, 3))
    with pytest.raises(ValueError):
        a + RankVector(default_context(3, 2), (1, 2))


def test_coordinate_matrix_frozen_example():
    # in F_4 = F_2[x]/(x^2+x+1), the vector (x, 1) has coordinate columns
    # (0,1) and (1,0); its matrix is a permutation matrix of rank 2
    ctx = default_context(2, 2)
    v = RankVector(ctx, (2, 1))
    assert vector_to_matrix(v) == ((0, 1), (1, 0))
    assert rank_of_vector(v) == 2


def test_matrix_vector_round_trip():
    for ctx, n in ((default_context(2, 3), 2), (default_context(3, 2), 2)):
        for v in iter_all_vectors(ctx, n):
            M = vector_to_matrix(v)
            assert len(M) == ctx.m and len(M[0]) == n
            assert matrix_to_vector(M, ctx) == v
            flat = flatten_vector(v)
            assert len(flat) == ctx.m * n
            assert unflatten_vector(ctx, n, flat) == v


def test_vector_index_bijection_and_order():
    ctx = default_context(2, 2)
    seen = []
    for i, v in enumerate(iter_all_vectors(ctx, 2)):
        assert vector_index(v) == i
        assert vector_from_index(ctx, 2, i) == v
        seen.append(v.entries)
    assert len(seen) == 16
    # entry 0 is the most significant digit of the index
    assert vector_index(RankVector(ctx, (1, 0))) == ctx.order
    with pytest.raises(ValueError):
        vector_from_index(ctx, 2, 16)
    with pytest.raises(ValueError):
        vector_from_index(ctx, 2, -1)


def test_rank_matches_minor_oracle_exhaustive():
    f2, f3 = FieldCtx(2), FieldCtx(3)
    for M in all_matrices(2, 3, 3):
        assert rank_fq(M, f2) == minor_rank(M, 2)
    for M in all_matrices(2, 2, 3):  # wide matrices work too
        assert rank_fq(M, f2) == minor_rank(M, 2)
    for M in all_matrices(3, 3, 2):
        assert rank_fq(M, f3) == minor_rank(M, 3)


def test_rank_frozen_examples():
    f3 = FieldCtx(3)
    # second column is twice the first, so the rank drops to 1
    assert rank_fq(((1, 2), (2, 1), (0, 0)), f3) == 1
    assert rank_fq(((1, 2), (2, 2), (0, 0)), f3) == 2
    assert rank_fq(((1, 0, 0), (0, 1, 0), (0, 0, 1)), FieldCtx(2)) == 3
    assert rank_fq(((0, 0), (0, 0)), FieldCtx(2)) == 0
    with pytest.raises(ValueError):
        rank_fq(((1, 0), (1,)), FieldCtx(2))


def test_rank_over_extension_base_field():
    # 2x2 case over F_4, checked against the ad - bc determinant
    f4 = FieldCtx(2, 2)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        M = ((a, b), (c, d))
        det = f4.sub(f4.mul(a, d), f4.mul(b, c))
        if M == ((0, 0), (0, 0)):
            expected = 0
        elif det != 0:
            expected = 2
        else:
            expected = 1
        assert rank_fq(M, f4) == expected


def test_rref_properties():
    f2, f3 = FieldCtx(2), FieldCtx(3)
    for field, shape in ((f2, (3, 3)), (f3, (2, 3))):
        rows_iter = all_matrices(field.q, *shape)
        for M in rows_iter:
            R, pivots = rref_fq(M, field)
            assert len(R) == rank_fq(M, field) == len(pivots)
            assert list(pivots) == sorted(pivots)
            for i, pc in enumerate(pivots):
                assert R[i][pc] == 1
                for r in range(len(R)):
                    if r != i:
                        assert R[r][pc] == 0
                # nothing nonzero left of the pivot
                assert all(R[i][j] == 0 for j in range(pc))
            if R:
                again, again_p = rref_fq(R, field)
                assert again == R and again_p == pivots


def test_rank_of_vector_agrees_with_matrix_rank():
    # (3, 3) with n = 2: odd q with a non-square coordinate matrix
    for ctx, n in ((default_context(2, 3), 2), (default_context(3, 2), 2), (default_context(3, 3), 2)):
        for v in iter_all_vectors(ctx, n):
            assert rank_of_vector(v) == rank_fq(vector_to_matrix(v), ctx.base)


def test_rank_distance_is_a_metric():
    ctx = default_context(2, 2)
    vectors = list(iter_all_vectors(ctx, 2))
    for x, y in itertools.product(vectors, repeat=2):
        d = rank_distance(x, y)
        assert d == rank_distance(y, x)
        assert (d == 0) == (x == y)
    for x, y, z in itertools.product(vectors[:8], vectors[:8], vectors):
        assert rank_distance(x, z) <= rank_distance(x, y) + rank_distance(y, z)
    # translation invariance
    for t in vectors[:4]:
        for x, y in itertools.product(vectors[:6], repeat=2):
            assert rank_distance(x + t, y + t) == rank_distance(x, y)


def test_shell_counts_match_enumeration():
    for q, m, n in ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2), (3, 3, 2)):
        hist = {}
        for M in all_matrices(q, m, n):
            u = minor_rank(M, q)
            hist[u] = hist.get(u, 0) + 1
        for u in range(n + 1):
            assert count_rank_u(q, m, n, u) == hist.get(u, 0)


def test_shell_counts_frozen_values():
    assert count_rank_u(2, 2, 2, 0) == 1
    assert count_rank_u(2, 2, 2, 1) == 9
    assert count_rank_u(2, 2, 2, 2) == 6
    assert count_rank_u(2, 3, 2, 1) == 21
    assert count_rank_u(2, 3, 2, 2) == 42
    assert count_rank_u(3, 2, 2, 1) == 32
    assert count_rank_u(3, 2, 2, 2) == 48


def test_shell_counts_sum_to_space():
    for q in (2, 3, 4, 5):
        for m in range(1, 5):
            for n in range(1, m + 1):
                total = sum(count_rank_u(q, m, n, u) for u in range(n + 1))
                assert total == q ** (m * n)


def test_shell_counts_large_square_histogram():
    # 4x4 binary matrices, full histogram via the (already oracle-checked)
    # elimination rank
    f2 = FieldCtx(2)
    hist = {}
    for M in all_matrices(2, 4, 4):
        u = rank_fq(M, f2)
        hist[u] = hist.get(u, 0) + 1
    for u in range(5):
        assert count_rank_u(2, 4, 4, u) == hist[u]


def test_shell_count_errors():
    with pytest.raises(ValueError):
        count_rank_u(2, 2, 3, 1)  # n > m
    with pytest.raises(ValueError):
        count_rank_u(2, 2, 2, 3)  # u > n
    with pytest.raises(ValueError):
        count_rank_u(2, 2, 2, -1)
    with pytest.raises(ValueError):
        count_rank_u(6, 2, 2, 1)  # not a prime power


def test_kq_interval_basics():
    kq = kq_constant(2)
    assert 0 < kq.lo < kq.hi
    assert kq.width <= Fraction(1, 10**9)
    assert Fraction(1, 4) < kq.lo  # certifies 1/K_2 < 4
    mid = (kq.lo + kq.hi) / 2
    assert mid in kq


def test_kq_leading_digits():
    kq = kq_constant(2)
    # both endpoints truncate to 0.2887, pinning the four leading digits
    assert (kq.lo * 10**4).__floor__() == 2887
    assert (kq.hi * 10**4).__floor__() == 2887


def test_kq_monotone_in_q():
    prev = kq_constant(2)
    for q in (3, 4, 5):
        cur = kq_constant(q)
        assert prev.hi < cur.lo
        prev = cur


def test_kq_tolerance_nesting():
    loose = kq_constant(2, Fraction(1, 10**6))
    tight = kq_constant(2, Fraction(1, 10**12))
    assert tight.width < loose.width
    assert loose.lo <= tight.lo and tight.hi <= loose.hi


def test_kq_errors():
    with pytest.raises(ValueError):
        kq_constant(1)
    with pytest.raises(ValueError):
        kq_constant(2, 0)
    with pytest.raises(ValueError):
        kq_constant(2, Fraction(-1, 10))


def test_ball_volume_matches_brute_force():
    for q, m, n in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
        ctx = default_context(q, m)
        for r in range(n + 1):
            brute = sum(1 for v in iter_all_vectors(ctx, n) if rank_of_vector(v) <= r)
            assert ball_volume(q, m, n, r).exact == brute


def test_ball_volume_endpoints():
    for q, m, n in ((2, 3, 2), (3, 3, 3)):
        zero_ball = ball_volume(q, m, n, 0)
        assert zero_ball.exact == 1 == zero_ball.lower
        assert not zero_ball.strict_ok  # lower bound is tight at r = 0
        full = ball_volume(q, m, n, n)
        assert full.exact == q ** (m * n) == full.lower
        assert not full.strict_ok  # and again at r = n
        assert full.sandwich_ok


def test_ball_volume_frozen_example():
    res = ball_volume(2, 2, 2, 1)
    assert res.exact == 10
    assert res.lower == 2 ** (1 * (2 + 2 - 1)) == 8
    assert 27 < res.upper_lo < res.upper_hi < 28
    assert res.strict_ok and res.sandwich_ok
    assert res.upper == res.upper_hi
    assert res.truncated


def test_ball_volume_strict_interior():
    for q, m, n in ((2, 3, 2), (2, 4, 3), (3, 3, 3)):
        for r in range(1, n):
            res = ball_volume(q, m, n, r)
            assert res.lower < res.exact < res.upper_lo


def test_ball_volume_as_dict():
    d = ball_volume(2, 2, 2, 1).as_dict()
    assert d["exact"] == "10"
    assert d["lower"] == "8"
    assert d["strict_ok"] is True
    assert 27.0 < d["upper_lo_float"] < d["upper_hi_float"] < 28.0


def test_ball_volume_errors():
    with pytest.raises(ValueError):
        ball_volume(2, 2, 2, 3)
    with pytest.raises(ValueError):
        ball_volume(2, 2, 3, 1)


def test_rank_u_matrix_iterator_is_exact():
    # (4, 2, 2) has a non-prime base field, (2, 4, 3) a shell of 3 x 3 factors
    for q, m, n in ((2, 3, 2), (3, 2, 2), (4, 2, 2), (2, 4, 3)):
        ctx = default_context(q, m)
        zero = (0,) * n
        for u in range(n + 1):
            # the rank-u shell is spanned by the u-dimensional column spaces
            shell = [t for t in _iter_ball_tables(ctx, n, u) if len(t[0]) == q**u]
            out = list(_iter_ball(ctx, zero, shell))
            assert len(out) == count_rank_u(q, m, n, u)
            assert len(set(out)) == len(out)
            for entries in out:
                assert rank_fq(vector_to_matrix(RankVector(ctx, entries)), ctx.base) == u


def test_enumerate_ball_filter_path():
    ctx = default_context(2, 3)
    vectors = list(iter_all_vectors(ctx, 2))
    for center in (RankVector.zero(ctx, 2), RankVector(ctx, (3, 5))):
        for r in range(3):
            expected = {v.entries for v in vectors if rank_distance(v, center) <= r}
            got = [v.entries for v in enumerate_ball(center, r)]
            assert len(got) == len(set(got))
            assert set(got) == expected
            assert len(got) == ball_volume(2, 3, 2, r).exact


def test_enumerate_ball_radius_zero():
    ctx = default_context(3, 2)
    center = RankVector(ctx, (4, 7))
    assert [v.entries for v in enumerate_ball(center, 0)] == [(4, 7)]


def test_enumerate_ball_shell_path():
    # 2^20 vectors, of which the ball holds 466: every one is checked
    ctx = default_context(2, 5)
    center = RankVector(ctx, (1, 2, 3, 4))
    out = list(enumerate_ball(center, 1))
    expected = ball_volume(2, 5, 4, 1).exact
    assert len(out) == expected == 466
    assert len({v.entries for v in out}) == expected
    for v in out:
        assert rank_distance(v, center) <= 1
    assert any(v.entries == center.entries for v in out)


def test_enumerate_ball_cap_refusal():
    ctx = default_context(2, 5)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_ball(RankVector.zero(ctx, 5), 1, cap=1000))


def test_enumerate_ball_bad_radius():
    ctx = default_context(2, 3)
    with pytest.raises(ValueError):
        list(enumerate_ball(RankVector.zero(ctx, 2), 3))


def test_full_rank_factors_match_the_rank_filter():
    # row by row, skipping the span so far, is the filtered product order
    for q in (2, 3, 4, 5, 9):
        field = default_context(q, 1).base
        for n in range(1, 4):
            for u in range(n + 1):
                if q ** (u * n) > 2 * 10**5:
                    continue
                got = _full_rank_factors(field, u, n)
                assert got == full_rank_factors_by_filter(field, u, n), (q, n, u)
                assert len(got) == math.prod(q**n - q**i for i in range(u))


def test_ball_tables_rank_no_candidate(monkeypatch):
    def refuse(rows, field):
        raise AssertionError("rank_fq called while building ball tables")

    monkeypatch.setattr(rankmetric, "rank_fq", refuse)
    for q, m, n in ((2, 4, 3), (3, 3, 3), (4, 2, 2), (9, 2, 2)):
        ctx = default_context(q, m)
        tables = list(_iter_ball_tables(ctx, n, n))
        assert sum(len(columns[0]) for _, columns in tables) == ball_volume(q, m, n, n).exact
        center = RankVector(ctx, tuple(range(1, n + 1)))
        assert sum(1 for _ in enumerate_ball(center, 1)) == ball_volume(q, m, n, 1).exact


def test_shifter_adds_like_the_field():
    # F_{9^2} is a tower: its base field F_9 is itself an extension of F_3
    for q, m in ((3, 3), (5, 2), (9, 2), (2, 5)):
        ctx = default_context(q, m)
        values = list(ctx.elements()) * 2
        random.Random(q * m).shuffle(values)
        before = list(values)
        shift = _shifter(ctx.base.p, values)
        for e in ctx.elements():
            assert shift(e) == [ctx.add(e, x) for x in before], (q, m, e)
        assert values == before


def test_enumerate_ball_checks_every_shifted_span_table(monkeypatch):
    for q, m in ((2, 3), (3, 2)):
        ctx = default_context(q, m)

        def tables(ctx_, n, r, order=ctx.order):
            # a valid zero table, then one whose second value is out of range;
            # no factor reads that value, yet it must still be refused
            yield [0], ((0,), (0,))
            yield [0, order], ((0,), (0,))

        monkeypatch.setattr(rankmetric, "_iter_ball_tables", tables)
        ball = enumerate_ball(RankVector(ctx, (1, 0)), 1)
        assert next(ball).entries == (1, 0)
        with pytest.raises(ValueError):
            next(ball)


def test_enumerate_ball_yields_plain_rank_vectors():
    for q, m, n, r in ((2, 4, 3, 2), (3, 3, 2, 2), (4, 2, 2, 1)):
        ctx = default_context(q, m)
        center = RankVector(ctx, tuple(range(2, 2 + n)))
        for v in enumerate_ball(center, r):
            assert type(v) is RankVector and type(v.entries) is tuple
            w = RankVector(ctx, v.entries)
            assert v == w and hash(v) == hash(w)


def test_iter_all_vectors_yields_plain_rank_vectors():
    ctx = default_context(3, 2)
    out = list(iter_all_vectors(ctx, 2))
    assert [v.entries for v in out] == list(itertools.product(range(9), repeat=2))
    for v in out[::7]:
        assert v == RankVector(ctx, v.entries) and hash(v) == hash(RankVector(ctx, v.entries))
    for n in (0, 3):
        with pytest.raises(ValueError):
            next(iter_all_vectors(ctx, n))


@pytest.mark.parametrize(
    "q, m, n, r, center, size, digest",
    [
        (2, 4, 3, 2, (3, 9, 1), 1576, "e874d3854d9b64b1e2279add0275df68b921cbe4ada018a5f4a5817187d560a9"),
        (2, 3, 3, 3, (0, 0, 0), 512, "c480eb437d17d1f432c9e0e816fcfac4251ee53c3cbbc60f948aa08778972813"),
        (3, 3, 2, 2, (5, 17), 729, "741b104f32e818796a85aec96df0b50179dc609b5fdd58ac35b010fdb9c9e51c"),
        (3, 2, 2, 1, (0, 4), 33, "480939925a291ba91f6a429d82d0a8171d4c3124b8db31fcf74e32a2a7d54bee"),
        (4, 2, 2, 2, (7, 13), 256, "b43f20137c9364bda57cdc10c55009368ffa06d106a928826cd13d893b3d5486"),
        (4, 3, 2, 1, (0, 0), 316, "8e0ad3f35164f4e0ece599aaecb70ec61afdb7e8cfc7e0c302dc16f9b8ad7fc3"),
    ],
)
def test_enumerate_ball_order_is_frozen(q, m, n, r, center, size, digest):
    # sha256 of the entries, one vector per line, frozen from the
    # filter-based factor list
    out = [v.entries for v in enumerate_ball(RankVector(default_context(q, m), center), r)]
    assert len(out) == size
    text = "\n".join(",".join(map(str, entries)) for entries in out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
