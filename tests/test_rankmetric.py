"""Rank computations, shell counts, ball volumes, and enumerations.

Ranks are checked against a minor-enumeration oracle (largest u with a
nonsingular u-by-u submatrix, determinants by permutation expansion) and
shell counts against full histograms of enumerated matrices.
"""

import copy
import hashlib
import itertools
import math
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_matrices,
    ball_by_tables,
    full_rank_factors_by_filter,
    minor_rank,
    rank_mod_p,
    span_rank,
    span_tables_by_rref,
    xor_rank,
)
from ranklab import listdec, rankmetric
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import ExtCtx, FieldCtx, default_context
from ranklab.rankmetric import (
    RankVector,
    _ball_chunks,
    _factor_columns,
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


def test_vector_arithmetic_with_a_non_vector_is_a_type_error():
    ctx = default_context(2, 3)
    v = RankVector(ctx, (1, 2))
    for other in (5, (1, 2), None):
        for op in (lambda: v + other, lambda: v - other, lambda: other + v, lambda: other - v):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(TypeError):
            rank_distance(v, other)
        with pytest.raises(TypeError):
            rank_distance(other, v)
    with pytest.raises(ValueError):
        rank_distance(v, RankVector(default_context(3, 2), (1, 2)))


def test_rank_vector_is_frozen_and_has_no_dict():
    ctx = default_context(2, 3)
    v = RankVector(ctx, (1, 5))
    for name in ("ctx", "entries", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, (0, 0))
        with pytest.raises(FrozenInstanceError):
            delattr(v, name)
    assert v.ctx is ctx and v.entries == (1, 5)
    assert not hasattr(v, "__dict__")


def test_rank_vector_pickles_and_copies_through_the_checked_constructor():
    for q, m, entries in ((2, 3, (1, 5)), (3, 2, (4, 7))):
        ctx = default_context(q, m)
        v = RankVector(ctx, entries)
        for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(w) is RankVector and w == v and hash(w) == hash(v)
        # an unpickled vector is validated again
        with pytest.raises(ValueError):
            pickle.loads(pickle.dumps(rankmetric._trusted_batch(ctx, [(0, ctx.order)])[0]))


def test_rank_vector_has_the_frozen_dataclass_value_semantics():
    # repr strings frozen from the dataclass RankVector
    assert repr(RankVector(default_context(2, 3), (1, 5))) == (
        "RankVector(ctx=ExtCtx('2/3:1,1,0,1'), entries=(1, 5))"
    )
    assert repr(RankVector(default_context(3, 2), (4, 7))) == (
        "RankVector(ctx=ExtCtx('3/2:1,0,1'), entries=(4, 7))"
    )
    ctx = default_context(3, 2)
    v = RankVector(ctx, (4, 7))
    assert hash(v) == hash((v.ctx, v.entries))
    assert v == RankVector(ctx, [4, 7]) and v != RankVector(ctx, (4, 8))
    assert v != (v.ctx, v.entries) and (v.ctx, v.entries) != v
    with pytest.raises(TypeError):
        v < v


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


def test_matrix_to_vector_rejects_ragged_rows():
    # the column count comes from the first row, so a longer row must be refused
    ctx = default_context(2, 3)
    with pytest.raises(ValueError, match="unequal lengths"):
        matrix_to_vector(((1, 0), (1, 1, 1), (0, 1)), ctx)
    with pytest.raises(ValueError):
        matrix_to_vector(((1, 0), (1, 2), (0, 1)), ctx)  # 2 is not in F_2


def test_a_bad_matrix_raises_the_message_of_its_first_fault():
    # rows are checked in order, each row's length before its entries
    cases = [
        (2, ((1, 0), (1, 1, 1)), "matrix rows have unequal lengths"),
        (2, ((1, 0.0), (0, 1)), "not an F_2 element code: 0.0"),
        (3, ((1, 2), (-1, 0)), "not an F_3 element code: -1"),
        (3, ((1, 3), (0, 1)), "not an F_3 element code: 3"),
        (4, ((3, 1), (4, 0)), "not an F_4 element code: 4"),
        (3, ((0, 5), (1, 1, 1)), "not an F_3 element code: 5"),
        (3, ((1, 1, 1), (0, 5)), "matrix rows have unequal lengths"),
        (2, ((1, "1"), (0, 1)), "not an F_2 element code: '1'"),
    ]
    for q, rows, message in cases:
        field = default_context(q, 2).base
        for check in (rank_fq, rref_fq, lambda rows, f: matrix_to_vector(rows, default_context(q, 2))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(rows, field)
    # good matrices pass, bools among them, as they pass check_element
    assert rank_fq(((True, 0), (0, 1)), default_context(2, 2).base) == 2
    assert rank_fq(((3, 0), (1, 3)), default_context(4, 2).base) == 2
    assert rank_fq([], default_context(3, 2).base) == 0


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
    with pytest.raises(ValueError):
        rref_fq(((1, 0), (1,)), FieldCtx(2))
    # both refuse ragged rows and entries outside F_q
    f2 = FieldCtx(2)
    bad = [
        (((1,), (1, 0)), f2),
        (((2, 0), (0, 3)), f2),
        (((5, 1), (1, 1)), f3),
        (((1, -1), (0, 1)), f3),
        (((1, 4), (0, 1)), FieldCtx(2, 2)),
    ]
    for rows, field in bad:
        with pytest.raises(ValueError):
            rank_fq(rows, field)
        with pytest.raises(ValueError):
            rref_fq(rows, field)


def test_internal_eliminations_skip_the_input_check(monkeypatch):
    from ranklab.codes import LinearCode, sample_random_linear_code

    def refuse(rows, field):
        raise AssertionError("an internal caller validated its matrix")

    monkeypatch.setattr(rankmetric, "_check_matrix", refuse)
    for q, m in ((2, 3), (3, 2), (4, 2)):
        ctx = default_context(q, m)
        code = sample_random_linear_code(ctx, 2, 2, seed=1)
        assert LinearCode(ctx, 2, code.basis).k == 2
        assert rank_of_vector(RankVector(ctx, (1, 0))) == 1
    with pytest.raises(AssertionError, match="validated"):
        rank_fq(((1, 0), (0, 1)), FieldCtx(2))


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
    f2, f3, f4, f5 = FieldCtx(2), FieldCtx(3), FieldCtx(2, 2), FieldCtx(5)
    cases = (
        (f2, (3, 3)), (f2, (4, 2)), (f3, (2, 3)), (f3, (3, 2)),
        (f4, (2, 2)), (f4, (3, 2)), (f5, (2, 2)), (f5, (3, 1)),
    )
    for field, shape in cases:
        for M in all_matrices(field.q, *shape):
            R, pivots = rref_fq(M, field)
            assert len(R) == rank_fq(M, field) == len(pivots)
            if field.s == 1:
                assert len(R) == minor_rank(M, field.q)
            assert list(pivots) == sorted(pivots)
            for i, pc in enumerate(pivots):
                assert R[i][pc] == 1
                for r in range(len(R)):
                    if r != i:
                        assert R[r][pc] == 0
                # nothing nonzero left of the pivot
                assert all(R[i][j] == 0 for j in range(pc))
            # R spans the row space: every input row reduces to zero
            for row in M:
                for pc, pivot_row in zip(pivots, R):
                    c = row[pc]
                    row = [field.sub(a, field.mul(c, b)) for a, b in zip(row, pivot_row)]
                assert not any(row)
            if R:
                again, again_p = rref_fq(R, field)
                assert again == R and again_p == pivots


def test_rank_of_vector_agrees_with_matrix_rank():
    # rank_of_vector and rank_fq share their elimination, so each is held
    # to an oracle outside the package: xor_rank of the entry codes (the
    # coordinate columns) for q = 2, rank_mod_p over a prime field, and
    # the size of the F_q-span of the entries for q = 4.
    # (3, 3) with n = 2: odd q with a non-square coordinate matrix
    spaces = (
        (default_context(2, 3), 2), (default_context(2, 4), 3), (default_context(3, 2), 2),
        (default_context(3, 3), 2), (default_context(5, 2), 2), (default_context(4, 2), 2),
        (default_context(4, 3), 2),
    )
    for ctx, n in spaces:
        q = ctx.base.q
        for v in iter_all_vectors(ctx, n):
            if q == 2:
                expected = xor_rank(list(v.entries))
            elif ctx.base.s == 1:
                expected = rank_mod_p(vector_to_matrix(v), q)
            else:
                expected = span_rank(ctx, v.entries)
            assert rank_of_vector(v) == rank_fq(vector_to_matrix(v), ctx.base) == expected


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
    # 2^(r(m+n-r)) / K_2 passes the largest double from r = 31 on at
    # m = n = 32: the float fields go null, the exact strings stay
    assert ball_volume(2, 32, 32, 30).as_dict()["upper_hi_float"] > 1e307
    for r in (31, 32):
        v = ball_volume(2, 32, 32, r)
        d = v.as_dict()
        assert d["upper_lo_float"] is None and d["upper_hi_float"] is None
        assert d["upper_lo"] == str(v.upper_lo) and d["upper_hi"] == str(v.upper_hi)
        assert d["exact"] == str(v.exact) and d["lower"] == str(2 ** (r * (64 - r)))


def test_ball_volume_errors():
    with pytest.raises(ValueError):
        ball_volume(2, 2, 2, 3)
    with pytest.raises(ValueError):
        ball_volume(2, 2, 3, 1)


def test_internal_ball_sizes_skip_the_kq_enclosure(monkeypatch):
    # the pigeonhole floor, the Monte Carlo ball size, the coset check and
    # the Hamming bound read only |B_s|, so none of them builds K_q
    from ranklab.bounds import hamming_check
    from ranklab.codes import sample_random_code, sample_random_linear_code
    from ranklab.harness import coset_partition_check
    from ranklab.listdec import max_list_size, pigeonhole_lower_bound

    linear = sample_random_linear_code(default_context(3, 2), 2, 2, seed=1)
    explicit = sample_random_code(default_context(2, 5), 3, 30, seed=2)

    def runs():
        return [
            pigeonhole_lower_bound(7, 3, 4, 4, 1),
            max_list_size(linear, 1),
            max_list_size(linear, 1, "montecarlo", centers=30, neighborhood_cap=0),
            max_list_size(explicit, 1, "montecarlo", centers=30, neighborhood_cap=0),
            coset_partition_check(linear, 1),
            hamming_check(8, 2, 3, 3, 3),
        ]

    shapes = [(q, m, n, r) for q, m, n in ((2, 3, 2), (3, 3, 3), (4, 2, 2)) for r in range(n + 1)]
    expected = runs(), [ball_volume(*shape).exact for shape in shapes]

    def forbidden(*args, **kwargs):
        raise AssertionError("a ball size built the K_q enclosure")

    monkeypatch.setattr(rankmetric, "kq_constant", forbidden)
    assert (runs(), [rankmetric._ball_size(*shape) for shape in shapes]) == expected
    with pytest.raises(AssertionError, match="K_q"):
        ball_volume(2, 3, 2, 1)


def test_ball_sizes_reject_what_ball_volume_rejects():
    for args, message in (
        ((2, 2, 2, 3), "need 0 <= r <= n, got r = 3"),
        ((2, 2, 3, 1), "need 1 <= n <= m, got n = 3, m = 2"),
        ((6, 2, 2, 1), None),
    ):
        with pytest.raises(ValueError) as volume:
            ball_volume(*args)
        with pytest.raises(ValueError) as size:
            rankmetric._ball_size(*args)
        assert str(size.value) == str(volume.value)
        assert message is None or str(size.value) == message


def chunk_entries(values, getters):
    """The offsets of one ``_ball_chunks`` chunk as entry tuples, each
    entry read off the span values themselves (a zero center)."""
    return list(zip(*(get(values) for get in getters)))


def ball_entries(ctx, n, r):
    return [entries for chunk in _ball_chunks(ctx, n, r) for entries in chunk_entries(*chunk)]


def test_rank_u_matrix_iterator_is_exact():
    # (4, 2, 2) has a non-prime base field, (2, 4, 3) a shell of 3 x 3 factors
    for q, m, n in ((2, 3, 2), (3, 2, 2), (4, 2, 2), (2, 4, 3)):
        ctx = default_context(q, m)
        zero = (0,) * n
        for u in range(n + 1):
            # the rank-u shell follows the ball of radius u - 1
            out = ball_entries(ctx, n, u)[len(ball_entries(ctx, n, u - 1)) if u else 0 :]
            assert out == ball_by_tables(ctx, zero, u)[-len(out) :]
            assert len(out) == count_rank_u(q, m, n, u)
            assert len(set(out)) == len(out)
            for entries in out:
                assert rank_fq(vector_to_matrix(RankVector(ctx, entries)), ctx.base) == u


def test_ball_chunks_are_bounded_runs_of_one_shell():
    # q2m6n3 and q3m4n3 at r = 2 have shells cut into many chunks, each
    # with a shorter last one; q2m1n1 has a one-offset rank-1 shell
    for q, m, n, r in ((2, 1, 1, 1), (2, 4, 3, 2), (3, 2, 2, 2), (4, 2, 2, 1), (2, 6, 3, 2), (3, 4, 3, 2)):
        ctx = default_context(q, m)
        chunks = iter(_ball_chunks(ctx, n, r))
        spans = map(itemgetter(0), _iter_ball_tables(ctx, n, r))
        out, shells = [], []
        for u in range(r + 1):
            # a shell of T tables and F factors per table takes 512 // F
            # tables a chunk, at least one, and its last chunk the rest
            factors = math.prod(q**n - q**i for i in range(u))
            tables = math.prod(q**m - q**i for i in range(u)) // math.prod(q**u - q**i for i in range(u))
            per = max(1, 512 // factors)
            sizes = [per] * (tables // per) + [tables % per] * (tables % per > 0)
            shell = list(itertools.islice(chunks, len(sizes)))
            for size, (values, getters) in zip(sizes, shell):
                # each chunk reads its own span tables, in order, with one
                # getter per entry position; the one-offset read is a 1-list
                assert values == list(itertools.chain.from_iterable(itertools.islice(spans, size)))
                reads = [get(values) for get in getters]
                assert len(reads) == n and {len(read) for read in reads} == {size * factors}
                assert size * factors <= 512 or size == 1
                assert size * factors > 1 or {type(read) for read in reads} == {list}
                out += zip(*reads)
            # the full chunks of a shell share one getter list, and a shorter
            # last chunk has its own
            lists = [getters for size, (_, getters) in zip(sizes, shell) if size == per]
            assert all(getters is lists[0] for getters in lists)
            shells += lists[:1] + [getters for size, (_, getters) in zip(sizes, shell) if size < per]
        assert next(chunks, None) is next(spans, None) is None
        assert out == ball_by_tables(ctx, (0,) * n, r), (q, m, n, r)
        assert len({id(getters) for getters in shells}) == len(shells)


def test_enumerate_ball_reads_the_tables_in_order():
    # every radius, for q = 2, 3, 4, 5, 9, balls whose shells span several
    # chunks included; at q2m3n1 every column of the rank-1 shell has one entry
    rng = random.Random(5)
    shapes = ((2, 3, 1), (2, 4, 3), (2, 6, 3), (3, 3, 3), (3, 4, 3), (4, 3, 2), (5, 2, 2), (9, 2, 2))
    for q, m, n in shapes:
        ctx = default_context(q, m)
        for r in range(n + 1):
            center = tuple(rng.randrange(ctx.order) for _ in range(n))
            got = [v.entries for v in enumerate_ball(RankVector(ctx, center), r)]
            assert got == ball_by_tables(ctx, center, r), (q, m, n, r, center)


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


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_enumerate_ball_is_the_filtered_space(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5, 9)))
    m = data.draw(st.sampled_from([m for m in range(1, 13) if q**m <= 2**12]))
    n = data.draw(st.sampled_from([n for n in range(1, m + 1) if q ** (m * n) <= 2**12]))
    r = data.draw(st.integers(0, n))
    ctx = default_context(q, m)
    center = RankVector(ctx, data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n)))
    got = [v.entries for v in enumerate_ball(center, r)]
    assert len(got) == len(set(got)) == ball_volume(q, m, n, r).exact
    assert set(got) == {v.entries for v in iter_all_vectors(ctx, n) if rank_distance(v, center) <= r}


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
                got = _factor_columns(field, u, n)
                assert got == tuple(zip(*full_rank_factors_by_filter(field, u, n))), (q, n, u)
                assert len(got) == n
                assert len(got[0]) == math.prod(q**n - q**i for i in range(u))


def test_ball_tables_match_the_rref_oracle_in_order():
    # the Monte Carlo neighborhood tie rule reads this order
    checked = 0
    for q in (2, 3, 4, 5, 9):
        field = default_context(q, 1).base
        columns = {}
        for m in range(1, 5):
            ctx = default_context(q, m)
            spans = {}
            for n in range(1, m + 1):
                for r in range(n + 1):
                    if q ** (r * m) > 2**16:
                        break
                    expected = []
                    for u in range(r + 1):
                        if u not in spans:
                            spans[u] = span_tables_by_rref(ctx, u)
                        if (n, u) not in columns:
                            columns[n, u] = tuple(zip(*full_rank_factors_by_filter(field, u, n)))
                        expected += [(span, columns[n, u]) for span in spans[u]]
                    assert list(_iter_ball_tables(ctx, n, r)) == expected, (q, m, n, r)
                    checked += 1
    assert checked == 127


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
    # enumerate_ball reads the ball memo: a memoized real ball would hide
    # the patch, and the patched ball must not outlive the test
    listdec._ball.cache_clear()
    try:
        for q, m in ((2, 3), (3, 2)):
            ctx = default_context(q, m)

            def tables(ctx_, n, r, order=ctx.order):
                # a valid zero shell, then a shell of one table whose second
                # value is out of range; no factor reads that value, yet it
                # must still be refused
                yield [0], ((0,), (0,))
                yield [0, order], ((0, 0), (0, 0))

            monkeypatch.setattr(rankmetric, "_iter_ball_tables", tables)
            ball = enumerate_ball(RankVector(ctx, (1, 0)), 1)
            assert next(ball).entries == (1, 0)
            with pytest.raises(ValueError):
                next(ball)
    finally:
        listdec._ball.cache_clear()


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
