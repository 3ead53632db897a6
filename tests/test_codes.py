"""Code objects, samplers, encoders, and exact minimum distances.

Codeword enumeration for linear codes is cross-checked against an
independent coordinate-level span: basis words are flattened to F_q
rows and combined with plain field arithmetic, never touching the
extension-entry scalar action the implementation uses.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from helpers import CHI2_DF15_ALPHA_001, codewords_by_kind, fp_basis_by_products
from ranklab import codes, fields
from ranklab.codes import (
    ExplicitCode,
    GabidulinCode,
    LinearCode,
    _fp_basis,
    _packed_words,
    enumerate_codewords,
    gabidulin,
    gabidulin_encode,
    min_rank_distance,
    sample_random_code,
    sample_random_linear_code,
)
from ranklab.errors import EnumerationCapExceeded
from ranklab.fields import context_from_descriptor, default_context
from ranklab.listdec import max_list_size
from ranklab.rankmetric import (
    RankVector,
    flatten_vector,
    rank_of_vector,
    unflatten_vector,
    vector_index,
)

CHI2_DF14_ALPHA_001 = 36.123


def span_by_coordinates(code: LinearCode) -> set:
    """All span vectors built from flattened F_q rows, as entry tuples."""
    ctx = code.ctx
    q = ctx.base.q
    rows = [flatten_vector(w) for w in code.basis]
    out = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        acc = [0] * (ctx.m * code.n)
        for c, row in zip(coeffs, rows):
            for j, v in enumerate(row):
                acc[j] = ctx.base.add(acc[j], ctx.base.mul(c, v))
        out.add(unflatten_vector(ctx, code.n, acc).entries)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_fp_basis_keeps_the_values_of_the_extension_products(q):
    # a linear code scales its basis words by the base scalars p^u alone;
    # the basis is word for word the one every scaling an extension
    # product gave, for linear and Gabidulin codes alike
    m, n = (3, 2) if q <= 4 else (2, 2)
    ctx = default_context(q, m)
    for seed in range(3):
        for k in (1, 3):
            linear = sample_random_linear_code(ctx, n, k, seed=seed)
            assert _fp_basis(linear) == fp_basis_by_products(linear), (q, seed, k)
    for k in range(1, n + 1):
        code = gabidulin(ctx, n, k)
        assert _fp_basis(code) == fp_basis_by_products(code), (q, k)


@pytest.mark.parametrize("q, m", [(2, 16), (4, 8), (16, 4)])
def test_linear_codes_build_no_extension_table(monkeypatch, q, m):
    # a fresh F_{2^16} context, not the cached default one, whose log
    # tables nothing has built yet: a linear code's F_p basis, a Monte
    # Carlo list size and its codewords take no extension product
    ctx = context_from_descriptor(default_context(q, m).descriptor())
    code = sample_random_linear_code(ctx, 1, 3, seed=5)
    built = []
    real = fields._log_tables
    monkeypatch.setattr(fields, "_log_tables", lambda *args, **kwargs: built.append(args[0]) or real(*args, **kwargs))
    assert len(_fp_basis(code)) == 3 * ctx.base.s
    for s in (0, 1):
        # n = 1 keeps the ball small
        report = max_list_size(code, s, "montecarlo", centers=50, seed=3)
        assert report.l_max == (1 if s == 0 else code.size)
    assert len(list(enumerate_codewords(code))) == code.size
    assert built == [] and ctx._log is None


def test_explicit_code_validation():
    ctx = default_context(2, 2)
    w = RankVector(ctx, (1, 2))
    with pytest.raises(ValueError, match="code size must be at least 1, got 0"):
        ExplicitCode(ctx, 2, ())
    with pytest.raises(ValueError):
        ExplicitCode(ctx, 2, (w, w))  # duplicate
    with pytest.raises(ValueError, match="codeword context mismatch"):
        ExplicitCode(ctx, 2, (RankVector(default_context(2, 3), (1, 2)),))
    with pytest.raises(ValueError, match="codeword context mismatch"):
        ExplicitCode(ctx, 2, (w, RankVector(ctx, (1,))))  # a shorter word
    code = ExplicitCode(ctx, 2, (w, RankVector(ctx, (0, 0))))
    assert code.size == 2
    assert code.rate == Fraction(1, 4)


def test_linear_code_validation_and_sizes():
    ctx = default_context(2, 2)
    a = RankVector(ctx, (1, 0))
    b = RankVector(ctx, (2, 0))
    c = RankVector(ctx, (3, 0))  # 3 = 1 + 2 over F_2 coordinates
    code = LinearCode(ctx, 2, (a, b))
    assert code.k == 2
    assert code.size == 4
    assert code.rate == Fraction(2, 4)
    with pytest.raises(ValueError):
        LinearCode(ctx, 2, (a, b, c))  # dependent
    with pytest.raises(ValueError, match="basis context mismatch"):
        LinearCode(ctx, 2, (a, RankVector(default_context(2, 3), (1, 0))))
    empty = LinearCode(ctx, 2, ())
    assert empty.k == 0 and empty.size == 1


def test_linear_enumeration_matches_coordinate_span():
    ctx = default_context(2, 3)
    for seed in range(6):
        code = sample_random_linear_code(ctx, 2, 3, seed)
        words = [w.entries for w in enumerate_codewords(code)]
        assert len(words) == len(set(words)) == 8
        assert set(words) == span_by_coordinates(code)
        assert (0, 0) in set(words)


def test_linear_enumeration_closed_under_addition():
    ctx = default_context(3, 2)
    code = sample_random_linear_code(ctx, 2, 2, seed=1)
    words = {w.entries for w in enumerate_codewords(code)}
    for x in words:
        for y in words:
            summed = tuple(ctx.add(a, b) for a, b in zip(x, y))
            assert summed in words


def test_zero_dimensional_code_enumerates_only_zero():
    ctx = default_context(2, 2)
    code = LinearCode(ctx, 2, ())
    assert [w.entries for w in enumerate_codewords(code)] == [(0, 0)]


def test_gabidulin_validation():
    ctx = default_context(2, 3)
    with pytest.raises(ValueError, match="k must be at least 1, got 0"):
        GabidulinCode(ctx, 3, 0, (1, 2, 4))
    with pytest.raises(ValueError, match="need 0 <= k <= n, got k = 4"):
        GabidulinCode(ctx, 3, 4, (1, 2, 4))  # k > n
    with pytest.raises(ValueError):
        GabidulinCode(ctx, 3, 1, (1, 2))  # wrong point count
    with pytest.raises(ValueError):
        GabidulinCode(ctx, 3, 1, (1, 2, 3))  # 3 = 1 + 2: dependent points
    with pytest.raises(ValueError):
        gabidulin(default_context(2, 2), 3, 1)  # n > m has no default points


def test_gabidulin_default_points_and_shape():
    ctx = default_context(2, 3)
    code = gabidulin(ctx, 3, 2)
    assert code.points == (1, 2, 4)  # the basis monomials
    assert code.size == 8**2
    assert code.rate == Fraction(2, 3)
    assert code.designed_distance == 2


def test_gabidulin_encode_unit_and_zero_messages():
    ctx = default_context(2, 3)
    code = gabidulin(ctx, 3, 2)
    assert gabidulin_encode(code, (0, 0)).entries == (0, 0, 0)
    # the constant-term unit message evaluates the identity map
    assert gabidulin_encode(code, (1, 0)).entries == code.points
    # the next unit message applies one Frobenius twist to each point
    expect = tuple(ctx.frobenius(g, 1) for g in code.points)
    assert gabidulin_encode(code, (0, 1)).entries == expect
    with pytest.raises(ValueError):
        gabidulin_encode(code, (1,))


def test_gabidulin_encode_is_additive():
    ctx = default_context(2, 3)
    code = gabidulin(ctx, 2, 2)
    messages = list(itertools.product(range(8), repeat=2))
    for m1 in messages[:16]:
        for m2 in messages[:16]:
            summed = tuple(ctx.add(a, b) for a, b in zip(m1, m2))
            lhs = gabidulin_encode(code, summed)
            rhs = gabidulin_encode(code, m1) + gabidulin_encode(code, m2)
            assert lhs == rhs


def test_gabidulin_enumeration_matches_encoder():
    ctx = default_context(2, 3)
    code = gabidulin(ctx, 3, 1)
    words = [w.entries for w in enumerate_codewords(code)]
    assert len(words) == len(set(words)) == 8
    # independent route: evaluate a*g via explicit q-power exponents
    expected = set()
    for a in range(8):
        expected.add(tuple(ctx.mul(a, ctx.pow(g, 1)) for g in code.points))
    assert set(words) == expected


def test_min_distance_two_word_code():
    ctx = default_context(2, 3)
    zero = RankVector.zero(ctx, 3)
    full = RankVector(ctx, (1, 2, 4))  # rank 3
    flat = RankVector(ctx, (1, 2, 3))  # 3 = 1+2, so rank 2
    assert min_rank_distance(ExplicitCode(ctx, 3, (zero, full))) == 3
    assert min_rank_distance(ExplicitCode(ctx, 3, (zero, flat))) == 2
    with pytest.raises(ValueError):
        min_rank_distance(ExplicitCode(ctx, 3, (zero,)))


def test_min_distance_linear_route_matches_pairwise():
    ctx = default_context(2, 3)
    for seed in range(5):
        code = sample_random_linear_code(ctx, 2, 3, seed)
        via_linear = min_rank_distance(code)
        words = tuple(enumerate_codewords(code))
        via_pairs = min_rank_distance(ExplicitCode(ctx, 2, words))
        assert via_linear == via_pairs
        # and both equal the smallest nonzero-word rank
        assert via_linear == min(
            rank_of_vector(w) for w in words if w.entries != (0, 0)
        )


def test_gabidulin_meets_designed_distance():
    ctx = default_context(2, 3)
    for k in (1, 2, 3):
        code = gabidulin(ctx, 3, k)
        assert min_rank_distance(code) == code.designed_distance == 3 - k + 1


def gaussian_binomial(n, k, q):
    """[n, k]_q: the number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def mrd_rank_distribution(q, m, n, k):
    """The rank distribution of an [n, k] MRD code over F_{q^m}, n <= m
    (Delsarte 1978; Gabidulin 1985): A_0 = 1 and, with d = n - k + 1,
    A_{d+l} = [n, d+l]_q sum_j (-1)^j q^C(j,2) [d+l, j]_q (q^(m(l-j+1)) - 1)."""
    d = n - k + 1
    dist = {0: 1}
    for ell in range(n - d + 1):
        dist[d + ell] = gaussian_binomial(n, d + ell, q) * sum(
            (-1) ** j * q ** comb(j, 2) * gaussian_binomial(d + ell, j, q) * (q ** (m * (ell - j + 1)) - 1)
            for j in range(ell + 1)
        )
    return dist


@pytest.mark.parametrize("q, m, n, k", [(2, 4, 4, 2), (3, 4, 3, 2), (4, 3, 3, 2), (2, 5, 3, 1), (5, 2, 2, 1), (8, 2, 2, 1), (9, 2, 2, 1)])
def test_gabidulin_codes_have_the_mrd_rank_distribution(q, m, n, k):
    # Gabidulin codes are MRD: d = n - k + 1, and every rank weight count
    # follows from it
    code = gabidulin(default_context(q, m), n, k)
    assert min_rank_distance(code) == n - k + 1
    assert Counter(map(rank_of_vector, enumerate_codewords(code))) == mrd_rank_distribution(q, m, n, k)


def test_min_distance_pair_cap():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 12, seed=0)
    with pytest.raises(EnumerationCapExceeded, match="^66 codeword pairs to scan, above the cap of 10$"):
        min_rank_distance(code, cap=10)


def test_enumerate_codewords_cap():
    ctx = default_context(2, 3)
    code = gabidulin(ctx, 3, 2)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_codewords(code, cap=63))


def reference_codes():
    """Linear codes of dimension 0 to 3, Gabidulin codes of dimension 1
    and 2, and explicit codes, over prime and non-prime base fields."""
    for q, m, n in ((2, 3, 2), (3, 2, 2), (4, 2, 2), (5, 3, 1), (8, 2, 2), (9, 2, 2)):
        ctx = default_context(q, m)
        for k in range(4):
            for seed in range(2):
                yield sample_random_linear_code(ctx, n, k, seed)
        for k in range(1, min(n, 2) + 1):
            yield gabidulin(ctx, n, k)
        yield gabidulin(ctx, n, 1, points=ctx.basis[m - n :])
        yield sample_random_code(ctx, n, 7, seed=q)


def test_codewords_come_in_the_reference_order():
    kinds = set()
    for code in reference_codes():
        expected = codewords_by_kind(code)
        assert len(expected) == code.size
        packed = _packed_words(code, code.size)
        assert packed == [vector_index(RankVector(code.ctx, w)) for w in expected], code
        words = list(enumerate_codewords(code))
        assert [w.entries for w in words] == expected, code
        assert all(w == RankVector(code.ctx, w.entries) for w in words)
        kinds.add((type(code).__name__, code.ctx.base.s > 1))
    assert kinds == {(kind, wide) for kind in ("ExplicitCode", "LinearCode", "GabidulinCode")
                     for wide in (False, True)}


def test_code_functions_refuse_what_is_not_a_code():
    for thing in (object(), None, RankVector.zero(default_context(2, 2), 2)):
        with pytest.raises(TypeError, match="not a code object"):
            list(enumerate_codewords(thing))
        with pytest.raises(TypeError, match="not a code object"):
            min_rank_distance(thing)


def test_sample_random_code_determinism():
    ctx = default_context(2, 3)
    a = sample_random_code(ctx, 2, 8, seed=42)
    b = sample_random_code(ctx, 2, 8, seed=42)
    assert a == b
    c = sample_random_code(ctx, 2, 8, seed=43)
    assert a != c  # frozen: these two seeds draw different subsets
    assert a.size == 8
    assert len({w.entries for w in a.words}) == 8


def test_sample_random_code_full_space():
    ctx = default_context(2, 2)
    code = sample_random_code(ctx, 2, 16, seed=0)
    assert [vector_index(w) for w in code.words] == list(range(16))


def test_sample_random_code_errors():
    ctx = default_context(2, 2)
    with pytest.raises(ValueError):
        sample_random_code(ctx, 2, 0, seed=0)
    with pytest.raises(ValueError):
        sample_random_code(ctx, 2, 17, seed=0)  # above the space size


@pytest.mark.parametrize("n", [3, 0, 300_000_000])
def test_sample_random_code_refuses_a_bad_length_before_any_draw(monkeypatch, n):
    # the length rule comes before the space q^(mn), which n = 3 * 10^8
    # would take minutes to compute, and before the draw stream
    monkeypatch.setattr(codes, "draws", lambda *args: pytest.fail("drew from the stream"))
    with pytest.raises(ValueError, match=f"need 1 <= n <= m, got n = {n}, m = 2"):
        sample_random_code(default_context(2, 2), n, 1, seed=0)


def test_sample_random_linear_code_determinism_and_errors():
    ctx = default_context(2, 3)
    a = sample_random_linear_code(ctx, 2, 3, seed=9)
    b = sample_random_linear_code(ctx, 2, 3, seed=9)
    assert a == b
    assert a.k == 3
    with pytest.raises(ValueError):
        sample_random_linear_code(ctx, 2, 7, seed=0)  # k > mn
    with pytest.raises(ValueError):
        sample_random_linear_code(ctx, 2, -1, seed=0)
    with pytest.raises(ValueError):
        sample_random_linear_code(ctx, 4, 1, seed=0)  # n > m
    assert sample_random_linear_code(ctx, 2, 0, seed=0).size == 1


def test_subset_sampler_uniformity():
    # 1600 seeds, 16 possible single-word codes; chi-squared on 15 dof
    ctx = default_context(2, 2)
    counts = [0] * 16
    for seed in range(1600):
        code = sample_random_code(ctx, 2, 1, seed)
        counts[vector_index(code.words[0])] += 1
    expected = 1600 / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < CHI2_DF15_ALPHA_001


def test_subspace_sampler_uniformity():
    # 15000 seeds over the 15 one-dimensional subspaces of F_2^4;
    # each subspace is identified by its unique nonzero vector
    ctx = default_context(2, 2)
    cells: dict = {}
    for seed in range(15000):
        code = sample_random_linear_code(ctx, 2, 1, seed)
        key = code.basis[0].entries
        cells[key] = cells.get(key, 0) + 1
    assert len(cells) == 15
    expected = 15000 / 15
    chi2 = sum((c - expected) ** 2 / expected for c in cells.values())
    assert chi2 < CHI2_DF14_ALPHA_001
