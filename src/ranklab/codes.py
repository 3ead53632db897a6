"""Rank-metric code objects: explicit word lists, F_q-linear codes, and
evaluation codes of q-linearized polynomials.

The linearized-polynomial construction evaluates f(X) = sum_i a_i X^(q^i)
with q-degree below k at n linearly independent points g_1, ..., g_n,
giving codeword entries sum_i a_i * g_j^(q^i).  Over the default points
(the first n basis monomials) this meets the Singleton bound: minimum
rank distance n - k + 1 at size q^(mk).

Samplers are deterministic functions of their seed.  Explicit codes are
uniform over size-M subsets (draw, reject duplicates); linear codes are
uniform over k-dimensional subspaces, realized as the row space of a
uniformly drawn full-rank k x (mn) matrix over F_q, which hits every
subspace with equal multiplicity |GL_k(F_q)|.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import EnumerationCapExceeded
from .fields import ExtCtx, _entries_of_index, _index_of_entries
from .rankmetric import (
    RankVector,
    _check_count,
    _check_length,
    _check_member,
    _check_radius,
    _echelon,
    _rank_of_entries,
    _Record,
    _shifter,
    _trusted_batch,
    flatten_vector,
    rank_of_vector,
    unflatten_vector,
)
from .rng import draws

DEFAULT_WORD_CAP = 2**20


class ExplicitCode(_Record):
    """A finite set of distinct words of F_{q^m}^n, in a fixed order."""

    ctx: ExtCtx
    n: int
    words: tuple[RankVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        _check_count(len(self.words), "code size")
        _check_member(self.words, self.ctx, self.n, "codeword")
        seen = set()
        for w in self.words:
            if w.entries in seen:
                raise ValueError(f"duplicate codeword {w.entries}")
            seen.add(w.entries)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def rate(self):
        from .bounds import code_rate

        return code_rate(self.size, self.ctx.base.q, self.ctx.m, self.n)


class LinearCode(_Record):
    """An F_q-linear code given by a basis of k independent words."""

    ctx: ExtCtx
    n: int
    basis: tuple[RankVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _check_length(self.n, self.ctx.m)
        _check_member(self.basis, self.ctx, self.n, "basis")
        rows = [flatten_vector(w) for w in self.basis]
        if len(_echelon(rows, self.ctx.base)[1]) != len(rows):
            raise ValueError("basis words are linearly dependent over F_q")

    @property
    def k(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.ctx.base.q**self.k

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.ctx.m * self.n)


class GabidulinCode(_Record):
    """Evaluations of q-degree < k linearized polynomials at fixed points."""

    ctx: ExtCtx
    n: int
    k: int
    points: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _check_length(self.n, self.ctx.m)
        _check_count(self.k, "k")
        _check_radius(self.k, self.n, "k")
        if len(self.points) != self.n:
            raise ValueError(f"expected {self.n} evaluation points")
        pts = RankVector(self.ctx, self.points)
        if rank_of_vector(pts) != self.n:
            raise ValueError("evaluation points are linearly dependent over F_q")

    @property
    def size(self) -> int:
        return self.ctx.order**self.k

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def designed_distance(self) -> int:
        return self.n - self.k + 1


Code = ExplicitCode | LinearCode | GabidulinCode


def gabidulin(ctx: ExtCtx, n: int, k: int, points=None) -> GabidulinCode:
    """Build the evaluation code; default points are the basis monomials."""
    if points is None:
        points = ctx.basis[:n]  # too few when n > m, which the code refuses first
    return GabidulinCode(ctx, n, k, tuple(points))


def gabidulin_encode(code: GabidulinCode, message) -> RankVector:
    """Encode a length-k message of F_{q^m} coefficients."""
    message = tuple(message)
    if len(message) != code.k:
        raise ValueError(f"expected {code.k} message symbols, got {len(message)}")
    ctx = code.ctx
    for a in message:
        ctx.check_element(a)
    entries = []
    for g in code.points:
        acc = 0
        for i, a in enumerate(message):
            if a:
                acc = ctx.add(acc, ctx.mul(a, ctx.frobenius(g, i)))
        entries.append(acc)
    return RankVector(ctx, tuple(entries))


def sample_random_code(ctx: ExtCtx, n: int, size: int, seed: int) -> ExplicitCode:
    """Uniform size-``size`` subset of F_{q^m}^n as an explicit code."""
    _check_length(n, ctx.m)  # before the space q^(mn) is computed
    space = ctx.order**n
    if not 1 <= size <= space:
        raise ValueError(f"need 1 <= size <= {space}, got {size}")
    stream = draws(seed, space)
    picked = dict.fromkeys(range(space)) if size == space else {}
    # a batch of as many draws as words missing never overshoots
    while len(picked) < size:
        picked.update(zip(itertools.islice(stream, size - len(picked)), itertools.repeat(None)))
    words = _trusted_batch(ctx, [_entries_of_index(ctx.order, n, i) for i in picked])
    return ExplicitCode(ctx, n, words)


def sample_random_linear_code(ctx: ExtCtx, n: int, k: int, seed: int) -> LinearCode:
    """Uniform k-dimensional F_q-subspace of F_{q^m}^n as a linear code."""
    _check_length(n, ctx.m)
    if not 0 <= k <= ctx.m * n:
        raise ValueError(f"need 0 <= k <= {ctx.m * n}, got {k}")
    stream = draws(seed, ctx.base.q)
    while True:
        rows = [list(itertools.islice(stream, ctx.m * n)) for _ in range(k)]
        if len(_echelon(rows, ctx.base)[1]) == k:
            break
    return LinearCode(ctx, n, tuple(unflatten_vector(ctx, n, row) for row in rows))


def _check_word_cap(size: int, cap: int) -> None:
    """The one word cap of the package: refuse a code of ``size`` words
    above ``cap`` before any of them is drawn or listed."""
    if size > cap:
        raise EnumerationCapExceeded(f"code has {size} words, above the cap of {cap}")


def _check_pair_cap(pairs: int, cap: int, what: str) -> None:
    """The one pair cap of the package: refuse a scan of ``pairs`` pairs,
    described by ``what``, above ``cap`` before any of them is scanned."""
    if pairs > cap:
        raise EnumerationCapExceeded(f"{pairs} {what}, above the cap of {cap}")


def _fp_basis(code) -> list[int]:
    """Packed indices of an F_p-basis of a linear or Gabidulin code.

    A Gabidulin code is spanned over F_q by beta * (g_j^(q^i))_j for
    beta in a basis of F_{q^m} and i < k; over F_p, beta runs over the
    powers p^e, e < m*s, which are the monomials of the tower, and each
    product is an extension ``mul``.  A linear code's F_q-basis words are
    scaled by the F_p-basis p^u, u < s, of F_q with the base-scalar
    ``scale`` alone, so no extension table is built.  Scaling by 1
    leaves a row as it is.  Each word's scalings come highest power
    first, as the base-p digits of a message or coefficient code are
    most significant first.
    """
    ctx = code.ctx
    if isinstance(code, GabidulinCode):
        rows = [[ctx.frobenius(g, i) for g in code.points] for i in range(code.k)]
        digits, product = ctx.m * ctx.base.s, ctx.mul
    else:
        rows, digits, product = [w.entries for w in code.basis], ctx.base.s, ctx.scale
    powers = [ctx.base.p**e for e in range(digits - 1, -1, -1)]
    return [_index_of_entries(ctx.order, row if beta == 1 else [product(beta, x) for x in row])
            for row in rows for beta in powers]


def _packed_words(code: Code, cap: int) -> list[int]:
    """The packed index of every codeword, in ``enumerate_codewords`` order.

    A linear or Gabidulin code is the set of F_p-combinations of its
    ``_fp_basis``, taken in ``itertools.product`` order of the digits,
    the first basis word outermost: the basis is read last first, and
    each word b turns the list L so far into L, b + L, ..., (p - 1)b + L,
    one ``_shifter`` pass per nonzero digit of each multiple.
    """
    if not isinstance(code, (ExplicitCode, LinearCode, GabidulinCode)):
        raise TypeError(f"not a code object: {code!r}")
    _check_word_cap(code.size, cap)
    order = code.ctx.order
    if isinstance(code, ExplicitCode):
        return [_index_of_entries(order, w.entries) for w in code.words]
    p = code.ctx.base.p
    width = code.n * code.ctx.m * code.ctx.base.s  # base-p digits of an index
    words = [0]
    for b in reversed(_fp_basis(code)):
        digits = _entries_of_index(p, width, b)
        multiples = [_index_of_entries(p, [d * c % p for c in digits]) for d in range(p)]
        words = list(itertools.chain.from_iterable(map(_shifter(p, words), multiples)))
    return words


def enumerate_codewords(code: Code, cap: int = DEFAULT_WORD_CAP):
    """Yield every codeword once, in a deterministic order: an explicit
    code's words in turn, a linear code's F_q-combinations and a Gabidulin
    code's messages in ``itertools.product`` order."""
    words = _packed_words(code, cap)
    ctx, n = code.ctx, code.n
    entries = (_entries_of_index(ctx.order, n, w) for w in words)
    while batch := list(itertools.islice(entries, 1024)):
        yield from _trusted_batch(ctx, batch)


def min_rank_distance(code: Code, cap: int = DEFAULT_WORD_CAP) -> int:
    """Exact minimum rank distance by exhaustive scan.

    Linear codes (including the linearized-polynomial codes) only need
    the ranks of their nonzero words; explicit codes fall back to all
    pairs.
    """
    linear = not isinstance(code, ExplicitCode)
    words = _packed_words(code, cap) if linear else code.words
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    ctx, n = code.ctx, code.n
    if linear:
        return min(_rank_of_entries(ctx, _entries_of_index(ctx.order, n, w)) for w in words if w)
    _check_pair_cap(code.size * (code.size - 1) // 2, cap, "codeword pairs to scan")
    sub = ctx.sub
    return min(
        _rank_of_entries(ctx, tuple(map(sub, x.entries, y.entries)))
        for x, y in itertools.combinations(words, 2)
    )
