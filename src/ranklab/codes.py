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
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationCapExceeded
from .fields import ExtCtx
from .rankmetric import (
    RankVector,
    _echelon,
    flatten_vector,
    rank_of_vector,
    unflatten_vector,
    vector_from_index,
)
from .rng import make_rng

DEFAULT_WORD_CAP = 2**20


@dataclass(frozen=True)
class ExplicitCode:
    """A finite set of distinct words of F_{q^m}^n, in a fixed order."""

    ctx: ExtCtx
    n: int
    words: tuple[RankVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        if not self.words:
            raise ValueError("a code must contain at least one word")
        seen = set()
        for w in self.words:
            if w.ctx != self.ctx or w.n != self.n:
                raise ValueError("codeword context mismatch")
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


@dataclass(frozen=True)
class LinearCode:
    """An F_q-linear code given by a basis of k independent words."""

    ctx: ExtCtx
    n: int
    basis: tuple[RankVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if not 1 <= self.n <= self.ctx.m:
            raise ValueError(f"need 1 <= n <= m = {self.ctx.m}, got n = {self.n}")
        for w in self.basis:
            if w.ctx != self.ctx or w.n != self.n:
                raise ValueError("basis context mismatch")
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


@dataclass(frozen=True)
class GabidulinCode:
    """Evaluations of q-degree < k linearized polynomials at fixed points."""

    ctx: ExtCtx
    n: int
    k: int
    points: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not 1 <= self.n <= self.ctx.m:
            raise ValueError(f"need 1 <= n <= m = {self.ctx.m}, got n = {self.n}")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n = {self.n}, got k = {self.k}")
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
        if n > ctx.m:
            raise ValueError(f"need n <= m = {ctx.m} for the default points")
        points = ctx.basis[:n]
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
    space = ctx.order**n
    if not 1 <= size <= space:
        raise ValueError(f"need 1 <= size <= {space}, got {size}")
    if size == space:
        words = tuple(vector_from_index(ctx, n, i) for i in range(space))
        return ExplicitCode(ctx, n, words)
    rng = make_rng(seed)
    picked: dict[int, None] = {}
    while len(picked) < size:
        picked.setdefault(rng.randrange(space), None)
    words = tuple(vector_from_index(ctx, n, i) for i in picked)
    return ExplicitCode(ctx, n, words)


def sample_random_linear_code(ctx: ExtCtx, n: int, k: int, seed: int) -> LinearCode:
    """Uniform k-dimensional F_q-subspace of F_{q^m}^n as a linear code."""
    if not 1 <= n <= ctx.m:
        raise ValueError(f"need 1 <= n <= m = {ctx.m}, got n = {n}")
    if not 0 <= k <= ctx.m * n:
        raise ValueError(f"need 0 <= k <= {ctx.m * n}, got {k}")
    q = ctx.base.q
    rng = make_rng(seed)
    while True:
        rows = [[rng.randrange(q) for _ in range(ctx.m * n)] for _ in range(k)]
        if len(_echelon(rows, ctx.base)[1]) == k:
            break
    return LinearCode(ctx, n, tuple(unflatten_vector(ctx, n, row) for row in rows))


def _check_word_cap(code: Code, cap: int) -> None:
    if code.size > cap:
        raise EnumerationCapExceeded(
            f"code has {code.size} words, above the cap of {cap}"
        )


def enumerate_codewords(code: Code, cap: int = DEFAULT_WORD_CAP):
    """Yield every codeword once, in a deterministic order."""
    _check_word_cap(code, cap)
    if isinstance(code, ExplicitCode):
        yield from code.words
        return
    ctx = code.ctx
    if isinstance(code, LinearCode):
        if code.k == 0:
            yield RankVector.zero(ctx, code.n)
            return
        q = ctx.base.q
        basis_entries = [w.entries for w in code.basis]
        for coeffs in itertools.product(range(q), repeat=code.k):
            entries = [0] * code.n
            for c, word in zip(coeffs, basis_entries):
                if c:
                    entries = [ctx.add(e, ctx.scale(c, we)) for e, we in zip(entries, word)]
            yield RankVector(ctx, tuple(entries))
        return
    if isinstance(code, GabidulinCode):
        frob = [[ctx.frobenius(g, i) for g in code.points] for i in range(code.k)]
        for message in itertools.product(range(ctx.order), repeat=code.k):
            entries = [0] * code.n
            for i, a in enumerate(message):
                if a:
                    entries = [ctx.add(e, ctx.mul(a, f)) for e, f in zip(entries, frob[i])]
            yield RankVector(ctx, tuple(entries))
        return
    raise TypeError(f"not a code object: {code!r}")


def min_rank_distance(code: Code, cap: int = DEFAULT_WORD_CAP) -> int:
    """Exact minimum rank distance by exhaustive scan.

    Linear codes (including the linearized-polynomial codes) only need
    the ranks of their nonzero words; explicit codes fall back to all
    pairs.
    """
    if code.size < 2:
        raise ValueError("minimum distance needs at least two codewords")
    if isinstance(code, (LinearCode, GabidulinCode)):
        best = None
        for w in enumerate_codewords(code, cap):
            if w.entries == (0,) * code.n:
                continue
            r = rank_of_vector(w)
            if best is None or r < best:
                best = r
        return best
    pairs = code.size * (code.size - 1) // 2
    if pairs > cap:
        raise EnumerationCapExceeded(
            f"{pairs} codeword pairs to scan, above the cap of {cap}"
        )
    words = code.words
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            r = rank_of_vector(words[i] - words[j])
            if best is None or r < best:
                best = r
    return best
