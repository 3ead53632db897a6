"""The rank metric on F_{q^m}^n and exact ball volumes.

A length-n vector over F_{q^m} is identified with the m x n matrix over
F_q whose column j holds the coordinates of entry j; the rank distance
between two vectors is the F_q-rank of the matrix of their difference.
The number of m x n matrices of rank exactly u is

    N_u = prod_{i=0}^{u-1} (q^n - q^i)(q^m - q^i) / (q^u - q^i)

and ball volumes are the exact partial sums of these shells.  All
counting here is arbitrary-precision integer arithmetic; the only real
quantity is the infinite product K_q = prod_{j>=1} (1 - q^-j), which is
handled as an exact rational enclosure so volume bounds are certified
rather than approximated.

Everything assumes the column-count convention n <= m.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import EnumerationCapExceeded
from .fields import ExtCtx, FieldCtx, split_prime_power

DEFAULT_ENUM_CAP = 2**24


@dataclass(frozen=True)
class RankVector:
    """A vector in F_{q^m}^n tied to its field context."""

    ctx: ExtCtx
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        n = len(self.entries)
        if not 1 <= n <= self.ctx.m:
            raise ValueError(f"need 1 <= n <= m = {self.ctx.m}, got n = {n}")
        for e in self.entries:
            self.ctx.check_element(e)

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def zero(ctx: ExtCtx, n: int) -> "RankVector":
        return RankVector(ctx, (0,) * n)

    def _compat(self, other: "RankVector") -> None:
        if self.ctx != other.ctx or self.n != other.n:
            raise ValueError("vectors come from different contexts")

    def __add__(self, other: "RankVector") -> "RankVector":
        self._compat(other)
        add = self.ctx.add
        return RankVector(self.ctx, tuple(add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RankVector") -> "RankVector":
        self._compat(other)
        sub = self.ctx.sub
        return RankVector(self.ctx, tuple(sub(a, b) for a, b in zip(self.entries, other.entries)))


def vector_to_matrix(x: RankVector) -> tuple[tuple[int, ...], ...]:
    """The m x n coordinate matrix of x over F_q, as a tuple of rows."""
    cols = [x.ctx.ext_to_vec(e) for e in x.entries]
    return tuple(tuple(col[i] for col in cols) for i in range(x.ctx.m))


def matrix_to_vector(rows, ctx: ExtCtx) -> RankVector:
    m = len(rows)
    if m != ctx.m:
        raise ValueError(f"expected {ctx.m} rows, got {m}")
    n = len(rows[0])
    entries = tuple(ctx.vec_to_ext(tuple(rows[i][j] for i in range(m))) for j in range(n))
    return RankVector(ctx, entries)


def flatten_vector(x: RankVector) -> tuple[int, ...]:
    """All m*n F_q coordinates of x, entry by entry (column-major)."""
    out = []
    for e in x.entries:
        out.extend(x.ctx.ext_to_vec(e))
    return tuple(out)


def unflatten_vector(ctx: ExtCtx, n: int, coords) -> RankVector:
    coords = tuple(coords)
    if len(coords) != ctx.m * n:
        raise ValueError(f"expected {ctx.m * n} coordinates, got {len(coords)}")
    m = ctx.m
    return RankVector(ctx, tuple(ctx.vec_to_ext(coords[j * m : (j + 1) * m]) for j in range(n)))


def vector_index(x: RankVector) -> int:
    """Position of x in lexicographic entry order (entry 0 most significant)."""
    return _index_of_entries(x.ctx.order, x.entries)


def _index_of_entries(order: int, entries) -> int:
    """``vector_index`` of a vector given by its entry codes."""
    idx = 0
    for e in entries:
        idx = idx * order + e
    return idx


def _entries_of_index(order: int, n: int, idx: int) -> tuple[int, ...]:
    """Entry codes of the vector at ``idx``, the inverse of ``_index_of_entries``."""
    entries = [0] * n
    for j in range(n - 1, -1, -1):
        idx, entries[j] = divmod(idx, order)
    return tuple(entries)


def vector_from_index(ctx: ExtCtx, n: int, idx: int) -> RankVector:
    space = ctx.order**n
    if not 0 <= idx < space:
        raise ValueError(f"index {idx} out of range for a space of {space} vectors")
    return RankVector(ctx, _entries_of_index(ctx.order, n, idx))


def iter_all_vectors(ctx: ExtCtx, n: int):
    """All of F_{q^m}^n in lexicographic entry order."""
    for entries in itertools.product(range(ctx.order), repeat=n):
        yield RankVector(ctx, entries)


def _bit_rank(cols: list[int]) -> int:
    """Rank of a set of F_2 column vectors packed as bitmasks."""
    rank = 0
    pivots: list[int] = []
    for c in cols:
        for p in pivots:
            low = p & -p
            if c & low:
                c ^= p
        if c:
            pivots.append(c)
            rank += 1
    return rank


def rank_fq(rows, field: FieldCtx) -> int:
    """Rank of a matrix over F_q given as a sequence of row sequences.

    Gaussian elimination with the pivot taken as the first nonzero entry
    in a column-major scan, so the pivot sequence is deterministic.
    """
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    if field.q == 2:
        masks = []
        for r in rows:
            acc = 0
            for j, v in enumerate(r):
                if v:
                    acc |= 1 << j
            masks.append(acc)
        # transpose-free: row rank equals column rank
        return _bit_rank(masks)
    work = [list(r) for r in rows]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv_lead = field.inv(work[rank][col])
        for r in range(rank + 1, m):
            c = work[r][col]
            if c:
                factor = field.mul(c, inv_lead)
                row = work[r]
                prow = work[rank]
                for j in range(col, n):
                    row[j] = field.sub(row[j], field.mul(factor, prow[j]))
        rank += 1
        if rank == m:
            break
    return rank


def rref_fq(rows, field: FieldCtx) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of a matrix over F_q."""
    m = len(rows)
    if m == 0:
        return (), ()
    n = len(rows[0])
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead_inv = field.inv(work[rank][col])
        work[rank] = [field.mul(lead_inv, v) for v in work[rank]]
        for r in range(m):
            if r != rank and work[r][col]:
                c = work[r][col]
                work[r] = [field.sub(v, field.mul(c, pv)) for v, pv in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def rank_of_vector(x: RankVector) -> int:
    return _rank_of_entries(x.ctx, x.entries)


def _rank_of_entries(ctx: ExtCtx, entries) -> int:
    """Rank of a vector given by its entry codes, without building it."""
    if ctx.base.q == 2:
        # entry codes are already the m-bit coordinate columns
        return _bit_rank(list(entries))
    # the n x m matrix of coordinate columns has the same rank
    return rank_fq([ctx.ext_to_vec(e) for e in entries], ctx.base)


def rank_distance(x: RankVector, y: RankVector) -> int:
    x._compat(y)
    return rank_of_vector(x - y)


def _check_geometry(q: int, m: int, n: int) -> None:
    split_prime_power(q)
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n = {n}, m = {m}")


def count_rank_u(q: int, m: int, n: int, u: int) -> int:
    """Exact number of m x n matrices over F_q of rank exactly u."""
    _check_geometry(q, m, n)
    if not 0 <= u <= n:
        raise ValueError(f"need 0 <= u <= n, got u = {u}")
    num = 1
    den = 1
    for i in range(u):
        num *= (q**n - q**i) * (q**m - q**i)
        den *= q**u - q**i
    count, rem = divmod(num, den)
    if rem:
        raise RuntimeError("rank-shell product must divide exactly")
    return count


@dataclass(frozen=True)
class KqInterval:
    """Exact rational enclosure of K_q = prod_{j>=1} (1 - q^-j)."""

    q: int
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def kq_constant(q: int, tol=Fraction(1, 10**9)) -> KqInterval:
    """Enclose K_q within width <= tol.

    The partial product P_J over j <= J is exact; the tail satisfies
    1 > prod_{j>J} (1 - q^-j) >= 1 - q^-J/(q-1), giving certified
    endpoints without any floating point.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q}")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    partial = Fraction(1)
    j = 0
    while True:
        j += 1
        partial *= 1 - Fraction(1, q**j)
        tail = Fraction(1, q**j * (q - 1))
        if partial * tail <= tol:
            return KqInterval(q, partial * (1 - tail), partial)


@dataclass(frozen=True)
class VolumeResult:
    """Exact rank-ball volume with certified two-sided bounds.

    ``exact`` is |B_R(0, r)| and ``lower`` the closed-form q^(r(m+n-r)).
    The closed-form upper bound K_q^-1 q^(r(m+n-r)) is irrational, so it
    is carried as the enclosure [upper_lo, upper_hi]; ``upper`` is the
    conservative endpoint (guaranteed valid as a bound) and ``truncated``
    records that the product defining K_q was cut off.
    """

    q: int
    m: int
    n: int
    r: int
    exact: int
    lower: int
    upper_lo: Fraction
    upper_hi: Fraction
    kq: KqInterval
    truncated: bool = True

    @property
    def upper(self) -> Fraction:
        return self.upper_hi

    @property
    def sandwich_ok(self) -> bool:
        return self.lower <= self.exact <= self.upper_hi

    @property
    def strict_ok(self) -> bool:
        """Certified strict sandwich; exact < upper_lo implies the true bound."""
        return self.lower < self.exact < self.upper_lo

    def as_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "exact": str(self.exact),
            "lower": str(self.lower),
            "upper_lo": str(self.upper_lo),
            "upper_hi": str(self.upper_hi),
            "upper_lo_float": float(self.upper_lo),
            "upper_hi_float": float(self.upper_hi),
            "strict_ok": self.strict_ok,
        }


def ball_volume(q: int, m: int, n: int, r: int, kq_tol=Fraction(1, 10**9)) -> VolumeResult:
    """Exact volume of the radius-r rank ball in F_{q^m}^n with bounds."""
    _check_geometry(q, m, n)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r = {r}")
    exact = sum(count_rank_u(q, m, n, u) for u in range(r + 1))
    kq = kq_constant(q, kq_tol)
    power = q ** (r * (m + n - r))
    return VolumeResult(
        q=q,
        m=m,
        n=n,
        r=r,
        exact=exact,
        lower=power,
        upper_lo=power / kq.hi,
        upper_hi=power / kq.lo,
        kq=kq,
    )


def _iter_rref_matrices(field: FieldCtx, u: int, cols: int):
    """All u x cols RREF matrices of full row rank u."""
    if u == 0:
        yield ()
        return
    q = field.q
    for pivots in itertools.combinations(range(cols), u):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(u)
            for j in range(cols)
            if j > pivots[i] and j not in pivot_set
        ]
        base = [[0] * cols for _ in range(u)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for assignment in itertools.product(range(q), repeat=len(free)):
            M = [row[:] for row in base]
            for (i, j), v in zip(free, assignment):
                M[i][j] = v
            yield tuple(tuple(r) for r in M)


def _iter_ball_tables(ctx: ExtCtx, n: int, r: int):
    """(span table, factors) for every F_q-subspace of dimension <= r of F_q^m.

    A rank-u matrix factors uniquely as C * R with C an m x u basis of
    its column space (fixed per subspace via the RREF representative)
    and R a full-rank u x n matrix.  The span table lists the q^u
    elements of F_{q^m} spanned by the columns of C, the element with
    coefficient digits t_k at index sum t_k q^k; ``factors`` lists, for
    every R in ``itertools.product`` order, the span-table index of each
    of its columns, so entry j of C * R is span[factors[i][j]].  The
    factor list is built once per u and shared by its subspaces, which
    come dimension by dimension in ``_iter_rref_matrices`` order.  The
    zero subspace (u = 0) has a single empty factor: the zero offset.
    """
    field = ctx.base
    q = field.q
    add = int.__xor__ if field.p == 2 else ctx.add  # XOR is addition in characteristic 2
    for u in range(r + 1):
        factors = []
        for flat in itertools.product(range(q), repeat=u * n):
            rows = tuple(flat[k * n : (k + 1) * n] for k in range(u))
            if rank_fq(rows, field) == u:
                factors.append(tuple(sum(rows[k][j] * q**k for k in range(u)) for j in range(n)))
        for basis in _iter_rref_matrices(field, u, ctx.m):
            span = [0]
            for row in basis:
                element = ctx.vec_to_ext(row)
                multiples = [ctx.scale(c, element) for c in range(q)]
                span = [add(x, cb) for cb in multiples for x in span]
            yield span, factors


def _iter_ball(ctx: ExtCtx, center: tuple[int, ...], tables):
    """Entries of center + b for every b the tables describe, in table order.

    Each span table is shifted by the center once, so the vectors
    themselves are read off without further field arithmetic.
    """
    add = ctx.add
    for span, factors in tables:
        shifted = [[add(e, x) for x in span] for e in center]
        for cols in factors:
            yield tuple(map(list.__getitem__, shifted, cols))


def enumerate_ball(center: RankVector, r: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every vector within rank distance r of center, no duplicates.

    The ball is center + b for every offset b of rank <= r, shell by
    shell in ascending rank, so no vector outside it is ever built;
    refuses outright if the ambient space exceeds ``cap``.
    """
    ctx = center.ctx
    n = center.n
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r = {r}")
    space = ctx.order**n
    if space > cap:
        raise EnumerationCapExceeded(
            f"ambient space has {space} vectors, above the cap of {cap}"
        )
    for entries in _iter_ball(ctx, center.entries, _iter_ball_tables(ctx, n, r)):
        yield RankVector(ctx, entries)
