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


def _trusted(ctx: ExtCtx, entries: tuple[int, ...]) -> RankVector:
    """A ``RankVector`` of entries the caller has already validated.

    The only unchecked construction path: it skips ``__post_init__``, so
    ``entries`` must be a tuple of 1 to m valid element codes.
    """
    v = object.__new__(RankVector)
    object.__setattr__(v, "ctx", ctx)
    object.__setattr__(v, "entries", entries)
    return v


def iter_all_vectors(ctx: ExtCtx, n: int):
    """All of F_{q^m}^n in lexicographic entry order."""
    if not 1 <= n <= ctx.m:
        raise ValueError(f"need 1 <= n <= m = {ctx.m}, got n = {n}")
    # entries drawn from range(order) are valid by construction
    for entries in itertools.product(range(ctx.order), repeat=n):
        yield _trusted(ctx, entries)


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


def _shifter(p: int, values: list[int]):
    """A function from e to ``[e + x for x in values]``, summed digitwise
    in base p, which is addition in F_{q^m} and in F_q^n for q = p^s.

    For p = 2 the sum is XOR.  For odd p each nonzero digit d of e adds d
    mod p to that digit plane of every value, one list pass per digit;
    a plane of ``values`` is split off on first use and shared by every
    later e.  Digits of a value that e does not touch are kept, so a
    value out of range stays out of range.  A zero e returns ``values``
    itself, which callers only read.
    """
    if p == 2:
        return lambda e: list(map(e.__xor__, values)) if e else values
    planes = {}

    def shift(e):
        out = values
        place = 1
        while e:
            e, d = divmod(e, p)
            if d:
                plane = planes.get(place)
                if plane is None:
                    plane = planes[place] = [x // place % p for x in values]
                lim, up, down = p - d, d * place, (d - p) * place
                out = [x + (up if v < lim else down) for x, v in zip(out, plane)]
            place *= p
        return out

    return shift


def _full_rank_factors(field: FieldCtx, u: int, n: int) -> list[tuple[int, ...]]:
    """Every full-rank u x n matrix R over F_q, as the n column values
    sum_k R[k][j] q^k, in ``itertools.product`` order of its rows: the
    prod_{i<u} (q^n - q^i) factors of a rank-u shell.

    Row k runs over F_q^n in ``itertools.product`` order and skips the
    span of rows 0..k-1; nesting the rows, row 0 outermost, is the
    product order of the flattened matrix restricted to rank u, so no
    candidate is ranked.  Row vectors are packed in base q, where the
    span grows by ``_shifter``; the span of all u rows is never built.
    """
    if u == 0:
        return [(0,) * n]
    q = field.q
    rows = list(itertools.product(range(q), repeat=n))
    # row k contributes R[k][j] q^k to column value j
    scaled = [[tuple(v * q**k for v in row) for row in rows] for k in range(u)]
    factors = []

    def extend(k, cols, span):
        taken = set(span)
        if k == u - 1:
            factors.extend(
                tuple(map(int.__add__, cols, t))
                for idx, t in enumerate(scaled[k])
                if idx not in taken
            )
            return
        shift = _shifter(field.p, span)
        for idx, row in enumerate(rows):
            if idx not in taken:
                multiples = [_index_of_entries(q, [field.mul(c, v) for v in row]) for c in range(q)]
                extend(k + 1, tuple(map(int.__add__, cols, scaled[k][idx])),
                       [y for mult in multiples for y in shift(mult)])

    extend(0, (0,) * n, [0])
    return factors


def _iter_ball_tables(ctx: ExtCtx, n: int, r: int):
    """(span table, columns) for every F_q-subspace of dimension <= r of F_q^m.

    A rank-u matrix factors uniquely as C * R with C an m x u basis of
    its column space (fixed per subspace via the RREF representative)
    and R a full-rank u x n matrix.  The span table lists the q^u
    elements of F_{q^m} spanned by the columns of C, the element with
    coefficient digits t_k at index sum t_k q^k.  The factor list of
    ``_full_rank_factors`` gives, for every R in ``itertools.product``
    order, the span-table index of each of its columns, so entry j of
    C * R is span[factor[j]]; ``columns`` is that list transposed, one
    tuple per entry position j.  It is built once per u and shared by
    the subspaces of dimension u, which come in ``_iter_rref_matrices``
    order.  The zero subspace (u = 0) has the span table [0] and one
    all-zero factor: the zero offset.
    """
    field = ctx.base
    q = field.q
    for u in range(r + 1):
        columns = tuple(zip(*_full_rank_factors(field, u, n)))
        for basis in _iter_rref_matrices(field, u, ctx.m):
            span = [0]
            for row in basis:
                # the element with coordinates row, constant term first
                element = _index_of_entries(q, row[::-1])
                shift = _shifter(field.p, span)
                span = [y for c in range(q) for y in shift(ctx.scale(c, element))]
            yield span, columns


def _iter_ball(ctx: ExtCtx, center: tuple[int, ...], tables):
    """Entries of center + b for every b the tables describe, in table order.

    Each span table is shifted by each distinct center entry once, with
    ``_shifter``, and every value of a shifted table passes
    ``check_element`` before the table's first vector is read.  Entry j
    of each vector is then read off the table shifted by center entry j
    at ``columns[j]``, with no further field arithmetic or check.
    """
    p = ctx.base.p
    check = ctx.check_element
    for span, columns in tables:
        shift = _shifter(p, span)
        by_entry = {e: shift(e) for e in center}
        for values in by_entry.values():
            for x in values:
                check(x)
        yield from zip(*[map(by_entry[e].__getitem__, col) for e, col in zip(center, columns)])


def enumerate_ball(center: RankVector, r: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every vector within rank distance r of center, no duplicates.

    The ball is center + b for every offset b of rank <= r, shell by
    shell in ascending rank, so no vector outside it is ever built;
    refuses outright if the ambient space exceeds ``cap``.  Validation
    is one ``check_element`` per value of each shifted span table, in
    ``_iter_ball``, so the vectors read off those tables are built
    without checking each entry again.
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
    entries = _iter_ball(ctx, center.entries, _iter_ball_tables(ctx, n, r))
    yield from map(_trusted, itertools.repeat(ctx), entries)
