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

Records (``RankVector``, ``KqInterval``, ``VolumeResult``, the codes and
reports) derive from ``_Record``, a frozen value class without
``dataclasses``: the class annotations are its fields, class attributes
their defaults (``_Fresh(factory)`` builds one per instance), and names in
``_uncompared`` stay out of equality and hashing.  A report serializes
through ``_fields_dict``, its fields in declaration order, each value
through ``_plain``, the one JSON value rule: a ``Fraction`` becomes its
string, a ``RankVector`` its entry list, anything else passes unchanged.
"""
from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable
from fractions import Fraction
from operator import attrgetter

from .errors import EnumerationCapExceeded
from .fields import ExtCtx, FieldCtx, split_prime_power

DEFAULT_ENUM_CAP = 2**24


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # loaded only on this path

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class _Fresh:
    """A record field default built anew for each instance by ``factory()``."""

    def __init__(self, factory):
        self.factory = factory


class _Record:
    """Frozen value record; see the module docstring."""

    __slots__ = ()  # so a slotted subclass (RankVector) has no __dict__
    _fields = _uncompared = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{k: v for k, v in vars(cls).items() if k in own}}
        keys = tuple(name for name in cls._fields if name not in cls._uncompared)
        if len(keys) < 2:  # a getter of one name returns it bare, not in a tuple
            raise TypeError(f"{cls.__name__} needs at least two compared fields")
        cls._key = attrgetter(*keys)  # a C callable: no method binding

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        names = self._fields
        given = {**self._defaults, **kwargs, **dict(zip(names, args))}
        extra = len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)])
        if extra or given.keys() != set(names):  # too many or repeated; missing or unknown
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)} once each")
        return [v.factory() if isinstance(v, _Fresh) else v for v in map(given.get, names)]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _plain(value):
    """A record value as JSON; see the module docstring."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, RankVector):
        return list(value.entries)
    return value


def _fields_dict(record) -> dict:
    """Every field of a report in declaration order, each through ``_plain``."""
    return {name: _plain(getattr(record, name)) for name in record._fields}


class RankVector(_Record):
    """A vector in F_{q^m}^n tied to its field context.

    A slotted ``_Record`` of the two fields ``ctx`` and ``entries``: no
    ``__dict__``.  ``__init__`` checks 1 <= n <= m and every entry, and a
    pickle or copy is rebuilt through it; ``_trusted`` and
    ``_trusted_batch`` are the only paths that skip that check.
    """

    __slots__ = ("ctx", "entries")
    ctx: ExtCtx
    entries: tuple[int, ...]

    def __init__(self, ctx: ExtCtx, entries):
        entries = tuple(entries)
        n = len(entries)
        if not 1 <= n <= ctx.m:
            raise ValueError(f"need 1 <= n <= m = {ctx.m}, got n = {n}")
        for e in entries:
            ctx.check_element(e)
        RankVector.ctx.__set__(self, ctx)
        RankVector.entries.__set__(self, entries)

    def __reduce__(self):
        return (RankVector, (self.ctx, self.entries))

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
        if not isinstance(other, RankVector):
            return NotImplemented
        self._compat(other)
        add = self.ctx.add
        return RankVector(self.ctx, tuple(add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RankVector") -> "RankVector":
        if not isinstance(other, RankVector):
            return NotImplemented
        self._compat(other)
        sub = self.ctx.sub
        return RankVector(self.ctx, tuple(sub(a, b) for a, b in zip(self.entries, other.entries)))


def vector_to_matrix(x: RankVector) -> tuple[tuple[int, ...], ...]:
    """The m x n coordinate matrix of x over F_q, as a tuple of rows."""
    return tuple(zip(*map(x.ctx.ext_to_vec, x.entries)))


def matrix_to_vector(rows, ctx: ExtCtx) -> RankVector:
    m = len(rows)
    if m != ctx.m:
        raise ValueError(f"expected {ctx.m} rows, got {m}")
    _check_matrix(rows, ctx.base)
    return RankVector(ctx, tuple(map(ctx.vec_to_ext, zip(*rows))))


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

    One of the two unchecked construction paths, with ``_trusted_batch``:
    it skips ``RankVector.__init__`` and sets the two slots directly, so
    ``entries`` must be a tuple of 1 to m valid element codes.
    """
    v = object.__new__(RankVector)
    RankVector.ctx.__set__(v, ctx)
    RankVector.entries.__set__(v, entries)
    return v


def _trusted_batch(ctx: ExtCtx, batch: list[tuple[int, ...]]) -> list[RankVector]:
    """``_trusted`` over a list of validated entry tuples, in order.

    The vectors are allocated in one ``map`` over ``object.__new__`` and
    their two slots filled by two more, each drained by a zero-length
    ``deque``, so the per-vector work runs in C with no Python frame.
    """
    k = len(batch)
    vectors = list(map(object.__new__, itertools.repeat(RankVector, k)))
    deque(map(RankVector.ctx.__set__, vectors, itertools.repeat(ctx, k)), 0)
    deque(map(RankVector.entries.__set__, vectors, batch), 0)
    return vectors


def iter_all_vectors(ctx: ExtCtx, n: int):
    """All of F_{q^m}^n in lexicographic entry order."""
    if not 1 <= n <= ctx.m:
        raise ValueError(f"need 1 <= n <= m = {ctx.m}, got n = {n}")
    # entries drawn from range(order) are valid by construction
    for entries in itertools.product(range(ctx.order), repeat=n):
        yield _trusted(ctx, entries)


def _xor_basis(masks) -> dict[int, int]:
    """Echelon basis of the F_2 span of bitmask rows, each keyed by its
    top bit (``bit_length``): a mask is reduced by the row at its top bit
    until no row is there, and then becomes that row."""
    basis: dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length()
            row = basis.get(top)
            if row is None:
                basis[top] = v
                break
            v ^= row
    return basis


def _echelon(rows, field: FieldCtx) -> tuple[Iterable[list[int]], list[int]]:
    """The one forward elimination: the pivot rows of a matrix over F_q,
    leads not scaled, and their pivot columns, left to right.

    No validation: rows must have equal lengths and entries in F_q.  For
    odd q the pivot is the first nonzero entry in a column-major scan and
    the rows below are updated in place from the pivot column on; for
    q = 2 the rows are packed, column 0 most significant, into an
    ``_xor_basis``, whose top bits give the pivot columns.
    """
    if not rows:
        return [], []
    n = len(rows[0])
    if field.q == 2:
        basis = _xor_basis(_index_of_entries(2, r) for r in rows)
        tops = sorted(basis, reverse=True)
        # rows are unpacked only when read; a rank reads none
        return (list(_entries_of_index(2, n, basis[t])) for t in tops), [n - t for t in tops]
    m = len(rows)
    work = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        for pivot in range(rank, m):
            if work[pivot][col]:
                break
        else:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv_lead = field.inv(prow[col])
        for row in work[rank + 1 :]:
            c = row[col]
            if c:
                factor = field.mul(c, inv_lead)
                for j in range(col, n):
                    row[j] = field.sub(row[j], field.mul(factor, prow[j]))
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return work[:rank], pivots


def _check_matrix(rows, field: FieldCtx) -> None:
    for r in rows:
        if len(r) != len(rows[0]):
            raise ValueError("matrix rows have unequal lengths")
        for v in r:
            field.check_element(v)


def rank_fq(rows, field: FieldCtx) -> int:
    """Rank over F_q of a sequence of row sequences, the number of
    ``_echelon`` pivots; ``ValueError`` on ragged rows or bad entries."""
    _check_matrix(rows, field)
    return len(_echelon(rows, field)[1])


def rref_fq(rows, field: FieldCtx) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot columns over F_q, checked as in
    ``rank_fq``: the ``_echelon`` rows, bottom up, get their leads scaled
    to 1 and their pivot columns cleared from the rows above."""
    _check_matrix(rows, field)
    work, pivots = _echelon(rows, field)
    work = list(work)
    for i, col in reversed(list(enumerate(pivots))):
        lead_inv = field.inv(work[i][col])
        prow = work[i] = [field.mul(lead_inv, v) for v in work[i]]
        for h in range(i):
            c = work[h][col]
            if c:
                work[h] = [field.sub(v, field.mul(c, pv)) for v, pv in zip(work[h], prow)]
    return tuple(map(tuple, work)), tuple(pivots)


def rank_of_vector(x: RankVector) -> int:
    return _rank_of_entries(x.ctx, x.entries)


def _rank_of_entries(ctx: ExtCtx, entries) -> int:
    """Rank of a vector given by its entry codes, without building it."""
    if ctx.base.q == 2:
        # entry codes are already the m-bit coordinate columns
        return len(_xor_basis(entries))
    # the n x m matrix of coordinate columns has the same rank
    return len(_echelon([ctx.ext_to_vec(e) for e in entries], ctx.base)[1])


def rank_distance(x: RankVector, y: RankVector) -> int:
    """Rank of x - y: ``TypeError`` unless both are ``RankVector``s,
    ``ValueError`` if they come from different contexts."""
    if not (isinstance(x, RankVector) and isinstance(y, RankVector)):
        raise TypeError(
            f"rank_distance needs two RankVectors, got {type(x).__name__} and {type(y).__name__}"
        )
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


class KqInterval(_Record):
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


class VolumeResult(_Record):
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
            "upper_lo_float": _float(self.upper_lo),
            "upper_hi_float": _float(self.upper_hi),
            "strict_ok": self.strict_ok,
        }


def _float(x: Fraction) -> float | None:
    """The nearest double, or None past the largest (the string is exact)."""
    try:
        return float(x)
    except OverflowError:
        return None


def _ball_size(q: int, m: int, n: int, r: int) -> int:
    """|B_R(0, r)| in F_{q^m}^n: the shell sum alone, no K_q enclosure."""
    _check_geometry(q, m, n)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r = {r}")
    return sum(count_rank_u(q, m, n, u) for u in range(r + 1))


def ball_volume(q: int, m: int, n: int, r: int, kq_tol=Fraction(1, 10**9)) -> VolumeResult:
    """Exact volume of the radius-r rank ball in F_{q^m}^n with bounds."""
    exact = _ball_size(q, m, n, r)
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
    """Entries of center + b for every b the tables describe, in table
    order: one list of entry tuples per span table, as long as its
    factor list.

    Every value of a span table passes ``check_element`` once, before
    the table is shifted by each distinct center entry with
    ``_shifter``: a shift by a valid entry keeps a valid value valid and
    a bad value bad, so this refuses the same tables as checking every
    shifted copy.  Entry j of each vector is then read off the table
    shifted by center entry j at ``columns[j]``, with no further field
    arithmetic or check.
    """
    p = ctx.base.p
    check = ctx.check_element
    for span, columns in tables:
        for x in span:
            check(x)
        shift = _shifter(p, span)
        by_entry = {e: shift(e) for e in center}
        yield list(zip(*[map(by_entry[e].__getitem__, col) for e, col in zip(center, columns)]))


def enumerate_ball(center: RankVector, r: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every vector within rank distance r of center, no duplicates.

    The ball is center + b for every offset b of rank <= r, shell by
    shell in ascending rank, so no vector outside it is ever built;
    refuses outright if the ambient space exceeds ``cap``.  Validation
    is one ``check_element`` per value of each span table, in
    ``_iter_ball``, so the vectors read off those tables are built by
    ``_trusted_batch``, one batch per span table, without checking each
    entry again.
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
    for batch in _iter_ball(ctx, center.entries, _iter_ball_tables(ctx, n, r)):
        yield from _trusted_batch(ctx, batch)
