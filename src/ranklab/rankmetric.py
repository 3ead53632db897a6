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

Everything assumes the column-count convention n <= m: ``_check_length``
is the package's one check of it, ``_check_radius`` its one check of a
radius 0 <= s <= n and ``_check_space`` of the space cap q^(mn) <= cap,
each called before any work.

Records (``RankVector``, ``KqInterval``, ``VolumeResult``, the codes and
reports) derive from ``_Record``, a frozen value class without
``dataclasses``: the class annotations are its fields, class attributes
their defaults (``_Fresh(factory)`` builds one per instance), and names in
``_uncompared`` stay out of equality and hashing.  A report serializes
through ``_fields_dict``, its fields in declaration order, each value
through ``_plain``, the one JSON value rule: a ``Fraction`` becomes its
string, a ``RankVector`` its entry list, anything else passes unchanged.

The rank ball has one owner, this module.  ``_ball_layout`` lays it
out: it yields the runs of the ball, per chunk its span tables side by
side and its getters, one per entry position.  Every reader,
``enumerate_ball`` and each list-count kernel of ``listdec``, reads the
ball through ``_ball``, a ``_Ball`` whose parts are cached properties,
each built on first read; its layout joins the runs into one list.  The
bitset is set from the span tables of dimension s alone (``_ball_bits``):
as s <= n <= m, B_s is the union of T^n over the s-dimensional subspaces
T of F_q^m.  ``_packed`` is the one per-entry sum over the layout, one
weighted table per entry position, read one slice and one getter call
per chunk (``_read``): the packed offsets, the odd-p offset set (in the
byte-slot form of ``_Encoder``) and listdec's odd-p scatter and coset
keys.  The parts are data, none a function.  ``_ball`` is a memo keyed by
field, length and radius that keeps the most recently used balls while
their prices (``_ball_price``, closed forms taken before any part is
built) fit ``_BALL_BUDGET``, and always the most recent one, so calls
that cycle through a few (ctx, n, s), such as the radii of
``decoding_radius`` over many codes, build each part once.
``enumerate_ball`` streams every ball priced above the whole budget,
whatever the memo holds: it reads the runs as they are laid out and
keeps none.
"""
from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property, reduce
from operator import add, attrgetter, floordiv, itemgetter, mod, mul, or_, xor
from threading import Lock

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
    pickle or copy is rebuilt through it; ``_trusted_batch`` is the only
    path that skips that check.
    """

    __slots__ = ("ctx", "entries")
    ctx: ExtCtx
    entries: tuple[int, ...]

    def __init__(self, ctx: ExtCtx, entries):
        entries = tuple(entries)
        _check_length(len(entries), ctx.m)
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


def _trusted_batch(ctx: ExtCtx, batch: list[tuple[int, ...]]) -> list[RankVector]:
    """``RankVector``s of entry tuples the caller has already validated.

    The one unchecked construction path, in order: it skips
    ``RankVector.__init__`` and sets the two slots directly, so each tuple
    must hold 1 to m valid element codes.  The vectors are allocated in
    one ``map`` over ``object.__new__`` and their two slots filled by two
    more, each drained by a zero-length ``deque``, so the per-vector work
    runs in C with no Python frame.
    """
    k = len(batch)
    vectors = list(map(object.__new__, itertools.repeat(RankVector, k)))
    deque(map(RankVector.ctx.__set__, vectors, itertools.repeat(ctx, k)), 0)
    deque(map(RankVector.entries.__set__, vectors, batch), 0)
    return vectors


def iter_all_vectors(ctx: ExtCtx, n: int):
    """All of F_{q^m}^n in lexicographic entry order."""
    _check_length(n, ctx.m)
    # entries drawn from range(order) are valid by construction
    entries = itertools.product(range(ctx.order), repeat=n)
    while batch := list(itertools.islice(entries, 1024)):
        yield from _trusted_batch(ctx, batch)


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


def _check_length(n: int, m: int) -> None:
    """The one length rule of the package: 1 <= n <= m."""
    if not 1 <= n <= m:
        raise ValueError(f"need 1 <= n <= m, got n = {n}, m = {m}")


def _check_radius(value: int, n: int, name: str = "s") -> None:
    """The one radius rule of the package: 0 <= value <= n, refused in the
    argument's own ``name``."""
    if not 0 <= value <= n:
        raise ValueError(f"need 0 <= {name} <= n, got {name} = {value}")


def _space_fits(ctx: ExtCtx, n: int, cap: int) -> bool:
    """The one space rule of the package: the q^(mn) vectors of
    F_{q^m}^n are at most ``cap``."""
    return ctx.order**n <= cap


def _check_space(ctx: ExtCtx, n: int, cap: int) -> None:
    """Refuse a space above ``cap`` (``_space_fits``) before any work."""
    if not _space_fits(ctx, n, cap):
        raise EnumerationCapExceeded(
            f"{ctx.order**n} vectors in the ambient space, above the cap of {cap}; use montecarlo"
        )


def _check_geometry(q: int, m: int, n: int) -> None:
    split_prime_power(q)
    _check_length(n, m)


def count_rank_u(q: int, m: int, n: int, u: int) -> int:
    """Exact number of m x n matrices over F_q of rank exactly u."""
    _check_geometry(q, m, n)
    _check_radius(u, n, "u")
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
    _check_radius(r, n, "r")
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


def _multiples(field: FieldCtx, lead: int, places) -> list[tuple[int, ...]]:
    """Each value lead + sum_i d_i places[i], the digits d_i over F_q in
    ``itertools.product`` order (places[0] outermost), as its q
    F_q-multiples, scalar 0 first.  The places are distinct powers of q
    above ``lead``'s, one base-q digit each, so the c-multiple is
    c lead + sum_i (c d_i) places[i], built one list pass per place."""
    q = field.q
    by_scalar = []
    for c in range(q):
        values = [c * lead]
        for place in places:
            step = [field.mul(c, d) * place for d in range(q)]
            values = [v + x for v in values for x in step]
        by_scalar.append(values)
    return list(zip(*by_scalar))


def _children(p: int, parents, row):
    """Each parent span table plus F_q t for every candidate t of ``row``,
    given as its q multiples, parents in turn: the children of one parent
    come from one comprehension and one ``_shifter``, one pass per scalar,
    and those of the zero span [0] are the multiples themselves."""
    for parent in parents:
        if parent == [0]:
            yield from map(list, row)
            continue
        shift = _shifter(p, parent)
        yield from [list(itertools.chain.from_iterable(map(shift, multiples))) for multiples in row]


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


def _factor_columns(field: FieldCtx, u: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Every full-rank u x n matrix R over F_q as its n column values
    sum_k R[k][j] q^k, one tuple per column j: the prod_{i<u} (q^n - q^i)
    factors of a rank-u shell.  Row k runs over F_q^n in
    ``itertools.product`` order, packed in base q, and skips the span of
    rows 0..k-1 (grown by ``_children``); nesting the rows, row 0
    outermost, is the product order of the flattened matrix restricted
    to rank u, so no candidate is ranked.  At each prefix of k rows,
    column j of every allowed row k is cols[j] + R[k][j] q^k, one map
    per column; the span of all u rows is never built."""
    q, size = field.q, field.q**n
    # part[k][j][idx]: entry j of row vector idx, times q^k
    part = [[[i // q ** (n - 1 - j) % q * q**k for i in range(size)] for j in range(n)] for k in range(u)]
    multiples = _multiples(field, 0, [q ** (n - 1 - j) for j in range(n)]) if u > 1 else None
    columns = [[] for _ in range(n)] if u else [[0]] * n

    def extend(k, cols, span):
        taken = set(span)
        allowed = [idx for idx in range(size) if idx not in taken]
        if k == u - 1:
            for column, c, values in zip(columns, cols, part[k]):
                column.extend(map(c.__add__, map(values.__getitem__, allowed)))
            return
        children = _children(field.p, [span], map(multiples.__getitem__, allowed))
        for idx, child in zip(allowed, children):
            extend(k + 1, [c + values[idx] for c, values in zip(cols, part[k])], child)

    if u:
        extend(0, [0] * n, [0])
    return tuple(map(tuple, columns))


def _span_tables(field: FieldCtx, m: int, u: int):
    """Every u-dimensional F_q-subspace of F_q^m as its span table, in RREF
    order (pivot tuple first, then free entries row-major, last row
    fastest): the q^u elements spanned by its RREF basis, coefficient
    digits t_k at index sum t_k q^k.  Row candidates and their multiples
    (``_multiples``) are built once per pivot tuple, and each table grows
    from its parent, the span of its first k rows, by c t_k (``_children``)."""
    q = field.q
    for pivots in itertools.combinations(range(m), u):
        spans = [[0]]
        for pc in pivots:
            row = _multiples(field, q**pc, [q**j for j in range(pc + 1, m) if j not in pivots])
            spans = _children(field.p, spans, row)
        yield from spans


def _ball_layout(ctx: ExtCtx, n: int, r: int):
    """The radius-r ball as its runs, shell by shell in ascending rank u,
    each yielded as it is built: a rank-u matrix is uniquely C * R, C the
    RREF basis of its column space (a ``_span_tables`` table) and R
    full-rank u x n, and entry j of C * R for the i-th R is
    span[columns[j][i]], the columns of the shell's one
    ``_factor_columns``; u = 0 is the zero offset.  A shell's tables are
    cut into chunks of at most 512 offsets or one table, one run
    (window, getters) each: ``enumerate_ball`` builds and keeps a run's
    vectors together, and larger batches cost it garbage-collector
    passes.  ``window`` holds the chunk's tables side by side, and
    ``getters[j]`` reads entry j of every offset off any list aligned with
    it in one call (one offset as a 1-list), built once per chunk shape
    and shared by a shell's full chunks."""
    for u in range(r + 1):
        columns = _factor_columns(ctx.base, u, n)
        tables, getters = _span_tables(ctx.base, ctx.m, u), None
        per = max(1, 512 // len(columns[0]))
        while chunk := list(itertools.islice(tables, per)):
            width = len(chunk[0])
            if getters is None or len(chunk) < per:
                at = [[t + i for t in range(0, len(chunk) * width, width) for i in c] for c in columns]
                getters = [itemgetter(*a) if len(a) > 1 else itemgetter(slice(a[0], a[0] + 1)) for a in at]
            yield list(itertools.chain.from_iterable(chunk)), getters


def _read(runs, j: int, table):
    """Entry j of every offset of the ``runs``, in order: ``table`` is
    aligned with the layout's values (shifted, scaled, encoded or keyed),
    and each run takes one slice of it and one call of its getter j."""
    return itertools.chain.from_iterable(getters[j](table[start:stop]) for start, stop, getters in runs)


def _packed(runs, tables, radix: int):
    """The one per-entry sum: for each offset of the ``runs``, in order, the
    sum over positions j of its entry j read off ``tables[j]`` times
    radix^(n - 1 - j), each table weighted once before it is read (radix 1
    adds the reads as they are)."""
    n = len(tables)
    weights = [radix**j for j in range(n - 1, -1, -1)]
    tables = [t if w == 1 else list(map(w.__mul__, t)) for t, w in zip(tables, weights)]
    return map(sum, zip(*map(_read, itertools.repeat(runs), range(n), tables)))


def _per_table(q: int) -> int:
    """The most base-q digits whose values index a 256-entry table, at least one."""
    return next(c for c in range(8, 0, -1) if q**c <= 256 or c == 1)


def _fits(p: int, terms: int) -> bool:
    """Whether a sum of ``terms`` base-p digits fits in a byte slot: the one
    byte limit of the ``_Encoder`` form (p = 2 sums by XOR, so always)."""
    return p == 2 or terms * (p - 1) <= 255


class _Encoder:
    """Products lam * x of a base-field scalar and packed values, encoded
    so that sums run in C, by ``plus``: as they are for p = 2 (adding is
    XOR); for odd p as base-p digits, one per byte of an int
    (``_index_of_entries`` in base 256), added as ints while the sum
    ``_fits`` and then reduced mod p once by ``reduced``.  This byte-slot
    form is written here alone, for the ball's probes and listdec's
    ``_keys``, ``_near`` and ``_CosetKeys``.  Scaling is coordinatewise in base q, so a
    product is read from one table per lam, c coordinates at a time."""

    def __init__(self, ctx):
        base = ctx.base
        p, e = base.p, base.s
        self.q, self.p, self.mul = base.q, p, base.mul
        self.c = _per_table(base.q)
        # an encoded coordinate: as it is for p = 2, its e base-p digits for odd p
        self.radix = base.q if p == 2 else 256**e
        self.unit = lambda d: d if p == 2 else _index_of_entries(256, _entries_of_index(p, e, d))
        self.plus = xor if p == 2 else add
        self.mod = bytes(v % p for v in range(256))
        self.tables = {}

    def reduced(self, sums, digits: int):
        """Encoded sums in their final form, to compare and not to add to:
        as they are for p = 2, else the ``digits`` bytes of each reduced
        mod p, as one C-level ``map``."""
        if self.p == 2:
            return sums
        encoded = map(int.to_bytes, sums, itertools.repeat(digits), itertools.repeat("big"))
        return map(bytes.translate, encoded, itertools.repeat(self.mod))

    def scaled(self, lam: int, values, coords: int) -> list[int]:
        """lam * x, encoded, for each x of ``coords`` base-q coordinates."""
        q, c, radix = self.q, self.c, self.radix
        if lam == 1 and self.p == 2:
            return values
        table = self.tables.get(lam)
        if table is None:
            units = [self.unit(self.mul(lam, d)) for d in range(q)]
            table = [0]
            for _ in range(c):
                table = [t * radix + u for t in table for u in units]
            self.tables[lam] = table
        if coords <= c:
            return list(map(table.__getitem__, values))
        reads = [
            map(mul, map(table.__getitem__, map(mod, map(floordiv, values, itertools.repeat(q**w)),
                                                 itertools.repeat(q**c))), itertools.repeat(radix**w))
            for w in range(0, coords, c)
        ]
        return list(map(sum, zip(*reads)))


def _ball_price(ctx, n: int, s: int) -> int:
    """Bytes that bound every part the radius-s ball can hold, from closed
    forms, before any is built: 4 KiB, 256 per offset for the layout, the
    packed offsets and the offset set (73-203 measured, the most for odd
    p's byte strings), and 4 per 30 bits of the q^(mn)-bit bitset.  The
    offsets are counted by |B_s| < q^(s(m+n-s)) / K_q < 4 q^(s(m+n-s)),
    which spares the caller's ``_ball_size`` a second run."""
    return 4096 + 1024 * ctx.base.q ** (s * (ctx.m + n - s)) + ctx.order**n // 7


# 64 MiB of prices: 4-6 times the parts measured (q2m6n3, s = 2: 3.3 MB of
# parts, priced 16.8 MB), so about 10-18 MB held.  The benchmark's sweep
# cycles through ten balls priced 30.5 MB in all; a ball near the
# enumeration cap (q2m12n2, r = 2: 2^24 offsets) is kept alone or streamed.
_BALL_BUDGET = 2**26


class _Ball:
    """The radius-s ball, each part built on first use and kept; callers
    only read it."""

    def __init__(self, ctx, n: int, s: int):
        self.ctx, self.n, self.s = ctx, n, s

    @cached_property
    def layout(self):
        """The ``_ball_layout`` runs joined: one list of values, and per
        run its bounds (start, stop) in that list and its getters."""
        values, runs = [], []
        for window, getters in _ball_layout(self.ctx, self.n, self.s):
            runs.append((len(values), len(values) + len(window), getters))
            values += window
        return values, runs

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """The packed offsets, in ``_ball_layout`` order."""
        return tuple(_packed(self.layout[1], [self.layout[0]] * self.n, self.ctx.order))

    @cached_property
    def probes(self) -> set:
        """The offsets ``listdec._near`` probes, in their ``_Encoder`` form."""
        if self.ctx.base.p == 2:
            return set(self.packed)
        ctx, enc, n = self.ctx, _Encoder(self.ctx), self.n
        values, runs = self.layout
        sums = _packed(runs, [enc.scaled(1, values, ctx.m)] * n, enc.radix**ctx.m)
        return set(enc.reduced(sums, n * ctx.m * ctx.base.s))

    @cached_property
    def bits(self) -> int:
        """The ``_ball_bits`` bitset."""
        return _ball_bits(self.ctx, self.n, self.s)


def _ball_bits(ctx, n: int, s: int) -> int:
    """The radius-s ball as one int, bit x set for each packed offset x,
    the union of T^n over the ``_span_tables`` T of dimension s: T^(n-1)
    grown on the last n - 1 entries, one shift per element of T and entry,
    ORed into the block of each leading entry in T, blocks joined pairwise."""
    order, blocks = ctx.order, [0] * ctx.order
    for table in _span_tables(ctx.base, ctx.m, s):
        tail = 1
        for j in range(n - 1):
            tail = reduce(or_, map(tail.__lshift__, [t * order**j for t in table]))
        for t in table:
            blocks[t] |= tail
    width = order ** (n - 1)
    while len(blocks) > 1:
        blocks = [lo | hi << width for lo, hi in itertools.zip_longest(blocks[::2], blocks[1::2], fillvalue=0)]
        width *= 2
    return blocks[0]


class _BallMemo:
    """The ball memo: ``_ball(ctx, n, s)`` is the radius-s ball, kept with
    the most recently used others while their prices add up to at most
    ``_BALL_BUDGET``.  A new ball is added as the most recent and the
    least recently used are dropped until the rest fit; the most recent
    is never dropped, whatever its price.  One lock guards the table, not
    the parts, which each ball builds on first read."""

    def __init__(self):
        # key: (ball, price), least recently used first
        self._kept, self._total, self._lock = {}, 0, Lock()

    def __call__(self, ctx, n: int, s: int) -> _Ball:
        key = (ctx, n, s)
        with self._lock:
            kept = self._kept.pop(key, None)
            if kept is None:
                kept = _Ball(ctx, n, s), _ball_price(ctx, n, s)
                self._total += kept[1]
            self._kept[key] = kept
            while self._total > _BALL_BUDGET and len(self._kept) > 1:
                self._total -= self._kept.pop(next(iter(self._kept)))[1]
            return kept[0]

    def cache_clear(self) -> None:
        with self._lock:
            self._kept, self._total = {}, 0


_ball = _BallMemo()


def enumerate_ball(center: RankVector, r: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield every vector within rank distance r of center, no duplicates.

    The ball is center + b for every offset b of rank <= r, shell by
    shell in ascending rank, so no vector outside it is ever built;
    refuses outright if the ambient space exceeds ``cap``.  The route
    follows from the call alone, never from what the memo holds: a ball
    priced within the memo's budget is read from the layout of the ball
    memo, ``_ball``, built whole once per (field, n, r) before the first
    vector and kept by the generator while it runs; every ball priced
    above the whole budget is streamed: its runs are read as
    ``_ball_layout`` builds them and the memo is left as it was, so the
    first vector comes before the last run is built (at q = 2, m = 12,
    n = r = 2, the 2^24 offsets of the default cap).  Each run is read as
    it comes: its values pass ``check_element``, are shifted by each
    distinct center entry with ``_shifter`` (a shift by a valid entry
    keeps a valid value valid and a bad value bad), its getter j reads
    entry j of every vector off the shift by center entry j, and one
    ``_trusted_batch`` builds its vectors; a memo evicted mid-iteration
    changes nothing.
    """
    ctx = center.ctx
    n = center.n
    _check_radius(r, n, "r")
    _check_space(ctx, n, cap)
    if _ball_price(ctx, n, r) <= _BALL_BUDGET:
        # the layout, not the ball: a suspended generator keeps no other part alive
        values, runs = _ball(ctx, n, r).layout
        runs = ((values[start:stop], getters) for start, stop, getters in runs)
    else:
        runs = _ball_layout(ctx, n, r)
    for window, getters in runs:
        deque(map(ctx.check_element, window), 0)
        shift = _shifter(ctx.base.p, window)
        shifted = {e: shift(e) for e in center.entries}
        reads = [get(shifted[e]) for get, e in zip(getters, center.entries)]
        yield from _trusted_batch(ctx, list(zip(*reads)))
