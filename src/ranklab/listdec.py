"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Three kernels count lists, keyed by packed vector index (``vector_index``:
base-q^m digits, entry 0 most significant).

For an F_q-linear code C (``LinearCode``, and ``GabidulinCode``, which
is F_{q^m}-linear) the list size at x is the number of offsets b of
rank <= s with b = x mod C, so it depends only on the coset of x.  The
coset key of a vector is the least packed index in its coset: C is
taken as an F_p-space, its basis brought to echelon form on the base-p
digits of the packed index (for p = 2 an ``_xor_basis`` keyed by top
bit), pivots most significant first, and a vector reduced by it.  One
pass over the |B_s| ball offsets tallies every coset; no codeword is
enumerated.  The exhaustive maximum is the largest count, its center
the least key among the cosets that reach it, which is the least
center overall.  In characteristic 2 the reduction is an XOR of table
reads; for odd p the key of an offset is the digitwise sum of
per-entry keys, one digit per byte while n * (p - 1) fits in one.  A
single index (a Monte Carlo center) is keyed by table reads over
windows of its digits: XORed for p = 2; for odd p added in byte slots
and taken mod p by one ``bytes.translate``, from tables built on the
first such index, so sweeps and coset checks never build them.

Explicit codes use the scatter kernel: every codeword w and every offset
b of rank <= s add one to the tally of the center w + b, so one pass of
|C| * |B_s| additions gives the list size of every center that sees any
codeword at all, and the counts sum to |C| * |B_s|, the double count
behind the pigeonhole floor.  In characteristic 2 entry codes add by
XOR, and so do packed vectors, so the key of w + b is w ^ b for the
packed offset b.  For odd q the span tables of the ball, side by side
in one list, are shifted by each entry of w and scaled by that entry's
place value, and a key is the sum of n table reads: addition is
digitwise inside an entry, so no carry crosses an entry boundary.  A
shift adds one base-p digit of the entry to one digit plane of the list
at a time, and the planes are split off the list once per ball, so no
element is added with ``ExtCtx.add``.
Splitting the codewords over workers sums partial tallies, so reports
do not depend on the worker count, and exhaustive ties resolve to the
least packed index, which is the first center in lexicographic order.

Every kernel reads the ball through ``_ball``, as a ``_Ball``: for p = 2
its packed offsets, for odd p the list of span tables with its columns
and its digit-plane shifter, and the set of its offsets once a probe
builds it.  The most recent ball is kept, under its field, length and
radius, so the trials of an ensemble, and any other run of calls at one
(ctx, n, s), build it once.  Memory stays bounded without a setting:
the slot holds one ball and is emptied before a different one is
built, so at most one ball is alive at a time, as when each call built
its own.

Monte Carlo scores the codewords, then ``centers`` random draws; the
first candidate with the largest count wins.  When |C| * |B_s| <=
min(neighborhood_cap, cap) it reads the scatter tally of every center
near the code, candidates in the order the tally meets them.  Otherwise
``_far_route`` prices each route for these far centers in CPython time
per step (``_PRICES``) and takes the cheapest:

- the coset tally (linear codes): |B_s| coset keys, priced like ranked
  pairs past the byte slots (n * (p - 1) > 255), and a key per center;
- the candidate-side kernel ``_near``: when a vector has fewer
  dependency keys than C has words, each candidate pays its keys and is
  tested only against the codewords that share one, otherwise against
  every codeword; a test is one probe of the ball's offset set ("probe";
  p = 2, or p <= 127 and q <= 256) or a rank ("rank").

A route that reads the ball adds |B_s| builds unless the slot holds it,
and the probe |B_s| more unless its offset set is built, so a cold ball
is not built to serve a few hundred pairs.  No route reads a ball of
more than ``cap`` offsets; if |C| * |candidates| passes the cap too,
the run is refused.  Every route gives each candidate its exact count,
so reports do not depend on the route.

Dependency keys: if rank(c - w) <= s < n, the first s + 1 entries of
c - w are dependent over F_q: sum a_t c_t = sum a_t w_t for a nonzero a
in F_q^(s+1) with first nonzero coordinate 1.  Key a of a vector is
that sum, (q^(s+1) - 1) / (q - 1) keys per vector (over F_2 the XORs of
nonempty subsets of the first s + 1 entries), and a random candidate
shares one with about keys * |C| / q^m codewords.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import add, and_, floordiv, mod, mul, rshift, xor

from .codes import (
    Code,
    GabidulinCode,
    LinearCode,
    _check_word_cap,
    enumerate_codewords,
)
from .errors import EnumerationCapExceeded
from .fields import _default_base
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _ball_size,
    _entries_of_index,
    _fields_dict,
    _index_of_entries,
    _iter_ball_tables,
    _rank_of_entries,
    _Record,
    _shifter,
    _xor_basis,
    rref_fq,
    vector_from_index,
)
from .rng import make_rng

DEFAULT_MC_CENTERS = 1000
DEFAULT_NEIGHBORHOOD_CAP = 4096


class ListReport(_Record):
    """Worst list size found for one code at one radius."""

    radius_s: int
    l_max: int
    argmax_center: RankVector
    exhaustive: bool
    centers_tried: int
    pigeonhole_lb: int

    as_dict = _fields_dict


def pigeonhole_lower_bound(code_size: int, q: int, m: int, n: int, s: int) -> int:
    """ceil(|C| * |B(0, s)| / q^(mn)): some center must see this many words."""
    if code_size < 1:
        raise ValueError("code size must be positive")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    ball = _ball_size(q, m, n, s)
    space = q ** (m * n)
    return -((-code_size * ball) // space)


def pigeonhole_loose_form(code_size: int, q: int, m: int, n: int, s: int) -> Fraction:
    """The looser closed form |C| * q^(sm) / q^(mn).

    Equals q^(nm(R + rho - 1)) for rho = s/n and R = log_q|C|/(mn); it
    drops the q^(s(n-s)) factor of the exact ball lower bound, so it
    exceeds 1 exactly when R + rho > 1.
    """
    if code_size < 1:
        raise ValueError("code size must be positive")
    if not 0 <= s <= n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    return Fraction(code_size * q ** (s * m), q ** (m * n))


def _scan_codewords(code: Code, cap: int) -> list[tuple[int, ...]]:
    return [w.entries for w in enumerate_codewords(code, cap)]


def _count_near(ctx, words, center_entries, s) -> int:
    """Codewords within rank distance s of one center, by direct scan."""
    sub = ctx.sub
    return sum(1 for w in words if _rank_of_entries(ctx, tuple(map(sub, w, center_entries))) <= s)


def list_size_at(code: Code, center: RankVector, s: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of codewords within rank distance s of the center."""
    if center.ctx != code.ctx or center.n != code.n:
        raise ValueError("center does not live in the code's ambient space")
    if not 0 <= s <= code.n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    return _count_near(code.ctx, _scan_codewords(code, cap), center.entries, s)


def _ball_layout(ctx, n: int, s: int):
    """The span tables of the radius-s ball side by side in one list, and,
    per entry position j, where entry j of each offset sits in that list.

    Offsets come in ``_iter_ball`` order, one per vector of rank <= s.
    """
    values = []
    columns = [[] for _ in range(n)]
    for span, cols_by_entry in _iter_ball_tables(ctx, n, s):
        start = len(values)
        for column, cols in zip(columns, cols_by_entry):
            column.extend([start + c for c in cols])
        values.extend(span)
    return values, columns


def _packed(values, columns, order: int) -> tuple[int, ...]:
    """The packed index of every offset of a ``_ball_layout``, in order."""
    n = len(columns)
    reads = [
        map([x * order**j for x in values].__getitem__, column)
        for j, column in zip(range(n - 1, -1, -1), columns)
    ]
    return tuple(map(sum, zip(*reads)))


class _Ball:
    """The radius-s ball as the kernels read it: for p = 2 the ``packed``
    offsets, in ``_iter_ball`` order (no p = 2 kernel reads the layout);
    for odd p the ``_ball_layout`` and the ``_shifter`` of its values,
    whose digit planes are then split once per ball.  Callers only read
    it; ``probes`` adds the offset set on first use."""

    __slots__ = ("ctx", "n", "packed", "values", "columns", "shift", "probe_set")

    def __init__(self, ctx, n: int, values, columns):
        self.ctx, self.n, self.probe_set = ctx, n, None
        if ctx.base.p == 2:
            self.packed = _packed(values, columns, ctx.order)
        else:
            self.values, self.columns = values, columns
            self.shift = _shifter(ctx.base.p, values)

    def probes(self) -> set:
        """The offsets ``_near`` probes, built on first use: packed for
        p = 2, else as the bytes of their ``_Encoder`` digits."""
        ctx = self.ctx
        if self.probe_set is None and ctx.base.p == 2:
            self.probe_set = set(self.packed)
        elif self.probe_set is None:
            width = ctx.m * ctx.base.s
            digits = _packed(_Encoder(ctx).scaled(1, self.values, ctx.m), self.columns, 256**width)
            self.probe_set = set(map(int.to_bytes, digits, repeat(self.n * width), repeat("big")))
        return self.probe_set


# the most recent ball under its (ctx, n, s): emptied before a different
# ball is built, so at most one is alive
_BALL_SLOT: dict = {}


def _ball(ctx, n: int, s: int) -> _Ball:
    """The radius-s ball, kept in ``_BALL_SLOT``."""
    key = (ctx, n, s)
    ball = _BALL_SLOT.get(key)
    if ball is None:
        _BALL_SLOT.clear()
        ball = _BALL_SLOT[key] = _Ball(ctx, n, *_ball_layout(ctx, n, s))
    return ball


class _CosetKeys:
    """One key per coset of an F_q-linear code: its least packed index.

    The code is taken as an F_p-space, its basis written in the base-p
    digits of ``vector_index`` (most significant first) and brought to
    echelon form with pivots taken most significant digit first.
    Clearing the pivot digits of x, highest first, each by a multiple of
    its row, leaves what is the same for the whole coset x + C and is its
    least element, since any other element differs from it by a nonzero
    word whose leading digit is a pivot.

    For p = 2 a key is that packed index itself; the rows, keyed by top
    bit (``_xor_basis``), are read on the running value through 256-entry
    tables, one per eight-bit window that holds a pivot, highest first.
    For odd p a key is the digit string of that index, most significant
    first: ``bytes`` when a sum of n digits fits in a byte, a tuple of
    ints otherwise.  Both compare like the index they spell.
    """

    def __init__(self, code):
        ctx = code.ctx
        p = ctx.base.p
        self.n = n = code.n
        self.p = p
        self.width = width = n * ctx.m * ctx.base.s  # base-p digits of an index
        self.ctx = ctx
        if p == 2:
            basis = _xor_basis(_fp_basis(code))
            windows = []
            for top in sorted(basis, reverse=True):
                if not windows or top <= windows[-1][0]:
                    windows.append((max(top - 8, 0), []))
                windows[-1][1].append((top - 1, basis[top]))
            self.tables = [
                (low, [_xor_rows(v << low, pivot_rows) for v in range(256)])
                for low, pivot_rows in windows
            ]
            self.zero = 0
        else:
            field = ctx.base if ctx.base.s == 1 else _default_base(p)
            rows, pivots = rref_fq([_entries_of_index(p, width, v) for v in _fp_basis(code)], field)
            self.rows = tuple(zip(pivots, rows))
            self.narrow = n * (p - 1) <= 255
            self.mod = _Encoder(ctx).mod
            self.chunk_digits = _per_table(p)
            self.chunk = p**self.chunk_digits
            # a byte slot holds the sum of one read per window of of_index
            self.windowed = self.narrow and -(-width // self.chunk_digits) * (p - 1) <= 255
            self.windows = None
            self.zero = self._finish([0] * width)

    def _finish(self, digits):
        return bytes(digits) if self.narrow else tuple(digits)

    def _reduce(self, digits):
        p = self.p
        for piv, row in self.rows:
            c = digits[piv]
            if c:
                digits = [(a - c * r) % p for a, r in zip(digits, row)]
        return digits

    def _window_tables(self) -> list[list[int]]:
        """Key tables for ``of_index`` over windows of c base-p digits of
        the index, p^c <= 256 as in ``_per_table``, least significant
        window first.

        Entry v of a window's table is the key of the vector whose digits
        there spell v and are zero elsewhere, one digit per byte slot of
        an int.  Keys are F_p-linear, so a table is built a digit at a time
        from the multiples of that digit's unit key, each sum brought back
        to digits below p with one ``translate``.  A sum of two digits fits
        a byte: two or more windows fit one byte only for p <= 128, and a
        lone window of two or more digits has p <= 16.
        """
        p, width, c, mod = self.p, self.width, self.chunk_digits, self.mod
        tables = []
        for high in range(width, 0, -c):
            table = [0]
            for i in range(max(high - c, 0), high):
                unit = [0] * width
                unit[i] = 1
                key = self._reduce(unit)
                multiples = [_index_of_entries(256, [d * x % p for x in key]) for d in range(p)]
                table = [
                    int.from_bytes((t + u).to_bytes(width, "big").translate(mod), "big")
                    for t in table
                    for u in multiples
                ]
            tables.append(table)
        return tables

    def of_index(self, idx: int):
        """The key of the coset of the vector at packed index ``idx``.

        For odd p the window keys are summed when a byte slot holds one
        read per window; otherwise the digits are reduced row by row.
        """
        if self.p == 2:
            for low, table in self.tables:
                idx ^= table[idx >> low & 255]
            return idx
        if not self.windowed:
            return self._finish(self._reduce(_entries_of_index(self.p, self.width, idx)))
        if self.windows is None:
            self.windows = self._window_tables()
        chunk = self.chunk
        key = 0
        for table in self.windows:
            idx, v = divmod(idx, chunk)
            key += table[v]
        return key.to_bytes(self.width, "big").translate(self.mod)

    def index(self, key) -> int:
        """The packed index a key spells: the least vector of its coset."""
        return key if self.p == 2 else _index_of_entries(self.p, key)

    def ball(self, s: int):
        """The key of every offset of rank <= s, one per offset.

        Keys are F_p-linear, so the key of an offset is the digitwise sum
        of the keys of its n entries, each read from a table over the
        ball's span values at that entry's position.  For p = 2 the
        offsets are packed and reduced instead.
        """
        n, p, width = self.n, self.p, self.width
        if p == 2:
            keys = _ball(self.ctx, n, s).packed
            # of_index over the whole list, one window at a time
            for low, table in self.tables:
                windows = map(and_, map(rshift, keys, repeat(low)), repeat(255))
                keys = list(map(xor, keys, map(table.__getitem__, windows)))
            return keys
        ball = _ball(self.ctx, n, s)
        # each digit sits in its own slot, wide enough for a sum of n digits
        slot = 8 if self.narrow else (n * (p - 1)).bit_length()
        per_entry = width // n
        reads = []
        for j, column in enumerate(ball.columns):
            table = []
            for x in ball.values:
                digits = [0] * width
                digits[j * per_entry : (j + 1) * per_entry] = _entries_of_index(p, per_entry, x)
                table.append(_index_of_entries(1 << slot, self._reduce(digits)))
            reads.append(map(table.__getitem__, column))
        sums = map(sum, zip(*reads))
        if self.narrow:
            return map(
                bytes.translate, map(int.to_bytes, sums, repeat(width), repeat("big")), repeat(self.mod)
            )
        mask = (1 << slot) - 1
        shifts = range(slot * (width - 1), -1, -slot)
        return (tuple((t >> sh & mask) % p for sh in shifts) for t in sums)


def _per_table(q: int) -> int:
    """The most base-q digits whose values index a 256-entry table, at least one."""
    return next(c for c in range(8, 0, -1) if q**c <= 256 or c == 1)


def _xor_rows(v: int, pivot_rows) -> int:
    """XOR of the rows, highest pivot first, clearing each pivot bit of ``v``."""
    out = 0
    for bit, row in pivot_rows:
        if (v ^ out) >> bit & 1:
            out ^= row
    return out


def _fp_basis(code) -> list[int]:
    """Packed indices of an F_p-basis of a linear or Gabidulin code.

    A Gabidulin code is spanned over F_q by beta * (g_j^(q^i))_j for
    beta in a basis of F_{q^m} and i < k; over F_p, beta runs over the
    powers p^e, e < m*s, which are the monomials of the tower.  A linear
    code's F_q-basis words are scaled by the F_p-basis p^u, u < s, of F_q.
    """
    ctx = code.ctx
    order = ctx.order
    p = ctx.base.p
    if isinstance(code, GabidulinCode):
        words = []
        for i in range(code.k):
            frob = [ctx.frobenius(g, i) for g in code.points]
            for e in range(ctx.m * ctx.base.s):
                words.append([ctx.mul(p**e, f) for f in frob])
    else:
        words = [
            [ctx.scale(p**u, e) for e in w.entries]
            for w in code.basis
            for u in range(ctx.base.s)
        ]
    return [_index_of_entries(order, w) for w in words]


def _scatter(ctx, n: int, s: int, words) -> Counter:
    """Tally of w + b over codewords w and offsets b of rank <= s: the
    scatter kernel of the module docstring, keyed by packed index in
    (codeword, offset) order, offsets in ``_iter_ball`` order.
    """
    order = ctx.order
    ball = _ball(ctx, n, s)
    tally = Counter()
    if ctx.base.p == 2:
        for w in words:
            tally.update(map(_index_of_entries(order, w).__xor__, ball.packed))
        return tally
    places = [order**j for j in range(n - 1, -1, -1)]
    for w in words:
        reads = [
            map(list(map(place.__mul__, ball.shift(e))).__getitem__, column)
            for e, place, column in zip(w, places, ball.columns)
        ]
        tally.update(map(sum, zip(*reads)))
    return tally


class _Encoder:
    """Products lam * x of a base-field scalar and packed values, encoded
    so that sums run in C: as they are for p = 2 (adding is XOR); for odd
    p as base-p digits, one per byte of an int (``_index_of_entries`` in
    base 256), reduced mod p by one ``translate`` by ``mod``, the byte-slot
    form ``_CosetKeys`` also uses.  Scaling is coordinatewise in base q, so
    a product is read from one table per lam, c coordinates at a time."""

    def __init__(self, ctx):
        base = ctx.base
        p, e = base.p, base.s
        self.q, self.p, self.mul = base.q, p, base.mul
        self.c = _per_table(base.q)
        # an encoded coordinate: as it is for p = 2, its e base-p digits for odd p
        self.radix = base.q if p == 2 else 256**e
        self.unit = lambda d: d if p == 2 else _index_of_entries(256, _entries_of_index(p, e, d))
        self.mod = bytes(v % p for v in range(256))
        self.tables = {}

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
            map(mul, map(table.__getitem__, map(mod, map(floordiv, values, repeat(q**w)), repeat(q**c))),
                repeat(radix**w))
            for w in range(0, coords, c)
        ]
        return list(map(sum, zip(*reads)))


def _key_count(ctx, n: int, s: int) -> int:
    """How many dependency keys a vector has at radius s; 0 at s = n, for
    q > 256, and for odd p when a sum of s + 1 digits can pass a byte."""
    q, p = ctx.base.q, ctx.base.p
    if s >= n or q > 256 or (p > 2 and (s + 1) * (p - 1) > 255):
        return 0
    return (q ** (s + 1) - 1) // (q - 1)


def _keys(ctx, n: int, s: int, packed, enc: _Encoder) -> list[list]:
    """The dependency keys (module docstring) of packed vectors, where
    ``_key_count`` says they exist: one list per key, in the order of
    ``packed``, each one C-level ``map`` of ``_Encoder`` sums."""
    order, q, p = ctx.order, ctx.base.q, ctx.base.p
    plus = xor if p == 2 else add
    keys, sums = [], []
    for j in range(s + 1):
        column = list(map(mod, map(floordiv, packed, repeat(order ** (n - 1 - j))), repeat(order)))
        multiples = [enc.scaled(lam, column, ctx.m) for lam in range(1, q)]
        # the a whose first nonzero position is j: e_j, and each earlier a plus lam * e_j
        sums += [False] + [True] * (len(keys) * len(multiples))
        keys += [multiples[0], *(list(map(plus, key, x)) for key in keys for x in multiples)]
    if p == 2:
        return keys
    # only a key of two or more terms needs reducing
    width = ctx.m * ctx.base.s
    out = []
    for key, more in zip(keys, sums):
        if more:
            digits = map(int.to_bytes, key, repeat(width), repeat("big"))
            key = list(map(bytes.translate, digits, repeat(enc.mod)))
        out.append(key)
    return out


def _near(ctx, n: int, s: int, words, candidates, keyed: bool, probe: bool) -> dict:
    """The list size at each candidate, in candidate order: the kernel of
    the module docstring.  With ``probe`` a pair probes the offset set
    with c - w: c ^ w for p = 2, else the digits of c and -w, reduced."""
    order, p = ctx.order, ctx.base.p
    packed = [_index_of_entries(order, w) for w in words]
    enc = _Encoder(ctx) if keyed or (probe and p > 2) else None
    if not probe:
        forms = words

        def counted(cs, near):
            centers = (_entries_of_index(order, n, c) for c in cs)
            return map(_count_near, repeat(ctx), near, centers, repeat(s))
    elif p == 2:
        offsets, forms = _ball(ctx, n, s).probes(), packed

        def counted(cs, near):
            return (len(offsets.intersection(map(c.__xor__, ws))) for c, ws in zip(cs, near))
    else:
        offsets, coords, width = _ball(ctx, n, s).probes(), n * ctx.m, n * ctx.m * ctx.base.s
        forms = enc.scaled(p - 1, packed, coords)  # the digits of -w

        def counted(cs, near):
            for c, ws in zip(enc.scaled(1, cs, coords), near):
                diffs = map(int.to_bytes, map(c.__add__, ws), repeat(width), repeat("big"))
                yield len(offsets.intersection(map(bytes.translate, diffs, repeat(enc.mod))))
    if keyed:
        reads = []
        for keys, wanted in zip(_keys(ctx, n, s, packed, enc), _keys(ctx, n, s, list(candidates), enc)):
            index = {}
            for key, w in zip(keys, forms):
                index.setdefault(key, []).append(w)
            reads.append(map(index.get, wanted, repeat(())))
        near = list(map(set().union, *reads))
        # only a candidate that shares a key with some codeword is tested
        hits, near = list(compress(candidates, near)), filter(None, near)
    else:
        hits, near = list(candidates), repeat(forms)
    counts = dict.fromkeys(candidates, 0)
    counts.update(zip(hits, counted(hits, near)))
    return counts


def _pool_size(workers: int, tasks: int) -> int:
    """Processes worth starting: at most one per task and one per CPU.

    The CPU count, not the affinity mask, so a process pinned to fewer
    CPUs still gets the pool it asks for; an unknown count counts as one.
    """
    import os

    return min(workers, tasks, os.cpu_count() or 1)


def _tally(ctx, n: int, s: int, words, workers: int = 1) -> Counter:
    """The list size of every center within rank distance s of some codeword.

    Each pair (w, b) of a codeword and an offset of rank <= s adds one to
    the count of center w + b, so the counts sum to |C| * |B_s| and a
    center missing from the tally sees no codeword.  Centers are keyed
    by packed index, in order of their first (codeword, offset) pair.
    With ``workers`` > 1 the codewords are split into consecutive chunks,
    one per process, whose partial tallies are summed in chunk order,
    which gives the same counts in the same key order.
    """
    chunks = _pool_size(workers, len(words))
    if chunks <= 1:
        return _scatter(ctx, n, s, words)
    size = -(-len(words) // chunks)
    parts = [words[i : i + size] for i in range(0, len(words), size)]
    from concurrent.futures import ProcessPoolExecutor

    tally = Counter()
    with ProcessPoolExecutor(max_workers=len(parts)) as ex:
        for part in ex.map(partial(_scatter, ctx, n, s), parts):
            tally.update(part)
    return tally


def max_list_size(
    code: Code,
    s: int,
    mode: str = "exhaustive",
    *,
    centers: int = DEFAULT_MC_CENTERS,
    seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
    workers: int = 1,
    neighborhood_cap: int = DEFAULT_NEIGHBORHOOD_CAP,
) -> ListReport:
    """Worst-case list size at radius s.

    Args:
        code: any code object.
        s: rank radius, 0 <= s <= n.
        mode: "exhaustive" gives the maximum over every center of the
            ambient space (requires q^(mn) <= cap).  "montecarlo" scores
            the codewords, their low-rank perturbations when
            |C| * |B_s| <= min(neighborhood_cap, cap), and ``centers``
            uniform random centers, reporting a lower bound flagged
            exhaustive=False; it holds no ball of more than ``cap``
            offsets.  The module docstring gives the route each takes.
        centers: number of uniform random Monte Carlo centers, >= 0.
        seed: RNG seed for Monte Carlo centers.
        workers: process count, >= 1, for splitting the codewords of an
            explicit code's exhaustive tally; the report is identical for
            any worker count.

    Returns:
        A ListReport; exhaustive ties for the maximum resolve to the
        first center in lexicographic order, Monte Carlo ties to the
        first candidate scored.
    """
    if not 0 <= s <= code.n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    if centers < 0:
        raise ValueError(f"need centers >= 0, got {centers}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    ctx = code.ctx
    n = code.n
    order = ctx.order
    space = order**n
    lb = pigeonhole_lower_bound(code.size, ctx.base.q, ctx.m, n, s)
    linear = isinstance(code, (LinearCode, GabidulinCode))

    def report(best: int, index: int, tried: int) -> ListReport:
        center = vector_from_index(ctx, n, index)
        return ListReport(s, best, center, mode == "exhaustive", tried, lb)

    if mode == "exhaustive":
        if space > cap:
            raise EnumerationCapExceeded(
                f"{space} centers to scan, above the cap of {cap}; use montecarlo"
            )
        if linear:
            # the list size at x is the number of offsets in the coset of x
            cosets = _CosetKeys(code)
            tally = Counter(cosets.ball(s))
        else:
            tally = _tally(ctx, n, s, _scan_codewords(code, cap), workers)
        best = max(tally.values())
        least = min(key for key, count in tally.items() if count == best)
        # a coset's key is its least index, so this is the least center
        return report(best, cosets.index(least) if linear else least, space)
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    _check_word_cap(code, cap)
    bv = _ball_size(ctx.base.q, ctx.m, n, s)
    rng = make_rng(seed)
    draws = dict.fromkeys([rng.randrange(space) for _ in range(centers)])
    if code.size * bv <= min(neighborhood_cap, cap):
        # every center that sees any codeword at all lives in this tally,
        # so small instances get the true maximum even in this mode
        words = _scan_codewords(code, cap)
        tally = _tally(ctx, n, s, words)
        candidates = dict.fromkeys(tally)
        candidates.update(draws)
    else:
        route, keyed = _far_route(ctx, n, s, bv, code.size, len(draws), cap, linear)
        if route == "coset":
            # the codewords lead the candidates, all in the coset of zero and
            # led by the zero word; each new random center is scored by its coset
            cosets = _CosetKeys(code)
            tally = Counter(cosets.ball(s))
            best, best_index, tried = tally[cosets.zero], 0, code.size
            for x in draws:
                key = cosets.of_index(x)
                if key != cosets.zero:
                    tried += 1
                    if tally[key] > best:
                        best, best_index = tally[key], x
            return report(best, best_index, tried)
        words = _scan_codewords(code, cap)
        candidates = dict.fromkeys(_index_of_entries(order, w) for w in words)
        candidates.update(draws)
        tally = _near(ctx, n, s, words, candidates, keyed, route == "probe")
    # the first candidate with the largest count
    best_key = max(candidates, key=tally.__getitem__)
    return report(tally[best_key], best_key, len(candidates))


# CPython time per far-route step in about 0.1 us, (p = 2, odd p), fitted on
# in-process timings of each route
_PRICES = {
    "coset": (2, 12),  # the coset key of a ball offset, in the byte slots
    "center": (15, 30),  # the coset key of a random center
    "key": (3, 4),  # one dependency key of a candidate
    "hit": (15, 20),  # a candidate tested against its key sharers
    "probe": (2, 5),  # one probe of the offset set
    "set": (1, 4),  # one offset added to the offset set
}


def _far_route(ctx, n: int, s: int, bv: int, size: int, draws: int, cap: int, linear: bool):
    """(route, keyed): the cheapest far route as the module docstring prices
    it, "coset", "probe" or "rank", and whether ``_near`` keys."""
    q, p, m = ctx.base.q, ctx.base.p, ctx.m
    price = {step: cost[p > 2] for step, cost in _PRICES.items()}
    tried = size + draws  # at most this many candidates
    rank = 10 + 4 * n if q == 2 else 60 + 8 * n * m
    keys = _key_count(ctx, n, s)
    keyed = 0 < keys < size
    # a random candidate shares a key with about keys * |C| / q^m codewords
    pairs = min(tried * size, -(-tried * keys * size // ctx.order) + size) if keyed else tried * size
    kernel = (tried * keys * price["key"] if keyed else 0) + min(tried, pairs) * price["hit"]
    costs = {"rank": kernel + pairs * rank}
    if bv <= cap:
        held = _BALL_SLOT.get((ctx, n, s))
        build = 0 if held else bv * (5 + 40 // n)
        if p == 2 or (p <= 127 and q <= 256):
            fresh = held is None or held.probe_set is None
            costs["probe"] = kernel + pairs * price["probe"] + build + fresh * bv * price["set"]
        if linear:
            # past the byte slots a coset key is a tuple, priced like a ranked pair
            key = rank if p > 2 and n * (p - 1) > 255 else price["coset"]
            costs["coset"] = bv * key + build + draws * price["center"]
    elif size * tried > cap:
        raise EnumerationCapExceeded(
            f"Monte Carlo needs {size * tried} codeword-center pairs"
            f" and a ball of {bv} offsets, both above the cap of {cap}"
        )
    return min(costs, key=costs.get), keyed


def is_list_decodable(code: Code, s: int, list_cap: int, **kwargs) -> bool:
    """Whether every radius-s ball holds at most ``list_cap`` codewords.

    Only meaningful as a certificate in exhaustive mode; in Monte Carlo
    mode a True answer is merely "no violation found".
    """
    if list_cap < 1:
        raise ValueError("list cap must be at least 1")
    return max_list_size(code, s, **kwargs).l_max <= list_cap


def decoding_radius(code: Code, list_cap: int, **kwargs) -> Fraction:
    """Largest s/n such that the code is (s/n, list_cap)-list-decodable."""
    if list_cap < 1:
        raise ValueError("list cap must be at least 1")
    best = 0
    for s in range(code.n + 1):
        if max_list_size(code, s, **kwargs).l_max <= list_cap:
            best = s
        else:
            break
    return Fraction(best, code.n)


def radius_from_fraction(rho, n: int) -> int:
    """Quantize a radius fraction onto the lattice: s = floor(rho * n)."""
    rho = Fraction(rho)
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return math.floor(rho * n)
