"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Two kernels count lists, keyed by packed vector index (``vector_index``:
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

Every kernel reads the ball through ``_ball``: for p = 2 its packed
offsets, for odd p the list of span tables with its columns and its
digit-plane shifter.  The most recent ball is kept, under its field,
length and radius, so the trials of an ensemble, and any other run of
calls at one (ctx, n, s), build it once.  Memory stays bounded without
a setting: the slot holds one ball and is emptied before a different
one is built, so at most one ball is alive at a time, as when each
call built its own.

Monte Carlo reads the scatter tally around the codewords of any code
(the neighborhood) when |C| * |B_s| is small; the order in which that
tally first meets its centers breaks ties.  Random centers far from
that neighborhood are scored, for a linear code, by the coset tally
when its |B_s| keys cost no more than scanning |candidates| * |C|
pairs, each n entry subtractions plus an elimination: that is when
|B_s| <= n * |C| * (|C| + centers).  For an explicit code they are
scored by the scatter restricted to the candidate set when its
|C| * |B_s| probes, at most n table reads each, cost no more than the
scan, which is when |B_s| <= n * |candidates|.  Otherwise, and for a
single center, the codewords are scanned against each center.
In characteristic 2 that restricted tally is turned around when the
candidates are fewer than the offsets: w is within distance s of
candidate c exactly when c ^ w packs an offset, so each candidate
probes the set of packed offsets once per codeword, |C| * |candidates|
probes in place of |C| * |B_s|.  Both orientations give every
candidate its exact count, so the first-candidate tie rule holds.

Over F_2 (q = 2) the probe and the scan test a candidate only against
the codewords that share one of its dependency keys, when those keys,
2^(s+1) - 1 of them, are fewer than the codewords and s < n.  If
rank(c ^ w) <= s < n, the first s + 1 entries of c ^ w are dependent, so
for some nonempty T within those positions the XOR of c's entries at T
equals w's: key T.  The codewords are indexed once by each key, and a
candidate pays its keys plus the codewords that share one (about
(2^(s+1) - 1) * |C| / q^m on random codes) in place of |C|.  For q > 2
a key would need base-field scalings, so the probe and scan test every
codeword there.  Timed against the restricted scatter once the
candidates outnumber the offsets, the keyed probe is about 5 times
slower at s = 0 (|B_s| = 1) and over 3 times faster at s = 1 for
q2m7n4, |C| = 128, 3,000 candidates.  The rule still prices the
scatter, not the probe.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from operator import and_, rshift, xor

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


# the most recent ball under its (ctx, n, s): emptied before a different
# ball is built, so at most one is alive
_BALL_SLOT: dict = {}


def _ball(ctx, n: int, s: int):
    """The radius-s ball as the kernels read it, kept in ``_BALL_SLOT``:
    for p = 2 the packed offsets, in ``_iter_ball`` order (no p = 2
    kernel reads the layout); for odd p ``(values, columns, shift)``, the
    ``_ball_layout`` and the ``_shifter`` of ``values``, whose digit
    planes are then split once per ball.  Callers only read it.
    """
    key = (ctx, n, s)
    ball = _BALL_SLOT.get(key)
    if ball is None:
        _BALL_SLOT.clear()
        values, columns = _ball_layout(ctx, n, s)
        p = ctx.base.p
        if p == 2:
            ball = _packed(values, columns, ctx.order)
        else:
            ball = values, columns, _shifter(p, values)
        _BALL_SLOT[key] = ball
    return ball


def _ball_keys(ctx, n: int, s: int):
    """A function from a codeword's entries to the packed keys of w + b.

    The keys come in ``_iter_ball`` offset order, one per offset b of
    rank <= s, so a tally fed codeword by codeword keys its centers in
    (codeword, offset) order.  A codeword shifts the span list of
    ``_ball_layout`` by each of its entries, once, with the ball's
    ``_shifter``.
    """
    order = ctx.order
    if ctx.base.p == 2:
        offsets = _ball(ctx, n, s)
        return lambda w: map(_index_of_entries(order, w).__xor__, offsets)
    places = [order**j for j in range(n - 1, -1, -1)]
    _, columns, shift = _ball(ctx, n, s)

    def keys(w):
        reads = [
            map(list(map(place.__mul__, shift(e))).__getitem__, column)
            for e, place, column in zip(w, places, columns)
        ]
        return map(sum, zip(*reads))

    return keys


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
            rows, pivots = rref_fq([_digits_of(v, p, width) for v in _fp_basis(code)], field)
            self.rows = tuple(zip(pivots, rows))
            self.narrow = n * (p - 1) <= 255
            self.mod = bytes(v % p for v in range(256))
            self.chunk, self.chunk_digits, _ = _digit_chunks(p)
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
        the index, p^c <= 256 as in ``_digit_chunks``, least significant
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
            return self._finish(self._reduce(_digits_of(idx, self.p, self.width)))
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
            keys = _ball(self.ctx, n, s)
            # of_index over the whole list, one window at a time
            for low, table in self.tables:
                windows = map(and_, map(rshift, keys, repeat(low)), repeat(255))
                keys = list(map(xor, keys, map(table.__getitem__, windows)))
            return keys
        values, columns, _ = _ball(self.ctx, n, s)
        # each digit sits in its own slot, wide enough for a sum of n digits
        slot = 8 if self.narrow else (n * (p - 1)).bit_length()
        per_entry = width // n
        reads = []
        for j, column in enumerate(columns):
            table = []
            for x in values:
                digits = [0] * width
                digits[j * per_entry : (j + 1) * per_entry] = _digits_of(x, p, per_entry)
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


@lru_cache(maxsize=None)
def _digit_chunks(p: int) -> tuple[int, int, list]:
    """(p^c, c, the c base-p digits of each v < p^c) for the largest p^c <= 256."""
    c = 1
    while p ** (c + 1) <= 256:
        c += 1
    digits = [()]
    for _ in range(c):
        digits = [d + (t,) for d in digits for t in range(p)]
    return p**c, c, digits


def _digits_of(idx: int, p: int, width: int) -> tuple[int, ...]:
    """The ``width`` base-p digits of ``idx``, most significant first."""
    size, c, chunk_digits = _digit_chunks(p)
    parts = []
    for _ in range(-(-width // c)):
        idx, v = divmod(idx, size)
        parts.append(chunk_digits[v])
    return sum(reversed(parts), ())[-width:]


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


def _scatter(ctx, n: int, s: int, words, keep=None) -> Counter:
    """Tally of w + b over codewords w and offsets b of rank <= s.

    Centers are keyed by packed index; with ``keep``, only the centers
    it contains are counted.
    """
    keys = _ball_keys(ctx, n, s)
    tally = Counter()
    for w in words:
        tally.update(keys(w) if keep is None else filter(keep.__contains__, keys(w)))
    return tally


def _keyed(ctx, n: int, s: int, size: int) -> bool:
    """Whether a far center over F_2 tests only the codewords sharing one
    of its 2^(s+1) - 1 dependency keys: when those are fewer than the
    |C| codewords, and s < n, below which the keys exist."""
    return ctx.base.q == 2 and s < n and 2 ** (s + 1) - 1 < size


def _dependency_keys(order: int, n: int, s: int, packed) -> list[list[int]]:
    """The dependency keys of packed vectors over F_2, one list per key,
    each in the order of ``packed``.

    Key T, for a nonempty T of the first s + 1 entry positions, is the
    XOR of the entries at T.  If rank(c ^ w) <= s < n, the first s + 1
    entries of c ^ w are dependent over F_2, so some T gives c and w the
    same key T.  Keys come one ``map`` of ``xor`` over entry columns each.
    """
    bits = order.bit_length() - 1
    keys = []
    for j in range(s + 1):
        column = list(map(and_, map(rshift, packed, repeat((n - 1 - j) * bits)), repeat(order - 1)))
        # the sets whose largest position is j: {j}, and each earlier set with j
        keys += [column, *(list(map(xor, key, column)) for key in keys)]
    return keys


def _key_sharers(order: int, n: int, s: int, packed, candidates):
    """For each candidate, in order, the set of packed codewords that share
    one of its dependency keys: every codeword within rank distance s of
    it, and others.  The codewords are indexed once by each key."""
    indexes = []
    for keys in _dependency_keys(order, n, s, packed):
        index = {}
        for key, w in zip(keys, packed):
            index.setdefault(key, []).append(w)
        indexes.append(index)
    reads = [
        map(index.get, keys, repeat(()))
        for index, keys in zip(indexes, _dependency_keys(order, n, s, candidates))
    ]
    return map(set().union, *reads)


def _probe(ctx, n: int, s: int, words, candidates) -> dict:
    """The list size at each candidate center, for p = 2, by set probes.

    Codeword w lies within rank distance s of candidate c exactly when
    c ^ w packs an offset of rank <= s, so each candidate costs |C| probes
    of the set of packed offsets, or over F_2 (``_keyed``) one probe per
    codeword sharing one of its dependency keys; the codewords are
    distinct, and so are their differences with c.
    """
    order = ctx.order
    offsets = set(_ball(ctx, n, s))
    packed = [_index_of_entries(order, w) for w in words]
    if _keyed(ctx, n, s, len(packed)):
        near = _key_sharers(order, n, s, packed, candidates)
    else:
        near = repeat(packed)
    return {c: len(offsets.intersection(map(c.__xor__, ws))) for c, ws in zip(candidates, near)}


def _scan(ctx, n: int, s: int, words, candidates) -> dict:
    """The list size at each candidate center, by ranking its difference
    with each codeword, or over F_2 (``_keyed``) with each codeword that
    shares one of its dependency keys."""
    order = ctx.order
    if _keyed(ctx, n, s, len(words)):
        entries = {_index_of_entries(order, w): w for w in words}
        near = (
            map(entries.__getitem__, ws)
            for ws in _key_sharers(order, n, s, list(entries), candidates)
        )
    else:
        near = repeat(words)
    return {
        c: _count_near(ctx, ws, _entries_of_index(order, n, c), s)
        for c, ws in zip(candidates, near)
    }


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
            ambient space (requires q^(mn) <= cap): for linear and
            Gabidulin codes it is read off the coset tally of the ball,
            for explicit codes off the tally of every center near some
            codeword.  "montecarlo" scores the codewords themselves,
            their low-rank perturbations when |C| * |B_s| <=
            min(neighborhood_cap, cap) (read off the center tally), and
            ``centers`` uniform random centers, reporting a lower bound
            flagged exhaustive=False.  Without the perturbations, a
            linear or Gabidulin code's candidates are read off the coset
            tally when |B_s| <= n * |C| * (|C| + centers), and an
            explicit code's off the center tally restricted to them when
            |B_s| <= n * |candidates| (for q even, with fewer candidates
            than offsets, by probing the set of ball offsets with each
            candidate minus each codeword); otherwise the codewords are
            scanned against each candidate.  For q = 2, s < n and
            |C| > 2^(s+1) - 1, the probe and the scan test a candidate
            only against the codewords that share one of its
            2^(s+1) - 1 dependency keys, which every codeword within
            distance s does; the counts are the same.
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
    draws = [rng.randrange(space) for _ in range(centers)]
    neighborhood = code.size * bv <= min(neighborhood_cap, cap)
    if not neighborhood and linear and bv <= n * code.size * (code.size + centers):
        # the codewords lead the candidates, all in the coset of zero and
        # led by the zero word; each new random center is scored by its coset
        cosets = _CosetKeys(code)
        tally = Counter(cosets.ball(s))
        best, best_index, tried = tally[cosets.zero], 0, code.size
        for x in dict.fromkeys(draws):
            key = cosets.of_index(x)
            if key != cosets.zero:
                tried += 1
                if tally[key] > best:
                    best, best_index = tally[key], x
        return report(best, best_index, tried)
    words = _scan_codewords(code, cap)
    if neighborhood:
        # every center that sees any codeword at all lives in this tally,
        # so small instances get the true maximum even in this mode
        tally = _tally(ctx, n, s, words)
        candidates = dict.fromkeys(tally)
    else:
        tally = None
        candidates = dict.fromkeys(_index_of_entries(order, w) for w in words)
    candidates.update(dict.fromkeys(draws))
    if tally is None:
        if bv <= n * len(candidates):
            # both give every candidate its exact count; the set probe
            # pays |C| per candidate, the restricted scatter |C| per offset
            if ctx.base.p == 2 and len(candidates) < bv:
                tally = _probe(ctx, n, s, words, candidates)
            else:
                tally = _scatter(ctx, n, s, words, keep=candidates)
        else:
            tally = _scan(ctx, n, s, words, candidates)
    # the first candidate with the largest count
    best_key = max(candidates, key=tally.__getitem__)
    return report(tally[best_key], best_key, len(candidates))


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
