"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Two kernels count lists, keyed by packed vector index (``vector_index``:
base-q^m digits, entry 0 most significant).

For an F_q-linear code C (``LinearCode``, and ``GabidulinCode``, which
is F_{q^m}-linear) the list size at x is the number of offsets b of
rank <= s with b = x mod C, so it depends only on the coset of x.  The
coset key of a vector is the least packed index in its coset: C is
taken as an F_p-space, its basis brought to reduced echelon form on the
base-p digits of the packed index, pivots most significant first, and
a vector reduced by it.  One pass over the |B_s| ball offsets tallies
every coset; no codeword is enumerated.  The exhaustive maximum is the
largest count, its center the least key among the cosets that reach it,
which is the least center overall.  In characteristic 2 the reduction
is an XOR of table reads; for odd p the key of an offset is the
digitwise sum of per-entry keys, one digit per byte while n * (p - 1)
fits in one.

Explicit codes use the scatter kernel: every codeword w and every offset
b of rank <= s add one to the tally of the center w + b, so one pass of
|C| * |B_s| additions gives the list size of every center that sees any
codeword at all, and the counts sum to |C| * |B_s|, the double count
behind the pigeonhole floor.  In characteristic 2 entry codes add by
XOR, and so do packed vectors, so the ball offsets are packed once per
call and the key of w + b is w ^ b.  For odd q the span tables of the
ball, side by side in one list, are shifted by each entry of w and
scaled by that entry's place value, and a key is the sum of n table
reads: addition is digitwise inside an entry, so no carry crosses an
entry boundary.  A shift adds one base-p digit of the entry to one
digit plane of the list at a time, and the planes are split off the
list once per call, so no element is added with ``ExtCtx.add``.
Splitting the codewords over workers sums partial tallies, so reports
do not depend on the worker count, and exhaustive ties resolve to the
least packed index, which is the first center in lexicographic order.

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
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
    _entries_of_index,
    _index_of_entries,
    _iter_ball_tables,
    _rank_of_entries,
    _shifter,
    ball_volume,
    rref_fq,
    vector_from_index,
)
from .rng import make_rng

DEFAULT_MC_CENTERS = 1000
DEFAULT_NEIGHBORHOOD_CAP = 4096


@dataclass(frozen=True)
class ListReport:
    """Worst list size found for one code at one radius."""

    radius_s: int
    l_max: int
    argmax_center: RankVector
    exhaustive: bool
    centers_tried: int
    pigeonhole_lb: int

    def as_dict(self) -> dict:
        return {
            "radius_s": self.radius_s,
            "l_max": self.l_max,
            "argmax_center": list(self.argmax_center.entries),
            "exhaustive": self.exhaustive,
            "centers_tried": self.centers_tried,
            "pigeonhole_lb": self.pigeonhole_lb,
        }


def pigeonhole_lower_bound(code_size: int, q: int, m: int, n: int, s: int) -> int:
    """ceil(|C| * |B(0, s)| / q^(mn)): some center must see this many words."""
    if code_size < 1:
        raise ValueError("code size must be positive")
    ball = ball_volume(q, m, n, s).exact
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


def _packed(values, columns, order: int) -> list[int]:
    """The packed index of every offset of a ``_ball_layout``, in order."""
    n = len(columns)
    reads = [
        map([x * order**j for x in values].__getitem__, column)
        for j, column in zip(range(n - 1, -1, -1), columns)
    ]
    return list(map(sum, zip(*reads)))


def _ball_keys(ctx, n: int, s: int):
    """A function from a codeword's entries to the packed keys of w + b.

    The keys come in ``_iter_ball`` offset order, one per offset b of
    rank <= s, so a tally fed codeword by codeword keys its centers in
    (codeword, offset) order.  A codeword shifts the span list of
    ``_ball_layout`` by each of its entries, once, with ``_shifter``,
    whose digit planes of that list are split off once per call.
    """
    values, columns = _ball_layout(ctx, n, s)
    order = ctx.order
    if ctx.base.p == 2:
        offsets = _packed(values, columns, order)
        return lambda w: map(_index_of_entries(order, w).__xor__, offsets)
    places = [order**j for j in range(n - 1, -1, -1)]
    shift = _shifter(ctx.base.p, values)

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
    reduced echelon form with pivots taken most significant digit first.
    Subtracting from x, for each pivot, its digit there times that row
    zeroes every pivot digit; what is left is the same for the whole
    coset x + C and is its least element, since any other element
    differs from it by a nonzero word whose leading digit is a pivot.

    For p = 2 a key is that packed index itself, the reduction is XOR,
    and the pivot rows are read through 256-entry tables, one per window
    of eight bits that holds a pivot.  For odd p a key is the digit
    string of that index, most significant first: ``bytes`` when a sum
    of n digits fits in a byte, a tuple of ints otherwise.  Both compare
    like the index they spell.
    """

    def __init__(self, code):
        ctx = code.ctx
        p = ctx.base.p
        self.n = n = code.n
        self.p = p
        self.width = width = n * ctx.m * ctx.base.s  # base-p digits of an index
        self.order = ctx.order
        self.ctx = ctx
        field = ctx.base if ctx.base.s == 1 else _default_base(p)
        rows, pivots = rref_fq([_digits_of(v, p, width) for v in _fp_basis(code)], field)
        if p == 2:
            windows = []
            for piv, row in zip(pivots, rows):
                bit = width - 1 - piv
                if not windows or bit < windows[-1][0]:
                    windows.append((max(bit - 7, 0), []))
                windows[-1][1].append((bit - windows[-1][0], _index_of_entries(2, row)))
            self.tables = [
                (low, [_xor_rows(v, pivot_rows) for v in range(256)])
                for low, pivot_rows in windows
            ]
            self.zero = 0
        else:
            self.rows = tuple(zip(pivots, rows))
            self.narrow = n * (p - 1) <= 255
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

    def of_index(self, idx: int):
        """The key of the coset of the vector at packed index ``idx``."""
        if self.p == 2:
            for low, table in self.tables:
                idx ^= table[idx >> low & 255]
            return idx
        return self._finish(self._reduce(_digits_of(idx, self.p, self.width)))

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
        values, columns = _ball_layout(self.ctx, self.n, s)
        n, p, width = self.n, self.p, self.width
        if p == 2:
            keys = _packed(values, columns, self.order)
            # of_index over the whole list, one window at a time
            for low, table in self.tables:
                windows = map(and_, map(rshift, keys, repeat(low)), repeat(255))
                keys = list(map(xor, keys, map(table.__getitem__, windows)))
            return keys
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
            mod = bytes(v % p for v in range(256))
            return map(bytes.translate, map(int.to_bytes, sums, repeat(width), repeat("big")), repeat(mod))
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
    """XOR of the rows whose pivot bit is set in ``v``."""
    out = 0
    for bit, row in pivot_rows:
        if v >> bit & 1:
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
            |B_s| <= n * |candidates|; otherwise the codewords are
            scanned against each candidate.
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
    if mode == "exhaustive":
        if space > cap:
            raise EnumerationCapExceeded(
                f"{space} centers to scan, above the cap of {cap}; use montecarlo"
            )
        if linear:
            # the list size at x is the number of offsets in the coset of x
            cosets = _CosetKeys(code)
            tally = Counter(cosets.ball(s))
            best = max(tally.values())
            # a coset's key is its least index, so this is the least center
            best_index = cosets.index(min(key for key, count in tally.items() if count == best))
        else:
            tally = _tally(ctx, n, s, _scan_codewords(code, cap), workers)
            best = max(tally.values())
            best_index = min(key for key, count in tally.items() if count == best)
        return ListReport(
            radius_s=s,
            l_max=best,
            argmax_center=vector_from_index(ctx, n, best_index),
            exhaustive=True,
            centers_tried=space,
            pigeonhole_lb=lb,
        )
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    _check_word_cap(code, cap)
    bv = ball_volume(ctx.base.q, ctx.m, n, s).exact
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
        return ListReport(
            radius_s=s,
            l_max=best,
            argmax_center=vector_from_index(ctx, n, best_index),
            exhaustive=False,
            centers_tried=tried,
            pigeonhole_lb=lb,
        )
    words = _scan_codewords(code, cap)
    if neighborhood:
        # every center that sees any codeword at all lives in this tally,
        # so small instances get the true maximum even in this mode
        tally = _tally(ctx, n, s, words)
        candidates = dict.fromkeys(tally)
    else:
        tally = None
        candidates = dict.fromkeys(_index_of_entries(order, w) for w in words)
    for x in draws:
        candidates.setdefault(x, None)
    if tally is None:
        if bv <= n * len(candidates):
            tally = _scatter(ctx, n, s, words, keep=candidates)
        else:
            tally = {
                key: _count_near(ctx, words, _entries_of_index(order, n, key), s)
                for key in candidates
            }
    # the first candidate with the largest count
    best_key = max(candidates, key=tally.__getitem__)
    return ListReport(
        radius_s=s,
        l_max=tally[best_key],
        argmax_center=vector_from_index(ctx, n, best_key),
        exhaustive=False,
        centers_tried=len(candidates),
        pigeonhole_lb=lb,
    )


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
