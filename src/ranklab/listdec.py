"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Three kernels count lists, keyed by packed vector index
(``vector_index``: base-q^m digits, entry 0 most significant): one
sparse tally (``_tally``), one dense add (``_counters``) and, for Monte
Carlo's far centers, ``_near``.  They take the codewords as packed
indices, from ``codes._packed_words``, or a linear code's F_p basis, from
``codes._fp_basis``; only a rank test and the odd-p tally unpack them.

For an F_q-linear code C (``LinearCode``, and ``GabidulinCode``, which
is F_{q^m}-linear) the list size at x is the number of offsets b of
rank <= s with b = x mod C, so it depends only on the coset of x.  The
coset key of a vector is the least packed index in its coset: C is
taken as an F_p-space, its basis brought to echelon form on the base-p
digits of the packed index (for p = 2 an ``_xor_basis`` keyed by top
bit), pivots most significant first, and a vector reduced by it.  In
characteristic 2 the reduction is an XOR of table reads; for odd p the
key of an offset is the digitwise sum of per-entry keys, one digit per
byte while a sum of n digits fits in one.  That byte-slot form has one
home: ``rankmetric._Encoder`` writes, sums and reduces it, and
``rankmetric._fits`` is the one rule for when a sum of digits fits a
byte.  The Monte Carlo centers are keyed by the same reduction, all in
one call: for p = 2 by XORed table reads over eight-bit windows, one
pass of the list per window, for odd p by clearing each one's base-p
digits row by row.

In the sparse tally every word w and every offset b of rank <= s add one
to the center w + b, or to its coset key.  The scatter tallies an
explicit code's codewords, so the counts sum to |C| * |B_s|, the double
count behind the pigeonhole floor; the coset tally is the tally of the
one word 0 keyed mod C, |B_s| additions.  In characteristic 2 the key
of w + b is w ^ b for the packed offset b.  For odd q the span tables of
the ball, side by side in one list, are shifted by each entry of w,
read as that entry's packed value or coset key, and summed over the n
entries: addition is digitwise inside an entry, so no carry crosses an
entry boundary.  A shift adds one base-p digit of the entry to one digit
plane of the list at a time, the planes split off once per call.

The dense add (``_counters``) counts every center of the space at once.
The ball is one int, bit x set for each packed offset x, from its
s-dimensional subspaces (``rankmetric._ball_bits``).  Adding w is
digitwise mod p on the base-p digits of a packed index, so for each
nonzero digit d of w at place P = p^k the offsets whose digit k is below
p - d move up by d * P and the others down by (p - d) * P: one mask, two
shifts (``_translator``).  Each translate is added by ripple carry
(``_add_slices``) to bit-sliced counters, slice i holding bit i of every
center's count: one translate per codeword.  A linear code folds
instead, from its F_p basis: the list size is 1_{B_s} * 1_C, and 1_C the
convolution of the lines {a c : a in F_p} of the basis words c, so the
ball's bitset starts as the one slice and each c adds to the slices
their translates by c, 2c, ..., (p - 1)c.  Neither linear route
enumerates a codeword.

Every exhaustive route answers (the largest count, its least center, the
sum of the counts), from the slices (``_top``) or a tally (``_least``:
a coset's key is its least index, so the least key is the least
center), and ``max_list_size`` checks the sum against |B_s| from the
shell counts in one place (``_double_count``).

One picker, ``_route``, names the route of every ``max_list_size`` call,
one of ten, priced in ``_PRICES`` units from the call alone, never from
what the ball memo holds.  An exhaustive sweep takes the cheaper of its
two kernels: "counters" or "scatter" for an explicit code, "fold" or
"coset" (the coset tally) for a linear one.  A translate costs about
three big-int operations per base-p digit of an index, each over q^(mn)
bits, and the bitset is priced one step per offset.  The counters pay
one translate per codeword, the scatter |C| * |B_s| tally updates; the
fold pays p - 1 translates of every slice per basis word, the slices
before word j holding counts up to min(p^j, |B_s|), and the coset tally
|B_s| keys plus the entries of its key tables.  So balls that fill a
fixed share of the space go to the counters or the fold, and sparse ones
stay with the scatter or the coset tally, which also serves Monte Carlo.
Every route runs in this process: the worker count is checked and
changes neither the report nor the process count.  Exhaustive ties
resolve to the least packed index, the first center in lexicographic
order.

Every kernel reads the ball through ``rankmetric._ball``, the one ball
memo (the ``rankmetric`` module docstring): the dense add its bitset
alone, the other kernels its layout, through ``rankmetric._packed``, the
one per-entry sum.

Monte Carlo scores the codewords, then ``centers`` random draws from
one ``rng.draws`` stream.  Every route's counts come in candidate order
to one reader in ``max_list_size``: the largest count, then the first
candidate that has it, one pass each; a draw is tried unless it is
already a candidate.  When |C| * |B_s| <= min(neighborhood_cap, cap)
the picker says "neighborhood": the scatter tally of every center near
the code, candidates in the order the tally meets them.  Otherwise it
prices each route for these far centers in CPython time per step and
takes the cheapest:

- "far-coset" (linear codes), the coset tally: |B_s| coset keys, priced
  like ranked pairs past the byte slots (when n digits do not
  ``_fits``), and a key per center, priced like a rank for odd p;
- the candidate-side kernel ``_near``: when a vector has fewer
  dependency keys than C has words, each candidate pays its keys and is
  tested only against the codewords that share one ("-keyed"), otherwise
  against every codeword; a test is one probe of the ball's offset set
  ("probe" or "probe-keyed"; p = 2, or q <= 256 and two digits
  ``_fits``) or a rank ("rank" or "rank-keyed").  The pairs stream
  through C-level ``map``s into one tally, so no list of them is built
  and memory does not grow with |C| * candidates.

A route that reads the ball pays its |B_s| builds, and the probe |B_s|
more for its offset set, whether or not the memo holds them, so a route
depends on the call alone and a ball is not built to serve a few hundred
pairs.  No route reads a ball of
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
from functools import partial, reduce
from itertools import chain, compress, islice, repeat
from operator import add, and_, floordiv, mod, rshift, xor

from .codes import (
    Code,
    GabidulinCode,
    LinearCode,
    _check_pair_cap,
    _check_word_cap,
    _fp_basis,
    _packed_words,
)
from .fields import _default_base, _entries_of_index, _index_of_entries
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _ball,
    _ball_size,
    _check_count,
    _check_geometry,
    _check_member,
    _check_radius,
    _check_space,
    _check_unit,
    _Encoder,
    _fields_dict,
    _fits,
    _packed,
    _rank_of_entries,
    _Record,
    _shifter,
    _xor_basis,
    rref_fq,
    vector_from_index,
)
from .rng import draws

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
    _check_count(code_size, "code size")
    _check_radius(s, n)
    return _pigeonhole_floor(code_size, _ball_size(q, m, n, s), q ** (m * n))


def _pigeonhole_floor(code_size: int, bv: int, space: int) -> int:
    """ceil(|C| * |B_s| / q^(mn)) for a ball of ``bv`` offsets in a space of
    ``space`` vectors."""
    return -((-code_size * bv) // space)


def pigeonhole_loose_form(code_size: int, q: int, m: int, n: int, s: int) -> Fraction:
    """The looser closed form |C| * q^(sm) / q^(mn).

    Equals q^(nm(R + rho - 1)) for rho = s/n and R = log_q|C|/(mn); it
    drops the q^(s(n-s)) factor of the exact ball lower bound, so it
    exceeds 1 exactly when R + rho > 1.
    """
    _check_count(code_size, "code size")
    _check_geometry(q, m, n)
    _check_radius(s, n)
    return Fraction(code_size * q ** (s * m), q ** (m * n))


def list_size_at(code: Code, center: RankVector, s: int, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Number of codewords within rank distance s of the center, by direct
    scan: the rank of each difference."""
    _check_member((center,), code.ctx, code.n, "center")
    _check_radius(s, code.n)
    ctx, n, sub = code.ctx, code.n, code.ctx.sub
    words = (_entries_of_index(ctx.order, n, w) for w in _packed_words(code, cap))
    return sum(1 for w in words if _rank_of_entries(ctx, tuple(map(sub, w, center.entries))) <= s)


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
    tables, one per eight-bit window that holds a pivot, highest first;
    ``of_indices`` runs each window's reads over a whole list in one pass,
    for the ball's packed offsets and the Monte Carlo draws alike.  For
    odd p a key is the digit string of that index, most significant
    first: ``bytes`` when n digits ``_fits``, a tuple of ints otherwise.
    Both compare like the index they spell.  ``of_indices`` reduces each
    index's digits row by row (``_reduce``); ``entry_keys`` reduces the
    entries of the ball's offsets the same way, for ``_tally`` to sum and
    ``summed`` to finish.
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
                    windows.append((max(top - 8, 0), {}))
                windows[-1][1][top] = basis[top]
            self.tables = []
            for low, rows in windows:
                # the reduction is F_2-linear: each window bit doubles the
                # table, the new half cleared by that bit's pivot row if any
                table = [0]
                for top in range(low + 1, low + 9):
                    row = rows.get(top, 0)
                    table += [t ^ row ^ table[row >> low & len(table) - 1] for t in table] if row else table
                self.tables.append((low, table))
            self.zero = 0
        else:
            digits = [_entries_of_index(p, width, v) for v in _fp_basis(code)]
            rows, pivots = rref_fq(digits, _default_base(p))
            self.rows = tuple(zip(pivots, rows))
            self.narrow = _fits(p, n)
            # each digit of a summed key sits in its own slot, wide enough for a sum of n digits
            self.slot = 8 if self.narrow else (n * (p - 1)).bit_length()
            self.enc = _Encoder(ctx)
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

    def of_indices(self, indices):
        """The coset key of each packed index, in order: for p = 2 one pass
        over the whole list per window, for odd p its digits reduced."""
        if self.p > 2:
            return [self._finish(self._reduce(_entries_of_index(self.p, self.width, x))) for x in indices]
        for low, table in self.tables:
            windows = map(and_, map(rshift, indices, repeat(low)), repeat(255))
            indices = list(map(xor, indices, map(table.__getitem__, windows)))
        return indices

    def index(self, key) -> int:
        """The packed index a key spells: the least vector of its coset."""
        return key if self.p == 2 else _index_of_entries(self.p, key)

    def entry_keys(self, tables) -> list[list[int]]:
        """For odd p, the key of each value of ``tables[j]`` as entry j of a
        vector, its digits in slots: keys are F_p-linear, so the key of a
        vector is the slotwise sum of its entries' keys, then ``summed``."""
        p, width, slot = self.p, self.width, self.slot
        places = [self.ctx.order**j for j in range(self.n - 1, -1, -1)]
        return [[_index_of_entries(1 << slot, self._reduce(_entries_of_index(p, width, x * place))) for x in table]
                for table, place in zip(tables, places)]

    def summed(self, sums):
        """The keys whose ``entry_keys`` sum to each of ``sums``, each slot
        reduced mod p."""
        if self.narrow:
            return self.enc.reduced(sums, self.width)
        slot, p, mask = self.slot, self.p, (1 << self.slot) - 1
        return (tuple((t >> sh & mask) % p for sh in range(slot * (self.width - 1), -1, -slot)) for t in sums)


def _tally(ctx, n: int, s: int, words, cosets=None) -> Counter:
    """The sparse tally of the module docstring: each pair (w, b) of a
    packed word and an offset of rank <= s adds one to center w + b, or
    with ``cosets`` to its coset key, so the counts sum to |words| * |B_s|
    and a missing key sees no word.  Keys come in order of their first
    (word, offset) pair, offsets in ``rankmetric._ball_layout`` order.
    The scatter tallies the codewords, the coset tally the one word 0."""
    order, p = ctx.order, ctx.base.p
    ball = _ball(ctx, n, s)
    tally = Counter()
    if p == 2:
        for w in words:
            keys = map(w.__xor__, ball.packed) if w else ball.packed
            tally.update(keys if cosets is None else cosets.of_indices(list(keys)))
        return tally
    values, runs = ball.layout
    shift = _shifter(p, values)  # its digit planes shared by every word
    for w in words:
        tables = list(map(shift, _entries_of_index(order, n, w)))
        if cosets is None:
            tally.update(_packed(runs, tables, order))
        else:
            tally.update(cosets.summed(_packed(runs, cosets.entry_keys(tables), 1)))
    return tally


def _key_count(ctx, n: int, s: int) -> int:
    """How many dependency keys a vector has at radius s; 0 at s = n, for
    q > 256, and when a sum of s + 1 digits does not ``_fits``."""
    q = ctx.base.q
    if s >= n or q > 256 or not _fits(ctx.base.p, s + 1):
        return 0
    return (q ** (s + 1) - 1) // (q - 1)


def _keys(ctx, n: int, s: int, packed, enc: _Encoder) -> list:
    """The dependency keys (module docstring) of packed vectors, where
    ``_key_count`` says they exist: one iterable per key, in the order of
    ``packed``, each one C-level ``map`` of ``_Encoder`` sums, to be read
    once."""
    order, q = ctx.order, ctx.base.q
    keys, sums = [], []
    for j in range(s + 1):
        column = list(map(mod, map(floordiv, packed, repeat(order ** (n - 1 - j))), repeat(order)))
        multiples = [enc.scaled(lam, column, ctx.m) for lam in range(1, q)]
        # the a whose first nonzero position is j: e_j, and each earlier a plus lam * e_j
        sums += [False] + [True] * (len(keys) * len(multiples))
        keys += [multiples[0], *(list(map(enc.plus, key, x)) for key in keys for x in multiples)]
    # only a key of two or more terms is reduced, once all are summed
    width = ctx.m * ctx.base.s
    return [enc.reduced(key, width) if more else key for key, more in zip(keys, sums)]


def _near(ctx, n: int, s: int, words, candidates, keyed: bool, probe: bool) -> dict:
    """The list size at each candidate, in candidate order, for packed
    codewords: the kernel of the module docstring.  The pairs it tests
    stream through three chained iterators, never a list: each tested
    candidate and its form, repeated once per codeword it is tested
    against, beside those codewords.  With ``probe`` a pair probes the
    offset set with c - w: c ^ w for p = 2, else the digits of c and -w,
    summed and reduced; else it ranks c - w on their entries."""
    order, enc = ctx.order, _Encoder(ctx)
    coords, width = n * ctx.m, n * ctx.m * ctx.base.s
    offsets = _ball(ctx, n, s).probes if probe else None

    def forms(xs, lam: int):
        # what a pair reads of a candidate (lam = 1) or of -w (lam = p - 1)
        if not probe:
            return [_entries_of_index(order, n, x) for x in xs]
        return enc.scaled(lam, xs, coords)

    words_forms = forms(words, ctx.base.p - 1)
    if keyed:
        reads = []
        for keys, wanted in zip(_keys(ctx, n, s, words, enc), _keys(ctx, n, s, list(candidates), enc)):
            index = {}
            for key, w in zip(keys, words_forms):
                index.setdefault(key, []).append(w)
            # tuples, so a sum of reads but one empty builds no new one
            reads.append(map(dict(zip(index, map(tuple, index.values()))).get, wanted, repeat(())))
        near = list(reduce(partial(map, add), reads))  # each one's sharers under every key
    else:
        near = [words_forms] * len(candidates)
    # only a candidate that shares a key with some codeword is tested
    tested, near = list(compress(candidates, near)), list(filter(None, near))
    if keyed:  # against each sharer once, though it may share several keys
        near = list(map(dict.fromkeys, near))
    sharers = list(map(len, near))
    owners = chain.from_iterable(map(repeat, tested, sharers))
    cs = chain.from_iterable(map(repeat, forms(tested, 1), sharers))
    ws = chain.from_iterable(near)
    if probe:
        hits = map(offsets.__contains__, enc.reduced(map(enc.plus, cs, ws), width))
    else:
        hits = map(s.__ge__, map(_rank_of_entries, repeat(ctx), map(tuple, map(map, repeat(ctx.sub), ws, cs))))
    return {**dict.fromkeys(candidates, 0), **Counter(compress(owners, hits))}


def _translator(p: int, space: int):
    """The one digit step of the dense add: a function that moves a bitset
    of the space by a packed vector w, digitwise mod p.  For each nonzero
    base-p digit d of w at place P the positions whose digit there is below
    p - d move up by d * P, the others down by (p - d) * P.  Each (P, d)
    mask is built once and kept only as long as the function."""
    full, masks = (1 << space) - 1, {}

    def move(bits: int, w: int) -> int:
        place = 1
        while w:
            w, d = divmod(w, p)
            if d:
                below = masks.get((place, d))
                if below is None:
                    # one period of the pattern, doubled to cover the space
                    below, period = (1 << (p - d) * place) - 1, p * place
                    while period < space:
                        below |= below << period
                        period *= 2
                    below = masks[place, d] = below & full
                low = bits & below
                bits = low << d * place | (bits ^ low) >> (p - d) * place
            place *= p
        return bits

    return move


def _counters(ctx, n: int, s: int, words, span: bool = False) -> list[int]:
    """The list size of every center as bit-sliced counters, bit x of
    slice i being bit i of the count at packed index x: the dense add of
    the module docstring, the ball's bitset translated by each packed word,
    or with ``span`` folded along the words as an F_p basis (each basis
    word c adding to the slices their translates by c, 2c, ...,
    (p - 1)c), every translate added by ``_add_slices``."""
    p = ctx.base.p
    move = _translator(p, ctx.order**n)
    ball = [_ball(ctx, n, s).bits]
    slices = ball if span else []
    for w in words:
        moved = slices if span else ball
        for _ in range(p - 1 if span else 1):
            moved = [move(x, w) for x in moved]
            slices = _add_slices(slices, moved)
    return slices


def _add_slices(a: list[int], b: list[int]) -> list[int]:
    """The bit-sliced sum of two sets of ``_counters``, by ripple carry:
    past the shorter set the longer one's slices take the carry alone and
    are kept as they are once none is left."""
    if len(a) < len(b):
        a, b = b, a
    out, carry = [], 0
    for x, y in zip(a, b):
        t = x ^ y
        out.append(t ^ carry if carry else t)
        carry = x & y | carry & t if carry else x & y
    for i in range(len(b), len(a)):
        if not carry:
            return out + a[i:]
        out.append(a[i] ^ carry)
        carry &= a[i]
    return out + [carry] if carry else out


def _top(slices: list[int]) -> tuple[int, int, int]:
    """The exhaustive answer of a dense add: (the largest count, the least
    packed index that has it, the sum of the counts), the largest read from
    the top slice down, keeping the centers of a slice whenever any is
    left."""
    centers, best = -1, 0
    for i in range(len(slices) - 1, -1, -1):
        top = centers & slices[i]
        if top:
            centers, best = top, best | 1 << i
    total = sum(x.bit_count() << i for i, x in enumerate(slices))
    return best, (centers & -centers).bit_length() - 1, total


def _least(tally: Counter, index=int) -> tuple[int, int, int]:
    """The exhaustive answer of a sparse tally, as ``_top``'s: ``index``
    spells a key as the packed index it is, or a coset key as the least
    index of its coset, so the least key is the least center."""
    best = max(tally.values())
    return best, index(min(key for key, count in tally.items() if count == best)), sum(tally.values())


def _double_count(kernel: str, total: int, expected: int) -> None:
    """Refuse a sweep whose counts do not sum to their closed form: |C| *
    |B_s| for the scatter, the counters and the fold, |B_s| for the coset
    tally."""
    if total != expected:
        raise RuntimeError(f"{kernel} counts sum to {total}, not {expected}")


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
        workers: checked to be >= 1, kept for callers that pass it;
            every route runs in this process, so it changes neither the
            report nor the process count.

    Returns:
        A ListReport; exhaustive ties for the maximum resolve to the
        first center in lexicographic order, Monte Carlo ties to the
        first candidate scored, read by one reader for every Monte Carlo
        route (the largest count, then its first candidate).
    """
    _check_radius(s, code.n)
    if centers < 0:
        raise ValueError(f"need centers >= 0, got {centers}")
    _check_count(workers, "workers")
    ctx = code.ctx
    n = code.n
    space = ctx.order**n
    bv = _ball_size(ctx.base.q, ctx.m, n, s)
    lb = _pigeonhole_floor(code.size, bv, space)
    drawn = None  # exhaustive
    if mode == "montecarlo":
        _check_word_cap(code.size, cap)
        drawn = list(dict.fromkeys(islice(draws(seed, space), centers)))
    elif mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    else:
        _check_space(ctx, n, cap)
    linear = isinstance(code, (LinearCode, GabidulinCode))
    route = _route(ctx, n, s, bv, code.size, linear, None if drawn is None else len(drawn), cap, neighborhood_cap)
    if route == "fold":
        slices = _counters(ctx, n, s, _fp_basis(code), span=True)
    elif route == "counters":
        slices = _counters(ctx, n, s, _packed_words(code, cap))
    elif route in ("coset", "far-coset"):
        # the list size at x is the number of offsets in the coset of x
        cosets = _CosetKeys(code)
        tally = _tally(ctx, n, s, [0], cosets)
    elif route in ("scatter", "neighborhood"):
        tally = _tally(ctx, n, s, _packed_words(code, cap))
    else:
        words = _packed_words(code, cap)
        candidates = dict.fromkeys([*words, *drawn])
        tally = _near(ctx, n, s, words, candidates, route.endswith("-keyed"), route.startswith("probe"))
    if drawn is None:
        # the one exhaustive answer: every route's counts, read and checked here
        dense = route in ("fold", "counters")
        best, center, total = _top(slices) if dense else _least(tally, cosets.index if route == "coset" else int)
        _double_count(route if dense else f"{route} tally", total, bv if route == "coset" else code.size * bv)
        tried = space
    else:
        if route == "far-coset":
            # the codewords lead the candidates, all in the coset of zero and
            # led by the zero word; each new random center is scored by its
            # coset, and one in the zero coset is a codeword, already tried
            keys = cosets.of_indices(drawn)
            candidates, counts = [0, *drawn], [tally[cosets.zero], *map(tally.get, keys, repeat(0))]
            tried = code.size + len(keys) - keys.count(cosets.zero)
        else:
            # the neighborhood tally holds every center that sees any
            # codeword at all, so a draw it never met sees none and cannot
            # lead; ``_near`` counts every candidate, draws included
            candidates, counts = tally, tally.values()
            tried = len(tally) + len(drawn) - sum(map(tally.__contains__, drawn))
        # the one Monte Carlo answer: the first candidate with the largest count
        best = max(counts)
        center = next(compress(candidates, map(best.__eq__, counts)))
    return ListReport(s, best, vector_from_index(ctx, n, center), drawn is None, tried, lb)


# CPython time per step in about 0.1 us, (p = 2, odd p), fitted on
# in-process timings of each route
_PRICES = {
    "pair": (2, 5),  # one (codeword, offset) count of the scatter tally
    "op": (2, 5),  # one big-int operation of the counters
    "kb": (3, 5),  # and per KB of the space's bitset
    "bit": (1, 4),  # per ball offset of its bitset, above the cost of the span-table build
    "coset": (2, 12),  # the coset key of a ball offset, in the byte slots
    "table": (1, 30),  # a coset key table entry: per window and pivot row for p = 2, a span value for odd p
    "center": (15, None),  # the coset key of a random center; odd p reduces its digits, priced as a rank
    "key": (3, 4),  # one dependency key of a candidate
    "hit": (15, 20),  # a candidate tested against its key sharers
    "probe": (2, 5),  # one probe of the offset set
    "set": (1, 4),  # one offset added to the offset set
}


def _route(ctx, n: int, s: int, bv: int, size: int, linear: bool, draws, cap: int, neighborhood_cap: int) -> str:
    """The name of the route a ``max_list_size`` call takes, for a code of
    ``size`` words, a ball of ``bv`` offsets and ``draws`` random centers
    (None in exhaustive mode), priced as the module docstring says: one of
    "counters", "scatter", "fold", "coset" (exhaustive) or "neighborhood",
    "far-coset", "probe", "probe-keyed", "rank", "rank-keyed"."""
    q, p, m = ctx.base.q, ctx.base.p, ctx.m
    price = {step: cost[p > 2] for step, cost in _PRICES.items()}
    if draws is None:
        op = price["op"] + price["kb"] * ctx.order**n // 8192
        digits = n * m * ctx.base.s
        translate = 3 * digits * op
        bitset = 10 * op + bv * price["bit"]
        if not linear:
            counters = size * translate + bitset
            return "counters" if counters < size * bv * price["pair"] else "scatter"
        dim = round(math.log(size, p))  # words in the F_p basis
        # before basis word j a count is at most min(p^j, |B_s|); each translate
        # of a slice is added by ripple carry, about five ops
        slices = sum(min(p**j, bv).bit_length() for j in range(dim))
        fold = (p - 1) * slices * (translate + 5 * op) + bitset
        # the key tables: for p = 2, 256 entries per eight-bit window and per
        # pivot row; for odd p one per span value at each entry position, the
        # span values being q^u for each u-dimensional subspace of F_q^m, u <= s
        if p == 2:
            tables = 256 * (min(dim, -(-digits // 8)) + dim)
        else:
            tables, subspaces = 0, 1
            for u in range(s + 1):
                tables += n * subspaces * q**u
                subspaces = subspaces * (q ** (m - u) - 1) // (q ** (u + 1) - 1)
        coset = bv * price["coset"] + tables * price["table"]
        return "fold" if fold < coset else "coset"
    if size * bv <= min(neighborhood_cap, cap):
        return "neighborhood"
    tried = size + draws  # at most this many candidates
    rank = 10 + 4 * n if q == 2 else 60 + 8 * n * m
    keys = _key_count(ctx, n, s)
    keyed = "-keyed" if 0 < keys < size else ""  # the suffix of a kernel that keys
    # a random candidate shares a key with about keys * |C| / q^m codewords
    pairs = min(tried * size, -(-tried * keys * size // ctx.order) + size) if keyed else tried * size
    kernel = (tried * keys * price["key"] if keyed else 0) + min(tried, pairs) * price["hit"]
    costs = {"rank" + keyed: kernel + pairs * rank}
    if bv <= cap:
        build = bv * (5 + 40 // n)
        if p == 2 or (_fits(p, 2) and q <= 256):
            costs["probe" + keyed] = kernel + pairs * price["probe"] + build + bv * price["set"]
        if linear:
            # past the byte slots a coset key is a tuple, priced like a ranked pair
            key = price["coset"] if _fits(p, n) else rank
            costs["far-coset"] = bv * key + build + draws * (rank if p > 2 else price["center"])
    else:
        _check_pair_cap(size * tried, cap, f"Monte Carlo codeword-center pairs, with a ball of {bv} offsets")
    return min(costs, key=costs.get)


def is_list_decodable(code: Code, s: int, list_cap: int, **kwargs) -> bool:
    """Whether every radius-s ball holds at most ``list_cap`` codewords.

    Only meaningful as a certificate in exhaustive mode; in Monte Carlo
    mode a True answer is merely "no violation found".
    """
    _check_count(list_cap, "list cap")
    return max_list_size(code, s, **kwargs).l_max <= list_cap


def decoding_radius(code: Code, list_cap: int, **kwargs) -> Fraction:
    """Largest s/n such that the code is (s/n, list_cap)-list-decodable."""
    best = 0  # a radius-0 ball holds at most one of the distinct codewords
    while best < code.n and is_list_decodable(code, best + 1, list_cap, **kwargs):
        best += 1
    return Fraction(best, code.n)


def radius_from_fraction(rho, n: int) -> int:
    """Quantize a radius fraction onto the lattice: s = floor(rho * n)."""
    rho = Fraction(rho)
    _check_unit(rho, "rho")
    return math.floor(rho * n)
