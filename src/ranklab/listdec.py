"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Worst-case list sizes come from one scatter kernel: every codeword w
and every offset b of rank <= s add one to the tally of the center
w + b, so one pass of |C| * |B_s| additions gives the list size of every
center that sees any codeword at all, and the counts sum to |C| * |B_s|,
the double count behind the pigeonhole floor.  The tally is keyed by
packed vector index (``vector_index``: base-q^m digits, entry 0 most
significant).  In characteristic 2 entry codes add by XOR, and so do
packed vectors, so the ball offsets are packed once per call and the
key of w + b is w ^ b.  For odd q each span table of the ball is
shifted by each entry of w and scaled by that entry's place value, and
a key is the sum of n table reads: addition is digitwise inside an
entry, so no carry crosses an entry boundary.

The exhaustive maximum and the Monte Carlo neighborhood are read off
this tally.  Monte Carlo centers far from that neighborhood are scored
by the same scatter restricted to the candidate set when its
|C| * |B_s| probes cost no more than scanning |candidates| * |C| pairs:
a probe does at most n table reads (one XOR in characteristic 2) and a
scanned pair n entry subtractions plus an elimination, so the scatter
runs when |B_s| <= n * |candidates|.  Otherwise, and for a single
center, the codewords are scanned against each center.  Splitting the
codewords over workers sums partial tallies, so reports do not depend
on the worker count, and exhaustive ties resolve to the least packed
index, which is the first center in lexicographic order.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .codes import Code, enumerate_codewords
from .errors import EnumerationCapExceeded
from .rankmetric import (
    DEFAULT_ENUM_CAP,
    RankVector,
    _entries_of_index,
    _index_of_entries,
    _iter_ball_tables,
    _rank_of_entries,
    ball_volume,
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


def _ball_keys(ctx, n: int, s: int):
    """A function from a codeword's entries to the packed keys of w + b.

    The keys come in ``_iter_ball`` offset order, one per offset b of
    rank <= s, so a tally fed codeword by codeword keys its centers in
    (codeword, offset) order.  The span tables of the ball sit side by
    side in one list, and column j lists where entry j of each offset
    sits in it; a codeword shifts the list by each of its entries, once.
    """
    values = []
    columns = [[] for _ in range(n)]
    for span, factors in _iter_ball_tables(ctx, n, s):
        start = len(values)
        for column, cols in zip(columns, zip(*factors)):
            column.extend([start + c for c in cols])
        values.extend(span)
    order = ctx.order
    places = [order**j for j in range(n - 1, -1, -1)]
    add = ctx.add

    def keys(w):
        reads = [
            map([add(e, x) * place for x in values].__getitem__, column)
            for e, place, column in zip(w, places, columns)
        ]
        return map(sum, zip(*reads))

    if ctx.base.p == 2:
        offsets = list(keys((0,) * n))
        return lambda w: map(_index_of_entries(order, w).__xor__, offsets)
    return keys


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
            ambient space (requires q^(mn) <= cap), read off the tally
            of every center near some codeword; "montecarlo" scores the
            codewords themselves, their low-rank perturbations when
            |C| * |B_s| <= min(neighborhood_cap, cap) (read off the same
            tally), and ``centers`` uniform random centers, reporting a
            lower bound flagged exhaustive=False.  Without the
            perturbations, the candidates are scored by the tally
            restricted to them when |B_s| <= n * |candidates| and by
            scanning the codewords against each one otherwise.
        centers: number of uniform random Monte Carlo centers, >= 0.
        seed: RNG seed for Monte Carlo centers.
        workers: process count for splitting the codewords of the
            exhaustive tally; the report is identical for any worker
            count.

    Returns:
        A ListReport; exhaustive ties for the maximum resolve to the
        first center in lexicographic order, Monte Carlo ties to the
        first candidate scored.
    """
    if not 0 <= s <= code.n:
        raise ValueError(f"need 0 <= s <= n, got s = {s}")
    if centers < 0:
        raise ValueError(f"need centers >= 0, got {centers}")
    ctx = code.ctx
    n = code.n
    order = ctx.order
    space = order**n
    lb = pigeonhole_lower_bound(code.size, ctx.base.q, ctx.m, n, s)
    if mode == "exhaustive":
        if space > cap:
            raise EnumerationCapExceeded(
                f"{space} centers to scan, above the cap of {cap}; use montecarlo"
            )
        tally = _tally(ctx, n, s, _scan_codewords(code, cap), workers)
        best = max(tally.values())
        best_key = min(key for key, count in tally.items() if count == best)
        return ListReport(
            radius_s=s,
            l_max=best,
            argmax_center=vector_from_index(ctx, n, best_key),
            exhaustive=True,
            centers_tried=space,
            pigeonhole_lb=lb,
        )
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    words = _scan_codewords(code, cap)
    bv = ball_volume(ctx.base.q, ctx.m, n, s).exact
    tally = None
    if code.size * bv <= min(neighborhood_cap, cap):
        # every center that sees any codeword at all lives in this tally,
        # so small instances get the true maximum even in this mode
        tally = _tally(ctx, n, s, words)
    if tally is None:
        candidates = dict.fromkeys(_index_of_entries(order, w) for w in words)
    else:
        candidates = dict.fromkeys(tally)
    rng = make_rng(seed)
    for _ in range(centers):
        candidates.setdefault(rng.randrange(space), None)
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
