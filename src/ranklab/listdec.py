"""List-decodability probes: list sizes at centers, worst-case list
sizes over the whole space, decoding radii, and pigeonhole floors.

Worst-case list sizes come from one scatter kernel: every codeword w
and every offset b of rank <= s add one to the tally of the center
w + b, so one pass of |C| * |B_s| additions gives the list size of every
center that sees any codeword at all, and the counts sum to |C| * |B_s|,
the double count behind the pigeonhole floor.  The exhaustive maximum
and the Monte Carlo neighborhood are read off this tally; a single
center, or a Monte Carlo center far from that neighborhood, is scored
by scanning the codewords against it.  Splitting the codewords over
workers sums partial tallies, so reports do not depend on the worker
count, and exhaustive ties resolve to the first center in lexicographic
order.
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
    _iter_ball,
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


def _scatter(ctx, n: int, s: int, words) -> Counter:
    """Tally of w + b over codewords w and offsets b of rank <= s."""
    tables = list(_iter_ball_tables(ctx, n, s))
    return Counter(center for w in words for center in _iter_ball(ctx, w, tables))


def _tally(ctx, n: int, s: int, words, workers: int = 1) -> Counter:
    """The list size of every center within rank distance s of some codeword.

    Each pair (w, b) of a codeword and an offset of rank <= s adds one to
    the count of center w + b, so the counts sum to |C| * |B_s| and a
    center missing from the tally sees no codeword.  Centers are keyed
    in order of their first (codeword, offset) pair.  With ``workers``
    > 1 the codewords are split into consecutive chunks whose partial
    tallies are summed in chunk order, which gives the same counts in
    the same key order.
    """
    chunks = min(workers, len(words))
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
            codewords themselves, their low-rank perturbations when that
            set is small (read off the same tally), and ``centers``
            uniform random centers, reporting a lower bound flagged
            exhaustive=False.
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
    ctx = code.ctx
    n = code.n
    space = ctx.order**n
    lb = pigeonhole_lower_bound(code.size, ctx.base.q, ctx.m, n, s)
    if mode == "exhaustive":
        if space > cap:
            raise EnumerationCapExceeded(
                f"{space} centers to scan, above the cap of {cap}; use montecarlo"
            )
        tally = _tally(ctx, n, s, _scan_codewords(code, cap), workers)
        best = max(tally.values())
        # entry tuples compare in lexicographic (vector_index) order
        best_entries = min(c for c, count in tally.items() if count == best)
        return ListReport(
            radius_s=s,
            l_max=best,
            argmax_center=RankVector(ctx, best_entries),
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
    candidates = dict.fromkeys(words if tally is None else tally)
    rng = make_rng(seed)
    for _ in range(centers):
        candidates.setdefault(vector_from_index(ctx, n, rng.randrange(space)).entries, None)
    best, best_entries = -1, None
    for entries in candidates:
        count = _count_near(ctx, words, entries, s) if tally is None else tally[entries]
        if count > best:
            best, best_entries = count, entries
    return ListReport(
        radius_s=s,
        l_max=best,
        argmax_center=RankVector(ctx, best_entries),
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
