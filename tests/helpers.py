"""Shared oracles and process helpers for the test suite.

Everything here re-derives results through routes deliberately different
from the library implementation: determinants by permutation expansion,
rank by minor enumeration, extension-field products by schoolbook
polynomial arithmetic on digit lists, irreducibility by trial
division.  Expected values frozen into the
tests were produced by these oracles.
"""

import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import ranklab


def perm_sign(perm):
    """Sign of a permutation given as a tuple of images."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def det_mod(rows, p):
    """Determinant of a square matrix over Z/pZ by permutation expansion."""
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        term = perm_sign(perm)
        for i in range(size):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def minor_rank(rows, p):
    """Rank over Z/pZ as the largest u with a nonsingular u-by-u submatrix."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    best = 0
    for u in range(1, min(n_rows, n_cols) + 1):
        found = False
        for rsub in itertools.combinations(range(n_rows), u):
            for csub in itertools.combinations(range(n_cols), u):
                sub = tuple(tuple(rows[i][j] for j in csub) for i in rsub)
                if det_mod(sub, p) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = u
        else:
            break
    return best


def all_matrices(p, n_rows, n_cols):
    """Every n_rows-by-n_cols matrix with entries in Z/pZ, in a fixed order."""
    cells = n_rows * n_cols
    for flat in itertools.product(range(p), repeat=cells):
        yield tuple(
            tuple(flat[i * n_cols + j] for j in range(n_cols))
            for i in range(n_rows)
        )


def int_digits(value, base, width):
    """Base-`base` digits of `value`, least significant first, zero padded."""
    out = []
    v = value
    for _ in range(width):
        out.append(v % base)
        v //= base
    return out


def int_undigits(ds, base):
    out = 0
    for d in reversed(ds):
        out = out * base + d
    return out


def poly_product_mod(a_code, b_code, p, modulus):
    """Product of two degree-m extension elements over a prime field.

    Elements are encoded as integers whose base-p digits (least
    significant first) are polynomial coefficients.  `modulus` is the
    monic modulus polynomial as a coefficient tuple, lowest degree
    first, with leading coefficient 1.  Schoolbook multiply, then long
    division by the modulus.
    """
    deg = len(modulus) - 1
    a = int_digits(a_code, p, deg)
    b = int_digits(b_code, p, deg)
    prod = [0] * (2 * deg - 1 if deg > 0 else 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, deg - 1, -1):
        coeff = prod[top]
        if coeff:
            prod[top] = 0
            for k in range(deg):
                idx = top - deg + k
                prod[idx] = (prod[idx] - coeff * modulus[k]) % p
    return int_undigits(prod[:deg], p)


def tower_product(a_code, b_code, base, ext_modulus):
    """Product of two F_{q^m} element codes over the FieldCtx ``base``.

    Schoolbook multiply and long division by the monic ``ext_modulus``
    on base-q digits; each coefficient product is ``poly_product_mod``
    over F_p (a prime base is the residue ring mod the polynomial x),
    and coefficients add base-p digit by digit.  Only ``base.p``,
    ``base.q`` and ``base.modulus`` are read.
    """
    p, q = base.p, base.q
    base_modulus = base.modulus or (0, 1)
    width = len(base_modulus) - 1

    def add(x, y, sign=1):
        xs, ys = int_digits(x, p, width), int_digits(y, p, width)
        return int_undigits([(u + sign * v) % p for u, v in zip(xs, ys)], p)

    m = len(ext_modulus) - 1
    a = int_digits(a_code, q, m)
    b = int_digits(b_code, q, m)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = add(prod[i + j], poly_product_mod(ai, bj, p, base_modulus))
    for top in range(len(prod) - 1, m - 1, -1):
        coeff = prod[top]
        prod[top] = 0
        for k in range(m):
            prod[top - m + k] = add(prod[top - m + k], poly_product_mod(coeff, ext_modulus[k], p, base_modulus), -1)
    return int_undigits(prod[:m], q)


def monic_remainder(num, den, field):
    """Remainder of ``num`` by the monic ``den`` by long division.

    Both are little-endian coefficient lists over the FieldCtx ``field``.
    """
    rem = list(num)
    dd = len(den) - 1
    for top in range(len(rem) - 1, dd - 1, -1):
        coeff = rem[top]
        if coeff:
            for k in range(dd + 1):
                idx = top - dd + k
                rem[idx] = field.sub(rem[idx], field.mul(coeff, den[k]))
    return rem[:dd]


def trial_division_irreducible(poly, field):
    """Irreducibility of a monic polynomial by exhaustive trial division.

    ``poly`` is irreducible iff no monic divisor of degree 1 to deg/2
    leaves a zero remainder.
    """
    deg = len(poly) - 1
    q = field.q
    for div_deg in range(1, deg // 2 + 1):
        for code in range(q**div_deg):
            divisor = int_digits(code, q, div_deg) + [1]
            if not any(monic_remainder(poly, divisor, field)):
                return False
    return True


def rank_mod_p(cols, p):
    """Rank over Z/pZ of a list of coordinate vectors.

    Row reduction with inverses from Fermat's little theorem, pivoting
    on the first nonzero entry of each column in turn.
    """
    rows = [list(c) for c in cols]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        lead = [v * inv % p for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], lead)]
        rank += 1
    return rank


def xor_rank(masks):
    """Rank over F_2 of vectors packed as bitmasks.

    Each vector is reduced against the basis so far by keeping the
    smaller of v and v ^ b, which clears b's leading bit from v.
    """
    basis = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def span_rank(ctx, entries):
    """F_q-rank of elements of F_{q^m}: log_q of the size of their F_q-span,
    grown one element at a time by all its F_q-multiples."""
    q = ctx.base.q
    span = {0}
    for e in entries:
        span = {ctx.add(x, ctx.scale(c, e)) for x in span for c in range(q)}
    u = 0
    while q**u < len(span):
        u += 1
    if q**u != len(span):
        raise AssertionError(f"a span of {len(span)} elements is no power of {q}")
    return u


memo_span_rank = functools.cache(span_rank)


def full_rank_factors_by_filter(field, u, n):
    """Every full-rank u x n matrix over F_q as its n column values
    sum_k R[k][j] q^k, by ranking all q^(un) candidates in
    ``itertools.product`` order of the flattened rows and keeping rank u.
    """
    from ranklab.rankmetric import rank_fq

    q = field.q
    out = []
    for flat in itertools.product(range(q), repeat=u * n):
        rows = tuple(flat[k * n : (k + 1) * n] for k in range(u))
        if rank_fq(rows, field) == u:
            out.append(tuple(sum(rows[k][j] * q**k for k in range(u)) for j in range(n)))
    return out


def rref_pivots(rows):
    """Pivot columns of a matrix over F_q if it is in reduced row echelon
    form with no zero row, else None: each row's first nonzero entry is
    a 1, strictly right of the row above, alone in its column."""
    pivots = []
    for row in rows:
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            return None
        pivots.append(lead)
    for i, lead in enumerate(pivots):
        if any(rows[h][lead] for h in range(len(rows)) if h != i):
            return None
    return tuple(pivots)


def span_tables_by_rref(ctx, u):
    """The F_q-span table of every u-dimensional subspace of F_q^m, in
    the order ``_span_tables`` promises, by filtering all q^(um)
    u x m matrices for the full-rank RREF ones.

    They are ordered by (pivot tuple, free entries row-major).  Entry
    sum_k t_k q^k of a table is the element with coordinate j equal to
    sum_k t_k * rows[k][j], products by ``poly_product_mod`` and sums
    digit by digit in base p, coordinate j the base-q digit of weight
    q^j.
    """
    base = ctx.base
    p, q, m = base.p, base.q, ctx.m
    base_modulus = base.modulus or (0, 1)
    width = len(base_modulus) - 1

    def add(x, y):
        return int_undigits([(a + b) % p for a, b in zip(int_digits(x, p, width), int_digits(y, p, width))], p)

    found = []
    for rows in itertools.product(itertools.product(range(q), repeat=m), repeat=u):
        pivots = rref_pivots(rows)
        if pivots is not None:
            free = [rows[i][j] for i in range(u) for j in range(m) if j > pivots[i] and j not in pivots]
            found.append(((pivots, free), rows))
    tables = []
    for _, rows in sorted(found):
        table = []
        for t in range(q**u):
            coeffs = int_digits(t, q, u)
            coords = [0] * m
            for k, c in enumerate(coeffs):
                for j in range(m):
                    coords[j] = add(coords[j], poly_product_mod(c, rows[k][j], p, base_modulus))
            table.append(int_undigits(coords, q))
        tables.append(table)
    return tables


def ball_by_tables(ctx, center, r):
    """The entry tuples of center + b for every offset b of rank <= r, in
    the order the package reads the ball: shell by shell in ascending
    rank u, one ``_span_tables`` table at a time with the shell's
    ``_factor_columns``, each span value added to every distinct center
    entry with ``ExtCtx.add``, and entry j of the i-th factor read by
    plain indexing at ``columns[j][i]``."""
    from ranklab.rankmetric import _factor_columns, _span_tables

    out = []
    for u in range(r + 1):
        columns = _factor_columns(ctx.base, u, len(center))
        for span in _span_tables(ctx.base, ctx.m, u):
            shifted = {e: [ctx.add(e, x) for x in span] for e in center}
            for i in range(len(columns[0])):
                out.append(tuple(shifted[e][column[i]] for e, column in zip(center, columns)))
    return out


def codewords_by_kind(code):
    """Every codeword's entry tuple, one loop per code kind: an explicit
    code's words in turn; a linear code's F_q-combinations sum c_i w_i
    and a Gabidulin code's evaluations sum a_i g^(q^i), each over its
    coefficients in ``itertools.product`` order, combined entry by entry
    with ``ExtCtx`` arithmetic."""
    from ranklab.codes import ExplicitCode, LinearCode

    if isinstance(code, ExplicitCode):
        return [w.entries for w in code.words]
    ctx, n = code.ctx, code.n
    if isinstance(code, LinearCode):
        rows = [w.entries for w in code.basis]
        coeffs, times = range(ctx.base.q), ctx.scale
    else:
        rows = [[ctx.frobenius(g, i) for g in code.points] for i in range(code.k)]
        coeffs, times = range(ctx.order), ctx.mul
    out = []
    for message in itertools.product(coeffs, repeat=len(rows)):
        entries = [0] * n
        for c, row in zip(message, rows):
            if c:
                entries = [ctx.add(e, times(c, x)) for e, x in zip(entries, row)]
        out.append(tuple(entries))
    return out


def far_branch_oracle(code, s, centers, seed):
    """The Monte Carlo far branch by brute force, over a prime base field.

    The candidates are the codewords, then ``centers`` draws of
    ``make_rng(seed).randrange(q^(mn))`` read as vector indices, each
    kept at its first occurrence.  Every (candidate, codeword) pair is
    ranked on the coordinates of its difference (over F_2 an entry code
    is its own coordinate bitmask), and ties go to the first candidate.
    Returns (l_max, argmax entries, candidates tried).
    """
    from ranklab.codes import enumerate_codewords
    from ranklab.rng import make_rng

    ctx, n = code.ctx, code.n
    p, order = ctx.base.q, ctx.order
    if ctx.base.s != 1:
        raise ValueError("the oracle ranks over a prime base field")
    words = [w.entries for w in enumerate_codewords(code)]
    candidates = dict.fromkeys(words)
    rng = make_rng(seed)
    for _ in range(centers):
        index = rng.randrange(order**n)
        candidates.setdefault(tuple(reversed(int_digits(index, order, n))), None)

    def coords(entries):
        return entries if p == 2 else [int_digits(e, p, ctx.m) for e in entries]

    def rank(x, y):
        if p == 2:
            return xor_rank([a ^ b for a, b in zip(x, y)])
        return rank_mod_p([[(a - b) % p for a, b in zip(u, v)] for u, v in zip(x, y)], p)

    word_coords = [coords(w) for w in words]
    best, best_center = -1, None
    for center in candidates:
        center_coords = coords(center)
        count = sum(1 for wc in word_coords if rank(wc, center_coords) <= s)
        if count > best:
            best, best_center = count, center
    return best, best_center, len(candidates)


def coset_tally(cosets, s):
    """The coset tally of the code whose ``listdec._CosetKeys`` are
    ``cosets``: the sparse tally of the one word 0, keyed mod C."""
    from ranklab.listdec import _tally

    return _tally(cosets.ctx, cosets.n, s, [0], cosets)


def forbid_the_scatter(monkeypatch, message):
    """Let ``listdec._tally`` run only as the coset tally: a call without
    coset keys, or with a word other than 0, tallies codewords."""
    from ranklab import listdec

    real = listdec._tally

    def coset_only(ctx, n, s, words, cosets=None):
        if cosets is None or list(words) != [0]:
            raise AssertionError(message)
        return real(ctx, n, s, words, cosets)

    monkeypatch.setattr(listdec, "_tally", coset_only)


def coset_route_oracle(code, s, drawn):
    """The Monte Carlo coset route, one draw at a time: the zero word's
    count leads, then each distinct draw outside the zero coset is keyed
    alone (``_CosetKeys.of_indices`` of that draw only), counted as tried,
    and wins only with a strictly larger count.  Returns (l_max, argmax
    index, candidates tried)."""
    from ranklab.listdec import _CosetKeys

    cosets = _CosetKeys(code)
    tally = coset_tally(cosets, s)
    best, best_index, tried = tally[cosets.zero], 0, code.size
    for x in dict.fromkeys(drawn):
        (key,) = cosets.of_indices([x])
        if key != cosets.zero:
            tried += 1
            if tally[key] > best:
                best, best_index = tally[key], x
    return best, best_index, tried


def xor_window_tables(code):
    """The characteristic-2 coset key tables entry by entry: the rows of
    the code's ``_xor_basis``, keyed by top bit, go to eight-bit windows
    from the highest pivot down, a window reaching eight bits below its
    first pivot's top; entry v of a window's table is the XOR of its rows,
    highest pivot first, that clears each pivot bit of v shifted to the
    window.  Returns [(low bit, 256 entries)] per window, highest first."""
    from ranklab.codes import _fp_basis
    from ranklab.rankmetric import _xor_basis

    basis = _xor_basis(_fp_basis(code))
    windows = []
    for top in sorted(basis, reverse=True):
        if not windows or top <= windows[-1][0]:
            windows.append((max(top - 8, 0), []))
        windows[-1][1].append((top - 1, basis[top]))
    tables = []
    for low, pivot_rows in windows:
        table = []
        for v in range(256):
            out = 0
            for bit, row in pivot_rows:
                if ((v << low) ^ out) >> bit & 1:
                    out ^= row
            table.append(out)
        tables.append((low, table))
    return tables


def coset_oracle(code, s):
    """``coset_partition_check`` by brute force.

    Walks every vector y of the space in ``flatten_vector`` order (entry
    0's coordinates first, constant term first), so the first vector of
    each coset seen is the first of that coset in this order.  A coset is
    y plus every codeword, added coordinate by coordinate in F_q.  Its
    count is the number of its members of rank <= s, each ranked by the
    size of its entries' F_q-span (``span_rank``, memoized across calls,
    as a test calls the oracle once per radius).  Returns (coset count,
    total, max count, entries of the first coset attaining the max).
    """
    from ranklab.codes import enumerate_codewords

    ctx, n = code.ctx, code.n
    field, q, m = ctx.base, ctx.base.q, ctx.m
    words = [[c for e in w.entries for c in int_digits(e, q, m)] for w in enumerate_codewords(code)]

    def entries(coords):
        return tuple(int_undigits(coords[j * m : (j + 1) * m], q) for j in range(n))

    seen = set()
    cosets = total = 0
    best, best_rep = -1, None
    for y in itertools.product(range(q), repeat=m * n):
        if y in seen:
            continue
        coset = [tuple(map(field.add, y, w)) for w in words]
        seen.update(coset)
        count = sum(1 for v in coset if memo_span_rank(ctx, entries(v)) <= s)
        cosets += 1
        total += count
        if count > best:
            best, best_rep = count, y
    return cosets, total, best, entries(best_rep)


# Critical value of the chi-squared distribution with 15 degrees of
# freedom at significance 0.001.  A uniformity test statistic above this
# would occur by chance about once per thousand runs.
CHI2_DF15_ALPHA_001 = 37.697


def key_count_oracle(ctx, n, s):
    """``listdec._key_count`` with its byte limit written inline, as it was
    before the limit moved behind ``rankmetric._fits``."""
    q, p = ctx.base.q, ctx.base.p
    if s >= n or q > 256 or (p > 2 and (s + 1) * (p - 1) > 255):
        return 0
    return (q ** (s + 1) - 1) // (q - 1)


def far_route_oracle(ctx, n, s, bv, size, draws, cap, linear):
    """The far rows of ``listdec._route`` with their byte limits written
    inline: the probe offered for p = 2, or p <= 127 and q <= 256, and a
    coset key priced like a rank for odd p when n * (p - 1) > 255."""
    from ranklab.errors import EnumerationCapExceeded
    from ranklab.listdec import _PRICES

    q, p, m = ctx.base.q, ctx.base.p, ctx.m
    price = {step: cost[p > 2] for step, cost in _PRICES.items()}
    tried = size + draws
    rank = 10 + 4 * n if q == 2 else 60 + 8 * n * m
    keys = key_count_oracle(ctx, n, s)
    keyed = 0 < keys < size
    pairs = min(tried * size, -(-tried * keys * size // ctx.order) + size) if keyed else tried * size
    kernel = (tried * keys * price["key"] if keyed else 0) + min(tried, pairs) * price["hit"]
    costs = {"rank": kernel + pairs * rank}
    if bv <= cap:
        build = bv * (5 + 40 // n)
        if p == 2 or (p <= 127 and q <= 256):
            costs["probe"] = kernel + pairs * price["probe"] + build + bv * price["set"]
        if linear:
            key = rank if p > 2 and n * (p - 1) > 255 else price["coset"]
            costs["coset"] = bv * key + build + draws * (rank if p > 2 else price["center"])
    elif size * tried > cap:
        raise EnumerationCapExceeded(f"{size * tried} pairs and a ball of {bv} offsets above {cap}")
    route = min(costs, key=costs.get)
    return route, keyed and route != "coset"


def sweep_route_oracle(ctx, n, s, bv, size, linear):
    """The sweep rows of ``listdec._route`` as they were written beside the
    inline byte limits, for the boundary shapes to be checked against."""
    import math

    from ranklab.listdec import _PRICES

    p, space = ctx.base.p, ctx.order**n
    price = {step: cost[p > 2] for step, cost in _PRICES.items()}
    op = price["op"] + price["kb"] * space // 8192
    digits = n * ctx.m * ctx.base.s
    translate = 3 * digits * op
    bitset = 10 * op + bv * price["bit"]
    if not linear:
        return "counters" if size * translate + bitset < size * bv * price["pair"] else "scatter"
    dim = round(math.log(size, p))
    slices = sum(min(p**j, bv).bit_length() for j in range(dim))
    fold = (p - 1) * slices * (translate + 5 * op) + bitset
    if p == 2:
        tables = 256 * (min(dim, -(-digits // 8)) + dim)
    else:
        q, m = ctx.base.q, ctx.m
        tables, subspaces = 0, 1
        for u in range(s + 1):
            tables += n * subspaces * q**u
            subspaces = subspaces * (q ** (m - u) - 1) // (q ** (u + 1) - 1)
    return "fold" if fold < bv * price["coset"] + tables * price["table"] else "coset"


def run_python(args, **kwargs):
    """Run this interpreter on ``args`` in a child process that imports
    ranklab from the same source tree as the tests."""
    env = dict(os.environ)
    src = str(Path(ranklab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)


def fp_basis_by_products(code):
    """The F_p basis of a linear or Gabidulin code with every scaling an
    extension product: each row is scaled by the powers p^e, highest
    first, with ``ExtCtx.mul``, over e < m*s for a Gabidulin code's rows
    g^(q^i) and over e < s for a linear code's basis words.  This is the
    formula ``codes._fp_basis`` used before linear codes scaled by base
    scalars alone, kept as the oracle of its values."""
    from ranklab.codes import GabidulinCode
    from ranklab.fields import _index_of_entries

    ctx = code.ctx
    if isinstance(code, GabidulinCode):
        rows = [[ctx.frobenius(g, i) for g in code.points] for i in range(code.k)]
        digits = ctx.m * ctx.base.s
    else:
        rows, digits = [w.entries for w in code.basis], ctx.base.s
    powers = [ctx.base.p**e for e in range(digits - 1, -1, -1)]
    return [_index_of_entries(ctx.order, [ctx.mul(beta, x) for x in row]) for row in rows for beta in powers]
