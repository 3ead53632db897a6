"""Shared oracles and process helpers for the test suite.

Everything here re-derives results through routes deliberately different
from the library implementation: determinants by permutation expansion,
rank by minor enumeration, extension-field products by schoolbook
polynomial arithmetic on digit lists, irreducibility by trial
division.  Expected values frozen into the
tests were produced by these oracles.
"""

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


def coset_oracle(code, s):
    """``coset_partition_check`` by brute force, over a prime base field.

    Walks every vector y of the space in ``flatten_vector`` order (entry
    0's coordinates first, constant term first), so the first vector of
    each coset seen is the first of that coset in this order.  The count
    of the coset is the number of its members of rank <= s, each ranked
    on its coordinates with ``xor_rank`` or ``rank_mod_p``.  Returns
    (coset count, total, max count, entries of the first coset attaining
    the max).
    """
    from ranklab.codes import enumerate_codewords

    ctx, n = code.ctx, code.n
    q, m = ctx.base.q, ctx.m
    if ctx.base.s != 1:
        raise ValueError("the oracle ranks over a prime base field")
    words = [[c for e in w.entries for c in int_digits(e, q, m)] for w in enumerate_codewords(code)]

    def rank(coords):
        cols = [coords[j * m : (j + 1) * m] for j in range(n)]
        if q == 2:
            return xor_rank([int_undigits(c, 2) for c in cols])
        return rank_mod_p(cols, q)

    seen = set()
    cosets = total = 0
    best, best_rep = -1, None
    for y in itertools.product(range(q), repeat=m * n):
        if y in seen:
            continue
        coset = [tuple((a + b) % q for a, b in zip(y, w)) for w in words]
        seen.update(coset)
        count = sum(1 for v in coset if rank(v) <= s)
        cosets += 1
        total += count
        if count > best:
            best, best_rep = count, y
    rep = tuple(int_undigits(best_rep[j * m : (j + 1) * m], q) for j in range(n))
    return cosets, total, best, rep


# Critical value of the chi-squared distribution with 15 degrees of
# freedom at significance 0.001.  A uniformity test statistic above this
# would occur by chance about once per thousand runs.
CHI2_DF15_ALPHA_001 = 37.697


def inline_executor(sizes):
    """A ProcessPoolExecutor stand-in that maps in-process.

    Each construction appends its ``max_workers`` to ``sizes``, so a test
    can check how many processes a pool would have started without
    starting any.
    """

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InlineExecutor


def run_python(args, **kwargs):
    """Run this interpreter on ``args`` in a child process that imports
    ranklab from the same source tree as the tests."""
    env = dict(os.environ)
    src = str(Path(ranklab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, timeout=60, **kwargs)
