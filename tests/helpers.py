"""Shared oracles for the test suite.

Everything here re-derives results through routes deliberately different
from the library implementation: determinants by permutation expansion,
rank by minor enumeration, extension-field products by schoolbook
polynomial arithmetic on digit lists, irreducibility by trial
division.  Expected values frozen into the
tests were produced by these oracles.
"""

import itertools


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
