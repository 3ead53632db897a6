"""Arithmetic contexts for F_q (q = p^s) and its extension F_{q^m}.

Field elements are plain non-negative integers:

* an element of F_p is its residue, 0 <= a < p;
* an element of F_q with q = p^s is read as base-p digits, digit i being
  the coefficient of x^i in the residue polynomial (little-endian, so
  code 0 is zero and code 1 is one);
* an element of F_{q^m} is read the same way in base q: digit i is the
  coordinate on the basis monomial x^i, itself an F_q element code.

Moduli are monic irreducible polynomials stored as little-endian
coefficient tuples and verified at construction time by Ben-Or's exact
test (gcd(x^(q^i) - x, f) = 1 for every i <= deg f / 2), which stops at
the first factor degree it finds.  When no modulus is supplied the
constructor picks the first irreducible candidate in ascending integer
order of the non-leading coefficient block, so a given (p, s, m) always
produces the same tower (for example F_4 gets x^2+x+1 and F_8 gets
x^3+x+1).

A context renders as a one-line descriptor used by CLI flags and code
file headers:

    p/m:d0,d1,...,dm                (prime base field)
    p^s:c0,...,cs/m:d0,d1,...,dm    (proper base extension)

with decimal little-endian coefficients; the d_i are F_q element codes.

Both levels share one routine per job.  ``FieldCtx`` and ``ExtCtx``
derive from ``_Residues``, which writes the element check, addition,
the untabulated product and power, modulus selection and equality once.
``_poly_mul``, ``_poly_mod`` and ``_poly_powmod`` are the only polynomial
product, remainder and power, ``_log_tables`` the only primitive-element
search and log/antilog builder, and ``_prime_factors`` the only trial
division.  The table strategies differ on purpose: the base field's
tuple table is the fast path of every elimination, and the extension's
log is a dict, so a bad code raises ``KeyError`` where a tuple index
would wrap -1.

A context's field (its moduli, equality and hash) is fixed once built,
and contexts are safe to share across threads and forked workers.
Base-field mul/inv tables are built with the context for q <= 256.
Extension log/antilog tables (q^m <= 2^16) are built on the first
``mul``, ``inv`` or ``pow`` that needs them, so a run that never
multiplies in F_{q^m} never pays for them; they are built into locals
and published by storing the log table last.  Larger extensions use
on-demand polynomial reduction, and anything past q^m = 2^32 is refused
outright.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest

from .errors import InfeasibleError

_BASE_TABLE_LIMIT = 256
_EXT_LOG_LIMIT = 2**16
_MAX_EXT_ORDER = 2**32


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending; none for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^s with p prime, or raise ValueError."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"not a prime power: {q}")
    p, s = factors[0], 1
    while p**s < q:
        s += 1
    return p, s


def _digits(code: int, base: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        code, rem = divmod(code, base)
        out.append(rem)
    return tuple(out)


def _undigits(coeffs, base: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * base + c
    return value


def _digitwise_mod_p(a: int, b: int, p: int, sign: int) -> int:
    """Base-p digitwise a + sign*b; the shared add/sub kernel."""
    if p == 2:
        return a ^ b
    out = 0
    mult = 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += ((da + sign * db) % p) * mult
        mult *= p
    return out


# Polynomials over a field context are little-endian coefficient sequences.

def _poly_mul(a, b, field) -> list[int]:
    """a * b.  Over a prime field the coefficients are plain ints, left
    unreduced: every product here is reduced next by ``_poly_mod``."""
    out = [0] * (len(a) + len(b) - 1)
    if field.s == 1:
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    out[k] += ai * bj
        return out
    add, mul = field.add, field.mul
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                if bj:
                    x = mul(ai, bj)
                    out[k] = add(out[k], x) if out[k] else x
    return out


def _poly_mod(num, den, field) -> list[int]:
    """num mod den by long division; a monic den needs no inverse of its lead."""
    dd = len(den) - 1
    while dd >= 0 and not den[dd]:
        dd -= 1
    if dd < 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    rem = list(num)
    lead = den[dd]
    low = [(j, c) for j, c in enumerate(den[:dd]) if c]
    # each step clears the top coefficient c by subtracting c/lead * den
    # from the dd coefficients below it; the top itself is never read again
    if field.s == 1:
        p = field.p
        inv_lead = 1 if lead == 1 else pow(lead, p - 2, p)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % p * inv_lead
            if c:
                for j, d in low:
                    rem[i - dd + j] -= c * d
        return [c % p for c in rem[:dd]]
    sub, mul = field.sub, field.mul
    inv_lead = 1 if lead == 1 else field.inv(lead)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            if inv_lead != 1:
                c = mul(c, inv_lead)
            for j, d in low:
                rem[i - dd + j] = sub(rem[i - dd + j], mul(c, d))
    return rem[:dd]


def _poly_sub(a, b, field) -> tuple[int, ...]:
    return tuple(field.sub(x, y) for x, y in zip_longest(a, b, fillvalue=0))


def _poly_gcd(a, b, field):
    """A greatest common divisor of a and b, not normalized to monic."""
    while any(b):
        a, b = b, _poly_mod(a, b, field)
    return a


def _poly_powmod(base, e: int, mod, field) -> list[int]:
    """base^e reduced by ``mod``, by square-and-multiply; ``base`` is reduced."""
    out = [1]
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, base, field), mod, field)
        e >>= 1
        if e:
            base = _poly_mod(_poly_mul(base, base, field), mod, field)
    return out


def _is_irreducible(poly, field) -> bool:
    """Ben-Or's exact test (Ben-Or 1981), stopping at the first factor found.

    A reducible f of degree d has an irreducible factor of some degree
    i <= d/2, which divides x^(q^i) - x; an irreducible f shares no factor
    with x^(q^i) - x for 0 < i < d.  So f is irreducible iff
    gcd(x^(q^i) - x, f) = 1 for i = 1..d/2.  Each x^(q^i) mod f is the
    q-th power of the previous one.  ``poly`` is monic.
    """
    d = len(poly) - 1
    if d < 1:
        return False
    x = (0, 1)
    h = x
    for _ in range(d // 2):
        h = _poly_powmod(h, field.q, poly, field)
        if any(_poly_gcd(poly, _poly_sub(h, x, field), field)[1:]):
            return False
    return True


def _first_irreducible(field, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree over ``field``.

    Candidates are ordered by the integer code of their non-leading
    coefficient block (little-endian), which makes the choice
    deterministic and reproducible across runs.  A candidate with zero
    derivative, every nonzero coefficient at a multiple of p, is a p-th
    power and so reducible: it skips the Ben-Or test.
    """
    q, p = field.q, field.p
    for code in range(q**degree):
        candidate = _digits(code, q, degree) + (1,)
        if any(c for i, c in enumerate(candidate) if i % p) and _is_irreducible(candidate, field):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {degree} found")


def _log_tables(order: int, mul, power, add, missing="no primitive element found"):
    """Antilog list and log map of the field with ``order`` elements.

    ``mul``, ``power`` and ``add`` are the field's untabulated arithmetic.
    The generator g is the first code with power(g, (order - 1) / f) != 1
    for every prime f dividing order - 1; exp[i] = g^i is built with one
    ``mul`` each and log[exp[i]] = i, so a * b is
    exp[(log a + log b) % (order - 1)].  A repeated power, or a table
    product that fails an associativity or distributivity spot check,
    raises RuntimeError before the caller can store anything.
    """
    if order == 2:
        exp, log = [1], {1: 0}
    else:
        orders = [(order - 1) // f for f in _prime_factors(order - 1)]
        g = next((g for g in range(2, order) if all(power(g, e) != 1 for e in orders)), None)
        if g is None:
            raise RuntimeError(missing)
        exp = [1] * (order - 1)
        log = {1: 0}
        for i in range(1, order - 1):
            # g first: ``_poly_mul`` skips the zero coefficients of its first factor
            exp[i] = x = mul(g, exp[i - 1])
            log[x] = i
        if len(log) != order - 1:
            raise RuntimeError("candidate generator is not primitive")

    def product(a, b):
        return exp[(log[a] + log[b]) % (order - 1)] if a and b else 0

    for a, b, c in ((1, 2 % order, 3 % order), (2 % order, order - 1, order - 2), (1, 1, order - 1)):
        if product(product(a, b), c) != product(a, product(b, c)):
            raise RuntimeError("associativity check failed")
        if product(a, add(b, c)) != add(product(a, b), product(a, c)):
            raise RuntimeError("distributivity check failed")
    return exp, log


class _Residues:
    """What both tower levels share, each job written once.

    Elements are residue polynomials of degree below ``_deg`` over the
    coefficient field ``_coef``, coded in base ``_coef.q`` and reduced by
    the monic irreducible ``_mod``; a prime field has neither and works
    mod ``_char``.  ``_key`` (the level, what it is built over, the degree
    and the modulus) decides equality and hash.
    """

    def __init__(self, over, coef, deg: int, modulus, label: str, name: str):
        # ``over`` is p for F_q and the base field for F_{q^m}; ``label``
        # and ``name`` name the field and its modulus in errors
        self._coef, self._deg, self._label = coef, deg, label
        if coef is None:
            self._char = self._size = over
        else:
            self._char, self._size = coef.p, coef.q**deg
            if modulus is None:
                modulus = _first_irreducible(coef, deg)
            else:
                modulus = tuple(int(c) for c in modulus)
                if len(modulus) != deg + 1 or modulus[deg] != 1:
                    raise ValueError(f"{name} must be monic of degree {deg}")
                for c in modulus:
                    coef.check_element(c)
                if not _is_irreducible(modulus, coef):
                    raise ValueError(f"{name} {modulus} is reducible over F_{coef.q}")
        self._mod = modulus
        self._key = (type(self), over, deg, modulus)

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self._size:
            raise ValueError(f"not an {self._label} element code: {a!r}")
        return a

    def elements(self):
        return range(self._size)

    def add(self, a: int, b: int) -> int:
        if self._mod is None:
            return (a + b) % self._char
        # digitwise base-p addition covers every tower level at once
        return _digitwise_mod_p(a, b, self._char, 1)

    def sub(self, a: int, b: int) -> int:
        if self._mod is None:
            return (a - b) % self._char
        return _digitwise_mod_p(a, b, self._char, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _mul_generic(self, a: int, b: int) -> int:
        if self._mod is None:
            return (a * b) % self._char
        coef, deg = self._coef, self._deg
        prod = _poly_mul(_digits(a, coef.q, deg), _digits(b, coef.q, deg), coef)
        return _undigits(_poly_mod(prod, self._mod, coef), coef.q)

    def _pow_generic(self, a: int, e: int) -> int:
        if self._mod is None:
            return pow(a, e, self._char)
        coef = self._coef
        return _undigits(_poly_powmod(_digits(a, coef.q, self._deg), e, self._mod, coef), coef.q)

    def __eq__(self, other):
        return isinstance(other, _Residues) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class FieldCtx(_Residues):
    """Arithmetic for F_q with q = p^s on integer element codes.

    For s = 1 the modulus is None and arithmetic is mod p.  For s > 1
    elements are residue polynomials over F_p encoded in base p, reduced
    by a monic irreducible modulus of degree s.
    """

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if s < 1:
            raise ValueError(f"s must be a positive integer, got {s}")
        if s == 1 and modulus is not None:
            raise ValueError("modulus is only meaningful for s > 1")
        self.p = p
        self.s = s
        self.q = p**s
        # for s > 1 the residue polynomials multiply over the prime subfield
        super().__init__(p, FieldCtx(p) if s > 1 else None, s, modulus, f"F_{self.q}", "modulus")
        self.modulus = self._mod
        self._mul_table = None
        self._inv_table = None
        if self.q <= _BASE_TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        """Fill the mul/inv tables from ``_log_tables``, about q products."""
        q = self.q
        exp, log = _log_tables(q, self._mul_generic, self._pow_generic, self.add,
                               f"no primitive element found in F_{q}")
        period = q - 1
        logs = list(map(log.__getitem__, range(1, q)))
        exp = exp * 2  # log a + log b < 2 * period needs no reduction
        self._mul_table = ((0,) * q, *((0, *map(exp[i : i + period].__getitem__, logs)) for i in logs))
        self._inv_table = (0, *(exp[period - i] for i in logs))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._pow_generic(a, self.q - 2)

    def __repr__(self):
        if self.s == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, s={self.s}, modulus={self.modulus})"


class ExtCtx(_Residues):
    """F_{q^m} over a base FieldCtx, in the polynomial basis (1, x, ..., x^(m-1))."""

    def __init__(self, base: FieldCtx, m: int, ext_modulus=None):
        if not isinstance(base, FieldCtx):
            raise ValueError("base must be a FieldCtx")
        if m < 1:
            raise ValueError(f"m must be a positive integer, got {m}")
        order = base.q**m
        if order > _MAX_EXT_ORDER:
            raise InfeasibleError(f"extension order {order} exceeds 2^32")
        self.base = base
        self.m = m
        self.order = order
        super().__init__(base, base, m, ext_modulus, f"F_{base.q}^{m}", "ext_modulus")
        self.ext_modulus = self._mod
        self.basis = tuple(base.q**i for i in range(m))
        # log/antilog tables, built by the first mul, inv or pow that needs them
        self._exp = None
        self._log = None

    def _log_table(self):
        """The log table, built by the first call that needs it, or None
        above the table limit; ``mul``, ``inv`` and ``pow`` read it here.

        The tables are built into locals and ``_exp`` is stored before
        ``_log``; readers test ``_log`` alone, so a thread that sees the
        log table also sees its antilog table.  Threads that race here
        build identical tables; the last store wins.
        """
        log = self._log
        if log is None and self.order <= _EXT_LOG_LIMIT:
            exp, log = _log_tables(self.order, self._mul_generic, self._pow_generic, self.add)
            self._exp = tuple(exp)
            self._log = log
        return log

    # -- element codec ------------------------------------------------------

    def ext_to_vec(self, a: int) -> tuple[int, ...]:
        """Coordinates of ``a`` on the polynomial basis, constant term first."""
        return _digits(self.check_element(a), self.base.q, self.m)

    def vec_to_ext(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        for c in coords:
            self.base.check_element(c)
        return _undigits(coords, self.base.q)

    # -- arithmetic ---------------------------------------------------------

    def scale(self, c: int, a: int) -> int:
        """c * a for c in the base field: each coordinate of a times c.

        Equal to ``mul(c, a)``, without building extension tables.
        """
        if c == 0:
            return 0
        if c == 1:
            return a
        q = self.base.q
        mul = self.base.mul
        out = 0
        place = 1
        while a:
            a, d = divmod(a, q)
            out += mul(c, d) * place
            place *= q
        return out

    # ``_log or _log_table()`` skips a call once the tables exist; a bad
    # code is then a KeyError from the log map, where a list would wrap -1

    def mul(self, a: int, b: int) -> int:
        log = self._log or self._log_table()
        if log is None:
            return self._mul_generic(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(log[a] + log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        log = self._log or self._log_table()
        if log is None:
            return self._pow_generic(a, self.order - 2)
        return self._exp[(-log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        log = self._log or self._log_table()
        if log is None:
            return self._pow_generic(a, e)
        return self._exp[(log[a] * e) % (self.order - 1)]

    def frobenius(self, a: int, i: int) -> int:
        """a^(q^i); i-fold q-power Frobenius, identity at i = 0 and i = m."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        for _ in range(i % self.m):
            a = self.pow(a, self.base.q)
        return a

    # -- descriptors --------------------------------------------------------

    def descriptor(self) -> str:
        base = self.base
        if base.s == 1:
            head = str(base.p)
        else:
            head = f"{base.p}^{base.s}:" + ",".join(str(c) for c in base.modulus)
        tail = f"{self.m}:" + ",".join(str(c) for c in self.ext_modulus)
        return head + "/" + tail

    def __repr__(self):
        return f"ExtCtx({self.descriptor()!r})"


def context_from_descriptor(desc: str) -> ExtCtx:
    """Parse a field descriptor back into a context."""
    try:
        head, tail = desc.strip().split("/")
        if "^" in head:
            p_str, rest = head.split("^")
            s_str, mod_str = rest.split(":", 1)
            p, s = int(p_str), int(s_str)
            base_modulus = tuple(int(c) for c in mod_str.split(","))
        else:
            p, s, base_modulus = int(head), 1, None
        m_str, ext_str = tail.split(":", 1)
        m = int(m_str)
        ext_modulus = tuple(int(c) for c in ext_str.split(","))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed field descriptor: {desc!r}") from exc
    return ExtCtx(FieldCtx(p, s, base_modulus), m, ext_modulus)


@lru_cache(maxsize=None)
def _default_base(q: int) -> FieldCtx:
    """The canonical F_q, built once per q and shared by every m."""
    return FieldCtx(*split_prime_power(q))


@lru_cache(maxsize=None)
def default_context(q: int, m: int) -> ExtCtx:
    """The canonical F_{q^m} context with first-found moduli, cached."""
    return ExtCtx(_default_base(q), m)
