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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^s with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    s = 0
    rest = q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise ValueError(f"not a prime power: {q}")
    return p, s


def _prime_factors(n: int) -> list[int]:
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


# Polynomials over a field context are little-endian coefficient tuples.

def _poly_deg(poly) -> int:
    for i in range(len(poly) - 1, -1, -1):
        if poly[i]:
            return i
    return -1


def _poly_mul(a, b, field) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return tuple(out)


def _poly_mod(num, den, field) -> tuple[int, ...]:
    dd = _poly_deg(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    rem = list(num)
    inv_lead = field.inv(den[dd])
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        factor = field.mul(c, inv_lead)
        for j in range(dd + 1):
            rem[i - dd + j] = field.sub(rem[i - dd + j], field.mul(factor, den[j]))
    return tuple(rem[:dd] if dd > 0 else [])


def _poly_sub(a, b, field) -> tuple[int, ...]:
    return tuple(field.sub(x, y) for x, y in zip_longest(a, b, fillvalue=0))


def _poly_gcd(a, b, field) -> tuple[int, ...]:
    """A greatest common divisor of a and b, not normalized to monic."""
    while _poly_deg(b) >= 0:
        a, b = b, _poly_mod(a, b, field)
    return a


def _poly_powmod(base, e: int, mod, field) -> tuple[int, ...]:
    """base^e reduced by ``mod``, by square-and-multiply."""
    out = (1,)
    base = _poly_mod(base, mod, field)
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
    q-th power of the previous one.
    """
    d = _poly_deg(poly)
    if d < 1:
        return False
    x = (0, 1)
    h = x
    for _ in range(d // 2):
        h = _poly_powmod(h, field.q, poly, field)
        if _poly_deg(_poly_gcd(poly, _poly_sub(h, x, field), field)) > 0:
            return False
    return True


def _first_irreducible(field, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree over ``field``.

    Candidates are ordered by the integer code of their non-leading
    coefficient block (little-endian), which makes the choice
    deterministic and reproducible across runs.
    """
    q = field.q
    for code in range(q**degree):
        candidate = _digits(code, q, degree) + (1,)
        if _is_irreducible(candidate, field):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {degree} found")


class FieldCtx:
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
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            if modulus is not None:
                raise ValueError("modulus is only meaningful for s > 1")
            self.modulus = None
        else:
            prime = FieldCtx(p)
            if modulus is None:
                modulus = _first_irreducible(prime, s)
            else:
                modulus = tuple(int(c) for c in modulus)
                if len(modulus) != s + 1 or modulus[s] != 1:
                    raise ValueError("modulus must be monic of degree s")
                if any(not 0 <= c < p for c in modulus):
                    raise ValueError("modulus coefficients out of range")
                if not _is_irreducible(modulus, prime):
                    raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._mul_table = None
        self._inv_table = None
        if self.q <= _BASE_TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self) -> None:
        """Fill the mul/inv tables from a log/antilog pair, about q products.

        The powers of the first primitive element list every nonzero
        element once, so a * b is the antilog of log a + log b.
        """
        q = self.q
        if q == 2:
            exp, log = [1], [0, 0]
        else:
            orders = [(q - 1) // f for f in _prime_factors(q - 1)]
            g = next((g for g in range(2, q) if all(self._pow_generic(g, e) != 1 for e in orders)), None)
            if g is None:
                raise RuntimeError(f"no primitive element found in F_{q}")
            exp = [1]
            for _ in range(q - 2):
                exp.append(self._mul_generic(exp[-1], g))
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
        period = q - 1
        exp = exp * 2  # log a + log b < 2 * period needs no reduction
        logs = log[1:]
        mul = [(0,) * q]
        for a in range(1, q):
            mul.append((0, *map(exp[log[a] : log[a] + period].__getitem__, logs)))
        self._mul_table = tuple(mul)
        self._inv_table = (0,) + tuple(exp[period - log[a]] for a in range(1, q))
        # field-axiom spot checks on the materialized tables
        for a, b, c in ((1, 2 % q, 3 % q), (2 % q, q - 1, q - 2), (1, 1, q - 1)):
            lhs = self.mul(self.mul(a, b), c)
            rhs = self.mul(a, self.mul(b, c))
            if lhs != rhs:
                raise RuntimeError("associativity check failed")
            if self.mul(a, self.add(b, c)) != self.add(self.mul(a, b), self.mul(a, c)):
                raise RuntimeError("distributivity check failed")

    # -- element arithmetic -------------------------------------------------

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"not an F_{self.q} element code: {a!r}")
        return a

    def elements(self):
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        return _digitwise_mod_p(a, b, self.p, 1)

    def sub(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a - b) % self.p
        return _digitwise_mod_p(a, b, self.p, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def _mul_generic(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a * b) % self.p
        av = _digits(a, self.p, self.s)
        bv = _digits(b, self.p, self.s)
        prod = [0] * (2 * self.s - 1)
        for i, ai in enumerate(av):
            if not ai:
                continue
            for j, bj in enumerate(bv):
                prod[i + j] = (prod[i + j] + ai * bj) % self.p
        for i in range(2 * self.s - 2, self.s - 1, -1):
            c = prod[i]
            if not c:
                continue
            prod[i] = 0
            for j in range(self.s):
                prod[i - self.s + j] = (prod[i - self.s + j] - c * self.modulus[j]) % self.p
        return _undigits(prod[: self.s], self.p)

    def _pow_generic(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_generic(out, a)
            a = self._mul_generic(a, a)
            e >>= 1
        return out

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_generic(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self._pow_generic(a, self.q - 2)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        )

    def __hash__(self):
        return hash((FieldCtx, self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"FieldCtx(p={self.p})"
        return f"FieldCtx(p={self.p}, s={self.s}, modulus={self.modulus})"


class ExtCtx:
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
        if ext_modulus is None:
            ext_modulus = _first_irreducible(base, m)
        else:
            ext_modulus = tuple(int(c) for c in ext_modulus)
            if len(ext_modulus) != m + 1 or ext_modulus[m] != 1:
                raise ValueError("ext_modulus must be monic of degree m")
            for c in ext_modulus:
                base.check_element(c)
            if not _is_irreducible(ext_modulus, base):
                raise ValueError(f"ext_modulus {ext_modulus} is reducible over F_{base.q}")
        self.ext_modulus = ext_modulus
        self.basis = tuple(base.q**i for i in range(m))
        # log/antilog tables, built by the first mul, inv or pow that needs them
        self._exp = None
        self._log = None

    def _build_log_tables(self) -> dict:
        """Build the tables into locals, publish them, and return the log table.

        ``_exp`` is stored before ``_log``, and readers test ``_log`` alone,
        so a thread that sees the log table also sees its antilog table.
        Threads that race here build identical tables; the last store wins.
        """
        order = self.order
        if order == 2:
            exp, log = (1,), {1: 0}
        else:
            factors = _prime_factors(order - 1)
            gen = None
            for g in range(2, order):
                if all(self._pow_generic(g, (order - 1) // f) != 1 for f in factors):
                    gen = g
                    break
            if gen is None:
                raise RuntimeError("no primitive element found")
            exp = [1] * (order - 1)
            log = {1: 0}
            acc = 1
            for i in range(1, order - 1):
                acc = self._mul_reduce(acc, gen)
                exp[i] = acc
                log[acc] = i
            if len(log) != order - 1:
                raise RuntimeError("candidate generator is not primitive")
            exp = tuple(exp)
        self._exp = exp
        self._log = log
        return log

    # -- element codec ------------------------------------------------------

    def check_element(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"not an F_{self.base.q}^{self.m} element code: {a!r}")
        return a

    def elements(self):
        return range(self.order)

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

    def add(self, a: int, b: int) -> int:
        # digitwise base-p addition covers both tower levels at once
        return _digitwise_mod_p(a, b, self.base.p, 1)

    def sub(self, a: int, b: int) -> int:
        return _digitwise_mod_p(a, b, self.base.p, -1)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

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

    def _mul_reduce(self, a: int, b: int) -> int:
        F = self.base
        m = self.m
        av = _digits(a, F.q, m)
        bv = _digits(b, F.q, m)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(av):
            if not ai:
                continue
            for j, bj in enumerate(bv):
                if bj:
                    prod[i + j] = F.add(prod[i + j], F.mul(ai, bj))
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if not c:
                continue
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = F.sub(prod[i - m + j], F.mul(c, self.ext_modulus[j]))
        return _undigits(prod[:m], F.q)

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            if self.order > _EXT_LOG_LIMIT:
                return self._mul_reduce(a, b)
            log = self._build_log_tables()
        if a == 0 or b == 0:
            return 0
        return self._exp[(log[a] + log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative inverse")
        log = self._log
        if log is None:
            if self.order > _EXT_LOG_LIMIT:
                return self._pow_generic(a, self.order - 2)
            log = self._build_log_tables()
        return self._exp[(-log[a]) % (self.order - 1)]

    def _pow_generic(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul_reduce(out, base)
            base = self._mul_reduce(base, base)
            e >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        log = self._log
        if log is None:
            if self.order > _EXT_LOG_LIMIT:
                return self._pow_generic(a, e)
            log = self._build_log_tables()
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

    def __eq__(self, other):
        return (
            isinstance(other, ExtCtx)
            and self.base == other.base
            and (self.m, self.ext_modulus) == (other.m, other.ext_modulus)
        )

    def __hash__(self):
        return hash((ExtCtx, self.base, self.m, self.ext_modulus))

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
