"""Exact arithmetic in the deformation parameter q.

``QLaurent`` is a Laurent polynomial in q with integer coefficients (sparse
dict of exponent -> coefficient), the type of every constant term.  ``Cyclo``
keeps a product of q-Pochhammer symbols factored over cyclotomic polynomials,
and ``ZPoly`` a polynomial in z = q^a as integral coefficients over one
factored denominator, which is what interpolation at the nodes q^j returns.
``QFrac`` is a reduced fraction of two QLaurent values, the type of a value
that can keep a denominator; ``Cyclo.divide`` builds it in lowest terms with
no polynomial gcd.  The gcd-reducing constructor and arithmetic of ``QFrac``
(``_reduce``, ``poly_gcd``) serve the tests as a reference, and the
benchmark's tracer wraps them by name; no suite calls them.

Values are immutable; all operations return fresh objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import gcd as int_gcd


class QLaurent:
    """Laurent polynomial in q over the integers.

    ``terms`` maps exponent (may be negative) to a nonzero integer
    coefficient.  The zero polynomial has an empty term dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None, _trusted=False):
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            clean = {}
            for e, c in dict(terms).items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("QLaurent terms must map int exponents to int coefficients")
                if c:
                    clean[e] = c
            self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "QLaurent":
        return QLaurent({0: n} if n else {}, _trusted=True)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "QLaurent":
        """The monomial coeff * q^e."""
        return QLaurent({e: coeff} if coeff else {}, _trusted=True)

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self.terms)

    def coefficient(self, e: int) -> int:
        return self.terms.get(e, 0)

    def content(self) -> int:
        """gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = int_gcd(g, abs(c))
            if g == 1:
                return 1
        return g

    def leading_coefficient(self) -> int:
        return self.terms[self.max_exp()] if self.terms else 0

    def l1_norm(self) -> int:
        return sum(abs(c) for c in self.terms.values())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QLaurent") -> "QLaurent":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return QLaurent(out, _trusted=True)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def __neg__(self) -> "QLaurent":
        return QLaurent({e: -c for e, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        if not self.terms or not other.terms:
            return ZERO
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return QLaurent(out, _trusted=True)

    def __pow__(self, n: int) -> "QLaurent":
        if n < 0:
            raise ValueError("negative power of a QLaurent; use QFrac")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, e: int) -> "QLaurent":
        """Multiply by q^e."""
        if e == 0 or not self.terms:
            return self
        return QLaurent({k + e: v for k, v in self.terms.items()}, _trusted=True)

    def scale(self, n: int) -> "QLaurent":
        if n == 0:
            return ZERO
        if n == 1:
            return self
        return QLaurent({e: c * n for e, c in self.terms.items()}, _trusted=True)

    def divexact(self, other: "QLaurent") -> "QLaurent":
        """Divide exactly, raising ValueError if a remainder is left."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero QLaurent")
        if self.is_zero():
            return ZERO
        sh_a, sh_b = self.min_exp(), other.min_exp()
        num = _to_list(self.shift(-sh_a))
        den = _to_list(other.shift(-sh_b))
        quo, rem = _list_divmod(num, den)
        if quo is None or any(rem):
            raise ValueError("inexact QLaurent division")
        return _from_list(quo).shift(sh_a - sh_b)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QLaurent({self})"

    @staticmethod
    def parse(text: str) -> "QLaurent":
        """Parse the canonical text form (inverse of str)."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty QLaurent literal")
        if s == "0":
            return ZERO
        terms: dict[int, int] = {}
        i = 0
        n = len(s)
        while i < n:
            sign = 1
            while i < n and s[i] in "+-":
                if s[i] == "-":
                    sign = -sign
                i += 1
            j = i
            while j < n and s[j] not in "+-":
                # a '-' directly after '^' is part of the exponent
                if s[j] == "^" and j + 1 < n and s[j + 1] == "-":
                    j += 2
                    continue
                j += 1
            token = s[i:j]
            if not token:
                raise ValueError(f"bad QLaurent literal: {text!r}")
            coeff, exp = _parse_term(token)
            c = terms.get(exp, 0) + sign * coeff
            if c:
                terms[exp] = c
            else:
                terms.pop(exp, None)
            i = j
        return QLaurent(terms, _trusted=True)


def _parse_term(token: str) -> tuple[int, int]:
    if "q" not in token:
        return int(token), 0
    head, _, tail = token.partition("q")
    if head in ("", "*"):
        coeff = 1
    else:
        coeff = int(head.rstrip("*"))
    if not tail:
        exp = 1
    elif tail.startswith("^"):
        exp = int(tail[1:])
    else:
        raise ValueError(f"bad QLaurent term: {token!r}")
    return coeff, exp


ZERO = QLaurent()
ONE = QLaurent.from_int(1)
Q = QLaurent.q_power(1)


# -- dense helpers for division and gcd (plain polynomials, min exponent 0) --

def _to_list(p: QLaurent) -> list[int]:
    out = [0] * (p.max_exp() + 1)
    for e, c in p.terms.items():
        out[e] = c
    return out


def _from_list(coeffs: list[int]) -> QLaurent:
    return QLaurent({e: c for e, c in enumerate(coeffs) if c}, _trusted=True)


def _list_divmod(num: list[int], den: list[int]):
    """Long division over the rationals, exact results only.

    Returns (quotient, remainder) as int lists, or (None, num) if a
    non-integer or non-exact step appears while dividing.
    """
    num = list(num)
    dn = len(den) - 1
    lead = den[dn]
    if len(num) - 1 < dn:
        return ([0], num)
    quo = [0] * (len(num) - dn)
    for k in range(len(num) - 1 - dn, -1, -1):
        c = num[k + dn]
        if c % lead:
            return (None, num)
        f = c // lead
        quo[k] = f
        if f:
            for t, d in enumerate(den):
                num[k + t] -= f * d
    return (quo, num)


def _primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = int_gcd(g, abs(c))
        if g == 1:
            return list(coeffs)
    return [c // g for c in coeffs] if g else list(coeffs)


def _strip(coeffs: list[int]) -> list[int]:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


def poly_gcd(a: QLaurent, b: QLaurent) -> QLaurent:
    """gcd over the integers: content part times the primitive-part gcd.

    Both inputs must have nonnegative exponents.  The result is normalized
    to a positive leading coefficient.
    """
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        ca, cb = a.content(), b.content()
        content = int_gcd(ca, cb)
        fa = _primitive(_strip(_to_list(a)))
        fb = _primitive(_strip(_to_list(b)))
        if len(fa) < len(fb):
            fa, fb = fb, fa
        # primitive pseudo-remainder sequence
        while fb:
            dn = len(fb) - 1
            lead = fb[-1]
            r = _strip(fa)
            while r and len(r) - 1 >= dn:
                top = r[-1]
                shift = len(r) - 1 - dn
                r = [c * lead for c in r]
                for t, d in enumerate(fb):
                    r[shift + t] -= top * d
                r = _strip(r)
            fa, fb = fb, _primitive(r)
        g = _from_list(fa).scale(content) if content else _from_list(fa)
    if g.is_zero():
        return ZERO
    if g.leading_coefficient() < 0:
        g = -g
    return g


class QFrac:
    """Reduced fraction of two QLaurent values.

    Normal form: the denominator is a polynomial (no negative exponents,
    minimal exponent zero) with positive leading coefficient, coprime to the
    numerator; any global power of q is carried by the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, int):
            num = QLaurent.from_int(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = QLaurent.from_int(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in QFrac")
        if _reduced:
            self.num = num
            self.den = den
            return
        self.num, self.den = _reduce(num, den)

    @staticmethod
    def from_qlaurent(p: QLaurent) -> "QFrac":
        return QFrac(p, ONE, _reduced=True)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "QFrac":
        return QFrac(QLaurent.q_power(e, coeff), ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        """True when the reduced denominator is 1 (the value lives in Z[q, 1/q])."""
        return self.den.is_one()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QFrac") -> "QFrac":
        if isinstance(other, int):
            other = QFrac(other)
        if self.den.is_one() and other.den.is_one():
            return QFrac(self.num + other.num, ONE, _reduced=True)
        return QFrac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: "QFrac") -> "QFrac":
        return self + (-other)

    def __neg__(self) -> "QFrac":
        return QFrac(-self.num, self.den, _reduced=True)

    def __mul__(self, other: "QFrac") -> "QFrac":
        if isinstance(other, int):
            other = QFrac(other)
        if self.den.is_one() and other.den.is_one():
            return QFrac(self.num * other.num, ONE, _reduced=True)
        return QFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "QFrac") -> "QFrac":
        if isinstance(other, int):
            other = QFrac(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero QFrac")
        return QFrac(self.num * other.den, self.den * other.num)

    def inverse(self) -> "QFrac":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero QFrac")
        return QFrac(self.den, self.num)

    def __pow__(self, n: int) -> "QFrac":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = QFrac(1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = QFrac(other)
        elif isinstance(other, QLaurent):
            other = QFrac.from_qlaurent(other)
        elif not isinstance(other, QFrac):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QFrac({self})"

    @staticmethod
    def parse(text: str) -> "QFrac":
        s = text.strip()
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            split = s.index(")/(")
            num = QLaurent.parse(s[1:split])
            den = QLaurent.parse(s[split + 3:-1])
            return QFrac(num, den)
        return QFrac(QLaurent.parse(s), ONE)


def _reduce(num: QLaurent, den: QLaurent) -> tuple[QLaurent, QLaurent]:
    if num.is_zero():
        return ZERO, ONE
    net = num.min_exp() - den.min_exp()
    num0 = num.shift(-num.min_exp())
    den0 = den.shift(-den.min_exp())
    if not den0.is_one():
        g = poly_gcd(num0, den0)
        if not g.is_one():
            num0 = num0.divexact(g)
            den0 = den0.divexact(g)
    # common integer content
    ci = int_gcd(num0.content(), den0.content())
    if ci > 1:
        num0 = QLaurent({e: c // ci for e, c in num0.terms.items()}, _trusted=True)
        den0 = QLaurent({e: c // ci for e, c in den0.terms.items()}, _trusted=True)
    if den0.leading_coefficient() < 0:
        num0, den0 = -num0, -den0
    return num0.shift(net), den0


# -- q-shifted factorials and Gaussian binomials ------------------------------


def qpoch(m: int, z: int) -> QLaurent:
    """(q^m; q)_z = prod_{j=0}^{z-1} (1 - q^(m+j)); the empty product is 1."""
    if z < 0:
        raise ValueError("pochhammer length negative")
    out = ONE
    for j in range(z):
        out = out * (ONE + QLaurent.q_power(m + j, -1))
    return out


def qbinom(n: int, c: int) -> QLaurent:
    """Gaussian binomial coefficient; 0 when c > n, exact division otherwise."""
    if c < 0 or n < 0:
        raise ValueError("qbinom arguments must be nonnegative")
    if c > n:
        return ZERO
    if c == 0 or c == n:
        return ONE
    return qpoch(n - c + 1, c).divexact(qpoch(1, c))


# -- products of cyclotomic polynomials ----------------------------------------


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, k + 1) if k % d == 0)


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@lru_cache(maxsize=None)
def _psi_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """Psi_d = prod_{k | d} (1 - q^k)^mu(d/k), the Moebius inversion of
    1 - q^n = prod_{d | n} Psi_d, as its (k, mu(d/k)) pairs with mu nonzero."""
    return tuple((k, _mobius(d // k)) for k in _divisors(d) if _mobius(d // k))


def _mul_binomial(a: list[int], k: int) -> list[int]:
    """a * (1 - q^k) on dense coefficient lists."""
    out = a + [0] * k
    out[k:] = [x - y for x, y in zip(out[k:], a)]
    return out


def _div_binomial(a: list[int], k: int) -> list[int]:
    """a / (1 - q^k) on dense coefficient lists; the division must be exact."""
    b = list(a)
    n = len(b)
    # b_i = a_i + b_{i-k}: k interleaved running sums
    for r in range(min(k, n)):
        b[r::k] = accumulate(a[r::k])
    top = max(n - k, 0)
    if any(b[top:]):
        raise ArithmeticError(f"1 - q^{k} does not divide the polynomial")
    return b[:top]


def _times_psi(a: list[int], exps: dict[int, int]) -> list[int]:
    """a * prod_d Psi_d^exps[d] for nonnegative exponents, by multiplying and
    dividing by binomials 1 - q^k: every multiplication comes first, so each
    division is exact."""
    f: dict[int, int] = {}
    for d, e in exps.items():
        for k, mu in _psi_binomials(d):
            f[k] = f.get(k, 0) + mu * e
    for k, e in f.items():
        for _ in range(e):
            a = _mul_binomial(a, k)
    for k, e in f.items():
        for _ in range(-e):
            a = _div_binomial(a, k)
    return a


@lru_cache(maxsize=None)
def _psi(d: int) -> tuple[int, ...]:
    return tuple(_times_psi([1], {d: 1}))


class Cyclo:
    """sign * q^shift * prod_d Psi_d^exps[d], with Psi_1 = 1 - q and Psi_d the
    d-th cyclotomic polynomial for d >= 2, so that 1 - q^k = prod_{d | k} Psi_d.

    Every q-Pochhammer symbol (q^m; q)_z and every Gaussian binomial is such a
    product, so products and quotients of them are exponent-vector sums, the
    value lies in Z[q, 1/q] exactly when no exponent is negative, and it is
    expanded once, at the end.  Sign 0 is the zero value.
    """

    __slots__ = ("sign", "shift", "exps")

    def __init__(self, sign: int = 1, shift: int = 0, exps=None):
        self.sign = sign
        self.shift = shift if sign else 0
        self.exps = {d: e for d, e in (exps or {}).items() if e} if sign else {}

    @staticmethod
    def poch(m: int, z: int) -> "Cyclo":
        """(q^m; q)_z = prod_{j=0}^{z-1} (1 - q^(m+j)), with 1 - q^-k = -q^-k (1 - q^k)."""
        return Cyclo.poch_product(((m, z, 1),))

    @staticmethod
    def poch_product(pochs) -> "Cyclo":
        """prod (q^m; q)_z^p over (m, z, p) triples, in one exponent
        accumulation; a vanishing symbol under a negative power raises
        ZeroDivisionError."""
        sign, shift, exps = 1, 0, {}
        get = exps.get
        for m, z, p in pochs:
            if z < 0:
                raise ValueError("pochhammer length negative")
            if m <= 0 < m + z:
                if p < 0:
                    raise ZeroDivisionError("negative power of zero")
                sign = 0
                continue
            for j in range(m, m + z):
                if j < 0:
                    sign, shift = sign if p % 2 == 0 else -sign, shift + j * p
                for d in _divisors(abs(j)):
                    exps[d] = get(d, 0) + p
        return Cyclo(sign, shift, exps)

    @staticmethod
    def qbinom(n: int, k: int) -> "Cyclo":
        """Gaussian binomial [n, k]; zero when k > n."""
        if n < 0 or k < 0:
            raise ValueError("qbinom arguments must be nonnegative")
        if k > n:
            return Cyclo(0)
        return Cyclo.poch(n - k + 1, k) / Cyclo.poch(1, k)

    def is_polynomial(self) -> bool:
        """True when the value lies in Z[q, 1/q]: no exponent is negative."""
        return all(e > 0 for e in self.exps.values())

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        exps = dict(self.exps)
        for d, e in other.exps.items():
            exps[d] = exps.get(d, 0) + e
        return Cyclo(self.sign * other.sign, self.shift + other.shift, exps)

    def __pow__(self, n: int) -> "Cyclo":
        if n < 0 and not self.sign:
            raise ZeroDivisionError("negative power of zero")
        return Cyclo(self.sign ** abs(n), self.shift * n, {d: e * n for d, e in self.exps.items()})

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return self * other ** -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (self.sign, self.shift, self.exps) == (other.sign, other.shift, other.exps)

    __hash__ = None

    def times(self, p: QLaurent) -> QLaurent:
        """p times this value, which must be a polynomial."""
        if not self.is_polynomial():
            raise ArithmeticError(f"not a polynomial in q: {self}")
        if p.is_zero() or not self.sign:
            return ZERO
        lo = p.min_exp()
        out = _times_psi(_to_list(p.shift(-lo)), self.exps)
        return _from_list(out).shift(lo + self.shift).scale(self.sign)

    def expand(self) -> QLaurent:
        """The value as a QLaurent; it must be a polynomial."""
        return self.times(ONE)

    def divide(self, p: QLaurent) -> QFrac:
        """p / self as a reduced QFrac, without a gcd: each Psi_d of the
        denominator is cancelled for as long as it divides p, and the Psi_d
        are irreducible and primitive, so what is left is in lowest terms."""
        if not self.sign:
            raise ZeroDivisionError("division by zero Cyclo")
        if p.is_zero():
            return QFrac.from_qlaurent(p)
        lo = p.min_exp()
        num = _to_list(p.shift(-lo))
        den = {}
        for d, e in sorted(self.exps.items()):
            if e < 0:
                num = _times_psi(num, {d: -e})
                continue
            while e:
                quo, rem = _list_divmod(num, list(_psi(d)))
                if any(rem):
                    break
                num, e = quo, e - 1
            if e:
                den[d] = e
        sign, under = self.sign, _times_psi([1], den)
        if under[-1] < 0:
            sign, under = -sign, [-c for c in under]
        return QFrac(_from_list(num).shift(lo - self.shift).scale(sign), _from_list(under), _reduced=True)

    def __repr__(self) -> str:
        if not self.sign:
            return "Cyclo(0)"
        parts = ["-" if self.sign < 0 else ""]
        if self.shift:
            parts.append(f"q^{self.shift}")
        parts += [f"Psi_{d}^{e}" for d, e in sorted(self.exps.items())]
        return f"Cyclo({' '.join(p for p in parts if p) or '1'})"


def cyclo_sum(terms) -> QFrac:
    """sum of scale * p over (Cyclo scale, QLaurent p) pairs as one reduced
    QFrac.  Pairs with equal exponent vectors are added first; the sums are
    then brought over one common denominator prod_d Psi_d^{M_d}, M_d the
    largest exponent of Psi_d under the fraction bar, and reduced by one
    Cyclo.divide: no gcd."""
    sums: dict[tuple, QLaurent] = {}
    for scale, p in terms:
        if not scale.sign or p.is_zero():
            continue
        key = tuple(sorted(scale.exps.items()))
        sums[key] = sums.get(key, ZERO) + p.shift(scale.shift).scale(scale.sign)
    den: dict[int, int] = {}
    for key in sums:
        for d, e in key:
            if -e > den.get(d, 0):
                den[d] = -e
    total = ZERO
    for key, p in sums.items():
        lift = dict(den)
        for d, e in key:
            lift[d] = lift.get(d, 0) + e
        total = total + Cyclo(1, 0, lift).times(p)
    return Cyclo(1, 0, den).divide(total)


# -- polynomials in z = q^a and their interpolation at q-nodes -------------------


class ZPoly:
    """(C_0 + C_1 z + ... + C_N z^N) / den: a polynomial in z over Q(q), kept
    as integral coefficients C_i in Z[q, 1/q] over one factored denominator,
    a polynomial Cyclo."""

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs, den: Cyclo):
        self.coeffs = list(coeffs)
        self.den = den

    def degree(self) -> int:
        """Highest power of z with a nonzero coefficient; -1 for zero."""
        k = len(self.coeffs) - 1
        while k >= 0 and self.coeffs[k].is_zero():
            k -= 1
        return k

    def numerator_at(self, e: int) -> QLaurent:
        """sum_i C_i q^(e i): the value at z = q^e times den, by shifts only."""
        out: dict[int, int] = {}
        for i, c in enumerate(self.coeffs):
            for k, v in c.terms.items():
                k += e * i
                out[k] = out.get(k, 0) + v
        return QLaurent({k: v for k, v in out.items() if v}, _trusted=True)

    def __eq__(self, other) -> bool:
        """Equal as polynomials: coefficients cross-multiplied by the parts of
        the two denominators that they do not share."""
        if not isinstance(other, ZPoly):
            return NotImplemented
        shared = Cyclo(1, 0, {d: min(e, other.den.exps.get(d, 0)) for d, e in self.den.exps.items()})
        mine, theirs = other.den / shared, self.den / shared
        left = [mine.times(c) for c in self.coeffs]
        right = [theirs.times(c) for c in other.coeffs]
        width = max(len(left), len(right))
        return left + [ZERO] * (width - len(left)) == right + [ZERO] * (width - len(right))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ZPoly([{', '.join(map(str, self.coeffs))}] / {self.den})"


def interpolate(values, first: int = 0, step: int = 1) -> ZPoly:
    """The polynomial P of degree <= N with P(q^(first + step j)) = values[j]
    for j = 0..N, step +-1; each value is a QLaurent.

    Newton's divided differences, fraction free.  The nodes x_j are powers of
    q, so x_{i+k} - x_i = q^(first + step i) (q^(step k) - 1) and the level-k
    differences times (q; q)_k satisfy h_{i,k} = +-(h_{i+1,k-1} - h_{i,k-1}) / q^t:
    the table runs over Z[q, 1/q] by subtraction and shifts.  The Newton form
    is then expanded over the common denominator (q; q)_N.
    """
    if step not in (1, -1):
        raise ValueError("q-nodes need step 1 or -1; other steps repeat or skip powers of q")
    dd = list(values)
    n = len(dd) - 1
    if n < 0:
        raise ValueError("no interpolation nodes")
    # dd[i] holds h for the nodes i-k..i after level k
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            if step > 0:
                dd[i] = (dd[i - 1] - dd[i]).shift(-first - (i - k))
            else:
                dd[i] = (dd[i] - dd[i - 1]).shift(-first + i)
    # Horner over the Newton form: acc <- dd[k] (q; q)_N / (q; q)_k + (z - x_k) acc
    acc = [dd[n]]
    for k in range(n - 1, -1, -1):
        nxt = [ZERO] + acc
        for i, c in enumerate(acc):
            nxt[i] = nxt[i] - c.shift(first + step * k)
        if not dd[k].is_zero():
            lo = dd[k].min_exp()
            scaled = _to_list(dd[k].shift(-lo))
            for l in range(k + 1, n + 1):
                scaled = _mul_binomial(scaled, l)
            nxt[0] = nxt[0] + _from_list(scaled).shift(lo)
        acc = nxt
    return ZPoly(acc, Cyclo.poch(1, n))


def eval_poly(poly: ZPoly, e: int) -> QFrac:
    """P(q^e) as a reduced QFrac, with no multiplication and no gcd."""
    return poly.den.divide(poly.numerator_at(e))
