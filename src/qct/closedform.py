"""Closed-form evaluators for the constant terms: the product formulas, the
block recursion, the a=b=0 recursion, Kadell's one-row value, and the scalar
summation identities they rest on.

Every closed form is a product of q-Pochhammer symbols and Gaussian
binomials, so it is built as a factored ``Cyclo`` value and expanded once
into a QLaurent; the expansion raises unless the value is a polynomial in q.
Each scalar identity sums its Cyclo-scaled terms with ``cyclo_sum`` and
compares the sum with a side built from the expanded ``qpoch`` and ``qbinom``.
"""

from __future__ import annotations

from .products import Shape
from .qring import ONE, ZERO, Cyclo, QFrac, QLaurent, cyclo_sum, qbinom, qpoch

_poch = Cyclo.poch


class BFParams:
    """Parameter bundle (shape; a, b, c) for the decorated product."""

    __slots__ = ("shape", "a", "b", "c")

    def __init__(self, shape: Shape, a: int, b: int, c: int):
        if min(a, b, c) < 0:
            raise ValueError("a, b, c must be nonnegative")
        self.shape = shape
        self.a = a
        self.b = b
        self.c = c

    def __repr__(self):
        return f"BFParams(({self.shape}); {self.a}, {self.b}, {self.c})"


def qdyson_rhs(a) -> QLaurent:
    """(q)_{|a|} / prod_i (q)_{a_i}."""
    a = list(a)
    out = _poch(1, sum(a))
    for ai in a:
        out = out / _poch(1, ai)
    return out.expand()


def _qmorris(n: int, a: int, b: int, c: int) -> Cyclo:
    if n < 1:
        raise ValueError("n must be positive")
    out = Cyclo()
    for i in range(n):
        out = out * _poch(1, a + b + i * c) * _poch(1, (i + 1) * c) / (
            _poch(1, a + i * c) * _poch(1, b + i * c) * _poch(1, c))
    return out


def qmorris_rhs(n: int, a: int, b: int, c: int) -> QLaurent:
    """prod_{i=0}^{n-1} (q)_{a+b+ic} (q)_{(i+1)c} / ((q)_{a+ic} (q)_{b+ic} (q)_c)."""
    return _qmorris(n, a, b, c).expand()


def bf_p1_rhs(n0: int, n1: int, a: int, b: int, c: int) -> QLaurent:
    """Two-block closed form: the double product with chi(j > n0) shifts."""
    if n0 < 1 or n1 < 1:
        raise ValueError("block sizes must be positive")
    n = n0 + n1
    out = Cyclo()
    for j in range(2, n - n0 + 1):
        out = out * _poch(j * (c + 1), 1)
    for j in range(n):
        shift = (j - n0) if j > n0 else 0
        chi = 1 if j > n0 else 0
        out = out * _poch(a + j * c + shift + 1, b) * _poch(1, (j + 1) * c + shift) / (
            _poch(1, b + j * c + shift) * _poch(1, c + chi))
    return out.expand()


def _recursion_factor(shape: Shape, a: int, b: int, c: int, k: int) -> Cyclo:
    """One step of the block recursion, lowering part k (k >= 1, n_k maximal)."""
    n = shape.n
    nk = shape.parts[k]
    num = _poch(nk * (c + 1), 1) * _poch(a + (n - 1) * c + nk, b) * Cyclo.qbinom(n * c + nk - 1, c)
    return num / (_poch(c + 1, 1) * _poch((n - 1) * c + nk, b))


def bf_rhs(params: BFParams, k: int | None = None) -> QLaurent:
    """Iterate the recursion down to the one-block case, then the n-fold
    product formula.  ``k`` forces the first maximal-part choice (ties only);
    by default the smallest maximizing index is taken at every step.
    """
    shape, a, b, c = params.shape, params.a, params.b, params.c
    total = Cyclo()
    first = True
    while shape.p >= 1:
        if first and k is not None:
            if shape.parts[k] != max(shape.parts[1:]):
                raise ValueError("k must point at a maximal decorated part")
            kk = k
        else:
            kk = shape.max_block()
        total = total * _recursion_factor(shape, a, b, c, kk)
        shape = shape.decremented(kk)
        first = False
    return (total * _qmorris(shape.n, a, b, c)).expand()


def dn0_rhs(shape: Shape, c: int) -> QLaurent:
    """The a = b = 0 value, by its own recursion down to the equal-parameter
    one-block case (q)_{n0 c}/(q)_c^{n0}."""
    total = Cyclo()
    while shape.p >= 1:
        k = shape.max_block()
        n, nk = shape.n, shape.parts[k]
        total = total * _poch(nk * (c + 1), 1) / _poch(c + 1, 1) * Cyclo.qbinom(n * c + nk - 1, c)
        shape = shape.decremented(k)
    n0 = shape.n
    return (total * _poch(1, n0 * c) / _poch(1, c) ** n0).expand()


def kadell_rhs(v, r: int, a) -> QLaurent:
    """Closed form of the one-row symmetric-weight constant term; zero unless
    v concentrates the full weight r in one slot."""
    v = list(v)
    a = list(a)
    if r < 1:
        raise ValueError("r must be positive")
    if len(v) != len(a):
        raise ValueError("v and a must have equal length")
    if any(x < 0 for x in v) or sum(v) != r:
        raise ValueError("v must be nonnegative with |v| = r")
    n = len(a)
    nonzero = [i for i, x in enumerate(v) if x]
    if len(nonzero) != 1:
        return ZERO
    k = nonzero[0] + 1  # 1-based slot holding r
    if v[k - 1] != r:
        return ZERO
    total = sum(a)
    if total == 0 or a[k - 1] == 0:
        return ZERO
    out = Cyclo(1, sum(a[k:])) * _poch(a[k - 1], 1) * _poch(total, r) / (
        _poch(total, 1) * _poch(total - a[k - 1] + 1, r))
    for i in range(n):
        out = out * Cyclo.qbinom(sum(a[i:]), a[i])
    return out.expand()


# -- scalar summation identities -----------------------------------------------------


def qsum_lhs(n: int, t: int) -> QFrac:
    """sum_{j=0}^t q^{j(n-t)} / ((q^{-j})_j (q)_{t-j})."""
    return cyclo_sum((Cyclo.poch_product(((-j, j, -1), (1, t - j, -1))),
                      QLaurent.q_power(j * (n - t))) for j in range(t + 1))


def qsum_identity_holds(n: int, t: int) -> bool:
    return qsum_lhs(n, t) == qbinom(n, t)


def qbinom_theorem_holds(t: int) -> bool:
    """(z)_t = sum_j q^binom(j,2) [t j] (-z)^j with z a fresh variable.

    Checked as an identity of polynomials in z with QLaurent coefficients.
    """
    # coefficient list in z, ascending
    lhs = [ONE]
    for j in range(t):
        # multiply by (1 - q^j z)
        nxt = [ONE * lhs[0]] + [lhs[s] - lhs[s - 1].shift(j) for s in range(1, len(lhs))]
        nxt.append(-lhs[-1].shift(j))
        lhs = nxt
    rhs = []
    for j in range(t + 1):
        sign = -1 if j % 2 else 1
        rhs.append(qbinom(t, j).shift(j * (j - 1) // 2).scale(sign))
    return lhs == rhs


def rec_scalar_lhs(shape: Shape, c: int, k: int) -> QFrac:
    """The double sum that collapses the class-k splitting coefficients."""
    n = shape.n
    s_km1 = shape.sigma(k - 1)
    s_k = shape.sigma(k)
    terms = []
    for i in range(s_km1 + 1, s_k + 1):
        for j in range(-1, c):
            expo = (
                c * (j + 1) * s_km1
                + (c + 1) * (j + 2) * (i - 1 - s_km1)
                + (c + 1) * (j + 1) * (s_k - i)
                + c * (j + 1) * (n - s_k)
            )
            den = Cyclo.poch_product(((-j - 1, j + 1, -1), (1, c - j - 1, -1)))
            terms.append((den, QLaurent.q_power(expo)))
    return cyclo_sum(terms)


def rec_scalar_rhs(shape: Shape, c: int, k: int) -> QLaurent:
    n = shape.n
    nk = shape.parts[k]
    return qpoch(nk * (c + 1), 1).divexact(qpoch(c + 1, 1)) * qbinom(n * c + nk - 1, c)


def rec_scalar_identity_holds(shape: Shape, c: int, k: int | None = None) -> bool:
    ks = [k] if k is not None else [
        t for t in range(1, shape.p + 1) if shape.parts[t] == max(shape.parts[1:])
    ]
    return all(rec_scalar_lhs(shape, c, t) == rec_scalar_rhs(shape, c, t) for t in ks)


def identity_suite(nmax: int = 8, shapes_nmax: int = 5, cmax: int = 3) -> dict:
    """Check the q-summation identity, the q-binomial theorem, and the scalar
    recursion identity over their default grids.  Returns a report dict; the
    first failing tuple (if any) is recorded as the witness.
    """
    report = {"qsum": "pass", "qbinom_theorem": "pass", "rec_scalar": "pass", "witness": None}
    for n in range(0, nmax + 1):
        for t in range(0, n + 1):
            if not qsum_identity_holds(n, t):
                report["qsum"] = "fail"
                report["witness"] = ("qsum", n, t)
                return report
    for t in range(0, nmax + 1):
        if not qbinom_theorem_holds(t):
            report["qbinom_theorem"] = "fail"
            report["witness"] = ("qbinom_theorem", t)
            return report
    for shape in all_shapes(shapes_nmax, min_p=1):
        for c in range(0, cmax + 1):
            if not rec_scalar_identity_holds(shape, c):
                report["rec_scalar"] = "fail"
                report["witness"] = ("rec_scalar", shape.parts, c)
                return report
    return report


def all_shapes(nmax: int, min_p: int = 0, canonical: bool = False):
    """All shapes with n <= nmax; ``canonical`` keeps one representative per
    multiset of decorated parts (the constant term only depends on that)."""
    out = []
    for n in range(1, nmax + 1):
        for comp in compositions(n):
            shape = Shape(comp)
            if shape.p < min_p:
                continue
            if canonical and list(comp[1:]) != sorted(comp[1:]):
                continue
            out.append(shape)
    return out


def compositions(n: int):
    """The compositions of n into positive parts, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest
