"""Closed-form evaluators for the constant terms: the product formulas, the
block recursion, the a=b=0 recursion, Kadell's one-row value, and the scalar
summation identities they rest on.

Every closed form is a product of q-Pochhammer symbols and Gaussian
binomials, so it is built as one ``Cyclo.poch_product`` of (m, z, power)
triples and expanded once into a QLaurent; the expansion raises unless the
value is a polynomial in q.  The block recursion is walked once, in
``bf_factored``: each step (``_recursion_step``) and each factor of the
one-block product (``_qmorris_factors``) is a set of a-free triples times
one symbol (q^{a+s}; q)_b, so the Baker-Forrester value is K times
prod_s (q^{a+s}; q)_b, a polynomial in z = q^a of degree nb with its roots
and its scale K in plain view.  ``bf_cyclo`` builds that value; the
q-Morris value is its one-block case, the a = b = 0 value is ``bf_cyclo``
there, and the scalar recursion identity checks the step's own factor.
Each scalar identity sums its Cyclo-scaled terms with ``cyclo_sum`` and
compares the sum with a side built from ``Cyclo`` binomials.
"""

from __future__ import annotations

from .laurent import ct_fold
from .products import Shape, _max_part
from .qring import ZERO, Cyclo, QFrac, QLaurent, cyclo_sum


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
    return Cyclo.poch_product([(1, sum(a), 1)] + [(1, ai, -1) for ai in a]).expand()


def _qmorris_factors(n: int, b: int, c: int) -> list:
    """The one-block product as n (a-free triples, shift s) pairs: factor i
    is (q)_{(i+1)c} / ((q)_{b+ic} (q)_c) times (q^{a+s}; q)_b, s = ic + 1,
    which is (q)_{a+b+ic} / (q)_{a+ic}."""
    return [(((1, (i + 1) * c, 1), (1, b + i * c, -1), (1, c, -1)), i * c + 1) for i in range(n)]


def qmorris_rhs(n: int, a: int, b: int, c: int) -> QLaurent:
    """prod_{i=0}^{n-1} (q)_{a+b+ic} (q)_{(i+1)c} / ((q)_{a+ic} (q)_{b+ic} (q)_c):
    the block recursion on one block."""
    return bf_rhs(BFParams(Shape((n,)), a, b, c))


def bf_p1_rhs(n0: int, n1: int, a: int, b: int, c: int) -> QLaurent:
    """Two-block closed form: the double product with chi(j > n0) shifts."""
    if n0 < 1 or n1 < 1:
        raise ValueError("block sizes must be positive")
    n = n0 + n1
    pochs = [(j * (c + 1), 1, 1) for j in range(2, n - n0 + 1)]
    for j in range(n):
        shift = (j - n0) if j > n0 else 0
        chi = 1 if j > n0 else 0
        pochs += [(a + j * c + shift + 1, b, 1), (1, (j + 1) * c + shift, 1),
                  (1, b + j * c + shift, -1), (1, c + chi, -1)]
    return Cyclo.poch_product(pochs).expand()


def _recursion_step(parts, b: int, c: int, k: int) -> tuple:
    """One step of the block recursion on the parts (n_0, ..., n_p),
    lowering part k (k >= 1, n_k maximal), as (a-free triples, shift s):
    the step multiplies by the triples and by (q^{a+s}; q)_b,
    s = (n-1)c + n_k."""
    n = sum(parts)
    nk = parts[k]
    s = (n - 1) * c + nk
    return ((nk * (c + 1), 1, 1), *Cyclo.qbinom(n * c + nk - 1, c), (c + 1, 1, -1), (s, b, -1)), s


def bf_factored(shape: Shape, b: int, c: int, k: int | None = None) -> tuple[Cyclo, list[int]]:
    """(K, shifts) with bf_cyclo = K * prod_{s in shifts} (q^{a+s}; q)_b, from
    one walk of the block recursion down the shape's parts: one shift
    (n-1)c + n_k per step, then ic + 1 for i < n_0 from the one-block
    product.  In z = q^a the closed form is K * prod_s prod_{j<b}
    (1 - q^{s+j} z), a polynomial of degree nb."""
    parts = list(shape.parts)
    factors = []
    while len(parts) > 1:
        kk = _max_part(parts)
        if k is not None:
            if not (1 <= k < len(parts) and parts[k] == parts[kk]):
                raise ValueError("k must point at a maximal decorated part")
            kk, k = k, None
        factors.append(_recursion_step(parts, b, c, kk))
        parts[kk] -= 1
        if not parts[kk]:
            del parts[kk]
    factors += _qmorris_factors(parts[0], b, c)
    return (Cyclo.poch_product(t for triples, _ in factors for t in triples),
            [s for _, s in factors])


def bf_cyclo(params: BFParams, k: int | None = None) -> Cyclo:
    """bf_rhs before its expansion, as one factored value."""
    scale, shifts = bf_factored(params.shape, params.b, params.c, k)
    return scale * Cyclo.poch_product((params.a + s, params.b, 1) for s in shifts)


def bf_rhs(params: BFParams, k: int | None = None) -> QLaurent:
    """Iterate the recursion down to the one-block case, then the n-fold
    product formula.  ``k`` forces the first maximal-part choice (ties only);
    by default the smallest maximizing index is taken at every step.
    """
    return bf_cyclo(params, k).expand()


def dn0_rhs(shape: Shape, c: int) -> QLaurent:
    """The a = b = 0 value of the block recursion, down to the one-block case
    (q)_{n0 c}/(q)_c^{n0}."""
    return bf_cyclo(BFParams(shape, 0, 0, c)).expand()


def kadell_rhs(v, r: int, a) -> QLaurent:
    """Closed form of the one-row symmetric-weight constant term; zero unless
    v concentrates the full weight r in one slot."""
    v = list(v)
    a = list(a)
    if r < 1:
        raise ValueError("r must be positive")
    if len(v) != len(a):
        raise ValueError("v and a must have equal length")
    if any(x < 0 for x in a):
        raise ValueError("Pochhammer lengths a_i must be nonnegative")
    if any(x < 0 for x in v) or sum(v) != r:
        raise ValueError("v must be nonnegative with |v| = r")
    n = len(a)
    nonzero = [i for i, x in enumerate(v) if x]
    if len(nonzero) != 1:
        return ZERO
    k = nonzero[0] + 1  # 1-based slot holding r
    total = sum(a)
    if total == 0 or a[k - 1] == 0:
        return ZERO
    pochs = [(a[k - 1], 1, 1), (total, r, 1), (total, 1, -1), (total - a[k - 1] + 1, r, -1)]
    pochs += [t for i in range(n) for t in Cyclo.qbinom(sum(a[i:]), a[i])]
    return (Cyclo(1, sum(a[k:])) * Cyclo.poch_product(pochs)).expand()


# -- scalar summation identities -----------------------------------------------------


def qsum_lhs(n: int, t: int) -> QFrac:
    """sum_{j=0}^t q^{j(n-t)} / ((q^{-j})_j (q)_{t-j})."""
    return cyclo_sum((Cyclo.poch_product(((-j, j, -1), (1, t - j, -1))),
                      QLaurent.q_power(j * (n - t))) for j in range(t + 1))


def qsum_identity_holds(n: int, t: int) -> bool:
    return qsum_lhs(n, t) == Cyclo.poch_product(Cyclo.qbinom(n, t)).expand()


def qbinom_theorem_holds(t: int) -> bool:
    """(z)_t = sum_j q^binom(j,2) [t j] (-z)^j with z a fresh variable.

    Checked as an identity of polynomials in z with QLaurent coefficients:
    the left side is the one-variable fold of the t factors (1 - q^j z).
    """
    lhs = ct_fold(1, [(1, None, j) for j in range(t)])
    rhs = {(j,): (Cyclo(-1 if j % 2 else 1, j * (j - 1) // 2) * Cyclo.poch_product(Cyclo.qbinom(t, j))).expand()
           for j in range(t + 1)}
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
    """The factor by which one recursion step lowering part k multiplies, at
    a = b = 0, where the step's (q^{a+s}; q)_b symbols are empty."""
    return Cyclo.poch_product(_recursion_step(shape.parts, 0, c, k)[0]).expand()


def rec_scalar_identity_holds(shape: Shape, c: int) -> bool:
    """The scalar recursion identity at every maximal decorated part k."""
    top = max(shape.parts[1:])
    return all(rec_scalar_lhs(shape, c, k) == rec_scalar_rhs(shape, c, k)
               for k in range(1, shape.p + 1) if shape.parts[k] == top)


def identity_suite(nmax: int, shapes_nmax: int, cmax: int) -> dict:
    """Check the q-summation identity (n <= nmax), the q-binomial theorem
    (t <= nmax) and the scalar recursion identity (shapes with n <=
    shapes_nmax, c <= cmax).  Returns a report dict; the first failing tuple
    (if any) is recorded as the witness.  The checks stop there, so the
    identities after it read "not run".
    """
    report = {"qsum": "not run", "qbinom_theorem": "not run", "rec_scalar": "not run", "witness": None}
    for n in range(0, nmax + 1):
        for t in range(0, n + 1):
            if not qsum_identity_holds(n, t):
                report["qsum"] = "fail"
                report["witness"] = ("qsum", n, t)
                return report
    report["qsum"] = "pass"
    for t in range(0, nmax + 1):
        if not qbinom_theorem_holds(t):
            report["qbinom_theorem"] = "fail"
            report["witness"] = ("qbinom_theorem", t)
            return report
    report["qbinom_theorem"] = "pass"
    for shape in all_shapes(shapes_nmax, min_p=1):
        for c in range(0, cmax + 1):
            if not rec_scalar_identity_holds(shape, c):
                report["rec_scalar"] = "fail"
                report["witness"] = ("rec_scalar", shape.parts, c)
                return report
    report["rec_scalar"] = "pass"
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
