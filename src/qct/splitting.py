"""Partial-fraction splitting of the decorated pair product.

The rational function S divides the pair product by D y-linear factors
(1 - q^z y/x_l); S decomposes into simple terms A_{ij}/(1 - q^j y/x_i) whose
coefficients have closed product forms.  This module builds those
coefficients, verifies the decomposition exactly, hosts the five scalar
Pochhammer transformations behind the closed forms, and exposes the family
of vanishing coefficients of the pair product.

Every coefficient, both sides of every residue identity and the pair product
are products of linear factors (1 - q^m x_a/x_b), a monomial and a q-scalar
whose denominator is a product of Pochhammer symbols.  ``laurent.Factored``
keeps them in that form, so each residue identity is one comparison of
parts, a degree bound is a sum of per-factor degrees, and the case expands
nothing but its constant terms, one point fold per coefficient.
"""

from __future__ import annotations

from .closedform import dn0_rhs
from .laurent import Factored, MLaurent, ct_fold, ct_point
from .products import Shape, pair_linear
from .qring import Cyclo, QFrac, QLaurent, cyclo_sum


def denominator_factors(shape: Shape, c: int, k: int | None = None) -> list[tuple[int, int]]:
    """(z, l) pairs for the y-linear factors (1 - q^z y/x_l) dividing the
    pair product, z running over ``admissible_j`` for each variable l."""
    if shape.p < 1:
        raise ValueError("splitting needs at least one decorated block")
    return [(z, l) for l in range(1, shape.n + 1) for z in admissible_j(shape, c, l, k)]


def admissible_j(shape: Shape, c: int, i: int, k: int | None = None) -> range:
    """The j of the coefficients A_{ij} of variable i: classes below k use j
    in 0..c-1, class k uses -1..c-1, classes above k use -1..c-2."""
    if k is None:
        k = shape.max_block()
    t = shape.block_of(i)
    if t < k:
        return range(0, c)
    if t == k:
        return range(-1, c)
    return range(-1, c - 1)


def pair_product(shape: Shape, c: int) -> MLaurent:
    """The pair product expanded over QFrac."""
    terms = ct_fold(shape.n, list(pair_linear(shape, c)))
    return MLaurent(shape.n, {e: QFrac.from_qlaurent(x) for e, x in terms.items()}, _trusted=True)


# table-driven assembly of the split coefficients ------------------------------------
#
# Each row: (range lo, range hi, q-exponent of the scalar prefactor,
# bold monomial tag (None, "l/i", "i/l"), [(poch base, poch length), ...]);
# ranges are inclusive in l, and none holds l = i.


def _acoeff_rows(shape: Shape, c: int, i: int, j: int, k: int):
    sg = shape.sigma
    n = shape.n
    t = shape.block_of(i)
    if t == 0:
        # class 0: i in the undecorated block, j in 0..c-1
        return [
            (1, i - 1, c * (j + 1), None, [(-c, j + 1), (j + 1, c - j - 1)]),
            (i + 1, sg(k - 1), c * j, None, [(1 - c, j), (j + 1, c - j)]),
            (sg(k - 1) + 1, sg(k), (c + 1) * j + 1, "l/i", [(1 - c, j), (j + 2, c - j - 1)]),
            (sg(k) + 1, n, c * (j + 1), None, [(1 - c, j + 1), (j + 2, c - j - 1)]),
        ]
    if t < k:
        return [
            (1, sg(t - 1), c * (j + 1), None, [(-c, j + 1), (j + 1, c - j - 1)]),
            (sg(t - 1) + 1, i - 1, c * (j + 2) + 1, "i/l", [(-c - 1, j + 2), (j + 1, c - j)]),
            (i + 1, sg(t), c * (j + 1), "i/l", [(-c, j + 1), (j + 1, c + 1 - j)]),
            (sg(t) + 1, sg(k - 1), c * j, None, [(1 - c, j), (j + 1, c - j)]),
            (sg(k - 1) + 1, sg(k), (c + 1) * j + 1, "l/i", [(1 - c, j), (j + 2, c - j - 1)]),
            (sg(k) + 1, n, c * (j + 1), None, [(1 - c, j + 1), (j + 2, c - j - 1)]),
        ]
    if t == k:
        return [
            (1, sg(k - 1), c * (j + 1), None, [(-c, j + 1), (j + 1, c - j - 1)]),
            (sg(k - 1) + 1, i - 1, (c + 1) * (j + 2), None, [(-c - 1, j + 2), (j + 2, c - j - 1)]),
            (i + 1, sg(k), (c + 1) * (j + 1), None, [(-c, j + 1), (j + 2, c - j)]),
            (sg(k) + 1, n, c * (j + 1), None, [(1 - c, j + 1), (j + 2, c - j - 1)]),
        ]
    # class t > k
    return [
        (1, sg(k - 1), c * (j + 1), None, [(-c, j + 1), (j + 1, c - j - 1)]),
        (sg(k - 1) + 1, sg(k), (c + 1) * (j + 1), "l/i", [(-c, j + 1), (j + 2, c - j - 2)]),
        (sg(k) + 1, sg(t - 1), c * (j + 2), None, [(-c, j + 2), (j + 2, c - j - 2)]),
        (sg(t - 1) + 1, i - 1, c * (j + 3) + 1, "i/l", [(-c - 1, j + 3), (j + 2, c - j - 1)]),
        (i + 1, sg(t), c * (j + 2), "i/l", [(-c, j + 2), (j + 2, c - j)]),
        (sg(t) + 1, n, c * (j + 1), None, [(1 - c, j + 1), (j + 2, c - j - 1)]),
    ]


def _acoeff_parts(shape: Shape, c: int, i: int, j: int, k: int):
    """(sign, q-exponent, scalar denominator, monomial exponent vector,
    (a, b, m) triples of the linear factors (1 - q^m x_a/x_b)) of one
    splitting coefficient.  The sign and the q-exponent are read off the
    table rows; the denominator is (q^-j')_j' (q)_{c-j'-[t != k]} with
    j' = j + [t >= k], t the class of i."""
    if j not in admissible_j(shape, c, i, k):
        raise ValueError(f"j={j} out of range for variable {i}")
    triples = []
    mono = [0] * shape.n
    qexp = 0
    sign = 1
    for lo, hi, e, bold, pochs in _acoeff_rows(shape, c, i, j, k):
        for l in range(lo, hi + 1):
            qexp += e
            if bold == "l/i":
                sign = -sign
                mono[l - 1] += 1
                mono[i - 1] -= 1
            elif bold == "i/l":
                sign = -sign
                mono[i - 1] += 1
                mono[l - 1] -= 1
            for base, length in pochs:
                triples.extend((l, i, base + t) for t in range(length))
    triples.extend(pair_linear(shape, c, skip=(i,)))
    t = shape.block_of(i)
    j1 = j + (t >= k)
    den = Cyclo.poch_product(((-j1, j1, 1), (1, c - j1 - (t != k), 1)))
    return sign, qexp, den, tuple(mono), triples


def _same_variable_scalar(dens, i: int, j: int) -> Cyclo:
    """At y = q^{-j} x_i a denominator factor (1 - q^z y/x_i), z != j,
    collapses to the scalar 1 - q^{z-j}; their product."""
    return Cyclo.poch_product((z - j, 1, 1) for z, l in dens if l == i and z != j)


class SplitDecomposition:
    """The splitting case at one (shape, c): every coefficient A_{ij} and the
    pair product as one ``Factored`` value each.

    The split identity needs no check of its own.  With f_(z,l) =
    (1 - q^z y/x_l), the cleared identity's difference
        Delta = sum_{(i,j)} A_{ij} prod_{(z,l) != (j,i)} f_(z,l) - pair product
    is a polynomial in y of degree < D over Q(q)(x).  At y = q^{-j} x_i every
    term but A_{ij}'s vanishes, so Delta(q^{-j} x_i) is the difference of
    residue identity (i, j).  These D points are distinct, so Delta = 0
    exactly when all D residue identities hold (and a split identity that
    holds gives each residue identity by evaluation).
    """

    __slots__ = ("shape", "c", "k", "denominator", "coefficients", "pair")

    def __init__(self, shape: Shape, c: int, k: int | None = None):
        self.shape, self.c = shape, c
        self.k = k = shape.max_block() if k is None else k
        # coefficient t is A_{ij} for the t-th denominator factor (z, l) = (j, i)
        self.denominator = dens = denominator_factors(shape, c, k)
        self.coefficients = []
        for j, i in dens:
            sign, qexp, den, mono, triples = _acoeff_parts(shape, c, i, j, k)
            self.coefficients.append(Factored(Cyclo(sign, qexp) / den, mono, triples))
        self.pair = Factored(Cyclo(), (0,) * shape.n, pair_linear(shape, c))

    def residue_holds(self, i: int, j: int) -> bool:
        """A_{ij} * prod_{(z,l) != (j,i)} (1 - q^{z-j} x_i/x_l) equals the
        pair product (the residue of S at y = q^{-j} x_i); the factors with
        l = i are the scalars 1 - q^{z-j}."""
        dens = self.denominator
        if (j, i) not in dens:
            raise ValueError(f"j={j} out of range for variable {i}")
        rest = Factored(_same_variable_scalar(dens, i, j), (0,) * self.shape.n,
                        [(i, l, z - j) for z, l in dens if l != i])
        return self.coefficients[dens.index((j, i))] * rest == self.pair

    def _classes(self):
        """(class, i, A_{ij}) for every coefficient."""
        return [(self.shape.block_of(i), i, A) for (_, i), A in zip(self.denominator, self.coefficients)]

    def degree_bounds_ok(self) -> bool:
        """Class 0 coefficients live in x_i-degree <= -n_k, side classes in
        <= -(n_k - n_t + 1), class k in <= 0."""
        nk = self.shape.parts[self.k]
        for cls, i, A in self._classes():
            if cls == 0:
                bound = -nk
            elif cls == self.k:
                bound = 0
            else:
                bound = -(nk - self.shape.parts[cls] + 1)
            top = A.top_degree(i)
            if top is not None and top > bound:
                return False
        return True

    def offclass_cts_vanish(self) -> bool:
        return all(A.constant_term().is_zero() for cls, _, A in self._classes() if cls != self.k)

    def class_k_ct_sum(self) -> QFrac:
        """The sum of the class-k constant terms."""
        return cyclo_sum((A.scalar, A.constant_term()) for cls, _, A in self._classes() if cls == self.k)


def residue_identity_holds(shape: Shape, c: int, i: int, j: int, k: int | None = None) -> bool:
    """The residue identity of one coefficient."""
    return SplitDecomposition(shape, c, k).residue_holds(i, j)


def verify_split(shape: Shape, c: int) -> dict:
    """The whole splitting case at (shape, c), exact: every residue identity
    (and so the split identity, see ``SplitDecomposition``), the degree
    bounds, the vanishing off-class constant terms and the class-k
    constant-term sum against ``closedform.dn0_rhs``.  The witness names
    the first check that fails."""
    sd = SplitDecomposition(shape, c)
    report = {"shape": shape.parts, "c": c, "k": sd.k, "terms": len(sd.denominator),
              "mode": "exact", "ok": False, "witness": None}
    mismatch = next(([i, j] for j, i in sd.denominator if not sd.residue_holds(i, j)), None)
    if mismatch is not None:
        report["witness"] = {"residue_mismatch": mismatch}
    elif not sd.degree_bounds_ok():
        report["witness"] = {"degree_bounds": False}
    elif not sd.offclass_cts_vanish():
        report["witness"] = {"offclass_ct": "nonzero"}
    elif sd.class_k_ct_sum() != dn0_rhs(shape, c):
        report["witness"] = {"class_k_sum": "mismatch"}
    else:
        report["ok"] = True
    return report


# -- the five scalar Pochhammer transformations ---------------------------------------


def _poch_y(base: int, length: int, inverse: bool):
    """(q^base y)_length or (q^base / y)_length as arity-1 linear factors."""
    if inverse:
        return [(None, 1, base + t) for t in range(length)]
    return [(1, None, base + t) for t in range(length)]


def _expand1(factors, mono=(0, 0, 1)):
    """The product of arity-1 linear factors expanded, times the monomial
    coeff * q^qexp * y^exp given as mono = (exp, qexp, coeff)."""
    exp, qexp, coeff = mono
    scale = QLaurent.q_power(qexp, coeff)
    return {(e + exp,): p * scale for (e,), p in ct_fold(1, factors).items()}


def _poch_identity_case(ident: str, i: int, j: int, t: int) -> bool:
    """Cleared form: LHS numerator == RHS * LHS denominator, in one variable y."""
    if ident == "b1":
        lhs = _poch_y(0, i, True) + _poch_y(1, j, False)
        rhs = _poch_y(1 - i, t, False) + _poch_y(t + 1, j - t, False)
        rmono = (0, i * t, 1)
        den = _poch_y(-t, i, True)
    elif ident == "b2":
        lhs = _poch_y(0, j, False) + _poch_y(1, i, True)
        rhs = _poch_y(-i, t + 1, False) + _poch_y(t + 1, j - t - 1, False)
        rmono = (0, i * (t + 1), 1)
        den = _poch_y(-t, i, True)
    elif ident == "c":
        lhs = _poch_y(0, j, False) + _poch_y(1, i, True)
        rhs = _poch_y(-i, t, False) + _poch_y(t + 1, j - t - 1, False)
        rmono = (1, (i + 1) * t, -1)
        den = _poch_y(-t, i + 1, True)
    elif ident == "d":
        lhs = _poch_y(0, i + 1, True) + _poch_y(1, j + 1, False)
        rhs = _poch_y(-i, t + 1, False) + _poch_y(t + 1, j + 1 - t, False)
        rmono = (-1, i * (t + 1), -1)
        den = _poch_y(-t, i, True)
    elif ident == "e":
        lhs = _poch_y(0, j + 1, False) + _poch_y(1, i + 1, True)
        rhs = _poch_y(-i - 1, t + 2, False) + _poch_y(t + 1, j - t, False)
        rmono = (-1, i * (t + 2) + 1, -1)
        den = _poch_y(-t, i, True)
    else:
        raise ValueError(ident)
    left = _expand1(lhs)
    right = _expand1(rhs + den, rmono)
    return left == right


_T_RANGES = {
    "b1": lambda i, j: range(0, j + 1),
    "b2": lambda i, j: range(-1, j),
    "c": lambda i, j: range(0, j) if j >= 1 else range(0, 0),
    "e": lambda i, j: range(-2, j + 1),
    "d": lambda i, j: range(-1, j + 2),
}


def poch_identities(imax: int, jmax: int) -> dict:
    """All five ratio transformations over 0 <= i <= imax, 0 <= j <= jmax and
    every admissible t; reports the first failing triple."""
    report = {"checked": 0, "ok": True, "witness": None}
    for ident in ("b1", "b2", "c", "d", "e"):
        for i in range(imax + 1):
            for j in range(jmax + 1):
                for t in _T_RANGES[ident](i, j):
                    report["checked"] += 1
                    if not _poch_identity_case(ident, i, j, t):
                        report["ok"] = False
                        report["witness"] = (ident, i, j, t)
                        return report
    return report


# -- vanishing coefficients ---------------------------------------------------------------


def vanishing_check(shape: Shape, h, t, c: int) -> QLaurent:
    """Coefficient of the pair product that the splitting forces to zero.

    ``h`` lists one integer per decorated block, ``t`` one nonnegative integer
    per variable; preconditions: 2 <= n_0 <= n-1, sum h_u <= n_0 - 1 and
    sum t_l = sum h_u n_u - n_0.  Returns the coefficient (expected 0).
    """
    h = list(h)
    t = list(t)
    n, p = shape.n, shape.p
    n0 = shape.parts[0]
    if len(h) != p:
        raise ValueError("h needs one entry per decorated block")
    if len(t) != n:
        raise ValueError("t needs one entry per variable")
    if not 2 <= n0 <= n - 1:
        raise ValueError("need 2 <= n_0 <= n-1")
    if sum(h) > n0 - 1:
        raise ValueError("sum of h exceeds n_0 - 1")
    if any(x < 0 for x in t):
        raise ValueError("t entries must be nonnegative")
    if sum(t) != sum(h[u] * shape.parts[u + 1] for u in range(p)) - n0:
        raise ValueError("t does not balance the monomial degree")
    mono = [0] * n
    for v in range(1, n0 + 1):
        mono[v - 1] += 1
    for u in range(1, p + 1):
        for v in shape.block(u):
            mono[v - 1] -= h[u - 1]
    for l in range(n):
        mono[l] += t[l]
    return ct_point(mono, pair_linear(shape, c))
