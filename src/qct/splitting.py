"""Partial-fraction splitting of the decorated pair product.

The rational function S divides the pair product by a battery of y-linear
factors (1 - q^z y/x_l); S decomposes into simple terms A_{ij}/(1 - q^j y/x_i)
whose coefficients have closed product forms.  This module builds those
coefficients, verifies the decomposition exactly by clearing denominators,
hosts the five scalar Pochhammer transformations behind the closed forms, and
exposes the family of vanishing coefficients of the pair product.

All heavy identity checks run denominator-cleared: the scalar prefactors
1/((q^{-j})_j (q)_{c-j-1}) and friends are replaced by +-q^e / (plain
Pochhammer products, kept factored as a ``Cyclo``), and both sides are
multiplied by a fixed common multiple L.  The exact case,
``SplitDecomposition``, folds each coefficient and the pair product once in
one shared ``laurent.KeyBox``; the split identity (a Horner sum in y), each
residue identity and the decomposition's facts all start from those packed
states.  A passing case decodes only the class-k constant-term sum and
computes no gcd.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .laurent import FoldFactor, KeyBox, MLaurent, ct_fold, linear_factors
from .products import Shape, pair_factors
from .qring import ONE, Cyclo, QFrac, QLaurent


def split_k(shape: Shape) -> int:
    return shape.max_block()


def denominator_factors(shape: Shape, c: int, k: int | None = None) -> list[tuple[int, int]]:
    """(z, l) pairs for the y-linear factors (1 - q^z y/x_l) dividing the
    pair product: classes below k use z in 0..c-1, class k uses -1..c-1,
    classes above k use -1..c-2."""
    if shape.p < 1:
        raise ValueError("splitting needs at least one decorated block")
    if k is None:
        k = split_k(shape)
    out = []
    for t in range(shape.p + 1):
        if t < k:
            zs = range(0, c)
        elif t == k:
            zs = range(-1, c)
        else:
            zs = range(-1, c - 1)
        for l in shape.block(t):
            for z in zs:
                out.append((z, l))
    return out


def admissible_j(shape: Shape, c: int, i: int, k: int | None = None) -> range:
    if k is None:
        k = split_k(shape)
    t = shape.block_of(i)
    if t < k:
        return range(0, c)
    if t == k:
        return range(-1, c)
    return range(-1, c - 1)


def _pair_terms(shape: Shape, c: int, skip: int | None = None, arity: int | None = None) -> dict:
    """Expanded pair product as a dict of QLaurent coefficients."""
    return ct_fold(arity or shape.n, pair_factors(shape, c, skip, arity), None, None)


def pair_product(shape: Shape, c: int, skip: int | None = None, arity: int | None = None) -> MLaurent:
    arity = arity or shape.n
    terms = _pair_terms(shape, c, skip, arity)
    return MLaurent(arity, {e: QFrac.from_qlaurent(x) for e, x in terms.items()}, _trusted=True)


# table-driven assembly of the split coefficients ------------------------------------
#
# Each row: (range lo, range hi, q-exponent of the scalar prefactor,
# bold monomial tag (None, "l/i", "i/l"), [(poch base, poch length), ...]);
# ranges are inclusive in l and skip l = i automatically.


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


def _acoeff_scalar_parts(shape: Shape, c: int, i: int, j: int, k: int):
    """(sign, q-shift, plain denominator as a Cyclo) of the scalar prefactor,
    using (q^{-j})_j = (-1)^j q^{-j(j+1)/2} (q)_j to keep the denominator
    positive."""
    t = shape.block_of(i)
    if t < k:
        sign = -1 if j % 2 else 1
        shift = j * (j + 1) // 2
        den = Cyclo.poch(1, j) * Cyclo.poch(1, c - j - 1)
    elif t == k:
        sign = -1 if (j + 1) % 2 else 1
        shift = (j + 1) * (j + 2) // 2
        den = Cyclo.poch(1, j + 1) * Cyclo.poch(1, c - j - 1)
    else:
        sign = -1 if (j + 1) % 2 else 1
        shift = (j + 1) * (j + 2) // 2
        den = Cyclo.poch(1, j + 1) * Cyclo.poch(1, c - j - 2)
    return sign, shift, den


def _acoeff_parts(shape: Shape, c: int, i: int, j: int, k: int, arity: int | None = None):
    """(sign, q-exponent, plain denominator, monomial exponent vector, fold
    factors) of one splitting coefficient, read off the table rows; ``arity``
    (default n) leaves room for further slots after x_n."""
    if j not in admissible_j(shape, c, i, k):
        raise ValueError(f"j={j} out of range for variable {i}")
    n = shape.n
    arity = arity or n
    factors: list[FoldFactor] = []
    mono = [0] * arity
    qexp = 0
    sign = 1
    for lo, hi, e, bold, pochs in _acoeff_rows(shape, c, i, j, k):
        for l in range(lo, hi + 1):
            if l == i:
                continue
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
                factors.extend(linear_factors(arity, l, i, base, length))
    factors.extend(pair_factors(shape, c, skip=i, arity=arity))
    s2, sh2, den = _acoeff_scalar_parts(shape, c, i, j, k)
    return sign * s2, qexp + sh2, den, tuple(mono), factors


def a_coeff_factors(shape: Shape, c: int, i: int, j: int, k: int | None = None):
    """(scalar, monomial exponent vector, fold factors) for one coefficient;
    the exact-evaluation route used by the randomized checks."""
    if k is None:
        k = split_k(shape)
    sign, qexp, den, mono, factors = _acoeff_parts(shape, c, i, j, k)
    return (Cyclo(sign, qexp) / den).to_qfrac(), mono, factors


def _common_multiple(c: int) -> Cyclo:
    """A fixed multiple of every scalar denominator at this c."""
    return Cyclo.poch(1, c) ** 2


def _cleared_piece(shape: Shape, c: int, i: int, j: int, k: int, arity: int,
                   multiple: Cyclo) -> list[FoldFactor]:
    """Fold factors of multiple * A_{ij} in ``arity`` slots, for a multiple
    of A's denominator: A's own factors behind one monomial factor that
    carries its sign, its power of q and the polynomial multiple / den."""
    sign, qexp, den, mono, factors = _acoeff_parts(shape, c, i, j, k, arity)
    scalar = (multiple / den).times(QLaurent.q_power(qexp, sign))
    return [FoldFactor.monomial(arity, mono, 0, scalar)] + factors


def _pair_piece(shape: Shape, c: int, arity: int, multiple: Cyclo) -> list[FoldFactor]:
    """Fold factors of -multiple times the pair product."""
    return [FoldFactor(arity, [(None, 0, -multiple.expand())])] + pair_factors(shape, c, arity=arity)


def _same_variable_scalar(dens, i: int, j: int) -> Cyclo:
    """At y = q^{-j} x_i a denominator factor (1 - q^z y/x_i), z != j,
    collapses to the scalar 1 - q^{z-j}; their product."""
    scalar = Cyclo()
    for z, l in dens:
        if l == i and z != j:
            scalar = scalar * Cyclo.poch(z - j, 1)
    return scalar


def horner_sum(box: KeyBox, terms) -> dict:
    """sum_t s_t * prod_{u != t} F_u over (packed state s_t, factor list F_u)
    pairs folded in ``box``, by Horner: S <- S * F_t + s_t * prod_{u < t} F_u.

    Each s_t goes through the factors before it only, so walking the
    largest states first keeps the work small; the sum is the same in any
    order.
    """
    total: dict = {}
    done = []
    for state, factors in terms:
        total = box.fold(factors, total)
        box.add(total, box.fold(done, state))
        done += factors
    return total


class SplitDecomposition:
    """The exact splitting case at one (shape, c): the split identity, the
    residue identity of every coefficient, and the decomposition's degree
    bounds and constant terms.

    Every check runs denominator-cleared in one ``KeyBox`` over the slots
    (x_1, ..., x_n, y): with L a common multiple of the scalar
    denominators, each coefficient is folded once, on first use, as the
    packed expansion of L * A_{ij}, and -L times the pair product is folded
    once; the checks continue from those states.
    """

    __slots__ = ("shape", "c", "k", "L", "denominator", "box", "_classes", "_pieces",
                 "_ys", "_residue", "_states")

    def __init__(self, shape: Shape, c: int, k: int | None = None):
        self.shape = shape
        self.c = c
        self.k = k = split_k(shape) if k is None else k
        n = shape.n
        self.L = L = _common_multiple(c)
        # coefficient t is A_{ij} for the t-th denominator factor (z, l) = (j, i)
        self.denominator = dens = denominator_factors(shape, c, k)
        self._classes = [shape.block_of(i) for _, i in dens]
        # one piece per coefficient, then the pair product's
        pair = _pair_piece(shape, c, n + 1, L)
        self._pieces = [_cleared_piece(shape, c, i, j, k, n + 1, L) for j, i in dens] + [pair]
        self._ys = ys = [FoldFactor.linear(n + 1, n + 1, i, j) for j, i in dens]
        zero = (0,) * (n + 1)
        self._residue = [
            [FoldFactor.monomial(n + 1, zero, 0, _same_variable_scalar(dens, i, j).expand())]
            + [FoldFactor.linear(n + 1, i, l, z - j) for z, l in dens if l != i]
            for j, i in dens]
        split_sum = [p + ys[:t] + ys[t + 1:] for t, p in enumerate(self._pieces[:-1])] + [pair]
        residue_sums = [[p + r, pair] for p, r in zip(self._pieces, self._residue)]
        self.box = KeyBox(n + 1, [split_sum] + residue_sums)
        self._states = [None] * len(self._pieces)

    def _state(self, t: int) -> dict:
        """Piece t folded on first use: L * A_t, or -L times the pair
        product for t = -1."""
        if self._states[t] is None:
            self._states[t] = self.box.fold(self._pieces[t])
        return self._states[t]

    def split_report(self) -> dict:
        """The split identity, cleared: as polynomials in (x, y) over Z[q],
            L * Num = sum_{(i,j)} (L * A_{ij}) * prod_{(z,l) != (j,i)} (1 - q^z y/x_l).
        The first differing monomial in sorted order is the witness."""
        report = _report(self.shape, self.c, self.k, "exact", len(self.denominator))
        # Horner over the coefficients of each x_i, then over the variables,
        # largest states first (ties to the later variable)
        groups: dict = {}
        for t, (_, i) in enumerate(self.denominator):
            groups.setdefault(i, []).append(t)
        sums = []
        for ts in reversed(groups.values()):
            ts.sort(key=lambda t: -len(self._state(t)))
            ys = [self._ys[t] for t in ts]
            sums.append((horner_sum(self.box, [(self._state(t), [y]) for t, y in zip(ts, ys)]), ys))
        sums.sort(key=lambda s: -len(s[0]))
        diff = horner_sum(self.box, sums)
        self.box.add(diff, self._state(-1))
        report["ok"] = not diff
        if diff:
            report["witness"] = {"monomial": min(self.box.decode(diff))}
        return report

    def residue_holds(self, i: int, j: int) -> bool:
        """A_{ij} * prod_{(z,l) != (j,i)} (1 - q^{z-j} x_i/x_l) equals the
        pair product (the residue of S at y = q^{-j} x_i), both times L."""
        if (j, i) not in self.denominator:
            raise ValueError(f"j={j} out of range for variable {i}")
        t = self.denominator.index((j, i))
        diff = self.box.fold(self._residue[t], self._state(t))
        self.box.add(diff, self._state(-1))
        return not diff

    def degree_bounds_ok(self) -> bool:
        """Class 0 coefficients live in x_i-degree <= -n_k, side classes in
        <= -(n_k - n_t + 1), class k in <= 0."""
        nk = self.shape.parts[self.k]
        for t, ((_, i), cls) in enumerate(zip(self.denominator, self._classes)):
            if cls == 0:
                bound = -nk
            elif cls == self.k:
                bound = 0
            else:
                bound = -(nk - self.shape.parts[cls] + 1)
            state = self._state(t)
            if state and max(self.box.slot_sums(state, (i - 1,))) > bound:
                return False
        return True

    def class_k_ct_sum(self) -> QFrac:
        """The sum of the class-k constant terms, the only value the case
        decodes."""
        origin = self.box.origin
        total: dict = {}
        for t, cls in enumerate(self._classes):
            if cls == self.k and origin in self._state(t):
                self.box.add(total, {origin: self._state(t)[origin]})
        return self.L.divide(self.box.value(total[origin])) if total else QFrac(0)

    def offclass_cts_vanish(self) -> bool:
        origin = self.box.origin
        return all(origin not in self._state(t) for t, cls in enumerate(self._classes) if cls != self.k)


def _report(shape: Shape, c: int, k: int, mode: str, terms: int) -> dict:
    return {"shape": shape.parts, "c": c, "k": k, "terms": terms, "mode": mode,
            "ok": None, "witness": None}


def residue_identity_holds(shape: Shape, c: int, i: int, j: int, k: int | None = None) -> bool:
    """Oracle: the residue identity of one coefficient, folding only that
    coefficient and the pair product."""
    return SplitDecomposition(shape, c, k).residue_holds(i, j)


def build_S(shape: Shape, c: int, k: int | None = None):
    """(numerator, denominator factor list) of the splitting target."""
    return pair_product(shape, c), denominator_factors(shape, c, k)


def verify_split(shape: Shape, c: int, randomized: bool = False, seed: int = 0) -> dict:
    """Check the splitting formula with denominators cleared.

    Exact mode is ``SplitDecomposition.split_report``.  Randomized mode
    evaluates the same cleared identity at seeded rational points instead
    of expanding; reports always flag the mode.
    """
    if not randomized:
        return SplitDecomposition(shape, c).split_report()
    k = split_k(shape)
    report = _report(shape, c, k, "randomized-substitution", 0)
    return _verify_split_randomized(shape, c, k, denominator_factors(shape, c, k), report, seed)


def _verify_split_randomized(shape, c, k, dens, report, seed):
    rng = Random(seed)
    n = shape.n
    for attempt in range(5):
        qv = Fraction(rng.randrange(2, 40), rng.randrange(41, 97))
        xs = [Fraction(rng.randrange(1, 60), rng.randrange(61, 121)) for _ in range(n)]
        yv = Fraction(rng.randrange(1, 60), rng.randrange(61, 121))
        report["terms"] = 0
        try:
            num_val = _eval_pairs(shape, c, xs, qv)
            total = Fraction(0)
            for i in range(1, n + 1):
                for j in admissible_j(shape, c, i, k):
                    report["terms"] += 1
                    scalar, mono, factors = a_coeff_factors(shape, c, i, j, k)
                    val = scalar.eval_fraction(qv)
                    for pos, e in enumerate(mono):
                        val *= xs[pos] ** e
                    for f in factors:
                        val *= _eval_factor(f, xs, qv)
                    for z, l in dens:
                        if (z, l) == (j, i):
                            continue
                        val *= 1 - qv ** z * yv / xs[l - 1]
                    total += val
            report["ok"] = total == num_val
            if not report["ok"]:
                report["witness"] = {"q": str(qv), "difference": str(total - num_val)}
            return report
        except ZeroDivisionError:
            continue
    report["ok"] = False
    report["witness"] = {"error": "could not find a pole-free sample point"}
    return report


def _eval_pairs(shape, c, xs, qv):
    total = Fraction(1)
    for f in pair_factors(shape, c):
        total *= _eval_factor(f, xs, qv)
    return total


def _eval_factor(f: FoldFactor, xs, qv):
    total = Fraction(0)
    for delta, qexp, coeff in f.terms:
        val = coeff.eval_fraction(qv) * qv ** qexp
        if delta is not None:
            for pos, e in enumerate(delta):
                if e:
                    val *= xs[pos] ** e
        total += val
    return total


# -- the five scalar Pochhammer transformations ---------------------------------------


def _poch_y(base: int, length: int, inverse: bool):
    """(q^base y)_length or (q^base / y)_length as arity-1 linear factors."""
    if inverse:
        return linear_factors(1, None, 1, base, length)
    return linear_factors(1, 1, None, base, length)


def _expand1(factors, extra_mono=None):
    fold = list(factors)
    if extra_mono is not None:
        fold = [FoldFactor.monomial(1, (extra_mono[0],), extra_mono[1], extra_mono[2])] + fold
    if not fold:
        return {(0,): ONE}
    return ct_fold(1, fold, None, None)


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
    right = _expand1(rhs + den, extra_mono=rmono)
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


def vanishing_check(shape: Shape, h, t, c: int) -> QFrac:
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
    factors = [FoldFactor.monomial(n, tuple(mono))] + pair_factors(shape, c)
    zero = (0,) * n
    res = ct_fold(n, factors, zero, zero)
    return QFrac.from_qlaurent(res.get(zero, QLaurent()))
