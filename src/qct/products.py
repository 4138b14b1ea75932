"""Constructors for the product families whose constant terms we study.

Every left-hand side is assembled as a list of linear fold factors
(1 - q^m x_i/x_j); the factor list is the authoritative representation and
feeds the pruned CT fold.

The projective variable x_0 is set to 1 inside every builder (homogeneity of
the full product makes this harmless for constant terms), so a product over
x_1..x_n has arity n.
"""

from __future__ import annotations

from .laurent import FoldFactor, MLaurent, ct_fold, fold_packed_raw, linear_factors, pack_qlaurent, packed_add, packed_mul, _decode_packed
from .qring import ONE, QFrac, QLaurent


class Shape:
    """Block structure (n_0, n_1, ..., n_p) of the decorated product.

    Variables 1..n are split into consecutive blocks N_0..N_p of the given
    sizes; N_0 is the undecorated block.  All parts must be >= 1 (drop zero
    parts before constructing).
    """

    __slots__ = ("parts", "n", "p", "_sigma")

    def __init__(self, parts):
        parts = tuple(int(x) for x in parts)
        if not parts:
            raise ValueError("shape needs at least n_0")
        if any(x < 1 for x in parts):
            raise ValueError("shape parts must be positive (drop zero parts first)")
        self.parts = parts
        self.n = sum(parts)
        self.p = len(parts) - 1
        acc = []
        total = 0
        for x in parts:
            total += x
            acc.append(total)
        self._sigma = tuple(acc)

    @staticmethod
    def parse(text: str) -> "Shape":
        return Shape(int(t) for t in text.split(","))

    def sigma(self, l: int) -> int:
        """n_0 + ... + n_l; sigma(-1) = 0."""
        if l < 0:
            return 0
        return self._sigma[l]

    def block(self, l: int) -> range:
        """The 1-based variable indices of block N_l."""
        return range(self.sigma(l - 1) + 1, self.sigma(l) + 1)

    def block_of(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError("index out of range")
        for l in range(self.p + 1):
            if i <= self._sigma[l]:
                return l
        raise AssertionError

    def decremented(self, k: int) -> "Shape":
        """Shape with part k lowered by one, zero parts dropped."""
        parts = list(self.parts)
        parts[k] -= 1
        if parts[k] == 0:
            del parts[k]
        return Shape(parts)

    def max_block(self) -> int:
        """Smallest index k >= 1 with n_k maximal among the decorated parts."""
        if self.p == 0:
            raise ValueError("no decorated blocks")
        best = max(self.parts[1:])
        return next(k for k in range(1, self.p + 1) if self.parts[k] == best)

    def sorted_decorated(self) -> tuple[int, ...]:
        """Decorated part sizes in weakly increasing order."""
        return tuple(sorted(self.parts[1:]))

    def __eq__(self, other):
        return isinstance(other, Shape) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Shape{self.parts}"

    def __str__(self):
        return ",".join(str(x) for x in self.parts)


def epsilon(shape: Shape, i: int, j: int) -> int:
    """1 when i and j share a decorated block, else 0."""
    if not (1 <= i <= shape.n and 1 <= j <= shape.n) or i == j:
        raise ValueError("index out of range")
    li = shape.block_of(i)
    return 1 if li >= 1 and li == shape.block_of(j) else 0


# -- factor lists -----------------------------------------------------------------


def qdyson_factors(a) -> list[FoldFactor]:
    """Linear factors of prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}."""
    a = list(a)
    n = len(a)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.extend(linear_factors(n, i, j, 0, a[i - 1]))
            out.extend(linear_factors(n, j, i, 1, a[j - 1]))
    return out


def pair_linear(shape: Shape, c: int, skip: int | None = None):
    """(a, b, m) for each linear factor (1 - q^m x_a/x_b) of
    prod_{i<j} (x_i/x_j)_{c+eps} (q x_j/x_i)_{c+eps}; ``skip`` drops every
    pair that involves that variable."""
    n = shape.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if skip in (i, j):
                continue
            z = c + epsilon(shape, i, j)
            for t in range(z):
                yield i, j, t
            for t in range(z):
                yield j, i, 1 + t


def pair_factors(shape: Shape, c: int) -> list[FoldFactor]:
    """The pair product's linear factors as fold factors."""
    return [FoldFactor.linear(shape.n, a, b, m) for a, b, m in pair_linear(shape, c)]


def bf_factors(shape: Shape, a: int, b: int, c: int) -> list[FoldFactor]:
    """Full factor list, ordered so low variables are closed off first."""
    n = shape.n
    groups: list[list[FoldFactor]] = [[] for _ in range(n + 1)]
    for i, j, m in pair_linear(shape, c):
        groups[min(i, j)].append(FoldFactor.linear(n, i, j, m))
    for i in range(1, n + 1):
        groups[i].extend(linear_factors(n, None, i, 0, a))
        groups[i].extend(linear_factors(n, i, None, 1, b))
    out = []
    for g in groups:
        out.extend(g)
    return out


# -- expanded builders ---------------------------------------------------------------


def kadell_h(r: int, a) -> MLaurent:
    """Complete symmetric polynomial h_r on the alphabet (x_i q^t, t < a_i)."""
    if r < 1:
        raise ValueError("r must be positive")
    a = list(a)
    n = len(a)
    h = [MLaurent.constant(n, 1)] + [MLaurent(n) for _ in range(r)]
    for i in range(1, n + 1):
        exps = tuple(1 if t == i - 1 else 0 for t in range(n))
        for t in range(a[i - 1]):
            letter = MLaurent.monomial(n, exps, QFrac.q_power(t))
            for s in range(1, r + 1):
                h[s] = h[s] + letter * h[s - 1]
    return h[r]


# -- constant terms ----------------------------------------------------------------------


def ct_qdyson(a) -> QFrac:
    a = list(a)
    n = len(a)
    zero = (0,) * n
    res = ct_fold(n, qdyson_factors(a), zero, zero)
    return QFrac.from_qlaurent(res.get(zero, QLaurent()))


def bf_ct(shape: Shape, a: int, b: int, c: int) -> QFrac:
    """Brute-force constant term of the full product, one point fold."""
    n = shape.n
    zero = (0,) * n
    res = ct_fold(n, bf_factors(shape, a, b, c), zero, zero)
    return QFrac.from_qlaurent(res.get(zero, QLaurent()))


def qmorris_ct(n: int, a: int, b: int, c: int) -> QFrac:
    return bf_ct(Shape((n,)), a, b, c)


def kadell_ct(v, r: int, a) -> QFrac:
    """Brute-force CT of x^{-v} h_r(alphabet) times the q-Dyson product."""
    v = list(v)
    a = list(a)
    n = len(a)
    if len(v) != n:
        raise ValueError("v and a must have equal length")
    factors = [FoldFactor.monomial(n, tuple(-x for x in v))]
    hr = kadell_h(r, a)
    if hr.is_zero():
        return QFrac(0)
    factors.append(FoldFactor.general(n, hr))
    factors.extend(qdyson_factors(a))
    zero = (0,) * n
    res = ct_fold(n, factors, zero, zero)
    return QFrac.from_qlaurent(res.get(zero, QLaurent()))


def x0_weights(a: int, b: int) -> dict[int, QLaurent]:
    """Coefficients of (1/u)_a (q u)_b as a map exponent -> QLaurent."""
    factors = []
    factors.extend(linear_factors(1, None, 1, 0, a))
    factors.extend(linear_factors(1, 1, None, 1, b))
    if not factors:
        return {0: ONE}
    res = ct_fold(1, factors, None, None)
    return {e[0]: c for e, c in res.items()}


def bf_ct_grid(shape: Shape, c: int, jobs) -> dict[tuple[int, int], QFrac]:
    """Constant terms for many (a, b) pairs at one shape and c.

    The pair product is expanded once inside the window it can contribute to,
    then each (a, b) value is an exact weighted contraction against the
    x_0-factor coefficients.  Identical in value to bf_ct, much cheaper on
    grids and interpolation sweeps.
    """
    jobs = list(jobs)
    n = shape.n
    amax = max(a for a, _ in jobs)
    bmax = max(b for _, b in jobs)
    weights = {}
    wl1 = 1
    for a, b in jobs:
        if (a, b) not in weights:
            w = x0_weights(a, b)
            weights[(a, b)] = w
            wl1 = max(wl1, sum(x.l1_norm() for x in w.values()))
    pairs = pair_factors(shape, c)
    tlo = (-bmax,) * n
    thi = (amax,) * n
    packed, B = fold_packed_raw(n, pairs, tlo, thi, extra_l1=wl1 ** n)
    out = {}
    for a, b in jobs:
        w = weights[(a, b)]
        wp = {-e: pack_qlaurent(p, B) for e, p in w.items() if not p.is_zero()}
        # contract one slot at a time: sum the last slot of every exponent
        # against the x_0 weights into a dict over the remaining prefix
        level = packed
        for _ in range(n):
            nxt: dict = {}
            for v, coeff in level.items():
                f = wp.get(v[-1])
                if f is None:
                    continue
                term = packed_mul(coeff, f, B)
                rest = v[:-1]
                cur = nxt.get(rest)
                nxt[rest] = term if cur is None else packed_add(cur, term, B)
            level = nxt
        total = level.get(())
        if total is None:
            out[(a, b)] = QFrac(0)
        else:
            out[(a, b)] = QFrac.from_qlaurent(_decode_packed(total[0], total[1], B))
    return out
