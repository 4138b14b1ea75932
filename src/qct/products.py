"""Constructors for the product families whose constant terms we study.

Every left-hand side is assembled as a list of linear factors, triples
(a, b, m) for (1 - q^m x_a/x_b) with ``None`` for the literal 1; the triple
list is the authoritative representation and feeds the pruned CT fold.  A
monomial prefactor or the Kadell weight only moves which coefficient is read.

The projective variable x_0 is set to 1 inside every builder (homogeneity of
the full product makes this harmless for constant terms), so a product over
x_1..x_n has arity n.
"""

from __future__ import annotations

from .laurent import (_decode_packed, ct_fold, ct_point, fold_packed_raw, pack_qlaurent, packed_add,
                      packed_mul)
from .qring import ONE, ZERO, QLaurent, qbinom


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


def qdyson_factors(a) -> list[tuple]:
    """Linear factors of prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}."""
    n = len(a)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out += [(i, j, t) for t in range(a[i - 1])]
            out += [(j, i, 1 + t) for t in range(a[j - 1])]
    return out


def pair_linear(shape: Shape, c: int, skip=()):
    """(a, b, m) for each linear factor (1 - q^m x_a/x_b) of
    prod_{i<j} (x_i/x_j)_{c+eps} (q x_j/x_i)_{c+eps}; ``skip``, a collection
    of variables, drops every pair that involves one of them."""
    n = shape.n
    for i in range(1, n + 1):
        if i in skip:
            continue
        for j in range(i + 1, n + 1):
            if j in skip:
                continue
            z = c + epsilon(shape, i, j)
            for t in range(z):
                yield i, j, t
            for t in range(z):
                yield j, i, 1 + t


def bf_factors(shape: Shape, a: int, b: int, c: int) -> list[tuple]:
    """Full factor list, ordered so low variables are closed off first."""
    n = shape.n
    groups: list[list[tuple]] = [[] for _ in range(n + 1)]
    for i, j, m in pair_linear(shape, c):
        groups[min(i, j)].append((i, j, m))
    for i in range(1, n + 1):
        groups[i] += [(None, i, t) for t in range(a)]
        groups[i] += [(i, None, 1 + t) for t in range(b)]
    return [f for g in groups for f in g]


# -- the Kadell weight -----------------------------------------------------------------


def kadell_h(r: int, a) -> list:
    """Complete symmetric polynomial h_r on the alphabet (x_i q^t, t < a_i),
    as (exponent tuple, coefficient) pairs:
        h_r = sum_{j_1 + ... + j_n = r} prod_i x_i^{j_i} [a_i + j_i - 1, j_i]_q.
    A variable with a_i = 0 has no letter, so it takes only j_i = 0."""
    if r < 1:
        raise ValueError("r must be positive")
    rows = [((), ONE)]
    for x in a:
        rows = [(js + (j,), coeff * qbinom(x + j - 1, j) if j else coeff)
                for js, coeff in rows for j in range(r - sum(js) + 1 if x else 1)]
    return [(js, coeff) for js, coeff in rows if sum(js) == r]


# -- constant terms ----------------------------------------------------------------------


def ct_qdyson(a) -> QLaurent:
    return ct_point((0,) * len(a), qdyson_factors(a))


def bf_ct(shape: Shape, a: int, b: int, c: int) -> QLaurent:
    """Brute-force constant term of the full product, one point fold."""
    return ct_point((0,) * shape.n, bf_factors(shape, a, b, c))


def qmorris_ct(n: int, a: int, b: int, c: int) -> QLaurent:
    return bf_ct(Shape((n,)), a, b, c)


def kadell_ct(v, r: int, a) -> QLaurent:
    """Brute-force CT of x^{-v} h_r(alphabet) times the q-Dyson product.

    Each term c x^J of h_r reads the product's coefficient at v - J, which
    lies in the box [v - r, v] with slot i fixed at v_i where a_i = 0 (no
    letter, so J_i = 0): one fold over that box, contracted against the
    terms of h_r.
    """
    v = tuple(v)
    n = len(a)
    if len(v) != n:
        raise ValueError("v and a must have equal length")
    hr = kadell_h(r, a)
    if not hr:
        return ZERO
    l1 = sum(coeff.l1_norm() for _, coeff in hr)
    lo = tuple(x - r if ai else x for x, ai in zip(v, a))
    packed, B = fold_packed_raw(n, qdyson_factors(a), lo, v, extra_l1=l1)
    total = (0, 0)
    for js, coeff in hr:
        p = packed.get(tuple(x - j for x, j in zip(v, js)))
        if p is not None:
            total = packed_add(total, packed_mul(p, pack_qlaurent(coeff, B), B), B)
    return _decode_packed(*total, B)


def x0_weights(a: int, b: int) -> dict[int, QLaurent]:
    """Coefficients of (1/u)_a (q u)_b as a map exponent -> QLaurent."""
    factors = [(None, 1, t) for t in range(a)] + [(1, None, 1 + t) for t in range(b)]
    return {e: c for (e,), c in ct_fold(1, factors).items()}


def bf_ct_grid(shape: Shape, c: int, jobs) -> dict[tuple[int, int], QLaurent]:
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
    pairs = list(pair_linear(shape, c))
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
        out[(a, b)] = ZERO if total is None else _decode_packed(total[0], total[1], B)
    return out
