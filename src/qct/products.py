"""Constructors for the product families whose constant terms we study.

Every left-hand side is assembled as a list of linear factors, triples
(a, b, m) for (1 - q^m x_a/x_b) with ``None`` for the literal 1; the triple
list is the authoritative representation and feeds the pruned CT fold.  A
monomial prefactor only moves which coefficient is read; a weight, the x_0
factor of a grid job or the Kadell h_r, is a weight map per slot that
``laurent.ct_contract`` contracts the folded product against.  Each slot
names its map by a key, (a, b) for the x_0 weights and (v_i, a_i, r) for a
Kadell slot, so the weight tables are built here from cached inputs
(``x0_weights``, ``_gaussian``) and ``ct_contract`` norms each once and packs
it once per digit width.

The projective variable x_0 is set to 1 inside every builder (homogeneity of
the full product makes this harmless for constant terms), so a product over
x_1..x_n has arity n.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .laurent import ct_contract, ct_fold, ct_point
from .qring import ONE, ZERO, Cyclo, QLaurent


class Shape:
    """Block structure (n_0, n_1, ..., n_p) of the decorated product.

    Variables 1..n are split into consecutive blocks N_0..N_p of the given
    sizes; N_0 is the undecorated block.  All parts must be >= 1 (drop zero
    parts before constructing).
    """

    __slots__ = ("parts", "n", "p", "_sigma", "_block")

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
        self._block = tuple(l for l, x in enumerate(parts) for _ in range(x))

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
        return self._block[i - 1]

    def max_block(self) -> int:
        """Smallest index k >= 1 with n_k maximal among the decorated parts."""
        if self.p == 0:
            raise ValueError("no decorated blocks")
        return _max_part(self.parts)

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


def _max_part(parts) -> int:
    """Smallest index k >= 1 with parts[k] maximal among parts[1:]: the
    block recursion's default tie-break, on a shape's parts or a list of them."""
    return parts.index(max(parts[1:]), 1)


def epsilon(shape: Shape, i: int, j: int) -> int:
    """1 when i and j share a decorated block, else 0."""
    if not (1 <= i <= shape.n and 1 <= j <= shape.n) or i == j:
        raise ValueError("index out of range")
    li = shape._block[i - 1]
    return 1 if li and li == shape._block[j - 1] else 0


# -- factor lists -----------------------------------------------------------------


def qdyson_factors(a) -> list[tuple]:
    """Linear factors of prod_{i<j} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}."""
    n = len(a)
    if any(x < 0 for x in a):
        raise ValueError("Pochhammer lengths a_i must be nonnegative")
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out += [(i, j, t) for t in range(a[i - 1])]
            out += [(j, i, 1 + t) for t in range(a[j - 1])]
    return out


def pair_linear(shape: Shape, c: int, skip=()) -> list[tuple]:
    """(a, b, m) for each linear factor (1 - q^m x_a/x_b) of
    prod_{i<j} (x_i/x_j)_{c+eps} (q x_j/x_i)_{c+eps}; ``skip``, a collection
    of variables, drops every pair that involves one of them."""
    if c < 0:
        raise ValueError("Pochhammer length c must be nonnegative")
    n = shape.n
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if i in skip or j in skip:
                continue
            z = c + epsilon(shape, i, j)
            out += [(i, j, t) for t in range(z)]
            out += [(j, i, 1 + t) for t in range(z)]
    return out


def bf_factors(shape: Shape, a: int, b: int, c: int) -> list[tuple]:
    """Full factor list, ordered so low variables are closed off first:
    variable i's group holds its pairs with every j > i, in ``pair_linear``'s
    order, then its x_0 factors."""
    if a < 0 or b < 0:
        raise ValueError("Pochhammer lengths a, b must be nonnegative")
    if c < 0:
        raise ValueError("Pochhammer length c must be nonnegative")
    n = shape.n
    block = shape._block
    out = []
    for i in range(1, n + 1):
        li = block[i - 1]
        for j in range(i + 1, n + 1):
            z = c + 1 if li and li == block[j - 1] else c
            out += [(i, j, t) for t in range(z)]
            out += [(j, i, 1 + t) for t in range(z)]
        out += [(None, i, t) for t in range(a)]
        out += [(i, None, 1 + t) for t in range(b)]
    return out


# -- constant terms ----------------------------------------------------------------------


def ct_qdyson(a) -> QLaurent:
    return ct_point((0,) * len(a), qdyson_factors(a))


def bf_ct(shape: Shape, a: int, b: int, c: int) -> QLaurent:
    """Brute-force constant term of the full product, one point fold."""
    return ct_point((0,) * shape.n, bf_factors(shape, a, b, c))


def qmorris_ct(n: int, a: int, b: int, c: int) -> QLaurent:
    return bf_ct(Shape((n,)), a, b, c)


def kadell_ct(v, r: int, a) -> QLaurent:
    """Brute-force CT of x^{-v} h_r times the q-Dyson product P, h_r the
    complete symmetric polynomial on the alphabet (x_i q^t, t < a_i).

    P is homogeneous of degree 0, so a term x^J of h_r reads a nonzero
    coefficient P_{v-J} only if |J| = |v|: the value is zero unless |v| = r,
    and then |J| = r need not be imposed.  So slot i meets P at v_i - j with
    the weight [a_i + j - 1, j]_q, j from 0 to r (only 0 where a_i = 0), in
    one contraction of P folded over the box [v - r, v].  Each weight is
    expanded once per (a_i + j - 1, j), and each slot's map is named by
    (v_i, a_i, r), so the contraction packs it once per digit width.
    """
    v = tuple(v)
    n = len(a)
    if len(v) != n:
        raise ValueError("v and a must have equal length")
    if r < 1:
        raise ValueError("r must be positive")
    factors = qdyson_factors(a)
    if sum(v) != r:
        return ZERO
    lo = tuple(x - r if ai else x for x, ai in zip(v, a))
    return ct_contract(n, factors, lo, v, [tuple(zip(v, a, (r,) * n))], _kadell_weights)[0]


def _kadell_weights(x: int, ai: int, r: int) -> dict:
    """The weight map of a Kadell slot at v_i = x, a_i = ai: exponent x - j
    reads [ai + j - 1, j]_q, j from 0 to r (only 0 where ai = 0)."""
    return {x - j: _gaussian(ai + j - 1, j) for j in range(r + 1 if ai else 1)}


@lru_cache(maxsize=256)
def _gaussian(n: int, k: int) -> QLaurent:
    """The Gaussian binomial [n, k]_q expanded, a Kadell slot weight; 1 at k = 0."""
    return Cyclo.poch_product(Cyclo.qbinom(n, k)).expand() if k else ONE


@lru_cache(maxsize=256)
def x0_weights(a: int, b: int) -> MappingProxyType:
    """Coefficients of (1/u)_a (q u)_b as a read-only map exponent -> QLaurent."""
    if a < 0 or b < 0:
        raise ValueError("Pochhammer lengths a, b must be nonnegative")
    factors = [(None, 1, t) for t in range(a)] + [(1, None, 1 + t) for t in range(b)]
    return MappingProxyType({e: c for (e,), c in ct_fold(1, factors).items()})


def bf_ct_grid(shape: Shape, c: int, jobs) -> dict[tuple[int, int], QLaurent]:
    """Constant terms for many (a, b) pairs at one shape and c.

    The pair product is folded once inside the window every job can read,
    then each (a, b) value is an exact contraction against the x_0-factor
    coefficients, the same weight in every slot: a state x^v meets the
    coefficient of u^{-v_i} in (1/u)_a (q u)_b at each slot i.  So the
    contraction runs over exponent multisets.  Identical in value to bf_ct,
    much cheaper on grids and interpolation sweeps.

    Every slot a job reads lies in [-max b, max a].  The pair product is
    homogeneous of degree 0, so a state with every slot >= -max b has every
    slot <= (n - 1) max b: the box top is the smaller of the two bounds.
    """
    jobs = list(dict.fromkeys(jobs))
    if not jobs:
        return {}
    n = shape.n
    bmax = max(b for _, b in jobs)
    tlo = (-bmax,) * n
    thi = (min(max(a for a, _ in jobs), (n - 1) * bmax),) * n
    return dict(zip(jobs, ct_contract(n, pair_linear(shape, c), tlo, thi, [(ab,) * n for ab in jobs],
                                      _x0_slot_weights)))


def _x0_slot_weights(a: int, b: int) -> dict:
    """The weight map of every slot of a grid job (a, b): exponent v reads
    the coefficient of u^-v in (1/u)_a (q u)_b."""
    return {-e: w for e, w in x0_weights(a, b).items()}
