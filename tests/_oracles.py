"""Independent brute-force oracles shared across test modules.

Everything here is deliberately naive: exhaustive enumeration over
tiny structures, with no dependence on the package's own formulas.
"""

from collections import Counter
from itertools import combinations, permutations, product
from math import gcd, isqrt


class TinyField:
    """GF(p^k) for the handful of sizes the oracles need, as coefficient
    tuples modulo a fixed reduction polynomial."""

    _REDUCTIONS = {4: (2, (1, 1)), 9: (3, (2, 0))}  # x^2 = r0 + r1*x

    def __init__(self, q):
        if q in self._REDUCTIONS:
            self.p, self.reduction = self._REDUCTIONS[q]
            self.k = 2
        else:
            self.p, self.reduction, self.k = q, None, 1
        self.elements = [tuple(c) for c in product(range(self.p), repeat=self.k)]
        self.zero = tuple([0] * self.k)
        self.one = tuple([1] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        r0, r1 = self.reduction
        return ((c0 + c2 * r0) % self.p, (c1 + c2 * r1) % self.p)


def brute_psl2_order(q):
    """|PSL(2,q)| by counting determinant-one 2x2 matrices."""
    f = TinyField(q)
    sl = 0
    for a, b, c, d in product(f.elements, repeat=4):
        det = f.add(f.mul(a, d), f.neg(f.mul(b, c)))
        if det == f.one:
            sl += 1
    return sl // gcd(2, q - 1)


def brute_psl2_involutions(q):
    """Involutions of PSL(2,q): the determinant-one 2x2 matrices A with
    A^2 = +-I and A != +-I, squared out entry by entry, counted in
    SL(2,q) and divided by the centre {+-I}."""
    f = TinyField(q)
    minus_one = f.neg(f.one)
    centre = {(f.one, f.zero, f.zero, f.one), (minus_one, f.zero, f.zero, minus_one)}
    count = 0
    for a, b, c, d in product(f.elements, repeat=4):
        if f.add(f.mul(a, d), f.neg(f.mul(b, c))) != f.one:
            continue
        square = (f.add(f.mul(a, a), f.mul(b, c)), f.add(f.mul(a, b), f.mul(b, d)),
                  f.add(f.mul(c, a), f.mul(d, c)), f.add(f.mul(c, b), f.mul(d, d)))
        count += square in centre and (a, b, c, d) not in centre
    return count // len(centre)


def _rank_and_det(matrix, p):
    """(rank, determinant mod p) of a square matrix over GF(p), p prime,
    by Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    rank, det = 0, 1
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inverse = pow(m[rank][col], -1, p)
        for r in range(rank + 1, n):
            f = m[r][col] * inverse % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det % p


def brute_psl_involution_classes(n, p):
    """{fixed-space dimension: count} over the involutions of PSL(n,p),
    for p prime with gcd(n, p-1) = 1, where PSL(n,p) = SL(n,p).  A row
    is the int whose base-p digits are its entries, and a matrix the
    int whose base-p^n digits are its rows; adding and scaling rows are
    table lookups.  An involution is a determinant-one A != I with
    A^2 = I, squared out row by row, and its fixed space is the kernel
    of A - I."""
    assert gcd(n, p - 1) == 1
    size = p**n
    digits = [tuple(r // p**j % p for j in range(n)) for r in range(size)]
    code = {d: r for r, d in enumerate(digits)}
    add = [[code[tuple((a + b) % p for a, b in zip(x, y))] for y in digits] for x in digits]
    scale = [[code[tuple(c * a % p for a in x)] for x in digits] for c in range(p)]
    identity = tuple(p**i for i in range(n))
    classes = Counter()
    for matrix in range(size**n):
        rows = [matrix // size**i % size for i in range(n)]
        for i, row in enumerate(rows):
            square = 0
            for c, other in zip(digits[row], rows):
                square = add[square][scale[c][other]]
            if square != identity[i]:
                break
        else:
            if tuple(rows) == identity:
                continue
            entries = [digits[row] for row in rows]
            if _rank_and_det(entries, p)[1] != 1:
                continue
            minus_identity = [[(a - (i == j)) % p for j, a in enumerate(row)]
                              for i, row in enumerate(entries)]
            classes[n - _rank_and_det(minus_identity, p)[0]] += 1
    return dict(classes)


def brute_psp43_involution_classes():
    """(|Sp(4,3)|, {g^2: count}) over the involutions of PSp(4,3) =
    Sp(4,3)/{+-I}, keyed by whether a preimage g squares to I (+1) or to
    -I (-1).  Sp(4,3) is the closure of the symplectic transvections
    x -> x + B(x,v)v, for the form B(x,y) = x0y2 + x1y3 - x2y0 - x3y1 and
    v along each basis vector and e0 + e1.  Rows and matrices are
    int-encoded as in brute_psl_involution_classes; an element is its
    tuple of row codes, so right multiplication by a transvection maps
    each row through one table.  Each involution of PSp(4,3) has two
    preimages g and -g."""
    p, n = 3, 4
    digits = [tuple(r // p**j % p for j in range(n)) for r in range(p**n)]
    code = {d: r for r, d in enumerate(digits)}
    add = [[code[tuple((a + b) % p for a, b in zip(x, y))] for y in digits] for x in digits]
    scale = [[code[tuple(c * a % p for a in x)] for x in digits] for c in range(p)]

    def form(x, y):
        return x[0] * y[2] + x[1] * y[3] - x[2] * y[0] - x[3] * y[1]

    vectors = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(1, 1, 0, 0)]
    transvections = [[code[tuple((a + form(x, v) * b) % p for a, b in zip(x, v))]
                      for x in digits] for v in vectors]
    identity = tuple(p**i for i in range(n))
    minus_identity = tuple(scale[p - 1][row] for row in identity)
    group, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for g in frontier:
            for t in transvections:
                h = tuple(t[row] for row in g)
                if h not in group:
                    group.add(h)
                    grown.append(h)
        frontier = grown
    signs = {identity: 1, minus_identity: -1}
    squares = Counter()
    for g in group - set(signs):
        square = []
        for row in g:
            acc = 0
            for c, other in zip(digits[row], g):
                acc = add[acc][scale[c][other]]
            square.append(acc)
        if (sign := signs.get(tuple(square))) is not None:
            squares[sign] += 1
    return len(group), {sign: count // 2 for sign, count in squares.items()}


def phi3_smaller_root_factorizations(x_max):
    """[(x**2 + x + 1, ((prime, exponent), ...))] for x = 1..x_max, by the
    smaller-root lemma: after 3 and every prime found at a smaller x are
    divided out of Phi_3(x), what is left is 1 or one new prime p, whose
    smaller root mod p is x.  A prime p != 3 dividing Phi_3(x) has the two
    roots r and p - 1 - r; if either were below x, p would have been found
    there, so p >= 2x + 1, and two such primes would exceed Phi_3(x).  A
    new p is divided out forward from both roots, so no prime is ever
    tested, only read off."""
    rest = [x * x + x + 1 for x in range(x_max + 1)]
    found = [{} for _ in range(x_max + 1)]

    def strike(p, start):
        for y in range(start, x_max + 1, p):
            e = 0
            while rest[y] % p == 0:
                rest[y], e = rest[y] // p, e + 1
            found[y][p] = e

    strike(3, 1)
    for x in range(1, x_max + 1):
        if (p := rest[x]) > 1:
            assert p >= 2 * x + 1, (x, p)
            strike(p, x)
            strike(p, p - 1 - x)
    return [(x * x + x + 1, tuple(sorted(found[x].items()))) for x in range(1, x_max + 1)]


def phi3_trial_division_factorizations(lo, hi):
    """[(x**2 + x + 1, ((prime, exponent), ...))] for x = lo..hi, by plain
    trial division: each value is divided by the primes up to
    isqrt(hi**2 + hi + 1), from a sieve of Eratosthenes, in increasing
    order until p**2 exceeds what is left.  What is left then has no prime
    factor up to its square root, so it is 1 or a prime, read off with no
    primality test.  The cost is set by the window, not by how far from 1
    it lies."""
    limit = isqrt(hi * hi + hi + 1)
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    primes = [p for p, flag in enumerate(flags) if flag]
    out = []
    for x in range(lo, hi + 1):
        rest = x * x + x + 1
        found = []
        for p in primes:
            if p * p > rest:
                break
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest, e = rest // p, e + 1
                found.append((p, e))
        if rest > 1:
            found.append((rest, 1))
        out.append((x * x + x + 1, tuple(found)))
    return out


def brute_subspace_count(n, m, q):
    """Number of m-dimensional subspaces of GF(q)^n, prime q only,
    by enumerating spans as frozensets of vectors."""
    vectors = list(product(range(q), repeat=n))

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def scale(c, u):
        return tuple((c * a) % q for a in u)

    def span(basis):
        points = {tuple([0] * n)}
        for b in basis:
            extra = set()
            for c in range(1, q):
                cb = scale(c, b)
                extra.update(add(p, cb) for p in points)
            points |= extra
        return frozenset(points)

    subspaces = {s for basis in combinations(vectors[1:], m)
                 if len(s := span(basis)) == q**m}
    return len(subspaces)


def cycle_type(perm):
    """The cycle lengths of a permutation of range(len(perm)), largest
    first, found by walking each cycle from its least point; a double
    transposition on 7 points has cycle type (2, 2, 1, 1, 1)."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


def is_even(perm):
    """Whether perm is even, read off its cycle type."""
    return sum(length - 1 for length in cycle_type(perm)) % 2 == 0


def a7_embeddings():
    """{name: permutations of 7 points} for the three stabilizer
    candidates ALT-A7 counts on, built as that case builds them: S5 with
    each odd sigma also swapping 5 and 6, and S6 and S5 fixing the rest
    (their double transpositions are those of A6 and A5)."""
    return {
        "S5": [s + ((5, 6) if is_even(s) else (6, 5)) for s in permutations(range(5))],
        "A6": [s + (6,) for s in permutations(range(6))],
        "A5": [s + (5, 6) for s in permutations(range(5))],
    }


def a7_double_transposition_counts():
    """(total in A7, in an embedded S5, in an embedded A6, in an
    embedded A5) by direct permutation enumeration."""
    double = (2, 2, 1, 1, 1)
    total = sum(1 for p in permutations(range(7)) if is_even(p) and cycle_type(p) == double)
    s5, a6, a5 = (sum(is_even(p) and cycle_type(p) == double for p in perms)
                  for perms in a7_embeddings().values())
    return total, s5, a6, a5


def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic_value(d, x):
    """Phi_d(x) as the Moebius product of (x**e - 1)**mu(d/e) over the
    divisors e of d, found by trial division."""
    num = den = 1
    for e in range(1, d + 1):
        if d % e == 0:
            mu = _mobius(d // e)
            if mu == 1:
                num *= x**e - 1
            elif mu == -1:
                den *= x**e - 1
    assert num % den == 0
    return num // den


def phi3_proper_power_hits(u_max):
    """{u: u**2 + u + 1} for every 1 <= u <= u_max whose value is p**k
    with p prime and k >= 2, found by walking every such p**k up to
    u_max**2 + u_max + 1 over an Eratosthenes sieve to its square root."""
    v_max = u_max * u_max + u_max + 1
    limit = isqrt(v_max)
    composite = bytearray(limit + 1)
    hits = {}
    for p in range(2, limit + 1):
        if composite[p]:
            continue
        composite[p * p::p] = b"\x01" * len(composite[p * p::p])
        value = p * p
        while value <= v_max:
            disc = 4 * value - 3
            s = isqrt(disc)
            if s * s == disc and s >= 3:
                hits[(s - 1) // 2] = value
            value *= p
    return hits
