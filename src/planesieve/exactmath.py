"""Exact integer arithmetic: factorization, a root-class sieve factoring
x**2 + x + 1 over a range of x, prime powers, the cyclotomic pieces Phi_d(x)
of x**k - 1 and x**k + 1, and ratios prod(x**d - e) / prod(x**d - e) with
e = +-1: cyclotomic_ratio evaluates them (geometric sums and Gaussian
binomials included) and factor_cyclotomic_ratio factors them.

Everything here is deterministic and exact, with no floats: the package's
comparisons rely on these primitives never rounding.  Factorization is
trial division by one gcd per block of 32 primes up to 10**4 (trial_divide,
which the ledger's 1-mod-3 screen shares), then Brent's cycle-finding
variant of Pollard rho with a fixed parameter schedule and one gcd per
32 steps; primality is Miller-Rabin with a base set proven for n's size.
The sieve of x**2 + x + 1 sieves the primes up to 10**4, then the primes
= 1 mod 3 up to 2 * 10**5 in three deep stages, each over the cofactors
still at or above its previous limit plus one, squared.  A stage picks
the primes that divide a block by one remainder of its prime product
modulo the block's product of cofactors (Bernstein, "How to find smooth
parts of integers", 2004), so only cofactors at or above 200001**2 reach
Miller-Rabin and rho.
Jaeschke's (1993) sets come first: the bases 2, 7, 61 decide every n
below 4759123141 and 2, 13, 23, 1662803 every n below 1122004669633.
Above those, the first k primes as bases decide every n below psi_k, the
least strong pseudoprime to all of them: primes up to 13 below psi_6 =
3474749660383, up to 17 below psi_7 = 341550071728321, up to 23 below
psi_9 = 3825123056546413051, up to 37 below psi_12 =
318665857834031151167461 and up to 41 below psi_13 =
3317044064679887385961981 (Jaeschke 1993; Jiang and Deng 2014; Sorenson
and Webster 2015).  Above psi_13 the primes up to 97 make an unproven
fixed-base test: Arnault (1995) gives a 397-digit composite that is a
strong pseudoprime to every prime base below 307.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import compress, pairwise
from math import gcd, isqrt, prod

_TRIAL_LIMIT = 10_000
# the deep stages sieve the primes = 1 mod 3 in (10**4, 3 * 10**4],
# (3 * 10**4, 10**5] and (10**5, 2 * 10**5]
_STAGE_LIMITS = (30_000, 100_000, 200_000)
_SIEVE_BLOCK = 2048


def _prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return flags


def _sieve(limit: int) -> list[int]:
    """The primes up to limit >= 2, read off the odd entries of one sieve
    through a memoryview, which copies nothing."""
    return [2, *compress(range(3, limit + 1, 2), memoryview(_prime_flags(limit))[3::2])]


def _runs(primes: list[int], n: int) -> tuple[tuple[int, list[int]], ...]:
    """(product, primes) for each run of n consecutive primes."""
    return tuple((prod(ps), ps) for ps in (primes[i : i + n] for i in range(0, len(primes), n)))


def _roots(primes: list[int]) -> list[tuple[int, int]]:
    """(p, w) and (p, p - 1 - w) for each p = 1 mod 3, w = g**((p-1)/3) != 1:
    the two roots of x**2 + x + 1 mod p."""
    roots = []
    for p in primes:
        g = 2
        while (w := pow(g, (p - 1) // 3, p)) == 1:
            g += 1
        roots += (p, w), (p, p - 1 - w)
    return roots


def _one_mod_six_primes(below: int, limit: int) -> list[int]:
    """The primes = 1 mod 6 in (below, limit], limit < 10**8, sieved on that
    progression alone: flags[i] stands for 7 + 6i, and the multiples there of
    a prime p >= 5 are p**2 = 1 mod 6 and every p-th entry after it."""
    flags = bytearray([1]) * len(range(7, limit + 1, 6))
    for p in _SMALL_PRIMES[2 : bisect.bisect(_SMALL_PRIMES, isqrt(limit))]:
        i = (p * p - 7) // 6
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    first = (below - 1) // 6
    return list(compress(range(7 + 6 * first, limit + 1, 6), flags[first:]))


def _deep_stages() -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, list[int]], ...]], ...]:
    """(previous limit, group products, runs) for each deep stage: runs
    holds (product, primes) for each run of 128 of the stage's primes = 1
    mod 3, and each group product is that of two consecutive runs."""
    primes = _one_mod_six_primes(_TRIAL_LIMIT, _STAGE_LIMITS[-1])
    stages = []
    for below, limit in pairwise((_TRIAL_LIMIT, *_STAGE_LIMITS)):
        runs = _runs(primes[bisect.bisect(primes, below) : bisect.bisect(primes, limit)], 128)
        groups = tuple(prod(r for r, _ in runs[i : i + 2]) for i in range(0, len(runs), 2))
        stages.append((below, groups, runs))
    return tuple(stages)


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)
_ONE_MOD_THREE = [p for p in _SMALL_PRIMES if p % 3 == 1]
# (first prime squared, product, primes) for each run of 32 consecutive small primes
_TRIAL_BLOCKS = tuple((ps[0] ** 2, block, ps) for block, ps in _runs(_SMALL_PRIMES, 32))
# the two roots (p, w), (p, p - 1 - w) of each prime p = 1 mod 3 up to 10**4, in increasing p
_ONE_MOD_THREE_ROOTS = _roots(_ONE_MOD_THREE)
# the primes = 1 mod 3 in (10**4, 2 * 10**5], stage by stage
_DEEP_STAGES = _deep_stages()

# (bound, bases): those bases decide every n < bound exactly.  The first
# two rows are Jaeschke's sets, the rest are (psi_k, the first k primes).
_MR_PRIMES = tuple(_SMALL_PRIMES[:25])
_MR_TIERS = (
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
    *((psi, _MR_PRIMES[:k]) for psi, k in (
        (3_474_749_660_383, 6),
        (341_550_071_728_321, 7),
        (3_825_123_056_546_413_051, 9),
        (318_665_857_834_031_151_167_461, 12),
        (3_317_044_064_679_887_385_961_981, 13),
    )),
)
_TRIAL_PRIMES = _MR_PRIMES[:12]


def small_primes(limit: int) -> list[int]:
    """Primes up to limit (inclusive), freshly sieved above the cached range."""
    if limit <= _TRIAL_LIMIT:
        return _SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, limit)]
    return _sieve(limit)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the base set of n's tier, skipping a base that n
    divides: exact below psi_13 = 3317044064679887385961981.  Above it the
    primes up to 97 make an unproven fixed-base test; composites that pass
    all of them exist (Arnault 1995), and ROADMAP item 5 plans Baillie-PSW."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = next((bases for bound, bases in _MR_TIERS if n < bound), _MR_PRIMES)
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n, deterministic schedule.
    The products of differences are batched 32 at a time between gcds, so
    a cycle is overshot by at most 31 steps.  A scan hands rho only
    cofactors below Phi_3(10**6) whose least prime p lies in (2 * 10**5,
    10**6]: their cycles take about sqrt(pi * p / 2), 560 to 1250 steps."""
    for c in range(1, 1000):
        y, m = 2, 32
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
            if ys == y:
                break
        if 1 < g < n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """An integer together with its ordered prime factorization.

    factors is a tuple of (prime, exponent) pairs sorted by prime;
    value 0 and 1 carry an empty tuple.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def reassemble(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _factor_into(m: int, depth: int, acc: list[tuple[int, int]]) -> None:
    """Append the prime factors of m >= 1 to acc as (p, e) pairs in increasing
    p, given that m has no prime factor up to min(depth, isqrt(m)): below
    (depth + 1)**2 it is 1 or prime, else is_prime decides and rho splits it
    into parts that keep the premise, whose primes are merged and sorted.
    acc stays sorted when its primes lie below those of m."""
    if m == 1:
        return
    if m < (depth + 1) ** 2 or is_prime(m):
        acc.append((m, 1))
        return
    d = _brent_rho(m)
    parts: list[tuple[int, int]] = []
    _factor_into(d, depth, parts)
    _factor_into(m // d, depth, parts)
    merged: dict[int, int] = {}
    for p, e in parts:
        merged[p] = merged.get(p, 0) + e
    acc += sorted(merged.items())


def trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({p: e}, m) with n = m * prod(p**e), each p <= 10**4, for n >= 1: one gcd
    per block of 32 primes, up to the first block whose first prime squared
    exceeds m, so m has no prime factor up to min(10**4, isqrt(m)).  The
    primes come in increasing order, each below every prime of m."""
    acc: dict[int, int] = {}
    for first_squared, block, primes in _TRIAL_BLOCKS:
        if first_squared > n:
            break
        g = gcd(block, n)
        if g > 1:
            for p in primes:
                if g % p == 0:
                    n, e, g = n // p, 1, g // p
                    while n % p == 0:
                        n, e = n // p, e + 1
                    acc[p] = e
                    if g == 1:
                        break
    return acc, n


def factorize(n: int) -> Factorization:
    """Total factorization of n >= 0.  factorize(0) and factorize(1) have
    empty factor lists."""
    if n < 0:
        raise ValueError(f"factorize expects n >= 0, got {n}")
    if n <= 1:
        return Factorization(n, ())
    small, m = trial_divide(n)
    acc = list(small.items())
    _factor_into(m, _TRIAL_LIMIT, acc)
    return Factorization(n, tuple(acc))


def _dividing(g: int, runs: tuple[tuple[int, list[int]], ...]) -> list[int]:
    """The primes of runs that divide g, a product of distinct primes of
    runs: one gcd per run, in increasing order, until g is spent.  A run's
    gcd h is one prime unless h exceeds the run's largest prime."""
    dividing: list[int] = []
    for run, primes in runs:
        if g == 1:
            break
        if (h := gcd(run, g)) > 1:
            g //= h
            dividing += [h] if h <= primes[-1] else [p for p in primes if h % p == 0]
    return dividing


def _strike(roots: list[tuple[int, int]], start: int, rest: list[int],
            found: list[list[tuple[int, int]]]) -> None:
    """Divide every power of p out of rest[i], the value at x = start + i,
    for each root (p, r), and append (p, e) to found[i]."""
    n = len(rest)
    # a block of 2048 misses many roots of the primes above 2048: a miss
    # costs one comparison here, where a range per root would be built for nothing
    for p, r in roots:
        i = (r - start) % p
        while i < n:
            m, e = rest[i] // p, 1
            while m % p == 0:
                m, e = m // p, e + 1
            rest[i] = m
            found[i].append((p, e))
            i += p


def phi3_factorizations(lo: int, hi: int) -> Iterator[Factorization]:
    """Factorizations of Phi_3(x) = x**2 + x + 1 for x = lo, ..., hi, in order.

    A root-class sieve (the sieving step of the quadratic sieve): only 3,
    at x = 1 mod 3, and primes p = 1 mod 3, at the roots w = g**((p-1)/3)
    != 1 and p - 1 - w of x**2 + x + 1 mod p, divide these values.  They
    are sieved block by block, in increasing p, so each value's primes are
    collected in order and need no sorting.  The depth comes in stages:
    - the first sieves the primes up to depth = min(10**4, isqrt(Phi_3(hi)));
    - three deep stages follow, each while isqrt(Phi_3(hi)) exceeds its
      previous limit: block by block, they sieve the primes in (10**4,
      3 * 10**4], (3 * 10**4, 10**5] and (10**5, 2 * 10**5] out of the
      cofactors still at or above 10001**2, 30001**2 and 100001**2.
    Each cofactor, whose primes all lie above the sieved ones, is then
    finished by the rule factorize uses at depth min(2 * 10**5,
    isqrt(Phi_3(hi))): it is 1 or prime with no test below that depth plus
    one, squared, so only a cofactor at or above 200001**2 reaches
    is_prime and rho.

    The first stage takes the roots of the primes = 1 mod 3 up to depth
    from a table of all 611 below 10**4, built at import.  A deep stage
    finds roots only for its primes that divide the block's product C of
    those cofactors (16 of 8377 over 950000..950100): one remainder r of
    the stage's prime product, r = prod(G mod C) mod C over its group
    products G of 256 primes, gives their product gcd(r, C) (Bernstein
    2004), and one gcd per run of 128 primes splits it.
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"phi3_factorizations expects 0 <= lo <= hi, got [{lo}, {hi}]")
    top = isqrt(hi * hi + hi + 1)
    depth = min(_TRIAL_LIMIT, top)
    roots = [(3, 1), *_ONE_MOD_THREE_ROOTS[: 2 * bisect.bisect_right(_ONE_MOD_THREE, depth)]]
    deep = min(_STAGE_LIMITS[-1], top)
    for start in range(lo, hi + 1, _SIEVE_BLOCK):
        xs = range(start, min(start + _SIEVE_BLOCK, hi + 1))
        rest = [x * x + x + 1 for x in xs]
        found: list[list[tuple[int, int]]] = [[] for _ in xs]
        _strike(roots, start, rest, found)
        for below, groups, runs in _DEEP_STAGES:
            if below >= deep:
                break
            cofactors = prod(m for m in rest if m >= (below + 1) ** 2)
            r = 1
            for group in groups:
                r = r * (group % cofactors) % cofactors
            # a stage prime p above deep = hi leaves v / p <= hi < p of a value
            # v <= Phi_3(hi), so striking it keeps each value's primes in order
            _strike(_roots(_dividing(gcd(r, cofactors), runs)), start, rest, found)
        for x, m, acc in zip(xs, rest, found):
            _factor_into(m, deep, acc)
            yield Factorization(x * x + x + 1, tuple(acc))


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) with p**a == n and p prime, or None.  Requires n >= 2.
    Found by exact root extraction alone, never by factoring, so it stays
    cheap on numbers too large to factor."""
    if n < 2:
        raise ValueError(f"is_prime_power expects n >= 2, got {n}")
    if is_prime(n):
        return (n, 1)
    for k in range(2, n.bit_length() + 1):
        root, exact = nth_root(n, k)
        if root < 2:
            break
        if exact and is_prime(root):
            return (root, k)
    return None


def nth_root(n: int, k: int) -> tuple[int, bool]:
    """(floor(n**(1/k)), exact?) by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("nth_root expects n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


def geom_sum(q: int, k: int, step: int = 1) -> int:
    """1 + q**step + q**(2*step) + ... + q**(k*step), exactly (k+1 terms)."""
    if q < 2:
        raise ValueError(f"geom_sum expects q >= 2, got {q}")
    if k < 0 or step < 1:
        raise ValueError(f"geom_sum expects k >= 0 and step >= 1, got k={k}, step={step}")
    return cyclotomic_ratio(q, (((k + 1) * step, 1),), ((step, 1),))


def cyclotomic_pieces(x: int, k: int, plus: bool = False) -> dict[int, int]:
    """{d: Phi_d(x)} in increasing d, the cyclotomic values whose product
    is x**k - 1 (d | k), or x**k + 1 when plus is set (d | 2k, d not
    dividing k).

    Only k (2k when plus is set) is factored.  Each Phi_d(x) is x**d - 1
    divided by the Phi_e(x) of the proper divisors e of d, so every
    division is exact.
    """
    if x < 2:
        raise ValueError(f"cyclotomic_pieces expects x >= 2, got {x}")
    if k < 1:
        raise ValueError(f"cyclotomic_pieces expects k >= 1, got {k}")
    divisors = [1]
    for p, e in factorize(2 * k if plus else k).factors:
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    values: dict[int, int] = {}
    for d in sorted(divisors):
        value = x**d - 1
        for e, phi in values.items():
            if d % e == 0:
                value //= phi
        values[d] = value
    return {d: value for d, value in values.items() if k % d} if plus else values


def cyclotomic_ratio(x: int, num: Iterable[tuple[int, int]],
                     den: Iterable[tuple[int, int]]) -> int:
    """prod(x**d - e for (d, e) in num) / prod(x**d - e for (d, e) in den),
    checked to be exact: an inexact ratio raises AssertionError, also
    under python -O."""
    top = bottom = 1
    for d, e in num:
        top *= x**d - e
    for d, e in den:
        bottom *= x**d - e
    if top % bottom:
        raise AssertionError("cyclotomic_ratio: the ratio is not an integer")
    return top // bottom


def factor_cyclotomic_ratio(x: int, num: Iterable[tuple[int, int]],
                            den: Iterable[tuple[int, int]]) -> Factorization:
    """Factorization of prod_num(x**d - e) / prod_den(x**d - e), e = +-1.

    Each x**d - e is the product of the cyclotomic_pieces of x**d - 1 or
    x**d + 1, so the ratio is prod_k Phi_k(x)**c_k with c_k the net count
    of Phi_k.  Each Phi_k(x) with c_k != 0 is factored once, never the
    product, and every c_k must be >= 0 (the ratio is then an integer);
    a negative count raises AssertionError, also under python -O.
    """
    counts: dict[int, int] = {}
    values: dict[int, int] = {}
    for terms, sign in ((num, 1), (den, -1)):
        for d, e in terms:
            if e not in (1, -1):
                raise ValueError(f"factor_cyclotomic_ratio expects e = +-1, got {e}")
            for k, phi in cyclotomic_pieces(x, d, plus=e == -1).items():
                counts[k] = counts.get(k, 0) + sign
                values[k] = phi
    acc: dict[int, int] = {}
    value = 1
    for k, c in counts.items():
        if c < 0:
            raise AssertionError(f"Phi_{k} has net count {c} in the ratio")
        if c:
            value *= values[k] ** c
            for p, e in factorize(values[k]).factors:
                acc[p] = acc.get(p, 0) + c * e
    return Factorization(value, tuple(sorted(acc.items())))


def gaussian_binomial(n: int, m: int, q: int) -> int:
    """Number of m-dimensional subspaces of an n-dimensional space over a
    field with q elements."""
    if q < 2:
        raise ValueError(f"gaussian_binomial expects q >= 2, got {q}")
    if not 0 <= m <= n:
        raise ValueError(f"gaussian_binomial expects 0 <= m <= n, got n={n}, m={m}")
    return cyclotomic_ratio(q, ((n - i, 1) for i in range(m)), ((i + 1, 1) for i in range(m)))
