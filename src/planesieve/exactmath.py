"""Exact integer arithmetic: factorization, primality, prime powers, exact
roots, the cyclotomic pieces Phi_d(x) of x**k - 1 and x**k + 1, and ratios
prod(x**d - e) / prod(x**d - e) with e = +-1: cyclotomic_ratio evaluates
them (geometric sums and Gaussian binomials included) and
factor_cyclotomic_ratio factors them.

Everything here is deterministic and exact, with no floats: the package's
comparisons rely on these primitives never rounding.  Factorization is
trial division by one gcd per block of 32 primes up to 10**4 (trial_divide,
which the ledger's 1-mod-3 screen shares), then Brent's cycle-finding
variant of Pollard rho with a fixed parameter schedule and one gcd per
32 steps; primality is Miller-Rabin with a base set proven for n's size.
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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, prod

_TRIAL_LIMIT = 10_000


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


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)
# (first prime squared, product, primes) for each run of 32 consecutive small primes
_TRIAL_BLOCKS = tuple((ps[0] ** 2, block, ps) for block, ps in _runs(_SMALL_PRIMES, 32))

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
