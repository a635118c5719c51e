"""The root-class sieve phi3_factorizations of Phi_3(x) = x**2 + x + 1 over
a range of x, for scan's rows and LJUNGGREN-SCAN's cross-check.  Cofactors
are finished by exactmath's factoring rule.  The first stage's root table is
built at import, the deep stages' tables by the first window past x = 10**4.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from functools import cache
from itertools import compress, pairwise
from math import gcd, isqrt, prod

from .exactmath import _SMALL_PRIMES, _TRIAL_LIMIT, Factorization, _factor_into, _runs

_STAGE_LIMITS = (30_000, 100_000, 200_000)  # each deep stage's upper limit
_SIEVE_BLOCK = 2048


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


@cache
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


# the two roots (p, w), (p, p - 1 - w) of each prime p = 1 mod 3 up to 10**4, in increasing p
_ONE_MOD_THREE_ROOTS = _roots(_one_mod_six_primes(1, _TRIAL_LIMIT))


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
    first = bisect.bisect(_ONE_MOD_THREE_ROOTS, depth, key=lambda root: root[0])
    roots = [(3, 1), *_ONE_MOD_THREE_ROOTS[:first]]
    deep = min(_STAGE_LIMITS[-1], top)
    stages = _deep_stages() if deep > _TRIAL_LIMIT else ()
    for start in range(lo, hi + 1, _SIEVE_BLOCK):
        xs = range(start, min(start + _SIEVE_BLOCK, hi + 1))
        rest = [x * x + x + 1 for x in xs]
        found: list[list[tuple[int, int]]] = [[] for _ in xs]
        _strike(roots, start, rest, found)
        for below, groups, runs in stages:
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
