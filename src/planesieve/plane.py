"""Plane order arithmetic around v = x**2 + x + 1 with x = u**2.

A candidate plane order x is always a square here; v is the point count,
and v factors as (u**2 + u + 1)(u**2 - u + 1) with coprime halves.  The
functions in this module are the per-order filters: v's factorization
merged from its two sieved halves, the admissibility test on indices,
the prime-power classification of u**2 + u + 1, the cofactor inequality
gate, and the two-count bookkeeping for involution classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .exactmath import Factorization, factorize
from .sieve import phi3_factorizations

# The largest u the sieve accepts, and the largest --u-max of verify-all.
U_CAP = 10**6


def v_factorization(minus: Factorization, plus: Factorization) -> Factorization:
    """The Factorization of v = (u**2 - u + 1)(u**2 + u + 1), given those
    halves: they are coprime, so v's primes are theirs side by side."""
    return Factorization(minus.value * plus.value, tuple(sorted(plus.factors + minus.factors)))


def plane_order(u: int) -> Factorization:
    """The Factorization of v = x**2 + x + 1 at square order x = u**2,
    read off one sieve pass over its two halves.  Requires u >= 2."""
    if u < 2:
        raise ValueError(f"plane_order expects u >= 2, got {u}")
    return v_factorization(*phi3_factorizations(u - 1, u))


def admissible_index(n: int | Factorization) -> bool:
    """True iff every prime divisor of n is 3 or lies in 1 mod 3, and the
    exponent of 3 is at most 1.  n = 1 passes vacuously.  n may be given
    as its Factorization (such as a scan row's v_factors), which is read
    as is and not factored again.  An int is refused before it is
    factored when 2 or 9 divides it or it is 2 mod 3 (a number = 2 mod 3
    has a prime divisor = 2 mod 3)."""
    if isinstance(n, int):
        if n < 1:
            raise ValueError(f"admissible_index expects n >= 1, got {n}")
        if n % 2 == 0 or n % 9 == 0 or n % 3 == 2:
            return False
        n = factorize(n)
    elif n.value < 1:
        raise ValueError(f"admissible_index expects n >= 1, got {n.value}")
    for p, e in n.factors:
        if p == 3:
            if e > 1:
                return False
        elif p % 3 != 1:
            return False
    return True


class LjunggrenClass(Enum):
    PRIME_VALUE = "prime"
    SEVEN_CUBED = "seven-cubed"
    OTHER_PRIME_POWER = "other-prime-power"
    COMPOSITE = "composite"


def ljunggren_classify(plus: Factorization) -> LjunggrenClass:
    """Classify u**2 + u + 1, given as its Factorization (such as the
    sieve's value at x = u): prime, the exceptional perfect power 343
    (u = 18), some other proper prime power, or composite."""
    if len(plus.factors) > 1:
        return LjunggrenClass.COMPOSITE
    if plus.factors[0][1] == 1:
        return LjunggrenClass.PRIME_VALUE
    return LjunggrenClass.SEVEN_CUBED if plus.value == 343 else LjunggrenClass.OTHER_PRIME_POWER


def quadratic_ratio_root(t: int) -> int | None:
    """The integer u >= 2 with u**2 - u + 1 == t, if one exists.  For
    t >= 3 with 4t - 3 = s**2, s is odd and at least 3, so u = (1 + s)/2
    is an integer of at least 2, and u**2 - u + 1 = (s**2 + 3)/4 = t."""
    if t < 3:
        return None
    disc = 4 * t - 3
    s = isqrt(disc)
    return (1 + s) // 2 if s * s == disc else None


def kantor_cofactor_holds(prime_power: int, m: int, u: int) -> bool:
    """Kantor's cofactor gate for v(u) = prime_power * m, where prime_power
    is the full power p**a (a >= 2) of a prime dividing v and m is its
    cofactor: the gate holds when m > 8 * prime_power, or when
    prime_power is 343 and equals u**2 + u + 1 or u**2 - u + 1.  The
    decomposition is taken as given (such as one read off a scan row's
    v_factors) and is not re-checked."""
    return m > 8 * prime_power or (prime_power == 343 and 343 in (u * u + u + 1, u * u - u + 1))


@dataclass(frozen=True)
class InvolutionCount:
    """Counting data for one involution class acting on a plane: n_g class
    members total, r_g of them through a fixed point, forcing the ratio
    u**2 - u + 1 and the fixed-point count d_g = u**2 + u + 1."""

    n_g: int
    r_g: int
    ratio: int
    u: int
    d_g: int

    @property
    def v(self) -> int:
        return self.ratio * self.d_g


def involution_counts(n_g: int, r_g: int) -> InvolutionCount | None:
    """Build the forced counts from (n_g, r_g), or None when the pair
    cannot arise: non-divisibility, or a ratio not of the quadratic form,
    or a plane order below the minimum (u < 2 is absence, not an error)."""
    if n_g < 1 or r_g < 1:
        raise ValueError(f"involution_counts expects positive counts, got ({n_g}, {r_g})")
    if n_g % r_g != 0:
        return None
    ratio = n_g // r_g
    u = quadratic_ratio_root(ratio)
    if u is None:
        return None
    return InvolutionCount(n_g=n_g, r_g=r_g, ratio=ratio, u=u, d_g=u * u + u + 1)


def fixed_count_bound(ratio: int) -> int:
    """Upper bound ratio + 2*isqrt(ratio) + 2 on u**2 + u + 1 for every
    u >= 1 with u**2 - u + 1 <= ratio (such u have u - 1 <= isqrt(ratio))."""
    return ratio + 2 * isqrt(ratio) + 2

