"""Arithmetic primitives against independent small-scale oracles."""

import builtins
import os
import random
import subprocess
import sys
from itertools import pairwise
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from planesieve import exactmath
from planesieve.exactmath import (Factorization, cyclotomic_pieces, cyclotomic_ratio,
                                  factor_cyclotomic_ratio, factorize, gaussian_binomial, geom_sum,
                                  is_prime, is_prime_power, nth_root, phi3_factorizations,
                                  small_primes, trial_divide)
from planesieve.plane import U_CAP

from _oracles import (brute_subspace_count, cyclotomic_value, phi3_smaller_root_factorizations,
                      phi3_trial_division_factorizations)


def _reference_sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:limit + 1:p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


def test_small_primes_match_reference_sieve():
    assert small_primes(10_000) == _reference_sieve(10_000)


def test_small_primes_beyond_cache():
    primes = small_primes(100_000)
    assert len(primes) == 9592
    assert primes[-1] == 99991


def test_is_prime_matches_trial_division():
    for n in range(-3, 3000):
        expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert is_prime(n) == expected, n


@pytest.mark.parametrize("n,expected", [
    (2**61 - 1, True),          # Mersenne prime
    (2**89 - 1, True),          # Mersenne prime
    (2**67 - 1, False),         # Mersenne composite
    (561, False),               # Carmichael
    (41041, False),             # Carmichael
    (3215031751, False),        # strong pseudoprime to bases 2, 3, 5, 7
    (10**9 + 7, True),
    (10**9 + 9, True),
])
def test_is_prime_known_values(n, expected):
    assert is_prime(n) == expected


# The bounds at which is_prime changes its base set: the least strong
# pseudoprimes to Jaeschke's sets (2, 7, 61) and (2, 13, 23, 1662803), then
# psi_k, the least strong pseudoprime to the first k prime bases.
_PSI = (4_759_123_141, 1_122_004_669_633, 3_474_749_660_383,
        341_550_071_728_321, 3_825_123_056_546_413_051,
        318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981)


def _is_strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(r))


def test_is_prime_tier_bounds_are_tight():
    # each bound passes every base of its own tier, so is_prime must move
    # to the next tier's bases to reject it
    sympy = pytest.importorskip("sympy")
    assert [bound for bound, _ in exactmath._MR_TIERS] == list(_PSI)
    for bound, bases in exactmath._MR_TIERS:
        assert not sympy.isprime(bound), bound
        assert all(_is_strong_probable_prime(bound, a) for a in bases), bound
        assert is_prime(bound) is False, bound


def test_is_prime_accepts_its_own_bases():
    # 61 is the one prime that meets itself as a base (its tier holds
    # 2, 7, 61), so the base a = n must be skipped; 7, 13 and 23 end at
    # trial division, and 1662803 is decided by the bases 2, 7, 61
    for n in (7, 13, 23, 61, 1_662_803):
        assert is_prime(n) is True, n
    assert all(is_prime(a) for _, bases in exactmath._MR_TIERS for a in bases)


@pytest.mark.parametrize("n, exponentiations", [
    (10**8 + 7, 3),
    (4_759_123_129, 3),            # the last prime below 4759123141
    (4_759_123_151, 4),
    (1_122_004_669_603, 4),        # the last prime below 1122004669633
    (1_122_004_669_637, 6),
])
def test_is_prime_exponentiates_once_per_tier_base(monkeypatch, n, exponentiations):
    calls = []

    def spy(*args):
        calls.append(args)
        return builtins.pow(*args)

    monkeypatch.setattr(exactmath, "pow", spy, raising=False)
    assert is_prime(n) is True
    assert len(calls) == exponentiations
    assert all(modulus == n for _, _, modulus in calls)


def test_is_prime_rejects_the_twelve_base_pseudoprime():
    n = 318_665_857_834_031_151_167_461
    assert not is_prime(n)
    assert factorize(n).factors == ((399_165_290_221, 1), (798_330_580_441, 1))


def test_is_prime_base_tiers_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(9)
    for psi in _PSI:
        numbers = [psi - 1, psi, psi + 1, sympy.prevprime(psi), sympy.nextprime(psi)]
        numbers += [rng.randrange(psi // 2, psi) for _ in range(100)]
        numbers += [rng.randrange(psi, 2 * psi) for _ in range(100)]
        for n in numbers:
            assert is_prime(n) == sympy.isprime(n), n


def test_factorize_round_trip_small_range():
    for n in range(2, 2000):
        f = factorize(n)
        assert f.value == n
        assert f.reassemble() == n
        assert list(f.factors) == sorted(f.factors)
        for p, e in f.factors:
            assert is_prime(p) and e >= 1


def test_factorize_round_trip_random():
    rng = random.Random(2026)
    for _ in range(120):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        assert f.reassemble() == n
        assert all(is_prime(p) for p, _ in f.factors)


@pytest.mark.parametrize("n,factors", [
    (343, ((7, 3),)),
    (105301, ((7, 3), (307, 1))),
    (273, ((3, 1), (7, 1), (13, 1))),
    (2**10 * 3**4, ((2, 10), (3, 4))),
    (9139, ((13, 1), (19, 1), (37, 1))),
])
def test_factorize_known(n, factors):
    assert factorize(n).factors == factors


def test_is_prime_power_full_small_range():
    limit = 50_000
    table = {}
    for p in small_primes(limit):
        value, e = p, 1
        while value <= limit:
            table[value] = (p, e)
            value *= p
            e += 1
    for n in range(2, limit + 1):
        assert is_prime_power(n) == table.get(n), n


def test_is_prime_power_constructed_powers():
    rng = random.Random(7)
    for _ in range(80):
        p = rng.choice(small_primes(10_000)[10:])
        a = rng.randrange(1, 12)
        assert is_prime_power(p**a) == (p, a)


def test_is_prime_power_rejects_mixed():
    for n in (6, 12, 100, 2**5 * 3, 7 * 11, 343 * 307):
        assert is_prime_power(n) is None


def test_is_prime_power_never_factors(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("is_prime_power must not factor")

    monkeypatch.setattr("planesieve.exactmath.factorize", forbidden)
    monkeypatch.setattr("planesieve.exactmath._brent_rho", forbidden)
    assert is_prime_power((10**20 + 39) * (10**20 + 129)) is None
    assert is_prime_power(6**20) is None
    assert is_prime_power(343) == (7, 3)
    assert is_prime_power(13**16) == (13, 16)
    assert is_prime_power(2**61 - 1) == (2**61 - 1, 1)


def test_nth_root_exact_cases():
    rng = random.Random(11)
    for _ in range(150):
        r = rng.randrange(2, 10**6)
        k = rng.randrange(2, 12)
        root, exact = nth_root(r**k, k)
        assert (root, exact) == (r, True)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**30), st.integers(1, 40))
def test_nth_root_bracketing(x, k):
    root, exact = nth_root(x, k)
    assert root**k <= x < (root + 1) ** k
    assert exact == (root**k == x)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**9))
def test_factorize_reassembles(n):
    f = factorize(n)
    assert f.reassemble() == n
    assert all(is_prime(p) for p, _ in f.factors)


# the trial stage's edges: primes up to 10**4 in blocks of 32, the primes
# just past 10**4, and primes above psi_13 = 3317044064679887385961981
_PRIMES_PAST_LIMIT = _reference_sieve(10_100)
_TRIAL_PRIMES = _PRIMES_PAST_LIMIT[:1229]
_BLOCKS = [_TRIAL_PRIMES[i:i + 32] for i in range(0, 1229, 32)]
_ONE_MOD_THREE = [p for p in _TRIAL_PRIMES if p % 3 == 1]
# the deep sieve stages' depth: primes = 1 mod 3 in (10**4, 2 * 10**5]
_DEEP = 200_000
_LARGE_PRIMES = (10**9 + 7, 2**61 - 1, 2**89 - 1, 2**107 - 1)


def test_trial_blocks_are_runs_of_32_small_primes():
    assert [primes for _, _, primes in exactmath._TRIAL_BLOCKS] == _BLOCKS
    assert _TRIAL_PRIMES[-1] == 9973 and _PRIMES_PAST_LIMIT[1229] == 10_007
    for first_squared, block, primes in exactmath._TRIAL_BLOCKS:
        assert (first_squared, block) == (primes[0] ** 2, prod(primes))


def test_root_table_holds_both_roots_of_each_prime_one_mod_three_below_the_trial_limit():
    # (p, r), (p, r') for each of the 611 primes p = 1 mod 3 below 10**4, in
    # increasing p: two distinct roots of x**2 + x + 1 mod p, with r + r' = p - 1
    table = exactmath._ONE_MOD_THREE_ROOTS
    assert len(_ONE_MOD_THREE) == 611
    assert [p for p, _ in table[::2]] == [p for p, _ in table[1::2]] == _ONE_MOD_THREE
    for (p, r), (_, s) in zip(table[::2], table[1::2]):
        assert 0 <= r < p and 0 <= s < p and r != s and r + s == p - 1, (p, r, s)
        assert (r * r + r + 1) % p == 0 and (s * s + s + 1) % p == 0, (p, r, s)


def test_deep_stages_hold_the_primes_one_mod_three_of_each_stage_in_runs_and_groups():
    # stage k sieves the primes = 1 mod 3 in (limits[k], limits[k + 1]], in
    # runs of 128 and groups of 256 consecutive primes, each with its product
    one_mod_three = [p for p in _reference_sieve(_DEEP) if p % 3 == 1]
    limits = (10_000, 30_000, 100_000, _DEEP)
    assert exactmath._STAGE_LIMITS == limits[1:]
    assert len(exactmath._DEEP_STAGES) == 3
    sizes = []
    for (below, limit), (stage_below, groups, runs) in zip(pairwise(limits), exactmath._DEEP_STAGES):
        primes = [p for p in one_mod_three if below < p <= limit]
        sizes.append(len(primes))
        assert stage_below == below
        assert [ps for _, ps in runs] == [primes[i:i + 128] for i in range(0, len(primes), 128)]
        for run, ps in runs:
            assert run == prod(ps)
        assert groups == tuple(prod(primes[i:i + 256]) for i in range(0, len(primes), 256))
    assert sizes == [999, 3174, 4204]


def _trial_edge_values():
    values = set()
    for block in _BLOCKS:
        for p in (block[0], block[-1]):
            values.update(p**k for k in (1, 2, 3, 5))
    values.update(9973**k for k in range(1, 6))
    values.update((10_007, 10_009, 10_007 * 10_009, 9973 * 10_007 * 10_009))
    # a prime up to 10**4 times each of the next three primes
    for i, p in enumerate(_TRIAL_PRIMES):
        if i % 16 in (0, 15) or p > 9000:
            values.update(p * q for q in _PRIMES_PAST_LIMIT[i + 1:i + 4])
    # the (depth + 1)**2 = 10001**2 premise edge: squares on each side of 10**4
    for p in (9949, 9967, 9973, 10_007, 10_009, 10_037):
        values.update((p * p, p * p - 1, p * p + 1, 2 * p * p, 9973 * p * p))
    # above psi_13, with small factors
    psi_13 = 3_317_044_064_679_887_385_961_981
    for big in _LARGE_PRIMES[2:]:
        values.update((2**40 * big, 3 * 9973**2 * big, 10_007 * big, 6 * 9973 * 10_009 * big))
    values.update((psi_13 - 1, psi_13 + 1, 2**5 * (psi_13 + 2)))
    return sorted(values)


def test_factorize_trial_edges_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in _trial_edge_values():
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n


@seed(23)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_PRIMES_PAST_LIMIT), max_size=8),
       st.sampled_from((1,) + _LARGE_PRIMES))
def test_factorize_small_factor_products_match_sympy(primes, big):
    sympy = pytest.importorskip("sympy")
    n = prod(primes) * big
    assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n


def test_factorize_rho_splits_above_psi_13_match_sympy():
    # no prime up to 10**4 and no small cofactor: every factor comes from rho
    # splitting a composite above psi_13, and the split parts are merged.
    # Three primes below 10**7 stay under 10**21 < psi_13, so the products
    # take four or five, and the last one repeats a prime: p**2 * q * r
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)

    def prime():
        return sympy.nextprime(rng.randrange(10**6, 10**7 - 10**3))

    products = []
    while len(products) < 20:
        n = prod(prime() for _ in range(rng.randrange(4, 6)))
        if n > _PSI[-1]:
            products.append(n)
    p, q, r = prime(), prime(), prime()
    products.append(p * p * q * r)
    assert products[-1] > _PSI[-1]
    for n in products:
        assert factorize(n).factors == tuple(sorted(sympy.factorint(n).items())), n


def test_trial_divide_leaves_a_cofactor_without_small_factors():
    rng = random.Random(24)
    for n in _trial_edge_values() + [rng.randrange(1, 10**30) for _ in range(300)]:
        small, m = trial_divide(n)
        assert m * prod(p**e for p, e in small.items()) == n
        assert all(p <= 10_000 and e >= 1 and m % p for p, e in small.items())
        assert all(m % p for p in _TRIAL_PRIMES if p <= min(10_000, isqrt(m)))


def test_factor_into_receives_the_trial_premise(monkeypatch):
    # each m that _factor_into sees while factorize runs is 1, a prime below
    # the (depth + 1)**2 stop bound, or free of every prime up to 10**4
    primorial = prod(_TRIAL_PRIMES)
    real = exactmath._factor_into
    seen = []

    def spy(m, depth, acc):
        assert depth == 10_000
        seen.append(m)
        real(m, depth, acc)

    monkeypatch.setattr(exactmath, "_factor_into", spy)
    rng = random.Random(25)
    values = _trial_edge_values() + [rng.randrange(2, 10**k) for k in (4, 8, 12) for _ in range(150)]
    values += [rng.choice(_PRIMES_PAST_LIMIT) ** rng.randrange(1, 4) * rng.randrange(1, 10**9)
               for _ in range(300)]
    for n in values:
        assert factorize(n).reassemble() == n
    kinds = set()
    for m in seen:
        if m == 1:
            kinds.add("one")
        elif gcd(m, primorial) == 1:
            kinds.add("coprime")
        else:
            assert m < 10_001**2 and all(m % d for d in range(2, isqrt(m) + 1)), m
            kinds.add("prime below the stop bound")
    assert kinds == {"one", "coprime", "prime below the stop bound"}


def _phi3(x):
    return x * x + x + 1


@pytest.mark.parametrize("lo, hi", [(1, 3000), (949_999, 951_000), (999_000, 10**6),
                                    (259_650, 259_750), (904_700, 904_800),
                                    (949_999, 952_100)])
def test_phi3_sieve_matches_factorize(lo, hi):
    # (1, 3000) sieves only to depth isqrt(Phi_3(3000)) = 3000, so every
    # cofactor there is taken as prime by the (depth + 1)**2 rule.  Rho
    # splits a cofactor into a repeated prime above 10**4 at x = 259694
    # (139 * 22027**2) and x = 904741 (3 * 2389 * 10687**2), whose parts
    # are merged; (949_999, 952_100) crosses a 2048-value block boundary at
    # depth 10**4, with cofactors that need is_prime and rho.
    assert list(phi3_factorizations(lo, hi)) == [factorize(_phi3(x)) for x in range(lo, hi + 1)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 10_000), st.integers(1, 10**6)), st.integers(0, 300))
@example(1, 0)
@example(1, 300)
@example(9_700, 300)
@example(10**6 - 300, 300)
def test_phi3_sieve_windows(lo, width):
    # windows ending below x = 10**4 sieve to a depth under 10**4
    hi = lo + width
    assert list(phi3_factorizations(lo, hi)) == [factorize(_phi3(x)) for x in range(lo, hi + 1)]


@pytest.mark.parametrize("lo", [10_000, 100_000, 949_999])
def test_phi3_sieve_short_windows_at_full_trial_depth(monkeypatch, lo):
    # 101 values sieved to depth 10**4 with the import-time root table, then
    # by the deep stages to 2 * 10**5: only a cofactor at or above 200001**2
    # goes to is_prime
    sympy = pytest.importorskip("sympy")
    hi = lo + 100
    assert isqrt(_phi3(hi)) >= 10_000
    tested = []
    real = exactmath.is_prime

    def spy(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(exactmath, "is_prime", spy)
    sieved = list(phi3_factorizations(lo, hi))
    monkeypatch.undo()
    assert sieved == [factorize(_phi3(x)) for x in range(lo, hi + 1)]
    if lo <= 100_000:
        assert [(f.value, f.factors) for f in sieved] == \
            phi3_smaller_root_factorizations(hi)[lo - 1:]
    else:
        # the oracle walks every x from 1 with a dict each, which up to
        # 950100 means seconds of CPU and hundreds of MB
        assert [f.factors for f in sieved] == \
            [tuple(sorted(sympy.factorint(_phi3(x)).items())) for x in range(lo, hi + 1)]
    assert all(n >= (_DEEP + 1)**2 for n in tested)
    assert [is_prime(n) for n in tested] == [sympy.isprime(n) for n in tested]
    if lo == 949_999:
        # some of the 23 lie in Miller-Rabin's 4-base tier
        assert len(tested) == 23 and max(tested) > 4_759_123_141


def _sieve_with_root_primes(lo, hi, limit=10_000):
    """(the sieve's (value, factors) for lo..hi, the sorted primes up to
    limit it finds roots for): the moduli up to limit of its pow calls.
    The first stage calls no pow, as its roots come from a table built at
    import; the deep stages' moduli lie in (10**4, 2 * 10**5] and
    is_prime's above 200001**2."""
    moduli = set()

    def spy(*args):
        if len(args) == 3 and args[2] <= limit:
            moduli.add(args[2])
        return builtins.pow(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactmath, "pow", spy, raising=False)
        sieved = [(f.value, f.factors) for f in phi3_factorizations(lo, hi)]
    return sieved, sorted(moduli)


@pytest.mark.parametrize("lo, hi", [(950_000, 950_100), (1, 1500), (1, 2000), (20_000, 22_100)])
def test_phi3_sieve_computes_no_root_modulo_a_prime_up_to_the_trial_limit(lo, hi):
    # the first stage reads every root from the import-time table, whatever
    # the window's length; (20_000, 22_100) spans two sieve blocks of 2048
    sieved, primes = _sieve_with_root_primes(lo, hi)
    assert primes == []
    assert sieved == [(_phi3(x), factorize(_phi3(x)).factors) for x in range(lo, hi + 1)]


# (first x, last x) of windows of n - 1, n and n + 1 values.  From 1000 and
# 5000 the depth isqrt(Phi_3(hi)) is hi; from 10**4 the first stage's depth is
# 10**4 and the deep stages start; from 500_000 and up to U_CAP every stage
# sieves to its full depth.
_DEPTH_EDGE_WINDOWS = [
    *([(lo, lo + k - 1) for k in (n - 1, n, n + 1)]
      for lo, n in ((1000, 32), (5000, 161), (10_000, 312), (500_000, 312))),
    [(U_CAP - k + 1, U_CAP) for k in (311, 312, 313)],
]


@pytest.mark.parametrize("windows", _DEPTH_EDGE_WINDOWS, ids=lambda ws: f"{ws[1][0]}..{ws[1][1]}")
def test_phi3_sieve_windows_at_the_depth_edges_match_trial_division_oracle(windows):
    # the oracle shares no code with the sieve; it is run once on the union
    # of the three windows, which share their first or their last x
    lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
    oracle = dict(zip(range(lo, hi + 1), phi3_trial_division_factorizations(lo, hi)))
    for a, b in windows:
        assert [(f.value, f.factors) for f in phi3_factorizations(a, b)] == \
            [oracle[x] for x in range(a, b + 1)], (a, b)


def test_phi3_sieve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    # the two middle windows hold rho splits into a repeated prime above 10**4,
    # which test_phi3_sieve_matches_factorize cannot check, as factorize
    # finishes its cofactors by the same rule
    windows = [(0, 400), (259_690, 259_699), (904_740, 904_749), (999_700, 10**6)]
    windows += [(lo, lo + 50) for lo in (rng.randrange(1, 10**6) for _ in range(6))]
    for lo, hi in windows:
        for x, f in zip(range(lo, hi + 1), phi3_factorizations(lo, hi)):
            assert f.factors == tuple(sorted(sympy.factorint(_phi3(x)).items())), x


def test_phi3_sieve_matches_smaller_root_oracle():
    # the oracle shares no code with the sieve and tests no prime
    assert [(f.value, f.factors) for f in phi3_factorizations(1, 20_000)] == \
        phi3_smaller_root_factorizations(20_000)


def test_phi3_trial_division_oracle_matches_smaller_root_oracle():
    # the two oracles share no code: one reads new primes off by the
    # smaller-root lemma, the other divides by every prime in turn
    assert phi3_trial_division_factorizations(1, 3000) == phi3_smaller_root_factorizations(3000)
    assert phi3_trial_division_factorizations(2500, 3000) == \
        phi3_smaller_root_factorizations(3000)[2499:]


def test_phi3_sieve_near_the_cap_matches_trial_division_oracle():
    # every row of the 100-row window ending at U_CAP, where the sieve
    # stops at depth 2 * 10**5 and finishes cofactors by is_prime and rho,
    # against an oracle that divides by every prime up to isqrt(Phi_3(U_CAP))
    lo = U_CAP - 99
    assert [(f.value, f.factors) for f in phi3_factorizations(lo, U_CAP)] == \
        phi3_trial_division_factorizations(lo, U_CAP)


def test_phi3_deep_stage_short_windows_at_the_cap_match_trial_division_oracle():
    # windows of 1 to 313 values ending at U_CAP: the first stage sieves to
    # 10**4, and the deep stages sieve each window's cofactors on to 2 * 10**5
    lengths = (1, 2, 5, 100, 312, 313)
    oracle = phi3_trial_division_factorizations(U_CAP - max(lengths) + 1, U_CAP)
    for k in lengths:
        assert [(f.value, f.factors) for f in phi3_factorizations(U_CAP - k + 1, U_CAP)] == \
            oracle[-k:], k


# windows whose hi crosses a depth switch: isqrt(Phi_3(hi)) = hi passes
# 10**4 at hi = 10001, where the deep stages start, 3 * 10**4 and 10**5,
# where the next deep stage starts, and 2 * 10**5, where the depth stops
# growing; 6 * 10**4 was the depth of an earlier single deep stage.  x = 11193
# is the first value past 10**4 with two primes above 10**4 (10477 * 11959);
# x = 59931 has 15907 * 32257, x = 29984 has 24763 * 36307, x = 99974 has
# 36451 * 274201 and x = 199941 has 87121 * 458863.  The first values past
# 3 * 10**4, 10**5 and 2 * 10**5 with two primes above it are at x = 32502
# (32029 * 32983), x = 102674 (102121 * 103231) and x = 201242 (200467 *
# 202021).  In a window ending at 32502 or 102674 the larger prime lies above
# the depth hi; at 201242 both lie above the full depth, so rho splits them.
_DEPTH_SWITCH_WINDOWS = {
    "1e4": [(9_990, 10_000), (9_990, 10_001), (10_000, 10_100), (11_150, 11_193),
            (9_990, 11_193)],
    "6e4": [(59_900, 59_999), (59_931, 60_000), (59_990, 60_001), (59_999, 60_300),
            (59_900, 60_300)],
    "3e4": [(29_984, 30_000), (29_990, 30_001), (30_000, 30_100), (29_984, 30_100)],
    "3e4-pq": [(32_480, 32_502), (32_502, 32_520)],
    "1e5": [(99_974, 100_000), (99_990, 100_001), (100_000, 100_100), (99_974, 100_100)],
    "1e5-pq": [(102_650, 102_674), (102_674, 102_700)],
    "2e5": [(199_941, 200_000), (199_997, 200_001), (200_000, 200_100), (199_941, 200_100)],
    "2e5-pq": [(201_220, 201_242), (201_242, 201_260)],
}


@pytest.mark.parametrize("switch", sorted(_DEPTH_SWITCH_WINDOWS))
def test_phi3_sieve_windows_across_the_depth_switches(switch):
    windows = _DEPTH_SWITCH_WINDOWS[switch]
    lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
    oracle = dict(zip(range(lo, hi + 1), phi3_trial_division_factorizations(lo, hi)))
    for a, b in windows:
        assert [(f.value, f.factors) for f in phi3_factorizations(a, b)] == \
            [oracle[x] for x in range(a, b + 1)], (a, b)


def test_phi3_deep_stage_across_blocks_matches_sympy():
    # windows of 2101 values above 2 * 10**5 span two sieve blocks of 2048,
    # each with its own deep stages: a depth or cofactor product carried from
    # one block into the next shows on no single-block window
    sympy = pytest.importorskip("sympy")
    for lo, hi in ((500_000, 502_100), (600_000, 602_100)):
        for x, f in zip(range(lo, hi + 1), phi3_factorizations(lo, hi)):
            assert f.factors == tuple(sorted(sympy.factorint(_phi3(x)).items())), x


def test_phi3_deep_stage_leaves_is_prime_and_rho_only_cofactors_past_its_depth(monkeypatch):
    # scan-high's window at seed 1.  Each deep stage, (10**4, 3 * 10**4],
    # (3 * 10**4, 10**5] and (10**5, 2 * 10**5], finds roots only for its
    # primes that divide a cofactor still at or above its previous limit
    # plus one, squared: 16 primes in all.  is_prime then sees only the 22
    # cofactors at or above 200001**2, and rho splits 1 of them; one deep
    # stage to 6 * 10**4 handed is_prime 33 cofactors and rho 3, and a
    # sieve stopping at 10**4 hands is_prime 61 cofactors and rho 16.
    sympy = pytest.importorskip("sympy")
    lo, hi = 950_000, 950_100
    calls = {"is_prime": [], "_brent_rho": []}
    for name, seen in calls.items():
        real = getattr(exactmath, name)
        monkeypatch.setattr(exactmath, name, lambda n, real=real, seen=seen: seen.append(n) or real(n))
    sieved, primes = _sieve_with_root_primes(lo, hi, _DEEP)
    monkeypatch.undo()
    factors = [tuple(sorted(sympy.factorint(_phi3(x)).items())) for x in range(lo, hi + 1)]
    assert [f for _, f in sieved] == factors
    dividing = set()
    for below, limit in pairwise((10_000, 30_000, 100_000, _DEEP)):
        for fs in factors:
            if prod(p**e for p, e in fs if p > below) >= (below + 1)**2:
                dividing.update(p for p, _ in fs if below < p <= limit)
    assert [p for p in primes if p > 10_000] == sorted(dividing)
    assert len(dividing) == 16
    assert all(n >= (_DEEP + 1)**2 for n in calls["is_prime"])
    assert (len(calls["is_prime"]), len(calls["_brent_rho"])) == (22, 1)


def test_phi3_sieve_rejects_bad_windows():
    for lo, hi in ((-1, 5), (9, 8)):
        with pytest.raises(ValueError):
            list(phi3_factorizations(lo, hi))


def test_geom_sum_matches_closed_form():
    for q in (2, 3, 5, 10):
        for k in range(0, 8):
            assert geom_sum(q, k) == (q ** (k + 1) - 1) // (q - 1)
            assert geom_sum(q, k, 2) == (q ** (2 * (k + 1)) - 1) // (q**2 - 1)


def test_geom_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        geom_sum(1, 5)
    for args, message in (((2, -1), "got k=-1, step=1"), ((2, 1, 0), "got k=1, step=0")):
        with pytest.raises(ValueError) as info:
            geom_sum(*args)
        assert str(info.value) == f"geom_sum expects k >= 0 and step >= 1, {message}"


@pytest.mark.parametrize("call, message", [
    (lambda: factorize(-1), "factorize expects n >= 0, got -1"),
    (lambda: is_prime_power(1), "is_prime_power expects n >= 2, got 1"),
    (lambda: nth_root(-1, 2), "nth_root expects n >= 0, k >= 1"),
    (lambda: nth_root(4, 0), "nth_root expects n >= 0, k >= 1"),
], ids=["factorize", "is_prime_power", "nth_root-n", "nth_root-k"])
def test_out_of_domain_arguments_are_rejected(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_gaussian_binomial_matches_subspace_enumeration():
    assert gaussian_binomial(4, 2, 2) == brute_subspace_count(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == brute_subspace_count(3, 1, 3) == 13
    assert gaussian_binomial(4, 1, 2) == brute_subspace_count(4, 1, 2) == 15


def test_gaussian_binomial_symmetry_and_recurrence():
    for q in (2, 3, 4, 5):
        for n in range(1, 9):
            for m in range(0, n + 1):
                gb = gaussian_binomial(n, m, q)
                assert gb == gaussian_binomial(n, n - m, q)
                if 1 <= m <= n - 1:
                    assert gb == (gaussian_binomial(n - 1, m - 1, q)
                                  + q**m * gaussian_binomial(n - 1, m, q))


def test_gaussian_binomial_edges():
    assert gaussian_binomial(6, 0, 2) == 1
    assert gaussian_binomial(6, 6, 2) == 1
    assert gaussian_binomial(5, 1, 7) == geom_sum(7, 4)
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(ValueError) as info:
        gaussian_binomial(3, 1, 1)
    assert str(info.value) == "gaussian_binomial expects q >= 2, got 1"


_CYCLOTOMIC_BASES = (2, 3, 7, 1024)


def test_cyclotomic_pieces_multiply_to_both_halves():
    for x in _CYCLOTOMIC_BASES:
        for k in range(1, 121):
            minus = cyclotomic_pieces(x, k)
            plus = cyclotomic_pieces(x, k, plus=True)
            assert list(minus) == [d for d in range(1, k + 1) if k % d == 0]
            assert list(plus) == [d for d in range(1, 2 * k + 1) if (2 * k) % d == 0 and k % d]
            assert prod(minus.values()) == x**k - 1
            assert prod(plus.values()) == x**k + 1


def test_cyclotomic_pieces_match_moebius_oracle():
    for x in _CYCLOTOMIC_BASES:
        for k in range(1, 121):
            for d, value in (cyclotomic_pieces(x, k) | cyclotomic_pieces(x, k, plus=True)).items():
                assert value == cyclotomic_value(d, x), (x, k, d)


def test_cyclotomic_pieces_match_sympy():
    sympy = pytest.importorskip("sympy")
    variable = sympy.Symbol("X")
    polys = {}
    for x in _CYCLOTOMIC_BASES:
        for k in range(1, 121):
            for d, value in (cyclotomic_pieces(x, k) | cyclotomic_pieces(x, k, plus=True)).items():
                if d not in polys:
                    polys[d] = sympy.cyclotomic_poly(d, variable, polys=True)
                assert value == polys[d].eval(x), (x, k, d)


def test_plus_pieces_are_the_doubled_exponents_other_pieces():
    # the identity U-PARAB-MOD splits x^k + 1 by: its pieces are those of
    # x^(2k) - 1 whose index d does not divide k, in the same increasing d
    exponents = sorted({a * m for a in (1, 3, 5, 7, 9) for m in range(1, 51)})
    for x in (2, 3, 1024):
        for k in exponents:
            if x == 2 or k <= 200:
                assert ([(d, v) for d, v in cyclotomic_pieces(x, 2 * k).items() if k % d]
                        == list(cyclotomic_pieces(x, k, plus=True).items())), (x, k)


def test_cyclotomic_pieces_rejects_bad_arguments():
    for x, k in ((1, 5), (0, 5), (-2, 5), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            cyclotomic_pieces(x, k)
        with pytest.raises(ValueError):
            cyclotomic_pieces(x, k, plus=True)


def test_factor_cyclotomic_ratio_matches_factorize():
    for x in (2, 3, 4, 7, 32):
        for n in range(1, 11):
            for m in range(n + 1):
                num = [(n - i, (-1) ** (n - i)) for i in range(m)]
                den = [(i + 1, (-1) ** (i + 1)) for i in range(m)]
                value = prod(x**d - e for d, e in num) // prod(x**d - e for d, e in den)
                assert cyclotomic_ratio(x, num, den) == value, (x, n, m)
                assert factor_cyclotomic_ratio(x, num, den) == factorize(value), (x, n, m)
                num = [(n - i, 1) for i in range(m)]
                den = [(i + 1, 1) for i in range(m)]
                value = prod(x**d - e for d, e in num) // prod(x**d - e for d, e in den)
                assert cyclotomic_ratio(x, num, den) == value, (x, n, m)
                assert gaussian_binomial(n, m, x) == value, (x, n, m)
                assert factor_cyclotomic_ratio(x, num, den) == factorize(value), (x, n, m)
            # a unitary-style order repeats pieces: Phi_2(x) divides all n terms
            num = [(i, (-1) ** i) for i in range(1, n + 1)]
            value = prod(x**d - e for d, e in num)
            assert cyclotomic_ratio(x, num, []) == value, (x, n)
            assert factor_cyclotomic_ratio(x, num, []) == factorize(value), (x, n)


def test_factor_cyclotomic_ratio_rejects_bad_terms():
    with pytest.raises(AssertionError):
        factor_cyclotomic_ratio(3, [(4, 1)], [(3, 1)])  # (x^4 - 1)/(x^3 - 1)
    with pytest.raises(AssertionError):
        cyclotomic_ratio(3, [(4, 1)], [(3, 1)])
    with pytest.raises(ValueError):
        factor_cyclotomic_ratio(3, [(4, 2)], [])


def test_cyclotomic_ratio_checks_survive_optimized_mode():
    # python -O strips assert statements; both exactness checks still raise
    code = """
from planesieve.exactmath import cyclotomic_ratio, factor_cyclotomic_ratio
for f in (cyclotomic_ratio, factor_cyclotomic_ratio):
    try:
        f(3, [(4, 1)], [(3, 1)])
    except AssertionError as exc:
        print(f.__name__, exc)
"""
    src = str(Path(exactmath.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("cyclotomic_ratio cyclotomic_ratio: the ratio is not an integer\n"
                           "factor_cyclotomic_ratio Phi_3 has net count -1 in the ratio\n")


def test_factorization_is_immutable():
    f = factorize(12)
    assert isinstance(f, Factorization)
    with pytest.raises(AttributeError):
        f.value = 13
