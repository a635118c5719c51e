"""Plane-order arithmetic: factor split, admissibility, prime-power
classification, the quadratic-ratio inverse, and the counting chain."""

import random
from collections import Counter
from math import gcd, prod

import pytest

import planesieve.exactmath
from planesieve.exactmath import (Factorization, factorize, is_prime_power,
                                  phi3_factorizations, small_primes)
from planesieve.plane import (InvolutionCount, LjunggrenClass, admissible_index,
                              fixed_count_bound, involution_counts, kantor_cofactor_holds,
                              ljunggren_classify, plane_order, plane_orders,
                              quadratic_ratio_root)


def test_plane_order_u2():
    plane = plane_order(2)
    assert (plane.u, plane.v) == (2, 21)
    assert (plane.plus_factors.value, plane.minus_factors.value) == (7, 3)
    assert plane.v_factors.factors == ((3, 1), (7, 1))


def test_plane_order_u18_exceptional():
    plane = plane_order(18)
    assert plane.v == 105301
    assert (plane.plus_factors.value, plane.minus_factors.value) == (343, 307)
    assert plane.v_factors.factors == ((7, 3), (307, 1))


def test_plane_order_u4():
    assert plane_order(4).v == 273


def test_plane_order_requires_u_at_least_2():
    for bad in (-1, 0, 1):
        with pytest.raises(ValueError):
            plane_order(bad)


def test_plane_order_identities():
    for u in range(2, 300):
        plane = plane_order(u)
        plus, minus = plane.plus_factors.value, plane.minus_factors.value
        assert plane.v == u**4 + u**2 + 1
        assert plus == u * u + u + 1
        assert minus == u * u - u + 1
        assert plus * minus == plane.v
        assert gcd(plus, minus) == 1
        assert plane.v_factors.reassemble() == plane.v


def test_plane_orders_yields_lazily(monkeypatch):
    # the first row needs only the first sieve block, not the whole range
    real, calls = planesieve.exactmath._factor_into, []

    def spy(m, depth, acc):
        calls.append(m)
        real(m, depth, acc)

    monkeypatch.setattr(planesieve.exactmath, "_factor_into", spy)
    assert next(plane_orders(2, 50_000)).u == 2
    assert 0 < len(calls) <= 2048


@pytest.mark.parametrize("u_min,u_max", [(2, 3000), (999001, 10**6)])
def test_v_factors_merge_the_halves(u_min, u_max):
    for plane in plane_orders(u_min, u_max):
        u = plane.u
        merged = Counter(dict(factorize(u * u + u + 1).factors))
        merged.update(dict(factorize(u * u - u + 1).factors))
        assert plane.v_factors.factors == tuple(sorted(merged.items()))


@pytest.mark.parametrize("n,expected", [
    (1, True), (3, True), (7, True), (13, True), (21, True), (91, True),
    (9139, True), (39, True), (43 * 127, True),
    (2, False), (5, False), (9, False), (11, False), (45, False),
    (63, False), (495, False), (21 * 9, False),
])
def test_admissible_index(n, expected):
    assert admissible_index(n) == expected
    assert admissible_index(factorize(n)) == expected


def test_admissible_index_of_an_int_matches_its_factorization():
    # an int is refused by its residues mod 2, 9 and 3 before it is
    # factored: the answer must be the one read off the full
    # factorization, at every small n and on products whose primes = 2
    # mod 3 all lie above 10**4, where only the residue mod 3 or the
    # factorization can refuse
    for n in range(1, 30_001):
        assert admissible_index(n) == admissible_index(factorize(n)), n
    large = [p for p in small_primes(200_000) if p > 10_000]
    one_mod = [p for p in large if p % 3 == 1]
    two_mod = [p for p in large if p % 3 == 2]
    rng = random.Random(33)
    answers = []
    for _ in range(600):
        small = 3 ** rng.randrange(3) * prod(rng.sample((7, 13, 19, 31, 37, 43), rng.randrange(3)))
        bad = rng.choice(([], [rng.choice(two_mod)], rng.sample(two_mod, 2),
                          [rng.choice(two_mod)] * 2))
        n = small * prod(rng.sample(one_mod, rng.randrange(3))) * prod(bad)
        answers.append(admissible_index(n))
        assert answers[-1] == admissible_index(factorize(n)), n
    assert answers.count(True) > 50 and answers.count(False) > 300


def test_admissible_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        admissible_index(0)
    with pytest.raises(ValueError) as info:
        admissible_index(Factorization(0, ()))
    assert str(info.value) == "admissible_index expects n >= 1, got 0"


def test_ljunggren_classify_landmarks():
    assert ljunggren_classify(factorize(7)) is LjunggrenClass.PRIME_VALUE     # u = 2
    assert ljunggren_classify(factorize(13)) is LjunggrenClass.PRIME_VALUE    # u = 3
    assert ljunggren_classify(factorize(21)) is LjunggrenClass.COMPOSITE      # u = 4
    assert ljunggren_classify(factorize(343)) is LjunggrenClass.SEVEN_CUBED   # u = 18


def test_ljunggren_classify_consistent_with_prime_power_test():
    for u, plus in zip(range(1, 500), phi3_factorizations(1, 499)):
        value = u * u + u + 1
        cls = ljunggren_classify(plus)
        assert ljunggren_classify(factorize(value)) is cls
        pp = is_prime_power(value)
        if cls is LjunggrenClass.PRIME_VALUE:
            assert pp == (value, 1)
        elif cls is LjunggrenClass.SEVEN_CUBED:
            assert value == 343 and pp == (7, 3)
        elif cls is LjunggrenClass.OTHER_PRIME_POWER:
            assert pp is not None and pp[1] >= 2 and value != 343
        else:
            assert pp is None


@pytest.mark.parametrize("t,expected", [
    (3, 2), (7, 3), (13, 4), (21, 5), (91, 10), (111, 11),
    (6, None), (8, None), (10, None), (12, None), (57, 8),
])
def test_quadratic_ratio_root(t, expected):
    assert quadratic_ratio_root(t) == expected


def test_quadratic_ratio_root_round_trip():
    for u in range(2, 1000):
        assert quadratic_ratio_root(u * u - u + 1) == u


def test_quadratic_ratio_root_exhaustive():
    roots, u = {}, 2
    while u * u - u + 1 <= 10**5:
        roots[u * u - u + 1] = u
        u += 1
    assert all(quadratic_ratio_root(t) == roots.get(t) for t in range(10**5 + 1))


def test_quadratic_ratio_root_below_range_is_none():
    assert quadratic_ratio_root(1) is None
    assert quadratic_ratio_root(2) is None


def test_kantor_inequality_large_cofactor():
    # 169 divides u^2+u+1 first at u = 22 (507 = 3*169), where the
    # cofactor 3*(u^2-u+1) = 1389 beats 8*169 = 1352.
    u = 22
    assert (u * u + u + 1) % 169 == 0
    m = (u * u + u + 1) // 169 * (u * u - u + 1)
    assert m == 1389
    assert kantor_cofactor_holds(13**2, m, u)


def test_kantor_inequality_seven_cubed_exception():
    # v(18) = 343 * 307: the cofactor is small, but 343 = 18^2 + 18 + 1
    assert kantor_cofactor_holds(343, 307, 18)


def test_kantor_inequality_fails_on_small_cofactor():
    # m <= 8 * p^a fails, at the edge too
    assert not kantor_cofactor_holds(169, 8 * 169, 22)
    assert kantor_cofactor_holds(169, 8 * 169 + 1, 22)
    # v(19) = 381 * 343 with 343 = 19^2 - 19 + 1 passes; at u = 20 the
    # halves are 421 and 381, 343 is neither, and the same split fails
    assert kantor_cofactor_holds(343, 381, 19)
    assert not kantor_cofactor_holds(343, 381, 20)


def test_involution_counts_chain():
    counts = involution_counts(91, 7)
    assert isinstance(counts, InvolutionCount)
    assert (counts.n_g, counts.r_g, counts.ratio, counts.u, counts.d_g) \
        == (91, 7, 13, 4, 21)
    assert counts.v == 273


def test_involution_counts_alternate_divisor():
    counts = involution_counts(91, 13)
    assert (counts.ratio, counts.u, counts.d_g, counts.v) == (7, 3, 13, 91)


def test_involution_counts_rejects_nonpositive():
    with pytest.raises(ValueError) as info:
        involution_counts(0, 1)
    assert str(info.value) == "involution_counts expects positive counts, got (0, 1)"


def test_involution_counts_absences():
    assert involution_counts(91, 6) is None       # ratio not an integer
    assert involution_counts(91, 91) is None      # ratio 1 needs u = 1
    assert involution_counts(100, 10) is None     # 10 is not u^2-u+1
    assert involution_counts(105, 15).v == 91     # the degree-7 chain


def test_fixed_count_bound_brute_force():
    for ratio in range(1, 10**4 + 1):
        u = 1
        while u * u - u + 1 <= ratio:
            assert u * u + u + 1 <= fixed_count_bound(ratio), (ratio, u)
            u += 1
