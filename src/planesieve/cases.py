"""The registered eliminations.

Each function here replays one bounded counting argument: an inequality
scan, a divisibility table, a branch-by-branch contradiction, or a
brute-force count.  The _case decorator above each check declares its
id, claim and bound, and REGISTRY lists the checks in definition order.
A check receives the ledger's Record and its effective scan bound (None
for fixed-domain cases), and records failure and success witnesses on
the Record; branch-by-branch cases walk Record.branches.  The ledger
reads the verdict off the Record.

Conventions: witnesses are flat tuples of ints and short tags, decisive
counterexamples are always recorded, and anything labeled a dual
reading runs both readings and records which one reproduces the
elimination.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, gcd, isqrt, prod
from operator import ne
from typing import Callable

from .catalog import classes_for, involution_class_size
from .exactmath import (cyclotomic_pieces, cyclotomic_ratio, factorize, gaussian_binomial,
                        geom_sum, is_prime_power, nth_root, small_primes, trial_divide)
from .groups import SPORADIC_ODD_INDEX, SPORADIC_ORDERS, group_spec, order, parabolic_index
from .ledger import CaseCheck, CheckFn, Record
from .plane import (U_CAP, LjunggrenClass, admissible_index, fixed_count_bound,
                    involution_counts, ljunggren_classify, quadratic_ratio_root)
from .sieve import phi3_factorizations

_FACTOR_CAP = 10**18


def _prime_powers(limit: int) -> list[tuple[int, int]]:
    """All (value, p) with value = p**e <= limit, e >= 1, sorted by value."""
    out = []
    for p in small_primes(limit):
        value = p
        while value <= limit:
            out.append((value, p))
            value *= p
    return sorted(out)


def _one_mod_three_only(n: int) -> bool | None:
    """Whether every prime divisor of n other than 3 is 1 mod 3.

    Past the primes up to 10^4 and the 2 mod 3 refusals, admissible_index
    decides the cofactor (it has no factor 9) up to the desk-scale cap;
    above it a prime power is decided, and any other cofactor gives None.
    """
    small, n = trial_divide(n)
    if n % 3 == 2 or any(p % 3 == 2 for p in small):
        return False
    if n <= _FACTOR_CAP:
        return admissible_index(n)
    pp = is_prime_power(n)
    return None if pp is None else pp[0] % 3 == 1


def _class_size(spec, label: str) -> int:
    for t in classes_for(spec):
        if t["label"] == label:
            return involution_class_size(t, spec)
    raise LookupError(f"no catalog class {label!r} covers {spec}")


_REGISTERED: list[CaseCheck] = []


def _case(**metadata) -> Callable[[CheckFn], CheckFn]:
    """Register the decorated check with its reporting metadata; the
    registry keeps definition order."""
    def register(check: CheckFn) -> CheckFn:
        _REGISTERED.append(CaseCheck(check=check, **metadata))
        return check
    return register


# --- framework -------------------------------------------------------------

@_case(id="FRAME-5SQRT", section="framework/order-bound",
       anchor="x^2+x+1 stays below 5^u for x = u^2, directly to u = 100 "
              "and by an increasing ratio beyond",
       parameters="direct scan 2 <= u <= 100; ratio monotone on 100 < u <= 1000",
       default_bound=1000, bound_kind="u")
def _frame_5sqrt(rec: Record, u_max: int) -> None:
    power = 5
    for u in range(2, min(100, u_max) + 1):
        power *= 5
        x = u * u
        if not x * x + x + 1 < power:
            rec.fail("direct-failure", u)
    value = 100**4 + 100**2 + 1
    for u in range(100, u_max):
        x = (u + 1) ** 2
        following = x * x + x + 1
        if not 5 * value > following:
            rec.fail("ratio-failure", u)
        value = following
    if rec.ok:
        rec.note("direct", 2, min(100, u_max))
        rec.note("ratio-monotone", 100, u_max)


# --- alternating groups ----------------------------------------------------

@_case(id="ALT-BOUND", section="alternating/degree-bound",
       anchor="2^floor(n/2) < n^4 holds exactly for degrees n <= 43",
       parameters="8 <= n <= 200", default_bound=200, bound_kind="n")
def _alt_bound(rec: Record, n_max: int) -> None:
    for n in range(8, n_max + 1):
        holds = 2 ** (n // 2) < n**4
        if holds != (n <= 43):
            rec.fail("cutoff-failure", n)
    if rec.ok:
        if n_max >= 43:
            rec.note("last-pass", 43, 2**21, 43**4)
        if n_max >= 44:
            rec.note("first-fail", 44, 2**22, 44**4)


@_case(id="ALT-RATIO", section="alternating/ratio-bound",
       anchor="n(n-1) < 3(n-4)(n-5) for every degree n >= 11",
       parameters="11 <= n <= 200", default_bound=200, bound_kind="n")
def _alt_ratio(rec: Record, n_max: int) -> None:
    for n in range(11, n_max + 1):
        if not n * (n - 1) < 3 * (n - 4) * (n - 5):
            rec.fail("ratio-failure", n)
    if rec.ok:
        rec.note("tightest", 11, 11 * 10, 3 * 7 * 6)


def _is_even(sigma: tuple[int, ...]) -> bool:
    """Whether sigma has an even number of inversions."""
    return sum(x > y for x, y in combinations(sigma, 2)) % 2 == 0


_ID7 = tuple(range(7))


def _doubles(perms) -> int:
    """How many of perms are double transpositions on 7 points: the
    involutions that move exactly four points.  A product of two
    transpositions is even, so no parity filter is needed.  The guards
    p[p[0]] == 0, p[p[1]] == 1 and p[p[2]] == 2 go first (every
    involution passes them, 336 of the 5040 permutations do), then the
    moved-point count, and the square of p is built last."""
    return sum(1 for p in perms
               if p[p[0]] == 0 and p[p[1]] == 1 and p[p[2]] == 2
               and sum(map(ne, p, _ID7)) == 4
               and tuple(map(p.__getitem__, p)) == _ID7)


@_case(id="ALT-A7", section="alternating/degree-7",
       anchor="degree 7 has 105 double transpositions; the stabilizer "
              "candidates hold 25, 45, and 15 of them, and each count "
              "breaks the chain at a recorded step",
       parameters="brute force over all 5040 permutations of 7 points")
def _alt_a7(rec: Record, _bound: int | None) -> None:
    n_g = _doubles(permutations(range(7)))
    # S5 sits in A7 with each odd sigma also swapping 5 and 6
    s5_count = _doubles(sigma + ((5, 6) if _is_even(sigma) else (6, 5))
                        for sigma in permutations(range(5)))
    a6_count = _doubles(sigma + (6,) for sigma in permutations(range(6)))
    a5_count = _doubles(sigma + (5, 6) for sigma in permutations(range(5)))

    if n_g != 105 or n_g != comb(7, 2) * comb(5, 2) // 2:
        rec.fail("class-size-mismatch", n_g)
    if (s5_count, a6_count, a5_count) != (25, 45, 15):
        rec.fail("subgroup-count-mismatch", s5_count, a6_count, a5_count)

    if n_g % s5_count == 0:
        rec.fail("S5-unexpected-integrality", n_g, s5_count)
    else:
        rec.note("S5", s5_count, "ratio-not-integer")
    if n_g % a6_count == 0:
        rec.fail("A6-unexpected-integrality", n_g, a6_count)
    else:
        rec.note("A6", a6_count, "ratio-not-integer")

    counts = involution_counts(n_g, a5_count)
    index_a5 = 2520 // 60
    if counts is None or counts.v % index_a5 == 0:
        rec.fail("A5-chain-mismatch")
    else:
        rec.note("A5", a5_count, "ratio", counts.ratio,
                 "v", counts.v, "index", index_a5, "v-indivisible")


# --- linear groups ---------------------------------------------------------

@_case(id="PSL-C2C5", section="linear/stabilizer-p-part",
       anchor="2(n^2-5n+8) <= n(n-1) holds exactly for dimensions n < 7",
       parameters="4 <= n <= 50", default_bound=50, bound_kind="n")
def _psl_c2c5(rec: Record, n_max: int) -> None:
    for n in range(4, n_max + 1):
        holds = 2 * (n * n - 5 * n + 8) <= n * (n - 1)
        if holds != (n < 7):
            rec.fail("cutoff-failure", n)
    if rec.ok and n_max >= 7:
        rec.note("last-pass", 6, 28, 30)
        rec.note("first-fail", 7, 44, 42)


@_case(id="PSL-DIVIS", section="linear/parabolic-binomials",
       anchor="admissibility of binomial(n, m) first holds at n = 7 for "
              "m <= 2 and n = 39 for m = 3, never for m = 4 through 70, "
              "and for even n below 70 only at (14,2), (38,2), (62,2)",
       parameters="n <= 100, m <= 8", default_bound=100, bound_kind="n")
def _psl_divis(rec: Record, n_max: int) -> None:
    def adm(n: int, m: int) -> bool:
        return admissible_index(comb(n, m))

    first_low = next((n for n in range(5, n_max + 1, 2) if adm(n, 1) or adm(n, 2)), None)
    if n_max >= 7:
        if first_low != 7 or not (adm(7, 1) and adm(7, 2)):
            rec.fail("m12-first-pass-mismatch", first_low)
        else:
            rec.note("m12-first-pass", 7)

    first_m3 = next((n for n in range(5, n_max + 1, 2) if adm(n, 3)), None)
    if n_max >= 39:
        if first_m3 != 39:
            rec.fail("m3-first-pass-mismatch", first_m3)
        else:
            rec.note("m3-first-pass", 39, comb(39, 3))
    elif first_m3 is not None:
        rec.fail("m3-early-pass", first_m3)

    early_m4 = [n for n in range(5, min(70, n_max) + 1, 2) if adm(n, 4)]
    if early_m4:
        rec.fail("m4-early-pass", early_m4[0])
    else:
        rec.note("m4-none-through", min(70, n_max))

    even_pass = sorted((n, m)
                       for n in range(6, min(68, n_max) + 1, 2)
                       for m in (2, 4, 6, 8) if m <= n // 2 and adm(n, m))
    expected = [(n, 2) for n in (14, 38, 62) if n <= min(68, n_max)]
    if even_pass != expected:
        rec.fail("even-table-mismatch", even_pass)
    else:
        rec.note("even-table", [n for n, _ in expected])

    for n in range(4, n_max + 1):
        if (comb(n, 2) % 2 == 0) != (n % 4 in (0, 1)):
            rec.fail("m2-parity-failure", n)
    if rec.ok:
        rec.note("m2-parity", "even exactly when n = 0,1 mod 4")


@_case(id="PSL-P2-EXC", section="linear/char-2-exceptions",
       anchor="q^4+1 is 2 mod 3 and divides the (8,4) index; the (9,4) "
              "and (7,3) indices both exceed the plane-size ceiling",
       parameters="q in {2, 4, 8, 16}")
def _psl_p2_exc(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((2, 4, 8, 16)):
        expect("q4-mod-3", (q**4 + 1) % 3 == 2)
        expect("q4-divides-index", gaussian_binomial(8, 4, q) % (q**4 + 1) == 0)
        expect("nine-four-index-exceeds-v", gaussian_binomial(9, 4, q) > geom_sum(q, 8) ** 2 // 2)
        idx73 = gaussian_binomial(7, 3, q)
        expect("seven-three-identity",
               idx73 == (q * q - q + 1) * geom_sum(q, 4) * geom_sum(q, 6))
        expect("seven-three-index-exceeds-v", idx73 > geom_sum(q, 6) ** 2 // 2)


@_case(id="PSL-73", section="linear/dimension-7-exception",
       anchor="3(1+q+...+q^6) is not of the form u^2-u+1 at q = 3 or 5",
       parameters="q in {3, 5}")
def _psl_73(rec: Record, _bound: int | None) -> None:
    for q in (3, 5):
        t = 3 * geom_sum(q, 6)
        if quadratic_ratio_root(t) is not None:
            rec.fail("unexpected-root", q, t)
        else:
            rec.note(q, t, "discriminant", 4 * t - 3, "not-square")


@_case(id="PSL2-PARAB", section="rank-one/parabolic",
       anchor="u^2-u is never a 2-power 2^a with a >= 2",
       parameters="2 <= a <= 60", default_bound=60, bound_kind="a")
def _psl2_parab(rec: Record, a_max: int) -> None:
    for a in range(2, a_max + 1):
        if quadratic_ratio_root(2**a + 1) is not None:
            rec.fail("unexpected-root", a)
    if rec.ok:
        rec.note("scan", 2, a_max, "no u with u(u-1) a 2-power")


@_case(id="PSL2-Q13", section="rank-one/dihedral-survivor",
       anchor="q = 13 is the unique dihedral survivor, with counts "
              "(91, 7, 13, 21, 273), and 81 > 63 closes it",
       parameters="prime powers q = 1 mod 4 with p = 1 mod 3, q <= 10^4")
def _psl2_q13(rec: Record, _bound: int | None) -> None:
    survivors = []
    for q, p in _prime_powers(10_000):
        if q % 4 != 1 or p % 3 != 1:
            continue
        u = quadratic_ratio_root(q)
        if u is not None and (q + 2 * u) % ((q + 1) // 2) == 0:
            survivors.append(q)
    if survivors != [13]:
        rec.fail("survivor-mismatch", survivors)
    else:
        rec.note("survivors", 13)

    spec = group_spec("PSL", n=2, q=13)
    n_g = _class_size(spec, "psl2-odd-plus")
    counts = involution_counts(n_g, 7)
    tuple_ok = (counts is not None
                and (counts.n_g, counts.r_g, counts.ratio, counts.d_g, counts.v)
                == (91, 7, 13, 21, 273)
                and counts.v == 3 * n_g)
    if not tuple_ok:
        rec.fail("count-tuple-mismatch", n_g)
    else:
        rec.note("counts", 91, 7, 13, 21, 273)
    if not 9 * 9 > 3 * 21:
        rec.fail("fixed-point-comparison-failure")
    else:
        rec.note("fixed-points", 81, ">", 63)


@_case(id="PSL2-PGL", section="rank-one/subfield-pgl",
       anchor="4(2q-1) differs from (3 sqrt(q) - 3)^2 at q = 49 and 169, "
              "the only candidate squares",
       parameters="odd prime squares q < 324 with p = 1 mod 3")
def _psl2_pgl(rec: Record, _bound: int | None) -> None:
    candidates = [r * r for r in small_primes(17) if r % 6 == 1]
    if candidates != [49, 169]:
        rec.fail("candidate-mismatch", candidates)
    for q in (49, 169):
        r = isqrt(q)
        lhs = 4 * (2 * q - 1)
        rhs = (3 * r - 3) ** 2
        if lhs == rhs:
            rec.fail("unexpected-equality", q)
        else:
            rec.note(q, lhs, "!=", rhs)


@_case(id="PSL2-SUBFIELD", section="rank-one/subfield-psl",
       anchor="the subfield count window contains no multiple of "
              "1+r+...+r^(a-1): consecutive multiples straddle it",
       parameters="odd prime powers r, odd a >= 3, r^a <= 10^6",
       default_bound=10**6, bound_kind="q")
def _psl2_subfield(rec: Record, q_max: int) -> None:
    checked_high = checked_low = 0
    for r, _ in _prime_powers(isqrt(q_max) + 1):
        if r % 2 == 0:
            continue
        a = 3
        while r**a <= q_max:
            plussum = geom_sum(r, a - 1)
            altsum = cyclotomic_ratio(r, ((a, -1),), ((1, -1),))
            if r % 4 == 3:
                if not plussum > altsum:
                    rec.fail("sum-comparison-failure", r, a)
                checked_high += 1
            else:
                ratio = r ** (a - 1) * altsum
                lower = ratio + 2 * (r ** (a - 1) - r ** (a - 2))
                upper = ratio + 2 * r ** (a - 1)
                y = r ** (a - 1) + sum((-1) ** j * 2 * r ** (a - 1 - j)
                                       for j in range(1, a - 1))
                if not (plussum * (y + 3) < lower and plussum * (y + 4) > upper):
                    rec.fail("window-not-straddled", r, a)
                checked_low += 1
            a += 2
    if rec.ok:
        rec.note("pairs", "r=3mod4", checked_high, "r=1mod4", checked_low)
        rec.note("sample", 5, 3, 558, "<", 565, "and", 589, ">", 575)


@_case(id="PSL3-Q13", section="linear/dimension-3-q13",
       anchor="u^2-u+1 divides the dimension-3 involution count at q = 13 "
              "only for u in {2, 4, 14, 23}, and no u^2+u+1 among them is "
              "divisible by both 7 and 61",
       parameters="both recorded readings of the count: 13^2*3*61 and 3^2*13*61")
def _psl3_q13(rec: Record, _bound: int | None) -> None:
    q = 13
    readings = {
        "formula": q * q * (q * q + q + 1),
        "literal": 3**2 * 13 * 61,
    }
    expected = {"formula": [2, 4, 14, 23], "literal": [2, 4, 14]}
    union: set[int] = set()
    for name, n_g in readings.items():
        found = [u for u in range(2, isqrt(n_g) + 2) if n_g % (u * u - u + 1) == 0]
        union.update(found)
        if found != expected[name]:
            rec.fail("reading-mismatch", name, found)
        else:
            rec.note(name, n_g, found)
    for u in sorted(union):
        plus = u * u + u + 1
        if plus % 7 == 0 and plus % 61 == 0:
            rec.fail("unexpected-joint-divisibility", u, plus)
    if rec.ok:
        rec.note("plus-values", 7, 21, 211, 553, "none divisible by 7 and 61")


@_case(id="PSL3-TYPE67", section="linear/dimension-3-small-q",
       anchor="24(q^2+q+1) > q^3-q holds exactly for prime powers q <= 25, "
              "leaving odd characteristics 7, 13, 19",
       parameters="prime powers q <= 64", default_bound=64, bound_kind="q")
def _psl3_type67(rec: Record, q_max: int) -> None:
    passing = []
    for q, p in _prime_powers(q_max):
        if 24 * (q * q + q + 1) > q**3 - q:
            passing.append((q, p))
            if q > 25:
                rec.fail("pass-above-25", q)
        elif q <= 25:
            rec.fail("fail-below-26", q)
    if rec.ok:
        rec.note("crossover", 25, 15624, ">", 15600)
        if q_max >= 27:
            rec.note("first-fail", 27, 18168, "<=", 19656)
        odd_one_mod3 = [q for q, p in passing if q % 2 == 1 and p % 3 == 1]
        if odd_one_mod3 != [7, 13, 19]:
            rec.fail("surviving-characteristics-mismatch", odd_one_mod3)
        else:
            rec.note("odd-survivors", 7, 13, 19)


# --- unitary groups --------------------------------------------------------

def _unitary_first_index(a: int, n: int) -> int:
    n_even, n_odd = (n, n - 1) if n % 2 == 0 else (n - 1, n)
    return cyclotomic_ratio(2**a, ((n_even, 1), (n_odd, -1)), ((2, 1),))


@_case(id="U-PARAB-MOD", section="unitary/parabolic-mod-12",
       anchor="an admissible first-parabolic index over q = 2^a with a odd "
              "forces n = 2 mod 12; exponents divisible by 3 admit nothing",
       parameters="3 <= n <= 50, a in {1, 3, 5, 7, 9}, cyclotomic pieces "
                  "factored up to 10^18", default_bound=50, bound_kind="n")
def _u_parab_mod(rec: Record, n_max: int) -> None:
    passes, undecided = [], []
    fail_count = 0

    # index = (q^n_even - 1)/(q^2 - 1) * (q^n_odd + 1) with q = 2^a, split
    # into the values Phi_d(2): the pieces of 2^(a n_even) - 1 less those of
    # 2^(2a) - 1 (the d dividing 2a), then the pieces of 2^(2a n_odd) - 1 whose
    # d does not divide a n_odd, which multiply to 2^(a n_odd) + 1.  Each
    # 2^k - 1 is split once per replay, k = a m for even m and 2 a m for odd m
    pieces = {k: cyclotomic_pieces(2, k) for k in
              {a * m * (1 + m % 2) for a in (1, 3, 5, 7, 9) for m in range(2, n_max + 1)}}
    for a in (1, 3, 5, 7, 9):
        minus = {m: [x for d, x in pieces[a * m].items() if (2 * a) % d]
                 for m in range(2, n_max + 1, 2)}
        plus = {m: [x for d, x in pieces[2 * a * m].items() if (a * m) % d]
                for m in range(3, n_max + 1, 2)}
        for n in range(3, n_max + 1):
            n_even, n_odd = (n, n - 1) if n % 2 == 0 else (n - 1, n)
            values = minus[n_even] + plus[n_odd]
            index = _unitary_first_index(a, n)
            if prod(values) != index:
                rec.fail("piece-identity-failure", a, n)
                continue
            # the index is now the pieces' product, so it is read mod 9 in their place
            if a in (3, 9):
                if index % 9:
                    rec.fail("nine-floor-failure", a, n, int(index % 3 == 0))
                continue
            if index % 9 == 0 or any(x % 3 == 2 for x in values):
                fail_count += 1
                continue
            blocked = False
            for x in values:
                piece = _one_mod_three_only(x)
                if piece is False:
                    fail_count += 1
                    break
                blocked = blocked or piece is None
            else:
                (undecided if blocked else passes).append((a, n))

    for a, n in passes + undecided:
        if n % 12 != 2:
            rec.fail("implication-failure", a, n)

    for n in range(4, min(20, n_max) + 1):
        spec = group_spec("PSU", n=n, q=2)
        if parabolic_index(spec, 1) != _unitary_first_index(1, n):
            rec.fail("formula-mismatch", n)
        direct = admissible_index(parabolic_index(spec, 1))
        screened = (1, n) in passes
        if (1, n) not in undecided and direct != screened:
            rec.fail("cross-check-failure", n, direct, screened)

    rec.note("passes", sorted(passes))
    rec.note("undecided", sorted(undecided))
    rec.note("failures", fail_count)
    rec.note("empty-columns", 3, 9)


@_case(id="U-N5-B1", section="unitary/dimension-5",
       anchor="only one multiple of q^4 fits below isqrt(2v), and q^4 is "
              "neither a fixed-point count nor an allowed prime power",
       parameters="q in {7, 13}")
def _u_n5_b1(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13)):
        cof = cyclotomic_ratio(q, ((5, -1),), ((1, -1),))
        expect("cofactor-identity", cof == q**4 - q**3 + q * q - q + 1)
        v = q**4 * cof
        expect("single-multiple", isqrt(2 * v) // q**4 == 1)
        expect("not-quadratic", quadratic_ratio_root(q**4) is None)
        expect("proper-power-excluded", is_prime_power(q**4) == (q, 4) and q**4 != 343)


@_case(id="U-N6-B2", section="unitary/dimension-6",
       anchor="only one multiple of q^8 fits below isqrt(2v), and q^8 is "
              "neither a fixed-point count nor an allowed prime power",
       parameters="q in {7, 13}")
def _u_n6_b2(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13)):
        cof = (q**4 + q * q + 1) * (q**4 - q**3 + q * q - q + 1)
        expect("cofactor-window", q**8 <= 2 * cof < 4 * q**8)
        v = q**8 * cof
        expect("single-multiple", isqrt(2 * v) // q**8 == 1)
        expect("not-quadratic", quadratic_ratio_root(q**8) is None)
        expect("proper-power-excluded", is_prime_power(q**8) == (q, 8) and q**8 != 343)


# --- symplectic groups -----------------------------------------------------

@_case(id="SP-PARAB", section="symplectic/parabolic",
       anchor="q^2+1 is 2 mod 3 for every prime power q not divisible by 3",
       parameters="prime powers q <= 10^4", default_bound=10_000, bound_kind="q")
def _sp_parab(rec: Record, q_max: int) -> None:
    count = 0
    for q, p in _prime_powers(q_max):
        if p == 3:
            continue
        count += 1
        if (q * q + 1) % 3 != 2:
            rec.fail("residue-failure", q)
    if rec.ok:
        rec.note("checked", count, "sample", 2, 5)


@_case(id="SP-N6", section="symplectic/dimension-6",
       anchor="the dimension-6 ratio branches q^4, q^4+q^2+1, and "
              "proper-divisor each end in a recorded contradiction",
       parameters="q in {7, 13, 19, 25, 31}")
def _sp_n6(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13, 19, 25, 31)):
        q2, q4 = q * q, q**4
        n2 = q4 + q2 + 1
        n_g = q4 * n2
        sp6 = q**9 * (q2 - 1) * (q4 - 1) * (q**6 - 1)
        cent = (q * (q2 - 1)) * (q4 * (q2 - 1) * (q4 - 1))
        expect("centralizer-index-identity", sp6 % cent == 0 and sp6 // cent == n_g)
        expect("catalog-class", _class_size(group_spec("PSp", n=6, q=q), "psp-central") == n_g)
        r_floor = q2 * (q2 + 1) // 2
        expect("catalog-floor", r_floor == _class_size(group_spec("PSp", n=4, q=q), "psp4"))
        expect("ratio-cap", n_g < r_floor * 2 * q2 * (q2 + 1))
        expect("q4-not-quadratic", quadratic_ratio_root(q4) is None)
        expect("q4-proper-power-excluded", is_prime_power(q4)[1] > 1 and q4 != 343)
        expect("middle-root", quadratic_ratio_root(n2) == q2 + 1)
        expect("middle-fixed-count", (q2 + 1) ** 2 + (q2 + 1) + 1 == q4 + 3 * q2 + 3)
        expect("middle-p-part-gap", (q4 + 3 * q2 + 3) % q4 != 0 and gcd(n2, q) == 1)
        expect("divisor-third", n2 % 3 == 0)
        third = n2 // 3
        expect("small-ratio-v-gap", third * fixed_count_bound(third) < n_g)


# --- orthogonal groups -----------------------------------------------------

@_case(id="OO-CONTRA", section="orthogonal/odd-dimension",
       anchor="the ratio stays at most q(q+1), so v falls below both "
              "half-spin indices q^m(q^m+-1)/2",
       parameters="n in {7, 9, 11, 13, 15}, q in {7, 13}, all sign pairs")
def _oo_contra(rec: Record, _bound: int | None) -> None:
    for (n, q), expect in rec.branches(product((7, 9, 11, 13, 15), (7, 13))):
        qm = q ** ((n - 1) // 2)
        spec = group_spec("POmega", n=n, q=q, eps="o")
        expect("catalog-plus", _class_size(spec, "omega-odd-plus") == qm * (qm + 1) // 2)
        expect("catalog-minus", _class_size(spec, "omega-odd-minus") == qm * (qm - 1) // 2)
        v_cap = 2 * q * q * (q + 1) ** 2
        expect("v-below-both-indices", v_cap < qm * (qm - 1) // 2)
        for eta, zeta in product((1, -1), (1, -1)):
            num = q * (q ** (n - 1) - 1)
            den = (q ** ((n - 3) // 2) + eta * zeta) * (q ** ((n - 1) // 2) - eta)
            expect(f"ratio-cap-{eta}-{zeta}", 0 < den and num <= q * (q + 1) * den)


# --- exceptional groups ----------------------------------------------------

_E6_SCALE = 32768
_E6_NUM_PLUS = (32768, 16384, 12288, 10240, 25344, 16256, 13536, 11984, 39587)
_E6_NUM_MINUS = _E6_NUM_PLUS[:4] + (-_E6_NUM_PLUS[4],) + _E6_NUM_PLUS[5:]  # quartic negated


def _e6_triple(q: int) -> int:
    return (q**8 + q**4 + 1) * (q**6 + q**3 + 1) * (q * q + q + 1)


def _e6_scaled(coeffs: tuple[int, ...], q: int) -> int:
    return sum(c * q ** (8 - i) for i, c in enumerate(coeffs))


@_case(id="E6-SANDWICH", section="exceptional/e6-sandwich",
       anchor="a scaled degree-8 polynomial sandwiches u^2-u+1 against "
              "(q^8+q^4+1)(q^6+q^3+1)(q^2+q+1) for q >= 47; below 47 only "
              "q = 2 is representable, and its v does not divide either "
              "E6(2) order",
       parameters="prime powers 2 <= q <= 1024, scale 32768, both readings "
                  "of the ambiguous quartic coefficient", default_bound=1024, bound_kind="q")
def _e6_sandwich(rec: Record, q_max: int) -> None:
    s = _E6_SCALE
    minus_reading_failures = 0
    upper_count = lower_count = 0
    small_nonrepresentable = []
    for q, _ in _prime_powers(q_max):
        target = s * s * _e6_triple(q)
        u_scaled = _e6_scaled(_E6_NUM_PLUS, q)
        u1 = u_scaled - 1
        lower_count += 1
        if not u1 * u1 - s * u1 + s * s < target:
            rec.fail("lower-failure", q)
        if q >= 47:
            upper_count += 1
            if not u_scaled * u_scaled - s * u_scaled + s * s > target:
                rec.fail("upper-failure", q)
            alt = _e6_scaled(_E6_NUM_MINUS, q)
            if not alt * alt - s * alt + s * s > target:
                minus_reading_failures += 1
        else:
            root = quadratic_ratio_root(_e6_triple(q))
            if q == 2:
                if root is None:
                    rec.fail("expected-representable-missing", q)
                else:
                    rec.note("q2-representable", root, _e6_triple(2))
                    # The representation is harmless: the plane it would
                    # define has v = 139503 * 140251, and 1009 divides
                    # neither E6(2) order, so no transitive action exists.
                    v = _e6_triple(2) * (root * root + root + 1)
                    admits = [eps for eps in "+-"
                              if order(group_spec("E6", q=2, eps=eps)) % v == 0]
                    if admits:
                        rec.fail("q2-order-admits-v", admits)
                    else:
                        rec.note("q2-order-excludes-v", v)
            elif root is not None:
                rec.fail("unexpected-representable", q, root)
            else:
                small_nonrepresentable.append(q)
    rec.note("upper-held", upper_count, "lower-held", lower_count)
    rec.note("small-nonrepresentable", len(small_nonrepresentable))
    rec.note("minus-reading-upper-failures", minus_reading_failures, "of", upper_count)


@_case(id="E6-MINUS", section="exceptional/e6-minus",
       anchor="the minus-form trichotomy is empty: small spin ratio, "
              "multipliers {1, 7, 13}, and a window strictly between the "
              "7th and 13th multiples of the subgroup index",
       parameters="q in {7, 13}")
def _e6_minus(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13)):
        q4, q8, q12, q16 = q**4, q**8, q**12, q**16
        lm = q16 * (q * q - q + 1) * (q**6 - q**3 + 1) * (q8 + q4 + 1)
        spec = group_spec("E6", q=q, eps="-")
        expect("catalog-match", _class_size(spec, "e6") == lm)
        n_g1 = q**20 * (q4 + 1) * (q * q + 1) * (q**6 - q**3 + 1) * (q8 + q4 + 1)
        r_num = q12 * (q4 + q**3 + q * q + q + 1) * (q * q - q + 1) * (q4 + 1) * (q * q + 1)
        expect("floor-integral", r_num % 4 == 0)
        r_floor = r_num // 4
        expect("spin-ratio-cap", lm < r_floor * 4 * q8)
        expect("spin-v-gap", 32 * q16 < lm)
        cap = 4 * q16 + 4 * q12 + 4 * q8
        expect("other-class-ratio-cap", n_g1 <= r_floor * cap)
        d_top = fixed_count_bound(cap)
        expect("d-top", d_top == 4 * q16 + 4 * q12 + 8 * q8 + 2 * q4 + 2)
        expect("v-below-19", cap * d_top < 19 * lm)
        expect("three-part", lm % 3 == 0 and lm % 9 != 0)
        mults = [a for a in range(1, 19, 2) if admissible_index(a) and a % 3 != 0]
        expect("multipliers", mults == [1, 7, 13])
        expect("unit-multiplier-cofactor", lm % q16 == 0 and lm // q16 < 8 * q16)
        n_prime = (q * q - q + 1) * (q**6 - q**3 + 1) * (q8 + q4 + 1)
        expect("p-free-window", 2 * q16 > fixed_count_bound(n_prime))
        expect("q16-not-quadratic", quadratic_ratio_root(q16) is None)
        expect("q16-proper-power-excluded", is_prime_power(q16)[1] > 1 and q16 != 343)
        window_top = 3 * q16 * fixed_count_bound(3 * q16)
        expect("window-above-7", 7 * lm < 9 * q**32)
        expect("window-below-13", window_top < 13 * lm)
        expect("no-mid-multiplier", not any(admissible_index(a) for a in (9, 11)))


@_case(id="3D4-TRICHOT", section="exceptional/triality-d4",
       anchor="ratio below 7q^8 splits into q^8, 3q^8, and p-free "
              "branches, each contradicted",
       parameters="q in {7, 13}")
def _threed4_trichot(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13)):
        q4, q8 = q**4, q**8
        n4 = q8 + q4 + 1
        n_g = q8 * n4
        expect("catalog-match", _class_size(group_spec("3D4", q=q), "threeD4") == n_g)
        r_num = q4 * (q**3 - 1) * (q - 1)
        expect("floor-integral", r_num % 4 == 0)
        r_floor = 1 + r_num // 4
        expect("ratio-cap", n_g < r_floor * 7 * q8)
        expect("p-free-window", fixed_count_bound(n4) < 3 * q8)
        expect("q8-not-quadratic", quadratic_ratio_root(q8) is None)
        expect("q8-proper-power-excluded", is_prime_power(q8)[1] > 1 and q8 != 343)
        expect("divisor-third", n4 % 3 == 0)
        third = n4 // 3
        window_top = fixed_count_bound(3 * q8)
        expect("seven-below-window", 7 * third < 3 * q8)
        expect("thirteen-above-window", 13 * third > window_top)
        expect("no-mid-multiplier", not any(admissible_index(a) for a in (9, 11)))


@_case(id="G2-CASES", section="exceptional/g2",
       anchor="the multiplier-7 branch, the coprime-to-p branch, and the "
              "small-v branch each fail on exact arithmetic",
       parameters="q in {7, 13, 19}")
def _g2_cases(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13, 19)):
        q2, q4 = q * q, q**4
        n2 = q4 + q2 + 1
        n_g = q4 * n2
        expect("catalog-match", _class_size(group_spec("G2", q=q), "g2") == n_g)
        expect("three-part", n_g % 3 == 0 and n_g % 9 != 0)
        mults = [a for a in range(3, 19, 2) if admissible_index(a) and a % 3 != 0]
        expect("multipliers", mults == [7, 13])
        expect("ratio-cap", 4 * q2 * n2 < 7 * q4 * (q - 1) ** 2)
        expect("q4-not-quadratic", quadratic_ratio_root(q4) is None)
        expect("q4-proper-power-excluded", is_prime_power(q4)[1] > 1 and q4 != 343)
        window_top = 3 * q4 * fixed_count_bound(3 * q4)
        expect("multiplier-below-12", window_top < 12 * q4 * n2)
        expect("divisor-third", n2 % 3 == 0)
        expect("seven-fixed-count-small", 7 * n2 < 9 * q4)
        expect("middle-root", quadratic_ratio_root(n2) == q2 + 1)
        d_mid = q4 + 3 * q2 + 3
        expect("middle-fixed-count", (q2 + 1) ** 2 + (q2 + 1) + 1 == d_mid)
        expect("middle-p-part-gap", (n2 * d_mid) % q == 3 and gcd(n2, q) == 1)
        third = n2 // 3
        expect("small-ratio-v-gap", third * fixed_count_bound(third) < n_g)


@_case(id="F4-CENT", section="exceptional/f4",
       anchor="every involution centralizer index in the 9-dimensional "
              "orthogonal group is at least q^4(q^4-1)/2, which closes "
              "the window below the 7th multiple",
       parameters="q in {7, 13}")
def _f4_cent(rec: Record, _bound: int | None) -> None:
    for q, expect in rec.branches((7, 13)):
        q4, q8 = q**4, q**8
        n_g = q8 * (q8 + q4 + 1)
        expect("catalog-match", _class_size(group_spec("F4", q=q), "f4") == n_g)
        spec9 = group_spec("POmega", n=9, q=q, eps="o")
        spin = 2 * order(spec9)
        expect("centralizer-index-identity", order(group_spec("F4", q=q)) == n_g * spin)
        floor = q4 * (q4 - 1) // 2
        expect("table-minus", _class_size(spec9, "omega-odd-minus") == floor)
        expect("table-plus", _class_size(spec9, "omega-odd-plus") == q4 * (q4 + 1) // 2 >= floor)
        expect("unit-multiplier-cofactor", n_g // q8 < 8 * q8 and q8 != 343)
        expect("three-part", n_g % 3 == 0 and n_g % 9 != 0)
        expect("five-inadmissible", not admissible_index(5))
        ratio_cap = 2 * q4 * (q4 + 3)
        expect("ratio-cap", n_g <= floor * ratio_cap)
        v_top = ratio_cap * fixed_count_bound(ratio_cap)
        expect("v-below-7", v_top < 7 * n_g)


@_case(id="E-CHAR2-PARAB", section="exceptional/char-2-parabolics",
       anchor="each even-characteristic parabolic product is divisible by "
              "9 or carries a factor that is 2 mod 3",
       parameters="q = 2^a, 1 <= a <= 10", default_bound=10, bound_kind="a")
def _e_char2_parab(rec: Record, a_max: int) -> None:
    nine_count = bad_piece_count = 0
    for a, expect in rec.branches(range(1, a_max + 1)):
        q = 2**a
        expect("q2-residue", (q * q + 1) % 3 == 2)
        expect("q4-residue", (q**4 + 1) % 3 == 2)
        products = [
            ("triality-g2", (q**4 + q * q + 1, q + 1)),
            ("odd-pair", (q**5 + 1, q**9 + 1)),
            ("even-pair", (q**8 + q**4 + 1, q**12 + q**6 + 1)),
            ("mixed-pair", (q**5 + 1, q**8 + q**4 + 1)),
        ]
        if a % 2 == 0:
            products.append(("triple", (q**6 + q**3 + 1, q**8 + q**4 + 1, q * q + q + 1)))
        for name, factors in products:
            value = prod(factors)
            if value % 9 == 0:
                nine_count += 1
            elif any(f % 3 == 2 for f in factors):
                bad_piece_count += 1
            else:
                expect(f"{name}-unresolved", False)
            if a <= 3:
                expect(f"{name}-inadmissible", not admissible_index(value))
    rec.note("nine-divisible", nine_count, "bad-piece", bad_piece_count)


# --- number theory ---------------------------------------------------------

@_case(id="LJUNGGREN-SCAN", section="number-theory/prime-power-values",
       anchor="u^2+u+1 is a proper prime power only at u = 18, value 343",
       parameters="1 <= u <= 10^6, cross-checked against the classifier "
                  "for u <= 2000", default_bound=U_CAP, bound_kind="u")
def _ljunggren_scan(rec: Record, u_max: int) -> None:
    v_max = u_max * u_max + u_max + 1
    # u**2 < u**2 + u + 1 < (u + 1)**2, so the value is never a square: only
    # p**k with odd k >= 3 can hit, and then p**3 <= v_max.  This is the
    # first step of Nagell (1920) and Ljunggren (1943) on (x**n - 1)/(x - 1)
    # = y**q.  u**2 + u + 1 = w**2 - w + 1 with w = u + 1, so
    # quadratic_ratio_root picks out the values hit.
    hits = {}
    for p in small_primes(nth_root(v_max, 3)[0]):
        value = p**3
        while value <= v_max:
            w = quadratic_ratio_root(value)
            if w is not None:
                hits[w - 1] = value
            value *= p * p
    seven_cubed_at = None
    for u, value in sorted(hits.items()):
        if value == 343:
            seven_cubed_at = u
        else:
            rec.fail("unexpected-proper-power", u, value)
    if u_max >= 18 and seven_cubed_at != 18:
        rec.fail("missing-exceptional-value", seven_cubed_at)

    cross = min(u_max, 2000)
    for u, plus in zip(range(1, cross + 1), phi3_factorizations(1, cross)):
        cls = ljunggren_classify(plus)
        hit = hits.get(u)
        if (cls is LjunggrenClass.SEVEN_CUBED) != (hit == 343):
            rec.fail("oracle-mismatch", u, cls.value)
        if (cls is LjunggrenClass.OTHER_PRIME_POWER) != (hit not in (None, 343)):
            rec.fail("oracle-mismatch", u, cls.value)
    if rec.ok:
        rec.note("unique-proper-power", 18, 343)
        rec.note("scanned", 1, u_max, "cross-checked", cross)


# --- sporadic groups -------------------------------------------------------

@_case(id="SPORADIC", section="sporadic/odd-index-table",
       anchor="every recorded sporadic odd subgroup index is divisible by "
              "9 or by a prime that is 2 mod 3",
       parameters="12 embedded rows")
def _sporadic(rec: Record, _bound: int | None) -> None:
    for name, subgroup, index in SPORADIC_ODD_INDEX:
        problems = []
        if index % 2 == 0:
            problems.append("even-index")
        if SPORADIC_ORDERS[name] % index != 0:
            problems.append("index-does-not-divide")
        if admissible_index(index):
            problems.append("unexpectedly-admissible")
        if problems:
            rec.fail("failed", name, *problems)
            continue
        if index % 9 == 0:
            rec.note(name, subgroup, index, "nine-divides")
        else:
            bad = min(p for p, _ in factorize(index).factors if p % 3 == 2)
            rec.note(name, subgroup, index, "bad-prime", bad)


REGISTRY: tuple[CaseCheck, ...] = tuple(_REGISTERED)
