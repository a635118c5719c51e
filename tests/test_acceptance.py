"""Release gate: one test per headline criterion, in order.

Criteria 5 and 8 are kept in their strongest stated form, and the
computation refutes one clause of each at a specific point (q = 2 for
the exceptional-group window, n = 26 for the unitary parabolic screen).
Those two tests fail by design; each has a green companion directly
after it pinning the form that does hold.  The README records both
deviations.
"""

import json
import time
from math import gcd

from planesieve import ledger
from planesieve.cli import main as cli_main
from planesieve.exactmath import (factorize, gaussian_binomial, is_prime_power,
                                  small_primes)
from planesieve.groups import group_spec, order, parabolic_index
from planesieve.ledger import Verdict
from planesieve.plane import (admissible_index, involution_counts,
                              quadratic_ratio_root)

from _oracles import (a7_double_transposition_counts, brute_psl2_order,
                      brute_subspace_count)


def test_criterion_1_every_case_eliminated_within_budget():
    start = time.monotonic()
    results = list(ledger.verify_all())
    elapsed = time.monotonic() - start
    assert len(results) >= 26
    stuck = [(r.id, r.verdict.value) for r in results
             if r.verdict is not Verdict.ELIMINATED]
    assert stuck == []
    assert elapsed < 600.0


def test_criterion_2_square_orders_are_never_proper_prime_powers():
    res = ledger.replay("LJUNGGREN-SCAN")
    assert res.verdict is Verdict.ELIMINATED
    assert ("unique-proper-power", 18, 343) in res.witnesses
    assert ("scanned", 1, 10**6, "cross-checked", 2000) in res.witnesses
    # Independent spot check on a shorter range: the only value of
    # u^2 + u + 1 that is a proper prime power is 343, at u = 18.
    hits = [(u, u * u + u + 1) for u in range(1, 30_000)
            if (pp := is_prime_power(u * u + u + 1)) is not None and pp[1] > 1]
    assert hits == [(18, 343)]


def test_criterion_3_alternating_degree_cutoff_at_43():
    res = ledger.replay("ALT-BOUND")
    assert res.verdict is Verdict.ELIMINATED
    holds = [n for n in range(8, 201) if 2 ** (n // 2) < n**4]
    assert holds == list(range(8, 44))
    assert 2**21 < 43**4
    assert 2**22 > 44**4


def test_criterion_4_psl2_13_counting_chain():
    res = ledger.replay("PSL2-Q13")
    assert res.verdict is Verdict.ELIMINATED
    assert ("counts", 91, 7, 13, 21, 273) in res.witnesses
    counts = involution_counts(91, 7)
    assert counts is not None
    assert (counts.n_g, counts.r_g, counts.ratio, counts.d_g, counts.v) \
        == (91, 7, 13, 21, 273)


_E6_SCALE = 32768
_E6_COEFFS = (32768, 16384, 12288, 10240, 25344, 16256, 13536, 11984, 39587)


def _e6_value(q):
    return (q**8 + q**4 + 1) * (q**6 + q**3 + 1) * (q * q + q + 1)


def _e6_upper(q):
    return sum(c * q ** (8 - i) for i, c in enumerate(_E6_COEFFS))


def _prime_powers_upto(limit):
    out = []
    for p in small_primes(limit):
        value = p
        while value <= limit:
            out.append(value)
            value *= p
    return sorted(out)


def test_criterion_5_exceptional_window_sandwich_literal():
    # Known red: the q < 47 clause fails at q = 2, where the window
    # value 139503 equals 374^2 - 374 + 1.  The companion test below
    # pins the corrected statement.
    s = _E6_SCALE
    for q in _prime_powers_upto(1024):
        target = s * s * _e6_value(q)
        upper = _e6_upper(q)
        lower = upper - 1
        assert lower * lower - s * lower + s * s < target
        if q >= 47:
            assert upper * upper - s * upper + s * s > target
        else:
            root = quadratic_ratio_root(_e6_value(q))
            assert root is None, (q, root, _e6_value(q))


def test_criterion_5_companion_sandwich_with_single_small_representable():
    s = _E6_SCALE
    representable = {}
    for q in _prime_powers_upto(1024):
        target = s * s * _e6_value(q)
        upper = _e6_upper(q)
        lower = upper - 1
        assert lower * lower - s * lower + s * s < target
        if q >= 47:
            assert upper * upper - s * upper + s * s > target
        else:
            root = quadratic_ratio_root(_e6_value(q))
            if root is not None:
                representable[q] = root
    assert representable == {2: 374}
    assert 374 * 374 - 374 + 1 == _e6_value(2) == 139503
    res = ledger.replay("E6-SANDWICH")
    assert res.verdict is Verdict.ELIMINATED
    assert ("q2-representable", 374, 139503) in res.witnesses


def test_criterion_6_half_factor_primes_sit_in_one_residue_class():
    for u in range(2, 10_001):
        plus = u * u + u + 1
        minus = u * u - u + 1
        assert gcd(plus, minus) == 1
        for half in (plus, minus):
            for p, _ in factorize(half).factors:
                assert p == 3 or p % 3 == 1, (u, half, p)


def test_criterion_7_small_structure_oracles():
    assert gaussian_binomial(4, 2, 2) == brute_subspace_count(4, 2, 2) == 35
    for q, expected in ((4, 60), (5, 60), (7, 168), (9, 360)):
        assert order(group_spec("PSL", n=2, q=q)) == brute_psl2_order(q) == expected
    total, s5, a6, a5 = a7_double_transposition_counts()
    assert total == 105
    assert (s5, a6, a5) == (25, 45, 15)


def _unitary_screen_outcomes():
    res = ledger.replay("U-PARAB-MOD")
    passes = undecided = None
    for w in res.witnesses:
        if w[0] == "passes":
            passes = {tuple(pair) for pair in w[1]}
        elif w[0] == "undecided":
            undecided = {tuple(pair) for pair in w[1]}
    assert passes is not None and undecided is not None
    return res, passes, undecided


def test_criterion_8_unitary_parabolic_screen_literal():
    # Known red: the screen is one-directional.  n = 26 satisfies
    # n % 12 == 2 yet its first parabolic index is divisible by 11,
    # so it cannot pass.  The companion test below pins the inclusion
    # that does hold.
    _, passes, undecided = _unitary_screen_outcomes()
    expected = {(a, n) for a in (1, 3, 5, 7, 9)
                for n in range(3, 51) if n % 12 == 2}
    index_26 = parabolic_index(group_spec("PSU", n=26, q=2), 1)
    assert passes | undecided == expected, \
        ("counterexample", 1, 26, "index divisible by 11",
         index_26 % 11 == 0, "admissible", admissible_index(index_26))


def test_criterion_8_companion_screen_is_one_directional():
    res, passes, undecided = _unitary_screen_outcomes()
    assert res.verdict is Verdict.ELIMINATED
    assert all(n % 12 == 2 for _, n in passes | undecided)
    assert all(a not in (3, 9) for a, _ in passes | undecided)
    # Direct recomputation for the first column: the screen's decided
    # outcomes agree with factoring the index outright.
    for n in range(4, 33):
        if (1, n) in undecided:
            continue
        direct = admissible_index(parabolic_index(group_spec("PSU", n=n, q=2), 1))
        assert direct == ((1, n) in passes), n
    # The explicit refutation of the two-directional reading.
    index_26 = parabolic_index(group_spec("PSU", n=26, q=2), 1)
    assert index_26 % 11 == 0
    assert not admissible_index(index_26)


def test_criterion_9_structured_report_is_parallelism_invariant(capsys):
    def run(jobs):
        code = cli_main(["verify-all", "--format", "structured", "--jobs", jobs])
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        for record in records:
            record.pop("elapsed_ms", None)
        return code, records

    serial = run("1")
    parallel = run("4")
    repeat = run("4")
    assert serial[0] == parallel[0] == repeat[0] == 0
    assert serial[1] == parallel[1] == repeat[1]
