"""Ledger mechanics: replay, truncation semantics, determinism,
and reporting."""

import dataclasses
import hashlib
import json
import random
import sys
import time
from itertools import permutations
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planesieve.cases
import planesieve.exactmath
from planesieve import ledger
from planesieve.cases import REGISTRY
from planesieve.exactmath import cyclotomic_pieces
from planesieve.ledger import CaseCheck, Verdict
from planesieve.plane import quadratic_ratio_root

from _oracles import a7_embeddings, cycle_type, phi3_proper_power_hits


EXPECTED_IDS = [
    "FRAME-5SQRT", "ALT-BOUND", "ALT-RATIO", "ALT-A7", "PSL-C2C5",
    "PSL-DIVIS", "PSL-P2-EXC", "PSL-73", "PSL2-PARAB", "PSL2-Q13",
    "PSL2-PGL", "PSL2-SUBFIELD", "PSL3-Q13", "PSL3-TYPE67", "U-PARAB-MOD",
    "U-N5-B1", "U-N6-B2", "SP-PARAB", "SP-N6", "OO-CONTRA", "E6-SANDWICH",
    "E6-MINUS", "3D4-TRICHOT", "G2-CASES", "F4-CENT", "E-CHAR2-PARAB",
    "LJUNGGREN-SCAN", "SPORADIC",
]


def test_registry_ids_and_order():
    assert [c.id for c in REGISTRY] == EXPECTED_IDS
    assert len(REGISTRY) >= 26


def test_registry_metadata_complete():
    for case in REGISTRY:
        assert case.section and case.anchor and case.parameters
        if case.bound_kind is None:
            assert case.default_bound is None
        else:
            assert case.bound_kind in ("u", "n", "q", "a")
            assert case.default_bound >= 1


def test_replay_is_deterministic():
    first = ledger.replay("ALT-A7")
    second = ledger.replay("ALT-A7")
    assert first.verdict == second.verdict
    assert first.witnesses == second.witnesses


def test_truncated_bound_is_inconclusive():
    res = ledger.replay("ALT-BOUND", bound=20)
    assert res.verdict is Verdict.INCONCLUSIVE
    assert res.bound == 20


def test_bound_equal_to_default_is_full():
    res = ledger.replay("ALT-BOUND", bound=200)
    assert res.verdict is Verdict.ELIMINATED
    assert res.bound is None


@pytest.mark.parametrize("bound,verdict,scanned", [
    (18, Verdict.INCONCLUSIVE, ("scanned", 1, 18, "cross-checked", 18)),
    (2000, Verdict.INCONCLUSIVE, ("scanned", 1, 2000, "cross-checked", 2000)),
    (None, Verdict.ELIMINATED, ("scanned", 1, 1000000, "cross-checked", 2000)),
    # below u = 18 the exceptional witness is still emitted, on purpose
    (1, Verdict.INCONCLUSIVE, ("scanned", 1, 1, "cross-checked", 1)),
    (17, Verdict.INCONCLUSIVE, ("scanned", 1, 17, "cross-checked", 17)),
])
def test_ljunggren_scan_witnesses(bound, verdict, scanned):
    res = ledger.replay("LJUNGGREN-SCAN", bound=bound)
    assert res.verdict is verdict
    assert res.witnesses == (("unique-proper-power", 18, 343), scanned)


@pytest.mark.parametrize("bound", [1, 17, 18, 100, 12345, 10**6])
def test_ljunggren_scan_walk_matches_oracle(monkeypatch, bound):
    # the walk is the only caller of quadratic_ratio_root in this case, so
    # its hits can be read off the calls: they must be the oracle's, which
    # walks every prime power, squares and all
    hits = {}

    def spy(t):
        w = quadratic_ratio_root(t)
        if w is not None:
            hits[w - 1] = t
        return w

    monkeypatch.setattr(planesieve.cases, "quadratic_ratio_root", spy)
    res = ledger.replay("LJUNGGREN-SCAN", bound=bound)
    assert hits == phi3_proper_power_hits(bound) == ({18: 343} if bound >= 18 else {})
    assert res.witnesses == (("unique-proper-power", 18, 343),
                             ("scanned", 1, bound, "cross-checked", min(bound, 2000)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12))
def test_phi3_value_is_never_a_square(u):
    # u**2 < u**2 + u + 1 < (u + 1)**2: why the walk skips even exponents
    assert isqrt(u * u + u + 1) == u


def test_ljunggren_scan_sieves_nothing_fresh(monkeypatch):
    def forbidden(limit):
        raise AssertionError(f"fresh sieve to {limit}")

    monkeypatch.setattr(planesieve.exactmath, "_sieve", forbidden)
    assert ledger.replay("LJUNGGREN-SCAN").verdict is Verdict.ELIMINATED


def test_bound_only_tightens():
    res = ledger.replay("ALT-BOUND", bound=10**9)
    assert res.verdict is Verdict.ELIMINATED
    assert res.bound is None


def test_bound_rejected_for_fixed_domain():
    with pytest.raises(ValueError):
        ledger.replay("SPORADIC", bound=5)


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        ledger.replay("ALT-BOUND", bound=0)


def test_unknown_case_id():
    with pytest.raises(ValueError, match="unknown case id 'NO-SUCH-CASE'"):
        ledger.replay("NO-SUCH-CASE")


def _toy_registry(calls):
    def check_scan(rec, bound):
        calls.append(bound)
        if bound < 5:
            rec.fail("too-short", bound)
        rec.note("scanned", bound)

    def check_bad(rec, _bound):
        rec.fail("broken", 1)
        rec.fail("broken", 2)

    return (
        CaseCheck(id="TOY-SCAN", section="toy/scan", anchor="toy scan claim",
                  parameters="n <= 10", check=check_scan,
                  default_bound=10, bound_kind="n"),
        CaseCheck(id="TOY-BAD", section="toy/bad", anchor="toy failing claim",
                  parameters="fixed", check=check_bad),
    )


def test_toy_registry_bound_plumbing():
    calls = []
    reg = _toy_registry(calls)
    res = ledger.replay("TOY-SCAN", bound=7, registry=reg)
    assert calls == [7]
    assert res.verdict is Verdict.INCONCLUSIVE and res.bound == 7

    res = ledger.replay("TOY-SCAN", registry=reg)
    assert calls == [7, 10]
    assert res.verdict is Verdict.ELIMINATED


def test_toy_registry_violation():
    reg = _toy_registry([])
    res = ledger.replay("TOY-BAD", registry=reg)
    assert res.verdict is Verdict.VIOLATED
    assert res.witnesses == (("broken", 1), ("broken", 2))


def test_report_record_reads_the_replayed_case():
    # the report names the case that ran, not the default case of its id
    record = ledger.report_record(ledger.replay("TOY-BAD", registry=_toy_registry([])))
    assert (record["id"], record["section"], record["anchor"]) \
        == ("TOY-BAD", "toy/bad", "toy failing claim")
    altered = tuple(dataclasses.replace(case, section="altered", anchor="altered claim")
                    for case in REGISTRY)
    record = ledger.report_record(ledger.replay("PSL2-Q13", registry=altered))
    assert (record["id"], record["section"], record["anchor"]) \
        == ("PSL2-Q13", "altered", "altered claim")


def test_failed_scan_beats_truncation():
    def check(rec, bound):
        rec.fail("bad", bound)

    reg = (CaseCheck(id="TOY-X", section="s", anchor="a", parameters="p",
                     check=check, default_bound=10, bound_kind="u"),)
    res = ledger.replay("TOY-X", bound=3, registry=reg)
    assert res.verdict is Verdict.VIOLATED


def test_record_branches_confirm_only_clean_branches():
    def check(rec, _bound):
        for tag, expect in rec.branches(("b1", "b2")):
            expect("holds", True)
            expect("second-fails", tag != "b2")

    reg = (CaseCheck(id="TOY-BRANCH", section="s", anchor="a", parameters="p",
                     check=check),)
    res = ledger.replay("TOY-BRANCH", registry=reg)
    assert res.verdict is Verdict.VIOLATED
    assert res.witnesses == (("b1", "confirmed"), ("failed", "b2", "second-fails"))


def test_verify_all_order_and_verdicts():
    results = list(ledger.verify_all())
    assert [r.id for r in results] == EXPECTED_IDS
    assert all(r.verdict is Verdict.ELIMINATED for r in results)


def test_verify_all_parallel_matches_serial():
    serial = list(ledger.verify_all(jobs=1))
    parallel = list(ledger.verify_all(jobs=4))
    assert len(serial) == len(parallel) == len(EXPECTED_IDS)
    for a, b in zip(serial, parallel):
        assert (a.id, a.verdict, a.witnesses, a.bound) \
            == (b.id, b.verdict, b.witnesses, b.bound)


def test_verify_all_bound_routing():
    results = ledger.verify_all(u_max=10)
    by_id = {r.id: r for r in results}
    assert by_id["LJUNGGREN-SCAN"].verdict is Verdict.INCONCLUSIVE
    assert by_id["LJUNGGREN-SCAN"].bound == 10
    assert by_id["FRAME-5SQRT"].verdict is Verdict.INCONCLUSIVE
    assert by_id["ALT-BOUND"].verdict is Verdict.ELIMINATED  # n-kind untouched
    assert by_id["E6-SANDWICH"].verdict is Verdict.ELIMINATED  # q-kind untouched

    results = ledger.verify_all(q_max=100)
    by_id = {r.id: r for r in results}
    assert by_id["E6-SANDWICH"].verdict is Verdict.INCONCLUSIVE
    assert by_id["PSL2-SUBFIELD"].verdict is Verdict.INCONCLUSIVE
    assert by_id["LJUNGGREN-SCAN"].verdict is Verdict.ELIMINATED


def test_verify_all_runs_each_case_object_it_iterates(monkeypatch):
    # two cases under one id: each runs its own check, and no case is
    # looked up again by id
    ran = []
    reg = tuple(CaseCheck(id="TOY-DUP", section="s", anchor="a", parameters="p",
                          check=lambda rec, _bound, tag=tag: ran.append(tag))
                for tag in (1, 2))
    monkeypatch.setattr(ledger, "get_case", None)
    results = list(ledger.verify_all(registry=reg))
    assert ran == [1, 2]
    assert all(res.case is case for res, case in zip(results, reg, strict=True))


def _counting_registry(ran, n):
    return tuple(CaseCheck(id=f"TOY-{tag}", section="s", anchor="a", parameters="p",
                           check=lambda rec, _bound, tag=tag: ran.append(tag))
                 for tag in range(n))


def test_verify_all_runs_a_case_only_when_its_result_is_asked_for():
    ran = []
    results = ledger.verify_all(registry=_counting_registry(ran, 3))
    assert ran == []
    assert next(results).id == "TOY-0"
    assert ran == [0]
    assert [r.id for r in results] == ["TOY-1", "TOY-2"]
    assert ran == [0, 1, 2]


def test_verify_all_parallel_results_come_in_registry_order():
    # the first case outlasts the rest, which the second worker runs meanwhile
    ran = []
    slow = CaseCheck(id="TOY-SLOW", section="s", anchor="a", parameters="p",
                     check=lambda rec, _bound: (time.sleep(0.05), ran.append("slow")))
    reg = (slow, *_counting_registry(ran, 5))
    results = list(ledger.verify_all(jobs=2, registry=reg))
    assert [r.case for r in results] == list(reg)
    assert len(ran) == len(reg)


def test_verify_all_rejects_bad_jobs():
    with pytest.raises(ValueError):
        ledger.verify_all(jobs=0)


def test_report_record_shape():
    res = ledger.replay("PSL2-Q13")
    record = ledger.report_record(res)
    json.dumps(record)
    assert record["id"] == "PSL2-Q13"
    assert record["verdict"] == "eliminated"
    assert record["section"] == "rank-one/dihedral-survivor"
    assert record["witness_count"] == len(res.witnesses)
    assert len(record["witnesses"]) <= 10
    assert "bound" not in record


def test_report_record_includes_bound_when_truncated():
    res = ledger.replay("ALT-BOUND", bound=30)
    record = ledger.report_record(res)
    assert record["bound"] == 30
    assert record["verdict"] == "inconclusive"


def test_unitary_screen_witnesses():
    res = ledger.replay("U-PARAB-MOD")
    assert res.verdict is Verdict.ELIMINATED
    named = {w[0]: w[1:] for w in res.witnesses if isinstance(w[0], str)}
    assert named["passes"] == ([(1, 14), (1, 38)],)
    assert named["undecided"] == ([(7, 14)],)
    for _, pairs in (("passes", named["passes"]), ("undecided", named["undecided"])):
        for _, n in pairs[0]:
            assert n % 12 == 2


@pytest.mark.parametrize("bound,verdict,passes,failures", [
    (14, Verdict.INCONCLUSIVE, [(1, 14)], 34),
    (20, Verdict.INCONCLUSIVE, [(1, 14)], 52),
    (26, Verdict.INCONCLUSIVE, [(1, 14)], 70),
    (None, Verdict.ELIMINATED, [(1, 14), (1, 38)], 141),
])
def test_u_parab_mod_witnesses(bound, verdict, passes, failures):
    res = ledger.replay("U-PARAB-MOD", bound=bound)
    assert res.verdict is verdict
    assert res.witnesses == (("passes", passes), ("undecided", [(7, 14)]),
                             ("failures", failures), ("empty-columns", 3, 9))


def test_u_parab_mod_factors_each_exponent_once(monkeypatch):
    # the cyclotomic pieces come from factoring each exponent once (132 at
    # the default bound).  plane's factorize, behind admissible_index, sees
    # one call for each piece _one_mod_three_only screens at or below
    # _FACTOR_CAP and none for a piece above it, plus at most one index for
    # each n in 4..20 of the cross-check
    real = planesieve.exactmath.factorize
    calls = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("planesieve") and getattr(module, "factorize", None) is real:
            seen = calls[name] = []
            monkeypatch.setattr(module, "factorize",
                                lambda n, seen=seen: seen.append(n) or real(n))
    cases, plane_calls, screened = planesieve.cases, calls["planesieve.plane"], []
    screen = cases._one_mod_three_only

    def spy(x):
        before = len(plane_calls)
        result = screen(x)
        screened.append((x, len(plane_calls) - before))
        return result

    monkeypatch.setattr(cases, "_one_mod_three_only", spy)
    ledger.replay("U-PARAB-MOD")
    assert 0 < len(calls.pop("planesieve.exactmath")) <= 132
    assert [made for _, made in screened] == [int(x <= cases._FACTOR_CAP) for x, _ in screened]
    below = sum(made for _, made in screened)
    assert 0 < below < len(screened)
    assert len(calls.pop("planesieve.plane")) - below <= 20 - 3
    assert not any(calls.values()), calls


def test_u_parab_mod_splits_each_exponent_once_per_replay(monkeypatch):
    # one cyclotomic_pieces call per distinct exponent k of a 2^k - 1: a*m
    # for even m and 2*a*m for odd m, a in (1, 3, 5, 7, 9), 2 <= m <= bound.
    # No table outlives a replay, so a second replay makes as many calls
    real = planesieve.cases.cyclotomic_pieces
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(planesieve.cases, "cyclotomic_pieces", spy)
    for bound, exponents in ((None, 132), (14, 37)):
        counts = []
        for _ in range(2):
            calls.clear()
            ledger.replay("U-PARAB-MOD", bound=bound)
            assert all(kwargs == {} for _, kwargs in calls)
            assert len({args for args, _ in calls}) == len(calls)
            counts.append(len(calls))
        assert counts == [exponents, exponents]


def test_doubles_matches_the_cycle_type_oracle():
    # the guards in front of the moved-point count and the square drop no
    # double transposition: one permutation at a time, _doubles counts
    # exactly those of cycle type 2+2+1+1+1
    double = (2, 2, 1, 1, 1)
    for p in permutations(range(7)):
        assert planesieve.cases._doubles([p]) == (cycle_type(p) == double), p
    counts = {name: (planesieve.cases._doubles(perms),
                     sum(cycle_type(p) == double for p in perms))
              for name, perms in a7_embeddings().items()}
    assert counts == {"S5": (25, 25), "A6": (45, 45), "A5": (15, 15)}


def _one_mod_three_by_definition(n, sympy):
    # every prime divisor of n other than 3 is 1 mod 3, read off sympy's
    # factors; None exactly where the cofactor left by the primes up to 10**4
    # is above 10**18, = 1 mod 3 and not a prime power, so the answer is open
    small = [p for p in sympy.primerange(2, 10_001) if n % p == 0]
    rest = n // prod(p ** sympy.multiplicity(p, n) for p in small)
    if any(p % 3 == 2 for p in small) or rest % 3 == 2:
        return False  # a value = 2 mod 3 has a prime divisor = 2 mod 3
    if rest <= 10**18 or sympy.isprime(rest):
        return all(p % 3 == 1 for p in sympy.primefactors(rest))
    root = (sympy.perfect_power(rest) or (rest, 1))[0]
    return root % 3 == 1 if sympy.isprime(root) else None


def test_one_mod_three_only_matches_its_definition():
    sympy = pytest.importorskip("sympy")
    # every cyclotomic piece U-PARAB-MOD screens for n <= 50
    pieces = set()
    for a in (1, 3, 5, 7, 9):
        for m in range(2, 51):
            pieces.update(cyclotomic_pieces(2, a * m, plus=m % 2 == 1).values())
    rng = random.Random(26)
    pool = list(sympy.primerange(2, 200)) + [sympy.nextprime(rng.randrange(10**4, 10**7))
                                             for _ in range(20)]
    drawn = {3 ** rng.randrange(3) * prod(rng.sample(pool, rng.randrange(5))) for _ in range(300)}
    answers = []
    for n in sorted(pieces) + sorted(drawn) + [1, 2, 3, 9, 3 * 7, 3 * 10_007, 7 * 10_009**2]:
        answers.append(planesieve.cases._one_mod_three_only(n))
        assert answers[-1] == _one_mod_three_by_definition(n, sympy), n
    assert {True, False, None} <= set(answers)


def test_one_mod_three_only_leaves_a_large_cofactor_open():
    # 10000000033 * 10000000069, both primes = 1 mod 3, is above 10**18 and
    # not a prime power: true by definition, but left undecided
    sympy = pytest.importorskip("sympy")
    p, q = 10_000_000_033, 10_000_000_069
    assert sympy.isprime(p) and sympy.isprime(q) and p % 3 == q % 3 == 1
    assert p * q > planesieve.cases._FACTOR_CAP
    assert planesieve.cases._one_mod_three_only(p * q) is None
    assert planesieve.cases._one_mod_three_only(7 * p * q) is None
    assert planesieve.cases._one_mod_three_only(5 * p * q) is False
    # Phi_182(2), U-PARAB-MOD's undecided (7, 14), has no prime factor up
    # to 10**4 and is past the cap, so it stays open although a prime
    # factor = 2 mod 3 would decide it false: the cap shapes that witness
    phi = int(sympy.cyclotomic_poly(182, 2))
    assert phi > planesieve.cases._FACTOR_CAP
    assert planesieve.cases._one_mod_three_only(phi) is None
    assert any(r % 3 == 2 for r in sympy.primefactors(phi))


def test_u_parab_mod_every_bound_golden_digest():
    # byte-for-byte pin of the verdict and witnesses at every bound
    lines = []
    for b in range(1, 51):
        res = ledger.replay("U-PARAB-MOD", bound=b)
        lines.append(f"{b} {res.verdict.value} {res.witnesses!r}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "da89001baf15ccfb31029c1eb1cac19f387a21f3a20f5ff938f84e898e0039de")


def test_frame_5sqrt_every_bound_golden_digest():
    # byte-for-byte pin of the verdict and witnesses at every bound up to
    # the default, where 5**u and x**2 + x + 1 are carried from u to u + 1
    lines = []
    for b in range(1, 1001):
        res = ledger.replay("FRAME-5SQRT", bound=b)
        lines.append(f"{b} {res.verdict.value} {res.witnesses!r}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "e7233aecee43e5877c9833028b3617f4a388a6c746be6a43da2e6d9d37d2a080")


@pytest.mark.parametrize("name, stub, digest", [
    ("admissible_index", lambda n: True,
     "eb23f40389b0c021b295dca774bcf39ea8ca05b6c0d30c70eb38a0342326e527"),
    ("quadratic_ratio_root", lambda t: None,
     "18fcfb897dc2a3f2cd7534edae660a9a7fbe126ab5df1abcd9c8adcbed3e5013"),
    ("fixed_count_bound", lambda n: 10**100,
     "ce8a9e28735f991881f004dd81f5e026d11affda899e739689c2ff968fca0023"),
    ("is_prime_power", lambda n: None,
     "746f85bdd4b81b8d5a51c12f7aa409b508cffe48082233ba98ae649662ef9b0f"),
    ("geom_sum", lambda q, k, step=1: 1,
     "a82214bef205b33162e08284ad447f69c479b43eb546d4b8faa17362a151bb73"),
    ("involution_class_size", lambda template, spec: 1,
     "779febf7e361bc625dade036284aec6753b3c66791e42c378accff402af4300a"),
], ids=["admissible_index", "quadratic_ratio_root", "fixed_count_bound",
        "is_prime_power", "geom_sum", "involution_class_size"])
def test_failure_paths_golden_digest(monkeypatch, name, stub, digest):
    # byte-for-byte pin of every case's failure bookkeeping: with one
    # primitive stubbed to a wrong answer, the verdicts and witnesses of
    # all 28 cases (an exception recorded by its type name)
    monkeypatch.setattr(planesieve.cases, name, stub)
    lines = []
    for case in REGISTRY:
        try:
            res = ledger.replay(case.id)
        except Exception as exc:
            lines.append(f"{case.id} {type(exc).__name__}\n")
        else:
            lines.append(f"{case.id} {res.verdict.value} {res.witnesses!r}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest
