"""Order sieve: row structure, the counting gate, and the survived
invariant against independent recomputation."""

from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import planesieve.exactmath
import planesieve.plane
import planesieve.scan
from planesieve.catalog import classes_for, involution_class_size
from planesieve.exactmath import is_prime, nth_root
from planesieve.groups import GroupSpec, group_spec, min_proper_index, parse_group
from planesieve.plane import PlaneOrder, admissible_index, plane_order, plane_orders
from planesieve.scan import U_CAP, candidate_gate, prepare_candidate, sieve_orders

from test_cli import WHOLE_CATALOG


def test_row_u2_base_filters():
    row = sieve_orders(2, 2)[0]
    assert (row.u, row.v) == (2, 21)
    assert row.v_factors.factors == ((3, 1), (7, 1))
    assert row.filter_trace == (
        ("coprime-halves", True),
        ("admissible-value", True),
        ("ljunggren-prime", True),
        ("kantor-not-applicable", True),
    )
    assert row.survived


def test_row_u18_seven_cubed_annotation():
    row = sieve_orders(18, 18)[0]
    assert row.v == 105301
    assert ("ljunggren-seven-cubed", True) in row.filter_trace
    assert ("kantor", True) in row.filter_trace
    assert row.survived


def _gate(plane: PlaneOrder, spec: GroupSpec):
    return candidate_gate(plane, prepare_candidate(spec))


def test_candidate_gate_pass_at_u4():
    plane, cand = plane_order(4), prepare_candidate(group_spec("PSL", n=2, q=13))
    assert candidate_gate(plane, cand).outcome == "pass"
    # r = 91/13 = 7 involutions through a point, and v = 273 clears the floor
    assert cand.sizes == (91,) and plane.minus_factors.value == 13
    assert cand.floor == 14


def test_candidate_gate_non_divisor_at_u2():
    verdict = _gate(plane_order(2), group_spec("PSL", n=2, q=13))
    assert verdict.outcome == "fail"


def test_candidate_gate_floor_kills_g2_at_u3():
    plane, cand = plane_order(3), prepare_candidate(group_spec("G2", q=7))
    assert candidate_gate(plane, cand).outcome == "fail"
    # a class divides through, so only the index floor fails
    assert any(n_g % plane.minus_factors.value == 0 for n_g in cand.sizes)
    assert plane.v <= cand.floor == 19608


def test_candidate_gate_uncovered_family():
    verdict = _gate(plane_order(3), group_spec("A", n=7))
    assert verdict.outcome == "uncovered"


# The whole-catalog candidates plus the three of the stream digest.  Over
# u <= 6000 they reach every combination of the gate's tests; at u = 5330,
# u^2-u+1 divides the lcm of the two class sizes of POmega(7,73) but
# neither size, and v clears the floor, so the size test alone decides.
_GATE_SPECS = tuple(parse_group(text.split()) for text in
                    WHOLE_CATALOG.split(",") + ["PSL 2 13", "G2 7", "PSU 5 7"])
_GATE_DATA = tuple((spec, [involution_class_size(t, spec) for t in classes_for(spec)],
                    min_proper_index(spec)) for spec in _GATE_SPECS)


def _gate_matches_definition(u_min, u_max):
    """Check the gate against its definition, read from the catalog and
    groups directly rather than from the prepared Candidate; return the
    (some size divides, the lcm divides, v clears the floor) triples seen."""
    cands = [prepare_candidate(spec) for spec in _GATE_SPECS]
    seen = set()
    for plane in plane_orders(u_min, u_max):
        u = plane.u
        b, v = u * u - u + 1, u**4 + u * u + 1
        for cand, (spec, sizes, floor) in zip(cands, _GATE_DATA):
            divides = any(n % b == 0 for n in sizes)
            clears = floor is None or v > floor
            outcome = "pass" if divides and clears else "fail"
            assert candidate_gate(plane, cand).outcome == outcome, (u, spec)
            seen.add((divides, lcm(*sizes) % b == 0, clears))
    return seen


def test_candidate_gate_is_its_definition_exhaustively():
    # a size that divides b makes the lcm divisible too: six combinations
    seen = _gate_matches_definition(2, 6000)
    assert seen == {(d, m, c) for d in (True, False) for m in (True, False)
                    for c in (True, False) if m or not d}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, U_CAP), st.integers(0, 300))
@example(U_CAP - 300, 300)
def test_candidate_gate_is_its_definition_in_windows(u_min, width):
    _gate_matches_definition(u_min, min(u_min + width, U_CAP))


def test_verdicts_built_per_candidate_not_per_row(monkeypatch):
    real = planesieve.scan.GateVerdict
    built = []

    def spy(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(planesieve.scan, "GateVerdict", spy)
    specs = [group_spec("PSL", n=2, q=13), group_spec("G2", q=7), group_spec("PSU", n=5, q=7)]
    rows = sieve_orders(2, 500, specs)
    assert len(rows) == 499 and 0 < len(built) <= 3 * len(specs)


def test_gate_called_once_per_row_per_candidate(monkeypatch):
    # bench/tracer.py counts gate calls and passes by wrapping this module
    # binding, so every (row, candidate) pair must go through it
    real = planesieve.scan.candidate_gate
    outcomes = []

    def spy(plane, cand):
        verdict = real(plane, cand)
        outcomes.append(verdict.outcome)
        return verdict

    monkeypatch.setattr(planesieve.scan, "candidate_gate", spy)
    rows = sieve_orders(2, 40, [group_spec("PSL", n=2, q=13)])
    assert len(rows) == len(outcomes) == 39
    assert outcomes.count("pass") == sum(row.survived for row in rows) == 3


def test_candidate_survivors_frozen():
    spec = group_spec("PSL", n=2, q=13)
    rows = sieve_orders(2, 100, [spec])
    key = f"candidate-{spec}"
    survivors = {r.u for r in rows if dict(r.filter_trace)[key]}
    assert survivors == {3, 4, 10}


def test_uncovered_candidate_does_not_eliminate():
    rows = sieve_orders(2, 5, [group_spec("A", n=7)])
    assert all(r.survived for r in rows)


def _forbidden_prime_power(n):
    # n is a proper prime power iff some exact k-th root, k >= 2, is prime;
    # 343 is the one allowed
    roots = (nth_root(n, k) for k in range(2, n.bit_length() + 1))
    return n != 343 and any(exact and is_prime(r) for r, exact in roots)


def test_survived_matches_independent_recomputation():
    for row in sieve_orders(2, 2000):
        expected = (admissible_index(row.v)
                    and not _forbidden_prime_power(row.u * row.u + row.u + 1)
                    and all(row.v // p**e > 8 * p**e or p**e == 343
                            for p, e in row.v_factors.factors if e >= 2))
        assert row.survived == expected, row.u


def _every_filter_passes(u_min, u_max):
    # the four candidate-free filters are theorems (see the scan module
    # docstring), so without candidates every row survives on all four
    rows = sieve_orders(u_min, u_max)
    assert [row.u for row in rows] == list(range(u_min, u_max + 1))
    for row in rows:
        assert len(row.filter_trace) == 4, row.u
        assert all(ok for _, ok in row.filter_trace) and row.survived, row.u


def test_candidate_free_rows_all_survive_exhaustively():
    # includes u <= 16, the rows the Kantor cofactor bound leaves to a
    # direct check
    _every_filter_passes(2, 20_000)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, U_CAP), st.integers(0, 300))
@example(10**6 - 300, 300)
def test_candidate_free_rows_all_survive_in_windows(u_min, width):
    _every_filter_passes(u_min, min(u_min + width, U_CAP))


def test_kantor_filter_fires_on_repeated_primes():
    # v(19) = 7^3 * 381 passes through the 343 exception; v(67) carries
    # 7^2 with a large cofactor and passes the inequality outright
    for u in (19, 67):
        row = sieve_orders(u, u)[0]
        assert any(e >= 2 for _, e in row.v_factors.factors)
        assert ("kantor", True) in row.filter_trace
        assert row.survived


def test_rows_never_reprove_primes_of_v(monkeypatch):
    # a row's repeated primes come from its own factorization, so the
    # cofactor inequality is checked without proving them prime again;
    # neither module imports is_prime today, and the patch (raising=False)
    # catches any call if the import comes back
    def refuse(n):
        raise AssertionError(f"is_prime({n}) called from a scan row")

    for module in (planesieve.plane, planesieve.scan):
        monkeypatch.setattr(module, "is_prime", refuse, raising=False)
    for u_min, u_max in ((18, 19), (67, 67), (950001, 950100)):
        rows = sieve_orders(u_min, u_max)
        assert len(rows) == u_max - u_min + 1
    assert ("kantor", True) in sieve_orders(67, 67)[0].filter_trace


def _spy_factorize(monkeypatch):
    real = planesieve.exactmath.factorize
    seen = []

    def spy(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(planesieve.exactmath, "factorize", spy)
    monkeypatch.setattr(planesieve.plane, "factorize", spy)
    return seen


@pytest.mark.parametrize("u", [2, 4, 18, 19, 950001, 950002])
def test_row_never_factors_whole_v(monkeypatch, u):
    # a row reads both halves of v off one sieve pass over x**2 + x + 1,
    # so factorize is never called, neither on v nor on a half
    seen = _spy_factorize(monkeypatch)
    sieve_orders(u, u)
    assert seen == []


def test_window_never_factors(monkeypatch):
    seen = _spy_factorize(monkeypatch)
    assert len(sieve_orders(950001, 950100)) == 100
    assert seen == []


def test_candidate_data_evaluated_once_per_scan(monkeypatch):
    calls = {"involution_class_size": 0, "min_proper_index": 0}

    def counting(name):
        real = getattr(planesieve.scan, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(planesieve.scan, name, counting(name))
    sieve_orders(2, 200, [group_spec("PSL", n=2, q=13), group_spec("G2", q=7),
                          group_spec("PSU", n=5, q=7)])
    assert calls == {"involution_class_size": 3, "min_proper_index": 3}


def test_sieve_is_pure():
    assert sieve_orders(2, 50) == sieve_orders(2, 50)


def test_sieve_hands_each_row_to_emit_as_built():
    specs = [group_spec("PSL", n=2, q=13), group_spec("G2", q=7), group_spec("PSU", n=5, q=7)]
    seen = []
    rows = sieve_orders(2, 300, specs, emit=seen.append)
    assert len(seen) == len(rows) and all(a is b for a, b in zip(seen, rows))
    assert [row.u for row in seen] == list(range(2, 301))
    assert rows == sieve_orders(2, 300, specs)


def test_sieve_rejects_bad_ranges():
    # the range is checked before a single row is built or emitted
    seen = []
    with pytest.raises(ValueError):
        sieve_orders(1, 5, emit=seen.append)
    with pytest.raises(ValueError):
        sieve_orders(9, 5, emit=seen.append)
    with pytest.raises(ValueError):
        sieve_orders(2, U_CAP + 1, emit=seen.append)
    assert seen == []
