"""Feasibility sieve over square plane orders.

A row per u is built from the two halves of u^4+u^2+1 that one sieve
pass yields, and applies the necessary conditions in a fixed order: the
halves are coprime, the value is admissible, u^2+u+1 is not a forbidden
proper prime power, any repeated-prime part satisfies the cofactor
inequality, and optionally each candidate group passes the involution
counting gate.  Survival means "not yet eliminated", never that a plane
or an action exists.  A row with candidates makes one gate call for all
of them, and a row whose u^2-u+1 does not divide L, the lcm of every
candidate's class sizes, is rejected by one modulus without testing any
candidate.

The four filters before the candidate gate hold at every u >= 2, so
only the candidate gate can eliminate a row; the rows still compute
them, as the runtime witness of the proofs.  Write a = u^2+u+1 =
Phi_3(u) and b = u^2-u+1 = Phi_3(u-1), so v = ab = Phi_3(u^2).

- coprime-halves: a - b = 2u, so gcd(a, b) divides 2u.  Both halves
  are odd and are 1 mod every prime of u, so the gcd is 1.
- admissible-value: a prime p != 3 dividing Phi_3(x) gives x order 3
  mod p, so p = 1 mod 3.  If 3 divides Phi_3(x), then x = 1 mod 3 and
  Phi_3(x) = 3 mod 9.  With x = u^2, 9 never divides v.
- ljunggren: u^2 < a < (u+1)^2, so a is no even power.  For an odd
  prime q, x^2+x+1 = y^q with x >= 2 has the one solution x = 18,
  y = 7, q = 3 (Ljunggren 1943), and the filter passes 343.
- kantor: let p^e exactly divide v, e >= 2, and let h be the half it
  divides.  If h = p^e, h is a proper prime power, so h = 343 by the
  two facts above (u = 18 or 19), which the gate exempts.  Otherwise
  k = h/p^e > 1 has only primes 3 and 1 mod 3, so k >= 3, and the
  cofactor is at least 3b > 8a/3 >= 8p^e for u >= 17
  (9b - 8a = u^2 - 17u + 1).  The tests check u <= 16 directly.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import pairwise
from math import gcd, lcm
from operator import itemgetter

from .catalog import classes_for, involution_class_size
from .exactmath import Factorization
from .groups import GroupSpec, min_proper_index
from .plane import (U_CAP, LjunggrenClass, admissible_index, kantor_cofactor_holds,
                    ljunggren_classify, v_factorization)
from .sieve import phi3_factorizations


@dataclass(frozen=True)
class GateVerdict:
    """The counting gate's answer for one row: the entry each candidate
    puts in the row's filter trace, (label, passed), in candidate order,
    and "fail" when some entry is False, else "pass"."""

    entries: tuple[tuple[str, bool], ...]
    outcome: str  # "pass" | "fail"


def _verdict(entries: tuple[tuple[str, bool], ...]) -> GateVerdict:
    return GateVerdict(entries, "pass" if all(map(itemgetter(1), entries)) else "fail")


@dataclass(frozen=True)
class SieveRow:
    u: int
    v: int
    v_factors: Factorization
    filter_trace: tuple[tuple[str, bool], ...]
    survived: bool


@dataclass(frozen=True)
class Candidate:
    """Everything the counting gate needs of a candidate group, none of
    which depends on the plane order: the size of each catalog
    involution class and their lcm, the index floor (None when no floor
    is wired for the family or no catalog class covers the group), and
    the two entries it can put in a row's filter trace, indexed by
    whether the row passed.  An uncovered group has no sizes, so its
    lcm is 1, and both of its entries are (label, True)."""

    sizes: tuple[int, ...]
    lcm: int
    floor: int | None
    entries: tuple[tuple[str, bool], tuple[str, bool]]


@dataclass(frozen=True)
class Candidates:
    """A scan's prepared candidates, in order, with L, the lcm of their
    lcms, and the verdict shared by every row whose u^2-u+1 does not
    divide L: no candidate passes there, so each takes its entry for a
    failed row, which is (label, True) for an uncovered one."""

    each: tuple[Candidate, ...]
    lcm: int
    miss: GateVerdict


def _prepare(spec: GroupSpec) -> Candidate:
    label = f"candidate-{spec}"
    sizes = tuple(involution_class_size(t, spec) for t in classes_for(spec))
    if sizes:
        floor, entries = min_proper_index(spec), ((label, False), (label, True))
    else:
        floor, entries = None, ((label, True),) * 2
    return Candidate(sizes=sizes, lcm=lcm(*sizes), floor=floor, entries=entries)


def prepare_candidates(specs: list[GroupSpec]) -> Candidates:
    """Evaluate each group's class sizes, their lcm, its index floor and
    its entries, then L and the shared verdict, once per scan."""
    each = tuple(map(_prepare, specs))
    return Candidates(each=each, lcm=lcm(*(cand.lcm for cand in each)),
                      miss=_verdict(tuple(cand.entries[False] for cand in each)))


def candidate_gate(ratio: int, v: int, cands: Candidates) -> GateVerdict:
    """Test, for each candidate, whether some catalog involution class
    admits the counting identity v = (n_g/r_g)(u^2+u+1) at the plane
    order whose u^2-u+1 is ratio: some class size n_g must be a multiple
    of ratio, and v must exceed the index floor.  A sieve row makes this
    one call for all of its candidates.  u^2-u+1 divides a candidate's
    lcm whenever it divides one of its sizes, and then it divides L too,
    so a row whose u^2-u+1 does not divide L costs one modulus and gets
    the shared verdict.  Only the other rows test each candidate: its
    lcm, then its sizes, then its floor.  An uncovered candidate fails
    the lcm test (u^2-u+1 >= 3) and keeps its (label, True) entry."""
    if cands.lcm % ratio:
        return cands.miss
    return _verdict(tuple(
        cand.entries[cand.lcm % ratio == 0
                     and any(n_g % ratio == 0 for n_g in cand.sizes)
                     and (cand.floor is None or v > cand.floor)]
        for cand in cands.each))


# The entries the four filters before the gate can put in a trace, by outcome.
_COPRIME = (("coprime-halves", False), ("coprime-halves", True))
_ADMISSIBLE = (("admissible-value", False), ("admissible-value", True))
_LJUNGGREN = {cls: (f"ljunggren-{cls.value}", cls is not LjunggrenClass.OTHER_PRIME_POWER)
              for cls in LjunggrenClass}
_KANTOR = {None: ("kantor-not-applicable", True), False: ("kantor", False), True: ("kantor", True)}


def _row(u: int, minus: Factorization, plus: Factorization,
         candidates: Candidates | None) -> SieveRow:
    factors = v_factorization(minus, plus)
    x, v = u * u, factors.value
    assert v == x * x + x + 1  # the halves are u's; coprime-halves witnesses the rest
    repeated = [p**e for p, e in factors.factors if e >= 2]
    kantor = (all(kantor_cofactor_holds(pe, v // pe, u) for pe in repeated)
              if repeated else None)
    trace = (_COPRIME[gcd(plus.value, minus.value) == 1],
             _ADMISSIBLE[admissible_index(factors)],
             _LJUNGGREN[ljunggren_classify(plus)],
             _KANTOR[kantor])
    if candidates is not None:
        trace += candidate_gate(minus.value, v, candidates).entries
    return SieveRow(u, v, factors, trace, all(map(itemgetter(1), trace)))


def sieve_orders(u_min: int, u_max: int,
                 group_candidates: list[GroupSpec] | None = None,
                 emit: Callable[[SieveRow], None] | None = None) -> list[SieveRow]:
    """One SieveRow per u in [u_min, u_max], in order, built from one sieve
    pass over x = u_min - 1, ..., u_max: u^2-u+1 at u is u^2+u+1 at u - 1,
    so neighbouring rows share a value.  When emit is given, each row is
    handed to it as soon as it is built, before the next row is sieved,
    so a caller can write rows out as they come; the range is checked
    before any row is built.  The list of every row is returned either
    way, so memory still grows with the range."""
    if u_min < 2:
        raise ValueError(f"u_min must be >= 2, got {u_min}")
    if u_max < u_min:
        raise ValueError(f"inverted range [{u_min}, {u_max}]")
    if u_max > U_CAP:
        raise ValueError(f"u_max {u_max} exceeds the cap {U_CAP}")
    candidates = prepare_candidates(group_candidates) if group_candidates else None
    rows = []
    halves = pairwise(phi3_factorizations(u_min - 1, u_max))
    for u, (minus, plus) in zip(range(u_min, u_max + 1), halves):
        row = _row(u, minus, plus, candidates)
        if emit is not None:
            emit(row)
        rows.append(row)
    return rows
