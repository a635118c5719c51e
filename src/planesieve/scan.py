"""Feasibility sieve over square plane orders.

A row per u applies the necessary conditions in a fixed order: the two
halves of u^4+u^2+1 are coprime, the value is admissible, u^2+u+1 is
not a forbidden proper prime power, any repeated-prime part satisfies
the cofactor inequality, and optionally each candidate group passes
the involution counting gate.  Survival means "not yet eliminated",
never that a plane or an action exists.

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
from math import gcd, lcm
from operator import itemgetter

from .catalog import classes_for, involution_class_size
from .exactmath import Factorization
from .groups import GroupSpec, min_proper_index
from .plane import (U_CAP, LjunggrenClass, PlaneOrder, admissible_index,
                    kantor_cofactor_holds, ljunggren_classify, plane_orders)


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of the counting gate for one group, with the entry it
    puts in a row's filter trace: the candidate's label and whether the
    row passed (any outcome but "fail").  prepare_candidate builds each
    outcome once per scan, and the gate hands the same object to every
    row that gets it."""

    entry: tuple[str, bool]
    outcome: str  # "pass" | "fail" | "uncovered"


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
    the gate's two verdicts, indexed by whether the row passed.  An
    uncovered group has no sizes, so its lcm is 1, and both of its
    verdicts are "uncovered"."""

    sizes: tuple[int, ...]
    lcm: int
    floor: int | None
    verdicts: tuple[GateVerdict, GateVerdict]


def prepare_candidate(spec: GroupSpec) -> Candidate:
    """Evaluate spec's class sizes, their lcm, its index floor and its
    verdicts, once per scan."""
    label = f"candidate-{spec}"
    sizes = tuple(involution_class_size(t, spec) for t in classes_for(spec))
    if sizes:
        floor = min_proper_index(spec)
        verdicts = (GateVerdict(entry=(label, False), outcome="fail"),
                    GateVerdict(entry=(label, True), outcome="pass"))
    else:
        floor, verdicts = None, (GateVerdict(entry=(label, True), outcome="uncovered"),) * 2
    return Candidate(sizes=sizes, lcm=lcm(*sizes), floor=floor, verdicts=verdicts)


def candidate_gate(plane: PlaneOrder, cand: Candidate) -> GateVerdict:
    """Test whether any catalog involution class of the candidate admits
    the counting identity v = (n_g/r_g)(u^2+u+1) at this plane order:
    some class size n_g must be a multiple of u^2-u+1, and v must exceed
    the index floor.  The candidate's data and verdicts are prepared
    once per scan, so a row costs one modulus by the lcm of the sizes,
    which u^2-u+1 divides whenever it divides some n_g; only rows that
    pass it test each size and the floor.  An uncovered candidate fails
    the lcm test (u^2-u+1 >= 3) and gets its "uncovered" verdict."""
    ratio = plane.minus_factors.value
    passed = (cand.lcm % ratio == 0
              and any(n_g % ratio == 0 for n_g in cand.sizes)
              and (cand.floor is None or plane.v > cand.floor))
    return cand.verdicts[passed]


# The entries the four filters before the gate can put in a trace, by outcome.
_COPRIME = (("coprime-halves", False), ("coprime-halves", True))
_ADMISSIBLE = (("admissible-value", False), ("admissible-value", True))
_LJUNGGREN = {cls: (f"ljunggren-{cls.value}", cls is not LjunggrenClass.OTHER_PRIME_POWER)
              for cls in LjunggrenClass}
_KANTOR = {None: ("kantor-not-applicable", True), False: ("kantor", False), True: ("kantor", True)}


def _row(plane: PlaneOrder, candidates: tuple[Candidate, ...]) -> SieveRow:
    factors = plane.v_factors
    repeated = [p**e for p, e in factors.factors if e >= 2]
    kantor = (all(kantor_cofactor_holds(pe, plane.v // pe, plane.u) for pe in repeated)
              if repeated else None)
    trace = (_COPRIME[gcd(plane.plus_factors.value, plane.minus_factors.value) == 1],
             _ADMISSIBLE[admissible_index(factors)],
             _LJUNGGREN[ljunggren_classify(plane.plus_factors)],
             _KANTOR[kantor],
             *[candidate_gate(plane, cand).entry for cand in candidates])
    return SieveRow(plane.u, plane.v, factors, trace, all(map(itemgetter(1), trace)))


def sieve_orders(u_min: int, u_max: int,
                 group_candidates: list[GroupSpec] | None = None,
                 emit: Callable[[SieveRow], None] | None = None) -> list[SieveRow]:
    """One SieveRow per u in [u_min, u_max], in order.  When emit is
    given, each row is handed to it as soon as it is built, before the
    next row is sieved, so a caller can write rows out as they come; the
    range is checked before any row is built.  The list of every row is
    returned either way, so memory still grows with the range."""
    if u_min < 2:
        raise ValueError(f"u_min must be >= 2, got {u_min}")
    if u_max < u_min:
        raise ValueError(f"inverted range [{u_min}, {u_max}]")
    if u_max > U_CAP:
        raise ValueError(f"u_max {u_max} exceeds the cap {U_CAP}")
    candidates = tuple(prepare_candidate(spec) for spec in group_candidates or ())
    rows = []
    for plane in plane_orders(u_min, u_max):
        row = _row(plane, candidates)
        if emit is not None:
            emit(row)
        rows.append(row)
    return rows
