"""Feasibility sieve over square plane orders.

A row per u applies the necessary conditions in a fixed order: the two
halves of u^4+u^2+1 are coprime, the value is admissible, u^2+u+1 is
not a forbidden proper prime power, any repeated-prime part satisfies
the cofactor inequality, and optionally each candidate group passes
the involution counting gate.  Survival means "not yet eliminated",
never that a plane or an action exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .catalog import classes_for, involution_class_size
from .exactmath import Factorization
from .groups import GroupSpec, min_proper_index
from .plane import (LjunggrenClass, PlaneOrder, admissible_index, kantor_cofactor_holds,
                    ljunggren_classify, plane_orders)

U_CAP = 10**6


@dataclass(frozen=True)
class GateVerdict:
    """Outcome of the counting gate for one plane order and one group.

    class_modes records, per catalog involution class, "pass" (the
    class size is a multiple of u^2-u+1, so r = class_size/(u^2-u+1)
    makes the counting identity land exactly on v) or "non-divisor".
    floor_ok reports the index-floor comparison v > floor;
    None means no floor is available for the family.
    """

    spec: str
    outcome: str  # "pass" | "fail" | "uncovered"
    class_modes: tuple[tuple[str, str], ...]
    witness_r: int | None = None
    floor: int | None = None
    floor_ok: bool | None = None


@dataclass(frozen=True)
class SieveRow:
    u: int
    v: int
    v_factors: Factorization
    filter_trace: tuple[tuple[str, bool], ...]
    survived: bool


@dataclass(frozen=True)
class Candidate:
    """What the counting gate needs of a candidate group, none of which
    depends on the plane order: the (label, involution class size) pair
    of each catalog class, and the index floor (None when no floor is
    wired for the family or no catalog class covers the group)."""

    spec: GroupSpec
    name: str
    sizes: tuple[tuple[str, int], ...]
    floor: int | None


def prepare_candidate(spec: GroupSpec) -> Candidate:
    """Evaluate spec's class sizes and index floor, once per scan."""
    sizes = tuple((entry.label, involution_class_size(entry)) for entry in classes_for(spec))
    return Candidate(spec=spec, name=str(spec), sizes=sizes,
                     floor=min_proper_index(spec) if sizes else None)


def candidate_gate(plane: PlaneOrder, cand: Candidate) -> GateVerdict:
    """Test whether any catalog involution class of the candidate admits
    the counting identity v = (n_g/r_g)(u^2+u+1) at this plane order.
    The candidate's data is precomputed, so only the divisibility by
    u^2-u+1 is left to each row."""
    if not cand.sizes:
        return GateVerdict(spec=cand.name, outcome="uncovered", class_modes=())

    ratio = plane.factor_minus
    modes = tuple((label, "non-divisor" if n_g % ratio else "pass") for label, n_g in cand.sizes)
    witness_r = next((n_g // ratio for _, n_g in cand.sizes if n_g % ratio == 0), None)
    floor_ok = None if cand.floor is None else plane.v > cand.floor

    passed = witness_r is not None and floor_ok is not False
    return GateVerdict(spec=cand.name, outcome="pass" if passed else "fail",
                       class_modes=modes, witness_r=witness_r,
                       floor=cand.floor, floor_ok=floor_ok)


def _row(plane: PlaneOrder, candidates: tuple[Candidate, ...]) -> SieveRow:
    factors = plane.v_factors
    trace = [("coprime-halves", gcd(plane.factor_plus, plane.factor_minus) == 1),
             ("admissible-value", admissible_index(factors))]

    cls = ljunggren_classify(plane.plus_factors)
    trace.append((f"ljunggren-{cls.value}", cls is not LjunggrenClass.OTHER_PRIME_POWER))

    repeated = [(p, e) for p, e in factors.factors if e >= 2]
    if not repeated:
        trace.append(("kantor-not-applicable", True))
    else:
        holds = all(kantor_cofactor_holds(p**e, plane.v // p**e, plane.u) for p, e in repeated)
        trace.append(("kantor", holds))

    for cand in candidates:
        verdict = candidate_gate(plane, cand)
        trace.append((f"candidate-{verdict.spec}", verdict.outcome != "fail"))

    return SieveRow(u=plane.u, v=plane.v, v_factors=factors,
                    filter_trace=tuple(trace),
                    survived=all(ok for _, ok in trace))


def sieve_orders(u_min: int, u_max: int,
                 group_candidates: list[GroupSpec] | None = None) -> list[SieveRow]:
    """One SieveRow per u in [u_min, u_max], in order."""
    if u_min < 2:
        raise ValueError(f"u_min must be >= 2, got {u_min}")
    if u_max < u_min:
        raise ValueError(f"inverted range [{u_min}, {u_max}]")
    if u_max > U_CAP:
        raise ValueError(f"u_max {u_max} exceeds the cap {U_CAP}")
    candidates = tuple(prepare_candidate(spec) for spec in group_candidates or ())
    return [_row(plane, candidates) for plane in plane_orders(u_min, u_max)]
