"""Involution class sizes as data.

Each catalog entry is a template: a family, a validity window, and a
class-size formula stored as coefficient/exponent records so the whole
catalog is serializable and auditable.  Formulas evaluate with exact
integer arithmetic only.  Exponents are linear forms [a, b] meaning
a*n + b, or [a, b, d] meaning (a*n + b)/d where the division must be
exact; a coefficient "e" stands for the form sign (+1 or -1), taken
from the entry itself or from the group's eps parameter.

Entries flagged exact give the class size n_g itself; entries flagged
as divisor bounds give a stated multiple of n_g, and downstream
inequalities must pick the matching direction.
"""

from __future__ import annotations

from math import gcd
from typing import Any

from .exactmath import geom_sum
from .groups import GroupSpec

CLASS_TEMPLATES: tuple[dict[str, Any], ...] = (
    {
        "label": "psl2-odd-plus",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "rank-one projective line, q = 1 mod 4: one involution class, "
                  "centralizer dihedral of order q-1, size q(q+1)/2",
        "valid": {"n_exact": 2, "q_parity": "odd", "q_mod4": 1},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [0, 1]},
            {"kind": "poly", "terms": [[1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl2-odd-minus",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "rank-one projective line, q = 3 mod 4: one involution class, "
                  "centralizer dihedral of order q+1, size q(q-1)/2",
        "valid": {"n_exact": 2, "q_parity": "odd", "q_mod4": 3},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [0, 1]},
            {"kind": "poly", "terms": [[1, [0, 1]], [-1, [0, 0]]]},
        ],
    },
    {
        "label": "psl2-even",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "rank-one projective line, even q: involutions are the "
                  "nontrivial unipotents, class size q^2-1",
        "valid": {"n_exact": 2, "q_parity": "even"},
        "const": [1, 1],
        "factors": [
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
        ],
    },
    {
        "label": "psl3-odd",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "dimension 3, odd q: involution with eigenvalues -1,-1,1, "
                  "class size q^2(q^2+q+1)",
        "valid": {"n_exact": 3, "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 2]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl3-even",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "dimension 3, even q: involutions are transvections, "
                  "class size (q^2-1)(q^2+q+1)",
        "valid": {"n_exact": 3, "q_parity": "even"},
        "const": [1, 1],
        "factors": [
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl-diag-odd-n",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "odd dimension >= 5, odd q: involution negating two "
                  "coordinates, class size q^(n-1)(1+q+...+q^(n-1))",
        "valid": {"n_min": 5, "n_parity": "odd", "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [1, -1]},
            {"kind": "geom", "top": [1, -1], "step": 1},
        ],
    },
    {
        "label": "psl-diag-n4",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "dimension 4, odd q: involution negating two coordinates; "
                  "the two 2-blocks can swap, halving the generic count to "
                  "q^4(q^2+1)(q^2+q+1)/2",
        "valid": {"n_exact": 4, "q_parity": "odd"},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [0, 4]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl-diag-even-n",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "mixed",
        "anchor": "even dimension >= 6, odd q: involution negating two "
                  "coordinates, class size "
                  "q^(2n-4)(1+q+...+q^(n-2))(1+q^2+...+q^(n-2))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [2, -4]},
            {"kind": "geom", "top": [1, -2], "step": 1},
            {"kind": "geom", "top": [1, -2], "step": 2},
        ],
    },
    {
        "label": "psl-transvection",
        "family": "PSL",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "dimension >= 4, even q: involutions of residue rank one "
                  "are transvections, class size (q^(n-1)-1)(1+q+...+q^(n-1))",
        "valid": {"n_min": 4, "q_parity": "even"},
        "const": [1, 1],
        "factors": [
            {"kind": "poly", "terms": [[1, [1, -1]], [-1, [0, 0]]]},
            {"kind": "geom", "top": [1, -1], "step": 1},
        ],
    },
    {
        "label": "psp4",
        "family": "PSp",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "symplectic dimension 4, odd q: central involution of the "
                  "two-block stabilizer with block swap, class size q^2(q^2+1)/2",
        "valid": {"n_exact": 4, "q_parity": "odd"},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [0, 2]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psp-central",
        "family": "PSp",
        "sign": None,
        "exact": True,
        "parity": "mixed",
        "anchor": "symplectic dimension >= 6, odd q: central involution of a "
                  "2 perp (n-2) block stabilizer, class size "
                  "q^(n-2)(1+q^2+...+q^(n-2))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [1, -2]},
            {"kind": "geom", "top": [1, -2], "step": 2},
        ],
    },
    {
        "label": "psu-two-eigen",
        "family": "PSU",
        "sign": None,
        "exact": True,
        "parity": "mixed",
        "anchor": "unitary dimension >= 6 even, odd q: involution negating two "
                  "coordinates, class size "
                  "q^(2n-4)(q^n-1)(q^(n-1)+1)/((q+1)(q^2-1))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [2, -4]},
            {"kind": "poly", "terms": [[1, [1, 0]], [-1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [1, -1]], [1, [0, 0]]]},
        ],
        "divide": [
            {"kind": "poly", "terms": [[1, [0, 1]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
        ],
    },
    {
        "label": "psu-odd-n-bound",
        "family": "PSU",
        "sign": None,
        "exact": False,
        "parity": "odd",
        "anchor": "unitary dimension >= 3 odd, odd q: involution with a single "
                  "positive eigenvalue; class size divides q^(n-1)(q^n+1)/(q+1)",
        "valid": {"n_min": 3, "n_parity": "odd", "q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [1, -1]},
            {"kind": "poly", "terms": [[1, [1, 0]], [1, [0, 0]]]},
        ],
        "divide": [
            {"kind": "poly", "terms": [[1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "omega-odd-plus",
        "family": "POmega",
        "sign": 1,
        "exact": True,
        "parity": "mixed",
        "anchor": "odd orthogonal dimension >= 7, odd q: involution whose "
                  "fixed line is nonsingular with plus-type complement, class "
                  "size q^((n-1)/2)(q^((n-1)/2)+1)/2",
        "valid": {"eps": "o", "n_min": 7, "n_parity": "odd", "q_parity": "odd"},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [1, -1, 2]},
            {"kind": "poly", "terms": [[1, [1, -1, 2]], ["e", [0, 0]]]},
        ],
    },
    {
        "label": "omega-odd-minus",
        "family": "POmega",
        "sign": -1,
        "exact": True,
        "parity": "mixed",
        "anchor": "odd orthogonal dimension >= 7, odd q: involution whose "
                  "fixed line is nonsingular with minus-type complement, class "
                  "size q^((n-1)/2)(q^((n-1)/2)-1)/2",
        "valid": {"eps": "o", "n_min": 7, "n_parity": "odd", "q_parity": "odd"},
        "const": [1, 2],
        "factors": [
            {"kind": "qpow", "exp": [1, -1, 2]},
            {"kind": "poly", "terms": [[1, [1, -1, 2]], ["e", [0, 0]]]},
        ],
    },
    {
        "label": "g2",
        "family": "G2",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "G2, odd q: one involution class, centralizer a central "
                  "product of two SL(2,q) with a swap, size q^4(q^4+q^2+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 4]},
            {"kind": "poly", "terms": [[1, [0, 4]], [1, [0, 2]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "f4",
        "family": "F4",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "F4, odd q: involution with centralizer of spin type in "
                  "dimension 9, class size q^8(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 8]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "threeD4",
        "family": "3D4",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "triality D4, odd q: single involution class, centralizer "
                  "SL(2,q^3) o SL(2,q) with a swap, size q^8(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 8]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "e6",
        "family": "E6",
        "sign": None,
        "exact": True,
        "parity": "odd",
        "anchor": "E6 of either form sign, odd q: involution centralized by "
                  "the spin group in dimension 10 of matching sign, class size "
                  "q^16(q^6+eq^3+1)(q^2+eq+1)(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 16]},
            {"kind": "poly", "terms": [[1, [0, 6]], ["e", [0, 3]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], ["e", [0, 1]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "e7-plus",
        "family": "E7",
        "sign": 1,
        "exact": False,
        "parity": "even",
        "anchor": "E7, odd q, plus-sign reading: class size divides "
                  "(4,q-1)q^35(q^7+1)(q^5+1)(q^3+1)(q^8+q^4+1)(q^12+q^6+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "gcd", "k": 4, "shift": -1},
            {"kind": "qpow", "exp": [0, 35]},
            {"kind": "poly", "terms": [[1, [0, 7]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 5]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 3]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 12]], [1, [0, 6]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "e7-minus",
        "family": "E7",
        "sign": -1,
        "exact": False,
        "parity": "even",
        "anchor": "E7, odd q, minus-sign reading: class size divides "
                  "(4,q-1)q^35(q^7-1)(q^5-1)(q^3-1)(q^8+q^4+1)(q^12+q^6+1)",
        "valid": {"q_parity": "odd"},
        "const": [1, 1],
        "factors": [
            {"kind": "gcd", "k": 4, "shift": -1},
            {"kind": "qpow", "exp": [0, 35]},
            {"kind": "poly", "terms": [[1, [0, 7]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 5]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 3]], ["e", [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 12]], [1, [0, 6]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "e8",
        "family": "E8",
        "sign": None,
        "exact": False,
        "parity": "even",
        "anchor": "E8, odd q: class size divides "
                  "2q^56(q^10+1)(q^12+1)(q^6+1)(q^30-1)/(q^2-1)",
        "valid": {"q_parity": "odd"},
        "const": [2, 1],
        "factors": [
            {"kind": "qpow", "exp": [0, 56]},
            {"kind": "poly", "terms": [[1, [0, 10]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 12]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 6]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 30]], [-1, [0, 0]]]},
        ],
        "divide": [
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
        ],
    },
)


def _matches(valid: dict[str, Any], spec: GroupSpec) -> bool:
    n, q = spec.n, spec.q
    if (eps := valid.get("eps")) is not None and spec.eps != eps:
        return False
    if (want := valid.get("n_exact")) is not None and n != want:
        return False
    if (low := valid.get("n_min")) is not None and (n is None or n < low):
        return False
    if (par := valid.get("n_parity")) is not None:
        if n is None or n % 2 != (0 if par == "even" else 1):
            return False
    if (qpar := valid.get("q_parity")) is not None:
        if q is None or q % 2 != (0 if qpar == "even" else 1):
            return False
    if (qm := valid.get("q_mod4")) is not None and (q is None or q % 4 != qm):
        return False
    return True


def classes_for(spec: GroupSpec) -> tuple[dict[str, Any], ...]:
    """The templates whose validity window covers spec, in catalog order."""
    return tuple(t for t in CLASS_TEMPLATES
                 if t["family"] == spec.family and _matches(t["valid"], spec))


def _linear(form: list[int], n: int | None) -> int:
    a, b = form[0], form[1]
    if a and n is None:
        raise ValueError("formula needs a rank parameter")
    value = a * (n or 0) + b
    if len(form) == 3:
        if value % form[2]:
            raise ValueError(f"linear form {form} is not exact at n={n}")
        value //= form[2]
    return value


def _eval_factor(factor: dict[str, Any], n: int | None, q: int, sign: int | None) -> int:
    kind = factor["kind"]
    if kind == "qpow":
        return q ** _linear(factor["exp"], n)
    if kind == "poly":
        total = 0
        for coeff, exp in factor["terms"]:
            if coeff == "e":
                if sign is None:
                    raise ValueError("formula uses a form sign the group lacks")
                coeff = sign
            total += coeff * q ** _linear(exp, n)
        return total
    if kind == "geom":
        top = _linear(factor["top"], n)
        step = factor["step"]
        if top % step:
            raise ValueError(f"geometric factor top {top} not a multiple of step {step}")
        return geom_sum(q, top // step, step)
    if kind == "gcd":
        return gcd(factor["k"], q + factor["shift"])
    raise ValueError(f"unknown factor kind {kind!r}")


def involution_class_size(template: dict[str, Any], spec: GroupSpec) -> int:
    """Exact evaluation of template's formula at spec."""
    if not (template["family"] == spec.family and _matches(template["valid"], spec)):
        raise ValueError(f"{template['label']} does not cover {spec}")
    sign = template["sign"]
    if sign is None and spec.eps in ("+", "-"):
        sign = 1 if spec.eps == "+" else -1
    num, den = template["const"]
    value = num
    for factor in template["factors"]:
        value *= _eval_factor(factor, spec.n, spec.q, sign)
    for factor in template.get("divide", ()):
        d = _eval_factor(factor, spec.n, spec.q, sign)
        if value % d:
            raise ValueError(f"{template['label']}: denominator {d} does not divide {value}")
        value //= d
    if value % den:
        raise ValueError(f"{template['label']}: constant denominator {den} does not divide")
    return value // den


def catalog_records() -> list[dict[str, Any]]:
    """Serializable audit listing, one record per template."""
    out = []
    for t in CLASS_TEMPLATES:
        out.append({
            "label": t["label"],
            "family": t["family"],
            "validity": dict(t["valid"]),
            "exact": t["exact"],
            "parity": t["parity"],
            "anchor": t["anchor"],
            "formula": {
                "const": list(t["const"]),
                "factors": [dict(f) for f in t["factors"]],
                "divide": [dict(f) for f in t.get("divide", ())],
            },
        })
    return out
