"""Involution class sizes as data.

Each catalog entry is a template: a family, a validity window, and a
class-size formula stored as coefficient/exponent records so the whole
catalog is serializable and auditable.  One cover test reads the window
keys eps, n_exact, n_min, n_parity, q_parity and q_mod4, and raises on
any other.  Exponents are linear forms [a, b] meaning a*n + b, or
[a, b, d] meaning (a*n + b)/d, exact on every n the window admits; a
coefficient "e" is the form sign (+1 or -1): the optional sign key, or
else the group's eps, so a plus/minus pair shares one formula record.
A formula, with the optional const defaulting to [1, 1], is const[0]
times the factors over const[1] times the optional divide factors, one
exact integer division.

Entries flagged exact give the class size n_g itself; entries flagged
as divisor bounds give a stated multiple of n_g, and downstream
inequalities must pick the matching direction.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Any

from .exactmath import geom_sum
from .groups import GroupSpec

# A sign pair is one formula in the sign "e" (GLS, CFSG No. 3, Table 4.5.1).
_OMEGA_ODD: dict[str, Any] = {
    "family": "POmega",
    "exact": True,
    "parity": "mixed",
    "valid": {"eps": "o", "n_min": 7, "n_parity": "odd", "q_parity": "odd"},
    "const": [1, 2],
    "factors": [
        {"kind": "qpow", "exp": [1, -1, 2]},
        {"kind": "poly", "terms": [[1, [1, -1, 2]], ["e", [0, 0]]]},
    ],
}
_E7: dict[str, Any] = {
    "family": "E7",
    "exact": False,
    "parity": "even",
    "valid": {"q_parity": "odd"},
    "factors": [
        {"kind": "gcd", "k": 4, "shift": -1},
        {"kind": "qpow", "exp": [0, 35]},
        {"kind": "poly", "terms": [[1, [0, 7]], ["e", [0, 0]]]},
        {"kind": "poly", "terms": [[1, [0, 5]], ["e", [0, 0]]]},
        {"kind": "poly", "terms": [[1, [0, 3]], ["e", [0, 0]]]},
        {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        {"kind": "poly", "terms": [[1, [0, 12]], [1, [0, 6]], [1, [0, 0]]]},
    ],
}

CLASS_TEMPLATES: tuple[dict[str, Any], ...] = (
    {
        "label": "psl2-odd-plus",
        "family": "PSL",
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
        "exact": True,
        "parity": "odd",
        "anchor": "rank-one projective line, even q: involutions are the "
                  "nontrivial unipotents, class size q^2-1",
        "valid": {"n_exact": 2, "q_parity": "even"},
        "factors": [
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
        ],
    },
    {
        "label": "psl3-odd",
        "family": "PSL",
        "exact": True,
        "parity": "odd",
        "anchor": "dimension 3, odd q: involution with eigenvalues -1,-1,1, "
                  "class size q^2(q^2+q+1)",
        "valid": {"n_exact": 3, "q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [0, 2]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl3-even",
        "family": "PSL",
        "exact": True,
        "parity": "odd",
        "anchor": "dimension 3, even q: involutions are transvections, "
                  "class size (q^2-1)(q^2+q+1)",
        "valid": {"n_exact": 3, "q_parity": "even"},
        "factors": [
            {"kind": "poly", "terms": [[1, [0, 2]], [-1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], [1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "psl-diag-odd-n",
        "family": "PSL",
        "exact": True,
        "parity": "odd",
        "anchor": "odd dimension >= 5, odd q: involution negating two "
                  "coordinates, class size q^(n-1)(1+q+...+q^(n-1))",
        "valid": {"n_min": 5, "n_parity": "odd", "q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [1, -1]},
            {"kind": "geom", "top": [1, -1], "step": 1},
        ],
    },
    {
        "label": "psl-diag-n4",
        "family": "PSL",
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
        "exact": True,
        "parity": "mixed",
        "anchor": "even dimension >= 6, odd q: involution negating two "
                  "coordinates, class size "
                  "q^(2n-4)(1+q+...+q^(n-2))(1+q^2+...+q^(n-2))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [2, -4]},
            {"kind": "geom", "top": [1, -2], "step": 1},
            {"kind": "geom", "top": [1, -2], "step": 2},
        ],
    },
    {
        "label": "psl-transvection",
        "family": "PSL",
        "exact": True,
        "parity": "odd",
        "anchor": "dimension >= 4, even q: involutions of residue rank one "
                  "are transvections, class size (q^(n-1)-1)(1+q+...+q^(n-1))",
        "valid": {"n_min": 4, "q_parity": "even"},
        "factors": [
            {"kind": "poly", "terms": [[1, [1, -1]], [-1, [0, 0]]]},
            {"kind": "geom", "top": [1, -1], "step": 1},
        ],
    },
    {
        "label": "psp4",
        "family": "PSp",
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
        "exact": True,
        "parity": "mixed",
        "anchor": "symplectic dimension >= 6, odd q: central involution of a "
                  "2 perp (n-2) block stabilizer, class size "
                  "q^(n-2)(1+q^2+...+q^(n-2))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [1, -2]},
            {"kind": "geom", "top": [1, -2], "step": 2},
        ],
    },
    {
        "label": "psu-two-eigen",
        "family": "PSU",
        "exact": True,
        "parity": "mixed",
        "anchor": "unitary dimension >= 6 even, odd q: involution negating two "
                  "coordinates, class size "
                  "q^(2n-4)(q^n-1)(q^(n-1)+1)/((q+1)(q^2-1))",
        "valid": {"n_min": 6, "n_parity": "even", "q_parity": "odd"},
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
        "exact": False,
        "parity": "odd",
        "anchor": "unitary dimension >= 3 odd, odd q: involution with a single "
                  "positive eigenvalue; class size divides q^(n-1)(q^n+1)/(q+1)",
        "valid": {"n_min": 3, "n_parity": "odd", "q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [1, -1]},
            {"kind": "poly", "terms": [[1, [1, 0]], [1, [0, 0]]]},
        ],
        "divide": [
            {"kind": "poly", "terms": [[1, [0, 1]], [1, [0, 0]]]},
        ],
    },
    {
        **_OMEGA_ODD,
        "label": "omega-odd-plus",
        "sign": 1,
        "anchor": "odd orthogonal dimension >= 7, odd q: involution whose "
                  "fixed line is nonsingular with plus-type complement, class "
                  "size q^((n-1)/2)(q^((n-1)/2)+1)/2",
    },
    {
        **_OMEGA_ODD,
        "label": "omega-odd-minus",
        "sign": -1,
        "anchor": "odd orthogonal dimension >= 7, odd q: involution whose "
                  "fixed line is nonsingular with minus-type complement, class "
                  "size q^((n-1)/2)(q^((n-1)/2)-1)/2",
    },
    {
        "label": "g2",
        "family": "G2",
        "exact": True,
        "parity": "odd",
        "anchor": "G2, odd q: one involution class, centralizer a central "
                  "product of two SL(2,q) with a swap, size q^4(q^4+q^2+1)",
        "valid": {"q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [0, 4]},
            {"kind": "poly", "terms": [[1, [0, 4]], [1, [0, 2]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "f4",
        "family": "F4",
        "exact": True,
        "parity": "odd",
        "anchor": "F4, odd q: involution with centralizer of spin type in "
                  "dimension 9, class size q^8(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [0, 8]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "threeD4",
        "family": "3D4",
        "exact": True,
        "parity": "odd",
        "anchor": "triality D4, odd q: single involution class, centralizer "
                  "SL(2,q^3) o SL(2,q) with a swap, size q^8(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [0, 8]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        "label": "e6",
        "family": "E6",
        "exact": True,
        "parity": "odd",
        "anchor": "E6 of either form sign, odd q: involution centralized by "
                  "the spin group in dimension 10 of matching sign, class size "
                  "q^16(q^6+eq^3+1)(q^2+eq+1)(q^8+q^4+1)",
        "valid": {"q_parity": "odd"},
        "factors": [
            {"kind": "qpow", "exp": [0, 16]},
            {"kind": "poly", "terms": [[1, [0, 6]], ["e", [0, 3]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 2]], ["e", [0, 1]], [1, [0, 0]]]},
            {"kind": "poly", "terms": [[1, [0, 8]], [1, [0, 4]], [1, [0, 0]]]},
        ],
    },
    {
        **_E7,
        "label": "e7-plus",
        "sign": 1,
        "anchor": "E7, odd q, plus-sign reading: class size divides "
                  "(4,q-1)q^35(q^7+1)(q^5+1)(q^3+1)(q^8+q^4+1)(q^12+q^6+1)",
    },
    {
        **_E7,
        "label": "e7-minus",
        "sign": -1,
        "anchor": "E7, odd q, minus-sign reading: class size divides "
                  "(4,q-1)q^35(q^7-1)(q^5-1)(q^3-1)(q^8+q^4+1)(q^12+q^6+1)",
    },
    {
        "label": "e8",
        "family": "E8",
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


_PARITY = {"even": 0, "odd": 1}

# One test per validity key: whether spec lies inside that key's window.
_WINDOW = {
    "eps": lambda spec, want: spec.eps == want,
    "n_exact": lambda spec, want: spec.n == want,
    "n_min": lambda spec, low: spec.n >= low,
    "n_parity": lambda spec, par: spec.n % 2 == _PARITY[par],
    "q_parity": lambda spec, par: spec.q % 2 == _PARITY[par],
    "q_mod4": lambda spec, rest: spec.q % 4 == rest,
}


def _covers(template: dict[str, Any], spec: GroupSpec) -> bool:
    if template["family"] != spec.family:
        return False
    for key, want in template["valid"].items():
        test = _WINDOW.get(key)
        if test is None:
            raise ValueError(f"{template['label']}: unknown validity key {key!r}")
        if not test(spec, want):
            return False
    return True


def classes_for(spec: GroupSpec) -> tuple[dict[str, Any], ...]:
    """The templates whose validity window covers spec, in catalog order."""
    return tuple(t for t in CLASS_TEMPLATES if _covers(t, spec))


def _linear(form: list[int], n: int | None) -> int:
    value = form[0] * (n or 0) + form[1]
    return value // form[2] if len(form) == 3 else value


def _eval_factor(factor: dict[str, Any], n: int | None, q: int, sign: int | None) -> int:
    kind = factor["kind"]
    if kind == "qpow":
        return q ** _linear(factor["exp"], n)
    if kind == "poly":
        return sum((sign if coeff == "e" else coeff) * q ** _linear(exp, n)
                   for coeff, exp in factor["terms"])
    if kind == "geom":
        step = factor["step"]
        return geom_sum(q, _linear(factor["top"], n) // step, step)
    return gcd(factor["k"], q + factor["shift"])  # kind "gcd"


def involution_class_size(template: dict[str, Any], spec: GroupSpec) -> int:
    """Exact evaluation of template's formula at spec."""
    if not _covers(template, spec):
        raise ValueError(f"{template['label']} does not cover {spec}")
    n, q = spec.n, spec.q
    sign = template.get("sign") or spec.sign
    num, den = template.get("const", (1, 1))
    num *= prod(_eval_factor(factor, n, q, sign) for factor in template["factors"])
    den *= prod(_eval_factor(factor, n, q, sign) for factor in template.get("divide", ()))
    size, rest = divmod(num, den)
    if rest:
        raise ValueError(f"{template['label']}: denominator {den} does not divide {num}")
    return size


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
                "const": list(t.get("const", (1, 1))),
                "factors": [dict(f) for f in t["factors"]],
                "divide": [dict(f) for f in t.get("divide", ())],
            },
        })
    return out
