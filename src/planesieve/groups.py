"""Finite simple group parameters: orders, parabolic indices and their
factorizations.

GroupSpec is a validated discriminated record.  Each Lie-type family
states its simple (adjoint quotient) order once, as a record
(N, terms, divisor, center) with

    order = q^N * prod_terms(q^d - e) / prod_divisor(q^d - e) / center

(Carter, Simple Groups of Lie Type, 1972).  Parabolic indices cover the
families where a closed product formula is wired in, as ratios of the
same q^d - e factors.  order and parabolic_index evaluate these records
with exactmath.cyclotomic_ratio, exactly.  The factorizations of a
Lie-type order or index are read off the same records: each distinct
cyclotomic value Phi_k(q) in the q^d - e factors is factored once, never
the whole value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from .exactmath import (Factorization, cyclotomic_ratio, factor_cyclotomic_ratio, factorize,
                        is_prime_power)

# Orders of the sporadic groups, keyed by canonical name.
SPORADIC_ORDERS: dict[str, int] = {
    "M11": 7_920,
    "M12": 95_040,
    "M22": 443_520,
    "M23": 10_200_960,
    "M24": 244_823_040,
    "J1": 175_560,
    "J2": 604_800,
    "J3": 50_232_960,
    "J4": 86_775_571_046_077_562_880,
    "Co1": 4_157_776_806_543_360_000,
    "Co2": 42_305_421_312_000,
    "Co3": 495_766_656_000,
    "Fi22": 64_561_751_654_400,
    "Fi23": 4_089_470_473_293_004_800,
    "Fi24'": 1_255_205_709_190_661_721_292_800,
    "HS": 44_352_000,
    "McL": 898_128_000,
    "He": 4_030_387_200,
    "Ru": 145_926_144_000,
    "Suz": 448_345_497_600,
    "ON": 460_815_505_920,
    "HN": 273_030_912_000_000,
    "Ly": 51_765_179_004_000_000,
    "Th": 90_745_943_887_872_000,
    "B": 4_154_781_481_226_426_191_177_580_544_000_000,
    "M": 808_017_424_794_512_875_886_459_904_961_710_757_005_754_368_000_000_000,
}

# Representative subgroups of odd index in sporadic groups: (group,
# subgroup shape, index).  Each index is what the admissibility filter
# must reject; the pair (order, index) is cross-checked for exact
# divisibility in the test suite.
SPORADIC_ODD_INDEX: tuple[tuple[str, str, int], ...] = (
    ("M11", "M10", 11),
    ("M12", "4^2:D12", 495),
    ("M22", "2^4:A6", 77),
    ("M23", "M22", 23),
    ("M24", "2^6:3.S6", 1_771),
    ("J1", "2^3:7:3", 1_045),
    ("J2", "2^(1+4):A5", 315),
    ("HS", "4.2^4.S5", 5_775),
    ("McL", "2.A8", 22_275),
    ("Co1", "2^(1+8).O8+(2)", 46_621_575),
    ("Co2", "2^(1+8):Sp6(2)", 56_925),
    ("Co3", "2.Sp6(2)", 170_775),
)

_SPORADIC_ALIASES = {name.upper().replace("'", ""): name for name in SPORADIC_ORDERS}
_SPORADIC_ALIASES["O'N"] = "ON"

# Parameter names of each family, in command-line order.
_PARAMETERS = {"A": ("n",), "SPOR": ("name",), "PSL": ("n", "q"), "PSU": ("n", "q"),
               "PSp": ("n", "q"), "POmega": ("n", "q", "eps"), "E6": ("q", "eps"),
               **dict.fromkeys(("G2", "F4", "E7", "E8", "2B2", "2G2", "3D4", "2F4"), ("q",))}

# The (family, n, q) inside a classical family's range that are not simple.
_NOT_SIMPLE = {("PSL", 2, 2), ("PSL", 2, 3), ("PSU", 3, 2), ("PSp", 4, 2)}

# (p, least a) of each Suzuki-Ree family, whose q is p^a with a odd.
_SUZUKI_REE = {"2B2": (2, 3), "2G2": (3, 3), "2F4": (2, 1)}


@dataclass(frozen=True)
class GroupSpec:
    """One finite simple group.  n is the linear rank parameter (degree
    for alternating), q the field size with characteristic p and exponent
    e, eps the form sign for POmega/E6, name the sporadic key."""

    family: str
    n: int | None = None
    q: int | None = None
    eps: str | None = None
    name: str | None = None
    p: int | None = None
    e: int | None = None

    def __str__(self) -> str:
        # the family's own parameters: A7, M11, PSL(2,13), POmega+(8,3), E6-(2)
        if self.family == "SPOR":
            return str(self.name)
        names = _PARAMETERS[self.family]
        shown = ",".join(str(getattr(self, name)) for name in names if name != "eps")
        head = self.family + (self.eps if "eps" in names else "")
        return head + shown if self.family == "A" else f"{head}({shown})"

    @property
    def sign(self) -> int | None:
        """The form sign eps as +1 or -1; None when eps is "o" or unset."""
        return 1 if self.eps == "+" else -1 if self.eps == "-" else None


def group_spec(family: str, n: int | None = None, q: int | None = None,
               eps: str | None = None, name: str | None = None) -> GroupSpec:
    """Validated constructor; raises ValueError outside each family's
    simple range."""
    if family == "A":
        if n is None or n < 5:
            raise ValueError(f"alternating degree must be >= 5, got {n}")
        return GroupSpec("A", n=n)
    if family == "SPOR":
        key = _SPORADIC_ALIASES.get((name or "").upper().replace("'", ""))
        if key is None:
            raise ValueError(f"unknown sporadic group {name!r}")
        return GroupSpec("SPOR", name=key)
    if q is None:
        raise ValueError(f"{family} requires a field size")
    pp = is_prime_power(q) if q >= 2 else None
    if pp is None:
        raise ValueError(f"{family}: q = {q} is not a prime power")
    p, e = pp
    if family == "PSL":
        if n is None or n < 2:
            raise ValueError(f"PSL rank must be >= 2, got {n}")
    elif family == "PSU":
        if n is None or n < 3:
            raise ValueError(f"PSU rank must be >= 3, got {n}")
    elif family == "PSp":
        if n is None or n < 4 or n % 2:
            raise ValueError(f"PSp dimension must be even and >= 4, got {n}")
    elif family == "POmega":
        if eps not in ("+", "-", "o"):
            raise ValueError(f"POmega sign must be one of + - o, got {eps!r}")
        if eps == "o":
            if n is None or n < 7 or n % 2 == 0:
                raise ValueError(f"odd-dimensional orthogonal needs odd n >= 7, got {n}")
            if p == 2:
                raise ValueError("odd-dimensional orthogonal groups need odd q")
        else:
            if n is None or n < 8 or n % 2:
                raise ValueError(f"even-dimensional orthogonal needs even n >= 8, got {n}")
    elif family == "G2":
        if q < 3:
            raise ValueError("G2 needs q >= 3")
    elif family == "E6":
        if eps not in ("+", "-"):
            raise ValueError(f"E6 sign must be + or -, got {eps!r}")
    elif family in _SUZUKI_REE:
        prime, least = _SUZUKI_REE[family]
        if p != prime or e % 2 == 0 or e < least:
            floor = f" >= {least}" if least > 1 else ""
            raise ValueError(f"{family} needs q = {prime}^a with a odd{floor}, got {q}")
    elif family not in _PARAMETERS:
        raise ValueError(f"unknown family {family!r}")
    if (family, n, q) in _NOT_SIMPLE:
        raise ValueError(f"{family}({n},{q}) is not simple")
    return GroupSpec(family, n=n, q=q, eps=eps, p=p, e=e)


# (N, terms, divisor) of the exceptional families other than E6; the
# 3D4 factor q^8 + q^4 + 1 is (q^12 - 1)/(q^4 - 1).
_EXCEPTIONAL_RECORDS = {
    "G2": (6, ((6, 1), (2, 1)), ()),
    "F4": (24, ((12, 1), (8, 1), (6, 1), (2, 1)), ()),
    "E7": (63, tuple((d, 1) for d in (18, 14, 12, 10, 8, 6, 2)), ()),
    "E8": (120, tuple((d, 1) for d in (30, 24, 20, 18, 14, 12, 8, 2)), ()),
    "2B2": (2, ((2, -1), (1, 1)), ()),
    "2G2": (3, ((3, -1), (1, 1)), ()),
    "3D4": (12, ((12, 1), (6, 1), (2, 1)), ((4, 1),)),
    "2F4": (12, ((6, -1), (4, 1), (3, -1), (1, 1)), ()),
}


def _order_record(spec: GroupSpec) -> tuple[int, tuple, tuple, int]:
    """(N, terms, divisor, center) with order = q^N * prod_terms(q^d - e)
    / prod_divisor(q^d - e) / center."""
    fam, q, n = spec.family, spec.q, spec.n
    if fam in ("PSL", "PSU"):
        s = 1 if fam == "PSL" else -1
        return n * (n - 1) // 2, tuple((i, s**i) for i in range(2, n + 1)), (), gcd(n, q - s)
    if fam == "PSp" or (fam == "POmega" and spec.eps == "o"):
        # PSp(2m, q) and POmega(2m+1, q) have the same order for odd q.
        m = n // 2
        return m * m, tuple((2 * i, 1) for i in range(1, m + 1)), (), gcd(2, q - 1)
    if fam == "POmega":
        m, s = n // 2, spec.sign
        terms = ((m, s),) + tuple((2 * i, 1) for i in range(1, m))
        return m * (m - 1), terms, (), gcd(4, q**m - s)
    if fam == "E6":
        s = spec.sign
        return 36, ((12, 1), (9, s), (8, 1), (6, 1), (5, s), (2, 1)), (), gcd(3, q - s)
    if fam not in _EXCEPTIONAL_RECORDS:
        raise ValueError(f"unknown family {fam!r}")
    center = 1
    if fam == "E7":
        center = gcd(2, q - 1)
    elif (fam, q) == ("2F4", 2):
        center = 2  # names the derived subgroup, which has index 2
    return (*_EXCEPTIONAL_RECORDS[fam], center)


def order(spec: GroupSpec) -> int:
    if spec.family == "A":
        return factorial(spec.n) // 2
    if spec.family == "SPOR":
        return SPORADIC_ORDERS[spec.name]
    q_exp, terms, divisor, center = _order_record(spec)
    return spec.q**q_exp * cyclotomic_ratio(spec.q, terms, divisor) // center


def _index_record(spec: GroupSpec, m: int) -> tuple[tuple, tuple]:
    """(num, den) with the index of the m-th maximal parabolic subgroup
    = prod_num(q^d - e) / prod_den(q^d - e)."""
    fam, n = spec.family, spec.n
    if fam in ("PSL", "PSU", "PSp"):
        top = n - 1 if fam == "PSL" else n // 2
        if not 1 <= m <= top:
            raise ValueError(f"{spec} parabolic range is 1..{top}, got {m}")
    if fam == "PSL":
        return tuple((n - i, 1) for i in range(m)), tuple((i + 1, 1) for i in range(m))
    if fam == "PSU":
        return (tuple((i, (-1) ** i) for i in range(n - 2 * m + 1, n + 1)),
                tuple((2 * i, 1) for i in range(1, m + 1)))
    if fam == "PSp":
        return tuple((n - 2 * i, 1) for i in range(m)), tuple((i, 1) for i in range(1, m + 1))
    if fam == "POmega":
        if m != 1:
            raise ValueError(f"only the point parabolic is wired for {spec}")
        if spec.eps == "o":
            return ((n - 1, 1),), ((1, 1),)
        return ((n // 2, spec.sign), ((n - 2) // 2, -spec.sign)), ((1, 1),)
    if fam == "G2":
        if m not in (1, 2):
            raise ValueError(f"G2 parabolic range is 1..2, got {m}")
        return ((6, 1),), ((1, 1),)
    raise ValueError(f"parabolic index not wired for family {fam}")


def parabolic_index(spec: GroupSpec, m: int) -> int:
    """Index of the m-th maximal parabolic subgroup (totally isotropic
    m-subspace stabilizer for the classical families)."""
    return cyclotomic_ratio(spec.q, *_index_record(spec, m))


def _checked(value: int, f: Factorization) -> Factorization:
    assert f.reassemble() == value
    return f


def order_factorization(spec: GroupSpec) -> Factorization:
    """Factorization of order(spec).  For Lie types it is read off the
    order record: q^N gives p^(e*N), each Phi_k(q) of the (q^d - e) ratio
    is factored once, and the center's primes are taken off."""
    value = order(spec)
    if spec.family in ("A", "SPOR"):
        return _checked(value, factorize(value))
    q_exp, terms, divisor, center = _order_record(spec)
    acc = dict(factor_cyclotomic_ratio(spec.q, terms, divisor).factors)
    acc[spec.p] = acc.get(spec.p, 0) + spec.e * q_exp
    for p, e in factorize(center).factors:
        acc[p] -= e
    factors = tuple(sorted((p, e) for p, e in acc.items() if e))
    return _checked(value, Factorization(value, factors))


def parabolic_index_factorization(spec: GroupSpec, m: int) -> Factorization:
    """Factorization of parabolic_index(spec, m), one Phi_k(q) at a time."""
    value = parabolic_index(spec, m)
    return _checked(value, factor_cyclotomic_ratio(spec.q, *_index_record(spec, m)))


# Smallest faithful permutation degrees that undercut the point parabolic
# index; used as subgroup-index floors.  Entries are (family, n, q).
_MIN_DEGREE_EXCEPTIONS = {
    ("PSL", 2, 5): 5, ("PSL", 2, 7): 7, ("PSL", 2, 9): 6, ("PSL", 2, 11): 11,
    ("PSL", 4, 2): 8,
    ("PSU", 3, 5): 50, ("PSU", 6, 2): 672,
    ("PSp", 4, 3): 27,
}


def min_proper_index(spec: GroupSpec) -> int | None:
    """A true lower bound on the index of any proper subgroup, or None
    when no safe bound is wired for the parameters."""
    key = (spec.family, spec.n, spec.q)
    if key in _MIN_DEGREE_EXCEPTIONS:
        return _MIN_DEGREE_EXCEPTIONS[key]
    fam, q = spec.family, spec.q
    if (fam, q) == ("PSp", 2):
        m = spec.n // 2
        return 2 ** (m - 1) * (2**m - 1)
    if fam == "POmega" and q <= 3 or fam == "G2" and q < 5:
        return None
    if fam in ("PSL", "PSU", "PSp", "POmega", "G2"):
        # PSU(4, q) acts on fewer isotropic lines, (q+1)(q^3+1), than points
        return parabolic_index(spec, 2 if (fam, spec.n) == ("PSU", 4) else 1)
    return None


def parse_group(tokens: list[str]) -> GroupSpec:
    """Parse the token grammar used on the command line:

    PSL n q | PSU n q | PSp n q | POmega n q +|-|o | G2 q | F4 q
    | E6 q +|- | E7 q | E8 q | 2B2 q | 2G2 q | 3D4 q | 2F4 q
    | A n | SPOR name
    """
    if not tokens:
        raise ValueError("empty group description")
    fam = tokens[0]
    rest = tokens[1:]
    if fam not in _PARAMETERS:
        raise ValueError(f"unknown family {fam!r}")
    names = _PARAMETERS[fam]
    if len(rest) != len(names):
        raise ValueError(f"{fam} takes {len(names)} parameter(s), got {len(rest)}")

    def as_int(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"expected an integer, got {token!r}") from None

    return group_spec(fam, **{name: as_int(token) if name in ("n", "q") else token
                              for name, token in zip(names, rest)})
