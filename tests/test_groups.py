"""Group orders and indices against brute-force matrix enumeration and
published order values."""

import hashlib
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planesieve.exactmath import factorize, gaussian_binomial, is_prime_power
from planesieve.groups import (SPORADIC_ODD_INDEX, SPORADIC_ORDERS, group_spec,
                               min_proper_index, order, order_factorization,
                               parabolic_index, parabolic_index_factorization, parse_group)

from _oracles import brute_psl2_order


@pytest.mark.parametrize("q,expected", [(4, 60), (5, 60), (7, 168), (9, 360)])
def test_psl2_order_matches_matrix_enumeration(q, expected):
    brute = brute_psl2_order(q)
    assert brute == expected
    assert order(group_spec("PSL", n=2, q=q)) == brute


def _gf2_matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) % 2
                       for j in range(3)) for i in range(3))


def _gf2_rank(m):
    rows = [list(r) for r in m]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(3):
            if r != rank and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_transvection_count_matches_brute_force():
    identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    zero = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    count = 0
    for bits in product((0, 1), repeat=9):
        m = (bits[0:3], bits[3:6], bits[6:9])
        if m == identity or _gf2_rank(m) < 3:
            continue
        delta = tuple(tuple((m[i][j] - identity[i][j]) % 2 for j in range(3))
                      for i in range(3))
        if _gf2_rank(delta) == 1 and _gf2_matmul(delta, delta) == zero:
            count += 1
    assert count == 21

    from planesieve.catalog import classes_for, involution_class_size
    spec = group_spec("PSL", n=3, q=2)
    sizes = {t["label"]: involution_class_size(t, spec) for t in classes_for(spec)}
    assert sizes["psl3-even"] == 21


@pytest.mark.parametrize("tokens,expected", [
    (["PSL", "2", "7"], 168),
    (["PSL", "2", "13"], 1092),
    (["PSL", "3", "2"], 168),
    (["PSL", "3", "4"], 20160),
    (["PSU", "3", "3"], 6048),
    (["PSU", "4", "2"], 25920),
    (["PSp", "6", "2"], 1451520),
    (["POmega", "7", "3", "o"], 4585351680),
    (["G2", "4"], 251596800),
    (["2B2", "8"], 29120),
    (["2G2", "27"], 10073444472),
    (["3D4", "2"], 211341312),
    (["2F4", "2"], 17971200),
    (["A", "7"], 2520),
    (["SPOR", "M11"], 7920),
    (["SPOR", "J2"], 604800),
    # ATLAS of Finite Groups (Conway et al., 1985)
    (["E6", "2", "+"], 214841575522005575270400),
    (["E6", "2", "-"], 76532479683774853939200),
    (["F4", "2"], 3311126603366400),
    (["E7", "2"], 7997476042075799759100487262680802918400),
    (["E8", "2"], 337804753143634806261388190614085595079991692242467651576160959909068800000),
    (["POmega", "8", "2", "+"], 174182400),
    (["POmega", "8", "2", "-"], 197406720),
    (["POmega", "10", "2", "+"], 23499295948800),
    (["POmega", "10", "2", "-"], 25015379558400),
    (["2B2", "32"], 32537600),
    (["G2", "3"], 4245696),
    (["PSp", "4", "3"], 25920),
    (["PSp", "6", "3"], 4585351680),
    (["PSU", "4", "3"], 3265920),
    (["PSU", "5", "2"], 13685760),
    (["PSL", "3", "3"], 5616),
])
def test_known_orders(tokens, expected):
    assert order(parse_group(tokens)) == expected


def test_order_factorization_gives_p_valuation_of_order():
    for tokens in (["PSL", "2", "13"], ["PSL", "4", "3"], ["PSp", "4", "7"],
                   ["PSU", "5", "2"], ["G2", "7"], ["3D4", "2"], ["2F4", "2"],
                   ["2F4", "8"], ["E6", "3", "-"], ["POmega", "8", "2", "+"],
                   ["PSU", "3", "8"]):
        spec = parse_group(tokens)
        expected = dict(factorize(order(spec)).factors).get(spec.p, 0)
        assert dict(order_factorization(spec).factors).get(spec.p, 0) == expected


def test_parabolic_index_matches_gaussian_binomial():
    for n in range(2, 7):
        for q in (2, 3, 4, 5):
            if (n, q) in ((2, 2), (2, 3)):
                continue
            spec = group_spec("PSL", n=n, q=q)
            for m in range(1, n):
                assert parabolic_index(spec, m) == gaussian_binomial(n, m, q)


@pytest.mark.parametrize("tokens,m,expected", [
    (["PSL", "5", "2"], 1, 31),
    (["PSL", "2", "13"], 1, 14),
    (["PSU", "6", "2"], 1, 693),
    (["G2", "7"], 1, 19608),
    (["POmega", "8", "2", "+"], 1, 135),
    (["POmega", "8", "2", "-"], 1, 119),
    (["POmega", "7", "3", "o"], 1, 364),
    (["PSp", "6", "2"], 1, 63),
    (["PSU", "4", "2"], 1, 45),
    (["PSp", "4", "3"], 1, 40),
    (["PSp", "4", "3"], 2, 40),
    (["PSU", "4", "3"], 2, 112),
    (["PSU", "5", "2"], 2, 297),
])
def test_parabolic_index_known(tokens, m, expected):
    assert parabolic_index(parse_group(tokens), m) == expected


def _valid_specs(q_max, n_max):
    """Every valid Lie-type spec with prime-power q <= q_max and n <= n_max."""
    params = ([(fam, n, None) for fam in ("PSL", "PSU", "PSp") for n in range(2, n_max + 1)]
              + [("POmega", n, eps) for n in range(7, n_max + 1) for eps in "+-o"]
              + [("E6", None, eps) for eps in "+-"]
              + [(fam, None, None)
                 for fam in ("G2", "F4", "E7", "E8", "2B2", "2G2", "3D4", "2F4")])
    specs = []
    for q in range(2, q_max + 1):
        if is_prime_power(q) is None:
            continue
        for fam, n, eps in params:
            try:
                specs.append(group_spec(fam, n=n, q=q, eps=eps))
            except ValueError:
                pass
    return specs


def _wired_indices(spec):
    """(m, parabolic_index(spec, m) or its error text) for m = 1..11."""
    out = []
    for m in range(1, 12):
        try:
            out.append((m, parabolic_index(spec, m)))
        except ValueError as exc:
            out.append((m, str(exc)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_valid_specs(256, 16)))
@example(group_spec("2F4", q=2))
def test_p_exponent_and_parabolic_indices_divide_order(spec):
    value = order(spec)
    rest, exponent = value, 0
    while rest % spec.p == 0:
        rest //= spec.p
        exponent += 1
    assert dict(order_factorization(spec).factors).get(spec.p, 0) == exponent
    for _, index in _wired_indices(spec):
        assert isinstance(index, str) or value % index == 0


def test_group_arithmetic_golden_digest():
    # byte-for-byte pin of order, every parabolic index (or its error
    # text) and min_proper_index over a fixed grid
    lines = [f"{spec} {order(spec)} {_wired_indices(spec)} {min_proper_index(spec)}\n"
             for spec in _valid_specs(64, 12)]
    assert len(lines) == 1117
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "c83afcc45ba2493e0ae7112b00a1d6e3be1d31578bca3913d9c7e06097024902")


def test_piecewise_factorizations_match_factorize():
    specs = _valid_specs(32, 9) + [group_spec("A", n=n) for n in range(5, 40)]
    specs += [group_spec("SPOR", name=name) for name in SPORADIC_ORDERS]
    for spec in specs:
        assert order_factorization(spec) == factorize(order(spec)), spec
        for m, index in _wired_indices(spec):
            if not isinstance(index, str):
                assert parabolic_index_factorization(spec, m) == factorize(index), (spec, m)


def test_min_proper_index_is_at_most_every_parabolic_index():
    for spec in _valid_specs(64, 12):
        floor = min_proper_index(spec)
        for _, index in _wired_indices(spec):
            assert floor is None or isinstance(index, str) or floor <= index, spec


def test_min_proper_index_known():
    assert min_proper_index(group_spec("PSL", n=2, q=13)) == 14
    assert min_proper_index(group_spec("PSL", n=5, q=2)) == 31
    assert min_proper_index(group_spec("G2", q=7)) == 19608
    assert min_proper_index(group_spec("G2", q=4)) is None
    assert min_proper_index(group_spec("POmega", n=7, q=3, eps="o")) is None
    assert min_proper_index(group_spec("A", n=7)) is None


def test_f4_centralizer_factorization():
    for q in (7, 13):
        f4 = order(group_spec("F4", q=q))
        b4 = 2 * order(group_spec("POmega", n=9, q=q, eps="o"))
        assert f4 % b4 == 0
        assert f4 // b4 == q**8 * (q**8 + q**4 + 1)


def test_sporadic_table_consistency():
    assert len(SPORADIC_ODD_INDEX) == 12
    for name, _, index in SPORADIC_ODD_INDEX:
        assert index % 2 == 1
        assert SPORADIC_ORDERS[name] % index == 0
    assert SPORADIC_ORDERS["M11"] == 7920
    assert SPORADIC_ORDERS["M12"] == 95040
    assert SPORADIC_ORDERS["Co1"] == 4157776806543360000


def test_group_spec_validation():
    with pytest.raises(ValueError):
        group_spec("PSL", n=1, q=5)
    with pytest.raises(ValueError):
        group_spec("PSL", n=2, q=6)            # not a prime power
    with pytest.raises(ValueError):
        group_spec("PSp", n=3, q=2)            # odd symplectic dimension
    with pytest.raises(ValueError):
        group_spec("POmega", n=8, q=3, eps="o")  # even n needs a sign
    with pytest.raises(ValueError):
        group_spec("2B2", q=4)                 # odd power of 2 required
    with pytest.raises(ValueError):
        group_spec("SPOR", name="M13")
    for family, kwargs, message in (
        ("A", {"n": 4}, "alternating degree must be >= 5, got 4"),
        ("PSL", {"n": 3}, "PSL requires a field size"),
        ("POmega", {"n": 8, "q": 3, "eps": "x"}, "POmega sign must be one of + - o, got 'x'"),
        ("XYZ", {"q": 4}, "unknown family 'XYZ'"),
        ("PSL", {"n": 2, "q": 2}, "PSL(2,2) is not simple"),
        ("PSL", {"n": 2, "q": 3}, "PSL(2,3) is not simple"),
        ("PSU", {"n": 3, "q": 2}, "PSU(3,2) is not simple"),
        ("PSp", {"n": 4, "q": 2}, "PSp(4,2) is not simple"),
    ):
        with pytest.raises(ValueError) as info:
            group_spec(family, **kwargs)
        assert str(info.value) == message
    assert group_spec("POmega", n=8, q=3, eps="+").sign == 1
    assert group_spec("E6", q=2, eps="-").sign == -1
    assert group_spec("POmega", n=7, q=3, eps="o").sign is None
    assert group_spec("PSL", n=3, q=4).sign is None


def test_parse_group_errors():
    with pytest.raises(ValueError):
        parse_group([])
    with pytest.raises(ValueError):
        parse_group(["XYZ", "3"])
    with pytest.raises(ValueError):
        parse_group(["PSL", "2"])
    with pytest.raises(ValueError):
        parse_group(["PSL", "2", "x"])
    for tokens, name in (
        (["PSL", "2", "13"], "PSL(2,13)"),
        (["PSU", "4", "3"], "PSU(4,3)"),
        (["PSp", "6", "5"], "PSp(6,5)"),
        (["POmega", "8", "3", "+"], "POmega+(8,3)"),
        (["POmega", "10", "2", "-"], "POmega-(10,2)"),
        (["POmega", "7", "3", "o"], "POmegao(7,3)"),
        (["G2", "5"], "G2(5)"),
        (["F4", "2"], "F4(2)"),
        (["E6", "2", "+"], "E6+(2)"),
        (["E6", "3", "-"], "E6-(3)"),
        (["E7", "3"], "E7(3)"),
        (["E8", "2"], "E8(2)"),
        (["2B2", "8"], "2B2(8)"),
        (["2G2", "27"], "2G2(27)"),
        (["3D4", "2"], "3D4(2)"),
        (["2F4", "2"], "2F4(2)"),
        (["A", "7"], "A7"),
        (["SPOR", "o'n"], "ON"),
    ):
        assert str(parse_group(tokens)) == name
    # a family prints only its own parameters, whatever else the spec holds
    assert str(group_spec("G2", n=5, q=7)) == "G2(7)"
