"""Involution class catalog: template matching, exact sizes, and order
divisibility."""

import json
from math import gcd

import pytest

from _oracles import (brute_psl2_involutions, brute_psl_involution_classes,
                      brute_psp43_involution_classes)
from planesieve.catalog import (CLASS_TEMPLATES, catalog_records, classes_for,
                                involution_class_size)
from planesieve.groups import group_spec, order

from test_groups import _valid_specs


def _size(spec, label):
    for t in classes_for(spec):
        if t["label"] == label:
            return involution_class_size(t, spec)
    raise AssertionError(f"{label} does not cover {spec}")


def test_template_labels_unique():
    labels = [t["label"] for t in CLASS_TEMPLATES]
    assert len(labels) == len(set(labels)) == 22


def test_template_parities_valid():
    assert {t["parity"] for t in CLASS_TEMPLATES} <= {"odd", "even", "mixed"}


FROZEN = [
    (("PSL", {"n": 2, "q": 13}), "psl2-odd-plus", 91),
    (("PSL", {"n": 2, "q": 7}), "psl2-odd-minus", 21),
    (("PSL", {"n": 2, "q": 4}), "psl2-even", 15),
    (("PSL", {"n": 3, "q": 13}), "psl3-odd", 30927),
    (("PSL", {"n": 3, "q": 2}), "psl3-even", 21),
    (("PSL", {"n": 4, "q": 2}), "psl-transvection", 105),
    (("PSL", {"n": 5, "q": 2}), "psl-transvection", 465),
    (("PSp", {"n": 4, "q": 7}), "psp4", 1225),
    (("PSp", {"n": 6, "q": 7}), "psp-central", 7**4 * (7**4 + 7**2 + 1)),
    (("PSU", {"n": 5, "q": 7}), "psu-odd-n-bound", 7**4 * (7**5 + 1) // 8),
    (("POmega", {"n": 7, "q": 7, "eps": "o"}), "omega-odd-plus", 343 * 344 // 2),
    (("POmega", {"n": 7, "q": 7, "eps": "o"}), "omega-odd-minus", 343 * 342 // 2),
    (("POmega", {"n": 9, "q": 7, "eps": "o"}), "omega-odd-plus", 2401 * 2402 // 2),
    (("POmega", {"n": 9, "q": 7, "eps": "o"}), "omega-odd-minus", 2401 * 2400 // 2),
    (("G2", {"q": 7}), "g2", 7**4 * (7**4 + 7**2 + 1)),
    (("F4", {"q": 7}), "f4", 7**8 * (7**8 + 7**4 + 1)),
    (("3D4", {"q": 7}), "threeD4", 7**8 * (7**8 + 7**4 + 1)),
    (("E6", {"q": 7, "eps": "-"}), "e6",
     7**16 * (7**2 - 7 + 1) * (7**6 - 7**3 + 1) * (7**8 + 7**4 + 1)),
    (("E6", {"q": 7, "eps": "+"}), "e6",
     7**16 * (7**2 + 7 + 1) * (7**6 + 7**3 + 1) * (7**8 + 7**4 + 1)),
    (("E7", {"q": 7}), "e7-plus",
     gcd(4, 7 - 1) * 7**35 * (7**7 + 1) * (7**5 + 1) * (7**3 + 1)
     * (7**8 + 7**4 + 1) * (7**12 + 7**6 + 1)),
    (("E7", {"q": 7}), "e7-minus",
     gcd(4, 7 - 1) * 7**35 * (7**7 - 1) * (7**5 - 1) * (7**3 - 1)
     * (7**8 + 7**4 + 1) * (7**12 + 7**6 + 1)),
    (("E8", {"q": 7}), "e8",
     2 * 7**56 * (7**10 + 1) * (7**12 + 1) * (7**6 + 1) * (7**30 - 1) // (7**2 - 1)),
]


@pytest.mark.parametrize("spec_args,label,expected", FROZEN)
def test_frozen_class_sizes(spec_args, label, expected):
    fam, kwargs = spec_args
    assert _size(group_spec(fam, **kwargs), label) == expected


GRID = [
    ("PSL", {"n": 2, "q": 5}), ("PSL", {"n": 2, "q": 9}),
    ("PSL", {"n": 2, "q": 16}), ("PSL", {"n": 3, "q": 4}),
    ("PSL", {"n": 4, "q": 3}), ("PSL", {"n": 6, "q": 2}),
    ("PSU", {"n": 5, "q": 3}), ("PSU", {"n": 7, "q": 3}),
    ("PSp", {"n": 4, "q": 5}), ("PSp", {"n": 6, "q": 3}),
    ("POmega", {"n": 7, "q": 3, "eps": "o"}),
    ("POmega", {"n": 11, "q": 13, "eps": "o"}),
    ("G2", {"q": 13}), ("F4", {"q": 13}), ("3D4", {"q": 13}),
    ("E6", {"q": 13, "eps": "-"}), ("E7", {"q": 7}), ("E8", {"q": 7}),
]


def test_class_sizes_positive_and_dividing():
    checked = 0
    for fam, kwargs in GRID:
        spec = group_spec(fam, **kwargs)
        for t in classes_for(spec):
            size = involution_class_size(t, spec)
            assert size > 0
            if t["exact"]:
                assert order(spec) % size == 0, (str(spec), t["label"])
            checked += 1
    assert checked >= 18


def _forms_and_coefficients(template):
    """Each exponent form [a, b] or [a, b, d] of template, a geometric
    factor's top as [a, b, step], and each poly coefficient."""
    forms, coeffs = [], []
    for factor in (*template["factors"], *template.get("divide", ())):
        kind = factor["kind"]
        assert kind in ("qpow", "poly", "geom", "gcd"), kind
        if kind == "qpow":
            forms.append(factor["exp"])
        elif kind == "geom":
            forms.append([*factor["top"], factor["step"]])
        elif kind == "poly":
            coeffs += [coeff for coeff, _ in factor["terms"]]
            forms += [exp for _, exp in factor["terms"]]
    return forms, coeffs


def test_every_template_evaluates_across_its_window():
    # every Lie-type family, n <= 20, q <= 128 and each eps reaches every
    # template; at each covering spec a form in n has a rank, each form
    # division and geometric step is exact, a sign coefficient has a sign,
    # and the size is a positive integer
    reached = set()
    for spec in _valid_specs(128, 20):
        for t in classes_for(spec):
            forms, coeffs = _forms_and_coefficients(t)
            for a, b, *d in forms:
                assert a == 0 or spec.n is not None, (str(spec), t["label"])
                assert (a * (spec.n or 0) + b) % (d[0] if d else 1) == 0, (str(spec), t["label"])
            assert "e" not in coeffs or t.get("sign") or spec.eps in ("+", "-"), t["label"]
            size = involution_class_size(t, spec)
            assert type(size) is int and size > 0, (str(spec), t["label"])
            reached.add(t["label"])
    assert reached == {t["label"] for t in CLASS_TEMPLATES}
    assert len(reached) == 22


def test_parity_flags_match_the_sizes():
    # "odd" and "even" templates give sizes of that parity alone across
    # n <= 20, q <= 128 and each eps; a "mixed" one gives both
    seen = {}
    for spec in _valid_specs(128, 20):
        for t in classes_for(spec):
            seen.setdefault(t["label"], set()).add(involution_class_size(t, spec) % 2)
    want = {"odd": {1}, "even": {0}, "mixed": {0, 1}}
    assert {t["label"]: want[t["parity"]] for t in CLASS_TEMPLATES} == seen


def test_cover_test_rejects_an_unknown_validity_key(monkeypatch):
    # a misspelt key must not widen the window: psl2-odd-plus with q_mod4
    # misspelt would otherwise cover PSL(2,7)
    template = next(t for t in CLASS_TEMPLATES if t["label"] == "psl2-odd-plus")
    misspelt = dict(template, valid={"n_exact": 2, "q_parity": "odd", "q_mod_4": 1})
    spec = group_spec("PSL", n=2, q=7)
    message = "psl2-odd-plus: unknown validity key 'q_mod_4'"
    with pytest.raises(ValueError) as info:
        involution_class_size(misspelt, spec)
    assert str(info.value) == message
    monkeypatch.setattr("planesieve.catalog.CLASS_TEMPLATES", (misspelt,))
    with pytest.raises(ValueError) as info:
        classes_for(spec)
    assert str(info.value) == message


def test_classes_for_hands_out_catalog_templates_in_order():
    ids = [id(t) for t in CLASS_TEMPLATES]
    for fam, kwargs in GRID:
        positions = [ids.index(id(t)) for t in classes_for(group_spec(fam, **kwargs))]
        assert positions and positions == sorted(set(positions)), (fam, kwargs)


@pytest.mark.parametrize("label, spec", [
    ("psl2-odd-plus", group_spec("PSL", n=2, q=7)),
    ("g2", group_spec("PSL", n=3, q=7)),
    ("psp-central", group_spec("PSp", n=4, q=7)),
])
def test_class_size_rejects_a_template_that_does_not_cover(label, spec):
    template = next(t for t in CLASS_TEMPLATES if t["label"] == label)
    with pytest.raises(ValueError) as info:
        involution_class_size(template, spec)
    assert str(info.value) == f"{label} does not cover {spec}"


def test_uncovered_families_yield_no_classes():
    assert classes_for(group_spec("A", n=7)) == ()
    assert classes_for(group_spec("SPOR", name="M11")) == ()
    assert classes_for(group_spec("POmega", n=8, q=7, eps="+")) == ()
    assert classes_for(group_spec("PSU", n=4, q=3)) == ()


def test_eps_validity_distinguishes_forms():
    minus = _size(group_spec("E6", q=7, eps="-"), "e6")
    plus = _size(group_spec("E6", q=7, eps="+"), "e6")
    assert minus != plus
    odd9 = classes_for(group_spec("POmega", n=9, q=7, eps="o"))
    assert {t["label"] for t in odd9} >= {"omega-odd-plus", "omega-odd-minus"}


def test_psl2_parity_split_by_q_mod_4():
    assert [t["label"] for t in classes_for(group_spec("PSL", n=2, q=13))] \
        == ["psl2-odd-plus"]
    assert [t["label"] for t in classes_for(group_spec("PSL", n=2, q=7))] \
        == ["psl2-odd-minus"]
    assert [t["label"] for t in classes_for(group_spec("PSL", n=2, q=8))] \
        == ["psl2-even"]


@pytest.mark.parametrize("q, label, count", [
    (4, "psl2-even", 15), (5, "psl2-odd-plus", 15), (7, "psl2-odd-minus", 21),
    (9, "psl2-odd-plus", 45), (11, "psl2-odd-minus", 55), (13, "psl2-odd-plus", 91),
])
def test_psl2_involutions_match_brute_force(q, label, count):
    # PSL(2,q) has one class of involutions, so the catalog's one class
    # must hold every involution the enumeration finds
    spec = group_spec("PSL", n=2, q=q)
    entries = classes_for(spec)
    assert [t["label"] for t in entries] == [label]
    assert brute_psl2_involutions(q) == involution_class_size(entries[0], spec) == count


# Each template's anchor names its involution by its fixed space: a line
# for eigenvalues -1,-1,1, a hyperplane for a transvection.  PSL(4,2) = A8
# has a second class, the 210 involutions fixing a plane, which the
# catalog leaves out.
@pytest.mark.parametrize("n, p, label, fixed_dim, omitted", [
    (3, 3, "psl3-odd", 1, {}),
    (3, 2, "psl3-even", 2, {}),
    (4, 2, "psl-transvection", 3, {2: 210}),
])
def test_psl_involution_classes_match_brute_force(n, p, label, fixed_dim, omitted):
    spec = group_spec("PSL", n=n, q=p)
    entries = classes_for(spec)
    assert [t["label"] for t in entries] == [label]
    found = brute_psl_involution_classes(n, p)
    listed = {fixed_dim: involution_class_size(entries[0], spec)}
    matched = {dim: count for dim, count in found.items() if listed.get(dim) == count}
    assert matched == listed
    assert {dim: count for dim, count in found.items() if dim not in listed} == omitted


# PSp(4,3) = U4(2) has two involution classes: 45 lifting to g^2 = I
# (ATLAS 2A) and 270 lifting to g^2 = -I (2B).  The catalog leaves out
# the 270.
def test_psp43_involution_classes_match_brute_force():
    spec = group_spec("PSp", n=4, q=3)
    entries = classes_for(spec)
    assert [t["label"] for t in entries] == ["psp4"]
    sp_order, found = brute_psp43_involution_classes()
    assert sp_order == 2 * order(spec) == 51840
    listed = {1: involution_class_size(entries[0], spec)}
    matched = {sign: count for sign, count in found.items() if listed.get(sign) == count}
    assert matched == listed
    assert {sign: count for sign, count in found.items() if sign not in listed} == {-1: 270}


def test_catalog_records_serializable():
    records = catalog_records()
    assert len(records) == 22
    text = json.dumps(records)
    assert "psl2-odd-plus" in text
    for rec in records:
        assert rec["anchor"]
        assert rec["parity"] in ("odd", "even", "mixed")


def test_exact_flags_are_stable():
    by_label = {t["label"]: t["exact"] for t in CLASS_TEMPLATES}
    assert by_label["psl2-odd-plus"] is True
    assert by_label["g2"] is True
    assert by_label["e7-plus"] is False
    assert by_label["e8"] is False
