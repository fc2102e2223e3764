"""Monoid rings over a coefficient domain: contents, graded ideals, and the
coefficient/exponent decomposition of homogeneous classes."""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sgclass import domains as dom
from sgclass import ideals as mid
from sgclass.errors import CapabilityError, ExtractionError, ParseError
from sgclass.graded import (
    MAX_NESTING,
    GradedElement,
    IdealPair,
    content,
    decompose_class,
    dedekind_mertens_exponent,
    extract_pair,
    graded_element,
    homogeneous_class_is_trivial,
    homogeneous_ideal,
    homogeneous_membership,
    in_monoid_ring,
    inverse_content_product_check,
    lift_coefficient_class,
    monomial,
    pair_colon,
    pair_is_t_invertible,
    pair_v,
    parse_element,
    transfer_criterion_report,
)
from sgclass.semigroups import MonoidDescriptor, from_generators, parse_monoid

Z = dom.CoefficientDomain.integers()
Q = dom.CoefficientDomain.rationals()
D5 = dom.CoefficientDomain.z_sqrt(-5)
D3 = dom.CoefficientDomain.z_sqrt(-3)
S23 = from_generators([2, 3])
S1 = from_generators([1])
S35 = from_generators([3, 5])


def test_parse_and_format_round_trip():
    x = parse_element(Z, S23, "2+3*X^2")
    assert x.terms == ((0, 2), (2, 3))
    assert x.text() == "2+3*X^2"
    y = parse_element(Q, S23, "1/2-X^3+2*X^5")
    assert y.text() == "1/2-X^3+2*X^5"
    w = parse_element(D5, S23, "(1+w)*X^2-2")
    assert w.text() == "-2+(1+w)*X^2"
    assert parse_element(Z, S23, "0").terms == ()


def test_parse_rejects_malformed_text():
    for text in ("2+", "X^", "1//2", "q*X", "(2+3", ""):
        with pytest.raises(ParseError):
            parse_element(Z, S23, text)


@given(st.sampled_from((Z, Q, D5)),
       st.text(alphabet="0123456789()+-*/^Xw ", max_size=40) | st.text(max_size=40))
@example(Z, "(" * 3000 + "1" + ")" * 3000)
@settings(deadline=None)
def test_parse_element_raises_only_value_errors(domain, text):
    try:
        parse_element(domain, S23, text)
    except ValueError:
        pass


def test_parse_nesting_is_capped():
    deep = "(" * MAX_NESTING + "X" + ")" * MAX_NESTING
    assert parse_element(Z, S23, deep).text() == "X"
    with pytest.raises(ParseError, match="nested deeper"):
        parse_element(Z, S23, "(" + deep + ")")


def test_ring_arithmetic_on_fixed_elements():
    x = parse_element(Z, S23, "2+3*X^2")
    y = parse_element(Z, S23, "X^3-1")
    assert (x + y).text() == "1+3*X^2+X^3"
    assert (x * y).text() == "-2-3*X^2+2*X^3+3*X^5"
    assert (x - x).terms == ()
    assert (x * y) * y == x * (y * y)


def _random_terms(rng, domain):
    """Up to six (exponent, coefficient) terms over few exponents, so that
    exponents repeat and coefficients cancel; Q gets float halves."""
    terms = []
    for _ in range(rng.randint(0, 6)):
        if domain is D5:
            coeff = D5.element(rng.randint(-2, 2), rng.randint(-2, 2))
        elif domain is Q:
            coeff = rng.randint(-4, 4) / 2
        else:
            coeff = rng.randint(-2, 2)
        terms.append((rng.randint(-1, 3), coeff))
    return terms


def test_repeated_exponents_are_summed():
    rng = random.Random(4)
    for domain in (Z, Q, D5):
        for _ in range(60):
            terms = _random_terms(rng, domain)
            x = graded_element(domain, S23, terms)
            expected = graded_element(domain, S23, [])
            for g, b in terms:
                expected = expected + monomial(domain, S23, g, b)
            assert x == expected
            sums = {}
            for g, b in terms:
                sums[g] = sums.get(g, 0) + domain.coerce(b)
            assert x.terms == tuple(sorted((g, b) for g, b in sums.items() if b))
    assert graded_element(Z, S23, [(2, 3), (2, -3)]).terms == ()


def test_arithmetic_keeps_coefficients_exact():
    rng = random.Random(5)
    for domain in (Z, Q, D5):
        for _ in range(40):
            x = graded_element(domain, S23, _random_terms(rng, domain))
            y = graded_element(domain, S23, _random_terms(rng, domain))
            for z in (x + y, x - y, x * y, -x, x * 0.5, y - 0.5):
                for b in z.coefficients:
                    parts = (b.x, b.y) if domain is D5 else (b,)
                    # int when integral, else Fraction; 0.5 must never leave a float
                    assert all(type(p) is (int if p.denominator == 1 else Fraction)
                               for p in parts)


def test_negative_exponents_model_the_group_ring():
    x = graded_element(Z, S1, [(-2, 1), (1, 3)])
    y = graded_element(Z, S1, [(2, 1)])
    assert (x * y).terms == ((0, 1), (3, 3))
    assert in_monoid_ring(y)
    assert not in_monoid_ring(x)


def test_monoid_ring_membership_depends_on_domain_and_exponents():
    assert in_monoid_ring(parse_element(Q, S23, "1/2*X^2"))
    assert not in_monoid_ring(parse_element(Q, S23, "1/2*X"))
    assert not in_monoid_ring(parse_element(Z, S23, "1/2*X^2"))
    assert in_monoid_ring(parse_element(Z, S23, "5+X^2"))


def test_content_fixtures():
    x = parse_element(Z, S23, "2+3*X^2")
    assert content(x) == dom.unit_ideal(Z)
    assert content(parse_element(Z, S23, "4+6*X^3")).scale == 2
    w = parse_element(D5, S23, "2+(1+w)*X^2")
    assert content(w) == dom.ideal_from_generators(D5, [2, D5.element(1, 1)])
    assert content(parse_element(Q, S23, "2/3+5*X^2")) == dom.unit_ideal(Q)
    with pytest.raises(ValueError):
        content(parse_element(Z, S23, "0"))


def model_component_membership(ideal, beta, coeff):
    """Coefficient-side membership via integer gcd, independent of lattices."""
    active = [a for (a, alpha) in ideal.gens if ideal.monoid.contains(beta - alpha)]
    if not active:
        return coeff == 0
    g = 0
    for a in active:
        g = gcd(g, int(a))
    return int(coeff) % g == 0


def test_homogeneous_membership_fixture():
    i = homogeneous_ideal(Z, S23, [(2, 0), (3, 2)])
    assert not homogeneous_membership(i, parse_element(Z, S23, "X^2+X^3"))
    assert homogeneous_membership(i, parse_element(Z, S23, "2*X^3"))
    assert homogeneous_membership(i, parse_element(Z, S23, "X^2+2*X^3"))
    assert not homogeneous_membership(i, parse_element(Z, S23, "X^3"))
    assert homogeneous_membership(i, parse_element(Z, S23, "0"))


def test_homogeneous_membership_matches_gcd_model():
    i = homogeneous_ideal(Z, S23, [(4, 2), (6, 3), (10, 4)])
    for beta in range(0, 10):
        for coeff in (-12, -5, -2, 1, 2, 3, 4, 5, 6, 8, 12, 20):
            elem = monomial(Z, S23, beta, coeff)
            assert homogeneous_membership(i, elem) == \
                model_component_membership(i, beta, coeff)


def terms_ideal(x):
    """The homogeneous ideal generated by the terms of x."""
    return homogeneous_ideal(x.domain, x.monoid, [(b, g) for g, b in x.terms])


def generator_products(i, j):
    """The homogeneous ideal generated by the products of the generators of
    i and j, which is the product ideal i*j."""
    return homogeneous_ideal(i.domain, i.monoid, [(a1 * a2, g1 + g2)
                                                  for a1, g1 in i.gens
                                                  for a2, g2 in j.gens])


def test_content_of_a_principal_homogeneous_product():
    h = homogeneous_ideal(Z, S23, [(1, 2)])
    x = parse_element(Z, S23, "2+3*X^2")
    lhs = terms_ideal(monomial(Z, S23, 2) * x)
    rhs = generator_products(h, terms_ideal(x))
    for beta in range(0, 10):
        for coeff in (-6, -3, -2, 1, 2, 3, 4, 6, 9):
            probe = monomial(Z, S23, beta, coeff)
            assert homogeneous_membership(lhs, probe) == \
                homogeneous_membership(rhs, probe)


def test_ideal_products_multiply_generators():
    i = homogeneous_ideal(Z, S23, [(2, 2)])
    j = homogeneous_ideal(Z, S23, [(3, 3), (5, 4)])
    p = generator_products(i, j)
    x = parse_element(Z, S23, "2*X^2+4*X^4")
    y = parse_element(Z, S23, "3*X^3-5*X^4+6*X^5")
    assert homogeneous_membership(i, x) and homogeneous_membership(j, y)
    assert homogeneous_membership(p, x * y)
    assert homogeneous_membership(p, parse_element(Z, S23, "6*X^5"))
    assert homogeneous_membership(p, parse_element(Z, S23, "10*X^6"))
    assert not homogeneous_membership(p, parse_element(Z, S23, "3*X^5"))


def test_pair_membership_worked_example():
    y0 = mid.ideal_from_generators(S23, [2, 3])
    two_pair = IdealPair(dom.ideal_from_generators(Z, [2]), y0)
    h = homogeneous_ideal(Z, S23, [(2, 2), (2, 3)])
    assert extract_pair(h, assume_divisorial=True) == two_pair
    assert homogeneous_membership(h, parse_element(Z, S23, "2*X^2"))
    assert not homogeneous_membership(h, parse_element(Z, S23, "2*X"))
    assert not homogeneous_membership(h, parse_element(Z, S23, "X^2"))
    assert homogeneous_membership(h, parse_element(Z, S23, "0"))
    unit = homogeneous_ideal(Z, S23, [(1, 0)])
    assert homogeneous_membership(unit, parse_element(Z, S23, "X^2"))


def test_pair_colon_splits_componentwise():
    y0 = mid.ideal_from_generators(S23, [2, 3])
    two_pair = IdealPair(dom.ideal_from_generators(Z, [2]), y0)
    q = pair_colon(IdealPair(dom.unit_ideal(Z), mid.unit_ideal(S23)), two_pair)
    assert q.coeff.scale == Fraction(1, 2)
    assert q.exps == mid.inverse(y0)
    assert q.exps.min_generators == (0, 1)


def test_pair_closures_are_componentwise():
    y0 = mid.ideal_from_generators(S23, [2, 3])
    two_pair = IdealPair(dom.ideal_from_generators(Z, [2]), y0)
    assert pair_v(two_pair) == IdealPair(dom.v_closure(two_pair.coeff),
                                         mid.v_closure(y0))


def test_pair_invertibility_and_principality():
    p5 = IdealPair(dom.ideal_from_generators(D5, [2, D5.element(1, 1)]),
                   mid.unit_ideal(S1))
    assert pair_is_t_invertible(p5)
    assert dom.is_principal(p5.coeff) is None
    shift_pair = IdealPair(dom.ideal_from_generators(Z, [3]),
                           mid.ideal_from_generators(S23, [4]))
    assert pair_is_t_invertible(shift_pair)
    assert dom.is_principal(shift_pair.coeff) == 3
    assert mid.is_principal(shift_pair.exps)
    y0_pair = IdealPair(dom.unit_ideal(Z),
                        mid.ideal_from_generators(S23, [2, 3]))
    assert not pair_is_t_invertible(y0_pair)


def test_extraction_recovers_clean_pairs():
    y0 = mid.ideal_from_generators(S23, [2, 3])
    two_pair = IdealPair(dom.ideal_from_generators(Z, [2]), y0)
    assert extract_pair(homogeneous_ideal(Z, S23, [(2, 2), (2, 3)]),
                        assume_divisorial=True) == two_pair
    single = homogeneous_ideal(D5, S23, [(D5.element(1, 1), 3)])
    sp = extract_pair(single, assume_divisorial=True)
    assert sp.exps.min_generators == (3,)
    assert sp.coeff.contains(D5.element(1, 1))


def test_extraction_pins_the_first_degree_that_does_not_split():
    # (2, 1+w) is the non-principal prime over 2; degree 1 is reached by 2*X only
    prime = dom.ideal_from_generators(D5, [2, D5.element(1, 1)])
    h = homogeneous_ideal(D5, S23, [(2, 0), (D5.element(1, 1), 0), (2, 1)])
    pair = extract_pair(h)
    assert pair == IdealPair(prime, mid.ideal_from_generators(S23, [0, 1]))
    with pytest.raises(ExtractionError,
                       match=r"^ideal is not a split product: \(1\+w\)\*X lies in "):
        extract_pair(h, assume_divisorial=True)
    whole = homogeneous_ideal(D5, S23, list(h.gens) + [(D5.element(1, 1), 1)])
    assert extract_pair(whole, assume_divisorial=True) == pair
    # over Z and 2,3 (conductor 2) the last degree below min alpha +
    # conductor, 1, is reached by 1*X^0 only; over the whole line degree 0
    for sgp, gens, witness in ((S23, [(1, 0), (2, 1)], "X"),
                               (S1, [(2, 0), (3, 1)], "1")):
        with pytest.raises(ExtractionError,
                           match=rf"^ideal is not a split product: {witness} lies in "):
            extract_pair(homogeneous_ideal(Z, sgp, gens), assume_divisorial=True)


def _extraction_ideals(sgp):
    """Every Z-ideal with one or two generators a*X^alpha, a in 1..12 and
    alpha in -2..8, and a seeded sample of those with three."""
    gens = [(a, alpha) for a in range(1, 13) for alpha in range(-2, 9)]
    for k in (1, 2):
        for chosen in combinations_with_replacement(gens, k):
            yield homogeneous_ideal(Z, sgp, chosen)
    rng = random.Random(sgp.conductor)
    for _ in range(1000):
        yield homogeneous_ideal(Z, sgp, [rng.choice(gens) for _ in range(3)])


@pytest.mark.parametrize("sgp", [from_generators(g) for g in ([2, 3], [3, 5], [4, 6, 9])],
                         ids=lambda s: s.text())
def test_extraction_matches_the_gcd_model(sgp):
    window = range(-2, 9 + sgp.conductor + sgp.multiplicity)
    members = [m for m in range(len(window)) if sgp.contains(m)]
    for ideal in _extraction_ideals(sgp):
        whole = gcd(*(int(a) for a, _ in ideal.gens))
        reached = {alpha + m for _, alpha in ideal.gens for m in members}
        degrees = [beta for beta in window if beta in reached]
        failing = next((beta for beta in degrees
                        if not model_component_membership(ideal, beta, whole)), None)
        pair = extract_pair(ideal)
        assert pair.coeff.scale == whole
        assert [beta for beta in window if pair.exps.contains(beta)] == degrees
        if failing is not None:
            witness = monomial(Z, sgp, failing, whole).text()
            with pytest.raises(ExtractionError, match=rf"split product: {re.escape(witness)} "):
                extract_pair(ideal, assume_divisorial=True)
        else:
            assert extract_pair(ideal, assume_divisorial=True) == pair


def test_extraction_reports_a_mixed_ideal():
    bad = homogeneous_ideal(Z, S23, [(2, 2), (3, 3)])
    bp = extract_pair(bad)
    assert bp.coeff == dom.unit_ideal(Z)
    assert bp.exps == mid.ideal_from_generators(S23, [2, 3])
    with pytest.raises(ExtractionError):
        extract_pair(bad, assume_divisorial=True)
    assert bp.coeff.contains(2) and bp.exps.contains(3)
    assert not homogeneous_membership(bad, parse_element(Z, S23, "2*X^3"))


def test_decomposition_splits_coefficient_and_monoid_parts():
    p5 = IdealPair(dom.ideal_from_generators(D5, [2, D5.element(1, 1)]),
                   mid.unit_ideal(S1))
    cls5 = decompose_class(p5)
    assert cls5.coeff_form == dom.QuadForm(2, 2, 3)
    assert mid.class_is_trivial(cls5.monoid_class)
    assert not homogeneous_class_is_trivial(cls5)
    assert dom.compose(cls5.coeff_form, cls5.coeff_form) == dom.identity_form(-20)
    assert lift_coefficient_class(p5.coeff, S1) == cls5


def test_trivial_class_markers():
    triv = decompose_class(IdealPair(dom.unit_ideal(Z), mid.unit_ideal(S23)))
    assert triv.coeff_form is None
    assert homogeneous_class_is_trivial(triv)
    princ = lift_coefficient_class(
        dom.ideal_from_generators(D5, [D5.element(1, 1)]), S1)
    assert princ.coeff_form is None
    assert homogeneous_class_is_trivial(princ)


def test_decomposition_capability_limits():
    y0_pair = IdealPair(dom.unit_ideal(Z),
                        mid.ideal_from_generators(S23, [2, 3]))
    with pytest.raises(CapabilityError):
        decompose_class(y0_pair)
    k = dom.ideal_from_generators(D3, [2, D3.element(1, 1)])
    with pytest.raises(CapabilityError):
        lift_coefficient_class(k, S1)
    # (3, sqrt(-15)) is invertible and not principal in Z[sqrt(-15)], the
    # order of discriminant -60 (class number 2), which is not maximal
    d15 = dom.CoefficientDomain.z_sqrt(-15)
    p3 = dom.ideal_from_generators(d15, [3, d15.element(0, 1)])
    assert dom.mul(p3, dom.inverse(p3)) == dom.unit_ideal(d15)
    assert dom.is_principal(p3) is None
    with pytest.raises(CapabilityError, match="maximal order"):
        decompose_class(IdealPair(p3, mid.unit_ideal(S1)))


def test_content_exponent_vanishes_over_gcd_domains():
    for fx, fy in [("2+3*X^2", "5+7*X^3"), ("4+6*X^3", "10+15*X^2")]:
        x = parse_element(Z, S1, fx)
        y = parse_element(Z, S1, fy)
        assert dedekind_mertens_exponent(x, y) == 0
    q = parse_element(Q, S23, "1/2+X^2")
    assert dedekind_mertens_exponent(q, q) == 0


def test_content_exponent_frozen_quadratic_fixture():
    x = graded_element(D3, S1, [(0, D3.element(1, 1)), (1, D3.element(1, -1))])
    y = graded_element(D3, S1, [(0, D3.element(1, -1)), (1, D3.element(1, 1))])
    prod = x * y
    assert prod.text() == "4-4*X+4*X^2"
    assert content(prod) == dom.ideal_from_generators(D3, [4])
    k = dom.ideal_from_generators(D3, [2, D3.element(1, 1)])
    assert content(x) == k and content(y) == k
    assert dedekind_mertens_exponent(x, y) == 1


def test_content_exponent_respects_the_term_cap():
    x = graded_element(D3, S1, [(0, D3.element(1, 1)), (1, D3.element(1, -1))])
    for other_terms in ([(0, D3.element(2, 0))],
                        [(0, D3.element(1, 1)), (2, D3.element(3, -1))],
                        [(0, D3.element(1, -1)), (1, D3.element(0, 2)),
                         (3, D3.element(1, 1))]):
        y = graded_element(D3, S1, other_terms)
        assert dedekind_mertens_exponent(x, y) <= len(y.terms) - 1


def test_content_exponent_rejects_zero():
    x = parse_element(Z, S1, "1+X")
    with pytest.raises(ValueError):
        dedekind_mertens_exponent(x, parse_element(Z, S1, "0"))


INVERSE_CONTENT_CASES = [
    (Z, S23, "2+3*X^2", 1),
    (D5, S23, "2+(1+w)*X^2", 2),
    (Z, S23, "5*X^3", 1),
    (Z, S35, "1+X^2", 2),
    (D5, S35, "2*X^3+(1+w)*X^5", 4),
]


def test_inverse_content_product_reports(monkeypatch):
    """Every basis element of C(a)^-1 times every minimal generator of
    E(a)^-1 is checked; a wrong inverse, on either side, fails every case."""
    elements = [(parse_element(d, s, text), checked)
                for d, s, text, checked in INVERSE_CONTENT_CASES]
    for a, checked in elements:
        rep = inverse_content_product_check(a)
        assert rep == {"operation": "inverse_content_product_check",
                       "element": a.text(), "checked": checked, "failures": 0}
    inverse = dom.inverse
    with monkeypatch.context() as m:
        m.setattr(dom, "inverse", lambda i: dom.mul(
            inverse(i), dom.ideal_from_generators(i.domain, [Fraction(1, 2)])))
        for a, checked in elements:
            rep = inverse_content_product_check(a)
            assert rep["failures"] == rep["checked"] == checked
            assert 1 <= len(rep["witnesses"]) <= 3
    monkeypatch.setattr(mid, "inverse", lambda i: mid.unit_ideal(i.monoid))
    rep = inverse_content_product_check(parse_element(Z, S35, "1+X^2"))
    assert rep["failures"] == rep["checked"] == 1
    assert rep["witnesses"] == ["1"]
    with pytest.raises(ValueError):
        inverse_content_product_check(parse_element(Z, S23, "0"))


def test_semigroup_ring_integral_closure():
    """The monoid ring is integrally closed exactly when both factors are:
    the first two conditions of the transfer criterion."""
    for domain, sgp, closed in ((Z, S1, True), (Z, S23, False),
                                (D3, S1, False), (D5, S1, True)):
        report = transfer_criterion_report(domain, MonoidDescriptor.numerical(sgp))
        assert all(c["holds"] for c in report["conditions"][:2]) == closed


def test_transfer_criterion_success_over_the_power_cone():
    report = transfer_criterion_report(D5, parse_monoid("p^inf:2"))
    assert all(c["holds"] for c in report["conditions"])
    assert report["conclusion"] == \
        "class group of the monoid ring equals the coefficient class group: Z/2Z"


def test_transfer_criterion_success_over_the_whole_line():
    report = transfer_criterion_report(Z, parse_monoid("1"))
    assert all(c["holds"] for c in report["conditions"])
    assert report["conclusion"].endswith("trivial")


def test_transfer_criterion_failure_modes():
    report = transfer_criterion_report(D3, parse_monoid("p^inf:2"))
    assert report["conclusion"] == \
        "criterion fails: coefficient domain integrally closed"
    report2 = transfer_criterion_report(Q, parse_monoid("2,3"))
    assert report2["conclusion"] == \
        "criterion fails: monoid integrally closed"
    assert [c["holds"] for c in report2["conditions"]].count(False) >= 1
    assert report2["conditions"][0]["holds"]
