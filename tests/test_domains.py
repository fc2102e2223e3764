"""Quadratic orders: lattice ideals, form reduction, and class groups."""

import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sgclass import domains as dom
from sgclass.errors import CapabilityError, MismatchError, ParseError

Q = dom.CoefficientDomain.rationals()
Z = dom.CoefficientDomain.integers()
D5 = dom.CoefficientDomain.z_sqrt(-5)
D3 = dom.CoefficientDomain.z_sqrt(-3)
O3 = dom.CoefficientDomain.maximal_order(-3)
O23 = dom.CoefficientDomain.maximal_order(-23)

DISC_STRUCTURES = {
    -4: "trivial",
    -20: "Z/2Z",
    -23: "Z/3Z",
    -24: "Z/2Z",
    -84: "abelian of order 4 with exponent 2",
    -831: "Z/28Z",
    -3995: "abelian of order 28 with exponent 14",
}


def fundamental_discriminants(low, high):
    """Every fundamental discriminant D with low <= D <= high, descending."""
    discs = []
    for disc in range(high, low - 1, -1):
        try:
            dom.domain_for_discriminant(disc)
        except ValueError:  # CapabilityError is a ValueError too
            continue
        discs.append(disc)
    return discs


def test_domain_texts_and_discriminants():
    assert Q.text() == "Q" and Z.text() == "Z"
    assert D5.text() == "Z[sqrt(-5)]" and D5.discriminant == -20
    assert D3.text() == "Z[sqrt(-3)]" and D3.discriminant == -12
    assert O3.text() == "O[sqrt(-3)]" and O3.discriminant == -3
    assert O23.discriminant == -23


def test_maximality_bookkeeping():
    assert D5.maximal and not D3.maximal
    assert O3.maximal and O3.half_basis
    assert not D5.half_basis
    assert Q.is_integrally_closed() and Z.is_integrally_closed()
    assert D5.is_integrally_closed() and not D3.is_integrally_closed()


def test_square_root_argument_validation():
    with pytest.raises(ValueError):
        dom.CoefficientDomain.z_sqrt(-4)
    with pytest.raises(ValueError):
        dom.CoefficientDomain.z_sqrt(5)
    with pytest.raises(ValueError):
        dom.CoefficientDomain.maximal_order(-4)


def test_integrality_of_elements():
    assert D5.is_integral_element(D5.element(1, 1))
    assert not D5.is_integral_element(D5.element(Fraction(1, 2), 0))
    assert O3.is_integral_element(O3.element(0, 1))
    assert not O3.is_integral_element(O3.element(0, Fraction(1, 2)))


@given(st.sampled_from((D5, D3, O3, O23)),
       st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6))
def test_norm_is_multiplicative(domain, x1, y1, x2, y2):
    u = domain.element(x1, y1)
    v = domain.element(x2, y2)
    assert (u * v).norm() == u.norm() * v.norm()
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()


def test_element_arithmetic_uses_the_trace_rule():
    w = D5.element(0, 1)
    assert w * w == D5.element(-5, 0)
    half = O3.element(0, 1)
    assert half * half == half - O3.element(1, 0)
    assert half.norm() == 1


def test_canonical_triple_invariants():
    samples = [
        (D5, [2, D5.element(1, 1)]),
        (D5, [D5.element(3, 1), D5.element(0, 2)]),
        (D3, [2, D3.element(1, 1)]),
        (O23, [3, O23.element(1, 1)]),
        (D5, [D5.element(Fraction(1, 2), 0), D5.element(0, Fraction(1, 3))]),
    ]
    for domain, gens in samples:
        i = dom.ideal_from_generators(domain, gens)
        t, n = domain.omega_trace, domain.omega_norm
        assert i.a > 0 and i.c > 0
        assert i.a % i.c == 0
        assert 0 <= i.b < i.a
        assert (i.b * i.b + t * i.b * i.c + n * i.c * i.c) % (i.a * i.c) == 0


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4))
@settings(max_examples=50)
def test_ideal_contains_every_lattice_combination(p, q, r, s):
    gens = [D5.element(p, q), D5.element(r, s)]
    if all(g == D5.element(0, 0) for g in gens):
        return
    i = dom.ideal_from_generators(D5, gens)
    basis = i.basis_elements()
    for g in gens:
        assert i.contains(g)
        assert i.contains(g * D5.element(0, 1))
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert i.contains(basis[0] * m + basis[1] * n)


def test_prime_over_two_in_the_nonmaximal_order():
    k = dom.ideal_from_generators(D3, [2, D3.element(1, 1)])
    assert (k.scale, k.a, k.b, k.c) == (1, 2, 1, 1)
    assert k.norm() == 2
    square = dom.mul(k, k)
    assert (square.scale, square.a, square.b, square.c) == (1, 4, 2, 2)
    assert square == dom.mul(dom.ideal_from_generators(D3, [2]), k)
    assert square != dom.ideal_from_generators(D3, [2])
    assert dom.mul(k, dom.inverse(k)) == k
    assert dom.inverse(k) == dom.CoeffIdeal(domain=D3, scale=Fraction(1, 2),
                                            a=2, b=1, c=1)
    assert dom.is_divisorial(k)
    assert not dom.is_t_invertible(k)
    assert dom.is_principal(k) is None


def test_same_generators_in_the_maximal_order_are_trivial():
    k = dom.ideal_from_generators(O3, [2, O3.element(1, 1)])
    assert k == dom.unit_ideal(O3)
    assert dom.is_principal(k) is not None


def test_ramified_prime_over_two_in_z_sqrt_minus_five():
    i = dom.ideal_from_generators(D5, [2, D5.element(1, 1)])
    assert i.norm() == 2
    assert dom.mul(i, i) == dom.ideal_from_generators(D5, [2])
    assert dom.mul(i, dom.inverse(i)) == dom.unit_ideal(D5)
    assert dom.is_divisorial(i)
    assert dom.is_t_invertible(i)
    assert dom.is_principal(i) is None
    assert dom.v_closure(i) == i


def test_principal_recognition_returns_a_generator():
    g = D5.element(3, 1)
    i = dom.ideal_from_generators(D5, [g])
    found = dom.is_principal(i)
    assert found is not None
    assert dom.ideal_from_generators(D5, [found]) == i


def test_fractional_scale_keeps_integer_content_in_the_triple():
    two = dom.ideal_from_generators(D5, [2])
    assert (two.scale, two.a, two.b, two.c) == (1, 2, 0, 2)
    half = dom.ideal_from_generators(D5, [Fraction(1, 2)])
    assert (half.scale, half.a, half.b, half.c) == (Fraction(1, 2), 1, 0, 1)


def test_colon_and_v_on_rational_ideals():
    i = dom.ideal_from_generators(Z, [4])
    j = dom.ideal_from_generators(Z, [6])
    assert dom.colon(i, j).scale == Fraction(2, 3)
    assert dom.inverse(i).scale == Fraction(1, 4)
    assert dom.v_closure(i) == i
    assert dom.mul(i, j).scale == 24
    assert dom.add(i, j).scale == 2
    assert dom.mul(j, j).scale == 36


def test_rank_one_ideals_are_a_scale():
    two = dom.ideal_from_generators(Z, [4, 6])
    assert two == dom.CoeffIdeal(Z, Fraction(2))
    assert two.to_json() == {"scale": "2", "a": 1, "b": 0, "c": 1}
    whole = dom.ideal_from_generators(Q, [Fraction(3, 5)])
    assert whole.text() == "(1)"
    assert whole.contains(Fraction(1, 7))


@pytest.mark.parametrize("domain", [D3, O23], ids=["Z[sqrt(-3)]", "O[sqrt(-23)]"])
def test_colon_matches_its_definition(domain):
    rng = random.Random(5)

    def small_ideal():
        gens = [domain.element(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 2))]
        gens.append(rng.randint(1, 4))
        return dom.ideal_from_generators(domain, gens)

    seen = set()
    for _ in range(40):
        i, j = small_ideal(), small_ideal()
        quotient = dom.colon(i, j)
        for _ in range(50):
            x = domain.element(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))),
                               Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
            expected = all(i.contains(x * b) for b in j.basis_elements())
            assert quotient.contains(x) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_form_reduction_properties():
    f = dom.QuadForm(15, 47, 37)
    assert f.discriminant == -11
    r = f.reduced()
    assert r == dom.QuadForm(1, 1, 3)
    assert r.is_reduced and r.discriminant == -11
    assert r.reduced() == r


def test_reduced_forms_frozen_tables():
    assert [f.text() for f in dom.reduced_forms(-20)] == ["(1,0,5)", "(2,2,3)"]
    assert [f.text() for f in dom.reduced_forms(-23)] == \
        ["(1,1,6)", "(2,-1,3)", "(2,1,3)"]
    assert [f.text() for f in dom.reduced_forms(-84)] == \
        ["(1,0,21)", "(2,2,11)", "(3,0,7)", "(5,4,5)"]
    assert [f.text() for f in dom.reduced_forms(-4)] == ["(1,0,1)"]


def test_composition_in_the_cubic_class_group():
    f = dom.QuadForm(2, 1, 3)
    assert dom.compose(f, f) == dom.QuadForm(2, -1, 3)
    assert dom.compose(dom.compose(f, f), f) == dom.identity_form(-23)
    assert dom.compose(f, f.inverse()) == dom.identity_form(-23)


def test_composition_identity_and_inverse_laws():
    for disc in DISC_STRUCTURES:
        e = dom.identity_form(disc)
        for f in dom.reduced_forms(disc):
            assert dom.compose(f, e) == f
            assert dom.compose(e, f) == f
            assert dom.compose(f, f.inverse()) == e


def test_form_ideal_round_trip():
    for disc in DISC_STRUCTURES:
        domain = dom.domain_for_discriminant(disc)
        for f in dom.reduced_forms(disc):
            assert dom.ideal_to_form(dom.form_to_ideal(domain, f)) == f


def test_composition_matches_ideal_multiplication():
    for disc in fundamental_discriminants(-500, -3) + [-831, -3995]:
        domain = dom.domain_for_discriminant(disc)
        forms = dom.reduced_forms(disc)
        ideals = [dom.form_to_ideal(domain, f) for f in forms]
        for f, i in zip(forms, ideals):
            for g, j in zip(forms, ideals):
                assert dom.compose(f, g) == dom.ideal_to_form(dom.mul(i, j))
    with pytest.raises(MismatchError):
        dom.compose(dom.QuadForm(1, 1, 6), dom.QuadForm(1, 0, 5))
    with pytest.raises(CapabilityError):
        dom.compose(dom.QuadForm(1, 0, 3), dom.QuadForm(1, 0, 3))


def smallest_prime_factors(n):
    """spf[m] = the smallest prime factor of m, for 2 <= m < n."""
    spf = list(range(n))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n, p):
                spf[m] = min(spf[m], p)
    return spf


_SPF = smallest_prime_factors(750)


def dirichlet_class_number(disc):
    """h(D) = w / (2 (2 - chi(2))) * sum_{1 <= a <= |D|/2} chi(a) for a
    fundamental D < 0, chi = (D/.) the Kronecker symbol (Cohen, GTM 138, 5.3).

    chi is completely multiplicative, so sympy is asked only at primes.
    """
    half = -disc // 2
    chi = [0, 1] + [0] * (half - 1)
    for a in range(2, half + 1):
        p = _SPF[a]
        chi[a] = sympy.kronecker_symbol(disc, a) if p == a else chi[p] * chi[a // p]
    w = {-3: 6, -4: 4}.get(disc, 2)
    h, rem = divmod(w * sum(chi), 2 * (2 - sympy.kronecker_symbol(disc, 2)))
    assert rem == 0
    return h


def test_class_numbers_match_the_dirichlet_formula():
    for disc in fundamental_discriminants(-1499, -3):
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.order == dirichlet_class_number(disc), disc


def test_class_group_structures():
    for disc, structure in DISC_STRUCTURES.items():
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.structure() == structure
        assert dom.describe_class_group(dom.domain_for_discriminant(disc)) == \
            structure


def test_class_group_table_is_a_group():
    group = dom.class_group(dom.domain_for_discriminant(-84))
    n = len(group.forms)
    table = group.table
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(row[i] for row in table) == list(range(n))
        for j in range(n):
            assert table[i][j] == table[j][i]
    assert all(group.element_order(i) in (1, 2) for i in range(n))


def test_class_group_capability_limits():
    with pytest.raises(CapabilityError):
        dom.class_group(D3)
    with pytest.raises(CapabilityError):
        dom.class_group(Z)
    for disc in (-12, -27, -75):
        with pytest.raises(CapabilityError, match="not a fundamental discriminant"):
            dom.domain_for_discriminant(disc)
    with pytest.raises(ValueError):
        dom.domain_for_discriminant(5)


def test_parse_domain():
    assert dom.parse_domain("Q") == Q
    assert dom.parse_domain("Z") == Z
    assert dom.parse_domain("Z[sqrt(-5)]") == D5
    assert dom.parse_domain("O[sqrt(-3)]") == O3
    with pytest.raises(ParseError):
        dom.parse_domain("Z[sqrt(7)]")
    with pytest.raises(ParseError):
        dom.parse_domain("fields of fractions")
