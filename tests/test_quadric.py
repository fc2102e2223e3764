"""The quadric coordinate ring and its degree-graded subring, cross-checked
against sympy in the function field where z becomes (x^2 - x)/y."""

import random
from fractions import Fraction

import sympy

from sgclass.quadric import (
    QuadricElement,
    from_terms,
    in_subring,
    one,
    standard_generators,
    verify_unit_identity,
    x_pow,
    y_pow,
    z_pow,
)

X, Y = sympy.symbols("x y")
Z_SUBST = (X * X - X) / Y


def to_function_field(u: QuadricElement):
    total = sympy.Integer(0)
    for (a, b, c), coeff in u.terms:
        total += sympy.Rational(coeff.numerator, coeff.denominator) \
            * X ** a * Y ** b * Z_SUBST ** c
    return sympy.cancel(total)


def random_element(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(-2, 3)
        if rng.random() < 0.5:
            b, c = rng.randint(0, 2), 0
        else:
            b, c = 0, rng.randint(0, 2)
        terms.append(((a, b, c), Fraction(rng.randint(-4, 4))))
    return from_terms(terms)


def test_defining_relation_is_rewritten():
    assert y_pow(1) * z_pow(1) == x_pow(2) - x_pow(1)
    square = (x_pow(2) - x_pow(1)) * (x_pow(2) - x_pow(1))
    assert y_pow(2) * z_pow(2) == square
    assert y_pow(2) * z_pow(1) * z_pow(1) == square


def test_monomials_never_mix_both_cone_directions():
    u = (y_pow(2) + z_pow(1)) * (y_pow(1) + z_pow(2))
    for (a, b, c), _ in u.terms:
        assert b == 0 or c == 0


def test_multiplication_matches_function_field():
    rng = random.Random(0)
    for _ in range(30):
        u, v = random_element(rng), random_element(rng)
        lhs = to_function_field(u * v)
        rhs = sympy.cancel(to_function_field(u) * to_function_field(v))
        assert sympy.simplify(lhs - rhs) == 0


def test_addition_and_squares_match_function_field():
    rng = random.Random(1)
    for _ in range(15):
        u, v = random_element(rng), random_element(rng)
        assert sympy.simplify(to_function_field(u + v)
                              - to_function_field(u)
                              - to_function_field(v)) == 0
        assert sympy.simplify(to_function_field(u * u)
                              - sympy.cancel(to_function_field(u) ** 2)) == 0


def test_arithmetic_keeps_coefficients_exact():
    rng = random.Random(2)
    for _ in range(40):
        # k / 2 is a float: it must enter as an exact Fraction or int
        u = from_terms([(m, k / 2) for m, k in random_element(rng).terms])
        v = random_element(rng)
        for w in (u * v, u + v, u - v, u * u, 3 * u, 0.5 * u, u + u):
            for _, k in w.terms:
                assert type(k) is (int if k.denominator == 1 else Fraction)
    half = from_terms([((0, 0, 0), 0.5), ((0, 1, 1), Fraction(1, 2))])
    assert half.terms == (((0, 0, 0), Fraction(1, 2)), ((1, 0, 0), Fraction(-1, 2)),
                          ((2, 0, 0), Fraction(1, 2)))
    assert (half + half).terms == (((0, 0, 0), 1), ((1, 0, 0), -1), ((2, 0, 0), 1))
    assert all(type(k) is int for _, k in (half + half).terms)


def test_graded_components_split_by_cone_degree():
    u = y_pow(1) + z_pow(1) + x_pow(3) + x_pow(0, 2)
    comps = u.graded_components()
    assert set(comps) == {-1, 0, 1}
    assert comps[1] == y_pow(1)
    assert comps[-1] == z_pow(1)
    assert comps[0] == x_pow(3) + x_pow(0, 2)
    assert sum(comps.values(), from_terms([])) == u


def test_product_degrees_add():
    u = y_pow(2, 3)
    v = z_pow(1, 5)
    prod = u * v
    assert set(prod.graded_components()) == {1}


def test_subring_membership_rules():
    gens = standard_generators()
    assert in_subring(gens["a"])
    assert not in_subring(gens["b"])
    assert not in_subring(gens["d"])
    assert not in_subring(gens["f"])
    assert not in_subring(x_pow(1))
    assert in_subring(x_pow(2) - x_pow(1))
    assert in_subring(one())
    assert in_subring(y_pow(1))
    assert in_subring(z_pow(1))
    assert not in_subring(x_pow(-1))
    assert not in_subring(y_pow(1, 1) * x_pow(-1))


def test_constant_rule_checks_values_at_zero_and_one():
    assert in_subring(x_pow(3) - x_pow(2))
    assert in_subring(x_pow(3) - x_pow(1))
    assert not in_subring(x_pow(3) + x_pow(1))
    assert in_subring(x_pow(0, 7))


def test_crossing_product_fixture():
    gens = standard_generators()
    assert gens["b"] * gens["d"] == one() - y_pow(1) + z_pow(1)


def test_unit_identity_report():
    report = verify_unit_identity()
    assert report["ok"]
    assert report["identity_value"] == "1"
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["unit combination normal form"] == "pass"
    assert statuses["x outside subring"] == "pass"
    product_checks = [c for c in report["checks"]
                      if c["name"].startswith("product ")]
    assert len(product_checks) == 9
    assert all(c["status"] == "pass" for c in product_checks)


def test_unit_identity_against_function_field():
    gens = standard_generators()
    a, b, c = gens["a"], gens["b"], gens["c"]
    d, e, f = gens["d"], gens["e"], gens["f"]
    be_cd = b * e - c * d
    bd = b * d
    combo = a * f * from_terms([((0, 0, 0), Fraction(16))]) \
        - (x_pow(1, 4) * (x_pow(1) - one()) - one()) \
        * (be_cd * be_cd - bd * bd + bd + bd)
    assert sympy.simplify(to_function_field(combo) - 1) == 0

