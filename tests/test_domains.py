"""Quadratic orders: lattice ideals, form reduction, and class groups."""

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sgclass import domains as dom, suites
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


@pytest.mark.parametrize("disc", [-20, -23, -84, -231])
def test_principal_form_ideals_are_those_of_the_identity_class(disc):
    """Every form ideal [a, (-b+sqrt(D))/2] with a <= 30 is principal exactly
    when its form reduces to the identity, and then the returned element
    generates it."""
    domain = dom.domain_for_discriminant(disc)
    identity = dom.identity_form(disc)
    seen = set()
    for a in range(1, 31):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            i = dom.form_to_ideal(domain, dom.QuadForm(a, b, (b * b - disc) // (4 * a)))
            generator = dom.is_principal(i)
            principal = dom.ideal_to_form(i) == identity
            assert (generator is not None) == principal, (a, b)
            if principal:
                assert dom.ideal_from_generators(domain, [generator]) == i
            seen.add(principal)
    assert seen == {True, False}


def test_fractional_scale_keeps_integer_content_in_the_triple():
    """The scale is 1/D for the least D with D*L integral, and the triple is
    the normal form of D*L with its content left in."""
    two = dom.ideal_from_generators(D5, [2])
    assert (two.scale, two.a, two.b, two.c) == (1, 2, 0, 2)
    half = dom.ideal_from_generators(D5, [Fraction(1, 2)])
    assert (half.scale, half.a, half.b, half.c) == (Fraction(1, 2), 1, 0, 1)
    three_halves = dom.ideal_from_generators(D5, [Fraction(3, 2)])
    assert (three_halves.scale, three_halves.a, three_halves.b, three_halves.c) == \
        (Fraction(1, 2), 3, 0, 3)
    assert three_halves.text() == "1/2*[3, 0+3*w]"
    w_half = dom.ideal_from_generators(D5, [D5.element(Fraction(1, 2), Fraction(1, 2))])
    assert (w_half.scale, w_half.a, w_half.b, w_half.c) == (Fraction(1, 2), 6, 1, 1)
    assert w_half.text() == "1/2*[6, 1+w]"


def test_colon_and_v_on_rational_ideals():
    i = dom.ideal_from_generators(Z, [4])
    j = dom.ideal_from_generators(Z, [6])
    assert dom.colon(i, j).scale == Fraction(2, 3)
    assert dom.inverse(i).scale == Fraction(1, 4)
    assert dom.v_closure(i) == i
    assert dom.mul(i, j).scale == 24
    assert dom.ideal_from_generators(Z, [i.scale, j.scale]).scale == 2
    assert dom.mul(j, j).scale == 36


def test_rank_one_ideals_are_a_scale():
    two = dom.ideal_from_generators(Z, [4, 6])
    assert two == dom.CoeffIdeal(Z, Fraction(2))
    assert two.text() == "(2)"
    whole = dom.ideal_from_generators(Q, [Fraction(3, 5)])
    assert whole.text() == "(1)"
    assert whole.contains(Fraction(1, 7))


# --- the rational lattice kernel the integer one replaced, as a reference ---

def _hnf_rational(vectors):
    den = lcm(*(v.denominator for xy in vectors for v in xy))
    a, b, c = dom._hnf_int([(int(x * den), int(y * den)) for x, y in vectors])
    g = gcd(gcd(a, b), c)
    k = gcd(den, g)
    return dom.divide(k, den), a // k, b // k, c // k


def _dual_basis(b1, b2):
    # rows of the inverse-transpose of the basis matrix [b1; b2]
    (p, q), (r, s) = (b1, b2)
    det = p * s - q * r
    if not det:
        raise ValueError("degenerate lattice")
    return ((dom.divide(s, det), dom.divide(-r, det)),
            (dom.divide(-q, det), dom.divide(p, det)))


def reference_lattice(domain, elements):
    scale, a, b, c = _hnf_rational([(e.x, e.y) for e in elements])
    return dom.CoeffIdeal(domain, scale, a, b, c)


def reference_ideal(domain, gens):
    elems = [e for e in (domain.coerce(g) for g in gens) if e]
    if domain.kind == "Q":
        return dom.unit_ideal(domain)
    if domain.kind == "Z":
        den = lcm(*(v.denominator for v in elems))
        return dom.CoeffIdeal(domain, Fraction(gcd(*(int(v * den) for v in elems)), den))
    w = domain.element(0, 1)
    return reference_lattice(domain, [x for e in elems for x in (e, e * w)])


def reference_mul(i, j):
    if i.domain.kind != "quadratic":
        return dom.CoeffIdeal(i.domain, i.scale * j.scale)
    return reference_lattice(i.domain, [e * f for e in i.basis_elements()
                                        for f in j.basis_elements()])


def reference_colon(i, j):
    """The intersection of beta^-1 * i over the basis elements beta of j, as
    the dual of the sum of the duals, in Fractions."""
    domain = i.domain
    if domain.kind != "quadratic":
        return dom.CoeffIdeal(domain, Fraction(i.scale) / j.scale)
    basis = i.basis_elements()
    duals = []
    for beta in j.basis_elements():
        conj, n = beta.conjugate(), beta.norm()
        beta_inv = dom.QuadElement(domain, dom.divide(conj.x, n), dom.divide(conj.y, n))
        p, q = (e * beta_inv for e in basis)
        duals.extend(_dual_basis((p.x, p.y), (q.x, q.y)))
    scale, a, b, c = _hnf_rational(duals)
    meet = _dual_basis((scale * a, 0), (scale * b, scale * c))
    return reference_lattice(domain, [dom.QuadElement(domain, x, y) for x, y in meet])


def reference_contains(i, value) -> bool:
    v = i.domain.coerce(value)
    if i.domain.kind != "quadratic":
        return i.domain.kind == "Q" or (Fraction(v) / i.scale).denominator == 1
    x, y = Fraction(v.x) / i.scale, Fraction(v.y) / i.scale
    k = y / i.c
    return k.denominator == 1 and ((x - k * i.b) / i.a).denominator == 1


# lemma23's and decomposition's coefficient pools, and the non-maximal Z[sqrt(-3)]
REFERENCE_POOL = tuple(dict.fromkeys(
    suites._coeff_domain_pool() + suites._invertible_domain_pool() + (D3,)))


@pytest.mark.parametrize("domain", REFERENCE_POOL, ids=lambda d: d.text())
def test_integer_lattice_kernel_matches_the_rational_reference(domain):
    rng = random.Random(f"lattice:{domain.text()}")
    one = dom.unit_ideal(domain)

    def value():
        x = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        if domain.kind != "quadratic":
            return x
        return domain.element(x, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))))

    def generators():
        while True:
            gens = [value() for _ in range(rng.randint(1, 3))]
            if any(gens):
                return gens

    draws = [None] * 60
    if domain == D3:  # the conductor (2, 1 + sqrt(-3)), which is not t-invertible
        draws.append([2, domain.element(1, 1)])
    outcomes, judged = set(), set()
    for fixed in draws:
        gi, gj = fixed or generators(), generators()
        i, j = dom.ideal_from_generators(domain, gi), dom.ideal_from_generators(domain, gj)
        assert i == reference_ideal(domain, gi) and j == reference_ideal(domain, gj)
        assert dom.mul(i, j) == reference_mul(i, j)
        assert dom.colon(i, j) == reference_colon(i, j)
        inverse = reference_colon(one, i)
        assert dom.v_closure(i) == reference_colon(one, inverse)
        # the definition (i * i^-1)_v = D, against the judge (z : z) = D
        verdict = dom.is_t_invertible(i)
        assert verdict == \
            (reference_colon(one, reference_colon(one, reference_mul(i, inverse))) == one)
        judged.add(verdict)
        first, last = i.basis_elements()[0], i.basis_elements()[-1]
        for _ in range(10):
            member = first * rng.randint(-5, 5) + last * rng.randint(-5, 5)
            assert i.contains(member) and reference_contains(i, member)
            x = value()
            found = i.contains(x)
            assert found == reference_contains(i, x)
            outcomes.add(found)
    assert outcomes == ({True} if domain.kind == "Q" else {True, False})
    # Q, Z and the maximal orders have every ideal invertible; Z[sqrt(-3)] does not
    assert judged == ({True, False} if domain == D3 else {True})


def test_lattice_kernel_builds_no_fractions(monkeypatch):
    """mul, colon and contains on quadratic ideals work on integers: they
    build no Fraction beyond what ``divide`` spends on a fractional result
    scale, at most 2 per call."""
    rng = random.Random(11)
    cases = []
    for domain in (O23, D3):
        for _ in range(30):
            ideals = [dom.ideal_from_generators(domain, [
                domain.element(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))),
                               Fraction(rng.randint(-6, 6), rng.choice((1, 2)))),
                rng.randint(1, 5)]) for _ in range(2)]
            x = domain.element(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 6))),
                               Fraction(rng.randint(-6, 6), rng.choice((1, 3))))
            cases.append((*ideals, x))
    assert any(i.scale != 1 for i, _, _ in cases)
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 3)
    assert built == [1]
    for i, j, x in cases:
        for call in (lambda: dom.mul(i, j), lambda: dom.colon(i, j),
                     lambda: dom.colon(j, i), lambda: i.contains(x)):
            before = built[0]
            call()
            assert built[0] - before <= 2, (i, j, x)


@pytest.mark.parametrize("domain", [D3, O23], ids=["Z[sqrt(-3)]", "O[sqrt(-23)]"])
def test_colon_matches_its_definition(domain):
    """Membership in (i : j) against x*j inside i, judged by the rational
    reference so the integer kernel does not grade itself."""
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
            expected = all(reference_contains(i, x * b) for b in j.basis_elements())
            assert quotient.contains(x) == expected
            seen.add(expected)
    assert seen == {True, False}


def is_reduced(a, b, c):
    """The reduction predicate: |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    if not abs(b) <= a <= c:
        return False
    return b >= 0 or (-b != a and a != c)


def scanned_reduced_forms(disc):
    """The reduced forms of discriminant disc as (a, b, c) triples, by scanning
    every a <= sqrt(|disc|/3) and every b of the parity of disc with |b| <= a,
    and keeping the integral c = (b^2 - disc)/4a that ``is_reduced`` accepts."""
    forms = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + (a + disc) % 2, a + 1, 2):
            c, rest = divmod(b * b - disc, 4 * a)
            if not rest and is_reduced(a, b, c):
                forms.append((a, b, c))
    return forms


def test_form_reduction_properties():
    f = dom.QuadForm(15, 47, 37)
    assert f.discriminant == -11
    r = f.reduced()
    assert r == dom.QuadForm(1, 1, 3)
    assert is_reduced(r.a, r.b, r.c) and r.discriminant == -11
    assert r.reduced() == r
    # one form outside each branch: |b| <= a <= c, then b < 0 with |b| = a or a = c
    for bad in ((15, 47, 37), (2, -2, 3), (3, -1, 3)):
        assert not is_reduced(*bad)


def test_reduced_forms_match_the_pair_scan():
    # every discriminant in (-4000, 0), the non-fundamental ones included
    discs = [disc for disc in range(-3999, 0) if disc % 4 in (0, 1)]
    assert len(discs) == 1999
    for disc in discs:
        forms = [(f.a, f.b, f.c) for f in dom.reduced_forms(disc)]
        assert forms == scanned_reduced_forms(disc), disc


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
    assert dom.compose(f, dom.QuadForm(2, -1, 3)) == dom.identity_form(-23)


def test_composition_identity_and_inverse_laws():
    for disc in DISC_STRUCTURES:
        e = dom.identity_form(disc)
        for f in dom.reduced_forms(disc):
            assert dom.compose(f, e) == f
            assert dom.compose(e, f) == f
            # the opposite form (a, -b, c) is the inverse class
            assert dom.compose(f, dom.QuadForm(f.a, -f.b, f.c).reduced()) == e


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


def test_class_group_labels_need_no_table(monkeypatch):
    def refuse(domain):
        raise AssertionError("the label was read from a table")

    monkeypatch.setattr(dom, "class_group", refuse)
    for disc, structure in ((-23, "Z/3Z"), (-84, "abelian of order 4 with exponent 2"),
                            (-231, "abelian of order 12 with exponent 6")):
        assert dom.describe_class_group(dom.domain_for_discriminant(disc)) == structure


def test_class_group_table_is_a_group():
    group = dom.class_group(dom.domain_for_discriminant(-84))
    n = len(group.forms)
    table = group.table
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(row[i] for row in table) == list(range(n))
        for j in range(n):
            assert table[i][j] == table[j][i]
    assert set(element_orders(table, group.identity_index)) == {1, 2}


def test_the_identity_is_the_first_form():
    # (1, D mod 2, .) is the only reduced form with a = 1, and forms sort by (a, b)
    for disc in fundamental_discriminants(-3999, -3):
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.forms[0] == dom.identity_form(disc), disc
        assert [f.a for f in group.forms].count(1) == 1, disc
        assert group.identity_index == 0


# fundamental D near 2^24 with h in the thousands and five extension steps
LARGE_DISCS = (-16777167, -16777032, -16777192)


def opposite(form):
    """The reduced form of the inverse class of a reduced form."""
    return dom.QuadForm(form.a, -form.b, form.c).reduced()


def test_mul_matches_composition_near_the_discriminant_cap():
    rng = random.Random(2024)
    for disc in LARGE_DISCS:
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.order > 1000 and len(group.extensions) == 5, disc
        forms = group.forms
        for _ in range(150):
            i, j = rng.randrange(group.order), rng.randrange(group.order)
            assert forms[group.mul(i, j)] == dom.compose(forms[i], forms[j]), disc


# D with steps (n, k, p) whose g^k at p has nonzero digits on two or three
# lower steps, so one carry moves several digits; a carry that reads those
# digits without their mod k changed no product found for D in (-4000, 0)
CARRY_DISCS = (-99147, -99651)


def test_mul_carries_into_several_lower_digits():
    for disc in CARRY_DISCS:
        group = dom.class_group(dom.domain_for_discriminant(disc))
        forms = group.forms
        for i, f in enumerate(forms):
            for j, g in enumerate(forms):
                assert forms[group.mul(i, j)] == dom.compose(f, g), disc


def test_mul_and_inverse_are_the_group_laws():
    rng = random.Random(31)
    for disc in LARGE_DISCS[:1] + CARRY_DISCS + (-3995, -831, -231, -84, -23, -4):
        group = dom.class_group(dom.domain_for_discriminant(disc))
        e, h, mul = group.identity_index, group.order, group.mul
        for _ in range(150):
            x, y, z = rng.randrange(h), rng.randrange(h), rng.randrange(h)
            assert mul(mul(x, y), z) == mul(x, mul(y, z)), disc
            assert mul(x, y) == mul(y, x) and mul(x, e) == x == mul(e, x), disc
            assert mul(x, group.inverse(x)) == e, disc
            assert group.forms[group.inverse(x)] == opposite(group.forms[x]), disc


def test_the_table_is_refused_past_its_cap(monkeypatch):
    disc = -4000004
    group = dom.class_group(dom.domain_for_discriminant(disc))
    assert group.order == 1032 > dom.MAX_TABLE_ORDER
    assert group.forms[0] == dom.identity_form(disc) and group.invariants == (2, 516)
    f, g = group.forms[5], group.forms[700]
    assert group.forms[group.mul(5, 700)] == dom.compose(f, g)
    assert group.forms[group.inverse(5)] == opposite(f)

    def refuse(self, i, j):
        raise AssertionError("a table row was built")

    monkeypatch.setattr(dom.ClassGroup, "mul", refuse)
    with pytest.raises(CapabilityError, match="too large for a table"):
        group.table


def test_structure_never_multiplies(monkeypatch):
    def refuse(self, i, j):
        raise AssertionError("structure() multiplied")

    monkeypatch.setattr(dom.ClassGroup, "mul", refuse)
    for disc, structure in DISC_STRUCTURES.items():
        assert dom.class_group(dom.domain_for_discriminant(disc)).structure() == structure


def pairwise_class_group(disc):
    """The forms, table and structure label of the class group with every
    pair of reduced forms composed: h^2 compositions, the reference that
    cyclic extension must reproduce."""
    forms = tuple(dom.reduced_forms(disc))
    index = {f: i for i, f in enumerate(forms)}
    table = tuple(tuple(index[dom.compose(f, g)] for g in forms) for f in forms)
    h = len(forms)
    orders = element_orders(table, index[dom.identity_form(disc)])
    if h == 1:
        structure = "trivial"
    elif max(orders) == h:
        structure = f"Z/{h}Z"
    else:
        structure = f"abelian of order {h} with exponent {lcm(*orders)}"
    return forms, table, structure


def element_orders(table, e):
    """The order of every element of a group table with identity e."""
    orders = []
    for x in range(len(table)):
        k, current = 1, x
        while current != e:
            current, k = table[current][x], k + 1
        orders.append(k)
    return orders


def sample_discriminants(count, bound, seed):
    rng = random.Random(seed)
    discs = []
    while len(discs) < count:
        disc = -rng.randint(1500, bound)
        if fundamental_discriminants(disc, disc):
            discs.append(disc)
    return discs


def test_class_group_matches_the_pairwise_table():
    discs = fundamental_discriminants(-1499, -3) + sample_discriminants(5, 10**5, 10)
    for disc in discs:
        group = dom.class_group(dom.domain_for_discriminant(disc))
        forms, table, structure = pairwise_class_group(disc)
        assert group.forms == forms, disc
        assert group.table == table, disc
        assert group.structure() == structure, disc


def invariant_order_counts(invariants):
    """How many elements of each order the sum of the Z/d has."""
    counts = {}
    for digits in itertools.product(*(range(d) for d in invariants)):
        order = lcm(*(d // gcd(y, d) for y, d in zip(digits, invariants)))
        counts[order] = counts.get(order, 0) + 1
    return counts


def test_invariant_factors_determine_the_group():
    for disc in fundamental_discriminants(-1499, -3) + [-831, -3995]:
        group = dom.class_group(dom.domain_for_discriminant(disc))
        inv = group.invariants
        assert all(d > 1 for d in inv) and prod(inv) == group.order, disc
        assert all(b % a == 0 for a, b in zip(inv, inv[1:])), disc
        counts = {}
        for k in element_orders(group.table, group.identity_index):
            counts[k] = counts.get(k, 0) + 1
        assert counts == invariant_order_counts(inv), disc
    pinned = {-3: (), -84: (2, 2), -231: (2, 6), -831: (28,), -3995: (2, 14)}
    for disc, inv in pinned.items():
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.invariants == inv


def test_class_group_composes_about_h_times(monkeypatch):
    # counts the kernel that both ``compose`` and the cyclic extension call
    calls = []
    real = dom._compose

    def counted(f, g, disc):
        calls.append(1)
        return real(f, g, disc)

    monkeypatch.setattr(dom, "_compose", counted)
    for disc, h in ((-10007, 77), (-4000004, 1032)):
        calls.clear()
        group = dom.class_group(dom.domain_for_discriminant(disc))
        assert group.order == h
        assert 0 < len(calls) <= h + h.bit_length() - 1, disc
    assert group.invariants == (2, 516)


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
    # the fundamental discriminant nearest the cap on the refused side:
    # |D| = 2^24 + 3 = 1549 * 10831, so D = 1 mod 4 and squarefree
    past = -dom.MAX_DISCRIMINANT - 3
    with pytest.raises(CapabilityError, match="too large to list"):
        dom.reduced_forms(past)
    with pytest.raises(CapabilityError, match="too large to list"):
        dom.class_group(dom.domain_for_discriminant(past))


def test_radicands_past_the_trial_division_cap_are_refused():
    with pytest.raises(CapabilityError, match="too large to factor"):
        dom.CoefficientDomain.z_sqrt(-100000000000000003)
    with pytest.raises(CapabilityError, match="too large to factor"):
        dom.parse_domain("O[sqrt(-100000000000000003)]")


@given(st.text(alphabet="ZOQ[sqrt(-)]0123456789 ", max_size=30) | st.text(max_size=30))
@example("Z[sqrt(-100000000000000003)]")
@settings(deadline=None)
def test_parse_domain_raises_only_value_errors(text):
    try:
        dom.parse_domain(text)
    except ValueError:
        pass


def test_parse_domain():
    assert dom.parse_domain("Q") == Q
    assert dom.parse_domain("Z") == Z
    assert dom.parse_domain("Z[sqrt(-5)]") == D5
    assert dom.parse_domain("O[sqrt(-3)]") == O3
    with pytest.raises(ParseError):
        dom.parse_domain("Z[sqrt(7)]")
    with pytest.raises(ParseError):
        dom.parse_domain("fields of fractions")


def _assert_exact_scalars(value):
    """Every scalar inside value is an int when integral, else a Fraction."""
    if isinstance(value, dom.QuadElement):
        parts = (value.x, value.y)
    elif isinstance(value, dom.CoeffIdeal):
        parts = (value.scale,)
    else:
        parts = (value,)
    for p in parts:
        assert type(p) in (int, Fraction), repr(p)
        assert type(p) is (int if p.denominator == 1 else Fraction), repr(p)


def test_scalars_are_exact_and_never_float():
    rng = random.Random(17)

    def scalar():
        # integers, true fractions, integral Fractions and floats all come in
        return rng.choice((rng.randint(-6, 6), Fraction(rng.randint(-6, 6), 2),
                           Fraction(rng.randint(-6, 6), rng.choice((1, 3))),
                           rng.randint(-12, 12) / 4))

    def value(domain):
        if domain.kind != "quadratic" or rng.random() < 0.2:
            return scalar()
        return domain.element(scalar(), scalar())

    def ideal(domain):
        while True:
            gens = [value(domain) for _ in range(rng.randint(1, 3))]
            if any(gens):
                return dom.ideal_from_generators(domain, gens)

    for domain in (Q, Z, D3, D5, O23):
        for _ in range(25):
            i, j = ideal(domain), ideal(domain)
            results = [i, j, dom.mul(i, j),
                       dom.ideal_from_generators(domain, i.basis_elements() + j.basis_elements()),
                       dom.colon(i, j),
                       dom.inverse(i), dom.v_closure(j), i.norm(), domain.coerce(scalar())]
            results += i.basis_elements() + dom.colon(j, i).basis_elements()
            generator = dom.is_principal(i)
            if generator is not None:
                results.append(generator)
            assert isinstance(i.contains(value(domain)), bool)
            assert i.contains(i.basis_elements()[0])
            if domain.kind == "quadratic":
                u, v = domain.element(scalar(), scalar()), value(domain)
                results += [u + v, u - v, u * v, -u + v, u * 0.5, 0.25 + u, u - 1.5,
                            u.conjugate(), u.norm(), (u * v).norm()]
            for r in results:
                _assert_exact_scalars(r)
    assert Z.coerce(0.5) == Fraction(1, 2) and type(Z.coerce(4.0)) is int
    assert type(D5.element(Fraction(6, 3), 1.0).x) is int
