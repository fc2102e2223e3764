"""Membership, normalization, and Apery sets against a brute-force model."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sgclass.errors import CapabilityError, ParseError
from sgclass.semigroups import MonoidDescriptor, from_generators, parse_monoid


def reachable(gens, bound):
    """All sums of the generators up to ``bound``, built by plain iteration."""
    hits = {0}
    grew = True
    while grew:
        grew = False
        for g in gens:
            for h in list(hits):
                s = h + g
                if s <= bound and s not in hits:
                    hits.add(s)
                    grew = True
    return hits


def test_known_semigroup_invariants():
    s = from_generators([4, 6, 9])
    assert s.generators == (4, 6, 9)
    assert s.gaps == (1, 2, 3, 5, 7, 11)
    assert s.frobenius == 11
    assert s.conductor == 12
    assert s.multiplicity == 4
    assert s.apery(4) == [0, 6, 9, 15]


def test_two_three():
    s = from_generators([2, 3])
    assert s.gaps == (1,)
    assert s.frobenius == 1
    assert s.conductor == 2
    assert not s.is_integrally_closed()


def test_whole_line_is_integrally_closed():
    s = from_generators([1])
    assert s.gaps == ()
    assert s.conductor == 0
    assert s.is_integrally_closed()
    assert s.apery(1) == [0]


def test_gcd_normalization_keeps_scale():
    s = from_generators([4, 6])
    assert s.generators == (2, 3)
    assert s.scale == 2
    assert s.text() == "2,3"
    assert s.original_text() == "4,6"


def test_redundant_generators_are_dropped():
    assert from_generators([2, 3, 4]).generators == (2, 3)
    assert from_generators([3, 5, 8, 11]).generators == (3, 5)


def test_generator_validation():
    with pytest.raises(ValueError):
        from_generators([])
    with pytest.raises(ValueError):
        from_generators([0])
    with pytest.raises(ValueError):
        from_generators([-2, 3])


@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
def test_membership_matches_reachability(gens):
    s = from_generators(gens)
    from math import gcd
    from functools import reduce
    g = reduce(gcd, gens)
    normalized = [v // g for v in gens]
    bound = s.conductor + 2 * max(normalized) + 5
    model = reachable(normalized, bound)
    for value in range(-3, bound + 1):
        assert s.contains(value) == (value in model)
    gaps = tuple(v for v in range(bound + 1) if v not in model)
    assert s.gaps == gaps
    assert s.conductor == (gaps[-1] + 1 if gaps else 0)
    assert s.frobenius == s.conductor - 1
    nonzero = sorted(model - {0})
    assert s.generators == tuple(
        v for v in nonzero
        if not any(v - a in model for a in nonzero if a < v))


@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
def test_apery_is_minimal_per_residue(gens):
    s = from_generators(gens)
    n = s.multiplicity
    ap = s.apery(n)
    assert sorted(a % n for a in ap) == list(range(n))
    for a in ap:
        assert s.contains(a)
        assert not s.contains(a - n)


def test_apery_requires_member():
    s = from_generators([4, 6, 9])
    with pytest.raises(ValueError):
        s.apery(5)
    with pytest.raises(ValueError):
        s.apery(0)


def test_member_bits_agrees_with_contains():
    for gens in ([3, 5], [4, 6, 9], [1], [7, 11, 13]):
        s = from_generators(gens)
        for size in (0, 1, s.conductor // 2, s.conductor, s.conductor + 20):
            bits = s.member_bits(size)
            assert bits >> size == 0
            for i in range(size):
                assert bool((bits >> i) & 1) == s.contains(i)


def test_oversized_semigroup_is_refused():
    with pytest.raises(CapabilityError):
        from_generators([1000003, 1000033])


def test_parse_numerical():
    d = parse_monoid("4,6,9")
    assert d.kind == "numerical"
    assert d.supports_ideal_arithmetic
    assert d.semigroup.generators == (4, 6, 9)
    assert d.contains(6)
    assert not d.contains(7)


def test_parse_scaled_membership_uses_original_coordinates():
    d = parse_monoid("4,6")
    assert d.contains(10)
    assert not d.contains(5)
    assert not d.contains(Fraction(1, 2))


def test_parse_power_cone():
    d = parse_monoid("p^inf:2")
    assert d.kind == "p_power_cone"
    assert not d.supports_ideal_arithmetic
    assert d.contains(Fraction(3, 4))
    assert d.contains(0)
    assert not d.contains(Fraction(1, 3))
    assert not d.contains(-1)
    assert d.is_integrally_closed()
    with pytest.raises(CapabilityError):
        d.require_ideal_arithmetic()


def test_parse_rejects_garbage():
    for text in ("", "2,x", "p^inf:6", "p^inf:", "0"):
        with pytest.raises(ParseError):
            parse_monoid(text)


def test_parse_tolerates_blank_parts():
    assert parse_monoid("2,,3").text() == "2,3"
    assert parse_monoid(" 2, 3 ").text() == "2,3"


def test_descriptor_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        MonoidDescriptor(semigroup=None, prime=None)
