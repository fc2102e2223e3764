"""Membership, normalization, and Apery sets against a brute-force model."""

import tracemalloc
from itertools import combinations, compress
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sgclass import semigroups
from sgclass.semigroups import _prime_factors as prime_factors
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


def test_a_large_semigroup_keeps_one_byte_per_integer_below_the_conductor():
    """700,701 has conductor 489,300 and 244,650 gaps.  The gap bytes take
    0.49 MB; a stored tuple of the gaps would add about 9.8 MB."""
    tracemalloc.start()
    try:
        s = from_generators([700, 701])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.conductor == 489_300
    assert kept < 2 << 20


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


def test_two_generator_gaps_follow_sylvester():
    """<a, b> with a, b coprime has (a-1)(b-1)/2 gaps and Frobenius number
    ab - a - b, and it is symmetric: n is a gap iff F - n is a member."""
    a, b = 240, 259
    s = from_generators([a, b])
    frobenius = a * b - a - b
    assert len(s.gaps) == (a - 1) * (b - 1) // 2
    assert s.frobenius == s.gaps[-1] == frobenius
    gap_set = set(s.gaps)
    assert all((n in gap_set) != (frobenius - n in gap_set)
               for n in range(frobenius + 1))


def closure(raw):
    """(minimal generators, scale, gaps, conductor) of the monoid generated
    by ``raw``, and its member table, filled up to Schur's bound: with gcd 1
    and a_1 < ... < a_k, the Frobenius number is below (a_1 - 1)(a_k - 1)
    (A. Brauer, Amer. J. Math. 64, 1942), so the table reaches the
    conductor plus the multiplicity a_1."""
    scale = gcd(*raw)
    gens = sorted(g // scale for g in raw)
    bound = (gens[0] - 1) * (gens[-1] - 1) + gens[-1]
    member = bytearray(bound)
    member[0] = 1
    for g in gens:
        for n in range(g, bound):
            if member[n - g]:
                member[n] = 1
    gaps = tuple(n for n in range(bound) if not member[n])
    minimal = tuple(g for g in gens if not any(member[g - h] for h in gens if h < g))
    return (minimal, scale, gaps, gaps[-1] + 1 if gaps else 0), member


def test_construction_matches_the_closure_on_every_small_generator_set():
    """Every set of one to three generators in 1..39, 9,919 sets.  A window
    that stops at m - 1 top members instead of m first fails on ``5,11,16``:
    conductor 30, where it is 40.  Membership is compared on
    [-2, conductor + m) and Ap(S, m) is the least member of each residue
    class mod the multiplicity m, read off the table."""
    for k in (1, 2, 3):
        for raw in combinations(range(1, 40), k):
            s = from_generators(raw)
            invariants, member = closure(raw)
            assert (s.generators, s.scale, s.gaps, s.conductor) == invariants, raw
            m = s.multiplicity
            top = s.conductor + m
            assert [s.contains(n) for n in range(-2, top)] == \
                [False, False, *map(bool, member[:top])], raw
            least = {}
            for n in compress(range(top), member):
                least.setdefault(n % m, n)
            assert s.apery(m) == sorted(least.values()), raw


@pytest.mark.parametrize("a, b", [(237, 248), (700, 701)])
def test_wide_apery_sets_are_the_multiples_of_the_second_generator(a, b):
    """Ap(<a, b>, a) = {k*b : 0 <= k < a} for coprime a < b: k*b with k < a
    is not a member minus a, and the k*b cover the residues mod a."""
    s = from_generators([a, b])
    assert s.apery(a) == [k * b for k in range(a)]
    assert all(s.contains(k * b) and not s.contains(k * b - a) for k in range(a))


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
    with pytest.raises(CapabilityError):
        parse_monoid("1000003,1000033")
    with pytest.raises(CapabilityError, match="too large to factor"):
        parse_monoid("p^inf:100000000000000003")


def test_generators_past_the_window_cap_are_redundant():
    assert from_generators([1, 600000]).generators == (1,)
    s = from_generators([2, 3, 5000000])
    assert s.generators == (2, 3) and s.conductor == 2


def test_parse_numerical():
    d = parse_monoid("4,6,9")
    assert d.kind == "numerical"
    assert d.semigroup.generators == (4, 6, 9)
    assert d.semigroup.contains(6)
    assert not d.semigroup.contains(7)


def test_parse_scaled_membership_uses_original_coordinates():
    d = parse_monoid("4,6")
    assert d.text() == "4,6"
    assert d.semigroup.text() == "2,3" and d.semigroup.scale == 2
    assert d.semigroup.contains(10 // d.semigroup.scale)
    assert not d.semigroup.contains(2 // d.semigroup.scale)


def test_parse_power_cone():
    d = parse_monoid("p^inf:2")
    assert d.kind == "p_power_cone"
    assert d.prime == 2 and d.text() == "p^inf:2"
    assert d.is_integrally_closed()
    with pytest.raises(CapabilityError):
        d.require_ideal_arithmetic()


def test_parse_rejects_garbage():
    for text in ("", "2,x", "p^inf:6", "p^inf:", "0"):
        with pytest.raises(ParseError):
            parse_monoid(text)


@given(st.text(alphabet="0123456789,-p^inf: ", max_size=30) | st.text(max_size=30))
@example("p^inf:100000000000000003")
@example("1,600000")
@settings(deadline=None)
def test_parse_monoid_raises_only_value_errors(text):
    try:
        parse_monoid(text)
    except ValueError:
        pass


def test_parse_power_cone_factors_the_prime_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr(semigroups, "_prime_factors", counting)
    assert parse_monoid("p^inf:1000003").text() == "p^inf:1000003"
    assert calls == [1000003]
    calls.clear()
    with pytest.raises(ParseError, match="^1000001 is not prime$"):
        parse_monoid("p^inf:1000001")
    assert calls == [1000001]
    with pytest.raises(CapabilityError) as info:
        parse_monoid("p^inf:100000000000000003")
    assert type(info.value) is CapabilityError


def test_parse_refuses_blank_parts():
    assert parse_monoid(" 2, 3 ").text() == "2,3"
    for text in ("2,,3", "2,3,", ",2,3", "2, ,3"):
        with pytest.raises(ParseError, match="comma-separated integer list"):
            parse_monoid(text)


def test_descriptor_requires_exactly_one_payload():
    with pytest.raises(ValueError):
        MonoidDescriptor(semigroup=None, prime=None)
