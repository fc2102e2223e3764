"""Fractional ideal arithmetic checked against definitional set models."""

import pytest
from hypothesis import given, settings, strategies as st

from sgclass import ideals as mid
from sgclass.errors import MismatchError
from sgclass.semigroups import from_generators

S23 = from_generators([2, 3])
S35 = from_generators([3, 5])
S469 = from_generators([4, 6, 9])
POOL = (S23, S35, S469, from_generators([2, 5]), from_generators([1]))


def model_member(y, g):
    """Membership straight from the generator definition: g in gen + monoid."""
    return any(y.monoid.contains(g - m) for m in y.min_generators)


def model_colon_member(y, z, h):
    return all(model_member(y, h + m) for m in z.min_generators)


def model_v_member(y, g):
    """g lies in every principal ideal containing y, probed on exact bounds."""
    gens = y.monoid.generators
    lo = -max(y.min_generators)
    hi = max(y.monoid.conductor - g, lo)
    for h in range(lo, hi + 1):
        if model_colon_member(mid.unit_ideal(y.monoid), y, h) \
                and not y.monoid.contains(g + h):
            return False
    return True


def span(y):
    return range(y.min - 2, y.stable_bound + y.monoid.conductor + 3)


def test_canonical_window_fixture():
    y = mid.ideal_from_generators(S23, [2, 3])
    assert y.min == 2
    assert y.min_generators == (2, 3)
    assert y.window == (2, 3, 4)
    assert [g for g in range(0, 8) if y.contains(g)] == [2, 3, 4, 5, 6, 7]


def test_redundant_generators_collapse():
    assert mid.ideal_from_generators(S23, [2, 3, 4, 7]).min_generators == (2, 3)
    assert mid.ideal_from_generators(S23, [0, 2]).min_generators == (0,)


def test_negative_generators_are_fine():
    y = mid.ideal_from_generators(S35, [-4, -2])
    assert y.min == -4
    assert model_member(y, -4) and not model_member(y, -3)
    for g in span(y):
        assert y.contains(g) == model_member(y, g)


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-8, max_value=12), min_size=1, max_size=4))
def test_membership_matches_model(monoid, gens):
    y = mid.ideal_from_generators(monoid, gens)
    for g in span(y):
        assert y.contains(g) == model_member(y, g)
    assert all(y.contains(g) for g in gens)


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-6, max_value=10), min_size=1, max_size=3),
       st.lists(st.integers(min_value=-6, max_value=10), min_size=1, max_size=3))
@settings(max_examples=60)
def test_sum_and_colon_match_model(monoid, gens1, gens2):
    y = mid.ideal_from_generators(monoid, gens1)
    z = mid.ideal_from_generators(monoid, gens2)
    s = mid.minkowski_sum(y, z)
    for g in span(s):
        assert s.contains(g) == any(model_member(y, g - m)
                                    for m in z.min_generators)
    q = mid.colon(y, z)
    for h in span(q):
        assert q.contains(h) == model_colon_member(y, z, h)


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-6, max_value=10), min_size=1, max_size=3))
@settings(max_examples=60)
def test_v_closure_matches_model(monoid, gens):
    y = mid.ideal_from_generators(monoid, gens)
    v = mid.v_closure(y)
    for g in span(v):
        assert v.contains(g) == model_v_member(y, g)


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-5, max_value=9), min_size=1, max_size=3))
@settings(max_examples=40)
def test_t_closure_definitional_agreement(monoid, gens):
    y = mid.ideal_from_generators(monoid, gens)
    assert mid.t_closure(y) == mid.t_closure(y, definitional=True)
    assert mid.t_closure(y) == mid.v_closure(y)


def test_colon_whose_minimum_lies_above_the_window_start():
    y = mid.ideal_from_generators(S35, [-8])
    z = mid.ideal_from_generators(S35, [-5, -3])
    q = mid.colon(y, z)
    assert q.min_generators == (0, 7)
    assert q.min > y.min - z.min
    for h in span(q):
        assert q.contains(h) == model_colon_member(y, z, h)


def test_gap_filling_ideal_fixture():
    y0 = mid.ideal_from_generators(S23, [2, 3])
    assert not mid.is_principal(y0)
    assert mid.is_divisorial(y0)
    assert not mid.is_t_invertible(y0)
    inv = mid.inverse(y0)
    assert inv.min_generators == (0, 1)
    assert mid.v_closure(y0) == y0


def test_principal_ideals_are_t_invertible():
    for monoid in (S23, S35, S469):
        for g in (-3, 0, 4):
            y = mid.ideal_from_generators(monoid, [g])
            assert mid.is_principal(y)
            assert mid.is_divisorial(y)
            assert mid.is_t_invertible(y)
            assert mid.inverse(y).min_generators == (-g,)


def test_shift_equivariance():
    y = mid.ideal_from_generators(S35, [3, 5])
    assert y.shift(4).min_generators == (7, 9)
    assert mid.v_closure(y.shift(4)) == mid.v_closure(y).shift(4)
    assert mid.inverse(y.shift(4)) == mid.inverse(y).shift(-4)


def test_operations_refuse_mixed_monoids():
    y = mid.ideal_from_generators(S23, [0])
    z = mid.ideal_from_generators(S35, [0])
    with pytest.raises(MismatchError):
        mid.minkowski_sum(y, z)
    with pytest.raises(MismatchError):
        mid.colon(y, z)


def test_canonical_generator_sets_are_antichains():
    gap_set = set(S469.gaps)
    sets = list(mid.canonical_generator_sets(S469, 9))
    assert len(sets) == len(set(sets))
    for gens in sets:
        for a in gens:
            for b in gens:
                if a != b:
                    assert abs(a - b) in gap_set or not S469.contains(abs(a - b))
    assert all(max(g) <= 9 for g in sets)


def test_canonical_generator_sets_count_over_two_three():
    assert len(list(mid.canonical_generator_sets(S23, 5))) == 11
    assert len(list(mid.canonical_generator_sets(S23, 20))) == 41


def test_search_two_three_bound_twenty_is_empty():
    assert mid.search_nonprincipal_t_invertible(S23, 20) is None


def test_search_three_five_bound_fifteen_is_empty():
    assert mid.search_nonprincipal_t_invertible(S35, 15) is None


def test_search_reports_progress():
    seen = []
    mid.search_nonprincipal_t_invertible(S23, 12,
                                         progress=lambda n, g: seen.append(n))
    assert seen and seen[-1] >= 1


def test_class_arithmetic_on_principals():
    a = mid.class_reduce(mid.ideal_from_generators(S35, [4]))
    b = mid.class_reduce(mid.ideal_from_generators(S35, [-2]))
    assert mid.class_is_trivial(a)
    assert mid.class_is_trivial(mid.class_mul(a, b))
    assert mid.class_is_trivial(mid.class_inverse(a))


def test_class_arithmetic_refuses_non_invertible():
    y0 = mid.class_reduce(mid.ideal_from_generators(S23, [2, 3]))
    assert not y0.invertible
    assert not mid.class_is_trivial(y0)
    with pytest.raises(ValueError):
        mid.class_mul(y0, y0)


def test_text_and_json_round_trip_facts():
    y = mid.ideal_from_generators(S23, [2, 3])
    assert y.text() == "gens=2,3@sgp=2,3"
    blob = y.to_json()
    assert blob["generators"] == [2, 3]
    assert blob["divisorial"] is True
    assert blob["invertible"] is False
