"""Fractional ideal arithmetic checked against definitional set models."""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sgclass import ideals as mid
from sgclass.suites import _window, oracle_member, t_oracle, v_oracle
from sgclass.errors import CapabilityError, MismatchError
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
    assert [g for g in range(y.min, y.stable_bound) if y.contains(g)] == [2, 3, 4]
    assert [g for g in range(0, 8) if y.contains(g)] == [2, 3, 4, 5, 6, 7]


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-8, max_value=12), min_size=1, max_size=4))
def test_members_is_the_whole_set_as_a_negative_int(monoid, gens):
    y = mid.ideal_from_generators(monoid, gens)
    assert y.members < 0
    for g in range(y.min, y.stable_bound + monoid.conductor):
        assert (y.members >> (g - y.min)) & 1 == oracle_member(monoid, gens, g)


@given(st.sampled_from(POOL),
       st.lists(st.integers(min_value=-8, max_value=12), min_size=1, max_size=4),
       st.integers(min_value=-9, max_value=9))
def test_one_set_by_any_route_is_one_ideal(monoid, gens, n):
    """Equal sets are equal ideals with equal hashes, however they were built."""
    y = mid.ideal_from_generators(monoid, gens)
    unit = mid.unit_ideal(monoid)
    routes = (mid.ideal_from_generators(monoid, gens + [max(gens) + monoid.conductor]),
              mid.colon(y, unit), mid.minkowski_sum(y, unit), y.shift(n).shift(-n))
    for other in routes:
        assert other == y and hash(other) == hash(y)


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
    """The t-closure against its definition, the union of the v-closures of
    the subideals generated by nonempty subsets of the generators."""
    y = mid.ideal_from_generators(monoid, gens)
    t = mid.t_closure(y)
    in_t = t_oracle(monoid, y.min_generators)
    for g in _window(t):
        assert t.contains(g) == in_t(g)


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


def test_sum_refuses_a_window_wider_than_the_limit(monkeypatch):
    """The refusal reads the spans of the summands, before any shift: at
    700,701 the ideal (0, F) fits the window, its sum with itself does not."""
    monoid = from_generators([700, 701])
    y = mid.ideal_from_generators(monoid, [0, monoid.frobenius])
    with pytest.raises(CapabilityError) as refused:
        mid.minkowski_sum(y, y)
    assert str(refused.value) == \
        "generators 0..978598 need a window of more than 1048576 bits"
    # spans 7 and 4 plus conductor 8: a window of 19 bits exactly
    y, z = (mid.ideal_from_generators(S35, g) for g in ([0, 7], [-2, 2]))
    monkeypatch.setattr(mid, "MAX_WINDOW_BITS", 19)
    assert mid.minkowski_sum(y, z).min_generators == (-2, 2)
    monkeypatch.setattr(mid, "MAX_WINDOW_BITS", 18)
    with pytest.raises(CapabilityError, match="generators -2..9 need a window"):
        mid.minkowski_sum(y, z)


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
    """Every 250th antichain, then (count, None).  At 9,11 to bound 31 the 520
    keys of top 30 and several later shifted groups each span two multiples
    of 250."""
    monoid = from_generators([9, 11])
    antichains = list(reference_generator_sets(monoid, 31))
    assert len(antichains) == 60008
    keys = [g for g in antichains if g[0] == 0 and g[-1] == 30]
    assert len(keys) == 520
    assert [y.min_generators for y in mid.normalized_classes(monoid, 31)
            if y.min_generators[-1] == 30] == keys
    seen = []
    mid.search_nonprincipal_t_invertible(
        monoid, 31, progress=lambda n, g: seen.append((n, g)))
    assert seen == [(k, antichains[k - 1]) for k in range(250, 60008, 250)] \
        + [(60008, None)]
    assert len(seen) == 241


def test_search_walks_only_the_tops_with_keys():
    """2,3 has keys only at tops 0 and 1, so each top adds two antichains
    and costs two steps; a walk over every shift below each top is quadratic
    in the bound and takes minutes here."""
    seen = []
    assert mid.search_nonprincipal_t_invertible(
        S23, 100_000, lambda n, g: seen.append((n, g))) is None
    assert seen[-2:] == [(200_000, (99_999, 100_000)), (200_001, None)]


# --- references for the sweep: one judgment per antichain, set lookups ------

def reference_generator_sets(monoid, bound):
    """Antichains in [0, bound] by gap-set membership, in the sweep's order."""
    gap_set = set(monoid.gaps)
    for top in range(bound + 1):
        def extend(prefix):
            start = prefix[-1] + 1 if prefix else 0
            for e in range(start, top):
                if (top - e) in gap_set and all((e - p) in gap_set for p in prefix):
                    yield from extend(prefix + (e,))
            yield prefix + (top,)
        yield from extend(())


def reference_search(monoid, bound, progress):
    """The sweep judging every antichain's ideal on its own."""
    examined = 0
    for gens in reference_generator_sets(monoid, bound):
        ideal = mid.ideal_from_generators(monoid, gens)
        examined += 1
        if examined % 250 == 0:
            progress(examined, gens)
        if not mid.is_principal(ideal) and mid.is_t_invertible(ideal):
            return ideal
    progress(examined, None)
    return None


def closed_gap_subsets(monoid):
    """Count the sets A of gaps with A + s inside S or A for every s in S."""
    gaps = monoid.gaps
    members = [s for s in range(monoid.conductor) if monoid.contains(s)]
    count = 0
    for mask in range(1 << len(gaps)):
        chosen = {g for i, g in enumerate(gaps) if mask >> i & 1}
        count += all(monoid.contains(a + s) or a + s in chosen
                     for a in chosen for s in members)
    return count


SWEEP_POOL = ((2, 3), (3, 5), (5, 7), (3, 4, 5), (4, 6, 9), (7, 9, 11))
NORMALIZED_COUNTS = {(2, 3): 2, (3, 5): 7, (5, 7): 66, (3, 4, 5): 4,
                     (4, 6, 9): 17, (7, 9, 11): 256}


@pytest.mark.parametrize("gens", SWEEP_POOL)
def test_generator_sets_match_the_reference_enumerator(gens):
    monoid = from_generators(gens)
    for bound in (0, 1, 5, monoid.frobenius, monoid.frobenius + 3):
        assert list(mid.canonical_generator_sets(monoid, bound)) == \
            list(reference_generator_sets(monoid, bound))


def fake_witness(monkeypatch, target):
    """Make the private judge, which the sweep and ``is_t_invertible`` both
    consult, also accept every ideal whose inverse has the bits of the
    inverse of ``target``: the class of ``target`` and any other class with
    the same inverse.  Inverse bits are read from minus the ideal's minimum,
    so the fake is shift-invariant like the real judge."""
    real = mid._t_invertible
    unit = mid.unit_ideal(target.monoid)
    bits = mid._colon_bits(unit.members, target.min_generators)

    def judge(z, pf):
        return z == bits or real(z, pf)
    monkeypatch.setattr(mid, "_t_invertible", judge)


@pytest.mark.parametrize("gens", SWEEP_POOL)
@pytest.mark.parametrize("fake", [False, True])
def test_sweep_matches_the_per_antichain_reference(gens, fake, monkeypatch):
    monoid = from_generators(gens)
    bound = min(monoid.frobenius + 2, 12)
    if fake:
        chosen = [g for g in reference_generator_sets(monoid, bound)
                  if len(g) > 1][-1]
        fake_witness(monkeypatch, mid.ideal_from_generators(monoid, chosen))
    expected_calls, calls = [], []
    expected = reference_search(monoid, bound,
                                lambda n, g: expected_calls.append((n, g)))
    found = mid.search_nonprincipal_t_invertible(
        monoid, bound, progress=lambda n, g: calls.append((n, g)))
    assert found == expected
    assert (found is not None) == fake
    assert calls == expected_calls


def test_progress_stops_at_the_witness(monkeypatch):
    """At 5,7 a witness of class (0, 3, 9, 11) ends the walk at antichain
    211, inside top 11, which holds antichains past 250: no call for 250
    and no final call."""
    monoid = from_generators([5, 7])
    fake_witness(monkeypatch, mid.ideal_from_generators(monoid, [0, 3, 9, 11]))
    expected_calls, calls = [], []
    expected = reference_search(monoid, 12, lambda n, g: expected_calls.append((n, g)))
    found = mid.search_nonprincipal_t_invertible(
        monoid, 12, progress=lambda n, g: calls.append((n, g)))
    assert found == expected
    assert found.min_generators == (0, 3, 9, 11)
    walked = list(reference_generator_sets(monoid, 11))
    assert walked.index((0, 3, 9, 11)) == 210 and len(walked) > 250
    assert calls == expected_calls == []


@pytest.mark.parametrize("gens", SWEEP_POOL)
def test_sweep_judges_each_key_ideal_as_generated(gens):
    """The ideal the sweep builds for a key from S's member bits is the one
    ``ideal_from_generators`` builds, minimal generators and members alike."""
    monoid = from_generators(gens)
    bound = monoid.frobenius + 3
    handed = list(mid.normalized_classes(monoid, bound))
    keys = [g for g in reference_generator_sets(monoid, bound) if g[0] == 0]
    assert [y.min_generators for y in handed] == keys
    for y in handed:
        expected = mid.ideal_from_generators(monoid, y.min_generators)
        assert y == expected
        assert y.min_generators == expected.min_generators
        assert y.members == expected.members


def test_sweep_refuses_a_key_wider_than_the_window(monkeypatch):
    """At 3,5 (conductor 8) the key (0,) needs 8 bits and the first
    non-principal key, (0, 1), needs 9."""
    monkeypatch.setattr(mid, "MAX_WINDOW_BITS", 8)
    with pytest.raises(CapabilityError) as refused:
        mid.search_nonprincipal_t_invertible(S35, 10)
    assert str(refused.value) == "generators 0..1 need a window of more than 8 bits"


def _counting(monkeypatch, name):
    """Replace ``mid.name`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(mid, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(mid, name, counted)
    return calls


def test_sweep_without_a_witness_builds_no_ideal(monkeypatch):
    """Each key is judged once, on bits: no ``colon``, no ``minkowski_sum``,
    no ``ideal_from_generators`` and no ``FractionalIdeal`` at all, and no
    generator of an inverse is read."""
    monoid = from_generators([7, 9, 11])
    unit = mid.unit_ideal(monoid)
    counts = {name: _counting(monkeypatch, name) for name in
              ("minkowski_sum", "ideal_from_generators", "colon", "_t_invertible",
               "_inverse_bits", "_generator_positions")}

    def refuse(*args):
        raise AssertionError("an ideal was built")
    monkeypatch.setattr(mid, "FractionalIdeal", refuse)
    assert mid.search_nonprincipal_t_invertible(monoid, 9) is None
    assert counts["minkowski_sum"] == counts["colon"] == []
    assert counts["ideal_from_generators"] == []
    assert counts["_inverse_bits"] == counts["_generator_positions"] == []
    keys = [g for g in reference_generator_sets(monoid, 9) if g[0] == 0]
    assert [z for z, _ in counts["_t_invertible"]] == \
        [mid._colon_bits(unit.members, key) for key in keys if len(key) > 1]


@pytest.mark.parametrize("gens", SWEEP_POOL)
def test_class_keys_count_the_normalized_ideals(gens):
    monoid = from_generators(gens)
    expected = NORMALIZED_COUNTS[gens]
    assert closed_gap_subsets(monoid) == expected
    for bound in (monoid.frobenius, monoid.frobenius + 3):
        keys = [y.min_generators for y in mid.normalized_classes(monoid, bound)]
        # smallest top first, then lexicographic; every top is 0 or a gap
        assert keys == sorted(keys, key=lambda key: (key[-1], key))
        assert all(key[0] == 0 for key in keys)
        assert all(key[-1] == 0 or not monoid.contains(key[-1]) for key in keys)
        assert len(keys) == len(set(keys)) == expected
        assert set(keys) == {mid.class_key(g)
                             for g in mid.canonical_generator_sets(monoid, bound)}


@pytest.mark.parametrize("gens", SWEEP_POOL)
def test_sweep_count_is_the_sum_of_the_shifts_of_each_class(gens):
    """Each class key with top t stands for the bound - t + 1 antichains
    key + s, s = 0..bound - t: the walked count is that sum."""
    monoid = from_generators(gens)
    for bound in range(monoid.frobenius + 4):
        calls = []
        mid.search_nonprincipal_t_invertible(
            monoid, bound, progress=lambda n, g: calls.append((n, g)))
        assert calls[-1] == (sum(bound - y.min_generators[-1] + 1 for y in
                                 mid.normalized_classes(monoid, bound)), None)


def test_class_arithmetic_on_principals():
    a = mid.ideal_from_generators(S35, [4])
    b = mid.ideal_from_generators(S35, [-2])
    assert mid.class_is_trivial(mid.class_reduce(a))
    assert mid.class_is_trivial(mid.class_reduce(mid.minkowski_sum(a, b)))
    assert mid.class_is_trivial(mid.class_reduce(mid.inverse(a)))
    y0 = mid.class_reduce(mid.ideal_from_generators(S23, [2, 3]))
    assert not mid.is_t_invertible(y0)
    assert not mid.class_is_trivial(y0)


def test_text_and_json_round_trip_facts():
    y = mid.ideal_from_generators(S23, [2, 3])
    assert y.text() == "gens=2,3@sgp=2,3"
    blob = y.to_json()
    assert blob["generators"] == [2, 3]
    assert blob["divisorial"] is True
    assert blob["invertible"] is False


THEOREM_POOL = ((2, 3), (3, 5), (3, 4, 5), (4, 6, 9), (5, 7), (4, 5, 6),
                (5, 6, 9), (6, 7, 8), (7, 9, 11), (5, 7, 9, 11))


@pytest.mark.parametrize("gens", THEOREM_POOL)
def test_t_invertible_classes_are_principal(gens):
    """Every t-invertible ideal of a numerical semigroup is principal
    (graded.monoid_class_group_status), checked with ``is_t_invertible`` on
    every normalized class; the maximal ideal is divisorial."""
    monoid = from_generators(gens)
    keys = [y.min_generators for y in mid.normalized_classes(monoid, monoid.frobenius)]
    invertible = 0
    for key in keys:
        y = mid.ideal_from_generators(monoid, key)
        assert mid.is_t_invertible(y) == mid.is_principal(y), key
        invertible += mid.is_t_invertible(y)
    assert invertible == 1
    assert mid.is_divisorial(mid.ideal_from_generators(monoid, monoid.generators))


@pytest.mark.parametrize("gens", THEOREM_POOL)
def test_bit_judges_match_the_set_oracle_and_the_definitions(gens):
    """The two verdicts read off raw colon bits agree, on every normalized
    class and on shifts of it, with the definitions built from ideals:
    y_v = y for ``is_divisorial``, checked also against the set-based
    ``v_oracle`` over the window, and (y + y^-1)_v = S for
    ``is_t_invertible``.  S is symmetric exactly when every class is
    divisorial (Barucci, Dobbs & Fontana, Mem. AMS 598, 1997), so both
    verdicts of ``is_divisorial`` occur over the pool."""
    monoid = from_generators(gens)
    unit = mid.unit_ideal(monoid)
    classes = list(mid.normalized_classes(monoid, monoid.frobenius))
    divisorial = 0
    for y in classes:
        for n in (0, -5, 3):
            shifted = mid.ideal_from_generators(
                monoid, [g + n for g in y.min_generators])
            in_v = v_oracle(monoid, shifted.min_generators)
            by_sets = all(in_v(g) == shifted.contains(g) for g in _window(shifted))
            assert mid.is_divisorial(shifted) == by_sets == \
                (mid.v_closure(shifted) == shifted), (y.min_generators, n)
            definition = mid.v_closure(
                mid.minkowski_sum(shifted, mid.inverse(shifted))) == unit
            assert mid.is_t_invertible(shifted) == definition, (y.min_generators, n)
            divisorial += by_sets
    symmetric = 2 * len(monoid.gaps) == monoid.conductor
    assert (divisorial == 3 * len(classes)) == symmetric


SMALL_SEMIGROUPS = tuple(gens for k in range(1, 9)
                         for gens in combinations(range(2, 10), k) if gcd(*gens) == 1)


def brute_pseudo_frobenius(monoid):
    """The gaps f with f + s in S for every nonzero s in S below conductor
    plus the largest generator; past that, f + s lies beyond the conductor."""
    top = monoid.conductor + max(monoid.generators)
    nonzero = [s for s in range(1, top) if monoid.contains(s)]
    return [f for f in monoid.gaps if all(monoid.contains(f + s) for s in nonzero)]


def test_pseudo_frobenius_numbers_match_a_scan():
    """On every semigroup generated by a subset of [2, 9]; S is symmetric
    exactly when its only pseudo-Frobenius number is F."""
    symmetric = 0
    for gens in SMALL_SEMIGROUPS:
        monoid = from_generators(gens)
        pf = mid._pseudo_frobenius(mid.unit_ideal(monoid))
        assert pf == brute_pseudo_frobenius(monoid), gens
        is_symmetric = 2 * len(monoid.gaps) == monoid.conductor
        assert (pf == [monoid.frobenius]) == is_symmetric, gens
        symmetric += is_symmetric
    assert 0 < symmetric < len(SMALL_SEMIGROUPS)


def test_pseudo_frobenius_numbers_of_known_semigroups():
    assert mid._pseudo_frobenius(mid.unit_ideal(from_generators([3, 4, 5]))) == [1, 2]
    assert mid._pseudo_frobenius(mid.unit_ideal(from_generators([1]))) == []
    for a, b in combinations(range(2, 13), 2):
        if gcd(a, b) == 1:
            pf = mid._pseudo_frobenius(mid.unit_ideal(from_generators([a, b])))
            assert pf == [a * b - a - b], (a, b)


def colon_by_itself_is_s(y):
    """(y : y) = S from memberships over the window: g lies in (y : y) when
    g + x lies in y for each member x of y below its stable bound, since
    past it g + x is a member for g >= 0; -1 stands for every negative g."""
    monoid = y.monoid
    members = [x for x in range(y.min, y.stable_bound) if y.contains(x)]
    return all(all(y.contains(g + x) for x in members) == monoid.contains(g)
               for g in range(-1, monoid.conductor))


@pytest.mark.parametrize("gens", THEOREM_POOL + ((6, 7, 9, 10), (7, 8, 9, 10)))
def test_judge_is_the_colon_of_an_ideal_by_itself(gens):
    """The judge reads any member bits z, not only an inverse's: on every
    normalized class y it decides (y : y) = S.  The last two semigroups have
    type 3, so the judge tries three pseudo-Frobenius numbers there."""
    monoid = from_generators(gens)
    pf = mid._pseudo_frobenius(mid.unit_ideal(monoid))
    verdicts = set()
    for y in mid.normalized_classes(monoid, monoid.frobenius):
        verdict = mid._t_invertible(y.members, pf)
        assert verdict == colon_by_itself_is_s(y), y.min_generators
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_canonical_generator_sets_build_no_ideal(monkeypatch):
    monoid = from_generators([7, 9, 11])

    def refuse(*args):
        raise AssertionError("an ideal was built")
    monkeypatch.setattr(mid, "FractionalIdeal", refuse)
    assert list(mid.canonical_generator_sets(monoid, 12)) == \
        list(reference_generator_sets(monoid, 12))
