"""The property-suite registry: seeds, filters, and report shape."""

import random

import pytest

from sgclass import domains as dom
from sgclass import graded as grd
from sgclass import ideals as mid
from sgclass import quadric as qdr
from sgclass import suites
from sgclass.semigroups import from_generators
from sgclass.suites import SUITES, run_suites, suite_closure_identities


def test_registry_names():
    assert set(SUITES) == {"oracle", "closure", "lemma23", "northcott",
                           "decomposition", "quadric", "domains"}


def test_only_filter_runs_one_suite():
    reports = run_suites(seed=3, trials=10, only="domains")
    assert [r["name"] for r in reports] == ["domains"]
    assert reports[0]["trials"] == 10
    assert reports[0]["failures"] == 0


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suites(only="antimatter")


@pytest.mark.parametrize("trials", [0, -1])
def test_zero_trials_are_refused(trials):
    with pytest.raises(ValueError):
        run_suites(0, trials, "closure")
    for suite in SUITES.values():
        with pytest.raises(ValueError, match="trials must be at least 1"):
            suite(0, trials)


def test_domains_suite_judges_composition_by_the_ideal_product():
    checks = run_suites(seed=0, trials=1, only="domains")[0]["checks"]
    agree = [c for c in checks
             if c["name"] == "composition agrees with the ideal product"]
    assert [c["status"] for c in agree] == ["pass"]
    assert agree[0]["detail"] == "34/34 form pairs agree"


def test_reports_carry_checks_and_zero_failures():
    for report in run_suites(seed=1, trials=8):
        assert report["failures"] == 0
        assert report["checks"]
        for check in report["checks"]:
            assert check["status"] in ("pass", "fail")


def test_suites_derive_distinct_child_seeds():
    a = run_suites(seed=0, trials=12, only="closure")[0]
    b = run_suites(seed=1, trials=12, only="closure")[0]
    assert a["failures"] == b["failures"] == 0


def test_closure_suite_judges_the_t_closure_by_its_definition(monkeypatch):
    """A t-closure off by one from the v-closure fails against the
    subset-union oracle, ``suites.t_oracle``."""
    v_closure = mid.v_closure
    monkeypatch.setattr(mid, "t_closure", lambda y: v_closure(y).shift(1))
    report = suite_closure_identities(0, 5)
    assert report["failures"] == 6
    assert report["checks"][0]["name"] == "trial 0 closure identities"
    assert report["checks"][-1]["status"] == "fail"


# --- the quadric suite's exact checks against the random loops they replace ---

def reference_subring_closed(rng) -> bool:
    """200 products and sums of random integer combinations of the blocks."""
    def member():
        u = qdr.from_terms([])
        for _ in range(rng.randint(1, 3)):
            u = u + rng.randint(-3, 3) * rng.choice(suites._subring_blocks())
        return u
    for _ in range(200):
        u, v = member(), member()
        if not (qdr.in_subring(u) and qdr.in_subring(v)):
            return False
        if not qdr.in_subring(u * v) or not qdr.in_subring(u + v):
            return False
    return True


def reference_degrees_add(rng) -> bool:
    """100 random pairs: the product's degrees are sums of factor degrees."""
    for _ in range(100):
        u, v = suites._random_quadric(rng), suites._random_quadric(rng)
        allowed = {a + b for a in u.graded_components() for b in v.graded_components()}
        if not set((u * v).graded_components()) <= allowed:
            return False
    return True


def quadric_status(seed: int, name: str) -> str:
    checks = suites.suite_quadric(seed, 1)["checks"]
    return next(c["status"] for c in checks if c["name"] == name)


SUBRING = "subring closed under products and sums"
DEGREES = "product degrees are sums of factor degrees"


def test_exact_quadric_checks_agree_with_the_random_loops():
    for seed in range(21):
        assert reference_subring_closed(random.Random(seed))
        assert reference_degrees_add(random.Random(seed))
        assert quadric_status(seed, SUBRING) == "pass"
        assert quadric_status(seed, DEGREES) == "pass"


def test_a_subring_defect_fails_the_exact_closure_check(monkeypatch):
    """Rejecting every element with an x*y^2 term breaks closure at the block
    product x*y * y."""
    in_subring = qdr.in_subring
    monkeypatch.setattr(qdr, "in_subring", lambda u: in_subring(u) and not any(
        mono == (1, 2, 0) for mono, _ in u.terms))
    caught = [not reference_subring_closed(random.Random(seed)) for seed in range(21)]
    assert any(caught)
    for seed in range(21):
        assert quadric_status(seed, SUBRING) == "fail"


def test_a_degree_defect_fails_the_exact_degree_check(monkeypatch):
    """A rewrite of y^m z^m that leaves one y behind raises the degree."""
    accumulate = qdr._accumulate
    monkeypatch.setattr(qdr, "_accumulate", lambda acc, a, b, c, k: accumulate(
        acc, a, b + (b > 0 and c > 0), c, k))
    caught = [not reference_degrees_add(random.Random(seed)) for seed in range(21)]
    assert any(caught)
    for seed in range(21):
        assert quadric_status(seed, DEGREES) == "fail"


@pytest.mark.parametrize("trials", [1, 4])
def test_quadric_and_content_suites_draw_only_trials_samples(monkeypatch, trials):
    """Every random draw of the two suites scales with ``trials``: 3 quadric
    elements per trial, and 6 polynomials per trial (2 each over Q and Z, 2
    for subadditivity), counting only the outermost ``_random_poly`` calls."""
    calls = {"_random_quadric": 0, "_random_poly": 0}
    depth = 0

    def counted(name):
        draw = getattr(suites, name)

        def wrapper(*args):
            nonlocal depth
            calls[name] += depth == 0
            depth += 1
            try:
                return draw(*args)
            finally:
                depth -= 1
        monkeypatch.setattr(suites, name, wrapper)

    counted("_random_quadric")
    counted("_random_poly")
    suites.suite_quadric(0, trials)
    suites.suite_content(0, trials)
    assert calls == {"_random_quadric": 3 * trials, "_random_poly": 6 * trials}


# --- lemma23's componentwise judging against the grid loop it replaces ---

def reference_v_member(sgp, ygens, g) -> bool:
    """The pointwise v-oracle the suites used before: g + h must be a member
    for every h of Y^-1, which it rescans at every point."""
    lo = -max(ygens)
    for h in range(lo, max(sgp.conductor - g, lo) + 1):
        if suites.oracle_inverse_member(sgp, ygens, h) and not sgp.contains(g + h):
            return False
    return True


def reference_pair_identities(seed: int, trials: int) -> dict:
    """``suite_pair_identities`` with the grid loop it replaces: every point
    (g, b) asks the coefficient and the exponent question again, and a trial
    stops at the end of the first row past ``PROBES`` points."""
    rng = suites._rng(seed, trials)
    checks = []
    for t in range(trials):
        domain = rng.choice(suites._coeff_domain_pool())
        sgp = suites._random_semigroup(rng)
        j1, j2 = (suites._random_coeff_ideal(rng, domain) for _ in range(2))
        y1, y2 = (suites._random_ideal(rng, sgp, span=8) for _ in range(2))
        p1, p2 = grd.IdealPair(j1, y1), grd.IdealPair(j2, y2)
        quotient = grd.pair_colon(p1, p2)
        divisors = [(b, z) for b in j2.basis_elements() for z in y2.min_generators]
        exps = list(suites._window(quotient.exps))
        coeffs = suites._coeff_candidates(rng, domain, j1, quotient.coeff) \
            + suites._basis_quotients(domain, j1, j2)
        while len(exps) * len(coeffs) < suites.PROBES:
            exps.append(exps[-1] + 1)
            exps.insert(0, exps[0] - 1)
        done = 0
        failed = None
        for g in exps:
            for b in coeffs:
                lhs = all(j1.contains(domain.coerce(b) * domain.coerce(bz))
                          and y1.contains(g + z) for bz, z in divisors)
                rhs = quotient.coeff.contains(b) and quotient.exps.contains(g)
                done += 1
                if lhs != rhs:
                    failed = (b, g, lhs, rhs)
                    break
            if failed or done >= suites.PROBES and done >= len(exps):
                break
        pv = grd.pair_v(p1)
        consistent = (pv.coeff == dom.v_closure(j1)
                      and pv.exps == mid.v_closure(y1)
                      and grd.pair_v(pv) == pv)
        vcons = all(reference_v_member(sgp, y1.min_generators, g) == pv.exps.contains(g)
                    for g in suites._window(pv.exps))
        if failed or not consistent or not vcons:
            detail = f"{domain.text()}, {sgp.text()}"
            if failed:
                detail += f", probe {failed}"
            suites.check(checks, f"trial {t} split-pair identity", False, detail)
    return {"checks": checks}


def trial_failures(report) -> list[dict]:
    return [c for c in report["checks"] if c["name"].startswith("trial ")]


def shifted_exponent_colon(pair_colon):
    def planted(p1, p2):
        q = pair_colon(p1, p2)
        return grd.IdealPair(q.coeff, q.exps.shift(1))
    return planted


def doubled_coefficient_colon(pair_colon):
    def planted(p1, p2):
        q = pair_colon(p1, p2)
        two = dom.ideal_from_generators(q.coeff.domain, [2])
        return grd.IdealPair(dom.mul(q.coeff, two), q.exps)
    return planted


def test_componentwise_lemma23_agrees_with_the_grid_loop():
    for seed in range(21):
        assert trial_failures(reference_pair_identities(seed, 10)) == []
        report = suites.suite_pair_identities(seed, 10)
        assert report["failures"] == 0
        assert report["min_probes"] >= suites.PROBES


@pytest.mark.parametrize("planted", [shifted_exponent_colon, doubled_coefficient_colon])
def test_planted_colon_defects_fail_lemma23_on_every_seed(monkeypatch, planted):
    """Each defect fails the componentwise check on every seed, and on more
    trials than the grid loop, which stops early.  Where the grid loop catches
    a trial too, both name the same first probe: they walk the grid in the
    same row-major order."""
    monkeypatch.setattr(grd, "pair_colon", planted(grd.pair_colon))
    found = by_reference = 0
    for seed in range(10):
        failures = trial_failures(suites.suite_pair_identities(seed, 10))
        reference = trial_failures(reference_pair_identities(seed, 10))
        assert failures and all(c in failures for c in reference), seed
        found += len(failures)
        by_reference += len(reference)
    assert found > by_reference


def test_doubled_coefficient_colon_fails_every_trial_over_z(monkeypatch):
    """2·(J1 : J2) is too small over Z, and the candidates a·b^-1 from the
    bases of J1 and J2 hold the generator of the true colon, so no Z trial
    passes by chance."""
    planted = doubled_coefficient_colon(grd.pair_colon)
    kinds = []
    monkeypatch.setattr(grd, "pair_colon", lambda p1, p2: (
        kinds.append(p1.coeff.domain.kind) or planted(p1, p2)))
    z_trials = 0
    for seed in range(10):
        kinds.clear()
        failures = trial_failures(suites.suite_pair_identities(seed, 10))
        over_z = {f"trial {t} split-pair identity" for t, k in enumerate(kinds) if k == "Z"}
        assert {c["name"] for c in failures if c["detail"].startswith("Z,")} == over_z, seed
        z_trials += len(over_z)
    assert z_trials == 33


def test_v_oracle_agrees_with_the_pointwise_reference():
    rng = random.Random(0)
    for gens in suites._SGP_POOL:
        sgp = from_generators(gens)
        for _ in range(30):
            y = suites._random_ideal(rng, sgp)
            in_v = suites.v_oracle(sgp, y.min_generators)
            for g in suites._window(mid.v_closure(y)):
                assert in_v(g) == reference_v_member(sgp, y.min_generators, g)


def test_decomposition_judges_principality_without_is_principal(monkeypatch):
    """An ``is_principal`` that calls no quadratic ideal principal moves the
    lift and the decomposition alike; form reduction still sees it."""
    is_principal = dom.is_principal
    monkeypatch.setattr(dom, "is_principal", lambda i: (
        None if i.domain.kind == "quadratic" else is_principal(i)))
    assert suites.suite_decomposition(0, 100)["failures"] > 0


def test_decomposition_checks_its_monoid_part_off_the_unit_ideal(monkeypatch):
    """A ``class_reduce`` that forgets to shift to minimum 0 fails every trial
    whose exponent ideal is principal off 0: 16 of 20, plus the summary check."""
    monkeypatch.setattr(mid, "class_reduce", mid.v_closure)
    for seed in range(5):
        assert suites.suite_decomposition(seed, 20)["failures"] == 17


def test_northcott_search_matches_the_definitional_scan():
    """The search tests exponent 0 as C(xy) = C(x)C(y); the reference computes
    ``dedekind_mertens_exponent`` on every pair, in the same order, up to the
    first one at least 1."""
    domain = dom.CoefficientDomain.z_sqrt(-3)
    sgp = from_generators([1])
    pool = [domain.element(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]
    linear = [grd.graded_element(domain, sgp, [(0, c0), (1, c1)])
              for c0 in pool for c1 in pool]

    def reference():
        examined = 0
        for x in linear:
            for y in linear:
                examined += 1
                n = grd.dedekind_mertens_exponent(x, y)
                if n >= 1:
                    return {"x": x.text(), "y": y.text(), "exponent": n,
                            "examined": examined}

    expected = reference()
    assert expected == {"x": "-1-w+(-1+w)*X", "y": "-1+w+(-1-w)*X",
                        "exponent": 1, "examined": 145}
    assert suites.northcott_search() == expected
