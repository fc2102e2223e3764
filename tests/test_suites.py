"""The property-suite registry: seeds, filters, and report shape."""

import random

import pytest

from sgclass import ideals as mid
from sgclass import quadric as qdr
from sgclass import suites
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
    subset-union oracle, ``suites.oracle_t_member``."""
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
