"""The property-suite registry: seeds, filters, and report shape."""

import pytest

from sgclass.suites import SUITES, run_suites


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
