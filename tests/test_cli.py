"""Exit codes, report schema, and determinism of the command line front end."""

import json
import time

import pytest

from sgclass import cli, suites

REPORT_KEYS = {"schema", "command", "inputs", "results", "checks", "seed",
               "elapsed"}


def statuses(report):
    return [c["status"] for c in report["checks"]]


def test_report_schema_and_success_exit():
    code, report = cli.run(["sgp", "info", "--sgp", "4,6,9"])
    assert code == 0
    assert set(report) == REPORT_KEYS
    assert report["schema"] == 1
    assert report["command"] == "sgp info --sgp 4,6,9"
    assert report["results"]["frobenius"] == 11
    assert all(s in ("pass", "fail", "skipped") for s in statuses(report))


def test_ideal_operation_fixture():
    code, report = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2,3",
                            "--op", "v"])
    assert code == 0
    assert report["results"]["result_text"] == "gens=2,3@sgp=2,3"
    assert "fail" not in statuses(report)


def test_ideal_sum_needs_second_operand():
    code, report = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2",
                            "--op", "sum"])
    assert code == 2
    assert "gens2" in report["error"]
    code, report = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2",
                            "--gens2", "0,1", "--op", "sum"])
    assert code == 0
    assert report["results"]["result"]["generators"] == [2, 3]


def test_ideal_class_reduction():
    code, report = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2,3",
                            "--op", "class"])
    assert code == 0
    assert report["results"]["representative"]["generators"] == [0, 1]
    assert report["results"]["invertible"] is False
    assert report["results"]["trivial"] is False
    code, report = cli.run(["sgp", "ideal", "--sgp", "3,5", "--gens", "7",
                            "--op", "class"])
    assert code == 0
    assert report["results"]["trivial"] is True


def test_search_command_reports_empty_sweep():
    code, report = cli.run(["sgp", "search", "--sgp", "3,5", "--bound", "12"])
    assert code == 0
    assert report["results"]["found"] is None
    assert statuses(report) == ["pass", "pass"]


def test_parse_error_exits_two():
    code, report = cli.run(["sgp", "info", "--sgp", "2,x"])
    assert code == 2
    assert "error" in report


def test_capability_error_exits_two():
    code, report = cli.run(["sgp", "ideal", "--sgp", "p^inf:2",
                            "--gens", "2,3", "--op", "v"])
    assert code == 2
    assert "p-power cone" in report["error"]


@pytest.mark.parametrize("argv", [
    ["sgp", "search", "--sgp", "3,5", "--bound", "-1"],
    ["demo", "ex218", "--bound", "-2"],
    ["demo", "lemma23", "--trials", "0"],
    ["demo", "lemma23", "--trials", "-3"],
    ["suite", "--only", "closure", "--trials", "0"],
])
def test_out_of_range_values_exit_two(argv):
    code, report = cli.run(argv)
    assert code == 2
    assert "error" in report


OVERRIDE_VALUES = {"sgp": "2,3", "domain": "O[sqrt(-27)]", "bound": "3",
                   "trials": "1"}


@pytest.mark.parametrize("name, override", [
    (name, key) for name, (_, reads) in cli.DEMOS.items()
    for key in cli.DEMO_OVERRIDES if key not in reads])
def test_demos_refuse_overrides_they_ignore(name, override):
    code, report = cli.run(["demo", name, f"--{override}", OVERRIDE_VALUES[override]])
    assert code == 2
    assert f"does not take --{override}" in report["error"]


@pytest.mark.parametrize("argv", [
    ["sgp", "info", "--sgp", "1000003,1000033"],
    ["sgp", "ideal", "--sgp", "2,3", "--gens=-2000000,2000000"],
])
def test_oversized_input_exits_two_before_allocating(argv):
    started = time.monotonic()
    code, report = cli.run(argv)
    assert code == 2
    assert "window of more than" in report["error"]
    assert time.monotonic() - started < 0.5


def test_ex217_reports_a_failed_condition_on_a_nonmaximal_order():
    code, report = cli.run(["demo", "ex217", "--domain", "Z[sqrt(-3)]"])
    assert code == 1
    assert "error" not in report
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("coefficient domain integrally closed", "fail"),
        ("monoid integrally closed", "pass"),
        ("monoid class group trivial", "pass"),
    ]


def test_gens_and_sgp_share_one_list_parser():
    _, plain = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2,3"])
    _, blank = cli.run(["sgp", "ideal", "--sgp", "2,,3", "--gens", "2,,3"])
    assert blank["results"] == plain["results"]
    for argv in (["sgp", "ideal", "--sgp", "2,x", "--gens", "2,3"],
                 ["sgp", "ideal", "--sgp", "2,3", "--gens", "2,x"]):
        code, report = cli.run(argv)
        assert code == 2
        assert "comma-separated integer list" in report["error"]


@pytest.mark.parametrize("spaced, glued", [
    (["--gens", "-5,0"], ["--gens=-5,0"]),
    (["--gens", "0", "--gens2", "-5,0", "--op", "sum"],
     ["--gens", "0", "--gens2=-5,0", "--op", "sum"]),
])
def test_list_options_accept_a_leading_negative_number(spaced, glued):
    base = ["sgp", "ideal", "--sgp", "2,3"]
    code, report = cli.run(base + spaced)
    code_glued, report_glued = cli.run(base + glued)
    assert code == code_glued == 0

    def body(r):
        return {k: v for k, v in r.items() if k not in ("command", "elapsed")}
    assert body(report) == body(report_glued)


def test_usage_error_exits_two(capsys):
    code, _ = cli.run(["sgp", "ideal", "--sgp", "2,3"])
    assert code == 2
    code, _ = cli.run(["demo", "no-such-demo"])
    assert code == 2
    code, _ = cli.run([])
    assert code == 2
    assert "usage:" in capsys.readouterr().err


def test_failing_check_exits_one(monkeypatch):
    def stub(seed, trials=None, only=None):
        return [{"name": "stub", "trials": 1, "failures": 1,
                 "checks": [{"name": "broken law", "status": "fail",
                             "detail": "witness"}]}]
    monkeypatch.setattr(suites, "run_suites", stub)
    code, report = cli.run(["suite", "--only", "oracle"])
    assert code == 1
    assert statuses(report) == ["fail"]


def test_skipped_checks_do_not_fail_the_run():
    code, report = cli.run(["demo", "ex216"])
    assert code == 0
    assert statuses(report) == ["skipped"]


def test_demo_reports_have_checks():
    for name in ("ex111", "ex112", "ex217", "ex218"):
        code, report = cli.run(["demo", name])
        assert code == 0, name
        assert report["checks"], name
        assert "fail" not in statuses(report), name


def test_seed_resolution_priority(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "41")
    _, report = cli.run(["suite", "--only", "closure", "--trials", "5"])
    assert report["seed"] == 41
    _, report = cli.run(["suite", "--only", "closure", "--trials", "5",
                         "--seed", "7"])
    assert report["seed"] == 7
    monkeypatch.delenv(cli.SEED_ENV)
    _, report = cli.run(["suite", "--only", "closure", "--trials", "5"])
    assert report["seed"] == 0


def test_json_file_matches_returned_report(tmp_path):
    path = tmp_path / "report.json"
    code, report = cli.run(["demo", "ex112", "--json", str(path)])
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(report))


def test_same_seed_reports_are_identical():
    argv = ["demo", "decomposition", "--trials", "25", "--seed", "11"]
    _, first = cli.run(argv)
    _, second = cli.run(argv)
    first.pop("elapsed")
    second.pop("elapsed")
    assert first == second


def test_different_seeds_change_the_sampling():
    _, a = cli.run(["suite", "--only", "closure", "--trials", "8",
                    "--seed", "1"])
    _, b = cli.run(["suite", "--only", "closure", "--trials", "8",
                    "--seed", "2"])
    assert a["seed"] != b["seed"]
    assert a["results"] == b["results"]


def test_main_prints_check_lines(capsys):
    code = cli.main(["demo", "ex112"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS group structure -- Z/2Z" in out
    assert '"structure": "Z/2Z"' in out


def test_main_prints_errors_to_stderr(capsys):
    code = cli.main(["sgp", "info", "--sgp", "2,x"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
