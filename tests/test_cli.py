"""Exit codes, report schema, and determinism of the command line front end."""

import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from sgclass import cli, suites
from sgclass import domains as dom
from sgclass import graded as grd
from sgclass import ideals as mid
from sgclass.errors import ExponentCapError
from sgclass.semigroups import from_generators, parse_monoid

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
    def reduce(sgp, gens):
        code, report = cli.run(["sgp", "ideal", "--sgp", sgp, "--gens", gens,
                                "--op", "class"])
        assert code == 0
        results = report["results"]
        assert results["invertible"] == results["representative"]["invertible"]
        return results

    results = reduce("2,3", "2,3")
    assert results["representative"]["generators"] == [0, 1]
    assert results["invertible"] is False
    assert results["trivial"] is False
    results = reduce("3,5", "7")
    assert results["invertible"] is True
    assert results["trivial"] is True
    assert reduce("3,5", "0,1")["trivial"] is False


def test_info_on_the_whole_line_has_conductor_zero():
    code, report = cli.run(["sgp", "info", "--sgp", "1"])
    assert code == 0
    results = report["results"]
    assert results["gaps"] == [] and results["conductor"] == 0
    assert results["frobenius"] == -1
    assert results["apery"] == [0]
    assert results["integrally_closed"] is True
    assert statuses(report) == ["pass"]


def test_search_command_reports_empty_sweep():
    code, report = cli.run(["sgp", "search", "--sgp", "3,5", "--bound", "12"])
    assert code == 0
    assert report["results"]["found"] is None
    assert statuses(report) == ["pass"]


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
    ["demo", "ex217", "--sgp", ""],
    ["demo", "ex217", "--domain", ""],
    ["demo", "ex218", "--sgp", ""],
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


@pytest.mark.parametrize("argv", [
    ["sgp", "info", "--sgp", "p^inf:100000000000000003"],
    ["demo", "ex217", "--domain", "Z[sqrt(-100000000000000003)]"],
])
def test_numbers_past_the_trial_division_cap_exit_two(argv):
    started = time.monotonic()
    code, report = cli.run(argv)
    assert code == 2
    assert "too large to factor" in report["error"]
    assert time.monotonic() - started < 1.0


def test_oversized_discriminant_exits_two_before_the_scan():
    started = time.monotonic()
    code, report = cli.run(["demo", "ex217", "--domain", "O[sqrt(-1000000007)]"])
    assert code == 2
    assert "too large to list" in report["error"]
    assert time.monotonic() - started < 1.0


def test_t_closure_check_compares_with_the_definitional_closure(monkeypatch):
    """The check judges the result by the set-model v-closure: a t-closure
    shifted by one fails it."""
    argv = ["sgp", "ideal", "--sgp", "3,5", "--gens", "0,1", "--op", "t"]
    code, report = cli.run(argv)
    assert code == 0 and statuses(report) == ["pass"]
    real = mid.t_closure
    monkeypatch.setattr(mid, "t_closure", lambda y: real(y).shift(1))
    code, report = cli.run(argv)
    assert code == 1 and statuses(report) == ["fail"]


@pytest.mark.parametrize("count", [16, 17])
def test_t_closure_check_passes_on_many_generators(count):
    sgp = ",".join(str(g) for g in range(count, 2 * count))
    gens = ",".join(str(g) for g in range(count))
    started = time.monotonic()
    code, report = cli.run(["sgp", "ideal", "--sgp", sgp, "--gens", gens, "--op", "t"])
    assert time.monotonic() - started < 0.5
    assert code == 0
    assert len(report["results"]["result"]["generators"]) == count
    assert statuses(report) == ["pass"]


def _drop_top_member(y):
    """y without its largest member below the stable bound: no longer closed
    under adding the multiplicity."""
    below = y.members & ((1 << (y.stable_bound - y.min)) - 1)
    return mid.FractionalIdeal(y.monoid, y.min_generators,
                               y.members ^ (1 << (below.bit_length() - 1)))


@pytest.mark.parametrize("sgp", ["100,101", "300,301"])
def test_t_closure_check_is_linear_in_the_conductor(sgp, monkeypatch):
    """Conductors 9,900 and 89,700: the check passes in well under a second,
    and still fails a t-closure shifted by one or missing one member."""
    argv = ["sgp", "ideal", "--sgp", sgp, "--gens", "0,1", "--op", "t"]
    started = time.monotonic()
    code, report = cli.run(argv)
    assert time.monotonic() - started < 1.0
    assert code == 0 and statuses(report) == ["pass"]
    real = mid.t_closure
    for broken in (lambda y: real(y).shift(1), lambda y: _drop_top_member(real(y))):
        monkeypatch.setattr(mid, "t_closure", broken)
        code, report = cli.run(argv)
        assert code == 1 and statuses(report) == ["fail"]


def test_t_closure_check_builds_the_member_set_once(monkeypatch):
    """Asking ``contains`` at each point of the window costs a big-int shift
    per call, 180,901 calls here; the check reads the result's members once."""
    calls = []
    real = mid.FractionalIdeal.contains
    monkeypatch.setattr(mid.FractionalIdeal, "contains",
                        lambda self, g: calls.append(g) or real(self, g))
    code, report = cli.run(["sgp", "ideal", "--sgp", "300,301", "--gens", "0,1",
                            "--op", "t"])
    assert code == 0 and statuses(report) == ["pass"]
    assert len(calls) < 300   # fewer than one per class mod the multiplicity


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
    for argv in (["sgp", "ideal", "--sgp", "2,x", "--gens", "2,3"],
                 ["sgp", "ideal", "--sgp", "2,3", "--gens", "2,x"],
                 ["sgp", "ideal", "--sgp", "2,,3", "--gens", "2,3"],
                 ["sgp", "ideal", "--sgp", "2,3", "--gens", "2,,3"],
                 ["sgp", "info", "--sgp", "2,3,"]):
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


def test_unwritable_json_path_exits_two(tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, report = cli.run(["demo", "ex216", "--json", str(path)])
    assert code == 2
    assert report["error"].startswith("cannot write --json file: ")
    assert "fail" not in statuses(report)
    assert not path.exists()


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


def test_power_cone_info_skips_ideal_arithmetic():
    code, report = cli.run(["sgp", "info", "--sgp", "p^inf:2"])
    assert code == 0
    assert report["results"] == {"monoid": "p^inf:2", "kind": "p_power_cone",
                                 "integrally_closed": True}
    assert report["checks"] == [{"name": "ideal arithmetic unsupported on this monoid",
                                 "status": "skipped",
                                 "detail": "integral closedness only"}]


@pytest.mark.parametrize("gens, gens2", [
    ([0, 4], [2, 5]), ([-1, 3, 8], [0, 2]), ([0, 4], None), ([2, 3, 7], None)])
def test_ideal_colon_and_inverse_match_the_set_model(gens, gens2):
    """The reported generators are the minimal members of the set-model ideal
    (Y : Z), or S : Y without --gens2: members g with no g - a a member, for
    each atom a of the semigroup."""
    sgp = from_generators([3, 5, 7])
    argv = ["sgp", "ideal", "--sgp", "3,5,7", "--gens", ",".join(map(str, gens))]
    if gens2 is None:
        argv += ["--op", "inverse"]
        oracle = lambda g: suites.oracle_inverse_member(sgp, gens, g)
    else:
        argv += ["--gens2", ",".join(map(str, gens2)), "--op", "colon"]
        oracle = lambda g: suites.oracle_colon_member(sgp, gens, gens2, g)
    code, report = cli.run(argv)
    assert code == 0
    generators = report["results"]["result"]["generators"]
    result = mid.ideal_from_generators(sgp, generators)
    window = suites._window(result)
    members = {g for g in window if oracle(g)}
    assert members == {g for g in window if result.contains(g)}
    assert generators == sorted(g for g in members
                                if all(g - a not in members for a in sgp.generators))


def test_ex218_lists_non_divisorial_counterexamples():
    code, report = cli.run(["demo", "ex218", "--sgp", "3,4,5", "--bound", "8"])
    assert code == 1
    sgp = from_generators([3, 4, 5])
    nondivisorial = []
    for gens in mid.canonical_generator_sets(sgp, 8):
        y = mid.ideal_from_generators(sgp, gens)
        v = suites.v_oracle(sgp, list(gens))
        if any(v(g) != y.contains(g) for g in suites._window(y)):
            nondivisorial.append(y.text())
    assert len(nondivisorial) >= 3
    first = report["checks"][0]
    assert first["name"] == "every enumerated ideal is divisorial"
    assert first["status"] == "fail"
    assert first["detail"] == f"counterexamples: {nondivisorial[:3]}"


def test_ex218_search_is_the_witness_of_the_sweep(monkeypatch):
    sgp = from_generators([3, 5])
    nonprincipal = [y for y in (mid.ideal_from_generators(sgp, gens)
                                for gens in mid.canonical_generator_sets(sgp, 10))
                    if not mid.is_principal(y)]
    chosen = nonprincipal[len(nonprincipal) // 2]
    assert chosen.min > 0  # so the first of its class is another antichain
    real = mid._t_invertible
    unit = mid.unit_ideal(sgp)
    # the bits of an inverse are read from minus the ideal's minimum, so
    # they are shift-invariant: every shift of ``chosen`` has these
    target = mid._colon_bits(unit.members, chosen.min_generators)

    # a fake judge, shift-invariant like the real one, in the private judge
    # that the sweep, ``demo ex218`` and ``is_t_invertible`` all consult
    def fake(z, pf):
        return z == target or real(z, pf)
    monkeypatch.setattr(mid, "_t_invertible", fake)
    first = next(y for y in nonprincipal
                 if mid._colon_bits(unit.members, y.min_generators) == target)
    witness = mid.search_nonprincipal_t_invertible(sgp, 10)
    assert witness == first
    assert witness != chosen
    code, report = cli.run(["demo", "ex218", "--sgp", "3,5", "--bound", "10"])
    assert code == 1
    assert report["results"]["search"] == witness.to_json()
    assert report["results"]["search"]["invertible"] is True


BIG = 100_000_000


@pytest.mark.parametrize("argv, ideals", [
    (["sgp", "search", "--sgp", "2,3", "--bound", str(BIG)], None),
    # keys (0,) and (0, 1) have tops 0 and 1: (B + 1) + B antichains
    (["demo", "ex218", "--bound", str(BIG)], 2 * BIG + 1),
    # keys (0,), (0, 1), (0, 2), (0, 1, 2): (B + 1) + B + 2 (B - 1)
    (["demo", "ex218", "--sgp", "3,4,5", "--bound", str(BIG)], 4 * BIG - 1),
])
def test_sweeps_count_the_shifts_at_any_bound(argv, ideals):
    """No class key has a top past the Frobenius number, so a sweep judges
    each class once and counts its shifts; a walk over every top would take
    minutes here."""
    started = time.monotonic()
    code, report = cli.run(argv)
    assert time.monotonic() - started < 1
    if ideals is None:
        assert code == 0
        assert report["results"]["found"] is None
        return
    assert report["results"]["ideals"] == ideals
    assert report["results"]["search"] is None
    if "3,4,5" in argv:
        assert code == 1
        assert report["checks"][0]["detail"] == "counterexamples: " \
            "['gens=0,1@sgp=3,4,5', 'gens=0,2@sgp=3,4,5', 'gens=1,2@sgp=3,4,5']"
    else:
        assert code == 0


@pytest.mark.parametrize("op", ["info", "inverse", "v", "t", "class"])
def test_ideal_ops_refuse_a_second_operand_they_ignore(op):
    code, report = cli.run(["sgp", "ideal", "--sgp", "2,3", "--gens", "2,3",
                            "--op", op, "--gens2", "0,1"])
    assert code == 2
    assert "--gens2" in report["error"]
    assert "results" not in report


def test_bad_seed_in_the_environment_exits_two(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    code, report = cli.run(["demo", "ex111"])
    assert code == 2
    assert cli.SEED_ENV in report["error"]
    assert "results" not in report


def test_exponent_cap_error_exits_one(monkeypatch):
    def past_the_cap(x, y):
        raise ExponentCapError("no exponent up to 1 balances the contents")
    monkeypatch.setattr(grd, "dedekind_mertens_exponent", past_the_cap)
    code, report = cli.run(["demo", "northcott", "--trials", "1"])
    assert code == 1
    assert report["error"] == "no exponent up to 1 balances the contents"
    assert "results" not in report


def _int_list(low, high):
    return st.lists(st.integers(low, high), min_size=1, max_size=6).map(
        lambda xs: ",".join(map(str, xs)))


_JUNK = st.sampled_from(["", "x", "2,x", "3,,5", "--", "1/2", " ", "0"])
_SGP = st.sampled_from(["2,3", "3,5", "4,6,9", "1", "p^inf:2", "p^inf:6"]) \
    | _int_list(-2, 12) | _JUNK
_GENS = _int_list(-10, 20) | _JUNK
_DOMAIN = st.sampled_from(["Q", "Z", "Z[sqrt(-5)]", "Z[sqrt(-3)]", "O[sqrt(-23)]",
                           "O[sqrt(-27)]", "Z[sqrt(5)]", "O[sqrt(x)]", "ring", ""])
_SEED = st.sampled_from(["0", "5", "-2", "x", ""])


@st.composite
def _argvs(draw):
    """A bounded argv grammar: every command and op, small or junk values."""
    command = draw(st.sampled_from(["info", "ideal", "search", "demo", "suite"]))
    if command == "demo":
        name = draw(st.sampled_from(sorted(cli.DEMOS)))
        argv, reads = ["demo", name], cli.DEMOS[name][1]
        values = {"sgp": _SGP, "domain": _DOMAIN, "bound": st.integers(0, 10).map(str),
                  "trials": st.integers(1, 3).map(str)}
        for key in cli.DEMO_OVERRIDES:
            # a bound or trial count the demo reads is always small
            forced = key in reads and key in ("bound", "trials")
            if forced or draw(st.booleans()):
                argv += [f"--{key}", draw(values[key])]
    elif command == "suite":
        argv = ["suite", "--trials", str(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            argv += ["--only", draw(st.sampled_from(sorted(suites.SUITES)))]
    else:
        argv = ["sgp", command, "--sgp", draw(_SGP)]
        if command == "ideal":
            argv += ["--gens", draw(_GENS), "--op",
                     draw(st.sampled_from(["info", "sum", "colon", "inverse", "v",
                                           "t", "class", "bogus"]))]
            if draw(st.booleans()):
                argv += ["--gens2", draw(_GENS)]
        if command == "search":
            argv += ["--bound", str(draw(st.integers(0, 10)))]
    if draw(st.booleans()):
        argv += ["--seed", draw(_SEED)]
    return argv


@given(_argvs())
@settings(deadline=None, max_examples=80)
def test_cli_run_exits_cleanly_on_any_argv(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        code, report = cli.run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in report


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_two_runs_build_the_parser_once(monkeypatch):
    cli.build_parser.cache_clear()
    built = _counting(monkeypatch, argparse.ArgumentParser, "add_subparsers")
    assert cli.run(["demo", "ex216"])[0] == 0
    assert cli.run(["sgp", "info", "--sgp", "2,3"])[0] == 0
    # the top-level parser and its sgp subparser each add one subparser set
    assert len(built) == 2


def test_search_runs_one_sweep(monkeypatch):
    sweeps = _counting(monkeypatch, mid, "search_nonprincipal_t_invertible")
    code, _ = cli.run(["sgp", "search", "--sgp", "3,5", "--bound", "12"])
    assert code == 0
    assert len(sweeps) == 1


def test_ex217_builds_one_class_group(monkeypatch):
    """The conclusion's label comes from one cyclic extension, with no table."""
    extensions = _counting(monkeypatch, dom, "_extension")
    tables = _counting(monkeypatch, dom, "class_group")
    code, report = cli.run(["demo", "ex217", "--domain", "O[sqrt(-23)]"])
    assert code == 0
    assert "Z/3Z" in report["results"]["conclusion"]
    assert len(extensions) == 1
    assert tables == []


def test_condition_three_is_answered_without_a_sweep(monkeypatch):
    """Over a numerical semigroup, condition 3 is a theorem, not a search."""
    sweeps = _counting(monkeypatch, mid, "search_nonprincipal_t_invertible")
    report = grd.transfer_criterion_report(dom.parse_domain("Z"), parse_monoid("2,3"))
    code, demo = cli.run(["demo", "ex217", "--sgp", "11,13"])
    assert code == 1   # 11,13 is not integrally closed: condition 2 fails
    for rep in (report, demo["results"]):
        assert "search_bound" not in rep
        assert [c["holds"] for c in rep["conditions"]] == [True, False, True]
        assert rep["conditions"][2]["detail"] == \
            "theorem: every t-invertible ideal of a numerical semigroup is principal"
    assert sweeps == []


def test_northcott_search_is_computed_once():
    assert suites.northcott_search() is suites.northcott_search()


@pytest.mark.parametrize("op", ["v", "inverse", "class"])
def test_ideal_op_judges_each_ideal_divisorial_once(op, monkeypatch):
    """The divisoriality check reads the result's report, so the input and the
    result are each judged once."""
    judged = _counting(monkeypatch, mid, "is_divisorial")
    code, report = cli.run(["sgp", "ideal", "--sgp", "3,5", "--gens", "0,2", "--op", op])
    assert code == 0 and statuses(report) == ["pass"]
    assert len(judged) == 2


def test_ex218_computes_each_class_inverse_once(monkeypatch):
    """Divisoriality and t-invertibility of a class read one computation of
    its inverse bits: one ``_inverse_bits`` call per class key, in order."""
    sgp = from_generators([7, 9, 11])
    keys = [y.min_generators for y in mid.normalized_classes(sgp, 20)]
    assert len(keys) > 100
    computed = _counting(monkeypatch, mid, "_inverse_bits")
    code, report = cli.run(["demo", "ex218", "--sgp", "7,9,11", "--bound", "20"])
    assert code == 1  # 7,9,11 is not symmetric: some classes are not divisorial
    assert report["results"]["search"] is None
    assert [gens for _, gens in computed] == keys
