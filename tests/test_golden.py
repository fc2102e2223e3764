"""Golden digests of CLI reports: one sha256 per report, ``elapsed`` removed.

``tests/golden/sweep.json`` pins every ``demo ex218`` and ``sgp search``
report of the sweep corpus and, per benchmark sweep semigroup, the progress
call lists of ``search_nonprincipal_t_invertible``.  ``tests/golden/
commands.json`` pins the reports of every other command: each demo, the
suites over fixed trial counts and seeds, ``sgp info`` and ``sgp ideal``.  A
change to any of them shows as a diff of its file.

After a deliberate report change, rewrite both files with
``PYTHONPATH=src python tests/test_golden.py --update``.
"""

import ast
import hashlib
import json
import sys
from pathlib import Path

from sgclass import cli, ideals as mid
from sgclass.semigroups import from_generators

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"
SEMIGROUPS = ("2,3", "3,5", "3,4,5", "4,6,9", "5,7", "7,9,11", "6,7,9,10", "1", "9,11")
BOUNDS = (0, 1, 5, 12, 20, 33)
INFO_SGPS = ("2,3", "4,6,9", "1", "p^inf:2", "700,701", "101,103,107", "6,10,15")
IDEAL_GENS = ("0", "0,1", "2,3", "-5,0", "0,2,5")
IDEAL_OPS = ("info", "sum", "colon", "inverse", "v", "t", "class")


def workload_constant(name: str):
    """A constant of the benchmark workloads, read without importing them."""
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no {name} in {WORKLOADS}")


def sweep_slots():
    return workload_constant("SWEEP_SLOTS")


def reports(argvs):
    """Yield (argv text, [exit code, report]) for each argv, ``elapsed`` removed."""
    for argv in argvs:
        code, report = cli.run(argv)
        report.pop("elapsed", None)
        yield " ".join(argv), [code, report]


def sweep_corpus():
    """Yield (name, value) for each item: a report as [exit code, report], or
    a progress call list."""
    argvs = [["demo", "ex218"]]
    for sgp in SEMIGROUPS:
        for bound in BOUNDS:
            for command in (["demo", "ex218"], ["sgp", "search"]):
                argvs.append(command + ["--sgp", sgp, "--bound", str(bound)])
    yield from reports(argvs)
    for gens, _, high in sweep_slots():
        monoid = from_generators(gens)
        for bound in range(high + 4):
            calls = []
            mid.search_nonprincipal_t_invertible(
                monoid, bound, progress=lambda n, g: calls.append([n, g]))
            yield f"progress {monoid.text()} {bound}", calls


def command_argvs() -> list:
    argvs = [["demo", name] for name in cli.DEMOS]
    argvs += [["demo", "ex217", "--domain", f"O[sqrt(-{p})]"]
              for p in workload_constant("EX217_PRIMES")]
    argvs += [["demo", "ex217", "--sgp", sgp, "--domain", domain]
              for sgp in ("1", "11,13", "p^inf:3")
              for domain in ("Z", "Q", "Z[sqrt(-5)]", "Z[sqrt(-3)]")]
    for command in (["demo", "lemma23"], ["demo", "northcott"],
                    ["demo", "decomposition"], ["suite", "--only", "quadric"]):
        argvs += [command + ["--trials", str(trials), "--seed", str(seed)]
                  for trials in (1, 2, 3) for seed in range(1, 16)]
    argvs.append(["suite", "--seed", "7", "--trials", "3"])
    argvs += [["sgp", "info", "--sgp", sgp] for sgp in INFO_SGPS]
    for gens in workload_constant("IDEAL_SGPS"):
        for ygens in IDEAL_GENS:
            for op in IDEAL_OPS:
                argvs.append(["sgp", "ideal", "--sgp", ",".join(map(str, gens)),
                              "--gens", ygens, "--op", op]
                             + (["--gens2", "0,1"] if op in ("sum", "colon") else []))
    return argvs


def commands_corpus():
    yield from reports(command_argvs())


CORPORA = {"sweep.json": sweep_corpus, "commands.json": commands_corpus}


def digests(corpus) -> dict:
    return {name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for name, value in corpus()}


def expected(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def test_sweep_reports_match_the_golden_digests():
    golden = expected("sweep.json")
    assert len(golden) == 1 + 2 * len(SEMIGROUPS) * len(BOUNDS) + \
        sum(high + 4 for _, _, high in sweep_slots())
    assert digests(sweep_corpus) == golden


def test_command_reports_match_the_golden_digests():
    golden = expected("commands.json")
    # every argv is distinct, so no digest overwrites another
    assert len(golden) == len(command_argvs()) == 8 + 15 + 12 + 180 + 1 + 7 + 280
    assert digests(commands_corpus) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    GOLDEN.mkdir(exist_ok=True)
    for name, corpus in CORPORA.items():
        (GOLDEN / name).write_text(json.dumps(digests(corpus), indent=1, sort_keys=True)
                                   + "\n", encoding="utf-8")
