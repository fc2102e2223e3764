"""Golden digests of the sweep: one sha256 per ``demo ex218`` and ``sgp search``
report, ``elapsed`` removed, and per progress call list of
``search_nonprincipal_t_invertible`` on each benchmark sweep semigroup.  A
change to any of them shows as a diff of ``tests/golden/sweep.json``.

After a deliberate report change, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py --update``.
"""

import ast
import hashlib
import json
import sys
from pathlib import Path

from sgclass import cli, ideals as mid
from sgclass.semigroups import from_generators

GOLDEN = Path(__file__).parent / "golden" / "sweep.json"
WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"
SEMIGROUPS = ("2,3", "3,5", "3,4,5", "4,6,9", "5,7", "7,9,11", "6,7,9,10", "1", "9,11")
BOUNDS = (0, 1, 5, 12, 20, 33)


def sweep_slots():
    """``SWEEP_SLOTS`` of the benchmark workloads, read without importing them."""
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "SWEEP_SLOTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no SWEEP_SLOTS in {WORKLOADS}")


def corpus():
    """Yield (name, value) for each item: a report as [exit code, report], or
    a progress call list."""
    argvs = [["demo", "ex218"]]
    for sgp in SEMIGROUPS:
        for bound in BOUNDS:
            for command in (["demo", "ex218"], ["sgp", "search"]):
                argvs.append(command + ["--sgp", sgp, "--bound", str(bound)])
    for argv in argvs:
        code, report = cli.run(argv)
        report.pop("elapsed", None)
        yield " ".join(argv), [code, report]
    for gens, _, high in sweep_slots():
        monoid = from_generators(gens)
        for bound in range(high + 4):
            calls = []
            mid.search_nonprincipal_t_invertible(
                monoid, bound, progress=lambda n, g: calls.append([n, g]))
            yield f"progress {monoid.text()} {bound}", calls


def digests() -> dict:
    return {name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for name, value in corpus()}


def test_sweep_reports_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(expected) == 1 + 2 * len(SEMIGROUPS) * len(BOUNDS) + \
        sum(high + 4 for _, _, high in sweep_slots())
    assert digests() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
